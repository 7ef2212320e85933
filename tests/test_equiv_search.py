"""The search decider against the per-candidate search it replaces.

`oracle_internal_equiv_search` is the original implementation: for each
g in `loc.spans(b, a)` it composes s;g and g;s and asks each hom for its
first invertible cell.  It is kept here only as a reference.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest

from twoloc import (
    CATALOGS,
    discrete_groupoid,
    groupoid_twocat,
    pair_groupoid,
    unit_groupoid,
)
from twoloc.core import StructureError
from twoloc.fixtures import FIXTURES, fixture
from twoloc.fractions import (
    Localization,
    Span,
    SpanEquivalence,
    _HomPartitions,
    build_choices,
    compose_fractions,
    first_invertible_cell,
    identity_span,
    is_internal_equiv_closed_form,
    is_internal_equiv_search,
    span_dst,
    span_src,
    u_mor,
)

from corpus import cyclic_family, oracle_inputs
from test_partitions import classes_to_compare


def oracle_internal_equiv_search(loc, s: Span):
    """The quasi-inverse search that `is_internal_equiv_search` replaces."""
    c = loc.c
    a, b = span_src(c, s), span_dst(c, s)
    ida, idb = identity_span(c, a), identity_span(c, b)
    for g in loc.spans(b, a):
        delta = first_invertible_cell(loc, ida, compose_fractions(loc, s, g))
        if delta is None:
            continue
        xi = first_invertible_cell(loc, compose_fractions(loc, g, s), idb)
        if xi is not None:
            return SpanEquivalence(s, g, delta, xi)
    return None


def outcome(decide, loc, s: Span):
    """(e_bar, δ, ξ), None, or the type and text of what was raised."""
    try:
        found = decide(loc, s)
    except Exception as exc:  # any exception must be the oracle's too
        return type(exc), str(exc)
    return None if found is None else (found.e_bar, found.delta, found.xi)


def assert_search_matches_oracle(loc) -> set[str]:
    """Both searches on every span of loc; returns the kinds of outcome seen."""
    c = loc.c
    kinds = set()
    for a, b in itertools.product(sorted(c.objects), repeat=2):
        for s in loc.spans(a, b):
            got = outcome(is_internal_equiv_search, loc, s)
            assert got == outcome(oracle_internal_equiv_search, loc, s), s
            kinds.add("none" if got is None else "raise" if len(got) == 2 else "found")
    return kinds


def localizations(c, classes):
    """build_choices at each class where it succeeds."""
    for cls in classes:
        try:
            yield build_choices(c, cls)
        except StructureError:
            pass


def neighbours(c, w):
    """W with one 1-cell taken out or put in: classes that break BF somewhere."""
    w = frozenset(w)
    return [w ^ {m} for m in sorted(c.mors)]


def test_search_matches_oracle_on_oracle_inputs():
    # F1-F7, the corpus, the posetal family and the shipped catalogs, at
    # W, W_sat and all 1-cells, and, on the small tables, at every class
    # one 1-cell away from W: there an identity span, s;g or g;s can fail
    # its check, and both searches raise the same error
    names = set()
    kinds = set()
    for entry in oracle_inputs():
        names.add(entry.name)
        classes = classes_to_compare(entry.c, entry.w)
        if len(entry.c.mors) <= 12:
            classes += neighbours(entry.c, entry.w)
        for loc in localizations(entry.c, classes):
            kinds |= assert_search_matches_oracle(loc)
    assert kinds == {"none", "raise", "found"}
    assert names.issuperset(FIXTURES)


def test_search_matches_oracle_on_cyclic_parity():
    # Z/4, Z/6 and Z/8 under both twist names, at every subgroup
    for entry in cyclic_family():
        for loc in localizations(entry.c, [entry.w]):
            assert "found" in assert_search_matches_oracle(loc), entry.name


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_matches_oracle_on_catalogs():
    # the shipped catalogs, and the benchmark's renamed Unit, Pair2, Disc3
    catalogs = [make() for _, make in sorted(CATALOGS.items())]
    workloads = load_bench_workloads()
    catalogs += [workloads.CatalogMorita(seed).fresh_inputs() for seed in (1, 2, 3)]
    kinds = set()
    for catalog in catalogs:
        c, w = groupoid_twocat(catalog)
        kinds |= assert_search_matches_oracle(build_choices(c, w))
    assert kinds == {"none", "found"}


def test_search_matches_oracle_on_catalogs_without_an_identity():
    # with id_b out of W and no candidate passing δ, the search returns
    # None without reading the row of id_b, as the oracle does
    c, w = groupoid_twocat(CATALOGS["unit-pair-disc"]())
    kinds = set()
    for loc in localizations(c, [w - {c.id1[a]} for a in c.objects]):
        kinds |= assert_search_matches_oracle(loc)
    assert kinds == {"none", "raise", "found"}


def test_search_matches_oracle_without_choice_entries():
    # a hand-built localization missing its fillers raises the same error
    c, w = fixture("F3")
    loc = Localization(c, frozenset(w), {})
    assert assert_search_matches_oracle(loc) == {"raise"}


@pytest.mark.parametrize("span", [Span("nope", "idX", "f"), Span("Z", "nope", "f")])
def test_search_rejects_a_malformed_span_as_the_closed_form_does(span):
    c, w = fixture("F2")
    loc = build_choices(c, w)
    with pytest.raises(StructureError) as closed:
        is_internal_equiv_closed_form(c, w, span)
    with pytest.raises(StructureError) as search:
        is_internal_equiv_search(loc, span)
    assert str(search.value) == str(closed.value) == f"apex {span.apex!r} is not an object"


def test_searches_sweep_only_the_identities_and_the_witnesses(monkeypatch):
    # a candidate g is tested against the rows of id_a and id_b; the row
    # of g;s is swept only for the witness returned, to build its ξ
    swept = []
    sweep = _HomPartitions._sweep
    monkeypatch.setattr(_HomPartitions, "_sweep",
                        lambda self, c, s1: swept.append(s1) or sweep(self, c, s1))
    c, w = groupoid_twocat([unit_groupoid(), pair_groupoid(2), discrete_groupoid(3)])
    loc = build_choices(c, w)
    found = [is_internal_equiv_search(loc, u_mor(c, w, f)) for f in c.mors]
    witnesses = [compose_fractions(loc, eq.e_bar, eq.e) for eq in found if eq is not None]
    assert len(found) == 50 and len(witnesses) == len(w) == 14
    assert len(swept) == len(set(swept))
    assert set(swept) == {identity_span(c, a) for a in c.objects} | set(witnesses)
    assert loc._store.counters["sweeps"] == len(swept)
