"""The equivalence witness built from a saturation witness, against a search.

`is_internal_equiv_search` keeps its name but no longer searches: for a
span s = (A′, w, f) with f ∈ W_sat it takes the least g with f∘g ∈ W and
g∘h ∈ W for some h and returns ē = (src g, f∘g, w∘g) with the first
invertible δ: id_a ⇒ s;ē and ξ: ē;s ⇒ id_b.  `oracle_internal_equiv_search`
is the original per-candidate search over `loc.spans(b, a)`, kept here
only as a reference.

Where BF holds, the two decide alike and the construction's δ and ξ
always exist.  Where BF fails the theorem does not apply and the two may
differ; there the construction is only held to its own contract: every
exception is a `StructureError` from a span check, the answer is None iff
f ∉ W_sat, and a returned witness is checked.
"""

import itertools

import pytest

from twoloc import (
    CATALOGS,
    check_bf,
    discrete_groupoid,
    groupoid_twocat,
    pair_groupoid,
    saturate,
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
    is_invertible_fraction_cell,
    span_dst,
    span_src,
    u_mor,
)

from corpus import cyclic_family, load_bench_module, oracle_inputs
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


def expected_quasi_inverse(loc, s: Span):
    """(src g, f∘g, w∘g) for the least middle g in sorted order, or None if there is none."""
    c, w = loc.c, loc.w
    middles = [g for g in sorted(c.mors) if c.mor_dst[g] == s.apex
               and c.comp1[(s.f, g)] in w
               and any(c.comp1.get((g, h)) in w for h in c.mors)]
    if not middles:
        return None
    g = middles[0]
    return Span(c.mor_src[g], c.comp1[(s.f, g)], c.comp1[(s.w, g)])


def check_span(loc, s: Span, bf: bool) -> str:
    """Run the construction on s, check what it returns, and name the outcome."""
    c = loc.c
    try:
        found = is_internal_equiv_search(loc, s)
    except StructureError:  # any other exception fails the test
        assert not bf, s
        return "raise"
    e_bar = expected_quasi_inverse(loc, s)
    assert (found is None) == (e_bar is None), s
    if bf:
        assert (found is None) == (oracle_internal_equiv_search(loc, s) is None), s
    if found is None:
        return "none"
    assert found.e == s and found.e_bar == e_bar, s
    ida, idb = identity_span(c, span_src(c, s)), identity_span(c, span_dst(c, s))
    assert (found.delta.src_span, found.delta.dst_span) == (ida, compose_fractions(loc, s, e_bar))
    assert (found.xi.src_span, found.xi.dst_span) == (compose_fractions(loc, e_bar, s), idb)
    assert is_invertible_fraction_cell(loc, found.delta), s
    assert is_invertible_fraction_cell(loc, found.xi), s
    return "found"


def check_every_span(loc) -> set[tuple[bool, str]]:
    """`check_span` on every span of loc; returns the (BF holds, outcome) pairs seen."""
    c = loc.c
    bf = check_bf(c, loc.w).ok
    return {(bf, check_span(loc, s, bf))
            for a, b in itertools.product(sorted(c.objects), repeat=2)
            for s in loc.spans(a, b)}


def localizations(c, classes):
    """build_choices at each class and its saturation, where it succeeds."""
    seen = []
    for cls in classes:
        for each in (frozenset(cls), saturate(c, cls)):
            if each in seen:
                continue
            seen.append(each)
            try:
                yield build_choices(c, each)
            except StructureError:
                pass


def neighbours(c, w):
    """W with one 1-cell taken out or put in: classes that break BF somewhere."""
    w = frozenset(w)
    return [w ^ {m} for m in sorted(c.mors)]


def test_search_matches_oracle_on_oracle_inputs():
    # F1-F7, the corpus, the posetal family and the shipped catalogs, at
    # W, W_sat and all 1-cells, and, on the small tables, at every class
    # one 1-cell away from W: there BF can fail, and an identity span or a
    # composite with ē can fail its check
    names = set()
    kinds = set()
    for entry in oracle_inputs():
        names.add(entry.name)
        classes = classes_to_compare(entry.c, entry.w)
        if len(entry.c.mors) <= 12:
            classes += neighbours(entry.c, entry.w)
        for loc in localizations(entry.c, classes):
            kinds |= check_every_span(loc)
    assert kinds == {(True, "none"), (True, "found"),
                     (False, "none"), (False, "raise"), (False, "found")}
    assert names.issuperset(FIXTURES)


def test_search_matches_oracle_on_cyclic_parity():
    # Z/4, Z/6 and Z/8 under both twist names, at every subgroup
    for entry in cyclic_family():
        for loc in localizations(entry.c, [entry.w]):
            assert (True, "found") in check_every_span(loc), entry.name


def test_search_matches_oracle_on_catalogs():
    # the shipped catalogs, and the benchmark's renamed Unit, Pair2, Disc3
    catalogs = [make() for _, make in sorted(CATALOGS.items())]
    workloads = load_bench_module("workloads")
    catalogs += [workloads.CatalogMorita(seed).fresh_inputs() for seed in (1, 2, 3)]
    kinds = set()
    for catalog in catalogs:
        c, w = groupoid_twocat(catalog)
        kinds |= check_every_span(build_choices(c, w))
    assert kinds == {(True, "none"), (True, "found")}


def test_search_matches_oracle_on_catalogs_without_an_identity():
    # with id_a out of W, BF1 fails and id_a fails its span check: a span
    # into or out of a is refused, and every other answer is still checked;
    # the saturation puts id_a back, and BF with it
    c, w = groupoid_twocat(CATALOGS["unit-pair-disc"]())
    kinds = set()
    for loc in localizations(c, [w - {c.id1[a]} for a in c.objects]):
        kinds |= check_every_span(loc)
    assert kinds == {(False, "none"), (False, "raise"), (False, "found"),
                     (True, "none"), (True, "found")}


def test_search_matches_oracle_without_choice_entries():
    # a hand-built localization missing its fillers: a span outside W_sat
    # is answered without composing, and any other raises on s;ē
    c, w = fixture("F3")
    loc = Localization(c, frozenset(w), {})
    sat = saturate(c, w)
    for a, b in itertools.product(sorted(c.objects), repeat=2):
        for s in loc.spans(a, b):
            if s.f not in sat:
                assert is_internal_equiv_search(loc, s) is None
            else:
                with pytest.raises(StructureError, match="no choice entry"):
                    is_internal_equiv_search(loc, s)


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
    # a span outside W_sat sweeps no row and builds no class; a span in
    # it sweeps the row of id_a for δ and the row of ē;s for ξ, once each
    swept, built = [], []
    sweep, partition = _HomPartitions._sweep, _HomPartitions._partition
    monkeypatch.setattr(_HomPartitions, "_sweep",
                        lambda self, c, s1: swept.append(s1) or sweep(self, c, s1))
    monkeypatch.setattr(_HomPartitions, "_partition",
                        lambda self, c, s1, s2, reps: built.append(s1)
                        or partition(self, c, s1, s2, reps))
    c, w = groupoid_twocat([unit_groupoid(), pair_groupoid(2), discrete_groupoid(3)])
    loc = build_choices(c, w)
    misses = [u_mor(c, w, f) for f in c.mors if f not in w]
    assert len(misses) == 36
    assert all(is_internal_equiv_search(loc, s) is None for s in misses)
    assert swept == built == []
    found = [is_internal_equiv_search(loc, u_mor(c, w, f)) for f in sorted(w)]
    assert len(found) == 14 and None not in found
    assert len(swept) == len(set(swept))
    assert set(swept) == ({identity_span(c, span_src(c, eq.e)) for eq in found}
                          | {compose_fractions(loc, eq.e_bar, eq.e) for eq in found})
    assert loc._store.counters["sweeps"] == len(swept)
