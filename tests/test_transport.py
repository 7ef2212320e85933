"""Strict 2-functors, induced pseudofunctors, and weak-equivalence checks."""

import itertools
import re
from collections import Counter

import pytest

from twoloc import (
    FIXTURES,
    InducedPseudofunctor,
    StructureError,
    StrictTwoFunctor,
    build_choices,
    cell_from_rep,
    check_bf,
    collapse_functor,
    compare_choice_tables,
    comparison_to_saturation,
    fixture,
    identity_functor,
    induce,
    is_internal_equiv_closed_form,
    is_invertible_fraction_cell,
    localize,
    preserves_into,
    saturate,
    saturation_compatibility,
    u_cell,
    u_mor,
    validate_functor,
    x_conditions_for_functor,
    x_conditions_for_induced,
)
from twoloc.core import TwoCat
from twoloc.fixtures import parity_twocat
from twoloc.fractions import Localization, Numbering, Span, _Hom, _HomPartitions
from twoloc.groupoids import CATALOGS, groupoid_twocat
from twoloc.saturation import cospan_fillers
from twoloc.transport import AmbientView
from corpus import CorpusEntry, cyclic_family, cyclic_parity, posetal_family, with_tables
from oracles import enumerate_strict_functors, reference_weak_equivalence_report, search_constancy


def test_identity_and_collapse_validate():
    point, _ = fixture("F1")
    for name in ("F1", "F3", "F6"):
        c, _w = fixture(name)
        assert validate_functor(identity_functor(c)).ok
        assert validate_functor(collapse_functor(c, point)).ok


def test_collapse_needs_terminal_target():
    c, _ = fixture("F3")
    not_point, _ = fixture("F5")
    with pytest.raises(StructureError):
        collapse_functor(c, not_point)


def test_validate_functor_catches_breakage():
    # collapsing the parity of s_g but not s_f sends s_g∗s_f = i_idX to
    # i_g∗s_f = s_idX, so horizontal preservation must fail
    c, _ = fixture("F6")
    fun = identity_functor(c)
    broken = StrictTwoFunctor(c, c, dict(fun.f0), dict(fun.f1),
                              {**fun.f2, "s_g": "i_g"})
    rep = validate_functor(broken)
    assert not rep.ok
    assert "hcomp" in rep.verdicts


def test_validate_functor_keeps_one_witness_per_law():
    # s_f ↦ i_f breaks eight horizontal composites; the first one is kept
    c, _ = fixture("F6")
    fun = identity_functor(c)
    broken = StrictTwoFunctor(c, c, dict(fun.f0), dict(fun.f1),
                              {**fun.f2, "s_f": "i_f"})
    laws = list(validate_functor(broken).verdicts)
    assert laws.count("hcomp") == 1
    assert len(laws) == len(set(laws))


def test_enumerator_agrees_with_validator():
    c6, _ = fixture("F6")
    funs = enumerate_strict_functors(c6, c6)
    assert len(funs) == 8  # 4 object maps x 2 parity choices
    assert all(validate_functor(f).ok for f in funs)


def test_preserves_into():
    c, w = fixture("F2")
    fun = identity_functor(c)
    assert preserves_into(fun, w, w)
    assert preserves_into(fun, w, saturate(c, w))
    assert not preserves_into(fun, {"f"}, w)


def test_saturation_compatibility_clauses_agree():
    pairs = [("F2", "F2"), ("F3", "F3"), ("F5", "F5"), ("F7", "F7")]
    for na, nb in pairs:
        ca, wa = fixture(na)
        cb, wb = fixture(nb)
        for fun in enumerate_strict_functors(ca, cb):
            if not preserves_into(fun, wa, saturate(cb, wb)):
                continue
            compat = saturation_compatibility(fun, wa, wb)
            assert compat.image_in_target_sat == compat.sat_image_in_target_sat
            assert compat.ok


def test_saturation_compatibility_rejects_non_bf_class():
    c, w = fixture("F4")
    with pytest.raises(StructureError):
        saturation_compatibility(identity_functor(c), w, w)


def test_induce_requires_c3_table():
    # F6's cospan (g, g) has a second filler through f: g∘f = idX
    c, w = fixture("F6")
    ch = build_choices(c, w)
    assert ch.entries[("g", "g")] == ("Y", "idY", "idY", "i_g")
    entries = dict(ch.entries)
    entries[("g", "g")] = ("X", "f", "f", "i_idX")
    assert entries[("g", "g")] in cospan_fillers(c, ch.w, "g", "g")
    with pytest.raises(StructureError, match="must honour C3"):
        induce(identity_functor(c), ch, Localization(c, ch.w, entries))
    induce(identity_functor(c), Localization(c, ch.w, entries), ch)


def test_induce_requires_image_in_class():
    c, w = fixture("F2")
    ch = build_choices(c, w)  # W = identities only
    with pytest.raises(StructureError, match="escapes the target class"):
        induce(identity_functor(c), build_choices(c, saturate(c, w)), ch)


def test_induce_requires_each_table_on_its_side():
    c, w = fixture("F3")
    other, _ = fixture("F3")  # equal tables, another 2-category
    fun = identity_functor(c)
    with pytest.raises(StructureError, match="does not belong to the source 2-category"):
        induce(fun, build_choices(other, w), build_choices(c, w))
    with pytest.raises(StructureError, match="does not belong to the target 2-category"):
        induce(fun, build_choices(c, w), build_choices(other, w))


def f2_mutants(c):
    """Each identity-functor copy with one 2-cell sent to another cell."""
    fun = identity_functor(c)
    for a, b in itertools.permutations(c.cells, 2):
        yield (a, b), StrictTwoFunctor(c, c, dict(fun.f0), dict(fun.f1),
                                       {**fun.f2, a: b})


def test_induce_rejects_every_single_cell_mutant_of_the_identity():
    # constancy is a lemma about strict 2-functors, so induce must refuse
    # anything validate_functor rejects, naming its first failing law
    c, w = fixture("F6")
    ch = build_choices(c, w)
    mutants = list(f2_mutants(c))
    assert len(mutants) == 56
    for (a, b), fun in mutants:
        rep = validate_functor(fun)
        assert not rep.ok, (a, b)
        with pytest.raises(StructureError, match=re.escape(rep.lines()[0])):
            induce(fun, ch, ch)


def test_constancy_search_rejects_non_functors():
    # the oracle is not vacuous: bypassing induce's functor check, the
    # search finds a class with two images for each mutant that keeps
    # every boundary but breaks a composition law
    c, w = fixture("F6")
    loc = build_choices(c, w)
    rejected = []
    for (a, b), fun in f2_mutants(c):
        if (c.cell_src[a], c.cell_dst[a]) != (c.cell_src[b], c.cell_dst[b]):
            continue
        if search_constancy(InducedPseudofunctor(fun, loc, loc)) is not None:
            rejected.append((a, b))
    assert ("s_f", "i_f") in rejected
    assert len(rejected) == 8


def test_comparison_to_saturation_agrees_with_constancy_search(corpus_entries):
    # every input but F4 (built to fail BF) passes the fraction axioms
    inputs = [CorpusEntry(name, *fixture(name)) for name in sorted(FIXTURES)
              if name != "F4"]
    inputs += corpus_entries + posetal_family() + cyclic_family()
    assert len(inputs) == 6 + 101 + 244 + 22
    for entry in inputs:
        assert check_bf(entry.c, entry.w).ok, entry.name
        ind = comparison_to_saturation(entry.c, entry.w)
        assert search_constancy(ind) is None, entry.name


@pytest.mark.parametrize("step", [4, 2])
def test_comparison_to_saturation_builds_no_partition(step):
    # classes are formed only when a cell is asked for; the stores of W
    # and W_sat exist from the start, since they are what checks each class
    c = cyclic_parity(8, "s")
    w = frozenset(f"g{k}" for k in range(0, 8, step))

    def swept():
        return {k for k, store in c._fractions.items() if store.counters["sweeps"]}

    ind = comparison_to_saturation(c, w)
    assert set(c._fractions) == {w, frozenset(c.mors)} and swept() == set()
    ind.map_cell(u_cell(ind.source_loc, "s_g0"))
    assert swept() == {w, frozenset(c.mors)}


@pytest.mark.parametrize("step", [4, 2])
def test_x_conditions_build_classes_only_between_source_spans(step):
    # whether a target span g receives an invertible cell is read off the
    # W_sat sweep; only the cell conditions, between images of W-spans,
    # need W_sat's classes
    c = cyclic_parity(8, "s")
    w = frozenset(f"g{k}" for k in range(0, 8, step))
    assert x_conditions_for_induced(comparison_to_saturation(c, w)).ok
    sources = set(build_choices(c, w).spans("x", "x"))
    built = [(s1, s2) for s1, row in c._fractions[frozenset(c.mors)]._out.items()
             for s2, entry in row.items() if isinstance(entry, _Hom)]
    assert built and all(s1 in sources and s2 in sources for s1, s2 in built)


@pytest.mark.parametrize("twist_name", ["s", "a"])
def test_point_into_z8_is_not_mor_surjective(twist_name):
    # the one-object parity point, sent to the identity of Z/8: no 1-cell
    # of the point maps near the generator g1, in either view
    point = parity_twocat(["p"], {"e": ("p", "p")}, {"p": "e"}, {("e", "e"): "e"},
                          twist_name=twist_name)
    z8 = cyclic_parity(8, twist_name)
    fun = StrictTwoFunctor(point, z8, {"p": "x"}, {"e": "g0"},
                           {"i_e": "i_g0", f"{twist_name}_e": f"{twist_name}_g0"})
    reports = [(x_conditions_for_functor(fun), "g1")]
    for w in ({"g0"}, {"g0", "g4"}):
        ind = induce(fun, build_choices(point, {"e"}), build_choices(z8, w))
        reports.append((x_conditions_for_induced(ind), Span("x", "g0", "g1")))
    for rep, g in reports:
        assert rep.verdicts == {"obj_surjective_up_to_equiv": True,
                                "mor_surjective_up_to_iso": False,
                                "cell_injective": True, "cell_surjective": True}
        assert rep.counterexamples == {"mor_surjective_up_to_iso": ("p", "p", g)}


def test_induced_identity_is_strict():
    c, w = fixture("F3")
    ch = build_choices(c, w)
    ind = induce(identity_functor(c), ch, ch)
    for f in c.mors:
        assert ind.map_span(u_mor(c, w, f)) == u_mor(c, w, f)
    for gamma in c.cells:
        assert ind.map_cell(u_cell(ch, gamma)) == u_cell(ch, gamma)
    loc = localize(c, w, ch)
    for a, b in itertools.product(c.objects, repeat=2):
        for s in loc.spans(a, b):
            for cc in c.objects:
                for t in loc.spans(b, cc):
                    comp = ind.compositor(s, t)
                    assert is_invertible_fraction_cell(ch, comp)


def test_induced_swap_on_walking_iso():
    c, w = fixture("F6")
    swap = next(f for f in enumerate_strict_functors(c, c)
                if f.f0 == {"X": "Y", "Y": "X"} and f.f2.get("s_f") == "s_g")
    ch = build_choices(c, w)
    ind = induce(swap, ch, ch)
    assert search_constancy(ind) is None
    loc = localize(c, w, ch)
    for s in loc.spans("X", "Y"):
        img = ind.map_span(s)
        assert (img.w, img.f) == (swap.f1[s.w], swap.f1[s.f])
    for cell in loc.hom_cells(u_mor(c, w, "f"), u_mor(c, w, "f")):
        assert ind.map_cell(cell) in loc.hom_cells(ind.map_span(u_mor(c, w, "f")),
                                                   ind.map_span(u_mor(c, w, "f")))


def test_localization_view_reads_the_saturation(corpus_entries):
    # a span of the localization is an internal equivalence iff its
    # numerator is in W_sat, the closed form, on every span of every input
    inputs = [CorpusEntry(name, *fixture(name)) for name in sorted(FIXTURES)]
    inputs += corpus_entries + cyclic_family()
    assert len(inputs) == 7 + 101 + 22
    spans = 0
    for entry in inputs:
        c, w = entry.c, entry.w
        loc = build_choices(c, w)
        for a, b in itertools.product(c.objects, repeat=2):
            closed = [is_internal_equiv_closed_form(c, w, s) for s in loc.spans(a, b)]
            assert [s.f in loc.saturation for s in loc.spans(a, b)] == closed, entry.name
            assert loc.equivalent_objects(a, b) == any(closed), (entry.name, a, b)
            spans += len(closed)
    assert spans > 1000


def test_comparison_functor_is_weak_equivalence_on_f2():
    c, w = fixture("F2")
    ind = comparison_to_saturation(c, w)
    assert saturate(c, w) == frozenset(c.mors)  # everything becomes invertible
    rep = x_conditions_for_induced(ind)
    assert rep.ok, rep.lines()


def test_comparison_functor_is_weak_equivalence_on_f3():
    c, w = fixture("F3")
    rep = x_conditions_for_induced(comparison_to_saturation(c, w))
    assert rep.ok, rep.lines()


def test_identity_functor_passes_x_conditions():
    c, _w = fixture("F6")
    rep = x_conditions_for_functor(identity_functor(c))
    assert rep.ok, rep.lines()


def test_collapse_of_f7_fails_cell_injectivity():
    c, _w = fixture("F7")
    point, _ = fixture("F1")
    rep = x_conditions_for_functor(collapse_functor(c, point))
    assert not rep.ok
    assert rep.verdicts["cell_injective"] is False
    assert rep.verdicts["cell_surjective"] is True


def test_compare_choice_tables_connects_everything(corpus_entries):
    # against a table that takes the last filler of every cospan, at W
    # and at W_sat wherever BF passes; on fresh tables, whose class stores
    # show that the comparison partitioned no hom
    inputs = [CorpusEntry(name, *fixture(name)) for name in sorted(FIXTURES)]
    inputs += corpus_entries
    pairs = differing = 0
    for entry in inputs:
        for cls in (entry.w, saturate(entry.c, entry.w)):
            if not check_bf(entry.c, cls).ok:
                continue
            pairs += 1
            c = with_tables(entry.c)
            ch1 = build_choices(c, cls)
            ch2 = Localization(c, ch1.w, {
                k: list(cospan_fillers(c, ch1.w, *k))[-1] for k in ch1.entries})
            differing += ch1.entries != ch2.entries
            comp = compare_choice_tables(ch1, ch2)
            assert comp.ok and not comp.unconnected, (entry.name, sorted(cls))
            assert comp.pairs_checked > 0
            assert ch1._store.counters["representatives"] == 0, entry.name
    assert pairs == 12 + 202  # F4 fails BF at W and at W_sat
    assert differing > 0  # the two tables are not always the same
    c, w = fixture("F3")
    ch1 = build_choices(c, w)
    other, _ = fixture("F3")  # equal tables, another 2-category
    for ch in (build_choices(other, w), build_choices(c, {"id0", "id1"})):
        with pytest.raises(StructureError, match="another 2-category or class W"):
            compare_choice_tables(ch1, ch)


def point_into_z8(twist_name: str) -> StrictTwoFunctor:
    """The one-object parity point, sent to the identity of Z/8."""
    point = parity_twocat(["p"], {"e": ("p", "p")}, {"p": "e"}, {("e", "e"): "e"},
                          twist_name=twist_name)
    z8 = cyclic_parity(8, twist_name)
    return StrictTwoFunctor(point, z8, {"p": "x"}, {"e": "g0"},
                            {"i_e": "i_g0", f"{twist_name}_e": f"{twist_name}_g0"})


def parallel_pair_onto_an_arrow() -> StrictTwoFunctor:
    """Parallel f, g: 0 → 1 with no 2-cell between them, both sent to F3's w.

    The hom f ⇒ g is empty and its image hom holds i_w, so
    `cell_surjective` first fails at a pair that only the image side lists.
    """
    src = parity_twocat(["0", "1"], {"id0": ("0", "0"), "id1": ("1", "1"),
                                     "f": ("0", "1"), "g": ("0", "1")},
                        {"0": "id0", "1": "id1"}, {}, twisted=set())
    dst, _w = fixture("F3")
    f1 = {"id0": "id0", "id1": "id1", "f": "w", "g": "w"}
    return StrictTwoFunctor(src, dst, {"0": "0", "1": "1"}, f1,
                            {src.id2[m]: dst.id2[f1[m]] for m in src.mors})


def klein_onto_parity() -> StrictTwoFunctor:
    """The Klein group as the 2-cells k0..k3 of one identity 1-cell, onto the parity point.

    ki and kj compose, either way, to k(i xor j), and F sends ki to the
    parity of i's bits: k0, k3 to i_e and k1, k2 to s_e.  At W = {id}
    each (α, β) is its own class, so the first four classes of the one hom
    map to A, B, B, A: the first repeated pair in `combinations` order is
    (0, 3), while a scan for the first repeat would stop at (1, 2).
    """
    cells = [f"k{i}" for i in range(4)]
    table = {(b, a): f"k{int(b[1]) ^ int(a[1])}" for b in cells for a in cells}
    src = TwoCat(("x",), {"id": "x"}, {"id": "x"}, {("id", "id"): "id"}, {"x": "id"},
                 dict.fromkeys(cells, "id"), dict.fromkeys(cells, "id"), table, dict(table),
                 {"id": "k0"})
    dst = parity_twocat(["p"], {"e": ("p", "p")}, {"p": "e"}, {("e", "e"): "e"})
    return StrictTwoFunctor(src, dst, {"x": "p"}, {"id": "e"},
                            {"k0": "i_e", "k1": "s_e", "k2": "s_e", "k3": "i_e"})


class FractionCellView:
    """A localization's view with FractionCells as cell keys, as the oracle walks it."""

    def __init__(self, loc: Localization):
        self.loc = loc

    def __getattr__(self, name):
        return getattr(self.loc, name)

    def twos(self, s, t):
        return self.loc.hom_cells(s, t)


def ambient_case(fun: StrictTwoFunctor):
    return (x_conditions_for_functor, fun,
            (AmbientView(fun.source), AmbientView(fun.target),
             fun.f0.__getitem__, fun.f1.__getitem__, fun.f2.__getitem__))


def induced_case(ind: InducedPseudofunctor):
    return (x_conditions_for_induced, ind,
            (FractionCellView(ind.source_loc), FractionCellView(ind.target_loc),
             ind.map_object, ind.map_span, ind.map_cell))


def test_x_conditions_match_the_all_pairs_walk(corpus_entries):
    # skipping the pairs whose two homs are empty keeps every verdict and
    # the first counterexample of each condition, dict order included
    cases = []
    fixtures = {name: fixture(name)[0] for name in sorted(FIXTURES)}
    for src, dst in itertools.product(fixtures.values(), repeat=2):
        if len(src.cells) * len(dst.cells) <= 400:
            cases += [ambient_case(fun) for fun in enumerate_strict_functors(src, dst)[:40]]
    for entry in corpus_entries + cyclic_family():
        if check_bf(entry.c, entry.w).ok:
            cases.append(induced_case(comparison_to_saturation(entry.c, entry.w)))
    names = {entry.name for entry in cyclic_family()}
    assert {f"Z/8-{name}-<g{step}>" for name in "sa" for step in (4, 2)} <= names
    functors = [(point_into_z8(name), {"e"}, ({"g0"}, {"g0", "g4"})) for name in "sa"]
    functors.append((parallel_pair_onto_an_arrow(), {"id0", "id1"}, ({"id0", "id1"},)))
    functors.append((klein_onto_parity(), {"id"}, ({"e"},)))
    for fun, w_src, targets in functors:
        cases.append(ambient_case(fun))
        for w in targets:
            cases.append(induced_case(induce(fun, build_choices(fun.source, w_src),
                                             build_choices(fun.target, w))))

    failures = Counter()
    reports = []
    for decide, fun, views in cases:
        got, want = decide(fun), reference_weak_equivalence_report(*views)
        assert list(got.verdicts.items()) == list(want.verdicts.items())
        assert list(got.counterexamples.items()) == list(want.counterexamples.items())
        failures.update(k for k, ok in got.verdicts.items() if not ok)
        reports.append(got)
    assert set(failures) == {"obj_surjective_up_to_equiv", "mor_surjective_up_to_iso",
                             "cell_injective", "cell_surjective"}, failures
    # the parallel pair's two reports fail cell_surjective at an empty source hom
    assert [got.counterexamples["cell_surjective"][:2] for got in reports[-4:-2]] == \
        [("f", "g"), (Span("0", "id0", "f"), Span("0", "id0", "g"))]
    # Klein onto parity: sixteen classes share four images, and the pair kept
    # is the first in combinations order, (k0, k3) and not (k1, k2)
    ambient, induced = reports[-2:]
    assert ambient.counterexamples["cell_injective"] == ("id", "id", "k0", "k3")
    f1, f2, a1, a2 = induced.counterexamples["cell_injective"]
    assert f1 == f2 == Span("x", "id", "id")
    assert (a1.canonical[5:], a2.canonical[5:]) == (("k0", "k0"), ("k0", "k3"))


def test_x_conditions_ask_only_the_non_empty_source_homs(monkeypatch):
    # Z/8 at <2>: 32 spans, so 1,024 pairs, of which 4 targets per source
    # hold a 2-cell; the source view is asked for those 128 homs alone
    c = cyclic_parity(8, "s")
    ind = comparison_to_saturation(c, frozenset({"g0", "g2", "g4", "g6"}))
    asked = []
    twos = Localization.twos

    def spy(loc, s, t):
        if loc is ind.source_loc:
            asked.append((s, t))
        return twos(loc, s, t)

    monkeypatch.setattr(Localization, "twos", spy)
    assert x_conditions_for_induced(ind).ok
    spans = ind.source_loc.spans("x", "x")
    non_empty = [(s, t) for s in spans for t in spans if ind.source_loc.hom_cells(s, t)]
    assert len(spans) == 32 and len(non_empty) == 128
    assert asked == non_empty


def test_x_conditions_read_each_hom_and_its_image_once(monkeypatch):
    # Z/8 at <4> and <2>: the walk visits the 32 and 128 non-empty source
    # homs and reads each, and its image hom, once
    read = Counter()
    hom = _HomPartitions.hom

    def spy(store, c, s1, s2):
        read[(store is ind.source_loc._store, s1, s2)] += 1
        return hom(store, c, s1, s2)

    monkeypatch.setattr(_HomPartitions, "hom", spy)
    for step, pairs in ((4, 32), (2, 128)):
        ind = comparison_to_saturation(cyclic_parity(8, "s"), {f"g{k}" for k in range(0, 8, step)})
        read.clear()
        assert x_conditions_for_induced(ind).ok
        assert sum(read.values()) == 2 * pairs and set(read.values()) == {1}
        assert sum(source for source, _s1, _s2 in read) == pairs


def test_map_hom_sends_a_class_where_map_rep_sends_each_member():
    # for every member r of every class of `comparison_to_saturation` over the
    # cyclic family, of F6's swap, whose object and 1-cell names move, and of
    # two functors between different 2-categories, whose member codes differ:
    # `map_hom`'s key for the class is the key of the target class of map_rep(r)
    cases = [comparison_to_saturation(e.c, e.w) for e in cyclic_family()]
    c, w = fixture("F6")
    swap = next(f for f in enumerate_strict_functors(c, c)
                if f.f0 == {"X": "Y", "Y": "X"} and f.f2.get("s_f") == "s_g")
    cases.append(induce(swap, build_choices(c, w), build_choices(c, w)))
    point, _ = fixture("F1")
    cases.append(induce(collapse_functor(c, point), build_choices(c, w),
                        build_choices(point, point.mors)))
    # Unit and Pair2 into Unit, Pair2 and Disc2: the functor and cell names agree
    (small, w), (big, w_big) = (groupoid_twocat(CATALOGS[name]())
                                for name in ("unit-pair", "unit-pair-disc"))
    inclusion = StrictTwoFunctor(small, big, {o: o for o in small.objects},
                                 {f: f for f in small.mors}, {a: a for a in small.cells})
    cases.append(induce(inclusion, build_choices(small, w), build_choices(big, w_big)))
    counted = []
    for ind in cases:
        loc, tl = ind.source_loc, ind.target_loc
        classes = 0
        for a, b in itertools.product(loc.objects, repeat=2):
            for s1, s2 in itertools.product(loc.spans(a, b), repeat=2):
                keys = loc.twos(s1, s2)
                images, image_hom = ind.map_hom(s1, s2, keys)
                t1, t2 = ind.map_span(s1), ind.map_span(s2)
                assert image_hom == tl.twos(t1, t2)
                for key, image, cell in zip(keys, images, loc.hom_cells(s1, s2), strict=True):
                    assert loc.cell(s1, s2, key) == cell
                    target = tl.cell(t1, t2, image)
                    assert all(cell_from_rep(tl, ind.map_rep(r)) == target for r in cell.members)
                    classes += 1
        counted.append(classes)
    assert sum(counted[:-2]) > 1000 and counted[-2:] == [64, 476]
    # Disc2 is Morita equivalent to neither Unit nor Pair2, and nothing else fails
    report = x_conditions_for_induced(cases[-1])
    assert [k for k, ok in report.verdicts.items() if not ok] == ["obj_surjective_up_to_equiv"]
    assert report.counterexamples == {"obj_surjective_up_to_equiv": ("Disc2",)}


def test_keys_raise_what_is_wrong_with_a_representative_no_class_holds():
    # `map_hom`'s lookup in the target takes names for the hom it is given:
    # names that no class holds become a representative of that hom, which
    # raises what `cell_from_rep` finds wrong with it, and the good ones map
    c = cyclic_parity(4, "s")
    loc = build_choices(c, {"g0", "g2"})
    s1 = loc.spans("x", "x")[0]
    s2 = next(s for s in loc.spans("x", "x") if loc.twos(s1, s))
    keys = loc.twos(s1, s2)
    assert [loc.canonical(s1, s2, key).beta for key in keys[:2]] == ["i_g0", "s_g0"]

    def sending(cell: str, image: str) -> InducedPseudofunctor:  # F's tables, unchecked
        fun = identity_functor(c)
        tables = StrictTwoFunctor(c, c, fun.f0, fun.f1, {**fun.f2, cell: image})
        return InducedPseudofunctor(tables, loc, loc)

    assert sending("s_g0", "s_g0").map_hom(s1, s2, keys) == (keys, keys)
    # s_g1: g1 ⇒ g1 is a 2-cell, but not one g0 ⇒ g0; "nope" names no cell
    with pytest.raises(StructureError, match="beta 's_g1' has wrong boundary"):
        sending("s_g0", "s_g1").map_hom(s1, s2, keys)
    with pytest.raises(StructureError, match="beta 'nope' has wrong boundary"):
        sending("s_g0", "nope").map_hom(s1, s2, keys)


def test_x_conditions_build_no_representative_and_hom_cells_decode_nothing(monkeypatch):
    # Z/8 at <2>: the comparison maps each source class on its names, decoded
    # once, with no `canonical` and no `map_rep`; counting a hom's cells, as
    # the benchmark does, decodes nothing
    calls = Counter()
    for owner, name in ((Localization, "canonical"), (InducedPseudofunctor, "map_rep"),
                        (Numbering, "decode")):
        def spy(*args, _method=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(owner, name, spy)
    w = frozenset({"g0", "g2", "g4", "g6"})
    ind = comparison_to_saturation(cyclic_parity(8, "s"), w)
    assert x_conditions_for_induced(ind).ok
    loc = ind.source_loc
    spans = loc.spans("x", "x")
    assert calls == {"decode": sum(len(loc.twos(s1, s2)) for s1 in spans for s2 in spans)}
    loc = build_choices(cyclic_parity(8, "s"), w)  # a fresh store
    calls.clear()
    assert sum(len(loc.hom_cells(s1, s2)) for s1 in spans for s2 in spans) == 512
    assert not calls
