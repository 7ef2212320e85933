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
from twoloc.fixtures import discrete_twocat, parity_twocat
from twoloc.fractions import Span, _Hom
from twoloc.transport import AmbientView, LocalizationView, WeakEquivalenceReport
from corpus import CorpusEntry, cyclic_family, cyclic_parity, posetal_family
from functor_enum import enumerate_strict_functors, search_constancy


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
    assert any(law == "hcomp" for law, _ in rep.failures)


def test_validate_functor_keeps_one_witness_per_law():
    # s_f ↦ i_f breaks eight horizontal composites; the first one is kept
    c, _ = fixture("F6")
    fun = identity_functor(c)
    broken = StrictTwoFunctor(c, c, dict(fun.f0), dict(fun.f1),
                              {**fun.f2, "s_f": "i_f"})
    laws = [law for law, _ in validate_functor(broken).failures]
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
    c, w = fixture("F3")
    ch = build_choices(c, w, enforce_c3=False)
    with pytest.raises(StructureError, match="must honour C3"):
        induce(identity_functor(c), build_choices(c, w), ch)


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
    loc = localize(c, w)
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
        return {k for k, store in c._hom_partitions.items() if store.counters["sweeps"]}

    ind = comparison_to_saturation(c, w)
    assert set(c._hom_partitions) == {w, frozenset(c.mors)} and swept() == set()
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
    built = [(s1, s2) for s1, row in c._hom_partitions[frozenset(c.mors)]._out.items()
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
        view = LocalizationView(loc)
        for a, b in itertools.product(c.objects, repeat=2):
            closed = [is_internal_equiv_closed_form(c, w, s) for s in loc.spans(a, b)]
            assert [s.f in loc.saturation for s in loc.spans(a, b)] == closed, entry.name
            assert view.equivalent_objects(a, b) == any(closed), (entry.name, a, b)
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


def test_compare_choice_tables_connects_everything():
    c, w = fixture("F3")
    ch1 = build_choices(c, w)
    ch2 = build_choices(c, w, enforce_c3=False)
    comp = compare_choice_tables(ch1, ch2)
    assert comp.ok
    assert comp.pairs_checked > 0
    assert not comp.unconnected
    other, _ = fixture("F3")  # equal tables, another 2-category
    for ch in (build_choices(other, w), build_choices(c, {"id0", "id1"})):
        with pytest.raises(StructureError, match="another 2-category or class W"):
            compare_choice_tables(ch1, ch)


def reference_weak_equivalence_report(src_view, dst_view, map_object, map_one, map_two):
    """The all-pairs walk `weak_equivalence_report` replaced, kept as its oracle.

    Every pair of parallel source 1-cells is visited, the empty homs too,
    and each 1-cell is mapped again wherever it is used.
    """
    rep = WeakEquivalenceReport()

    rep.verdicts["obj_surjective_up_to_equiv"] = True
    for y in dst_view.objects:
        if not any(dst_view.equivalent_objects(map_object(x), y)
                   for x in src_view.objects):
            rep.verdicts["obj_surjective_up_to_equiv"] = False
            rep.counterexamples["obj_surjective_up_to_equiv"] = (y,)
            break

    rep.verdicts["mor_surjective_up_to_iso"] = True
    rep.verdicts["cell_injective"] = True
    rep.verdicts["cell_surjective"] = True
    for a, b in itertools.product(src_view.objects, src_view.objects):
        src_ones = src_view.ones(a, b)
        for g in dst_view.ones(map_object(a), map_object(b)):
            if rep.verdicts["mor_surjective_up_to_iso"] and not any(
                    dst_view.invertible_between(map_one(f), g) for f in src_ones):
                rep.verdicts["mor_surjective_up_to_iso"] = False
                rep.counterexamples["mor_surjective_up_to_iso"] = (a, b, g)
        for f1, f2 in itertools.product(src_ones, src_ones):
            cells = src_view.twos(f1, f2)
            images = [map_two(al) for al in cells]
            if rep.verdicts["cell_injective"]:
                for (a1, i1), (a2, i2) in itertools.combinations(
                        zip(cells, images), 2):
                    if i1 == i2:
                        rep.verdicts["cell_injective"] = False
                        rep.counterexamples["cell_injective"] = (f1, f2, a1, a2)
                        break
            if rep.verdicts["cell_surjective"]:
                image_set = set(images)
                for t in dst_view.twos(map_one(f1), map_one(f2)):
                    if t not in image_set:
                        rep.verdicts["cell_surjective"] = False
                        rep.counterexamples["cell_surjective"] = (f1, f2, t)
                        break
    return rep


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
    src = discrete_twocat(["0", "1"], {"id0": ("0", "0"), "id1": ("1", "1"),
                                       "f": ("0", "1"), "g": ("0", "1")},
                          {"0": "id0", "1": "id1"}, {})
    dst, _w = fixture("F3")
    f1 = {"id0": "id0", "id1": "id1", "f": "w", "g": "w"}
    return StrictTwoFunctor(src, dst, {"0": "0", "1": "1"}, f1,
                            {src.id2[m]: dst.id2[f1[m]] for m in src.mors})


def ambient_case(fun: StrictTwoFunctor):
    return (x_conditions_for_functor, fun,
            (AmbientView(fun.source), AmbientView(fun.target),
             fun.f0.__getitem__, fun.f1.__getitem__, fun.f2.__getitem__))


def induced_case(ind: InducedPseudofunctor):
    return (x_conditions_for_induced, ind,
            (LocalizationView(ind.source_loc), LocalizationView(ind.target_loc),
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
    assert [got.counterexamples["cell_surjective"][:2] for got in reports[-2:]] == \
        [("f", "g"), (Span("0", "id0", "f"), Span("0", "id0", "g"))]


def test_x_conditions_ask_only_the_non_empty_source_homs(monkeypatch):
    # Z/8 at <2>: 32 spans, so 1,024 pairs, of which 4 targets per source
    # hold a 2-cell; the source view is asked for those 128 homs alone
    c = cyclic_parity(8, "s")
    ind = comparison_to_saturation(c, frozenset({"g0", "g2", "g4", "g6"}))
    asked = []
    twos = LocalizationView.twos

    def spy(view, s, t):
        if view.loc is ind.source_loc:
            asked.append((s, t))
        return twos(view, s, t)

    monkeypatch.setattr(LocalizationView, "twos", spy)
    assert x_conditions_for_induced(ind).ok
    spans = ind.source_loc.spans("x", "x")
    non_empty = [(s, t) for s in spans for t in spans if ind.source_loc.hom_cells(s, t)]
    assert len(spans) == 32 and len(non_empty) == 128
    assert asked == non_empty
