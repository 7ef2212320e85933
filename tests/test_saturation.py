"""Fraction axioms (BF1-BF5), the right saturation, and their interplay.

`saturate` reads the saturation off the composition table, and
`saturation_witnesses` reads each member's least witness with it.
"""

import itertools
from collections import Counter

import pytest
from corpus import (
    CountingDict, counted_rows, cyclic_family, cyclic_parity, cyclic_plain, oracle_inputs,
    posetal_family, product_family, row_reads, with_tables,
)
from oracles import literal_cell_lifts, search_check_bf, search_witnesses

from twoloc import (
    StructureError,
    build_choices,
    check_bf,
    fixture,
    internal_equivalences,
    is_right_saturated,
    quasi_units,
    saturate,
    validate,
)
from twoloc import saturation
from twoloc.core import Report, TwoCat, find_quasi_inverse
from twoloc.fixtures import FIXTURES, parity_twocat
from twoloc.groupoids import (
    CATALOGS, discrete_groupoid, groupoid_twocat, pair_groupoid, unit_groupoid,
)
from twoloc.saturation import (
    AXIOMS,
    cell_lifts,
    cospan_fillers,
    fill_cospan,
    lift_cell,
)

BF_FIXTURES = ("F1", "F2", "F3", "F5", "F6", "F7")


def test_default_classes_pass_bf():
    for name in BF_FIXTURES:
        c, w = fixture(name)
        rep = check_bf(c, w)
        assert rep.ok, (name, rep.counterexamples)
        assert all(a in rep.verdicts for a in AXIOMS)


def test_f4_fails_exactly_bf5():
    c, w = fixture("F4")
    rep = check_bf(c, w)
    assert not rep.ok
    assert [a for a in AXIOMS if not rep.verdicts[a]] == ["BF5"]
    # q sits outside W but is invertibly isomorphic to p inside it; the
    # first witnessing cell in lexicographic order is mu_inv: q ⇒ p
    assert rep.counterexamples["BF5"] == ("mu_inv", "q")


def test_bf1_needs_all_identities():
    c, _ = fixture("F3")
    rep = check_bf(c, {"id0"})
    assert not rep.verdicts["BF1"]
    assert rep.counterexamples["BF1"] == ("id1",)


def test_bf2_composition_escape():
    # Z/4 as endo-1-cells of one object: {g0, g1} is not closed
    rep = check_bf(cyclic_plain(4), {"g0", "g1"})
    assert not rep.verdicts["BF2"]
    assert rep.counterexamples["BF2"] == ("g1", "g1", "g2")


def test_bf3_unfillable_cospan():
    # cospan-shaped poset P → Q ← R with the right leg in W: nothing maps
    # from P's side into R, so (u, v) cannot be squared
    mors = {"idP": ("P", "P"), "idQ": ("Q", "Q"), "idR": ("R", "R"),
            "u": ("P", "Q"), "v": ("R", "Q")}
    comp = {}
    for g, (gs, gd) in mors.items():
        for f, (fs, fd) in mors.items():
            if fd == gs:
                comp[(g, f)] = f if gs == gd else g
    c = parity_twocat(["P", "Q", "R"], mors,
                      {"P": "idP", "Q": "idQ", "R": "idR"}, comp, twisted=set())
    rep = check_bf(c, {"idP", "idQ", "idR", "v"})
    assert not rep.verdicts["BF3"]
    assert rep.counterexamples["BF3"] == ("u", "v")


def test_bf4a_undescendable_cell():
    # put f itself into F7's class: tau_f cannot be lifted along f because
    # the only denominator into A is idA and hom(idA, idA) has no image of tau
    c, w = fixture("F7")
    rep = check_bf(c, w | {"f"})
    assert not rep.verdicts["BF4a"]
    assert rep.counterexamples["BF4a"] == ("f", "idA", "idA", "tau_f")


def test_unknown_member_is_structure_error():
    c, _ = fixture("F1")
    with pytest.raises(StructureError):
        check_bf(c, {"idA", "ghost"})
    with pytest.raises(StructureError):
        saturate(c, {"ghost"})


# -- fillers and lifts -------------------------------------------------------


def test_cospan_filler_contract(corpus_entries):
    for entry in corpus_entries[:30]:
        c, w = entry.c, entry.w
        for f, v in itertools.product(c.mors, sorted(w)):
            if c.mor_dst[f] != c.mor_dst[v]:
                continue
            apex, v2, f2, rho = fill_cospan(c, w, f, v)
            assert v2 in w and c.mor_src[v2] == apex
            assert c.cell_src[rho] == c.compose1(f, v2)
            assert c.cell_dst[rho] == c.compose1(v, f2)
            assert c.is_invertible2(rho), entry.name


def test_fill_cospan_is_deterministic():
    c, w = fixture("F3")
    assert fill_cospan(c, w, "w", "w") == fill_cospan(c, w, "w", "w")
    assert fill_cospan(c, w, "w", "w") == next(cospan_fillers(c, w, "w", "w"))


def test_lift_cell_contract():
    c, w = fixture("F5")
    # eps whiskered by u: an endo-cell of u∘u = u; lift it back along u
    alpha = c.whisker_left("u", "eps_inv")  # u∘idA ⇒ u∘u as cells over u
    v, beta = lift_cell(c, w, "u", "idA", "u", alpha)
    assert v in w
    assert c.whisker_left("u", beta) == c.whisker_right(alpha, v)
    v2, beta2 = lift_cell(c, w, "u", "idA", "u", alpha, invertible=True)
    assert c.is_invertible2(beta2)


def test_lift_cell_raises_when_impossible():
    c, w = fixture("F7")
    with pytest.raises(StructureError):
        lift_cell(c, w | {"f"}, "f", "idA", "idA", "tau_f")


def test_cell_lifts_all_satisfy_equation(corpus_entries):
    for entry in corpus_entries[:20]:
        c, w = entry.c, entry.w
        for wm in sorted(w):
            b = c.mor_src[wm]
            for a_obj in c.objects:
                for f1, f2 in itertools.product(c.hom1(a_obj, b), repeat=2):
                    for alpha in c.hom2(c.compose1(wm, f1), c.compose1(wm, f2)):
                        for v, beta in cell_lifts(c, w, wm, f1, f2, alpha):
                            assert c.whisker_left(wm, beta) == \
                                c.whisker_right(alpha, v)


def test_cell_lifts_match_literal_search():
    # the lifts, candidates first and then the whisker test, in the order
    # and number of the per-alpha search
    lifted = 0
    for entry in oracle_inputs():
        c, w = entry.c, entry.w
        for wm in sorted(w):
            b = c.mor_src[wm]
            for a_obj in sorted(c.objects):
                for f1, f2 in itertools.product(c.hom1(a_obj, b), repeat=2):
                    for alpha in c.hom2(c.compose1(wm, f1), c.compose1(wm, f2)):
                        got = list(cell_lifts(c, w, wm, f1, f2, alpha))
                        assert got == list(literal_cell_lifts(c, w, wm, f1, f2, alpha)), \
                            (entry.name, wm, alpha)
                        lifted += len(got)
    assert lifted > 1000, lifted


def test_lift_candidates_skip_denominators_with_no_cell():
    # a v ∈ W with no 2-cell f1∘v ⇒ f2∘v lifts nothing, so it is no
    # candidate and no alpha is whiskered by it
    skipped = 0
    for entry in oracle_inputs():
        c, w = entry.c, entry.w
        for f1, f2 in itertools.product(c.mors, repeat=2):
            if (c.mor_src[f1], c.mor_dst[f1]) != (c.mor_src[f2], c.mor_dst[f2]):
                continue
            every = [(v, c.hom2(c.compose1(f1, v), c.compose1(f2, v)))
                     for apex in sorted(c.objects) for v in c.hom1(apex, c.mor_src[f1])
                     if v in w]
            got = saturation._lift_candidates(c, w, f1, f2)
            assert got == tuple((v, betas) for v, betas in every if betas), entry.name
            skipped += len(every) - len(got)
    assert skipped > 0


# -- saturation --------------------------------------------------------------


def assert_saturation_matches_search(c, w) -> None:
    """Compare on W, the identities, all 1-cells and the quasi-units."""
    for cls in (w, frozenset(c.id1.values()), frozenset(c.mors), quasi_units(c)):
        want = search_witnesses(c, cls)
        assert saturation.saturation_witnesses(c, cls) == want, sorted(cls)
        assert saturate(c, cls) == frozenset(want), sorted(cls)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_saturation_matches_search(name):
    assert_saturation_matches_search(*fixture(name))


def test_corpus_saturation_matches_search(corpus_entries):
    for entry in corpus_entries:
        assert_saturation_matches_search(entry.c, entry.w)


def test_posetal_saturation_matches_search():
    for entry in posetal_family():
        assert_saturation_matches_search(entry.c, entry.w)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cyclic_parity_saturation_matches_search(n):
    c = cyclic_parity(n, "s")
    for step in (d for d in range(1, n + 1) if n % d == 0):
        assert_saturation_matches_search(c, frozenset(f"g{k}" for k in range(0, n, step)))


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_catalog_saturation_matches_search(catalog):
    assert_saturation_matches_search(*groupoid_twocat(CATALOGS[catalog]()))


def test_quasi_units_by_fixture():
    expected = {
        "F1": {"idA"},
        "F2": {"idX", "idY"},
        "F3": {"id0", "id1"},
        "F4": {"idA", "idB"},
        "F5": {"idA", "u"},
        "F6": {"idX", "idY"},
        "F7": {"idA", "idB"},
    }
    for name, want in expected.items():
        c, _ = fixture(name)
        assert quasi_units(c) == frozenset(want), name


def test_saturate_hand_cases():
    c2, w2 = fixture("F2")
    # f gains membership through g (f∘g = idY, g∘f = idX), and vice versa
    assert saturate(c2, {"idX", "idY"}) == {"idX", "idY", "f", "g"}
    c7, w7 = fixture("F7")
    assert saturate(c7, w7) == w7  # nothing maps back from B
    c5, w5 = fixture("F5")
    # membership is on the nose: u∘g is never equal to idA, only isomorphic
    # to it, so {idA} (which fails BF5 precisely because of that) stays put
    assert saturate(c5, {"idA"}) == {"idA"}
    assert saturate(c5, w5) == w5


def test_saturation_laws_on_fixtures():
    for name in BF_FIXTURES:
        c, w = fixture(name)
        sat = saturate(c, w)
        assert frozenset(w) <= sat, name
        assert saturate(c, sat) == sat, name


def test_saturation_monotone(corpus_entries):
    for entry in corpus_entries[:40]:
        c, w = entry.c, entry.w
        qu = quasi_units(c)
        assert qu <= frozenset(w) | qu  # trivially
        if qu <= frozenset(w):
            assert saturate(c, qu) <= saturate(c, w), entry.name


def test_saturated_classes_detected():
    for name in FIXTURES:
        c, _ = fixture(name)
        eq = internal_equivalences(c)
        assert is_right_saturated(c, eq), name


def test_saturation_of_quasi_units_is_equivalences():
    for name in FIXTURES:
        c, _ = fixture(name)
        assert saturate(c, quasi_units(c)) == internal_equivalences(c), name


def test_bf_survives_saturation_on_fixtures():
    for name in BF_FIXTURES:
        c, w = fixture(name)
        rep = check_bf(c, saturate(c, w))
        assert rep.ok, (name, rep.counterexamples)


# -- BF4c against the per-pair search ------------------------------------------
#
# `check_bf` reads BF4c's zig candidates (s, p, nu) from a table built once
# per pair of denominators, in place of the per-pair search.


def lift_pair_modes(monkeypatch) -> list[bool]:
    """The `first_only` flag of each `_check_bf4` run, as `check_bf` runs."""
    modes = []
    check_bf4 = saturation._check_bf4
    monkeypatch.setattr(saturation, "_check_bf4", lambda c, w, rep, first_only:
                        modes.append(first_only) or check_bf4(c, w, rep, first_only))
    return modes


def test_check_bf_matches_per_pair_search(monkeypatch):
    # check_bf compares each lift with the first only when BF2, BF3 and
    # BF5 pass; that path, the all-pairs one and the redo must each meet
    # the search
    bf4c_failures = 0
    paths = Counter()
    modes = lift_pair_modes(monkeypatch)
    for entry in oracle_inputs():
        c = entry.c
        for w in (entry.w, frozenset(c.mors),
                  quasi_units(c) | frozenset(c.id1.values())):
            modes.clear()
            got = check_bf(c, w)
            paths[tuple(modes)] += 1
            want = search_check_bf(c, w)
            assert (got.verdicts, got.counterexamples) == \
                (want.verdicts, want.counterexamples), (entry.name, sorted(w))
            bf4c_failures += not got.verdicts["BF4c"]
    assert bf4c_failures > 0
    # (True, False): BF4a or BF4b failed, so BF4 was decided again on all pairs
    assert min(paths[(True,)], paths[(False,)], paths[(True, False)]) > 0, paths


def test_check_bf_matches_search_without_identities():
    # W = the 1-cells that are not identities fails BF1 everywhere and BF2
    # wherever two of them compose to an identity
    failed = Counter()
    for entry in oracle_inputs():
        c = entry.c
        w = frozenset(c.mors) - frozenset(c.id1.values())
        got, want = check_bf(c, w), search_check_bf(c, w)
        assert (got.verdicts, got.counterexamples) == \
            (want.verdicts, want.counterexamples), entry.name
        failed.update(a for a in AXIOMS if not got.verdicts[a])
    assert set(failed) == set(AXIOMS), failed


def unit_pair_disc3() -> tuple[TwoCat, frozenset[str]]:
    return groupoid_twocat([unit_groupoid(), pair_groupoid(2), discrete_groupoid(3)])


def search_bf4(c: TwoCat, w: frozenset[str], first_only: bool = True) -> Report:
    """BF4a-c by `_check_bf4`'s search alone, as `check_bf` runs it without the lemma."""
    rep = Report(AXIOMS)
    saturation._check_bf4(c, w, rep, first_only)
    return rep


def test_bf4c_asks_each_lift_pair_once(monkeypatch):
    """On the catalog Unit, Pair2, Disc3, the BF4 search runs `_coequalized` 568 times.

    Whether a zig merges the lifts l = (v, β) and l' = (v', β') of α
    depends on f1, f2, l and l' alone: the zigs are `_zigs(v, v')`, and the
    equation reads β, β', f1 and f2, never wm or α.  So the search asks
    each (f1, f2, l, l') once: 568 times, for 2,971 (α, lift pair) instances.
    `check_bf` asks none: every Morita map is an equivalence, so BF4 holds
    by the lemma in its docstring.
    """
    c, w = unit_pair_disc3()
    asked = Counter()
    coequalized = saturation._coequalized
    monkeypatch.setattr(saturation, "_coequalized", lambda c, f1, f2, l1, l2, zigs:
                        asked.update([(f1, f2, l1, l2)]) or coequalized(c, f1, f2, l1, l2, zigs))
    assert search_bf4(c, w).ok
    assert sum(asked.values()) == len(asked) == 568
    asked.clear()
    assert check_bf(c, w).ok and not asked


def test_check_bf_reads_each_lift_candidate_once():
    """On the catalog Unit, Pair2, Disc3, the BF4 search reads comp1 2,790 times.

    The lift candidates of an alpha, each v ∈ W into src f1 with a 2-cell
    f1∘v ⇒ f2∘v, read f1 and f2 only, so the search lists them once per
    (f1, f2) and not once per alpha.  The whisker test reads i_wm∗beta and
    alpha∗i_v for each alpha from the whisker rows, as often as it read
    hcomp: 9,468.  `check_bf` lists no lift there (BF4 holds by the lemma)
    and reads no whisker row; its 734 comp1 reads are BF2's 72, BF3's 553
    and the 14 quasi-inverse searches' 109.
    """
    c, w = unit_pair_disc3()
    counted = counted_rows(c, comp1=CountingDict(c.comp1))
    assert search_bf4(counted, w).ok
    assert (counted.comp1.reads, row_reads(counted)) == (2790, 9468)
    counted = counted_rows(c, comp1=CountingDict(c.comp1))
    assert check_bf(counted, w).ok
    assert (counted.comp1.reads, row_reads(counted)) == (734, 0)


def lemma_holds(c: TwoCat, w: frozenset[str]) -> bool:
    """The equivalence lemma's hypotheses: BF1, and every member of W has a quasi-inverse."""
    return set(c.id1.values()) <= w and all(find_quasi_inverse(c, v) is not None for v in w)


def test_bf4_lemma_matches_the_search(monkeypatch):
    """Where W holds the identities and consists of equivalences, BF4a-c hold.

    On each such input (W and the internal equivalences of each oracle
    input, Z/n and product) the all-pairs search finds BF4a-c true, and
    `check_bf`, which skips the search there, gives the search oracle's
    report.  So does the control, W minus one identity: BF1 fails there,
    so `check_bf` searches.  On the 4-groupoid catalog the search runs as
    `check_bf` would run it there (BF2, BF3 and BF5 hold), and derives no
    hcomp entry.
    """
    searched = lift_pair_modes(monkeypatch)
    inputs = oracle_inputs() + cyclic_family() + [p for _e1, _e2, p in product_family()]
    seen = set()
    for entry in inputs:
        c = entry.c
        for w in (entry.w, internal_equivalences(c)):
            if (id(c), w) in seen or not lemma_holds(c, w):
                continue
            seen.add((id(c), w))
            assert all(search_bf4(c, w, first_only=False).verdicts[a]
                       for a in ("BF4a", "BF4b", "BF4c")), (entry.name, sorted(w))
            for cls, by_lemma in ((w, True), (w - {min(c.id1.values())}, False)):
                searched.clear()
                got, want = check_bf(c, cls), search_check_bf(c, cls)
                assert (got.verdicts, got.counterexamples) == \
                    (want.verdicts, want.counterexamples), (entry.name, sorted(cls))
                assert bool(searched) != by_lemma, (entry.name, sorted(cls))
    assert len(seen) > 250, len(seen)

    c, w = groupoid_twocat(CATALOGS["unit-pair-disc"]() + [pair_groupoid(3)])
    assert internal_equivalences(c) == w
    searched.clear()
    assert check_bf(c, w).ok and not searched
    assert search_bf4(c, w).ok and "hcomp_table" not in vars(c)


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_check_bf_matches_search_on_catalogs(catalog):
    # at the Morita class and, where the catalog has one, at the class
    # with its least non-Morita endofunctor added, which BF2, BF3 and BF4a
    # reject on unit-pair-disc
    c, w = groupoid_twocat(CATALOGS[catalog]())
    endo = [f for f in c.mors if c.mor_src[f] == c.mor_dst[f] and f not in w]
    failing = []
    for cls in (w, w | set(endo[:1])):
        got, want = check_bf(c, cls), search_check_bf(c, cls)
        assert (got.verdicts, got.counterexamples) == \
            (want.verdicts, want.counterexamples), sorted(cls)
        failing.append([a for a in AXIOMS if not got.verdicts[a]])
    assert failing == [[], ["BF2", "BF3", "BF4a"] if endo else []]
    assert bool(endo) == (catalog == "unit-pair-disc")


def bf4c_alone() -> tuple[TwoCat, frozenset[str]]:
    """A 2-category where BF4c is the only failing axiom.

    Objects A, B, C; 1-cells g: A→B, w: B→C and wg = w∘g.  The 2-cells
    g ⇒ g are i_g, x and y, the monoid {1, x, 0} under vcomp; every
    whiskering of x or y by w is i_wg.  So i_g, x and y all lift i_wg
    through w along idA, and only the identity zig of idA can merge them.
    """
    mors = {"idA": ("A", "A"), "idB": ("B", "B"), "idC": ("C", "C"),
            "g": ("A", "B"), "w": ("B", "C"), "wg": ("A", "C")}
    comp1 = {(h, k): k if h.startswith("id") else h if k.startswith("id") else "wg"
             for h, k in itertools.product(mors, mors) if mors[k][1] == mors[h][0]}
    over = {m: [f"i_{m}"] for m in mors}
    over["g"] += ["x", "y"]
    vcomp = {(f"i_{m}", f"i_{m}"): f"i_{m}" for m in mors}
    vcomp.update({(b, a): "y" if "y" in (a, b) else "x" if "x" in (a, b) else "i_g"
                  for a, b in itertools.product(over["g"], over["g"])})
    hcomp = {(b, a): a if h.startswith("id") else b if k.startswith("id") else f"i_{hk}"
             for (h, k), hk in comp1.items() for b in over[h] for a in over[k]}
    cells = {a: m for m, on in over.items() for a in on}
    c = TwoCat(objects=("A", "B", "C"), mor_src={m: sd[0] for m, sd in mors.items()},
               mor_dst={m: sd[1] for m, sd in mors.items()}, comp1=comp1,
               id1={o: f"id{o}" for o in "ABC"}, cell_src=cells, cell_dst=cells,
               vcomp_table=vcomp, hcomp_table=hcomp, id2={m: f"i_{m}" for m in mors})
    return c, frozenset({"idA", "idB", "idC", "w"})


def test_bf4c_fails_alone_on_the_first_lift_path(monkeypatch):
    c, w = bf4c_alone()
    assert validate(c).ok
    modes = lift_pair_modes(monkeypatch)
    rep = check_bf(c, w)
    assert modes and all(modes)
    assert [a for a in AXIOMS if not rep.verdicts[a]] == ["BF4c"]
    assert rep.counterexamples == {"BF4c": ("w", "i_wg", ("idA", "i_g"), ("idA", "x"))}
    want = search_check_bf(c, w)
    assert (rep.verdicts, rep.counterexamples) == (want.verdicts, want.counterexamples)


def category(ids, arrows, products):
    """A finite category: the identity of each object, every arrow's (src, dst), and
    the composites g∘f of non-identities as products[(g, f)]."""
    comp = {(g, f): f if g in ids.values() else g if f in ids.values() else products[(g, f)]
            for g, (gs, _) in arrows.items() for f, (_, fd) in arrows.items() if fd == gs}
    return ids, arrows, comp


def functor_twocat(cats, gens) -> TwoCat:
    """Finite categories, the functors that `gens` generate, and every natural transformation.

    A functor is (source, target, object map, arrow map).  A composite is
    named "g.f" after the first pair found to give it, and a 2-cell f ⇒ g
    "f>g:" followed by its components.
    """
    mors = dict(gens)
    for n, (ids, arrows, _) in cats.items():
        mors[f"id{n}"] = (n, n, {x: x for x in ids}, {a: a for a in arrows})
    key = lambda f: (f[0], f[1], tuple(sorted(f[2].items())), tuple(sorted(f[3].items())))
    compose = lambda g, f: (f[0], g[1], {x: g[2][y] for x, y in f[2].items()},
                            {a: g[3][b] for a, b in f[3].items()})
    named = {key(f): n for n, f in mors.items()}
    grown = True
    while grown:
        grown = False
        for g, f in itertools.product(list(mors), repeat=2):
            gf = compose(mors[g], mors[f]) if mors[f][1] == mors[g][0] else None
            if gf is not None and key(gf) not in named:
                mors[f"{g}.{f}"], named[key(gf)], grown = gf, f"{g}.{f}", True
    comp1 = {(g, f): named[key(compose(mors[g], mors[f]))]
             for g, f in itertools.product(mors, repeat=2) if mors[f][1] == mors[g][0]}
    cells = {}
    for f, g in itertools.product(mors, repeat=2):
        (src, dst, f0, f1), (g_src, g_dst, g0, g1) = mors[f], mors[g]
        if (g_src, g_dst) != (src, dst):
            continue
        (objects, arrows, _), (_, hom, comp) = cats[src], cats[dst]
        for eta in itertools.product(*[[b for b, ends in hom.items() if ends == (f0[x], g0[x])]
                                       for x in objects]):
            eta = dict(zip(objects, eta))
            if all(comp[(g1[a], eta[x])] == comp[(eta[y], f1[a])] for a, (x, y) in arrows.items()):
                cells[f"{f}>{g}:" + ",".join(eta.values())] = (f, g, eta)
    name = {(f, g, tuple(eta.values())): n for n, (f, g, eta) in cells.items()}
    vcomp, hcomp = {}, {}
    for (b, (bf, bg, beta)), (a, (af, ag, alpha)) in itertools.product(cells.items(), repeat=2):
        comp = cats[mors[bf][1]][2]
        if ag == bf:
            vcomp[(b, a)] = name[(af, bg, tuple(comp[(beta[x], alpha[x])] for x in alpha))]
        if mors[af][1] == mors[bf][0]:  # (β∗α)_x = β_{F′x} ∘ G(α_x) for α: F ⇒ F′, β out of G
            hcomp[(b, a)] = name[(comp1[(bf, af)], comp1[(bg, ag)], tuple(
                comp[(beta[mors[ag][2][x]], mors[bf][3][alpha[x]])] for x in alpha))]
    id2 = {f: name[(f, f, tuple(cats[dst][0][f0[x]] for x in cats[src][0]))]
           for f, (src, dst, f0, _f1) in mors.items()}
    return TwoCat(tuple(cats), {f: m[0] for f, m in mors.items()},
                  {f: m[1] for f, m in mors.items()}, comp1, {n: f"id{n}" for n in cats},
                  {n: cell[0] for n, cell in cells.items()},
                  {n: cell[1] for n, cell in cells.items()}, vcomp, hcomp, id2)


def merge_reads_f2() -> TwoCat:
    """Functors among T (terminal), A (Z/2 on a, t), B and Q; see the test below."""
    one = lambda o: {o: f"1{o}"}
    cats = {
        "T": category(one("*"), {"1*": ("*", "*")}, {}),
        "A": category(one("a"), {"1a": ("a", "a"), "t": ("a", "a")}, {("t", "t"): "1a"}),
        "B": category(one("b1") | one("b2"), {
            "1b1": ("b1", "b1"), "1b2": ("b2", "b2"), "x0": ("b1", "b2"), "x1": ("b1", "b2"),
            "tau": ("b2", "b2")},
            {("tau", "tau"): "1b2", ("tau", "x0"): "x1", ("tau", "x1"): "x0"}),
        "Q": category(one("q1") | one("q2"), {
            "1q1": ("q1", "q1"), "1q2": ("q2", "q2"), "y": ("q1", "q2"), "rho": ("q2", "q2")},
            {("rho", "rho"): "1q2", ("rho", "y"): "y"}),
    }
    return functor_twocat(cats, {
        "v": ("T", "A", {"*": "a"}, {"1*": "1a"}),
        "fa": ("A", "B", {"a": "b2"}, {"1a": "1b2", "t": "tau"}),
        "fb": ("A", "B", {"a": "b2"}, {"1a": "1b2", "t": "1b2"}),
        "fc": ("A", "B", {"a": "b1"}, {"1a": "1b1", "t": "1b1"}),
        "wm": ("B", "Q", {"b1": "q1", "b2": "q2"},
               {"1b1": "1q1", "1b2": "1q2", "x0": "y", "x1": "y", "tau": "rho"}),
    })


def test_bf4c_merge_reads_f2():
    """Two lifts of one α merge for f2 but not for f2′, where f2∘v = f2′∘v.

    f2 = fa and f2′ = fb send A's object to b2, but fa sends t to τ and
    fb kills it, so fa∘v = fb∘v.  Both x0 and x1 lift α = y: wm∘fc ⇒ wm∘f2
    through wm along v; for fa they merge along ν = t: v ⇒ v, as
    τ∘x0 = x1, and for fb they do not.  So `_check_bf4`'s memo key must
    hold f2: without it, fb's pair reuses fa's answer and BF4c passes.
    No class that passes BF2 and BF4a shows this with both lifts along one
    leg v: a lift (z, γ) of ν through v turns the zig into (s∘z, p∘z,
    i_v∗γ), whose equation reads f2∘v only.  Here t does not lift through
    v, so BF4a fails, and so do BF1 and BF3.
    """
    c, w = merge_reads_f2(), frozenset({"idB", "idQ", "v", "wm"})
    assert validate(c).ok and c.comp1[("fb", "v")] == "fa.v"
    lifts = (("v", "fc.v>fa.v:x0"), ("v", "fc.v>fa.v:x1"))
    zigs = saturation._zigs(c, w, "v", "v")
    assert [saturation._coequalized(c, "fc", f2, *lifts, zigs) for f2 in ("fa", "fb")] == \
        [True, False]
    rep = check_bf(c, w)
    assert [a for a in AXIOMS if not rep.verdicts[a]] == ["BF1", "BF3", "BF4a", "BF4c"]
    assert rep.counterexamples["BF4c"] == ("wm", "wm.fc>wm.fb:y", *lifts)
    want = search_check_bf(c, w)
    assert (rep.verdicts, rep.counterexamples) == (want.verdicts, want.counterexamples)


def test_witnesses_do_not_depend_on_the_order_objects_are_listed():
    # the searches run over sorted objects, so a document that lists them
    # the other way round gets the same counterexamples and fillers
    flipped_inputs = 0
    for entry in oracle_inputs():
        c = entry.c
        if len(c.objects) < 2:
            continue
        flipped = with_tables(c, objects=c.objects[::-1])
        got, want = check_bf(flipped, entry.w), check_bf(c, entry.w)
        assert (got.verdicts, got.counterexamples) == \
            (want.verdicts, want.counterexamples), entry.name
        if want.verdicts["BF3"]:
            assert build_choices(flipped, entry.w).entries == \
                build_choices(c, entry.w).entries, entry.name
        flipped_inputs += 1
    assert flipped_inputs > 50
