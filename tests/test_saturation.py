"""Fraction axioms (BF1-BF5), the right saturation, and their interplay.

`saturate` reads the saturation off the composition table, and
`saturation_witnesses` reads each member's least witness with it.
`search_witnesses` is the search they replaced, kept here only as a
reference: it loops over triples of 1-cells.
"""

import dataclasses
import itertools
from collections import Counter

import pytest
from corpus import oracle_inputs, posetal_family
from test_partitions import cyclic_parity

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
from twoloc.core import TwoCat
from twoloc.fixtures import FIXTURES, parity_twocat
from twoloc.groupoids import CATALOGS, groupoid_twocat
from twoloc.saturation import (
    AXIOMS,
    _as_class,
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
        assert all(a in rep.passed for a in AXIOMS)


def test_f4_fails_exactly_bf5():
    c, w = fixture("F4")
    rep = check_bf(c, w)
    assert not rep.ok
    assert [a for a in AXIOMS if not rep.passed[a]] == ["BF5"]
    # q sits outside W but is invertibly isomorphic to p inside it; the
    # first witnessing cell in lexicographic order is mu_inv: q ⇒ p
    assert rep.counterexamples["BF5"] == ("mu_inv", "q")


def test_bf1_needs_all_identities():
    c, _ = fixture("F3")
    rep = check_bf(c, {"id0"})
    assert not rep.passed["BF1"]
    assert rep.counterexamples["BF1"] == ("id1",)


def test_bf2_composition_escape():
    # Z/4 as endo-1-cells of one object: {g0, g1} is not closed
    mors = {f"g{k}": ("x", "x") for k in range(4)}
    comp = {(f"g{i}", f"g{j}"): f"g{(i + j) % 4}"
            for i in range(4) for j in range(4)}
    c = parity_twocat(["x"], mors, {"x": "g0"}, comp, twisted=set())
    rep = check_bf(c, {"g0", "g1"})
    assert not rep.passed["BF2"]
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
    assert not rep.passed["BF3"]
    assert rep.counterexamples["BF3"] == ("u", "v")


def test_bf4a_undescendable_cell():
    # put f itself into F7's class: tau_f cannot be lifted along f because
    # the only denominator into A is idA and hom(idA, idA) has no image of tau
    c, w = fixture("F7")
    rep = check_bf(c, w | {"f"})
    assert not rep.passed["BF4a"]
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


# -- saturation --------------------------------------------------------------


def search_witnesses(c, w):
    """f ↦ the least g with f∘g ∈ W and g∘h ∈ W for some h, by exhaustive search."""
    w = _as_class(c, w)
    out = {}
    for f in c.mors:
        src_f = c.mor_src[f]
        for g in sorted(c.mors):
            if c.mor_dst[g] != src_f or c.compose1(f, g) not in w:
                continue
            src_g = c.mor_src[g]
            if any(
                c.mor_dst[h] == src_g and c.compose1(g, h) in w
                for h in c.mors
            ):
                out[f] = g
                break
    return out


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
# per pair of denominators.  `search_coequalized` is the per-pair search it
# replaced, kept here only as a reference; `search_check_bf` redoes the
# BF4 loop with it.


def search_coequalized(c, w, f1, f2, lift1, lift2):
    v, beta = lift1
    v2, beta2 = lift2
    for apex in c.objects:
        for s in c.hom1(apex, c.mor_src[v]):
            vs = c.compose1(v, s)
            if vs not in w:
                continue
            for p in c.hom1(apex, c.mor_src[v2]):
                v2p = c.compose1(v2, p)
                for nu in c.invertible_cells(vs, v2p):
                    left = c.vcomp(c.whisker_right(beta2, p), c.whisker_left(f1, nu))
                    right = c.vcomp(c.whisker_left(f2, nu), c.whisker_right(beta, s))
                    if left == right:
                        return True
    return False


def search_check_bf(c, w):
    """`check_bf`'s report with BF4a-c redone by the per-pair search."""
    w = _as_class(c, w)
    rep = check_bf(c, w)
    for axiom in ("BF4a", "BF4b", "BF4c"):
        rep.passed[axiom] = True
        rep.counterexamples.pop(axiom, None)
    for wm in sorted(w):
        b = c.mor_src[wm]
        for a_obj in sorted(c.objects):
            for f1, f2 in itertools.product(c.hom1(a_obj, b), c.hom1(a_obj, b)):
                for alpha in c.hom2(c.compose1(wm, f1), c.compose1(wm, f2)):
                    lifts = list(cell_lifts(c, w, wm, f1, f2, alpha))
                    if not lifts:
                        if rep.passed["BF4a"]:
                            rep.passed["BF4a"] = False
                            rep.counterexamples["BF4a"] = (wm, f1, f2, alpha)
                        continue
                    if c.is_invertible2(alpha) and not any(
                        c.is_invertible2(beta) for _, beta in lifts
                    ):
                        if rep.passed["BF4b"]:
                            rep.passed["BF4b"] = False
                            rep.counterexamples["BF4b"] = (wm, f1, f2, alpha)
                    for l1, l2 in itertools.combinations(lifts, 2):
                        if not search_coequalized(c, w, f1, f2, l1, l2):
                            if rep.passed["BF4c"]:
                                rep.passed["BF4c"] = False
                                rep.counterexamples["BF4c"] = (wm, alpha, l1, l2)
                            break
    return rep


def lift_pair_modes(monkeypatch) -> list[bool]:
    """The `first_only` flag of each alpha's BF4c pairs, as `check_bf` runs."""
    modes = []
    lift_pairs = saturation._lift_pairs
    monkeypatch.setattr(saturation, "_lift_pairs", lambda first, rest, first_only:
                        modes.append(first_only) or lift_pairs(first, rest, first_only))
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
            paths[tuple(dict.fromkeys(modes))] += 1
            want = search_check_bf(c, w)
            assert (got.passed, got.counterexamples) == \
                (want.passed, want.counterexamples), (entry.name, sorted(w))
            bf4c_failures += not got.passed["BF4c"]
    assert bf4c_failures > 0
    # (True, False): BF4a or BF4b failed, so BF4 was decided again on all pairs
    assert min(paths[(True,)], paths[(False,)], paths[(True, False)]) > 0, paths


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
    assert [a for a in AXIOMS if not rep.passed[a]] == ["BF4c"]
    assert rep.counterexamples == {"BF4c": ("w", "i_wg", ("idA", "i_g"), ("idA", "x"))}
    want = search_check_bf(c, w)
    assert (rep.passed, rep.counterexamples) == (want.passed, want.counterexamples)


def test_witnesses_do_not_depend_on_the_order_objects_are_listed():
    # the searches run over sorted objects, so a document that lists them
    # the other way round gets the same counterexamples and fillers
    flipped_inputs = 0
    for entry in oracle_inputs():
        c = entry.c
        if len(c.objects) < 2:
            continue
        flipped = dataclasses.replace(c, objects=c.objects[::-1])
        got, want = check_bf(flipped, entry.w), check_bf(c, entry.w)
        assert (got.passed, got.counterexamples) == \
            (want.passed, want.counterexamples), entry.name
        if want.passed["BF3"]:
            assert build_choices(flipped, entry.w).entries == \
                build_choices(c, entry.w).entries, entry.name
        flipped_inputs += 1
    assert flipped_inputs > 50
