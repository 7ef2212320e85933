"""Ambient 2-category tables, validation, and equivalence witnesses."""

import hashlib
import random

import pytest
from corpus import CountingDict, cyclic_parity, distinct_tables, oracle_inputs, with_tables
from oracles import exhaustive_validate, reached_by_left_composition

from twoloc import (
    EquivalenceWitness,
    StructureError,
    adjointify,
    build_choices,
    check_bf,
    equivalence_from_cancellation,
    equivalence_of_composite,
    discrete_groupoid,
    find_quasi_inverse,
    fixture,
    groupoid_twocat,
    internal_equivalences,
    pair_groupoid,
    quasi_inverse_witness,
    transport_witness,
    unit_groupoid,
    validate,
    witness_problems,
)
from twoloc.core import Report, TwoCat, _check_structure, _generators, _is_two_category
from twoloc.documents import dump_twocat
from twoloc.fixtures import FIXTURES, thin_twocat
from twoloc.groupoids import CATALOGS


def test_all_fixtures_validate():
    for name in FIXTURES:
        c, _w = fixture(name)
        rep = validate(c)
        assert rep.ok, (name, rep.lines())


# SHA-256 of each shipped fixture's document, as `twoloc fixtures` writes it
FIXTURE_DIGESTS = {
    "F1": "14dc42464fe18f28406599eee67f8a43897c3e9b6d12bd894f4b26ced57ca5b8",
    "F2": "6a556ca122caaf81c48deba79cb46c0fadc8313dd2c5a818dcc4e1e47c594b89",
    "F3": "d5fff13b31fdfda6446bc146757a1dc0270238c91e40297169d23b2efd3b6105",
    "F4": "2900446f24fd8ebbeb847620e9f4e1a4312b6f4e4cd14f125bfc1c4f7931a5f2",
    "F5": "2f01282d8ea97a0437d309296f0edffebf6e0e6fe2ace0c6b2717df6a3345b6b",
    "F6": "59c7632a0c2b6aa487d2f3ec16d7018fc16afeeaea8bcea24d202eb3b5f9b817",
    "F7": "5d15aea94ccb2c1ed41c9f66037c3e44d6ea889f360ac9a1be8ebe5b04b446e9",
}


def test_shipped_fixture_documents_are_pinned():
    assert FIXTURE_DIGESTS.keys() == FIXTURES.keys()
    for name, digest in FIXTURE_DIGESTS.items():
        doc = dump_twocat(*fixture(name))
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, name


ONE_OBJECT = (["A"], {"1": ("A", "A"), "a": ("A", "A")}, {"A": "1"})
TWO_OBJECTS = (["0", "1"], {"id0": ("0", "0"), "id1": ("1", "1"), "p": ("0", "1"),
                            "q": ("0", "1"), "r": ("0", "1")}, {"0": "id0", "1": "id1"})


@pytest.mark.parametrize("tables, comp, pairs, missing", [
    # Z/2 ordered by 1 <= a, an order `posetal_family` rejects as not
    # monotone: i_a ∗ (1<=a) would run a ⇒ a∘a = 1
    (ONE_OBJECT, {("a", "a"): "1"}, [("1", "1"), ("a", "a"), ("1", "a")], "a ⇒ 1"),
    # p <= q <= r without p <= r: (q<=r) ⊙ (p<=q) would run p ⇒ r
    (TWO_OBJECTS, {}, [("id0", "id0"), ("id1", "id1"), ("p", "p"), ("q", "q"),
                        ("r", "r"), ("p", "q"), ("q", "r")], "p ⇒ r"),
    # no identity 2-cell on a
    (ONE_OBJECT, {("a", "a"): "a"}, [("1", "1")], "a ⇒ a"),
])
def test_thin_twocat_needs_pairs_closed_under_composition(tables, comp, pairs, missing):
    cells = {f"{f}<={g}": (f, g) for f, g in pairs}
    with pytest.raises(ValueError, match=f"no 2-cell {missing}$"):
        thin_twocat(*tables, comp, cells)


def test_thin_twocat_needs_one_cell_per_pair():
    with pytest.raises(ValueError, match="share a boundary"):
        thin_twocat(*ONE_OBJECT, {("a", "a"): "a"},
                    {"i_1": ("1", "1"), "i_a": ("a", "a"), "j_a": ("a", "a")})


def test_validate_flags_missing_table_entry_as_structural():
    c, _ = fixture("F3")
    comp1 = dict(c.comp1)
    del comp1[("w", "id0")]
    broken = with_tables(c, comp1=comp1)
    rep = validate(broken)
    assert not rep.ok
    assert rep.structural and not rep.verdicts


# (table, the key deleted, the keys added); each table keeps one stray
# key whose name is undeclared.  The messages were captured from the check
# that listed every composable pair, before it counted them.
DAMAGED_TABLES = {
    "comp1": (("w", "id0"), {("id0", "w"): "w", ("nope", "w"): "w"}),
    "vcomp_table": (("i_id0", "i_id0"), {("i_w", "i_id0"): "i_w", ("i_w", "nope"): "bad"}),
    "hcomp_table": (("i_id1", "i_w"), {("i_w", "i_w"): "i_w", ("nope", "i_id0"): "i_w"}),
}
STRUCTURAL_MESSAGES = {
    "comp1": ["compose1 missing entry for ('w', 'id0')",
              "compose1 has a non-composable entry ('id0', 'w')",
              "compose1 has a non-composable entry ('nope', 'w')"],
    "vcomp_table": ["vcomp missing entry for ('i_id0', 'i_id0')",
                    "vcomp has a non-composable entry ('i_w', 'i_id0')",
                    "vcomp has a non-composable entry ('i_w', 'nope')",
                    "vcomp[('i_w', 'nope')] = bad is not a declared 2-cell"],
    "hcomp_table": ["hcomp missing entry for ('i_id1', 'i_w')",
                    "hcomp has a non-composable entry ('i_w', 'i_w')",
                    "hcomp has a non-composable entry ('nope', 'i_id0')"],
}


@pytest.mark.parametrize("name", sorted(DAMAGED_TABLES))
@pytest.mark.parametrize("damage", ["missing", "stray", "both"])
def test_structural_messages_for_missing_and_stray_entries(name, damage):
    # the structure check counts the composable pairs and lists them only
    # when an entry is missing; the messages and their order are unchanged
    c, _ = fixture("F3")
    gone, extra = DAMAGED_TABLES[name]
    table = dict(getattr(c, name))
    if damage != "stray":
        del table[gone]
    if damage != "missing":
        table.update(extra)
    want = STRUCTURAL_MESSAGES[name]
    if damage == "missing":
        want = want[:1]
    elif damage == "stray":
        want = want[1:]
    rep = validate(with_tables(c, **{name: table}))
    assert rep.structural == want and not rep.verdicts


def test_validate_flags_wrong_composite_as_law_failure():
    c, _ = fixture("F7")
    # tau_f ⊙ i_f must be tau_f; rerouting it keeps every boundary intact,
    # so this is a pure unit-law failure, not a structural one
    v = dict(c.vcomp_table)
    v[("tau_f", "i_f")] = "i_f"
    broken = with_tables(c, vcomp_table=v)
    rep = validate(broken)
    assert not rep.ok
    assert not rep.structural
    assert rep.counterexamples.get("vcomp-right-unit") == ("tau_f",)


def test_report_keeps_first_witnesses_in_order_of_first_failure():
    rep = Report(("declared",))
    assert rep.ok and rep.verdicts == {"declared": True} and rep.lines() == []
    rep.fail("undeclared", ("a",))
    rep.fail("declared", "b")
    rep.fail("undeclared", ("c",))  # a second witness is dropped
    rep.fail("another", 0)
    assert not rep.ok
    assert list(rep.verdicts.items()) == [("declared", False), ("undeclared", False),
                                          ("another", False)]
    assert list(rep.counterexamples.items()) == [
        ("undeclared", ("a",)), ("declared", "b"), ("another", 0)]
    assert rep.lines() == ["undeclared: ('a',)", "declared: 'b'", "another: 0"]

    structural = Report(("declared",))
    structural.structural.append("a table is partial")
    assert not structural.ok and all(structural.verdicts.values())
    assert structural.lines() == ["structural: a table is partial"]


def test_report_lines_keep_the_validation_text():
    # the lines validation printed when each failure kept repr(witness)
    c, _ = fixture("F7")
    damaged = with_tables(c, vcomp_table={**c.vcomp_table, ("i_f", "tau_f"): "i_f"})
    assert validate(damaged).lines() == [
        "vcomp-left-unit: ('tau_f',)", "vcomp-assoc: ('tau_f', 'i_f', 'tau_f')"]
    c, _ = fixture("F6")
    damaged = with_tables(c, hcomp_table={**c.hcomp_table, ("s_g", "s_f"): "s_idX"})
    assert validate(damaged).lines() == [
        "hcomp-assoc: ('s_g', 's_idY', 'i_f')", "interchange: ('s_g', 'i_g', 'i_f', 's_f')"]
    c, _ = fixture("F3")
    comp1 = dict(c.comp1)
    del comp1[("w", "id0")]
    assert validate(with_tables(c, comp1=comp1)).lines() == [
        "structural: compose1 missing entry for ('w', 'id0')"]


def test_validate_flags_broken_interchange():
    c, _ = fixture("F6")
    # two parity-1 cells must compose to parity 0; flip one entry
    h = dict(c.hcomp_table)
    key = ("s_g", "s_f")
    assert h[key] == "i_idX"
    h[key] = "s_idX"
    broken = with_tables(c, hcomp_table=h)
    rep = validate(broken)
    assert not rep.ok
    laws = list(rep.verdicts)
    assert any(law in ("interchange", "hcomp-assoc", "hcomp-identities")
               for law in laws)
    assert len(laws) == len(set(laws)), laws  # one counterexample per law


def test_lookup_errors_are_structure_errors():
    c, _ = fixture("F3")
    with pytest.raises(StructureError):
        c.compose1("id0", "w")  # w lands in 1, id0 starts at 0
    with pytest.raises(StructureError):
        c.vcomp("i_id0", "i_id1")
    with pytest.raises(StructureError):
        c.hcomp("i_w", "i_id1")


def test_twocats_with_equal_tables_are_unequal_and_keep_separate_stores():
    c, w = fixture("F6")
    twin = with_tables(c)
    assert twin != c and len({c, twin}) == 2
    assert build_choices(twin, w)._store is not build_choices(c, w)._store


def test_hom_indices():
    c, _ = fixture("F7")
    assert c.hom1("A", "B") == ("f",)
    assert c.hom1("B", "A") == ()
    assert set(c.hom2("f", "f")) == {"i_f", "tau_f"}
    assert c.hom2("idA", "f") == ()
    assert c.factorisations("f") == (("f", "idA"), ("idB", "f"))
    assert c.left_factors("idA", "f") == ("f",)
    assert c.left_factors("f", "idA") == ()
    assert c.cells_from("f") == {"f": c.hom2("f", "f")}
    for entry in oracle_inputs():
        d = entry.c
        for h in d.mors:
            assert d.factorisations(h) == tuple(sorted(gf for gf, k in d.comp1.items() if k == h))
            for f in d.mors:
                assert d.left_factors(f, h) == tuple(
                    sorted(g for (g, f2), k in d.comp1.items() if (f2, k) == (f, h)))
            assert d.cells_from(h) == {g: d.hom2(h, g) for g in d.mors if d.hom2(h, g)}


def test_parity_cells_are_involutive():
    c, _ = fixture("F7")
    assert c.is_invertible2("tau_f")
    assert c.inverse2("tau_f") == "tau_f"
    assert c.vcomp("tau_f", "tau_f") == "i_f"


# -- equivalence witnesses ---------------------------------------------------


def test_quasi_inverse_on_walking_iso():
    c, _ = fixture("F2")
    w = find_quasi_inverse(c, "f")
    assert w is not None and w.e_bar == "g"
    # identity 2-cells only, so delta and xi are forced
    assert w.delta == "i_idX" and w.xi == "i_idY"
    assert witness_problems(c, w) == []


def test_internal_equivalences_by_fixture():
    # hand count: F3's w has no arrow back, F4 has no arrows B→A at all,
    # F5's u is isomorphic to the identity, F6 is the invertible world
    expected = {
        "F1": {"idA"},
        "F2": {"idX", "idY", "f", "g"},
        "F3": {"id0", "id1"},
        "F4": {"idA", "idB"},
        "F5": {"idA", "u"},
        "F6": {"idX", "idY", "f", "g"},
        "F7": {"idA", "idB"},
    }
    for name, want in expected.items():
        c, _w = fixture(name)
        assert internal_equivalences(c) == frozenset(want), name


def test_adjointify_satisfies_triangles():
    for name in ("F5", "F6"):
        c, _w = fixture(name)
        for e in internal_equivalences(c):
            w = find_quasi_inverse(c, e)
            adj = adjointify(c, w)
            assert adj.adjoint
            assert witness_problems(c, adj) == []
            assert (adj.e, adj.e_bar, adj.delta) == (w.e, w.e_bar, w.delta)


def test_adjointify_rejects_invalid_witness():
    c, _ = fixture("F5")
    with pytest.raises(StructureError):
        adjointify(c, EquivalenceWitness("u", "u", "eps", "eps"))


def test_quasi_inverse_witness_swaps_direction():
    c, _ = fixture("F6")
    w = find_quasi_inverse(c, "f")
    back = quasi_inverse_witness(c, w)
    assert back.e == "g" and back.e_bar == "f"
    assert witness_problems(c, back) == []


def test_quasi_inverse_witness_rejects_a_non_invertible_cell():
    # {1, e} with e∘e = e ordered by 1 <= e: δ = 1<=e runs 1 ⇒ e∘e but has
    # no inverse, so there is no witness for ē to carry it
    c = thin_twocat(["A"], {"1": ("A", "A"), "e": ("A", "A")}, {"A": "1"},
                    {("e", "e"): "e"},
                    {"1<=1": ("1", "1"), "e<=e": ("e", "e"), "1<=e": ("1", "e")})
    assert validate(c).ok and not c.is_invertible2("1<=e")
    with pytest.raises(StructureError, match="not a valid equivalence witness"):
        quasi_inverse_witness(c, EquivalenceWitness("e", "e", "1<=e", "e<=e"))


@pytest.mark.parametrize("build", [
    quasi_inverse_witness, lambda c, w: transport_witness(c, w, "s_f")],
    ids=["quasi_inverse_witness", "transport_witness"])
def test_witness_builders_reject_an_invalid_witness(build):
    # ē = f runs X→Y like e itself; the builders must say the witness is
    # invalid, not hand back one as invalid or fail on a missing composite
    c, _ = fixture("F6")
    bad = EquivalenceWitness("f", "f", "s_f", "s_f")
    assert witness_problems(c, bad) == ["quasi-inverse f has the wrong boundary"]
    with pytest.raises(StructureError, match="not a valid equivalence witness"):
        build(c, bad)


def test_transport_witness_along_parity_cell():
    c, _ = fixture("F6")
    w = find_quasi_inverse(c, "f")
    moved = transport_witness(c, w, "s_f")  # s_f: f ⇒ f, parity 1
    assert moved.e == "f" and moved.e_bar == w.e_bar
    assert witness_problems(c, moved) == []


def test_transport_witness_needs_invertible_cell_at_e():
    c, _ = fixture("F6")
    w = find_quasi_inverse(c, "f")
    with pytest.raises(StructureError):
        transport_witness(c, w, "s_g")  # starts at g, not f


def test_equivalence_of_composite():
    c, _ = fixture("F6")
    wf = find_quasi_inverse(c, "f")
    wg = find_quasi_inverse(c, "g")
    both = equivalence_of_composite(c, wf, wg)  # f after g, so an endo of Y
    assert both.e == "idY"
    assert witness_problems(c, both) == []


def test_equivalence_from_cancellation_on_walking_iso():
    c, _ = fixture("F6")
    # chain  X --f--> Y --g--> X --f--> Y : both composites are identities
    w_fg = find_quasi_inverse(c, c.compose1("f", "g"))
    w_gh = find_quasi_inverse(c, c.compose1("g", "f"))
    wf, wg, wh = equivalence_from_cancellation(c, "f", "g", "f", w_fg, w_gh)
    assert (wf.e, wg.e, wh.e) == ("f", "g", "f")
    for wit in (wf, wg, wh):
        assert witness_problems(c, wit) == []


def test_witnesses_on_corpus(corpus_entries):
    """Every discovered equivalence carries a valid, adjointifiable witness."""
    for entry in corpus_entries[:40]:
        c = entry.c
        for e in internal_equivalences(c):
            w = find_quasi_inverse(c, e)
            assert w is not None and witness_problems(c, w) == [], entry.name
            adj = adjointify(c, w)
            assert witness_problems(c, adj) == [], entry.name


# -- validate against the all-tuples scan ------------------------------------
#
# `validate` walks composable tuples through boundary indexes; the scan
# loops over every pair and triple and filters afterwards.

LAWS = ("compose1-right-unit", "compose1-left-unit", "compose1-assoc",
        "vcomp-right-unit", "vcomp-left-unit", "vcomp-assoc",
        "hcomp-identities", "hcomp-right-unit", "hcomp-left-unit",
        "hcomp-assoc", "interchange")


def mutants(c, rng, per_table):
    """Copies of c with one entry of comp1, vcomp or hcomp redirected.

    The new value is parallel to the old one, so a vcomp or hcomp mutant
    breaks a law, not the structure.  A redirected g∘f takes the hcomp
    entry i_g∗i_f along to the new identity cell, so tables whose only
    2-cells are identities can break the compose1 laws too.
    """
    boundary = {"comp1": lambda f: (c.mor_src[f], c.mor_dst[f]),
                "vcomp_table": lambda a: (c.cell_src[a], c.cell_dst[a]),
                "hcomp_table": lambda a: (c.cell_src[a], c.cell_dst[a])}
    for name, edge in boundary.items():
        table = getattr(c, name)
        pool = c.mors if name == "comp1" else c.cells
        for _ in range(per_table):
            key = rng.choice(sorted(table))
            old = table[key]
            parallel = [x for x in pool if x != old and edge(x) == edge(old)]
            if not parallel:
                continue
            new = rng.choice(parallel)
            changes = {name: {**table, key: new}}
            if name == "comp1":
                g, f = key
                changes["hcomp_table"] = {**c.hcomp_table,
                                          (c.id2[g], c.id2[f]): c.id2[new]}
            yield with_tables(c, **changes)


def test_validate_matches_exhaustive_scan():
    for entry in oracle_inputs():
        assert validate(entry.c).lines() == exhaustive_validate(entry.c).lines(), entry.name


def test_validate_matches_exhaustive_scan_on_mutants():
    rng = random.Random(20261018)
    laws_seen = set()
    failing = 0
    small = [c for c in distinct_tables(oracle_inputs()) if len(c.cells) <= 60]
    for c in small:
        for m in mutants(c, rng, per_table=10):
            got = validate(m)
            assert got.lines() == exhaustive_validate(m).lines()
            failing += not got.ok
            laws_seen.update(got.verdicts)
    assert failing > len(small)
    assert laws_seen == set(LAWS)


# -- the whiskering decider --------------------------------------------------
#
# `validate` decides the laws with `_is_two_category` and runs its law loops
# only to name witnesses.  The decider is compared with the all-tuples scan
# past the 60-cell cap above: on the catalog Unit, Pair2, Disc3 (120
# 2-cells, 4,740 hcomp entries) and on Z/8 with parity cells.


def decider_inputs(rng):
    """(label, tables): seeded single-entry mutants, then every oracle table."""
    catalog = groupoid_twocat([unit_groupoid(), pair_groupoid(2),
                               discrete_groupoid(3)])[0]
    yield "catalog mutant", mutants(catalog, rng, per_table=20)
    yield "Z/8 mutant", mutants(cyclic_parity(8, "s"), rng, per_table=100)
    yield "oracle table", distinct_tables(oracle_inputs())


def test_decider_matches_exhaustive_scan():
    rng = random.Random(20261018)
    seen = {}
    for label, tables in decider_inputs(rng):
        verdicts = seen[label] = [0, 0]
        for c in tables:
            # the decider is defined on tables that pass the structure
            # check; most redirected composites break it, since the other
            # entries over them still name the old composite
            if not _check_structure(c, Report()):
                continue
            ok = exhaustive_validate(c).ok
            assert _is_two_category(c) == ok, label
            verdicts[ok] += 1
    assert seen["catalog mutant"][False] >= 15
    assert seen["Z/8 mutant"][False] >= 200
    assert seen["oracle table"] == [0, len(distinct_tables(oracle_inputs()))]


def test_generators_reach_every_one_cell():
    """The order `_is_two_category`'s induction runs along exists.

    Every 1-cell is an identity, a generator, or s∘x with s a generator and
    x reached before it; the generators are distinct and in `c.mors` order.
    """
    tables = distinct_tables(oracle_inputs()) + [cyclic_parity(8, "s")]
    for c in tables:
        gens = _generators(c)
        assert reached_by_left_composition(c, gens) == set(c.mors)
        assert gens == sorted(set(gens), key=c.mors.index)
        assert not set(gens) & set(c.id1.values())
    z8 = cyclic_parity(8, "s")
    assert _generators(z8) == ["g1"]


def test_validate_decides_the_four_groupoid_catalog():
    # 80 1-cells, 1,014 2-cells, 727,484 hcomp entries: the law loops walk
    # 5.4·10⁸ hcomp-associativity triples here and do not finish, and BF4c
    # over all pairs of lifts takes about a minute.  validate reads each
    # whiskering once, and spends most of its ~2 s on the structure check
    # and (W); check_bf asks each of 31,682 BF4c lift pairs once, in ~2 s
    c, w = groupoid_twocat(CATALOGS["unit-pair-disc"]() + [pair_groupoid(3)])
    assert validate(c).ok
    assert check_bf(c, w).ok


def test_decider_reads_each_whiskering_once():
    """`_is_two_category` reads hcomp_table at most 6·|hcomp| + 2·|cells| + |comp1| times.

    (W) reads four whiskerings per hcomp entry.  Each L_h = i_h∗− and
    R_h = −∗i_h map reads one entry per key, and its keys are distinct hcomp
    keys, so the maps read at most |hcomp| entries each.  The two hcomp unit
    laws read two entries per 2-cell, and i_g∗i_f one per comp1 entry.
    Nothing else reads the table: (F) to (M) read the maps.
    """
    catalog = groupoid_twocat([unit_groupoid(), pair_groupoid(2), discrete_groupoid(3)])[0]
    tables = [catalog] + [c for c in distinct_tables(oracle_inputs()) if validate(c).ok]
    for c in tables:
        counted = with_tables(c, hcomp_table=CountingDict(c.hcomp_table))
        assert _is_two_category(counted)
        bound = 6 * len(c.hcomp_table) + 2 * len(c.cells) + len(c.comp1)
        assert counted.hcomp_table.reads <= bound, (counted.hcomp_table.reads, bound)


# -- one table per decider check ---------------------------------------------
#
# Single-entry mutants break several checks at once, so they cannot show
# that a check is needed.  Each table below breaks the laws but fails
# exactly one check of `_is_two_category`, which must then say no.  Four
# checks can have no such table.  The hcomp unit laws imply the compose1
# unit laws (i_f∗i_id runs from f∘id) and, with (W) at i_id∗a, the vcomp
# unit laws.  With (L) and the hcomp unit laws, i_g∗i_f = i_{g∘f} and (A)
# each imply the other.


def action_twocat(monoid, add, left=(), right=(), flipped=False):
    """One object; 1-cells the elements of a monoid, with unit "1".

    The 2-cells f ⇒ f are the pairs "f:v" for v in a unital magma A, with
    unit "0"; vcomp adds in A, and (g:v)∗(f:u) is g∘f:(right_f v + left_g u),
    summed the other way round when `flipped`.  `left` and `right` map a
    1-cell to a map of A (the identity where not given).  This is a strict
    2-category when A is a commutative monoid, left_g and right_f are monoid
    maps, left is a left action, right a right action, and they commute.
    """
    mors = sorted({f for pair in monoid for f in pair})
    elems = sorted({v for pair in add for v in pair})
    left, right = dict(left), dict(right)

    def act(maps, f, v):
        return maps[f][v] if f in maps else v

    def hcomp(g, v, f, u):
        terms = (act(right, f, v), act(left, g, u))
        return f"{monoid[(g, f)]}:{add[terms[::-1] if flipped else terms]}"

    return TwoCat(
        objects=("x",), mor_src=dict.fromkeys(mors, "x"), mor_dst=dict.fromkeys(mors, "x"),
        comp1=dict(monoid), id1={"x": "1"},
        cell_src={f"{f}:{v}": f for f in mors for v in elems},
        cell_dst={f"{f}:{v}": f for f in mors for v in elems},
        vcomp_table={(f"{f}:{v}", f"{f}:{u}"): f"{f}:{add[(v, u)]}"
                     for f in mors for v in elems for u in elems},
        hcomp_table={(f"{g}:{v}", f"{f}:{u}"): hcomp(g, v, f, u)
                     for g in mors for f in mors for v in elems for u in elems},
        id2={f: f"{f}:0" for f in mors})


def unital(table):
    """A magma table with unit "0", from the products of the other elements."""
    elems = {"0"} | {v for pair in table for v in pair}
    return {**{(v, "0"): v for v in elems}, **{("0", v): v for v in elems}, **table}


TRIVIAL = {("1", "1"): "1"}
Z2 = {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t", ("t", "t"): "1"}
KLEIN = unital({(v, u): "0" if v == u else ({"a", "b", "c"} - {v, u}).pop()
                for v in "abc" for u in "abc"})
Z4 = {(str(i), str(j)): str((i + j) % 4) for i in range(4) for j in range(4)}
CYCLE = {"t": {"0": "0", "a": "b", "b": "c", "c": "a"}}       # order 3: not an action
SWAP_AB = {"t": {"0": "0", "a": "b", "b": "a", "c": "c"}}
SWAP_BC = {"t": {"0": "0", "a": "a", "b": "c", "c": "b"}}     # does not commute with SWAP_AB
SWAP_12 = {"t": {"0": "0", "1": "2", "2": "1", "3": "3"}}     # not additive on Z/4
LEFT_ZERO = unital({(v, u): v for v in "pq" for u in "pq"})   # p + q = p, q + p = q
NONASSOC = unital({("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "x", ("y", "y"): "0"})

ONE_CHECK_FAILS = {
    "vcomp-assoc": action_twocat(TRIVIAL, NONASSOC),
    "hcomp unit laws": action_twocat(TRIVIAL, unital({("z", "z"): "0"}),
                                     right={"1": {"0": "0", "z": "0"}}),
    "(W) first form": action_twocat(TRIVIAL, LEFT_ZERO, flipped=True),
    "(W) second form": action_twocat(TRIVIAL, LEFT_ZERO),
    "(F) for L": action_twocat(Z2, Z4, left=SWAP_12),
    "(F) for R": action_twocat(Z2, Z4, right=SWAP_12),
    "(L)": action_twocat(Z2, KLEIN, left=CYCLE),
    "(R)": action_twocat(Z2, KLEIN, right=CYCLE),
    "(M)": action_twocat(Z2, KLEIN, left=SWAP_AB, right=SWAP_BC),
}


@pytest.mark.parametrize("check", sorted(ONE_CHECK_FAILS))
def test_decider_needs_each_check(check):
    c = ONE_CHECK_FAILS[check]
    assert _check_structure(c, Report())
    assert not exhaustive_validate(c).ok
    assert validate(c).lines() == exhaustive_validate(c).lines()
    assert not _is_two_category(c)


def test_action_twocat_with_commuting_actions_is_lawful():
    c = action_twocat(Z2, KLEIN, left=SWAP_AB, right=SWAP_AB)
    assert exhaustive_validate(c).ok and _is_two_category(c)
