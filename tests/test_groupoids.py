"""Finite groupoids, functor enumeration, and Morita equivalence."""

import hashlib
import itertools

import pytest

from twoloc import (
    CATALOGS,
    StructureError,
    check_bf,
    compose_gfunctors,
    discrete_groupoid,
    enumerate_gfunctors,
    groupoid_twocat,
    identity_gfunctor,
    is_essentially_surjective,
    is_fully_faithful,
    is_morita,
    is_internal_equiv_closed_form,
    morita_saturated_check,
    morita_two_out_of_six,
    natural_transformations,
    pair_groupoid,
    saturate,
    u_mor,
    unit_groupoid,
    validate,
    validate_groupoid,
)
from twoloc.groupoids import FiniteGroupoid, GroupoidFunctor, functor_problems

from oracles import literal_essentially_surjective, literal_fully_faithful, literal_morita


def test_builders_are_groupoids():
    for g in (unit_groupoid(), pair_groupoid(2), pair_groupoid(3),
              discrete_groupoid(2), discrete_groupoid(3)):
        rep = validate_groupoid(g)
        assert rep.ok, (g.name, rep.lines())


def test_validate_groupoid_catches_broken_inverse():
    g = pair_groupoid(2)
    g.inv = {**g.inv, "p12": "p12"}  # p12: 1→2 cannot invert itself
    rep = validate_groupoid(g)
    assert not rep.ok


def test_validate_groupoid_keeps_one_witness_per_law():
    g = pair_groupoid(3)
    g.inv = {a: a for a in g.arrows}  # six arrows between distinct objects
    laws = list(validate_groupoid(g).verdicts)
    assert laws.count("inverse endpoints") == 1
    assert len(laws) == len(set(laws))


def test_validate_groupoid_keeps_the_first_associativity_witness():
    # the first failing composable triple in the order of
    # product(arrows, repeat=3); in a pair groupoid most triples do not
    # compose, and a redirected composite may have no composite with a
    for make, n in itertools.product((cyclic_group, pair_groupoid), (2, 3)):
        base = make(n)
        for key, other in itertools.product(sorted(base.comp), base.arrows):
            if other == base.comp[key]:
                continue
            g = make(n)
            g.comp = {**g.comp, key: other}
            src, dst, comp = g.arr_src, g.arr_dst, g.comp
            first = next(((c_, b, a)
                          for c_, b, a in itertools.product(g.arrows, repeat=3)
                          if dst[b] == src[c_] and dst[a] == src[b]
                          and comp.get((c_, comp[(b, a)])) != comp.get((comp[(c_, b)], a))),
                         None)
            got = validate_groupoid(g).counterexamples.get("associativity")
            assert got == first, (g.name, key, other)


def test_validate_groupoid_reports_units_that_do_not_compose():
    g = pair_groupoid(2)
    g.unit = {**g.unit, "1": "p12"}  # p12 ∘ p11 is not in the table
    laws = list(validate_groupoid(g).verdicts)
    assert "unit endpoints" in laws and "unit law" in laws


def test_validate_groupoid_reports_an_arrow_without_a_target():
    g = FiniteGroupoid("G", ("x",), {"e": "x", "f": "x"}, {"e": "x"},
                       {("e", "e"): "e"}, {"e": "e", "f": "f"}, {"x": "e"})
    rep = validate_groupoid(g)
    assert rep.structural == ["arrow 'f' has dangling endpoints",
                              "arr_src and arr_dst index different arrow sets"]


# -- functor enumeration -------------------------------------------------------
#
# counts by hand over {Unit, Pair2, Disc2}:
#   * into Unit everything is forced: 1 functor from each source
#   * out of Unit: pick the image object (arrows forced): 2 to Pair2, 2 to Disc2
#   * Pair2 → Pair2: any object map works since all homs are singletons: 4
#   * Pair2 → Disc2: the arrow 0→1 must land in an identity, so the object
#     map is constant: 2
#   * Disc2 → Pair2 and Disc2 → Disc2: free choice of object map: 4 each
# total 1+2+2+1+4+2+1+4+4 = 21


def test_functor_counts():
    u, p, d = unit_groupoid(), pair_groupoid(2), discrete_groupoid(2)
    counts = {
        (a.name, b.name): len(enumerate_gfunctors(a, b))
        for a, b in itertools.product((u, p, d), repeat=2)
    }
    assert counts == {
        ("Unit", "Unit"): 1, ("Unit", "Pair2"): 2, ("Unit", "Disc2"): 2,
        ("Pair2", "Unit"): 1, ("Pair2", "Pair2"): 4, ("Pair2", "Disc2"): 2,
        ("Disc2", "Unit"): 1, ("Disc2", "Pair2"): 4, ("Disc2", "Disc2"): 4,
    }


def test_enumerated_functors_are_valid_and_sorted():
    p, d = pair_groupoid(2), discrete_groupoid(2)
    funs = enumerate_gfunctors(p, d)
    assert all(functor_problems(f) == [] for f in funs)
    sigs = [f.signature() for f in funs]
    assert sigs == sorted(sigs)


def test_functor_problems_flags_bad_tables():
    u, p = unit_groupoid(), pair_groupoid(2)
    good = GroupoidFunctor(p, u, {"1": "1", "2": "1"},
                           {a: "e1" for a in p.arrows})
    assert functor_problems(good) == []
    worse = GroupoidFunctor(p, p, {"1": "1", "2": "2"},
                            {"p11": "p11", "p12": "p21", "p21": "p12",
                             "p22": "p22"})
    assert functor_problems(worse)  # p12 image runs backwards


def test_content_equal_functors_are_distinct_dict_keys():
    u, p = unit_groupoid(), pair_groupoid(2)
    fun, twin = (GroupoidFunctor(p, u, {"1": "1", "2": "1"}, {a: "e1" for a in p.arrows})
                 for _ in range(2))
    assert fun.signature() == twin.signature() and fun != twin
    decided = {fun: True, twin: False}
    assert len(decided) == 2 and decided[fun] and not decided[twin]
    ident, ident_twin = identity_gfunctor(u), identity_gfunctor(u)
    assert fun.morita_after(ident) and fun.morita_after(ident_twin)
    assert len(fun.composites_decided) == 2 and twin.composites_decided == {}
    # the two composites are equal, so their verdict is decided once
    assert len(p.morita_out) == 1


def test_morita_after_rejects_a_non_composable_pair():
    u, p = unit_groupoid(), pair_groupoid(2)
    fun = enumerate_gfunctors(p, u)[0]
    with pytest.raises(StructureError, match="not composable"):
        fun.morita_after(enumerate_gfunctors(p, u)[0])
    assert fun.composites_decided == {} and p.morita_out == {}


def test_compose_gfunctors_unit_laws():
    p, d = pair_groupoid(2), discrete_groupoid(2)
    for fun in enumerate_gfunctors(d, p):
        lhs = compose_gfunctors(identity_gfunctor(p), fun)
        rhs = compose_gfunctors(fun, identity_gfunctor(d))
        assert lhs.signature() == fun.signature() == rhs.signature()


# -- natural transformations ---------------------------------------------------


def test_nt_counts_pair_target():
    # with an indiscrete target, naturality is automatic and each component
    # is forced: exactly one transformation between any two functors
    u, p = unit_groupoid(), pair_groupoid(2)
    funs = enumerate_gfunctors(u, p) + enumerate_gfunctors(p, p)
    for f, g in itertools.product(funs, repeat=2):
        if f.source is g.source and f.target is g.target:
            assert len(natural_transformations(f, g)) == 1


def test_nt_counts_discrete_target():
    d = discrete_groupoid(2)
    funs = enumerate_gfunctors(d, d)
    for f, g in itertools.product(funs, repeat=2):
        n = len(natural_transformations(f, g))
        assert n == (1 if f.obj_map == g.obj_map else 0)


def test_nt_naturality_equation_holds():
    p = pair_groupoid(2)
    f, g = enumerate_gfunctors(p, p)[:2]
    for eta in natural_transformations(f, g):
        for a in p.arrows:
            lhs = p.comp[(eta[p.arr_dst[a]], f.arr_map[a])]
            rhs = p.comp[(g.arr_map[a], eta[p.arr_src[a]])]
            assert lhs == rhs


# -- Morita equivalence ----------------------------------------------------------


def test_pair_to_unit_is_morita():
    (fun,) = enumerate_gfunctors(pair_groupoid(2), unit_groupoid())
    assert is_essentially_surjective(fun)
    assert is_fully_faithful(fun)
    assert is_morita(fun)


def test_disc_to_unit_is_not_morita():
    (fun,) = enumerate_gfunctors(discrete_groupoid(2), unit_groupoid())
    assert is_essentially_surjective(fun)
    assert not is_fully_faithful(fun)  # hom(0,1) = {} must hit hom(pt,pt)
    assert not is_morita(fun)


def test_morita_census_over_catalog():
    # by hand: Unit→Unit (1), Unit→Pair2 (2), Pair2→Unit (1), Pair2→Pair2
    # (all 4: the constants are still fully faithful because every hom is a
    # singleton), Disc2→Disc2 (the 2 bijective maps); nothing else survives
    u, p, d = unit_groupoid(), pair_groupoid(2), discrete_groupoid(2)
    morita = [
        fun
        for a, b in itertools.product((u, p, d), repeat=2)
        for fun in enumerate_gfunctors(a, b)
        if is_morita(fun)
    ]
    assert len(morita) == 10


def test_two_out_of_six_vacuous_when_composites_fail():
    u, d = unit_groupoid(), discrete_groupoid(2)
    (xi,) = enumerate_gfunctors(d, u)          # not Morita
    psi = enumerate_gfunctors(u, d)[0]
    (phi,) = enumerate_gfunctors(d, u)
    rep = morita_two_out_of_six(xi, psi, phi)
    assert rep.vacuous and rep.ok


def test_two_out_of_six_real_instance():
    u, p = unit_groupoid(), pair_groupoid(2)
    xi = enumerate_gfunctors(u, p)[0]
    (psi,) = enumerate_gfunctors(p, u)
    phi = enumerate_gfunctors(u, p)[1]
    rep = morita_two_out_of_six(xi, psi, phi)
    assert not rep.vacuous
    assert rep.verdicts == {"phi": True, "psi": True, "xi": True}
    assert rep.ok


def test_two_out_of_six_shares_one_frozen_vacuous_verdict():
    # every vacuous chain gets the same object; it cannot be changed, and
    # a non-vacuous verdict keeps a dict of its own
    cat = CATALOGS["unit-pair-disc"]()
    funs = {(a.name, b.name): enumerate_gfunctors(a, b)
            for a, b in itertools.product(cat, repeat=2)}
    vacuous, real = [], []
    for u, z, y, x in itertools.product(cat, repeat=4):
        for xi, psi, phi in itertools.product(funs[(u.name, z.name)],
                                              funs[(z.name, y.name)],
                                              funs[(y.name, x.name)]):
            rep = morita_two_out_of_six(xi, psi, phi)
            (vacuous if rep.vacuous else real).append(rep)
    shared = vacuous[0]
    assert len(vacuous) > 1 and all(rep is shared for rep in vacuous)
    assert shared.ok and shared.verdicts == {}
    with pytest.raises(AttributeError):
        shared.vacuous = False
    with pytest.raises(TypeError):
        shared.verdicts["phi"] = False
    assert shared.verdicts == {}
    assert real and all(type(rep.verdicts) is dict for rep in real)
    assert len({id(rep.verdicts) for rep in real}) == len(real)


def test_two_out_of_six_rejects_non_chain():
    u, p, d = unit_groupoid(), pair_groupoid(2), discrete_groupoid(2)
    with pytest.raises(StructureError):
        morita_two_out_of_six(enumerate_gfunctors(u, p)[0],
                              enumerate_gfunctors(d, u)[0],
                              enumerate_gfunctors(u, p)[0])


# -- the catalog as a 2-category --------------------------------------------------


def test_catalog_twocat_is_lawful():
    c, w = groupoid_twocat([unit_groupoid(), pair_groupoid(2),
                            discrete_groupoid(2)])
    assert validate(c).ok
    assert len(c.mors) == 21 and len(w) == 10
    assert check_bf(c, w).ok


# SHA-256 of each `groupoid_twocat` table's items, in insertion order
CATALOG_TABLE_DIGESTS = {
    "unit": {
        "objects": "a55b4504cd35b84f340ac3e936b8b0c85344068b737f9623ac6b2e6cbafbe84c",
        "mor_src": "412ffe9644a3407401e1ba1f9b34b3dbcbe6e4d14e50033c99e29135bb1ae607",
        "mor_dst": "412ffe9644a3407401e1ba1f9b34b3dbcbe6e4d14e50033c99e29135bb1ae607",
        "comp1": "270844e088c3eda62afc02f23d86152e5e6a826c2da7abb5274dcd353fffdd6e",
        "id1": "20e304ee191e90706097f29cc4a4d498f5e4df4f93e73036dcb27eff26663a6c",
        "cell_src": "fa1b28419c44f6e336559ef3926dde8b65b5b6ab1f2276299865b7b313dd0c7a",
        "cell_dst": "fa1b28419c44f6e336559ef3926dde8b65b5b6ab1f2276299865b7b313dd0c7a",
        "vcomp_table": "b3a041e8a482e21387bba0d57ef147735033ab11daea14cf95719fb4835ac96f",
        "hcomp_table": "b3a041e8a482e21387bba0d57ef147735033ab11daea14cf95719fb4835ac96f",
        "id2": "2547b106b6a37648b2987712c1fae05edafa74bbe9387887de86174da89e5b68",
    },
    "unit-pair": {
        "objects": "7cbd29d509d08516a7b7523556af57be8e1f304c0638e2f5485b506bf3b0611a",
        "mor_src": "4111681712a2854c2c53b9c185b30e45b1f8c7fd898d0de91d90a67720864be9",
        "mor_dst": "64c115c04ca127922286528b5f2e00ff657a45202e2aa7c7bec8aa75e4d42ecb",
        "comp1": "2bc821b9b318b9d2f38daa7c4a1ce278f58488c73c57aa9462fde8bbf82d80d0",
        "id1": "698d60c17e59dda16fde0f88d8e9b7e8ebfb96b5c99143e8caf21f7b8a67dd1a",
        "cell_src": "e09b003d97a9aa1a7a7986d06365a8408b7b7fbb80cbfef6da00e988a4a25f90",
        "cell_dst": "deaab02970eedfd2458d55e37794a779bb28e5addd4845b6a7967cadcc2bc20b",
        "vcomp_table": "fc6e355d5598236a88ac3b725fe1f935da501f45bc2122d6c528dcce4d7e3d4b",
        "hcomp_table": "5aae2f85a7d0d67bdf1f02e762d434a2dd85a2d6514e2b52297b967db2712c03",
        "id2": "3e425f5787da18c88a8cdd0801320d7cd446ff2040bea13468032c7b66336c69",
    },
    "unit-pair-disc": {
        "objects": "5a79d3826765d7e6e81234c7313e59756dc6d171265013d71674b8a9345885f4",
        "mor_src": "e13cf2c796b2bbdad66f45863dda967af49ca8e082761f32ce50c941b3469cd5",
        "mor_dst": "8a8fa19c814ba9e3b4812cc98b73587c7752413736d9d04d89569457b5e4712a",
        "comp1": "7d23c102139d4b25806e3e239f0736b62d9ba0b42b9113133e92c81d66163dc7",
        "id1": "9adacfd9d3ac7dab44f4a76364deb127af046fed0be6389882d72ced27eed52b",
        "cell_src": "78bd1f0b93e2d151b52f5bb4dc4189488d9191330fca8dc193eb54a635b891f0",
        "cell_dst": "6ce980093d52a3c959ad02570ed074fbad8de2efa724904679fec96e134a5e62",
        "vcomp_table": "d5c962bf3ebc820bf62042c1c070279724efcc41b2788f29e8d6d3941173da0c",
        "hcomp_table": "e3acf9071497b44f5ca4289fb80557400fc02da01e9025dc4e39e02d8f2c6078",
        "id2": "f39646dfc35be1194e4a5da3752930230a672d268053db445d6c23fbb88cf3a8",
    },
    "unit-pair2-disc3": {
        "objects": "590c9c1c8a148a811ccfeb2bb6d47b73dd47de3608744ad0a1b8844bbcd52bb1",
        "mor_src": "ebd008f0555e18f5701692b38544e12252c99aa57c21c6b05c956b6dc8e1add1",
        "mor_dst": "f822334ce6cb7845f23cc4757da1607aaf1cb67dcbd41def3e26bef32d602eff",
        "comp1": "63140a999b30ae97302718d53adb0d1b45c699b9558bc867c8fa0805b6a58468",
        "id1": "eb4ba5abb7c6fbc74887c6a66e43c4dc6dfa6828325517fd6b19b149f7ec9731",
        "cell_src": "23bee0ccb032abd027d5e859d2856a2b7f5b4acf580491fcd496c0f33d4889c3",
        "cell_dst": "d250ae816ff296061825b5692721282da6271da675c5ca1098d62c3da53ee9a7",
        "vcomp_table": "b9137c5816f2680dd25f897d054902578cc95c614bc6bfa1e2b2734b3cf16138",
        "hcomp_table": "08e554df1127b2d3dfe89fa2629b1ad4c79441aaebb9a05351ac6f69f210204a",
        "id2": "3d6c29d31708b373c4121d2bef988f15a451ce5849b719f1676a85349e800af1",
    },
    "unit-z2-z3": {
        "objects": "a281cfb09c1844365a16644681a43e0b6ee627dc5838cbf683d6b7c471b3aa86",
        "mor_src": "896ec2501f7e627db5189331619cac2ef80c1a66bd2054ca2b7837c4149b364c",
        "mor_dst": "c97db5ac3e8ba65b97a0ebe50ad6b147998ce4f6a0ca38c4683898bbc5b187a2",
        "comp1": "1988ed3fbc1eab431fe842266753171749dd8419bcc73a86c7c908ad71137767",
        "id1": "01f53841f22a5035ece0e346592cdd815373ba9a70657baf9eb98c4deb2d1c6f",
        "cell_src": "21cff23532c05e729e0340172c5138ae6e9b4df6dc4e6613d1eefe2861d5bcae",
        "cell_dst": "21cff23532c05e729e0340172c5138ae6e9b4df6dc4e6613d1eefe2861d5bcae",
        "vcomp_table": "069fa4e584f8b7349d392ddef058385ce3c81c30da5461f2295a1a4eb6710c09",
        "hcomp_table": "b8ede1504aa85950e56a799d3a9402d4e9ad903f35b17d3b7b8ba3ab6cae7b27",
        "id2": "a84031cbc6df6999a783cf837a19a9f60dc346dd598d19b05802bca7d8e753e3",
    },
    "z2-pair3-z3": {
        "objects": "ae717c78a467d8bb54a676e0055b44752c0d711585a07a685fa5aeb468b6c08e",
        "mor_src": "d9a962c84a0631f6228dab3e7121c2147f6b5e2491eedde74ff38520e9c50528",
        "mor_dst": "577f5af9c39c4eaf9d9c7ff14397a8771814fe32d81cc0730577b8901bcb286f",
        "comp1": "c5a77010b1e6f440cd1333f60350c181154344087cadb280f500fc54261d9cba",
        "id1": "518cd71d397f414a9555f85e20dc8251a3eae96f0e35c2dda91728407d58df69",
        "cell_src": "42f8f6c29ec5dfb6f2f5cd5f430e1dd1bc459e576416459f3dcaaa4ca0412b01",
        "cell_dst": "549a307790dbe66ba6915021cbde717bc42cae84f074de4e17539f6fb549e358",
        "vcomp_table": "6048eadc9a39b2fd9c9308be75d124ddf879b108809f0fe175a444102219ee35",
        "hcomp_table": "bb27e739e680e7b965ecc95bed93f2b8d010babe9fbb741410ae1f610cc3b42c",
        "id2": "c5b0e1ea47c866d6d071f3e8b85696cbb010cfd327606df9ff68f2de2dab50d2",
    },
    "unit-pair2-disc2-pair3": {
        "objects": "ec150a19764c2d5f610b90a12c9435160a83370097ed9d1f069041bc1cadce60",
        "mor_src": "247762f00c6c2ada0e781abf54eb82a5b0146a5a3ea392d28217a72c3a66bc99",
        "mor_dst": "694f75163b59e89178d897280e15e9cb5b7f547f892a49c6d9a0656529e4d696",
        "comp1": "93639f331be9d099e905fa9e42d4ffbec1dc01e01d450f423bd97dc96eb1e26d",
        "id1": "6860fc96fa1ba48fcb8013a54f8c8c2afac02c268504d2df125e008857ffe0be",
        "cell_src": "6b6f927096faf42357fdf3fa8c4af04e7409fbe2645c0bfece2d65b07a0ff2d5",
        "cell_dst": "58fa7346b4b38a28b5f1c47963cda1ce8a54b44af767a4ca8f88129f9c3b7a31",
        "vcomp_table": "3f952e43516b10eeb2ec6bf6261ebecb53bb9d5d2cd331b5d9dcbdbabf695ae2",
        "hcomp_table": "12883d53a880445965bc30df554bf026b554e0158a49d7f6c8fe29f64510753d",
        "id2": "b4535abd9da350d19ce3e8f042a0b0885f32d7a06449ae2ace3465a889c41108",
    },
}


def test_catalog_tables_are_pinned():
    catalogs = {name: make() for name, make in CATALOGS.items()}
    catalogs["unit-pair2-disc3"] = [unit_groupoid(), pair_groupoid(2), discrete_groupoid(3)]
    # Z2 and Z3 have automorphisms, so some functor pairs of these are
    # joined by several transformations, whose components are then read
    catalogs["unit-z2-z3"] = [unit_groupoid(), cyclic_group(2), cyclic_group(3)]
    catalogs["z2-pair3-z3"] = [cyclic_group(2), pair_groupoid(3), cyclic_group(3)]
    catalogs["unit-pair2-disc2-pair3"] = CATALOGS["unit-pair-disc"]() + [pair_groupoid(3)]
    assert catalogs.keys() == CATALOG_TABLE_DIGESTS.keys()
    for name, catalog in catalogs.items():
        c, _w = groupoid_twocat(catalog)
        for table, digest in CATALOG_TABLE_DIGESTS[name].items():
            items = getattr(c, table)
            items = list(items.items()) if isinstance(items, dict) else list(items)
            assert hashlib.sha256(repr(items).encode()).hexdigest() == digest, (name, table)


def test_catalog_localized_decider_matches_morita():
    cat = [unit_groupoid(), pair_groupoid(2), discrete_groupoid(2)]
    c, w = groupoid_twocat(cat)
    assert saturate(c, w) == w  # Morita class is already right-saturated
    funs = [fun for a, b in itertools.product(cat, repeat=2)
            for fun in enumerate_gfunctors(a, b)]
    by_sig = {}
    for a, b in itertools.product(cat, repeat=2):
        for k, fun in enumerate(enumerate_gfunctors(a, b)):
            by_sig[f"{a.name}>{b.name}#{k}"] = fun
    assert len(by_sig) == len(funs) == 21
    for fid, fun in by_sig.items():
        localized = is_internal_equiv_closed_form(c, w, u_mor(c, w, fid))
        assert localized == is_morita(fun), fid


def test_shipped_catalogs_are_saturated():
    for name, make in CATALOGS.items():
        assert morita_saturated_check(make()), name


# -- Morita predicates against their literal definitions ---------------------------
#
# `is_essentially_surjective` reads the target's reach sets and
# `is_fully_faithful` compares homs one pair of source objects at a time;
# `morita_two_out_of_six` reads verdicts memoized on the functors, one per
# functor and one per composable pair, and decides a pair's verdict once
# per distinct composite.  The oracle for two-out-of-six builds both
# composites afresh for every chain.


def cyclic_group(n):
    """Z/n as a one-object groupoid, so that a hom holds more than one arrow."""
    arrows = [f"r{k}" for k in range(n)]
    return FiniteGroupoid(
        f"Z{n}", ("1",), dict.fromkeys(arrows, "1"), dict.fromkeys(arrows, "1"),
        {(arrows[i], arrows[j]): arrows[(i + j) % n]
         for i in range(n) for j in range(n)},
        {arrows[k]: arrows[-k % n] for k in range(n)}, {"1": "r0"})


def test_morita_predicates_match_literal_definitions():
    gpds = [unit_groupoid(), pair_groupoid(2), pair_groupoid(3),
            discrete_groupoid(2), discrete_groupoid(3), cyclic_group(2),
            cyclic_group(3)]
    assert all(validate_groupoid(g).ok for g in gpds)
    funs = [fun for a, b in itertools.product(gpds, repeat=2)
            for fun in enumerate_gfunctors(a, b)]
    verdicts = set()
    for fun in funs:
        es, ff = is_essentially_surjective(fun), is_fully_faithful(fun)
        assert es == literal_essentially_surjective(fun), fun.signature()
        assert ff == literal_fully_faithful(fun), fun.signature()
        assert is_morita(fun) == literal_morita(fun), fun.signature()
        verdicts.add((es, ff))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_morita_predicates_match_on_tables_that_are_not_functors():
    u, p = unit_groupoid(), pair_groupoid(2)
    p.arr_src = {**p.arr_src, "stray": "9"}  # an arrow out of no object
    p.arr_dst = {**p.arr_dst, "stray": "1"}
    fun = GroupoidFunctor(p, u, {"1": "1", "2": "1"},
                          {a: "e1" for a in p.arr_src})
    assert is_essentially_surjective(fun) == literal_essentially_surjective(fun)
    assert is_fully_faithful(fun) == literal_fully_faithful(fun) is False


def test_two_out_of_six_matches_built_composites():
    # Z2 has a non-trivial vertex group, so composites depend on the arrow map
    for cat in (CATALOGS["unit-pair-disc"](),
                [cyclic_group(2), pair_groupoid(2), discrete_groupoid(2)]):
        funs = {(a.name, b.name): enumerate_gfunctors(a, b)
                for a, b in itertools.product(cat, repeat=2)}
        # content-equal but distinct functors: the memos are keyed by identity
        twins = {(a.name, b.name): enumerate_gfunctors(a, b)
                 for a, b in itertools.product(cat, repeat=2)}
        real = 0
        for u, z, y, x in itertools.product(cat, repeat=4):
            for (i, xi), psi, (j, phi) in itertools.product(
                    enumerate(funs[(u.name, z.name)]), funs[(z.name, y.name)],
                    enumerate(funs[(y.name, x.name)])):
                rep = morita_two_out_of_six(xi, psi, phi)
                vacuous = not (literal_morita(compose_gfunctors(phi, psi))
                               and literal_morita(compose_gfunctors(psi, xi)))
                assert rep.vacuous == vacuous
                assert rep.ok == (rep.vacuous or all(rep.verdicts.values()))
                if not vacuous:
                    real += 1
                    assert rep.verdicts == {"phi": literal_morita(phi),
                                            "psi": literal_morita(psi),
                                            "xi": literal_morita(xi)}
                twin = morita_two_out_of_six(twins[(u.name, z.name)][i], psi,
                                             twins[(y.name, x.name)][j])
                assert (twin.vacuous, twin.verdicts) == (rep.vacuous, rep.verdicts)
        assert real > 0, [g.name for g in cat]


def test_two_out_of_six_decides_each_pair_once(monkeypatch):
    import twoloc.groupoids

    decisions = 0
    decide = twoloc.groupoids.is_morita

    def counted(*args):
        nonlocal decisions
        decisions += 1
        return decide(*args)

    monkeypatch.setattr(twoloc.groupoids, "is_morita", counted)
    cat = CATALOGS["unit-pair-disc"]()
    funs = {(a.name, b.name): enumerate_gfunctors(a, b)
            for a, b in itertools.product(cat, repeat=2)}
    chains = 0
    for u, z, y, x in itertools.product(cat, repeat=4):
        for xi, psi, phi in itertools.product(funs[(u.name, z.name)],
                                              funs[(z.name, y.name)],
                                              funs[(y.name, x.name)]):
            morita_two_out_of_six(xi, psi, phi)
            chains += 1
    functors = sum(len(fs) for fs in funs.values())
    pairs = sum(len(funs[(a.name, b.name)]) * len(funs[(b.name, c.name)])
                for a, b, c in itertools.product(cat, repeat=3))
    # a composite is a functor of the catalog, decided once however many
    # composable pairs give it, and each functor's own verdict once
    assert 0 < decisions <= 2 * functors < pairs < chains
    assert sum(len(f.composites_decided)
               for fs in funs.values() for f in fs) <= pairs
