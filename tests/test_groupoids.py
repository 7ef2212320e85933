"""Finite groupoids, functor enumeration, and Morita equivalence."""

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
    # the first failing triple in the order of product(arrows, repeat=3)
    for n in (2, 3):
        base = cyclic_group(n)
        for key, other in itertools.product(sorted(base.comp), base.arrows):
            if other == base.comp[key]:
                continue
            g = cyclic_group(n)
            g.comp = {**g.comp, key: other}
            first = next(((c_, b, a)
                          for c_, b, a in itertools.product(g.arrows, repeat=3)
                          if g.comp[(c_, g.comp[(b, a)])] != g.comp[(g.comp[(c_, b)], a)]),
                         None)
            got = validate_groupoid(g).counterexamples.get("associativity")
            assert got == first, (n, key, other)


def test_validate_groupoid_reports_units_that_do_not_compose():
    g = pair_groupoid(2)
    g.unit = {**g.unit, "1": "p12"}  # p12 ∘ p11 is not in the table
    laws = list(validate_groupoid(g).verdicts)
    assert "unit endpoints" in laws and "unit law" in laws


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
# functor and one per composable pair.  The oracle for two-out-of-six
# builds both composites afresh for every chain.


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
    assert 0 < decisions <= pairs + functors < chains
    assert sum(len(f.composites_decided)
               for fs in funs.values() for f in fs) <= pairs
