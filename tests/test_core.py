"""Ambient 2-category tables, validation, and equivalence witnesses."""

import dataclasses

import pytest

from twoloc import (
    StructureError,
    adjointify,
    equivalence_from_cancellation,
    equivalence_of_composite,
    find_quasi_inverse,
    fixture,
    internal_equivalences,
    quasi_inverse_witness,
    transport_witness,
    validate,
    witness_problems,
)
from twoloc.fixtures import FIXTURES


def test_all_fixtures_validate():
    for name in FIXTURES:
        c, _w = fixture(name)
        rep = validate(c)
        assert rep.ok, (name, rep.lines())


def test_validate_flags_missing_table_entry_as_structural():
    c, _ = fixture("F3")
    comp1 = dict(c.comp1)
    del comp1[("w", "id0")]
    broken = dataclasses.replace(c, comp1=comp1)
    rep = validate(broken)
    assert not rep.ok
    assert rep.structural and not rep.failures


def test_validate_flags_wrong_composite_as_law_failure():
    c, _ = fixture("F7")
    # tau_f ⊙ i_f must be tau_f; rerouting it keeps every boundary intact,
    # so this is a pure unit-law failure, not a structural one
    v = dict(c.vcomp_table)
    v[("tau_f", "i_f")] = "i_f"
    broken = dataclasses.replace(c, vcomp_table=v)
    rep = validate(broken)
    assert not rep.ok
    assert not rep.structural
    assert ("vcomp-right-unit", "('tau_f',)") in rep.failures


def test_validate_flags_broken_interchange():
    c, _ = fixture("F6")
    # two parity-1 cells must compose to parity 0; flip one entry
    h = dict(c.hcomp_table)
    key = ("s_g", "s_f")
    assert h[key] == "i_idX"
    h[key] = "s_idX"
    broken = dataclasses.replace(c, hcomp_table=h)
    rep = validate(broken)
    assert not rep.ok
    laws = [law for law, _ in rep.failures]
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


def test_hom_indices():
    c, _ = fixture("F7")
    assert c.hom1("A", "B") == ("f",)
    assert c.hom1("B", "A") == ()
    assert set(c.hom2("f", "f")) == {"i_f", "tau_f"}
    assert c.hom2("idA", "f") == ()


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
    from twoloc import EquivalenceWitness

    with pytest.raises(StructureError):
        adjointify(c, EquivalenceWitness("u", "u", "eps", "eps"))


def test_quasi_inverse_witness_swaps_direction():
    c, _ = fixture("F6")
    w = find_quasi_inverse(c, "f")
    back = quasi_inverse_witness(c, w)
    assert back.e == "g" and back.e_bar == "f"
    assert witness_problems(c, back) == []


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
