"""Invertibility of fraction 2-cells against the vcomp-and-verify search.

`fraction_inverse` decides invertibility from the class alone: some member
must have an invertible β.  `search_fraction_inverse`, the search it
replaced, scans the opposite hom for a cell whose two vertical composites
with the given one are identities.  It leans on `vcomp_fraction`'s unit
law, so it is only compared on inputs where that law holds (builder
names; see the strict xfail in test_fractions.py for the naming that
breaks it).
"""

import random

import pytest
from corpus import cyclic_parity, posetal_family, posetal_twocat, span_pairs
from oracles import search_fraction_inverse

from twoloc.core import TwoCat
from twoloc.fixtures import FIXTURES, fixture
from twoloc.fractions import (
    build_choices,
    fraction_inverse,
    hom_fraction_cells,
    is_internal_equiv_search,
    is_invertible_fraction_cell,
    u_cell,
)
from twoloc.transport import comparison_to_saturation, x_conditions_for_induced


def assert_inverses_match_search(c, w) -> tuple[int, int]:
    """Compare every class of (c, w); returns (classes, non-invertible ones)."""
    ch = build_choices(c, w)
    classes = singular = 0
    for s1, s2 in span_pairs(c, ch.w):
        for cell in hom_fraction_cells(c, w, s1, s2):
            want = search_fraction_inverse(ch, cell)
            assert fraction_inverse(ch, cell) == want, cell.canonical
            assert is_invertible_fraction_cell(ch, cell) == (want is not None)
            classes += 1
            singular += want is None
    return classes, singular


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_inverses_match_search(name):
    assert assert_inverses_match_search(*fixture(name))[0] > 0


def test_corpus_inverses_match_search(corpus_entries):
    for entry in corpus_entries:
        assert_inverses_match_search(entry.c, entry.w)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cyclic_parity_inverses_match_search(n):
    c = cyclic_parity(n, "s")
    for step in (d for d in range(1, n + 1) if n % d == 0):
        assert_inverses_match_search(c, frozenset(f"g{k}" for k in range(0, n, step)))


def test_posetal_inverses_match_search():
    singular = 0
    for entry in posetal_family():
        singular += assert_inverses_match_search(entry.c, entry.w)[1]
    assert singular > 0


def test_idempotent_makes_its_order_cell_invertible():
    # {1, e} with e∘e = e, 1 <= e and W = {1, e}: refining u_cell(1<=e)
    # along e gives the member (A, e, e, i_e, i_e), which swaps to an
    # inverse, although the canonical β is the non-invertible 1<=e.
    c = posetal_twocat(["A"], {"1": ("A", "A"), "e": ("A", "A")}, {"A": "1"},
                       {("1", "1"): "1", ("e", "1"): "e", ("1", "e"): "e",
                        ("e", "e"): "e"},
                       {("1", "1"), ("e", "e"), ("1", "e")})
    w = frozenset({"1", "e"})
    ch = build_choices(c, w)
    cell = u_cell(ch, "1<=e")
    assert cell.canonical.beta == "1<=e" and not c.is_invertible2("1<=e")
    assert ("A", "e", "e", "e<=e", "e<=e") in {tuple(r)[2:] for r in cell.members}
    assert is_invertible_fraction_cell(ch, cell)
    assert fraction_inverse(ch, cell) == search_fraction_inverse(ch, cell)
    assert fraction_inverse(ch, cell) is not None


# -- the search decider no longer depends on 2-cell names ---------------------


def rename_cells(c: TwoCat, new: dict[str, str]) -> TwoCat:
    return TwoCat(
        objects=c.objects, mor_src=c.mor_src, mor_dst=c.mor_dst, comp1=c.comp1,
        id1=c.id1,
        cell_src={new[a]: f for a, f in c.cell_src.items()},
        cell_dst={new[a]: f for a, f in c.cell_dst.items()},
        vcomp_table={(new[b], new[a]): new[r] for (b, a), r in c.vcomp_table.items()},
        hcomp_table={(new[b], new[a]): new[r] for (b, a), r in c.hcomp_table.items()},
        id2={f: new[a] for f, a in c.id2.items()},
    )


@pytest.mark.parametrize("seed", range(4))
def test_z8_with_renamed_cells_keeps_every_equivalence(seed):
    base = cyclic_parity(8, "s")
    names = [f"c{k:02d}" for k in range(len(base.cells))]
    random.Random(seed).shuffle(names)
    c = rename_cells(base, dict(zip(base.cells, names)))
    for step in (4, 2):
        w = frozenset(f"g{k}" for k in range(0, 8, step))
        ch = build_choices(c, w)
        assert all(is_internal_equiv_search(ch, s) is not None
                   for s in ch.spans("x", "x")), step
        report = x_conditions_for_induced(comparison_to_saturation(c, w))
        assert len(report.verdicts) == 4 and report.ok, (step, report.lines())
