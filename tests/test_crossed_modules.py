"""Strict 2-groups from crossed modules: lawful by construction, with derived answers.

A crossed module ∂: H → G gives a one-object strict 2-category whose
1-cells are all invertible, so every W consists of equivalences and
`biequivalence_count` gives every hom: the 2-cells g ⇒ g′ are the pairs
(g, h) with ∂(h)g = g′, so |ker ∂| of them when g′ ∈ ∂(H)g and none
otherwise.  A span pair ((w1, f1), (w2, f2)) thus counts |ker ∂| when
f2w2⁻¹ ∈ ∂(H)f1w1⁻¹, which holds for |∂(H)|/|G| of the (|W||G|)² pairs,
so the total over all span pairs is |W|²|G||H|.  W_sat is all of G, as
f∘f⁻¹ is the unit, which lies in W.

The four hand-picked crossed modules are joined by `crossed_module_family()`,
seeded ones with G cyclic or dihedral and ∂ zero, an isomorphism or a
quotient.  The fibre is compared with the count on every span pair where
there are at most `FIBRE_SAMPLE` of them, and on a seeded sample of that
many elsewhere; the conjugating partition on a few pairs with 2-cells.

The hom partition holds |H| times each total (18, 72, 128 and 7,776
against 6, 24, 32 and 1,296), so the store is checked as a strict xfail.
"""

import random

import pytest

from twoloc import build_choices, check_bf, saturate, validate
from twoloc.core import internal_equivalences

from corpus import classes_only, crossed_module_entries, crossed_module_family, span_pairs
from oracles import biequivalence_count, conjugating_partition, fibre_partition

ENTRIES = crossed_module_entries() + crossed_module_family()
# span pairs per entry that the fibre is compared on, and those per
# entry, each with a 2-cell, that the conjugating partition is
FIBRE_SAMPLE, CONJUGATING_SAMPLE = 2_500, 3


def derived_total(w, g_order: int, h_order: int) -> int:
    return len(w) ** 2 * g_order * h_order


@pytest.mark.parametrize("entry", [e for e, _g, _h in ENTRIES], ids=lambda e: e.name)
def test_crossed_modules_are_lawful_and_saturate_to_all_of_g(entry):
    c, w = entry.c, entry.w
    assert validate(c).ok
    assert check_bf(c, w).ok
    assert saturate(c, w) == frozenset(c.mors)
    assert w <= internal_equivalences(c)


def test_the_family_holds_every_kind_of_boundary_over_both_kinds_of_group():
    names = [entry.name for entry, _g, _h in crossed_module_family()]
    for kind in ("zero", "iso", "quotient"):
        assert any("→Z/" in n and f"-{kind}-" in n for n in names), kind
        assert any("→D" in n and f"-{kind}-" in n for n in names), kind
    assert any(n.startswith("S3→") for n in names)


def every_pair(entry, g_order: int) -> bool:
    return (len(entry.w) * g_order) ** 2 <= FIBRE_SAMPLE


@pytest.mark.parametrize("entry, g_order, h_order",
                         [pytest.param(*case, id=case[0].name) for case in ENTRIES
                          if every_pair(case[0], case[1])])
def test_fibre_partition_matches_the_count_on_every_span_pair(entry, g_order, h_order):
    c, w = entry.c, entry.w
    loc = build_choices(c, w)
    counts = []
    for s1, s2 in span_pairs(c, w):
        counts.append(biequivalence_count(c, w, s1, s2))
        assert len(fibre_partition(loc, s1, s2)) == counts[-1], (s1, s2)
    assert len(counts) == (len(w) * g_order) ** 2
    assert sum(counts) == derived_total(w, g_order, h_order)


@pytest.mark.parametrize("entry, g_order", [pytest.param(*case[:2], id=case[0].name)
                                            for case in ENTRIES if not every_pair(*case[:2])])
def test_fibre_partition_matches_the_count_on_a_sample_of_span_pairs(entry, g_order):
    c, w = entry.c, entry.w
    loc = build_choices(c, w)
    for s1, s2 in random.Random(entry.name).sample(list(span_pairs(c, w)), FIBRE_SAMPLE):
        assert len(fibre_partition(loc, s1, s2)) == biequivalence_count(c, w, s1, s2), (s1, s2)


@pytest.mark.parametrize("entry", [e for e, _g, _h in crossed_module_family()],
                         ids=lambda e: e.name)
def test_conjugating_partition_matches_the_count(entry):
    c, w = entry.c, entry.w
    pairs = list(span_pairs(c, w))
    random.Random(entry.name).shuffle(pairs)
    checked = 0
    for s1, s2 in pairs:
        count = biequivalence_count(c, w, s1, s2)
        if count:
            assert len(conjugating_partition(c, w, s1, s2)) == count, (s1, s2)
            checked += 1
            if checked == CONJUGATING_SAMPLE:
                break
    assert checked == CONJUGATING_SAMPLE


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the hom partition joins representatives only along a "
    "common refinement leg (ε = identity in Pronk's relation), so it holds "
    "|H| times each total"))
def test_store_totals_match_the_derived_totals():
    got, want = {}, {}
    for entry, g_order, h_order in ENTRIES:
        if not every_pair(entry, g_order):
            continue
        loc = classes_only(entry.c, entry.w)
        got[entry.name] = sum(len(loc.hom_cells(s1, s2)) for s1, s2 in span_pairs(entry.c, entry.w))
        want[entry.name] = derived_total(entry.w, g_order, h_order)
    assert got == want
