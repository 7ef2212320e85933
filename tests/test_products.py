"""Products C×D at W×V: known answers past the corpus caps, from the factors."""

import random

from corpus import (
    ROWS, CorpusEntry, classes_only, cyclic_parity, product_family, product_twocat, span_pairs,
    with_tables,
)
from oracles import biequivalence_count, fibre_partition

from twoloc import build_choices, check_bf, saturate, validate
from twoloc.fractions import Span
from twoloc.saturation import AXIOMS, is_right_saturated

FAMILY = product_family()


def test_products_validate_from_either_table():
    # a product of lawful tables is lawful, and so is its copy built from
    # the whisker rows, whose hcomp is derived and not given
    for _e1, _e2, p in FAMILY:
        whiskered = with_tables(p.c, **{name: getattr(p.c, name) for name in ROWS})
        assert validate(p.c).lines() == validate(whiskered).lines() == [], p.name
    assert max(len(p.c.mors) for _e1, _e2, p in FAMILY) > 8


def test_product_bf_verdicts_are_the_factors_conjunction():
    """Each axiom holds on C×D at W×V iff it holds on both factors.

    Fillers, lifts and zigs in the product are pairs of the factors' ones.
    Each factor's class holds the identities, so a counterexample in one
    factor, paired with identities in the other, is one in the product.
    """
    failing = set()
    for e1, e2, p in FAMILY:
        r1, r2, rp = check_bf(e1.c, e1.w), check_bf(e2.c, e2.w), check_bf(p.c, p.w)
        assert r1.verdicts["BF1"] and r2.verdicts["BF1"], p.name
        assert rp.verdicts == {a: r1.verdicts[a] and r2.verdicts[a] for a in AXIOMS}, p.name
        failing.update(a for a in AXIOMS if not rp.verdicts[a])
    assert failing >= {"BF2", "BF3", "BF4a"}


def test_product_saturation_is_the_product_of_saturations():
    for e1, e2, p in FAMILY:
        want = {f"({f}|{g})" for f in saturate(e1.c, e1.w) for g in saturate(e2.c, e2.w)}
        assert saturate(p.c, p.w) == want, p.name


def factor_spans(e1, e2):
    """Each span of C×D at W×V, as its pair of factor spans."""
    c1, c2 = e1.c, e2.c
    objects = {f"({x}|{y})": (x, y) for x in c1.objects for y in c2.objects}
    mors = {f"({f}|{g})": (f, g) for f in c1.mors for g in c2.mors}

    def split(s: Span) -> tuple[Span, Span]:
        return tuple(Span(*names) for names in zip(objects[s.apex], mors[s.w], mors[s.f]))
    return split


# products whose homs are all counted: a seeded sample of the family
SAMPLE = random.Random(16).sample(FAMILY, 12)


def test_product_classes_are_the_factors_products():
    """`is_right_saturated` and every hom's class count, from the factors.

    The saturation of W×V is W_sat×V_sat, so the product is right
    saturated iff both factors are.  Representatives, refinement legs and
    so classes are pairs of the factors' ones, an identity leg in one
    factor padding a chain in the other, so a hom's class count is the
    product of the factors' counts.  The store needs no BF axiom.
    """
    homs = 0
    for e1, e2, p in SAMPLE:
        assert is_right_saturated(p.c, p.w) == (
            is_right_saturated(e1.c, e1.w) and is_right_saturated(e2.c, e2.w)), p.name
        loc, loc1, loc2 = (classes_only(e.c, e.w) for e in (p, e1, e2))
        split = factor_spans(e1, e2)
        for s1, s2 in span_pairs(p.c, p.w):
            (t1, u1), (t2, u2) = split(s1), split(s2)
            assert len(loc.hom_cells(s1, s2)) == \
                len(loc1.hom_cells(t1, t2)) * len(loc2.hom_cells(u1, u2)), (p.name, s1, s2)
            homs += 1
    assert {is_right_saturated(p.c, p.w) for _e1, _e2, p in SAMPLE} == {True, False}
    assert homs > 1000


def test_cyclic_products_have_the_counted_total():
    """Z/4 at ⟨g2⟩ times a factor D: its 2-cells number Z/4's total times D's.

    Z/4's total is `biequivalence_count` summed over its span pairs (32),
    and D's is its fibre count; on the product the total is the fibre
    count too.  The store holds twice Z/4's total, as its partition is
    finer than Pronk's relation (test_biequivalence), so it is not the
    store that is compared here.
    """
    z = CorpusEntry("Z/4-s-<g2>", cyclic_parity(4, "s"), frozenset({"g0", "g2"}))
    z_total = sum(biequivalence_count(z.c, z.w, s1, s2) for s1, s2 in span_pairs(z.c, z.w))
    assert z_total == 32
    factors = [e2 for _e1, e2, _p in SAMPLE if check_bf(e2.c, e2.w).ok][:3]
    assert len(factors) == 3
    for e in factors:
        p = CorpusEntry(f"Z/4×{e.name}", product_twocat(z.c, e.c),
                        frozenset(f"({f}|{g})" for f in z.w for g in e.w))
        assert check_bf(p.c, p.w).ok, p.name
        totals = []
        for x in (p, e):
            loc = build_choices(x.c, x.w)
            totals.append(sum(len(fibre_partition(loc, s1, s2)) for s1, s2 in span_pairs(x.c, x.w)))
        assert totals[0] == z_total * totals[1] > 0, p.name
