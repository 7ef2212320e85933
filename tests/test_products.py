"""Products C×D at W×V: known answers past the corpus caps, from the factors."""

from corpus import ROWS, product_family, with_tables

from twoloc import check_bf, saturate, validate
from twoloc.saturation import AXIOMS

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
