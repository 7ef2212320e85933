"""Spans, 2-cell classes, and composition in the localized bicategory."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoloc import (
    CellRep,
    InternalInconsistency,
    Localization,
    Span,
    StructureError,
    build_choices,
    cell_from_rep,
    cells_equal,
    compose_fractions,
    equality_chain,
    find_associator_witness,
    fixture,
    fraction_inverse,
    hom_fraction_cells,
    identity_fraction_cell,
    identity_span,
    is_internal_equiv_closed_form,
    is_internal_equiv_search,
    is_invertible_fraction_cell,
    localize,
    u_cell,
    u_mor,
    vcomp_fraction,
    whisker_fraction_left,
    whisker_fraction_right,
)
from twoloc.fixtures import FIXTURES, parity_twocat
from twoloc.fractions import rep_problems, span_problems

from test_equiv_search import oracle_internal_equiv_search


def test_span_and_rep_validity():
    c, w = fixture("F3")
    assert span_problems(c, w, Span("0", "id0", "w")) == []
    assert span_problems(c, w, Span("0", "w", "id0")) == []  # the inverse span
    assert span_problems(c, w, Span("1", "w", "id1"))  # w starts at 0, not 1
    assert span_problems(c, w, Span("0", "id0", "nope"))
    c7f, w7f = fixture("F7")
    assert span_problems(c7f, w7f, Span("A", "f", "idA"))  # denominator not in W
    c7, w7 = fixture("F7")
    s = u_mor(c7, w7, "f")
    good = CellRep(s, s, "A", "idA", "idA", "i_idA", "tau_f")
    assert rep_problems(c7, w7, good) == []
    bad = CellRep(s, s, "A", "idA", "idA", "tau_f", "i_f")  # alpha off-boundary
    assert rep_problems(c7, w7, bad)


def test_u_mor_of_identity_is_identity_span():
    for name in ("F1", "F3", "F5"):
        c, w = fixture(name)
        for a in c.objects:
            assert u_mor(c, w, c.id1[a]) == identity_span(c, a)


def test_cell_from_rep_rejects_invalid():
    c, w = fixture("F7")
    s = u_mor(c, w, "f")
    with pytest.raises(StructureError):
        cell_from_rep(build_choices(c, w), CellRep(s, s, "B", "idB", "idB", "i_idB", "i_idB"))


# -- the F7 hom computation, by hand ------------------------------------------
#
# Over the span u(f) = (A, idA, f), representatives are (v1, v2, alpha, beta)
# with v1, v2: apex → A.  The only arrows into A are idA, so apex = A and
# alpha ∈ {i_idA}, beta ∈ {i_f, tau_f}: exactly two representatives, and no
# refinement can connect them (the only refining leg is idA again, which
# changes nothing).  Hence the localized hom has exactly the two classes
# u(i_f) and u(tau_f).


def test_f7_two_distinct_cells():
    c, w = fixture("F7")
    s = u_mor(c, w, "f")
    loc = build_choices(c, w)
    cells = hom_fraction_cells(c, w, s, s)
    assert len(cells) == 2
    assert u_cell(loc, "i_f") != u_cell(loc, "tau_f")
    assert set(cells) == {u_cell(loc, "i_f"), u_cell(loc, "tau_f")}


def test_f7_tau_squares_to_identity_in_localization():
    c, w = fixture("F7")
    ch = build_choices(c, w)
    tau = u_cell(ch, "tau_f")
    sq = vcomp_fraction(ch, tau, tau)
    assert sq == u_cell(ch, "i_f")
    assert sq == identity_fraction_cell(ch, u_mor(c, w, "f"))


def test_f7_tau_is_its_own_fraction_inverse():
    c, w = fixture("F7")
    ch = build_choices(c, w)
    tau = u_cell(ch, "tau_f")
    assert is_invertible_fraction_cell(ch, tau)
    assert fraction_inverse(ch, tau) == tau


def test_embed_cell_functorial_for_vcomp():
    c, w = fixture("F7")
    loc = build_choices(c, w)
    for b, a in c.vcomp_table:
        lhs = u_cell(loc, c.vcomp(b, a))
        rhs = vcomp_fraction(loc, u_cell(loc, a), u_cell(loc, b))
        assert lhs == rhs, (b, a)


# -- one class can have many representatives ----------------------------------


def test_f5_single_class_with_four_members():
    # the span (A, u, u): any v1, v2 ∈ {idA, u} gives a valid representative
    # (every composite is u, every connecting cell is i_u), and refinement
    # along u merges them all
    c, w = fixture("F5")
    s = Span("A", "u", "u")
    cells = hom_fraction_cells(c, w, s, s)
    assert len(cells) == 1
    assert len(cells[0].members) == 4


def test_refinement_chain_witness():
    c, w = fixture("F5")
    s = Span("A", "u", "u")
    r1 = CellRep(s, s, "A", "idA", "idA", "i_u", "i_u")
    r2 = CellRep(s, s, "A", "u", "u", "i_u", "i_u")
    loc = build_choices(c, w)
    assert cells_equal(loc, r1, r2)
    chain = equality_chain(loc, r1, r2)
    assert chain is not None
    assert chain[0] == r1 and chain[-1] == r2
    unrelated = CellRep(s, s, "A", "idA", "u", "i_u", "i_u")
    assert cells_equal(loc, r1, unrelated)  # also merged, via (u, u∘u)


# -- composition and units -----------------------------------------------------


def test_strict_units_on_fixture_spans():
    for name in ("F2", "F3", "F5", "F7"):
        c, w = fixture(name)
        ch = build_choices(c, w)
        for a, b in itertools.product(c.objects, repeat=2):
            for s in ch.spans(a, b):
                assert compose_fractions(ch, identity_span(c, a), s) == s
                assert compose_fractions(ch, s, identity_span(c, b)) == s


def test_build_choices_is_the_localization_and_localize_returns_it():
    c, w = fixture("F2")  # W = the identities, W_sat = every 1-cell
    loc = build_choices(c, w)
    assert isinstance(loc, Localization)
    assert localize(c, w, loc) is loc
    assert localize(c, set(w), loc) is loc
    other, _ = fixture("F2")  # equal tables, another 2-category
    for cat, cls in ((other, w), (c, frozenset(c.mors))):
        with pytest.raises(StructureError, match="another 2-category or class W"):
            localize(cat, cls, loc)


def test_c3_collapses_w_roundtrip():
    # traversing w forwards then backwards through its fraction inverse
    # hits the C3 entry at cospan (w, w) and collapses to the identity span
    c, w = fixture("F3")
    ch = build_choices(c, w)
    assert ch.entries[("w", "w")] == ("0", "id0", "id0", "i_w")
    back = is_internal_equiv_search(ch, u_mor(c, w, "w")).e_bar
    assert back == Span("0", "w", "id0")
    assert compose_fractions(ch, u_mor(c, w, "w"), back) == identity_span(c, "0")


def z4_classes(twist_name: str):
    """Z/4 with a parity cell on every 1-cell, W = <2>: (choices, every endo class)."""
    names = [f"g{k}" for k in range(4)]
    comp = {(names[i], names[j]): names[(i + j) % 4] for i in range(4) for j in range(4)}
    c = parity_twocat(["x"], {g: ("x", "x") for g in names}, {"x": "g0"}, comp,
                      twist_name=twist_name)
    ch = build_choices(c, frozenset({"g0", "g2"}))
    spans = ch.spans("x", "x")
    return ch, [cell for s1 in spans for s2 in spans for cell in ch.hom_cells(s1, s2)]


def z4_left_unit_failures(twist_name: str) -> tuple[int, int]:
    """(classes, classes c with id ⊙ c != c) over all endo-spans of Z/4, W = <2>."""
    ch, cells = z4_classes(twist_name)
    broken = [cell for cell in cells
              if vcomp_fraction(ch, identity_fraction_cell(ch, cell.src_span), cell)
              != cell]
    return len(cells), len(broken)


def pronk_equivalent(c, w, r1: CellRep, r2: CellRep) -> bool:
    """Pronk's relation on representatives of one hom (Pronk 1996, §2.3), by search.

    r1 ~ r2 when some u: B→A3 and u′: B→A3′ with w1∘v1∘u ∈ W carry
    invertible ε1: v1∘u ⇒ v1′∘u′ and ε2: v2∘u ⇒ v2′∘u′ with
    (α′∗i_u′)⊙(i_w1∗ε1) = (i_w2∗ε2)⊙(α∗i_u), and likewise for β with f1, f2.
    Refining along a common leg is the case ε1 = ε2 = identity.
    """
    s1, s2 = r1.src_span, r1.dst_span
    for b in c.objects:
        for u in c.hom1(b, r1.apex):
            v1u, v2u = c.compose1(r1.v1, u), c.compose1(r1.v2, u)
            if c.compose1(s1.w, v1u) not in w:
                continue
            for u2 in c.hom1(b, r2.apex):
                for e1 in c.invertible_cells(v1u, c.compose1(r2.v1, u2)):
                    for e2 in c.invertible_cells(v2u, c.compose1(r2.v2, u2)):
                        if all(c.vcomp(c.whisker_right(x2, u2), c.whisker_left(leg1, e1))
                               == c.vcomp(c.whisker_left(leg2, e2), c.whisker_right(x1, u))
                               for x1, x2, leg1, leg2 in ((r1.alpha, r2.alpha, s1.w, s2.w),
                                                          (r1.beta, r2.beta, s1.f, s2.f))):
                            return True
    return False


def test_identity_cell_is_a_left_unit_with_builder_names():
    assert z4_left_unit_failures("s") == (64, 0)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the hom partition joins representatives only along a "
    "common refinement leg (ε = identity in Pronk's relation), so it is "
    "finer than Pronk's 2-cell relation (64 classes where Pronk has 32). "
    "vcomp_fraction(id, c) then lands in a class that is Pronk-equivalent "
    "to c but not equal to it (today all 64 classes when the parity cell "
    "sorts first)"))
def test_identity_cell_is_a_left_unit_when_parity_cell_sorts_first():
    assert z4_left_unit_failures("a") == (64, 0)


@pytest.mark.parametrize("twist_name", ["s", "a"])
def test_identity_cell_is_a_left_unit_up_to_pronk_equivalence(twist_name):
    ch, cells = z4_classes(twist_name)
    assert len(cells) == 64
    for cell in cells:
        unit = identity_fraction_cell(ch, cell.src_span)
        composite = vcomp_fraction(ch, unit, cell)
        assert pronk_equivalent(ch.c, ch.w, composite.canonical, cell.canonical)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the hom partition is finer than Pronk's relation; on "
    "Z/4 with W = <2> it has 64 classes where Pronk's relation has 32"))
def test_no_two_classes_of_a_hom_are_pronk_equivalent():
    ch, cells = z4_classes("s")
    for one, other in itertools.combinations(cells, 2):
        if (one.src_span, one.dst_span) == (other.src_span, other.dst_span):
            assert not pronk_equivalent(ch.c, ch.w, one.canonical, other.canonical)


def test_associator_witnesses_invertible():
    for name in ("F3", "F5", "F6"):
        c, w = fixture(name)
        ch = build_choices(c, w)
        spans = {
            (a, b): ch.spans(a, b)
            for a, b in itertools.product(c.objects, repeat=2)
        }
        for a, b in spans:
            for s in spans[(a, b)]:
                for cc in c.objects:
                    for t in spans[(b, cc)]:
                        for d in c.objects:
                            for u in spans[(cc, d)][:2]:
                                wit = find_associator_witness(ch, s, t, u)
                                assert is_invertible_fraction_cell(ch, wit)


# -- whiskering ----------------------------------------------------------------


def test_whiskers_match_ambient_on_embedded_cells():
    c, w = fixture("F6")
    ch = build_choices(c, w)
    loc = localize(c, w, ch)
    for gamma in c.cells:
        g = c.cell_src[gamma]
        for f in c.mors:
            if c.mor_src[f] == c.mor_dst[g]:  # f after gamma's boundary
                lhs = u_cell(loc, c.whisker_left(f, gamma))
                rhs = whisker_fraction_left(ch, u_mor(c, w, f), u_cell(loc, gamma))
                assert lhs == rhs, (f, gamma)
            if c.mor_dst[f] == c.mor_src[g]:  # f before gamma's boundary
                lhs = u_cell(loc, c.whisker_right(gamma, f))
                rhs = whisker_fraction_right(ch, u_cell(loc, gamma), u_mor(c, w, f))
                assert lhs == rhs, (f, gamma)


def test_whisker_boundaries():
    c, w = fixture("F6")
    ch = build_choices(c, w)
    gamma = u_cell(ch, "s_f")
    t = Span("Y", "idY", "g")
    out = whisker_fraction_left(ch, t, gamma)
    assert out.src_span == compose_fractions(ch, gamma.src_span, t)
    assert out.dst_span == compose_fractions(ch, gamma.dst_span, t)
    s = Span("Y", "idY", "g")
    out2 = whisker_fraction_right(ch, gamma, s)
    assert out2.src_span == compose_fractions(ch, s, gamma.src_span)
    assert out2.dst_span == compose_fractions(ch, s, gamma.dst_span)


# -- span arguments go through the store's check ------------------------------


def bad_spans(c, w) -> dict[str, Span]:
    """One malformed span of each kind that the tables of (c, W) allow."""
    a = sorted(c.objects)[0]
    out = {"unknown leg": Span(a, c.id1[a], "nope")}
    away = sorted(f for f in c.mors if c.mor_src[f] != a)
    if away:
        out["leg not at the apex"] = Span(a, c.id1[a], away[0])
    outside = sorted(f for f in c.mors if f not in w)
    if outside:
        out["denominator not in W"] = Span(c.mor_src[outside[0]], outside[0], outside[0])
    return out


SPAN_ARGUMENTS = {
    "compose, first": lambda loc, bad, good, cell: compose_fractions(loc, bad, good),
    "compose, second": lambda loc, bad, good, cell: compose_fractions(loc, good, bad),
    "whisker left": lambda loc, bad, good, cell: whisker_fraction_left(loc, bad, cell),
    "whisker right": lambda loc, bad, good, cell: whisker_fraction_right(loc, cell, bad),
    "associator": lambda loc, bad, good, cell: find_associator_witness(loc, good, good, bad),
    "identity cell": lambda loc, bad, good, cell: identity_fraction_cell(loc, bad),
}
BAD_SPAN_CASES = [(name, kind) for name in sorted(FIXTURES) for kind in bad_spans(*fixture(name))]


def test_bad_span_cases_cover_every_kind():
    assert {kind for _name, kind in BAD_SPAN_CASES} == \
        {"unknown leg", "leg not at the apex", "denominator not in W"}
    assert len(BAD_SPAN_CASES) == 7 + 5 + 3


@pytest.mark.parametrize("position", sorted(SPAN_ARGUMENTS))
@pytest.mark.parametrize("name,kind", BAD_SPAN_CASES)
def test_span_arguments_are_checked_by_the_store(name, kind, position):
    # the caller's span is named, never a KeyError or a fault of the package
    c, w = fixture(name)
    loc = build_choices(c, w)
    bad = bad_spans(c, w)[kind]
    good = identity_span(c, bad.apex)
    try:
        SPAN_ARGUMENTS[position](loc, bad, good, identity_fraction_cell(loc, good))
    except (KeyError, InternalInconsistency) as exc:
        pytest.fail(f"{type(exc).__name__}: {exc}")
    except StructureError as exc:
        assert str(exc) == "; ".join(span_problems(c, w, bad))
    else:
        pytest.fail("no StructureError")


def test_span_arguments_on_f2():
    # W = the identities; each call once let a bad span through or raised
    # KeyError or InternalInconsistency
    c, w = fixture("F2")
    loc = build_choices(c, w)
    with pytest.raises(StructureError, match="denominator 'g' is not in W"):
        compose_fractions(loc, Span("Y", "g", "idY"), Span("Y", "idY", "idY"))
    with pytest.raises(StructureError, match="leg 'nope' is not a 1-cell"):
        compose_fractions(loc, Span("X", "idX", "nope"), u_mor(c, w, "f"))
    with pytest.raises(StructureError, match="denominator 'g' is not in W"):
        whisker_fraction_right(loc, u_cell(loc, "i_f"), Span("Y", "g", "g"))
    with pytest.raises(StructureError, match="'nope' is not an object"):
        identity_span(c, "nope")


# -- equivalence deciders --------------------------------------------------------


def test_deciders_agree_on_fixture_spans():
    # the closed form against the per-candidate search it replaced
    for name in ("F1", "F2", "F3", "F5", "F6", "F7"):
        c, w = fixture(name)
        ch = build_choices(c, w)
        for a, b in itertools.product(c.objects, repeat=2):
            for s in ch.spans(a, b):
                closed = is_internal_equiv_closed_form(c, w, s)
                wit = oracle_internal_equiv_search(ch, s)
                assert closed == (wit is not None), (name, s)
                if wit is not None:
                    assert is_invertible_fraction_cell(ch, wit.delta)
                    assert is_invertible_fraction_cell(ch, wit.xi)


def test_f5_every_endo_span_is_an_equivalence():
    c, w = fixture("F5")
    ch = build_choices(c, w)
    for s in ch.spans("A", "A"):
        assert is_internal_equiv_search(ch, s) is not None


# -- cyclic-group model, checked against a closed-form answer -------------------
#
# One object, 1-cells Z/n, identity 2-cells only, W = everything.  For spans
# s = (x, g_a, g_b), a representative between (a, b) and (c, d) is a pair of
# legs (g_p, g_q) with a+p = c+q and b+p = d+q mod n, which is solvable iff
# b-a = d-c; all solutions differ by a common shift of (p, q), i.e. by one
# refinement step.  So hom((a,b),(c,d)) has exactly one cell when the
# "degree" b-a matches, none otherwise, and degree is additive under span
# composition.


@functools.lru_cache(maxsize=None)
def _cyclic(n: int):
    mors = {f"g{k}": ("x", "x") for k in range(n)}
    comp = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
            for i in range(n) for j in range(n)}
    c = parity_twocat(["x"], mors, {"x": "g0"}, comp, twisted=set())
    w = frozenset(mors)
    return c, w, build_choices(c, w)


@st.composite
def cyclic_spans(draw):
    n = draw(st.integers(1, 5))
    idx = st.integers(0, n - 1)
    return n, draw(idx), draw(idx), draw(idx), draw(idx)


@given(cyclic_spans())
@settings(max_examples=120, deadline=None)
def test_cyclic_hom_counts(case):
    n, a, b, cdx, d = case
    c, w, _ch = _cyclic(n)
    s1 = Span("x", f"g{a}", f"g{b}")
    s2 = Span("x", f"g{cdx}", f"g{d}")
    cells = hom_fraction_cells(c, w, s1, s2)
    assert len(cells) == (1 if (b - a - d + cdx) % n == 0 else 0)


@given(cyclic_spans())
@settings(max_examples=120, deadline=None)
def test_cyclic_composition_adds_degrees(case):
    n, a, b, cdx, d = case
    c, w, ch = _cyclic(n)
    s = Span("x", f"g{a}", f"g{b}")
    t = Span("x", f"g{cdx}", f"g{d}")
    out = compose_fractions(ch, s, t)
    deg = lambda sp: (int(sp.f[1:]) - int(sp.w[1:])) % n
    assert deg(out) == (deg(s) + deg(t)) % n
    assert compose_fractions(ch, identity_span(c, "x"), s) == s


@given(st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_cyclic_every_span_is_an_equivalence(n):
    c, w, ch = _cyclic(n)
    for k in range(n):
        s = Span("x", "g0", f"g{k}")
        assert is_internal_equiv_closed_form(c, w, s)
        assert is_internal_equiv_search(ch, s) is not None
