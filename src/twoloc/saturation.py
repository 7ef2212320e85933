"""Checks for the fraction-calculus axioms (BF1-BF5) and right saturation.

A "class" of 1-cells is passed around as a plain set of identifiers together
with its ambient `TwoCat`; helpers normalise and sanity-check membership at
the boundary.  All searches run in a fixed lexicographic order, over sorted
objects and 1-cells, so that any reported filler or counterexample is
deterministic and does not depend on the order a document lists them in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import StructureError, TwoCat

AXIOMS = ("BF1", "BF2", "BF3", "BF4a", "BF4b", "BF4c", "BF5")


def _as_class(c: TwoCat, w) -> frozenset[str]:
    members = frozenset(w)
    unknown = members - set(c.mors)
    if unknown:
        raise StructureError(f"not 1-cells of this 2-category: {sorted(unknown)}")
    return members


@dataclass
class BFReport:
    """Per-axiom verdicts with one counterexample for each failure."""

    passed: dict[str, bool] = field(default_factory=dict)
    counterexamples: dict[str, tuple] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.passed.get(a, False) for a in AXIOMS)

    def fail(self, axiom: str, counterexample: tuple) -> None:
        """Mark axiom failed; its first counterexample is the one kept."""
        if self.passed.get(axiom, True):
            self.passed[axiom] = False
            self.counterexamples[axiom] = counterexample


def cospan_fillers(c: TwoCat, w: frozenset[str], f: str, v: str):
    """All (A'', v'', f'', rho) squaring the cospan (f: A→B, v: C→B), v ∈ W.

    rho: f∘v'' ⇒ v∘f'' is invertible and v'' ∈ W.  Lexicographic generator.
    """
    a, cc = c.mor_src[f], c.mor_src[v]
    for apex in sorted(c.objects):
        for v2 in c.hom1(apex, a):
            if v2 not in w:
                continue
            left = c.compose1(f, v2)
            for f2 in c.hom1(apex, cc):
                right = c.compose1(v, f2)
                for rho in c.invertible_cells(left, right):
                    yield apex, v2, f2, rho


def fill_cospan(c: TwoCat, w: frozenset[str], f: str, v: str) -> tuple[str, str, str, str]:
    """First filler of the cospan (f, v ∈ W); StructureError when none exists."""
    for filler in cospan_fillers(c, w, f, v):
        return filler
    raise StructureError(f"no filler for cospan ({f!r}, {v!r})")


def cell_lifts(c: TwoCat, w: frozenset[str], wm: str, f1: str, f2: str, alpha: str):
    """All (v ∈ W, beta: f1∘v ⇒ f2∘v) with alpha∗i_v = i_wm∗beta.

    Here alpha: wm∘f1 ⇒ wm∘f2 with wm ∈ W; the condition says beta becomes
    alpha after whiskering with wm (up to restriction along v).
    """
    a = c.mor_src[f1]
    for apex in sorted(c.objects):
        for v in c.hom1(apex, a):
            if v not in w:
                continue
            lhs = c.whisker_right(alpha, v)
            for beta in c.hom2(c.compose1(f1, v), c.compose1(f2, v)):
                if c.whisker_left(wm, beta) == lhs:
                    yield v, beta


def lift_cell(
    c: TwoCat, w: frozenset[str], wm: str, f1: str, f2: str, alpha: str,
    invertible: bool = False,
) -> tuple[str, str]:
    """First lift of alpha through wm; optionally insist on invertible beta."""
    for v, beta in cell_lifts(c, w, wm, f1, f2, alpha):
        if not invertible or c.is_invertible2(beta):
            return v, beta
    raise StructureError(f"no lift of {alpha!r} through {wm!r}")


def _zigs(c: TwoCat, w: frozenset[str], v: str, v2: str) -> tuple[tuple[str, str, str], ...]:
    """All (s, p, nu) that could merge lifts along v and v2, in search order.

    s: E→dom v and p: E→dom v' with v∘s ∈ W, and nu: v∘s ⇒ v'∘p
    invertible.  The candidates depend only on the two denominators.
    """
    out = []
    for apex in sorted(c.objects):
        for s in c.hom1(apex, c.mor_src[v]):
            vs = c.compose1(v, s)
            if vs not in w:
                continue
            for p in c.hom1(apex, c.mor_src[v2]):
                for nu in c.invertible_cells(vs, c.compose1(v2, p)):
                    out.append((s, p, nu))
    return tuple(out)


def _coequalized(
    c: TwoCat, f1: str, f2: str,
    lift1: tuple[str, str], lift2: tuple[str, str],
    zigs: tuple[tuple[str, str, str], ...],
) -> bool:
    """Can two lifts (v, beta), (v', beta') be merged by a further zig?

    Wanted: one of `zigs`, the `_zigs` of v and v', with
    (beta'∗i_p)⊙(i_{f1}∗nu) = (i_{f2}∗nu)⊙(beta∗i_s).
    Under BF5 the condition is symmetric in the two lifts: (p, s, nu⁻¹)
    merges them the other way, as v'∘p ≅ v∘s ∈ W puts v'∘p in W.  Without
    BF5 it need not be; `check_bf` asks it with the earlier lift first.
    """
    beta, beta2 = lift1[1], lift2[1]
    for s, p, nu in zigs:
        left = c.vcomp(c.whisker_right(beta2, p), c.whisker_left(f1, nu))
        right = c.vcomp(c.whisker_left(f2, nu), c.whisker_right(beta, s))
        if left == right:
            return True
    return False


def _lift_pairs(first, rest, first_only: bool):
    """The pairs of one alpha's lifts that BF4c compares, in `combinations` order.

    With `first_only` each later lift meets only the first, as it is found,
    so no lift is kept.
    """
    if first_only:
        return ((first, lift) for lift in rest)
    return itertools.combinations([first, *rest], 2)


def _check_bf4(c: TwoCat, w: frozenset[str], rep: BFReport, first_only: bool) -> None:
    """Decide BF4a-c over every alpha: wm∘f1 ⇒ wm∘f2 with wm ∈ W."""
    zigs: dict[tuple[str, str], tuple] = {}  # (v, v') -> _zigs(c, w, v, v')
    for wm in sorted(w):
        b = c.mor_src[wm]
        for a_obj in sorted(c.objects):
            legs = [(f, c.compose1(wm, f)) for f in c.hom1(a_obj, b)]
            for (f1, wm_f1), (f2, wm_f2) in itertools.product(legs, legs):
                for alpha in c.hom2(wm_f1, wm_f2):
                    lifts = cell_lifts(c, w, wm, f1, f2, alpha)
                    first = next(lifts, None)
                    if first is None:
                        rep.fail("BF4a", (wm, f1, f2, alpha))
                        continue
                    lifted_invertibly = c.is_invertible2(first[1])
                    for l1, l2 in _lift_pairs(first, lifts, first_only):
                        lifted_invertibly = lifted_invertibly or c.is_invertible2(l2[1])
                        if not rep.passed["BF4c"]:
                            continue
                        vv = (l1[0], l2[0])
                        if vv not in zigs:
                            zigs[vv] = _zigs(c, w, *vv)
                        if not _coequalized(c, f1, f2, l1, l2, zigs[vv]):
                            rep.fail("BF4c", (wm, alpha, l1, l2))
                    if c.is_invertible2(alpha) and not lifted_invertibly:
                        rep.fail("BF4b", (wm, f1, f2, alpha))


def check_bf(c: TwoCat, w) -> BFReport:
    """Exhaustively verify BF1-BF5 for the class w inside c, a table that passes `validate`.

    BF4c asks that a zig of `_zigs(v, v')` merges (`_coequalized`) any two
    lifts l = (v, β), l' = (v', β') of one α.  When BF2, BF3, BF4a, BF4b and
    BF5 hold, merging is symmetric (see `_coequalized`) and transitive, so
    all pairs merge iff every lift merges with the first, and the first
    failing pair in `combinations` order is (l₀, lⱼ) for the least such j.
    Transitivity: let (s, p, ν) merge l, l' and (s', p', ν') merge l', l''.
    BF3 fills the cospan (v'∘p, v'∘s' ∈ W) with q ∈ W, q' and an invertible
    ρ; BF4a/b lift ρ through v' ∈ W to z ∈ W and an invertible
    σ: p∘q∘z ⇒ s'∘q'∘z.  Then (s∘q∘z, p'∘q'∘z,
    (ν'∗i_{q'z})⊙(i_{v'}∗σ)⊙(ν∗i_{qz})) is a zig for (l, l''), with
    v∘s∘q∘z ∈ W by BF2; its equation follows from the two given ones,
    whiskered by q∘z and q'∘z, and from interchange of β' with σ.
    So BF2, BF3 and BF5 are decided first; BF4 compares each lift with the
    first only when they pass, and is decided again with all pairs if BF4a
    or BF4b then fails.
    """
    w = _as_class(c, w)
    rep = BFReport(dict.fromkeys(AXIOMS, True))

    bad = sorted(i for i in c.id1.values() if i not in w)
    if bad:
        rep.fail("BF1", (bad[0],))

    for g, f in itertools.product(sorted(w), sorted(w)):
        if c.mor_dst[f] == c.mor_src[g] and c.compose1(g, f) not in w:
            rep.fail("BF2", (g, f, c.compose1(g, f)))
            break

    for f, v in itertools.product(c.mors, sorted(w)):
        if c.mor_dst[v] == c.mor_dst[f] and next(cospan_fillers(c, w, f, v), None) is None:
            rep.fail("BF3", (f, v))
            break

    bf5 = next(((c.invertible_cells(v, wm)[0], v)
                for wm, v in itertools.product(sorted(w), c.mors)
                if v not in w and c.mor_src[v] == c.mor_src[wm]
                and c.mor_dst[v] == c.mor_dst[wm] and c.invertible_cells(v, wm)), None)

    first_only = rep.passed["BF2"] and rep.passed["BF3"] and bf5 is None
    _check_bf4(c, w, rep, first_only)
    if first_only and not (rep.passed["BF4a"] and rep.passed["BF4b"]):
        for axiom in ("BF4a", "BF4b", "BF4c"):
            rep.passed[axiom] = True
            rep.counterexamples.pop(axiom, None)
        _check_bf4(c, w, rep, first_only=False)
    if bf5 is not None:
        rep.fail("BF5", bf5)
    return rep


def quasi_units(c: TwoCat) -> frozenset[str]:
    """Endo-1-cells u: A→A isomorphic to id_A via an invertible 2-cell."""
    return frozenset(u for u in c.mors if c.mor_dst[u] == c.mor_src[u]
                     and c.invertible_cells(u, c.id1[c.mor_src[u]]))


def saturation_witnesses(c: TwoCat, w) -> dict[str, str]:
    """W_sat with a witness per member: f ↦ the least g with f∘g ∈ W and g∘h ∈ W for some h.

    Two passes over `c.comp1`: the entries composing into W give the
    middle factors g that have some h, then the f before such a g, each
    keeping the least g in sorted order.  The answer is defined on tables
    that pass `validate`: a missing or stray composite is not looked for.
    """
    w = _as_class(c, w)
    middles = {g for (g, _h), gh in c.comp1.items() if gh in w}
    least: dict[str, str] = {}
    for (f, g), fg in c.comp1.items():
        if fg in w and g in middles and (f not in least or g < least[f]):
            least[f] = g
    return least


def saturate(c: TwoCat, w) -> frozenset[str]:
    """{ f : ∃g with f∘g ∈ W, ∃h with g∘h ∈ W }, read off the composition table."""
    return frozenset(saturation_witnesses(c, w))


def is_right_saturated(c: TwoCat, w) -> bool:
    return saturate(c, w) == frozenset(w)
