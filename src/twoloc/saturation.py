"""Checks for the fraction-calculus axioms (BF1-BF5) and right saturation.

A "class" of 1-cells is passed around as a plain set of identifiers together
with its ambient `TwoCat`; helpers normalise and sanity-check membership at
the boundary.  All searches run in a fixed lexicographic order so that any
reported filler or counterexample is deterministic.
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

    def lines(self) -> list[str]:
        return [f"{a}: pass" if self.passed.get(a, False)
                else f"{a}: FAIL {self.counterexamples.get(a)}" for a in AXIOMS]


def cospan_fillers(c: TwoCat, w: frozenset[str], f: str, v: str):
    """All (A'', v'', f'', rho) squaring the cospan (f: A→B, v: C→B), v ∈ W.

    rho: f∘v'' ⇒ v∘f'' is invertible and v'' ∈ W.  Lexicographic generator.
    """
    a, cc = c.mor_src[f], c.mor_src[v]
    for apex in c.objects:
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
    for apex in c.objects:
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
    for apex in c.objects:
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
    The condition is symmetric in the two lifts (replace nu by its inverse),
    so callers may check unordered pairs.
    """
    beta, beta2 = lift1[1], lift2[1]
    for s, p, nu in zigs:
        left = c.vcomp(c.whisker_right(beta2, p), c.whisker_left(f1, nu))
        right = c.vcomp(c.whisker_left(f2, nu), c.whisker_right(beta, s))
        if left == right:
            return True
    return False


def check_bf(c: TwoCat, w) -> BFReport:
    """Exhaustively verify BF1-BF5 for the class w inside c."""
    w = _as_class(c, w)
    rep = BFReport()

    bad = sorted(i for i in c.id1.values() if i not in w)
    rep.passed["BF1"] = not bad
    if bad:
        rep.counterexamples["BF1"] = (bad[0],)

    rep.passed["BF2"] = True
    for g, f in itertools.product(sorted(w), sorted(w)):
        if c.mor_dst[f] == c.mor_src[g] and c.compose1(g, f) not in w:
            rep.passed["BF2"] = False
            rep.counterexamples["BF2"] = (g, f, c.compose1(g, f))
            break

    rep.passed["BF3"] = True
    for f in c.mors:
        for v in sorted(w):
            if c.mor_dst[v] != c.mor_dst[f]:
                continue
            if next(cospan_fillers(c, w, f, v), None) is None:
                rep.passed["BF3"] = False
                rep.counterexamples["BF3"] = (f, v)
                break
        if not rep.passed["BF3"]:
            break

    rep.passed["BF4a"] = rep.passed["BF4b"] = rep.passed["BF4c"] = True
    zigs: dict[tuple[str, str], tuple] = {}  # (v, v') -> _zigs(c, w, v, v')
    for wm in sorted(w):
        b = c.mor_src[wm]
        for a_obj in c.objects:
            for f1, f2 in itertools.product(c.hom1(a_obj, b), c.hom1(a_obj, b)):
                for alpha in c.hom2(c.compose1(wm, f1), c.compose1(wm, f2)):
                    lifts = list(cell_lifts(c, w, wm, f1, f2, alpha))
                    if not lifts:
                        if rep.passed["BF4a"]:
                            rep.passed["BF4a"] = False
                            rep.counterexamples["BF4a"] = (wm, f1, f2, alpha)
                        continue
                    if c.is_invertible2(alpha) and not any(
                        c.is_invertible2(beta) for _, beta in lifts
                    ):
                        if rep.passed["BF4b"]:
                            rep.passed["BF4b"] = False
                            rep.counterexamples["BF4b"] = (wm, f1, f2, alpha)
                    for l1, l2 in itertools.combinations(lifts, 2):
                        vv = (l1[0], l2[0])
                        if vv not in zigs:
                            zigs[vv] = _zigs(c, w, *vv)
                        if not _coequalized(c, f1, f2, l1, l2, zigs[vv]):
                            if rep.passed["BF4c"]:
                                rep.passed["BF4c"] = False
                                rep.counterexamples["BF4c"] = (wm, alpha, l1, l2)
                            break

    rep.passed["BF5"] = True
    for wm in sorted(w):
        for v in c.mors:
            if v in w or c.mor_src[v] != c.mor_src[wm] or c.mor_dst[v] != c.mor_dst[wm]:
                continue
            alphas = c.invertible_cells(v, wm)
            if alphas:
                rep.passed["BF5"] = False
                rep.counterexamples["BF5"] = (alphas[0], v)
                break
        if not rep.passed["BF5"]:
            break

    return rep


def quasi_units(c: TwoCat) -> frozenset[str]:
    """Endo-1-cells u: A→A isomorphic to id_A via an invertible 2-cell."""
    return frozenset(u for u in c.mors if c.mor_dst[u] == c.mor_src[u]
                     and c.invertible_cells(u, c.id1[c.mor_src[u]]))


def saturate(c: TwoCat, w) -> frozenset[str]:
    """{ f : ∃g with f∘g ∈ W, ∃h with g∘h ∈ W }, read off the composition table.

    Two passes over `c.comp1`: the entries composing into W give the
    middle factors g that have some h, then the f before such a g.  The
    answer is defined on tables that pass `validate`: a missing or stray
    composite is not looked for.
    """
    w = _as_class(c, w)
    middles = {g for (g, _h), gh in c.comp1.items() if gh in w}
    return frozenset(f for (f, g), fg in c.comp1.items() if fg in w and g in middles)


def is_right_saturated(c: TwoCat, w) -> bool:
    return saturate(c, w) == frozenset(w)
