"""Checks for the fraction-calculus axioms (BF1-BF5) and right saturation.

A "class" of 1-cells is passed around as a plain set of identifiers together
with its ambient `TwoCat`; helpers normalise and sanity-check membership at
the boundary.  All searches run in a fixed lexicographic order, over sorted
objects and 1-cells, so that any reported filler or counterexample is
deterministic and does not depend on the order a document lists them in.
`check_bf` returns a `core.Report` with one verdict per axiom.  When W
holds the identities and every member of W is an internal equivalence (the
Morita maps of a groupoid catalog, a group's elements), BF4a-c hold by a
lemma, proved in `check_bf`'s docstring, and no lift is listed.
"""

from __future__ import annotations

import itertools

from .core import Report, StructureError, TwoCat, _index, find_quasi_inverse

AXIOMS = ("BF1", "BF2", "BF3", "BF4a", "BF4b", "BF4c", "BF5")


def _as_class(c: TwoCat, w) -> frozenset[str]:
    members = frozenset(w)
    unknown = members - set(c.mors)
    if unknown:
        raise StructureError(f"not 1-cells of this 2-category: {sorted(unknown)}")
    return members


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


def _bf3_failure(c: TwoCat, w: frozenset[str]) -> tuple[str, str] | None:
    """The first cospan (f, v ∈ W), f-major and then sorted v, with no filler; None if none.

    `cospan_fillers` has one iff some v2 ∈ W into src f and some v∘f2 with
    f2: src v2 → src v have an invertible 2-cell f∘v2 ⇒ v∘f2.  So the
    composites f∘v2 are listed once per f, and those v∘f2 once per v, by
    apex, and each v2 tests its apex's set against `invertible_from(f∘v2)`.
    """
    w_into = _index(sorted(w), c.mor_dst.get)  # object -> the members of W into it
    after: dict[str, dict[str, frozenset[str]]] = {}  # v -> apex -> the v∘f2
    for f in c.mors:
        vs = w_into.get(c.mor_dst[f], ())
        legs = [(c.mor_src[v2], c.invertible_from(c.compose1(f, v2)))
                for v2 in w_into.get(c.mor_src[f], ())] if vs else ()
        for v in vs:
            if v not in after:
                after[v] = {apex: frozenset(c.compose1(v, f2) for f2 in c.hom1(apex, c.mor_src[v]))
                            for apex in c.objects}
            if all(to.keys().isdisjoint(after[v][apex]) for apex, to in legs):
                return f, v
    return None


def _lift_candidates(c: TwoCat, w: frozenset[str], f1: str, f2: str) -> tuple:
    """(v, the 2-cells f1∘v ⇒ f2∘v) for each v ∈ W into src f1 with some such cell.

    In sorted apex, then `hom1` order.  A v with no cell lifts nothing, so
    no alpha is whiskered by it.
    """
    a = c.mor_src[f1]
    pairs = ((v, c.hom2(c.compose1(f1, v), c.compose1(f2, v)))
             for apex in sorted(c.objects) for v in c.hom1(apex, a) if v in w)
    return tuple((v, betas) for v, betas in pairs if betas)


def _whiskered_lifts(c: TwoCat, wm: str, alpha: str, candidates: tuple):
    """The candidates (v, beta) with alpha∗i_v = i_wm∗beta, in order."""
    for v, betas in candidates:
        lhs = c.whisker_right(alpha, v)
        for beta in betas:
            if c.whisker_left(wm, beta) == lhs:
                yield v, beta


def cell_lifts(c: TwoCat, w: frozenset[str], wm: str, f1: str, f2: str, alpha: str):
    """All (v ∈ W, beta: f1∘v ⇒ f2∘v) with alpha∗i_v = i_wm∗beta.

    Here alpha: wm∘f1 ⇒ wm∘f2 with wm ∈ W; the condition says beta becomes
    alpha after whiskering with wm (up to restriction along v).
    """
    yield from _whiskered_lifts(c, wm, alpha, _lift_candidates(c, w, f1, f2))


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


def _check_bf4(c: TwoCat, w: frozenset[str], rep: Report, first_only: bool) -> None:
    """Decide BF4a-c over every alpha: wm∘f1 ⇒ wm∘f2 with wm ∈ W.

    The lift candidates, like the merge memo, read f1 and f2 only.
    """
    candidates: dict[tuple[str, str], tuple] = {}  # (f1, f2) -> _lift_candidates
    zigs: dict[tuple[str, str], tuple] = {}  # (v, v') -> _zigs(c, w, v, v')
    merged: dict[tuple, bool] = {}  # (f1, f2, l, l') -> _coequalized's answer
    for wm in sorted(w):
        b = c.mor_src[wm]
        for a_obj in sorted(c.objects):
            legs = [(f, c.compose1(wm, f)) for f in c.hom1(a_obj, b)]
            for f1, wm_f1 in legs:
                alphas_to = c.cells_from(wm_f1)
                for f2, wm_f2 in legs:
                    for alpha in alphas_to.get(wm_f2, ()):
                        if (f1, f2) not in candidates:
                            candidates[(f1, f2)] = _lift_candidates(c, w, f1, f2)
                        lifts = list(_whiskered_lifts(c, wm, alpha, candidates[(f1, f2)]))
                        if not lifts:
                            rep.fail("BF4a", (wm, f1, f2, alpha))
                            continue
                        pairs = (((lifts[0], lift) for lift in lifts[1:]) if first_only
                                 else itertools.combinations(lifts, 2))
                        for l1, l2 in pairs if rep.verdicts["BF4c"] else ():
                            key = (f1, f2, l1, l2)
                            if key not in merged:
                                vv = (l1[0], l2[0])
                                if vv not in zigs:
                                    zigs[vv] = _zigs(c, w, *vv)
                                merged[key] = _coequalized(c, f1, f2, l1, l2, zigs[vv])
                            if not merged[key]:
                                rep.fail("BF4c", (wm, alpha, l1, l2))
                                break
                        if c.is_invertible2(alpha) and not any(c.is_invertible2(beta)
                                                               for _v, beta in lifts):
                            rep.fail("BF4b", (wm, f1, f2, alpha))


def check_bf(c: TwoCat, w) -> Report:
    """Exhaustively verify BF1-BF5 for the class w inside c, a table that passes `validate`.

    BF4 by the equivalence lemma (Pronk 1996, §2): when BF1 holds and every
    v ∈ W has a quasi-inverse (`find_quasi_inverse`, tried in sorted order
    up to the first miss), BF4a, BF4b and BF4c hold and no lift is listed.
    Proof.  For an equivalence e: B → B′, e∘− is an equivalence of the
    hom-categories C(A, B) → C(A, B′), so it is fully faithful: i_e∗− is a
    bijection hom2(f1, f2) → hom2(e∘f1, e∘f2).  BF4a: α: wm∘f1 ⇒ wm∘f2 has
    a preimage β, and (id_A, β) lifts it, as α∗i_id = α = i_wm∗β, with
    id_A ∈ W by BF1.  BF4b: a fully faithful functor reflects isomorphisms,
    so β is invertible when α is.  BF4c: let (v, β) and (v′, β′) lift α,
    and (v̄′, δ′, ξ′) be a quasi-inverse of v′.  The zig (id, v̄′∘v,
    ν = ξ′⁻¹∗i_v) is one of `_zigs(v, v′)`, as v∘id = v ∈ W and ν is
    invertible.  Whiskered by wm, the two sides of its equation become
    (α∗i_{v′v̄′v})⊙(i_{wm∘f1}∗ν) and (i_{wm∘f2}∗ν)⊙(α∗i_v), since
    i_wm∗β′ = α∗i_v′ and i_wm∗β = α∗i_v; both are α∗ν by interchange.  As
    i_wm∗− is injective, the equation holds.  This holds for either order
    of the two lifts, so it needs no BF5.  Otherwise BF4 is searched.

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
    or BF4b then fails.  Each pair is asked once per (f1, f2, l, l'), and
    its answer serves every α with those lifts: `_zigs(v, v')` and the
    merge equation read f1, f2, l and l' only, never wm or α.  The lift
    candidates (`_lift_candidates`), like the merge memo, read f1 and f2
    only, so they are listed once per (f1, f2) and each α whiskers them.
    """
    w = _as_class(c, w)
    rep = Report(AXIOMS)

    bad = sorted(i for i in c.id1.values() if i not in w)
    if bad:
        rep.fail("BF1", (bad[0],))

    for g, f in itertools.product(sorted(w), sorted(w)):
        if c.mor_dst[f] == c.mor_src[g] and c.compose1(g, f) not in w:
            rep.fail("BF2", (g, f, c.compose1(g, f)))
            break

    bf3 = _bf3_failure(c, w)
    if bf3 is not None:
        rep.fail("BF3", bf3)

    bf5 = next(((c.invertible_cells(v, wm)[0], v)
                for wm, v in itertools.product(sorted(w), c.mors)
                if v not in w and c.mor_src[v] == c.mor_src[wm]
                and c.mor_dst[v] == c.mor_dst[wm] and c.invertible_cells(v, wm)), None)

    by_lemma = rep.verdicts["BF1"] and all(find_quasi_inverse(c, v) is not None
                                           for v in sorted(w))
    if not by_lemma:
        first_only = rep.verdicts["BF2"] and rep.verdicts["BF3"] and bf5 is None
        _check_bf4(c, w, rep, first_only)
        if first_only and not (rep.verdicts["BF4a"] and rep.verdicts["BF4b"]):
            for axiom in ("BF4a", "BF4b", "BF4c"):
                rep.verdicts[axiom] = True
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
