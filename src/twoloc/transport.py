"""Strict 2-functors, induced maps between localizations, and X-condition checks.

A `StrictTwoFunctor` is three total tables preserving every operation on
the nose; its induced map on localizations sends a span through the
1-cell table and a 2-cell representative through all three tables.  That
map is well defined by a lemma, not by a search: if both tables are
validated 2-categories, F is a strict 2-functor and F₁(W_src) lies in the
target class, then F sends the refinement r·p of a representative along a
leg p to F(r)·F(p), and F(p) is an identity or a leg at F(d), since
F(d)∘F(p) = F(d∘p) lies in the target class (d is the source denominator
composed with r's first leg).  So F maps each refinement class into one
class; this is the "simple description" of the induced pseudofunctor in
arXiv:1410.5075.  F also sends a conjugate of r by invertible cells to the
conjugate of F(r) by their images, so the lemma carries over unchanged
once the classes join conjugates as well (Pronk 1996, §2.3).  So a class
is mapped by sending its canonical member's names through F's tables.
`induce` takes both localizations, source and target, each with its
class and fillers; F is validated once, by `StrictTwoFunctor.validation`.

`weak_equivalence_report` checks the four finite biequivalence conditions
(essential surjectivity on objects up to internal equivalence, local
essential surjectivity on 1-cells up to invertible 2-cell, and local
bijectivity on 2-cells) against two enumerable views, an `AmbientView` of
a 2-category or a `Localization` itself, into a `core.Report`.  The 1-cell
condition asks a view only whether an invertible 2-cell G(f) ⇒ g exists
(`invertible_between`); a localization reads that off its class store's
sweep, so only the 2-cell conditions partition homs, and only between
images of source spans.  Cells are keys: names in a 2-category, and in
a localization opaque names for classes.  `map_hom` sends the five
names of each key's canonical member (`Localization.names`) through F
and finds their classes with `Localization.keys`, which builds a
representative only for names no class holds, and raises what is wrong
with it; only a counterexample becomes a `FractionCell`.  The 2-cell conditions visit
only the pairs (f1, f2) whose source hom or image hom holds a 2-cell,
read off each view's `targets`; a localization keeps those from the same
sweep, so the walk costs the non-empty homs, not every pair of 1-cells,
and reads each of those homs and its image once.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, NamedTuple

from .core import (
    InternalInconsistency,
    Report,
    StructureError,
    TwoCat,
    internal_equivalences,
)
from .fractions import (
    CellRep,
    FractionCell,
    Localization,
    Span,
    build_choices,
    c3_entry,
    cell_from_rep,
    comparison_cell,
    compose_fractions,
)
from .saturation import _as_class, check_bf, saturate


class StrictTwoFunctor:
    """Tables (objects, 1-cells, 2-cells) preserving all structure strictly."""

    def __init__(self, source: TwoCat, target: TwoCat, f0: dict[str, str],
                 f1: dict[str, str], f2: dict[str, str]):
        self.source, self.target = source, target
        self.f0, self.f1, self.f2 = f0, f1, f2

    def map_class(self, w) -> frozenset[str]:
        return frozenset(self.f1[m] for m in _as_class(self.source, w))

    @cached_property
    def validation(self) -> Report:
        """`validate_functor` of these tables, decided once."""
        return validate_functor(self)


def identity_functor(c: TwoCat) -> StrictTwoFunctor:
    return StrictTwoFunctor(c, c, {o: o for o in c.objects},
                            {f: f for f in c.mors}, {a: a for a in c.cells})


def collapse_functor(c: TwoCat, point: TwoCat) -> StrictTwoFunctor:
    """The unique functor to a one-object 2-category with identity cells only."""
    if len(point.objects) != 1 or len(point.mors) != 1 or len(point.cells) != 1:
        raise StructureError("collapse target must be the terminal 2-category")
    (obj,) = point.objects
    return StrictTwoFunctor(
        c, point,
        {o: obj for o in c.objects},
        {f: point.id1[obj] for f in c.mors},
        {a: point.id2[point.id1[obj]] for a in c.cells},
    )


def validate_functor(fun: StrictTwoFunctor) -> Report:
    """Exhaustive strict-preservation check; gaps are structural failures.

    Each failing law keeps its first witness.
    """
    rep = Report()
    s, t = fun.source, fun.target
    if set(fun.f0) != set(s.objects):
        rep.structural.append("object table does not match the source objects")
    if set(fun.f1) != set(s.mors):
        rep.structural.append("1-cell table does not match the source 1-cells")
    if set(fun.f2) != set(s.cells):
        rep.structural.append("2-cell table does not match the source 2-cells")
    if not (set(fun.f0.values()) <= set(t.objects)
            and set(fun.f1.values()) <= set(t.mor_src)
            and set(fun.f2.values()) <= set(t.cell_src)):
        rep.structural.append("table values are not cells of the target")
    if rep.structural:
        return rep

    for f in s.mors:
        if t.mor_src[fun.f1[f]] != fun.f0[s.mor_src[f]] or \
           t.mor_dst[fun.f1[f]] != fun.f0[s.mor_dst[f]]:
            rep.fail("1-cell boundaries", f)
    for a in s.cells:
        if t.cell_src[fun.f2[a]] != fun.f1[s.cell_src[a]] or \
           t.cell_dst[fun.f2[a]] != fun.f1[s.cell_dst[a]]:
            rep.fail("2-cell boundaries", a)
    for o in s.objects:
        if fun.f1[s.id1[o]] != t.id1[fun.f0[o]]:
            rep.fail("identity 1-cells", o)
    for f in s.mors:
        if fun.f2[s.id2[f]] != t.id2[fun.f1[f]]:
            rep.fail("identity 2-cells", f)
    # images that do not compose in the target fail the law, like wrong ones
    for (g, f), gf in s.comp1.items():
        if t.comp1.get((fun.f1[g], fun.f1[f])) != fun.f1[gf]:
            rep.fail("compose1", (g, f))
    for (b, a), ba in s.vcomp_table.items():
        if t.vcomp_table.get((fun.f2[b], fun.f2[a])) != fun.f2[ba]:
            rep.fail("vcomp", (b, a))
    for (b, a), ba in s.hcomp_table.items():
        if t.hcomp_table.get((fun.f2[b], fun.f2[a])) != fun.f2[ba]:
            rep.fail("hcomp", (b, a))
    return rep


def preserves_into(fun: StrictTwoFunctor, w_src, target_class) -> bool:
    """Does the 1-cell image of w_src land inside target_class?"""
    return fun.map_class(w_src) <= _as_class(fun.target, target_class)


class SaturationCompat(NamedTuple):
    """Both image conditions of the saturation-compatibility equivalence."""

    image_in_target_sat: bool       # F1(W_src) ⊆ sat(W_dst)
    sat_image_in_target_sat: bool   # F1(sat(W_src)) ⊆ sat(W_dst)
    src_saturation: frozenset[str]
    dst_saturation: frozenset[str]

    @property
    def ok(self) -> bool:
        return self.image_in_target_sat


def saturation_compatibility(fun: StrictTwoFunctor, w_src, w_dst) -> SaturationCompat:
    """Check F1(W) ⊆ sat(W') together with its a-priori-stronger variant.

    The two inclusions are provably equivalent for BF-passing inputs, so a
    divergence is an internal inconsistency, not a verdict.
    """
    for c, w in ((fun.source, w_src), (fun.target, w_dst)):
        bf = check_bf(c, w)
        if not bf.ok:
            raise StructureError(f"class fails BF axioms: {bf.counterexamples}")
    src_sat = saturate(fun.source, w_src)
    dst_sat = saturate(fun.target, w_dst)
    clause_i = preserves_into(fun, w_src, dst_sat)
    clause_ii = preserves_into(fun, src_sat, dst_sat)
    if clause_i != clause_ii:
        raise InternalInconsistency(
            "saturation-compatibility clauses disagree: "
            f"image⊆sat={clause_i} but sat-image⊆sat={clause_ii}")
    return SaturationCompat(clause_i, clause_ii, src_sat, dst_sat)


# ---------------------------------------------------------------------------
# the induced map between localizations


class InducedPseudofunctor:
    """Image of a strict functor on localized 1- and 2-cells."""

    def __init__(self, functor: StrictTwoFunctor, source_loc: Localization,
                 target_loc: Localization):
        self.functor, self.source_loc, self.target_loc = functor, source_loc, target_loc

    def map_object(self, a: str) -> str:
        return self.functor.f0[a]

    def map_span(self, s: Span) -> Span:
        f = self.functor
        return Span(f.f0[s.apex], f.f1[s.w], f.f1[s.f])

    def map_rep(self, rep: CellRep) -> CellRep:
        f = self.functor
        return CellRep(self.map_span(rep.src_span), self.map_span(rep.dst_span), f.f0[rep.apex],
                       f.f1[rep.v1], f.f1[rep.v2], f.f2[rep.alpha], f.f2[rep.beta])

    def map_cell(self, cell: FractionCell) -> FractionCell:
        return cell_from_rep(self.target_loc, self.map_rep(cell.canonical))

    def map_hom(self, s1: Span, s2: Span, keys) -> tuple[list, list]:
        """The keys of the images of the classes keyed `keys`, as `map_cell` sends them; all keys.

        Each canonical member's names go through F's tables, and the target
        finds their classes in the image hom in one read.
        """
        f0, f1, f2 = self.functor.f0, self.functor.f1, self.functor.f2
        return self.target_loc.keys(self.map_span(s1), self.map_span(s2), [
            (f0[apex], f1[v1], f1[v2], f2[alpha], f2[beta])
            for apex, v1, v2, alpha, beta in map(self.source_loc.names, keys)])

    def compositor(self, s: Span, t: Span) -> FractionCell:
        """Invertible witness G(s;t) ⇒ G(s);G(t) for a composable pair."""
        tl = self.target_loc
        left = self.map_span(compose_fractions(self.source_loc, s, t))
        right = compose_fractions(tl, self.map_span(s), self.map_span(t))
        return comparison_cell(tl, left, right, "compositor")


def induce(fun: StrictTwoFunctor, source_loc: Localization,
           target_loc: Localization) -> InducedPseudofunctor:
    """Push a strict functor down from source_loc = C[W⁻¹] to target_loc = D[W′⁻¹].

    The cell map is constant on refinement classes by the lemma in the
    module docstring, so only its hypotheses are checked: F is a strict
    2-functor (the first failing law is named otherwise), each table lies
    on its side of F, the target's entry at each (f, f) with f ∈ W′ is
    C3's, and F₁(W) ⊆ W′.  The tables are assumed validated.  No
    localized hom is built here; classes are formed only when a cell is
    asked for.
    """
    if not fun.validation.ok:
        raise StructureError(f"not a strict 2-functor: {fun.validation.lines()[0]}")
    if source_loc.c is not fun.source:
        raise StructureError("choice table does not belong to the source 2-category")
    if target_loc.c is not fun.target:
        raise StructureError("choice table does not belong to the target 2-category")
    if any(target_loc.entries.get((f, f)) != c3_entry(target_loc.c, f)
           for f in target_loc.w):
        raise StructureError("target choice table must honour C3")
    escaped = fun.map_class(source_loc.w) - target_loc.w
    if escaped:
        raise StructureError(f"1-cell image escapes the target class: {sorted(escaped)}")
    return InducedPseudofunctor(fun, source_loc, target_loc)


def comparison_to_saturation(c: TwoCat, w) -> InducedPseudofunctor:
    """The canonical localization-comparison C[W⁻¹] → C[W_sat⁻¹]."""
    loc = build_choices(c, w)
    return induce(identity_functor(c), loc, build_choices(c, loc.saturation))


# ---------------------------------------------------------------------------
# X-condition (weak equivalence) checking over enumerable views


class AmbientView:
    """Enumerable-bicategory facade over a plain TwoCat."""

    def __init__(self, c: TwoCat):
        self.c, self.objects = c, c.objects

    def ones(self, a: str, b: str):
        return self.c.hom1(a, b)

    def twos(self, f, g):
        return self.c.hom2(f, g)

    def cell(self, f, g, key):
        return key

    def targets(self, f: str):
        return self.c.cells_from(f).keys()

    def invertible_between(self, f: str, g: str) -> bool:
        return any(map(self.c.is_invertible2, self.c.hom2(f, g)))

    @cached_property
    def _equivs(self) -> frozenset[str]:
        return internal_equivalences(self.c)

    def equivalent_objects(self, a: str, b: str) -> bool:
        return any(e in self._equivs for e in self.c.hom1(a, b))


def weak_equivalence_report(
    src_view, dst_view,
    map_object: Callable, map_one: Callable, map_twos: Callable,
) -> Report:
    """The four finite biequivalence conditions of G = (map_object, map_one, map_twos).

    A view offers `objects`, `ones(a, b)`, `twos(f, g)` (hashable cell
    keys), `cell(f, g, key)` (the 2-cell a key stands for), `targets(f)`
    (every g with a 2-cell f ⇒ g), `invertible_between(f, g)` and
    `equivalent_objects(a, b)`; `map_twos(f1, f2, keys)` lists the keys of
    the images and every key of the image hom, so that each hom is read
    once.  Each verdict keeps its first counterexample, in view, `ones`,
    `twos` and `combinations` order, and only it becomes a 2-cell.

    Each source 1-cell is mapped once per pair of objects.  The cell
    conditions visit a pair (f1, f2) only if f2 is a target of f1 or G(f2)
    a target of G(f1), in `ones` order.  That is exact: when both homs
    are empty, no two cells can share an image and no target cell can be
    missed, so neither condition fails there, and the first failing pair
    is the one the all-pairs walk would find.  The targets of G(f1) are
    read only while `cell_surjective` holds, since only it needs them.
    """
    rep = Report(("obj_surjective_up_to_equiv", "mor_surjective_up_to_iso",
                  "cell_injective", "cell_surjective"))
    for y in dst_view.objects:
        if not any(dst_view.equivalent_objects(map_object(x), y)
                   for x in src_view.objects):
            rep.fail("obj_surjective_up_to_equiv", (y,))
            break

    for a, b in itertools.product(src_view.objects, src_view.objects):
        src_ones = src_view.ones(a, b)
        mapped = [map_one(f) for f in src_ones]
        for g in dst_view.ones(map_object(a), map_object(b)):
            if rep.verdicts["mor_surjective_up_to_iso"] and not any(
                    dst_view.invertible_between(m, g) for m in mapped):
                rep.fail("mor_surjective_up_to_iso", (a, b, g))
        position = {f: i for i, f in enumerate(src_ones)}
        preimages: dict = {}
        for i, m in enumerate(mapped):
            preimages.setdefault(m, []).append(i)
        for f1, m1 in zip(src_ones, mapped):
            visit = {position[f2] for f2 in src_view.targets(f1) if f2 in position}
            if rep.verdicts["cell_surjective"]:
                for g in dst_view.targets(m1):
                    visit.update(preimages.get(g, ()))
            for i in sorted(visit):
                f2, m2 = src_ones[i], mapped[i]
                cells = src_view.twos(f1, f2)
                images, image_hom = map_twos(f1, f2, cells)
                image_set = set(images)
                if rep.verdicts["cell_injective"] and len(image_set) < len(images):
                    i1 = next(j for j, image in enumerate(images) if images.count(image) > 1)
                    i2 = images.index(images[i1], i1 + 1)
                    rep.fail("cell_injective", (f1, f2, src_view.cell(f1, f2, cells[i1]),
                                                src_view.cell(f1, f2, cells[i2])))
                if rep.verdicts["cell_surjective"]:
                    missed = next((t for t in image_hom if t not in image_set), None)
                    if missed is not None:
                        rep.fail("cell_surjective", (f1, f2, dst_view.cell(m1, m2, missed)))
    return rep


def x_conditions_for_functor(fun: StrictTwoFunctor) -> Report:
    return weak_equivalence_report(
        AmbientView(fun.source), AmbientView(fun.target),
        lambda o: fun.f0[o], lambda f: fun.f1[f],
        lambda f1, f2, cells: ([fun.f2[a] for a in cells],
                               fun.target.hom2(fun.f1[f1], fun.f1[f2])))


def x_conditions_for_induced(ind: InducedPseudofunctor) -> Report:
    return weak_equivalence_report(ind.source_loc, ind.target_loc,
                                   ind.map_object, ind.map_span, ind.map_hom)


# ---------------------------------------------------------------------------
# choice-table independence


class ChoiceComparison:
    def __init__(self):
        self.pairs_checked = 0
        self.unconnected: list[tuple[Span, Span]] = []

    @property
    def ok(self) -> bool:
        return not self.unconnected


def compare_choice_tables(ch1: Localization, ch2: Localization) -> ChoiceComparison:
    """Connect every pair of composites computed with two different tables.

    The composites present the same localized 1-cell, so an invertible
    comparison cell must exist; one is looked for on the sweep, building no
    class, and any pair without one is reported.  Both tables must be built
    for the same 2-category and class W.
    """
    if ch2.c is not ch1.c or ch2.w != ch1.w:
        raise StructureError("choice table was built for another 2-category or class W")
    out = ChoiceComparison()
    objs = sorted(ch1.c.objects)
    for a, b, d in itertools.product(objs, objs, objs):
        for s in ch1.spans(a, b):
            for t in ch1.spans(b, d):
                out.pairs_checked += 1
                left = compose_fractions(ch1, s, t)
                right = compose_fractions(ch2, s, t)
                if left != right and not ch1.invertible_between(left, right):
                    out.unconnected.append((s, t))
    return out
