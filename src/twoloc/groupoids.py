"""Finite groupoids, Morita equivalence, and the bridge to the 2-category engine.

A finite groupoid is tabulated like a one-sorted category with an inverse
table.  Functors and natural transformations between catalog groupoids are
enumerated exhaustively, which realizes a (small) strict 2-category of
groupoids on which the localization machinery can run; the distinguished
class is the Morita equivalences, i.e. functors that are essentially
surjective and fully faithful in the finite sense:

* essential surjectivity: every target object receives an arrow from the
  image of the object map;
* full faithfulness: the comparison map  Y₁ → (Y₀×Y₀) ×_{X₀×X₀} X₁,
  y₁ ↦ (s y₁, t y₁, φ₁ y₁), is a bijection.

Essential surjectivity is decided from `FiniteGroupoid.reach`, the objects
each object has an arrow to: the union of the reach sets over the image
must hold every target object.  Full faithfulness is decided one pair
(o1, o2) of source objects at a time: φ₁ must be injective on Y(o1, o2)
with image exactly X(φ o1, φ o2).

A Morita verdict belongs to the functor: `GroupoidFunctor.morita` is
decided once per functor, and `GroupoidFunctor.morita_after(g)` keeps
g∘f's verdict once per composable pair (f, g) and decides it once per
distinct composite, keyed on f's source groupoid by the composite's
target and image tuples.  So `morita_two_out_of_six` over every chain of
Unit, Pair2, Disc3 decides 50 composites, not the 1,318 composable pairs.
Groupoid and functor tables must therefore not be mutated after the
first decision on them (`FiniteGroupoid.reach` already assumes this).
The verdict of a chain is frozen, and every vacuous chain (~99% of the
chains of a catalog) shares one vacuous verdict, so it allocates nothing.

In the catalog 2-category a functor y → x is keyed by (y, x, arrow
images in `y.arrows` order): units go to units, so the arrow images fix
the object map.  A composite is found by mapping the inner functor's
arrow images through the outer one; a transformation is keyed by its
functors and its components in sorted-object order.  Composable pairs
come from an index of functors by target, and transformations are sought
only between functors that send each object into one connected component.
A composite or whiskering of transformations is natural between its two
functors, so where exactly one transformation joins those (every pair of
a catalog without isotropy) it is that one, read without building its
components; they are built and hashed only where several join them (Z/2
or Z/3 in the catalog).

Only the whiskerings i_h∗− and −∗i_h are built (`TwoCat.from_whiskerings`),
not the hcomp table, whose size grows with the square of the number of
transformations.  Enumeration cost is still exponential in groupoid size.
Catalogs of up to ~6 groupoids with ≤4 objects each, and no Pair_n past
n = 3, stay in reach: Unit, Pair2, Disc2, Pair3 builds, validates and
passes `check_bf` in ~0.2 s, and adding Disc3 and Disc4 (712 functors,
9,124 transformations) in ~6 s at ~200 MB, of which the build is ~1.6 s
and `validate` most of the rest.  `check_bf` takes ~0.01 s and ~0.1 s of
these: every Morita map is an internal equivalence, so BF4 holds by the
lemma in its docstring and no lift is listed.  Pair4 in place of Disc4
brings 82,940 transformations.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .core import Report, StructureError, TwoCat, _index


class FiniteGroupoid:
    def __init__(self, name: str, objects: tuple[str, ...], arr_src: dict[str, str],
                 arr_dst: dict[str, str], comp: dict[tuple[str, str], str],
                 inv: dict[str, str], unit: dict[str, str]):
        self.name, self.objects = name, objects
        self.arr_src, self.arr_dst = arr_src, arr_dst
        self.comp = comp  # comp[(g, f)] = g∘f, f applied first
        self.inv, self.unit = inv, unit
        # (target, object images, arrow images) of a functor out of this
        # groupoid -> is it Morita?  See `GroupoidFunctor.morita_after`.
        self.morita_out: dict[tuple, bool] = {}

    @cached_property
    def arrows(self) -> tuple[str, ...]:
        return tuple(sorted(self.arr_src))

    @cached_property
    def _hom(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return _index(self.arrows, lambda a: (self.arr_src[a], self.arr_dst[a]))

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    @cached_property
    def reach(self) -> dict[str, frozenset[str]]:
        """object -> the objects it has an arrow to (objects with no arrow out are absent)."""
        return {o: frozenset(map(self.arr_dst.get, arrows))
                for o, arrows in _index(self.arrows, self.arr_src.get).items()}

    def compose(self, g: str, f: str) -> str:
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise StructureError(f"arrows not composable: ({g!r}, {f!r})") from None


def validate_groupoid(g: FiniteGroupoid) -> Report:
    rep = Report()
    objs = set(g.objects)
    if len(objs) != len(g.objects) or not objs:
        rep.structural.append("objects not a nonempty set of distinct names")
    for a, (src, dst) in ((a, (g.arr_src.get(a), g.arr_dst.get(a)))
                          for a in g.arr_src):
        if src not in objs or dst not in objs:
            rep.structural.append(f"arrow {a!r} has dangling endpoints")
    if set(g.arr_dst) != set(g.arr_src):
        rep.structural.append("arr_src and arr_dst index different arrow sets")
    if set(g.unit) != objs or any(u not in g.arr_src for u in g.unit.values()):
        rep.structural.append("unit table not total over objects")
    if set(g.inv) != set(g.arr_src) or any(v not in g.arr_src for v in g.inv.values()):
        rep.structural.append("inverse table not total over arrows")
    if rep.structural:  # the composition checks read both endpoints of every arrow
        return rep
    arrows = set(g.arr_src)
    pairs = {(b, a) for b in arrows for a in arrows
             if g.arr_dst[a] == g.arr_src[b]}
    if set(g.comp) != pairs:
        rep.structural.append("composition table domain mismatch")
    for (b, a), ba in sorted(g.comp.items()):
        if ba not in arrows:
            rep.structural.append(f"compose[{(b, a)}] = {ba!r} is not a declared arrow")
    if rep.structural:
        return rep

    for x, u in g.unit.items():
        if g.arr_src[u] != x or g.arr_dst[u] != x:
            rep.fail("unit endpoints", x)
    for (b, a), ba in g.comp.items():
        if g.arr_src[ba] != g.arr_src[a] or g.arr_dst[ba] != g.arr_dst[b]:
            rep.fail("composite endpoints", (b, a))
    for a in g.arrows:  # a unit with wrong endpoints may have no composite
        if g.comp.get((a, g.unit[g.arr_src[a]])) != a or \
           g.comp.get((g.unit[g.arr_dst[a]], a)) != a:
            rep.fail("unit law", a)
        ia = g.inv[a]
        if g.arr_src[ia] != g.arr_dst[a] or g.arr_dst[ia] != g.arr_src[a]:
            rep.fail("inverse endpoints", a)
        elif g.comp[(ia, a)] != g.unit[g.arr_src[a]] or \
                g.comp[(a, ia)] != g.unit[g.arr_dst[a]]:
            rep.fail("inverse law", a)
    into = _index(g.arrows, g.arr_dst.get)  # object -> arrows into it, sorted
    for c_ in g.arrows:
        for b in into.get(g.arr_src[c_], ()):
            cb = g.comp[(c_, b)]
            for a in into.get(g.arr_src[b], ()):
                if g.comp.get((c_, g.comp[(b, a)])) != g.comp.get((cb, a)):
                    rep.fail("associativity", (c_, b, a))
    return rep


class GroupoidFunctor:
    """A functor given by its object and arrow tables; equal only to itself.

    The Morita verdicts below are decided on first use and kept on the
    functor, so its tables (and those of its source and target) must not
    be mutated after that.
    """

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 obj_map: dict[str, str], arr_map: dict[str, str]):
        self.source, self.target = source, target
        self.obj_map, self.arr_map = obj_map, arr_map
        # g -> is g∘self Morita?  Keyed by identity; holds verdicts, not composites.
        self.composites_decided: dict[GroupoidFunctor, bool] = {}

    @cached_property
    def morita(self) -> bool:
        return is_morita(self)

    def morita_after(self, g: GroupoidFunctor) -> bool:
        """Is g∘self Morita?  Kept per g, and decided once per distinct composite.

        The verdict reads the composite's tables only, so it is kept on the
        source groupoid by the composite's target and image tuples.  The
        object images stay in that key: a hand-built functor need not
        preserve units, so its arrow images need not fix its object map.
        """
        try:
            return self.composites_decided[g]
        except KeyError:
            if self.target is not g.source:
                raise StructureError("functors not composable") from None
            y = self.source
            objs = map(g.obj_map.__getitem__, map(self.obj_map.__getitem__, y.objects))
            arrs = map(g.arr_map.__getitem__, map(self.arr_map.__getitem__, y.arrows))
            key = (g.target, tuple(objs), tuple(arrs))
            verdict = y.morita_out.get(key)
            if verdict is None:
                verdict = y.morita_out[key] = is_morita(compose_gfunctors(g, self))
            self.composites_decided[g] = verdict
            return verdict

    def signature(self) -> tuple:
        return (self.source.name, self.target.name,
                tuple(sorted(self.obj_map.items())),
                tuple(sorted(self.arr_map.items())))


def functor_problems(fun: GroupoidFunctor) -> list[str]:
    out = []
    y, x = fun.source, fun.target
    if set(fun.obj_map) != set(y.objects) or set(fun.arr_map) != set(y.arrows):
        return ["tables are not total over the source"]
    for a in y.arrows:
        fa = fun.arr_map[a]
        if fa not in x.arr_src:
            out.append(f"image {fa!r} is not a target arrow")
        elif (x.arr_src[fa] != fun.obj_map[y.arr_src[a]]
              or x.arr_dst[fa] != fun.obj_map[y.arr_dst[a]]):
            out.append(f"arrow {a!r} image has wrong endpoints")
    if out:
        return out
    for o in y.objects:
        if fun.arr_map[y.unit[o]] != x.unit[fun.obj_map[o]]:
            out.append(f"unit at {o!r} not preserved")
    for (b, a), ba in y.comp.items():
        if x.comp[(fun.arr_map[b], fun.arr_map[a])] != fun.arr_map[ba]:
            out.append(f"composite ({b!r}, {a!r}) not preserved")
    return out


def identity_gfunctor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(g, g, {o: o for o in g.objects},
                           {a: a for a in g.arrows})


def compose_gfunctors(g: GroupoidFunctor, f: GroupoidFunctor) -> GroupoidFunctor:
    """g∘f (f applied first)."""
    if f.target is not g.source:
        raise StructureError("functors not composable")
    return GroupoidFunctor(
        f.source, g.target,
        {o: g.obj_map[f.obj_map[o]] for o in f.source.objects},
        {a: g.arr_map[f.arr_map[a]] for a in f.source.arrows},
    )


def enumerate_gfunctors(y: FiniteGroupoid, x: FiniteGroupoid) -> list[GroupoidFunctor]:
    """All functors y → x, sorted by their table signature."""
    units = {y.unit[o] for o in y.objects}
    out = []
    for images in itertools.product(x.objects, repeat=len(y.objects)):
        obj_map = dict(zip(y.objects, images))
        slots: list[tuple[str, ...]] = []
        for a in y.arrows:
            if a in units:
                slots.append((x.unit[obj_map[y.arr_src[a]]],))
            else:
                slots.append(x.hom(obj_map[y.arr_src[a]], obj_map[y.arr_dst[a]]))
        if not all(slots):
            continue
        for choice in itertools.product(*slots):
            arr_map = dict(zip(y.arrows, choice))
            if all(x.comp[(arr_map[b], arr_map[a])] == arr_map[ba]
                   for (b, a), ba in y.comp.items()):
                out.append(GroupoidFunctor(y, x, obj_map, arr_map))
    return sorted(out, key=GroupoidFunctor.signature)


def natural_transformations(f: GroupoidFunctor, g: GroupoidFunctor) -> list[dict[str, str]]:
    """All natural families f ⇒ g, each a dict object → target arrow."""
    y, x = f.source, f.target
    slots = [x.hom(f.obj_map[o], g.obj_map[o]) for o in y.objects]
    out = []
    for choice in itertools.product(*slots):
        eta = dict(zip(y.objects, choice))
        if all(x.comp[(eta[y.arr_dst[a]], f.arr_map[a])]
               == x.comp[(g.arr_map[a], eta[y.arr_src[a]])]
               for a in y.arrows):
            out.append(eta)
    return sorted(out, key=lambda e: tuple(sorted(e.items())))


# ---------------------------------------------------------------------------
# Morita equivalence


def is_essentially_surjective(fun: GroupoidFunctor) -> bool:
    """Every target object receives an arrow from the image of the object map."""
    x = fun.target
    reached: set[str] = set()
    for o in fun.source.objects:
        reached |= x.reach.get(fun.obj_map[o], frozenset())
    return reached.issuperset(x.objects)


def is_fully_faithful(fun: GroupoidFunctor) -> bool:
    """Is y₁ ↦ (s y₁, t y₁, φ y₁) a bijection onto the comparison fiber set?

    Decided one pair of source objects at a time: φ is injective on
    y.hom(o1, o2) with image x.hom(φ o1, φ o2), and no arrow of y has an
    endpoint outside y.objects.
    """
    y, x, obj_map, arr_map = fun.source, fun.target, fun.obj_map, fun.arr_map
    objects = dict.fromkeys(y.objects)
    covered = 0
    for o1 in objects:
        x1 = obj_map[o1]
        for o2 in objects:
            arrows = y.hom(o1, o2)
            images = {arr_map[a] for a in arrows}
            if len(images) != len(arrows) or images != set(x.hom(x1, obj_map[o2])):
                return False
            covered += len(arrows)
    return covered == len(y.arrows)


def is_morita(fun: GroupoidFunctor) -> bool:
    """Essentially surjective and fully faithful."""
    return is_essentially_surjective(fun) and is_fully_faithful(fun)


class MoritaCancellation(NamedTuple):
    """Outcome of the two-out-of-six style cancellation for Morita maps.

    Every vacuous chain gets the one shared `_VACUOUS` instance, whose
    `verdicts` is a read-only empty mapping.  `ok` is set with the
    verdicts: vacuous, or every factor Morita.
    """

    vacuous: bool
    verdicts: Mapping[str, bool]
    ok: bool


_VACUOUS = MoritaCancellation(True, MappingProxyType({}), True)


def morita_two_out_of_six(xi: GroupoidFunctor, psi: GroupoidFunctor,
                          phi: GroupoidFunctor) -> MoritaCancellation:
    """From phi∘psi and psi∘xi Morita, conclude all three factors are.

    The chain is xi: U→Z, psi: Z→Y, phi: Y→X; when either composite fails
    to be Morita the check is vacuous, and the shared `_VACUOUS` verdict
    is returned.  Every verdict is read from the functors' memos, so a
    sweep over chains decides each composable pair and each functor once.
    """
    if xi.target is not psi.source or psi.target is not phi.source:
        raise StructureError("functors do not form a composable chain")
    if not (psi.morita_after(phi) and xi.morita_after(psi)):
        return _VACUOUS
    verdicts = {"phi": phi.morita, "psi": psi.morita, "xi": xi.morita}
    return MoritaCancellation(False, verdicts, all(verdicts.values()))


# ---------------------------------------------------------------------------
# the catalog 2-category


def groupoid_twocat(catalog: list[FiniteGroupoid]) -> tuple[TwoCat, frozenset[str]]:
    """All functors and natural transformations between catalog groupoids.

    Returns the strict 2-category (objects = groupoid names, 1-cells =
    functors, 2-cells = natural transformations) and the class of 1-cells
    that are Morita equivalences.  Functors and transformations are
    keyed as the module docstring says.  Composable and parallel pairs
    are listed from indexes, in the order of a scan over all pairs.
    """
    by_name = {}
    for g in catalog:
        if g.name in by_name:
            raise StructureError(f"duplicate groupoid name {g.name!r}")
        by_name[g.name] = g
    names = sorted(by_name)

    ordered = {n: tuple(sorted(g.objects)) for n, g in by_name.items()}
    image = lambda table, keys: tuple(map(table.__getitem__, keys))
    funs: dict[str, GroupoidFunctor] = {}
    arrows: dict[str, tuple] = {}  # fid -> arrow images, in source `arrows` order
    by_key: dict[tuple, str] = {}  # (source, target, arrow images) -> fid
    for a, b in itertools.product(names, names):
        y = by_name[a]
        for k, fun in enumerate(enumerate_gfunctors(y, by_name[b])):
            fid = f"{a}>{b}#{k}"
            funs[fid], arrows[fid] = fun, image(fun.arr_map, y.arrows)
            by_key[(a, b, arrows[fid])] = fid

    mor_src = {fid: fun.source.name for fid, fun in funs.items()}
    mor_dst = {fid: fun.target.name for fid, fun in funs.items()}
    id1 = {n: by_key[(n, n, by_name[n].arrows)] for n in names}
    into = _index(funs, mor_dst.get)  # groupoid -> the functors into it
    after = {gid: {fid: by_key[(mor_src[fid], mor_dst[gid], image(g.arr_map, arrows[fid]))]
                   for fid in into.get(mor_src[gid], ())}
             for gid, g in funs.items()}  # h -> {f: h∘f}
    comp1 = {(gid, fid): gf for gid, row in after.items() for fid, gf in row.items()}

    # a transformation f ⇒ g has components f(o) → g(o), so it joins only
    # functors that send each object into the same connected component,
    # which `reach` is in a groupoid
    reached = {fid: (mor_src[fid], mor_dst[fid], tuple(map(
        fun.target.reach.get, image(fun.obj_map, fun.source.objects))))
        for fid, fun in funs.items()}
    parallel = _index(sorted(funs), reached.get)
    cells: dict[str, tuple[str, str, tuple]] = {}  # cid -> (src fid, dst fid, components)
    only: dict[tuple[str, str], str | None] = {}  # (fid, gid) -> the one cell fid ⇒ gid, else None
    by_nt: dict[tuple[str, str, tuple], str] = {}
    for fid in sorted(funs):
        for gid in parallel[reached[fid]]:
            etas = natural_transformations(funs[fid], funs[gid])
            for j, eta in enumerate(etas):
                cid = only[(fid, gid)] = f"{fid}~{gid}.{j}"
                comps = image(eta, ordered[mor_src[fid]])
                cells[cid] = (fid, gid, comps)
                by_nt[(fid, gid, comps)] = cid
            if len(etas) > 1:
                only[(fid, gid)] = None
    # an identity, composite or whiskering of transformations is natural
    # between its two functors, so where exactly one cell joins those it is
    # that cell, and its components are not built
    id2 = {fid: only[(fid, fid)] or by_nt[(fid, fid, image(
        fun.target.unit, image(fun.obj_map, ordered[mor_src[fid]])))]
        for fid, fun in funs.items()}
    ending = _index(cells, lambda aid: cells[aid][1])  # functor -> the cells ending at it
    vcomp = {}
    for bid, (bf, bg, bcomps) in cells.items():
        x = funs[bf].target
        for aid in ending.get(bf, ()):  # vertically composable: a then b
            af, _, acomps = cells[aid]
            vcomp[(bid, aid)] = only[(af, bg)] or by_nt[(af, bg, image(x.comp, zip(bcomps, acomps)))]

    # whiskerings only, each row in sorted cell order: for h: X → Y,
    # (i_h∗a)_o = h(a_o), and (a∗i_h)_o = a_{h(o)} for a over functors out of Y
    order = [(aid, cells[aid]) for aid in sorted(cells)]
    landing = _index(order, lambda item: mor_dst[item[1][0]])
    leaving = _index(order, lambda item: mor_src[item[1][0]])
    left_rows, right_rows = {}, {}
    for hid, h in funs.items():
        x, y, h_after = mor_src[hid], mor_dst[hid], after[hid]
        left = left_rows[hid] = {}
        for aid, (af, ag, acomps) in landing.get(x, ()):
            f, g = h_after[af], h_after[ag]
            left[aid] = only[(f, g)] or by_nt[(f, g, image(h.arr_map, acomps))]
        at = {o: k for k, o in enumerate(ordered[y])}
        slots = [at[h.obj_map[o]] for o in ordered[x]]
        right = right_rows[hid] = {}
        for aid, (af, ag, acomps) in leaving.get(y, ()):
            f, g = after[af][hid], after[ag][hid]
            right[aid] = only[(f, g)] or by_nt[(f, g, image(acomps, slots))]

    c = TwoCat.from_whiskerings(
        objects=tuple(names),
        mor_src=mor_src,
        mor_dst=mor_dst,
        comp1=comp1,
        id1=id1,
        cell_src={cid: fid for cid, (fid, _, _) in cells.items()},
        cell_dst={cid: gid for cid, (_, gid, _) in cells.items()},
        vcomp_table=vcomp,
        left_rows=left_rows,
        right_rows=right_rows,
        id2=id2,
    )
    w_morita = frozenset(fid for fid, fun in funs.items() if fun.morita)
    return c, w_morita


def morita_saturated_check(catalog: list[FiniteGroupoid]) -> bool:
    """Is the Morita class saturation-stable inside this catalog?

    This is catalog-relative: saturation witnesses are searched only among
    the enumerated functors, so enlarging the catalog can in principle
    change the verdict.
    """
    from .saturation import saturate

    c, w_morita = groupoid_twocat(catalog)
    return saturate(c, w_morita) == w_morita


# ---------------------------------------------------------------------------
# shipped groupoids


def unit_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid("Unit", ("1",), {"e1": "1"}, {"e1": "1"},
                          {("e1", "e1"): "e1"}, {"e1": "e1"}, {"1": "e1"})


def pair_groupoid(n: int = 2) -> FiniteGroupoid:
    """The contractible groupoid: exactly one arrow between any two objects."""
    objs = tuple(str(i) for i in range(1, n + 1))
    arrows = {f"p{i}{j}": (i, j) for i in objs for j in objs}
    comp = {}
    for (a, (i, j)), (b, (k, l)) in itertools.product(arrows.items(), arrows.items()):
        if l == i:
            comp[(a, b)] = f"p{k}{j}"
    return FiniteGroupoid(
        f"Pair{n}", objs,
        {a: ij[0] for a, ij in arrows.items()},
        {a: ij[1] for a, ij in arrows.items()},
        comp,
        {f"p{i}{j}": f"p{j}{i}" for i in objs for j in objs},
        {i: f"p{i}{i}" for i in objs},
    )


def discrete_groupoid(n: int = 2) -> FiniteGroupoid:
    """Only identity arrows."""
    objs = tuple(str(i) for i in range(1, n + 1))
    units = {i: f"e{i}" for i in objs}
    return FiniteGroupoid(
        f"Disc{n}", objs,
        {u: i for i, u in units.items()},
        {u: i for i, u in units.items()},
        {(u, u): u for u in units.values()},
        {u: u for u in units.values()},
        units,
    )


# the groupoids `twoloc fixtures` emits, by name
GROUPOID_FIXTURES = {
    "unit": unit_groupoid,
    "pair2": lambda: pair_groupoid(2),
    "disc2": lambda: discrete_groupoid(2),
}

CATALOGS = {
    "unit": lambda: [unit_groupoid()],
    "unit-pair": lambda: [unit_groupoid(), pair_groupoid(2)],
    "unit-pair-disc": lambda: [unit_groupoid(), pair_groupoid(2), discrete_groupoid(2)],
}
