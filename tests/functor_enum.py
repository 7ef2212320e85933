"""Brute-force enumeration of strict 2-functors between tiny 2-categories,
and the exhaustive well-definedness search for their induced maps.

Candidates are constrained slot-by-slot (identities are forced, boundaries
must match) and then filtered through the exhaustive validate_functor, so
everything yielded is checked rather than trusted.  Only usable for the
fixture-sized inputs in this test suite.

`search_constancy` is the exhaustive check of the lemma `induce` relies
on: it maps every member of every class and classifies each image.
"""

from __future__ import annotations

import itertools

from twoloc import StrictTwoFunctor, validate_functor
from twoloc.core import TwoCat
from twoloc.fractions import CellRep, cell_from_rep
from twoloc.transport import InducedPseudofunctor


def enumerate_strict_functors(src: TwoCat, dst: TwoCat) -> list[StrictTwoFunctor]:
    out: list[StrictTwoFunctor] = []
    identity_mors = set(src.id1.values())
    identity_cells = set(src.id2.values())
    for f0v in itertools.product(dst.objects, repeat=len(src.objects)):
        f0 = dict(zip(src.objects, f0v))
        mor_slots = []
        for m in src.mors:
            if m in identity_mors:
                mor_slots.append((dst.id1[f0[src.mor_src[m]]],))
            else:
                mor_slots.append(dst.hom1(f0[src.mor_src[m]], f0[src.mor_dst[m]]))
        for f1v in itertools.product(*mor_slots):
            f1 = dict(zip(src.mors, f1v))
            if any(dst.comp1[(f1[g], f1[f])] != f1[gf]
                   for (g, f), gf in src.comp1.items()):
                continue
            cell_slots = []
            for a in src.cells:
                if a in identity_cells:
                    cell_slots.append((dst.id2[f1[src.cell_src[a]]],))
                else:
                    cell_slots.append(dst.hom2(f1[src.cell_src[a]],
                                               f1[src.cell_dst[a]]))
            for f2v in itertools.product(*cell_slots):
                f2 = dict(zip(src.cells, f2v))
                fun = StrictTwoFunctor(src, dst, f0, f1, f2)
                if validate_functor(fun).ok:
                    out.append(fun)
    return out


def search_constancy(ind: InducedPseudofunctor) -> CellRep | None:
    """Map every member of every class of every source hom and classify it.

    Returns the canonical representative of the first class whose members
    land in two or more target classes, or None if the cell map is
    constant on every class.
    """
    src_loc, dst_loc = ind.source_loc, ind.target_loc
    objs = sorted(ind.functor.source.objects)
    for a, b in itertools.product(objs, objs):
        spans = src_loc.spans(a, b)
        for s1, s2 in itertools.product(spans, spans):
            for cell in src_loc.hom_cells(s1, s2):
                images = {cell_from_rep(dst_loc, ind.map_rep(r))
                          for r in cell.members}
                if len(images) != 1:
                    return cell.canonical
    return None
