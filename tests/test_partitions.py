"""The hom partitions against the exhaustive closure they replace.

`oracle_partition` and `oracle_equality_chain` are the original
implementations: every (v1, v2) leg pair is tried and every object is
scanned for refinement legs.  They are kept here only as a reference.
"""

import gc
import itertools
import tracemalloc
import weakref
from collections import deque

import pytest

from twoloc.fixtures import FIXTURES, fixture, parity_twocat
from twoloc.fractions import (
    CellRep,
    Span,
    all_spans,
    cell_from_rep,
    equality_chain,
    hom_fraction_cells,
    localize,
)


def oracle_partition(c, w, s1: Span, s2: Span) -> dict[CellRep, frozenset[CellRep]]:
    """Partition all valid representatives s1 ⇒ s2 by refinement-connectivity."""
    reps: list[CellRep] = []
    for apex in sorted(c.objects):
        for v1 in c.hom1(apex, s1.apex):
            denom = c.compose1(s1.w, v1)
            if denom not in w:
                continue
            for v2 in c.hom1(apex, s2.apex):
                alphas = tuple(a for a in c.hom2(denom, c.compose1(s2.w, v2))
                               if c.is_invertible2(a))
                if not alphas:
                    continue
                betas = c.hom2(c.compose1(s1.f, v1), c.compose1(s2.f, v2))
                for alpha, beta in itertools.product(alphas, betas):
                    reps.append(CellRep(s1, s2, apex, v1, v2, alpha, beta))

    index = set(reps)
    parent = {r: r for r in reps}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for r in reps:
        for p in oracle_refinement_legs(c, w, s1, r):
            refined = oracle_refine(c, r, p)
            if refined in index:
                ra, rb = find(r), find(refined)
                if ra != rb:
                    parent[rb] = ra

    classes: dict[CellRep, set[CellRep]] = {}
    for r in reps:
        classes.setdefault(find(r), set()).add(r)
    return {r: frozenset(classes[find(r)]) for r in reps}


def oracle_refinement_legs(c, w, s1: Span, rep: CellRep):
    for apex in sorted(c.objects):
        for p in c.hom1(apex, rep.apex):
            if c.compose1(c.compose1(s1.w, rep.v1), p) in w:
                yield p


def oracle_refine(c, rep: CellRep, p: str) -> CellRep:
    return CellRep(
        rep.src_span, rep.dst_span, c.mor_src[p],
        c.compose1(rep.v1, p), c.compose1(rep.v2, p),
        c.whisker_right(rep.alpha, p), c.whisker_right(rep.beta, p),
    )


def oracle_equality_chain(c, w, part, r1: CellRep, r2: CellRep):
    if r2 not in part[r1]:
        return None
    nodes = part[r1]
    edges: dict[CellRep, set[CellRep]] = {r: set() for r in nodes}
    for r in nodes:
        for p in oracle_refinement_legs(c, w, r1.src_span, r):
            refined = oracle_refine(c, r, p)
            if refined in edges:
                edges[r].add(refined)
                edges[refined].add(r)
    prev: dict[CellRep, CellRep] = {r1: r1}
    queue = deque([r1])
    while queue:
        r = queue.popleft()
        if r == r2:
            path = [r]
            while path[-1] != r1:
                path.append(prev[path[-1]])
            return path[::-1]
        for nxt in sorted(edges[r]):
            if nxt not in prev:
                prev[nxt] = r
                queue.append(nxt)
    raise AssertionError("class members not connected by refinements")


def span_pairs(c, w):
    objs = sorted(c.objects)
    for a, b in itertools.product(objs, objs):
        spans = all_spans(c, w, a, b)
        yield from itertools.product(spans, spans)


def assert_partitions_match(c, w) -> int:
    """Compare every hom of (c, w) with the oracle; returns the hom count.

    In each hom, the first class is also walked from its canonical
    representative to its largest member, and the first and last classes
    must not connect.
    """
    w = frozenset(w)
    homs = 0
    for s1, s2 in span_pairs(c, w):
        homs += 1
        want = oracle_partition(c, w, s1, s2)
        cells = hom_fraction_cells(c, w, s1, s2)
        got = {r: cell.members for cell in cells for r in cell.members}
        assert got == want, (s1, s2)
        assert [cell.canonical for cell in cells] == sorted({min(m) for m in want.values()})
        for cell in cells:
            assert cell.canonical == min(cell.members)
            assert all(cell_from_rep(c, w, r) is cell for r in cell.members)
        if cells:
            first, far = cells[0].canonical, max(cells[0].members)
            assert equality_chain(c, w, first, far) == \
                oracle_equality_chain(c, w, want, first, far)
            assert equality_chain(c, w, first, cells[-1].canonical) == \
                oracle_equality_chain(c, w, want, first, cells[-1].canonical)
    return homs


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_partitions_match_oracle(name):
    c, w = fixture(name)
    assert assert_partitions_match(c, w) > 0


def test_corpus_partitions_match_oracle(corpus_entries):
    for entry in corpus_entries:
        assert_partitions_match(entry.c, entry.w)


def cyclic_parity(n: int, twist_name: str):
    names = [f"g{k}" for k in range(n)]
    mors = {g: ("x", "x") for g in names}
    comp = {(names[i], names[j]): names[(i + j) % n]
            for i in range(n) for j in range(n)}
    return parity_twocat(["x"], mors, {"x": "g0"}, comp, twist_name=twist_name)


@pytest.mark.parametrize("twist_name", ["s", "a"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_cyclic_parity_partitions_match_oracle(n, twist_name):
    c = cyclic_parity(n, twist_name)
    for step in (d for d in range(1, n + 1) if n % d == 0):
        w = frozenset(f"g{k}" for k in range(0, n, step))
        assert_partitions_match(c, w)


# -- lifetime: partitions live and die with their 2-category -----------------


def test_partitions_do_not_outlive_their_twocat():
    c, w = fixture("F3")
    spans = all_spans(c, w, "0", "0")
    assert hom_fraction_cells(c, w, spans[0], spans[-1])
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def localize_fresh_z6():
    c = cyclic_parity(6, "s")
    loc = localize(c, {"g0", "g3"})
    spans = loc.spans("x", "x")
    return sum(len(loc.hom_cells(spans[0], s)) for s in spans)


def peak_while_localizing(times: int) -> int:
    # A full collection first empties the interpreter's free lists, which
    # tracemalloc counts as allocated, so every phase starts alike.
    gc.collect()
    tracemalloc.reset_peak()
    for _ in range(times):
        assert localize_fresh_z6() == 8
    return tracemalloc.get_traced_memory()[1]


def test_repeated_localization_keeps_memory_flat():
    tracemalloc.start()
    try:
        first = peak_while_localizing(50)
        peak_while_localizing(100)
        last = peak_while_localizing(50)
    finally:
        tracemalloc.stop()
    assert last <= 1.5 * first, (first, last)
