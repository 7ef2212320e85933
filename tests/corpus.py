"""Deterministic random corpus of small BF-passing (2-category, W) pairs.

Four families, all built from tables we can prove are lawful before any
filtering: thin poset categories (2-cells are identities only), one-object
cyclic monoids, parity extensions of thin categories (an extra twist cell
over an ideal of 1-cells), and disjoint unions of the above.  Candidate W
classes are the quasi-units, the internal equivalences, and random
supersets of the quasi-units; every emitted pair passed check_bf, and
everything is reproducible from SEED.

Size caps: at most 4 objects, 8 one-cells, 12 two-cells per entry.

The other shared input ladders live here too: the posetal and cyclic
families, `oracle_inputs`, and the classes and span pairs to compare at.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from twoloc.core import TwoCat, internal_equivalences, validate
from twoloc.fixtures import FIXTURES, disjoint_union, fixture, parity_twocat, thin_twocat
from twoloc.fractions import Localization
from twoloc.groupoids import (
    CATALOGS,
    discrete_groupoid,
    groupoid_twocat,
    pair_groupoid,
    unit_groupoid,
)
from twoloc.saturation import check_bf, quasi_units, saturate

SEED = 20260814
MAX_OBJECTS, MAX_MORS, MAX_CELLS = 4, 8, 12


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    c: TwoCat
    w: frozenset


def _thin_tables(rng: random.Random):
    """A random poset on <=4 points, returned as category tables.

    The order is a random subrelation of the index order, transitively
    closed; antisymmetry is automatic because i < j numerically.
    """
    n = rng.randint(1, MAX_OBJECTS)
    objects = [f"o{i}" for i in range(n)]
    below = {i: {i} for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                below[i].add(j)
    for i in range(n):          # transitive closure
        for j in list(below[i]):
            below[i] |= below[j]
    mors, id1 = {}, {}
    for i in range(n):
        id1[objects[i]] = f"e{i}"
        mors[f"e{i}"] = (objects[i], objects[i])
        for j in below[i] - {i}:
            mors[f"a{i}{j}"] = (objects[i], objects[j])
    name_of = {(s, d): m for m, (s, d) in mors.items()}
    comp = {}
    for g, (gs, gd) in mors.items():
        for f, (fs, fd) in mors.items():
            if fd == gs:
                comp[(g, f)] = name_of[(fs, gd)]
    return objects, mors, id1, comp


def thin_cat(rng: random.Random) -> TwoCat | None:
    objects, mors, id1, comp = _thin_tables(rng)
    if len(mors) > MAX_MORS:
        return None
    return parity_twocat(objects, mors, id1, comp, twisted=set())


def cyclic_cat(rng: random.Random) -> TwoCat:
    """One object, 1-cells the cyclic group Z/n, identity 2-cells only."""
    return cyclic_plain(rng.randint(1, 5))


def parity_cat(rng: random.Random) -> TwoCat | None:
    """Thin base plus a parity-1 twist cell over a two-sided ideal of 1-cells.

    In a poset category the non-identity arrows form an ideal (a composite
    touching a non-identity arrow cannot come back to an identity), and so
    does the set of arrows factoring through any fixed arrow, so both make
    the parity tables total.
    """
    objects, mors, id1, comp = _thin_tables(rng)
    non_id = [m for m in mors if m not in id1.values()]
    if not non_id:
        return None
    if rng.random() < 0.5:
        twisted = set(non_id)
    else:
        # principal ideal: everything factoring through one fixed arrow t,
        # i.e. src <= src(t) and dst(t) <= dst in the poset
        t = rng.choice(non_id)
        ts, td = mors[t]
        name_of = {(s, d): m for m, (s, d) in mors.items()}
        twisted = {
            m for m, (s, d) in mors.items()
            if (s, ts) in name_of and (td, d) in name_of
        }
    if len(mors) > MAX_MORS or len(mors) + len(twisted) > MAX_CELLS:
        return None
    return parity_twocat(objects, mors, id1, comp, twisted=twisted,
                         twist_name="t")


def union_cat(rng: random.Random) -> TwoCat | None:
    a = cyclic_cat(rng) if rng.random() < 0.5 else thin_cat(rng)
    b = thin_cat(rng)
    if a is None or b is None:
        return None
    c = disjoint_union(a, b)
    if (len(c.objects) > MAX_OBJECTS or len(c.mors) > MAX_MORS
            or len(c.cells) > MAX_CELLS):
        return None
    return c


def _candidate_classes(c: TwoCat, rng: random.Random):
    qu = quasi_units(c)
    yield "qu", qu
    eq = internal_equivalences(c)
    if eq != qu:
        yield "eq", eq
    extra = [m for m in c.mors if m not in qu]
    if extra:
        k = rng.randint(1, len(extra))
        yield "rand", qu | frozenset(rng.sample(extra, k))


def build_corpus(seed: int = SEED, minimum: int = 100) -> list[CorpusEntry]:
    """At least `minimum` BF-passing pairs; deterministic for a fixed seed."""
    rng = random.Random(seed)
    makers = [thin_cat, cyclic_cat, parity_cat, union_cat]
    out: list[CorpusEntry] = []
    attempts = 0
    while len(out) < minimum and attempts < 4000:
        attempts += 1
        c = makers[attempts % len(makers)](rng)
        if c is None:
            continue
        assert validate(c).ok, "corpus builder emitted an unlawful table"
        for tag, w in _candidate_classes(c, rng):
            if check_bf(c, w).ok:
                out.append(CorpusEntry(f"r{len(out):03d}-{tag}", c, w))
    return out


# ---------------------------------------------------------------------------
# locally posetal 2-categories: the family with non-invertible 2-cells


def posetal_twocat(
    objects: list[str],
    mors: dict[str, tuple[str, str]],
    id1: dict[str, str],
    comp: dict[tuple[str, str], str],
    leq: set[tuple[str, str]],
) -> TwoCat:
    """One 2-cell `f<=g`: f ⇒ g for each pair (f, g) in the order `leq`.

    `leq` must be a partial order on each hom, and composition must be
    monotone in both arguments; otherwise the tables are not total and
    `thin_twocat` raises ValueError.  Only the identities `f<=f` are
    invertible.
    """
    return thin_twocat(objects, mors, id1, comp,
                       {f"{f}<={g}": (f, g) for f, g in sorted(leq)})


def _monoid_tables(n: int):
    """Every monoid multiplication on {1, a, b, ...}[:n] with unit 1."""
    elems = ["1", "a", "b"][:n]
    rest = elems[1:]
    pairs = list(itertools.product(rest, rest))
    for values in itertools.product(elems, repeat=len(pairs)):
        table = {(x, "1"): x for x in elems} | {("1", x): x for x in elems}
        table |= dict(zip(pairs, values))
        if all(table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
               for x, y, z in itertools.product(elems, repeat=3)):
            yield elems, table


def _partial_orders(elems: list[str]):
    """Every partial order on elems, as a set of pairs (x, y) with x <= y."""
    strict = [(x, y) for x in elems for y in elems if x != y]
    for bits in itertools.product((False, True), repeat=len(strict)):
        leq = {(x, x) for x in elems} | {p for p, on in zip(strict, bits) if on}
        antisymmetric = all((y, x) not in leq for x, y in leq if x != y)
        transitive = all((x, z) in leq for x, y in leq for y2, z in leq if y == y2)
        if antisymmetric and transitive:
            yield leq


def posetal_family() -> list[CorpusEntry]:
    """One-object monoids of at most 3 elements, each with every compatible
    partial order and every W containing the unit that passes BF."""
    out = []
    for n in (1, 2, 3):
        for elems, table in _monoid_tables(n):
            for leq in _partial_orders(elems):
                monotone = all((table[(h, x)], table[(h, y)]) in leq
                               and (table[(x, h)], table[(y, h)]) in leq
                               for x, y in leq for h in elems)
                if not monotone:
                    continue
                c = posetal_twocat(["A"], {x: ("A", "A") for x in elems},
                                   {"A": "1"}, table, leq)
                assert validate(c).ok, "posetal builder emitted an unlawful table"
                for k in range(n):
                    for extra in itertools.combinations(elems[1:], k):
                        w = frozenset({"1", *extra})
                        if check_bf(c, w).ok:
                            out.append(CorpusEntry(f"p{len(out):03d}", c, w))
    return out


# ---------------------------------------------------------------------------
# (c, W) where BF3 may fail: no fillers, so no `build_choices`


def classes_only(c: TwoCat, w) -> Localization:
    """A `Localization` of (c, W) with no fillers.

    Its spans and class operations (`spans`, `cell_from_rep`, `cells_equal`,
    `equality_chain`) read only the tables and the class store, so they
    work where BF3 fails; composing spans raises for want of a choice entry.
    """
    return Localization(c, frozenset(w), {})


# ---------------------------------------------------------------------------
# the cyclic groups Z/n on one object x, 1-cells g0 ... g(n-1)


def _cyclic_tables(n: int):
    mors = {f"g{k}": ("x", "x") for k in range(n)}
    comp = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return ["x"], mors, {"x": "g0"}, comp


def cyclic_plain(n: int) -> TwoCat:
    """Z/n with identity 2-cells only."""
    return parity_twocat(*_cyclic_tables(n), twisted=set())


def cyclic_parity(n: int, twist_name: str) -> TwoCat:
    """Z/n with a parity cell `twist_name`_g on every 1-cell g."""
    return parity_twocat(*_cyclic_tables(n), twist_name=twist_name)


def cyclic_family() -> list[CorpusEntry]:
    """Z/4, Z/6 and Z/8 under both twist names, with every subgroup as W."""
    out = []
    for n in (4, 6, 8):
        for twist_name in ("s", "a"):
            c = cyclic_parity(n, twist_name)
            for step in (d for d in range(1, n + 1) if n % d == 0):
                w = frozenset(f"g{k}" for k in range(0, n, step))
                out.append(CorpusEntry(f"Z/{n}-{twist_name}-<g{step % n}>", c, w))
    return out


def product_twocat(c1: TwoCat, c2: TwoCat) -> TwoCat:
    """C×D with componentwise tables; the pair of x and y is named "(x|y)"."""

    def pair(x: str, y: str) -> str:
        return f"({x}|{y})"

    def pairs(d1: dict, d2: dict) -> dict:
        return {pair(k1, k2): pair(v1, v2) for k1, v1 in d1.items() for k2, v2 in d2.items()}

    def pair_table(t1: dict, t2: dict) -> dict:
        return {(pair(b1, b2), pair(a1, a2)): pair(r1, r2)
                for (b1, a1), r1 in t1.items() for (b2, a2), r2 in t2.items()}

    return TwoCat(
        objects=tuple(pair(x, y) for x in c1.objects for y in c2.objects),
        mor_src=pairs(c1.mor_src, c2.mor_src),
        mor_dst=pairs(c1.mor_dst, c2.mor_dst),
        comp1=pair_table(c1.comp1, c2.comp1),
        id1=pairs(c1.id1, c2.id1),
        cell_src=pairs(c1.cell_src, c2.cell_src),
        cell_dst=pairs(c1.cell_dst, c2.cell_dst),
        vcomp_table=pair_table(c1.vcomp_table, c2.vcomp_table),
        hcomp_table=pair_table(c1.hcomp_table, c2.hcomp_table),
        id2=pairs(c1.id2, c2.id2),
    )


def product_family(count: int = 60, seed: int = SEED) -> list[tuple[CorpusEntry, ...]]:
    """(C, D, C×D): seeded pairs of lawful oracle inputs with at most 4 1-cells.

    Each factor keeps its W or, half the time, gets one more 1-cell, which
    may break the BF axioms; the product is taken at W×V.  A product has
    up to 16 objects and 16 1-cells, past the corpus caps.
    """
    rng = random.Random(seed)
    small = [e for e in oracle_inputs() if len(e.c.mors) <= 4 and validate(e.c).ok]
    out = []
    for _ in range(count):
        e1, e2 = (rng.choice(small) for _ in range(2))
        e1, e2 = (CorpusEntry(e.name, e.c, e.w | {rng.choice(e.c.mors)} if rng.random() < 0.5
                              else e.w) for e in (e1, e2))
        w = frozenset(f"({f}|{g})" for f in e1.w for g in e2.w)
        out.append((e1, e2, CorpusEntry(f"{e1.name}×{e2.name}", product_twocat(e1.c, e2.c), w)))
    return out


# ---------------------------------------------------------------------------
# strict 2-groups from crossed modules


def cyclic_group(n: int, prefix: str) -> tuple[tuple[str, ...], dict]:
    """Z/n as (elements, product): `prefix`k is k, and the unit comes first."""
    elems = tuple(f"{prefix}{k}" for k in range(n))
    return elems, {(elems[i], elems[j]): elems[(i + j) % n] for i in range(n) for j in range(n)}


def symmetric_group_3() -> tuple[tuple[str, ...], dict]:
    """S3 as (elements, product): p is named p(0)p(1)p(2), pq is p after q, the unit first."""
    perms = sorted(itertools.permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    return tuple(name.values()), {(name[p], name[q]): name[tuple(p[i] for i in q)]
                                  for p in perms for q in perms}


def group_inverse(group: tuple[tuple[str, ...], dict], x: str) -> str:
    elems, product = group
    return next(y for y in elems if product[(x, y)] == elems[0])


def crossed_module_twocat(G, H, act, d) -> TwoCat:
    """The one-object strict 2-category of a crossed module ∂: H → G.

    G and H are groups as (elements, product), the unit first; act(g, h)
    is g ▷ h and d(h) is ∂(h), with ∂(g ▷ h) = g∂(h)g⁻¹ and
    ∂(h) ▷ h′ = hh′h⁻¹ (Baez–Lauda, arXiv:math/0307200).  The 1-cells
    are the elements g of G on the object "*", g∘f = gf; the 2-cells are
    the pairs (g, h): g ⇒ ∂(h)g, named "g:h", with
    (∂(h)g, h′)⊙(g, h) = (g, h′h).  It is built from its whiskerings,
    i_k∗(g, h) = (kg, k▷h) and (g, h)∗i_k = (gk, h), so no hcomp table of
    |G|²|H|² entries is made.
    """
    (gs, gmul), (hs, hmul) = G, H
    pairs = {f"{g}:{h}": (g, h) for g in gs for h in hs}
    cells = sorted(pairs)
    return TwoCat.from_whiskerings(
        objects=("*",), mor_src=dict.fromkeys(gs, "*"), mor_dst=dict.fromkeys(gs, "*"),
        comp1=dict(gmul), id1={"*": gs[0]},
        cell_src={a: pairs[a][0] for a in cells},
        cell_dst={a: gmul[(d(h), g)] for a in cells for g, h in (pairs[a],)},
        vcomp_table={(f"{gmul[(d(h), g)]}:{h2}", f"{g}:{h}"): f"{g}:{hmul[(h2, h)]}"
                     for g in gs for h in hs for h2 in hs},
        left_rows={k: {a: f"{gmul[(k, g)]}:{act(k, h)}" for a in cells for g, h in (pairs[a],)}
                   for k in gs},
        right_rows={k: {a: f"{gmul[(g, k)]}:{h}" for a in cells for g, h in (pairs[a],)}
                    for k in gs},
        id2={g: f"{g}:{hs[0]}" for g in gs},
    )


def crossed_module_entries() -> list[tuple[CorpusEntry, int, int]]:
    """(entry, |G|, |H|) for four crossed modules, each at a W with ∂(H)W = W (BF5).

    Z/2 acting on Z/3 by inversion with ∂ = 0, at W = {e} and at W = Z/2;
    Z/4 → Z/2 mod 2, with the trivial action, at W = Z/2; S3 → S3 by the
    identity, with the conjugation action, at W = S3.
    """
    z2, z3, z4, s3 = (cyclic_group(2, "g"), cyclic_group(3, "h"), cyclic_group(4, "h"),
                      symmetric_group_3())
    inverting = crossed_module_twocat(
        z2, z3, lambda g, h: group_inverse(z3, h) if g == "g1" else h, lambda h: "g0")
    mod2 = crossed_module_twocat(z2, z4, lambda g, h: h, lambda h: f"g{int(h[1:]) % 2}")
    conjugation = crossed_module_twocat(
        s3, s3, lambda g, h: s3[1][(s3[1][(g, h)], group_inverse(s3, g))], lambda h: h)
    return [(CorpusEntry("Z/2⋉Z/3-{e}", inverting, frozenset({"g0"})), 2, 3),
            (CorpusEntry("Z/2⋉Z/3-Z/2", inverting, frozenset(z2[0])), 2, 3),
            (CorpusEntry("Z/4→Z/2", mod2, frozenset(z2[0])), 2, 4),
            (CorpusEntry("S3→S3", conjugation, frozenset(s3[0])), 6, 6)]


def oracle_inputs() -> list[CorpusEntry]:
    """The inputs the oracle tests share, each with its W.

    F1-F7, the corpus, the posetal family, the shipped groupoid catalogs and
    the catalog Unit, Pair2, Disc3 with its Morita class.
    """
    out = [CorpusEntry(name, *fixture(name)) for name in sorted(FIXTURES)]
    out += corpus() + posetal_family()
    catalogs = {name: make() for name, make in sorted(CATALOGS.items())}
    catalogs["unit-pair-disc3"] = [unit_groupoid(), pair_groupoid(2),
                                   discrete_groupoid(3)]
    out += [CorpusEntry(name, *groupoid_twocat(catalog))
            for name, catalog in catalogs.items()]
    return out


def distinct_tables(entries):
    return list({id(e.c): e.c for e in entries}.values())


TABLES = ("objects", "mor_src", "mor_dst", "comp1", "id1", "cell_src", "cell_dst",
          "vcomp_table", "hcomp_table", "id2")
ROWS = ("left_rows", "right_rows")


def with_tables(c: TwoCat, **changes) -> TwoCat:
    """A new `TwoCat` with c's ten tables, the ones named in `changes` replaced.

    When `changes` names a whisker row table, the copy is built from
    whiskerings: c's rows stand in for its `hcomp_table`.
    """
    if changes.keys() & set(ROWS):
        names = TABLES[:-2] + ROWS + TABLES[-1:]
        return TwoCat.from_whiskerings(**{**{name: getattr(c, name) for name in names},
                                          **changes})
    return TwoCat(**{**{name: getattr(c, name) for name in TABLES}, **changes})


class CountingDict(dict):
    """A dict that counts its `[]` reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def counted_rows(c: TwoCat, **changes) -> TwoCat:
    """`with_tables(c, **changes)` built from c's rows, each a `CountingDict`; see `row_reads`."""
    return with_tables(c, **{name: {h: CountingDict(row) for h, row in getattr(c, name).items()}
                             for name in ROWS}, **changes)


def row_reads(c: TwoCat) -> int:
    """The `[]` reads of the rows of a `counted_rows` copy so far."""
    return sum(row.reads for name in ROWS for row in getattr(c, name).values())


def classes_to_compare(c, w):
    """W, its right saturation and all 1-cells, without repeats.

    The larger classes give every representative more refinement legs,
    so most class members are reached as refinements and not expanded.
    """
    out = []
    for cls in (frozenset(w), saturate(c, w), frozenset(c.mors)):
        if cls not in out:
            out.append(cls)
    return out


def span_pairs(c, w):
    objs, loc = sorted(c.objects), classes_only(c, w)
    for a, b in itertools.product(objs, objs):
        spans = loc.spans(a, b)
        yield from itertools.product(spans, spans)


def load_bench_module(name: str):
    """`bench/<name>.py`, imported read-only as `bench_<name>`, once."""
    module = sys.modules.get(f"bench_{name}")
    if module is None:
        path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


_cached: list[CorpusEntry] | None = None


def corpus() -> list[CorpusEntry]:
    global _cached
    if _cached is None:
        _cached = build_corpus()
    return _cached


if __name__ == "__main__":
    import collections
    import time

    t0 = time.perf_counter()
    entries = build_corpus()
    dt = time.perf_counter() - t0
    kinds = collections.Counter(e.name.rsplit("-", 1)[1] for e in entries)
    sizes = collections.Counter(
        (len(e.c.objects), len(e.c.mors), len(e.c.cells)) for e in entries
    )
    print(f"{len(entries)} entries in {dt:.1f}s; kinds={dict(kinds)}")
    print(f"distinct (objects, mors, cells) shapes: {len(sizes)}")
    biggest = max(sizes, key=lambda s: s[2])
    print(f"largest: {biggest}")
