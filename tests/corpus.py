"""Deterministic random corpus of small BF-passing (2-category, W) pairs.

Four families, all built from tables we can prove are lawful before any
filtering: thin poset categories (2-cells are identities only), one-object
cyclic monoids, parity extensions of thin categories (an extra twist cell
over an ideal of 1-cells), and disjoint unions of the above.  Candidate W
classes are the quasi-units, the internal equivalences, and random
supersets of the quasi-units; every emitted pair passed check_bf, and
everything is reproducible from SEED.

Size caps: at most 4 objects, 8 one-cells, 12 two-cells per entry.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from twoloc.core import TwoCat, internal_equivalences, validate
from twoloc.fixtures import FIXTURES, disjoint_union, fixture, parity_twocat
from twoloc.fractions import Localization
from twoloc.groupoids import (
    CATALOGS,
    discrete_groupoid,
    groupoid_twocat,
    pair_groupoid,
    unit_groupoid,
)
from twoloc.saturation import check_bf, quasi_units

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
    n = rng.randint(1, 5)
    mors = {f"g{k}": ("x", "x") for k in range(n)}
    comp = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % n}"
        for i in range(n)
        for j in range(n)
    }
    return parity_twocat(["x"], mors, {"x": "g0"}, comp, twisted=set())


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
    this raises ValueError.  Only the identities `f<=f` are invertible.
    """
    def cell(f: str, g: str) -> str:
        if (f, g) not in leq:
            raise ValueError(f"order is not transitive or not compatible at {f} <= {g}")
        return f"{f}<={g}"

    cell_src = {cell(f, g): f for f, g in leq}
    cell_dst = {cell(f, g): g for f, g in leq}
    vcomp = {(cell(g, h), cell(f, g2)): cell(f, h)
             for f, g2 in leq for g, h in leq if g == g2}
    hcomp = {(cell(g1, g2), cell(f1, f2)): cell(comp[(g1, f1)], comp[(g2, f2)])
             for f1, f2 in leq for g1, g2 in leq if (g1, f1) in comp}
    return TwoCat(
        objects=tuple(objects),
        mor_src={f: s for f, (s, _) in mors.items()},
        mor_dst={f: d for f, (_, d) in mors.items()},
        comp1=dict(comp),
        id1=dict(id1),
        cell_src=cell_src,
        cell_dst=cell_dst,
        vcomp_table=vcomp,
        hcomp_table=hcomp,
        id2={f: cell(f, f) for f in mors},
    )


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
# the cyclic groups Z/n with parity cells


def cyclic_parity(n: int, twist_name: str) -> TwoCat:
    names = [f"g{k}" for k in range(n)]
    mors = {g: ("x", "x") for g in names}
    comp = {(names[i], names[j]): names[(i + j) % n]
            for i in range(n) for j in range(n)}
    return parity_twocat(["x"], mors, {"x": "g0"}, comp, twist_name=twist_name)


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
