"""Finite strict 2-categories given by explicit cell tables.

Everything is a string identifier looked up in dict tables; nothing is ever
normalized or rewritten.  Composition conventions, used consistently across
the whole package:

* ``comp1[(g, f)]`` is the 1-cell composite g∘f (f applied first),
* ``vcomp[(b, a)]`` is the vertical composite b⊙a (a applied first),
* ``hcomp[(b, a)]`` is the horizontal composite b∗a, where a lives over the
  earlier 1-cell: for a: f1 ⇒ f2 (A→B) and b: g1 ⇒ g2 (B→C) the result is
  a 2-cell g1∘f1 ⇒ g2∘f2.

Strictness means all the usual middle-unit/associator bookkeeping is exact
table equality.  A strict 2-category is a sesquicategory whose whiskerings
interchange (Street, *Categorical structures*, 1996), so a `TwoCat` stores
vcomp and one row of whiskerings i_h∗− and −∗i_h per 1-cell h, and b∗a is
derived from them.  A table given with a full hcomp is read into rows, and
its b∗a is the given entry; `groupoid_twocat` builds only the rows.
`validate` checks the whiskering laws for a generating set of 1-cells and
interchange for generators of each hom-category, so no check walks
composable hcomp triples, and validating a lawful table built from rows
derives no hcomp.
Every check of the package returns a `Report` of named verdicts.
A `TwoCat` builds its indexes on first use, and keeps one slot that
`fractions` fills with its class stores; nothing here knows their layout.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple


class StructureError(ValueError):
    """Raised for cell references or composites the tables cannot support."""


class InternalInconsistency(RuntimeError):
    """A search that is guaranteed to succeed on valid input came up empty.

    Seeing this exception means the input structure is corrupted (e.g. a
    hand-edited table) rather than that the caller did anything wrong.
    """


class TwoCat:
    """The tables of a strict 2-category; equal only to itself, as it owns its stores.

    `left_rows[h]` maps each 2-cell a beside the 1-cell h to i_h∗a, and
    `right_rows[h]` to a∗i_h, in `cells` order; they are read from a given
    `hcomp_table`, or given to `from_whiskerings`, which derives the table.
    """

    def __init__(self, objects: tuple[str, ...], mor_src: dict[str, str],
                 mor_dst: dict[str, str], comp1: dict[tuple[str, str], str],
                 id1: dict[str, str], cell_src: dict[str, str], cell_dst: dict[str, str],
                 vcomp_table: dict[tuple[str, str], str],
                 hcomp_table: dict[tuple[str, str], str], id2: dict[str, str]):
        self.objects, self.mor_src, self.mor_dst = objects, mor_src, mor_dst
        self.comp1, self.id1 = comp1, id1
        self.cell_src, self.cell_dst = cell_src, cell_dst
        self.vcomp_table, self.id2 = vcomp_table, id2
        self.given_hcomp = hcomp_table  # None when built from whiskerings

    @classmethod
    def from_whiskerings(cls, objects, mor_src, mor_dst, comp1, id1, cell_src, cell_dst,
                         vcomp_table, left_rows: dict[str, dict[str, str]],
                         right_rows: dict[str, dict[str, str]], id2) -> TwoCat:
        """The 2-category whose b∗a is (b∗i_f′)⊙(i_g∗a), from its whisker rows."""
        c = cls(objects, mor_src, mor_dst, comp1, id1, cell_src, cell_dst,
                vcomp_table, None, id2)
        c.left_rows, c.right_rows = left_rows, right_rows
        return c

    # -- 1-cell structure ---------------------------------------------------

    @cached_property
    def mors(self) -> tuple[str, ...]:
        return tuple(sorted(self.mor_src))

    @cached_property
    def cells(self) -> tuple[str, ...]:
        return tuple(sorted(self.cell_src))

    def hom1(self, a: str, b: str) -> tuple[str, ...]:
        return self._hom1_index.get((a, b), ())

    @cached_property
    def _hom1_index(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return _index(self.mors, lambda f: (self.mor_src[f], self.mor_dst[f]))

    def compose1(self, g: str, f: str) -> str:
        try:
            return self.comp1[(g, f)]
        except KeyError:
            raise StructureError(f"1-cells not composable: {g} after {f}") from None

    def factorisations(self, h: str) -> tuple[tuple[str, str], ...]:
        """All pairs (g, f) with g∘f = h, in sorted order."""
        return self._factorisation_index.get(h, ())

    @cached_property
    def _factorisation_index(self) -> dict[str, tuple[tuple[str, str], ...]]:
        return _index(sorted(self.comp1), self.comp1.get)

    def left_factors(self, f: str, h: str) -> tuple[str, ...]:
        """All 1-cells g with g∘f = h, in sorted order."""
        return self._left_factor_index.get((f, h), ())

    @cached_property
    def _left_factor_index(self) -> dict[tuple[str, str], tuple[str, ...]]:
        index = _index(sorted(self.comp1), lambda gf: (gf[1], self.comp1[gf]))
        return {fh: tuple(g for g, _ in pairs) for fh, pairs in index.items()}

    # -- 2-cell structure ---------------------------------------------------

    def hom2(self, f: str, g: str) -> tuple[str, ...]:
        """All 2-cells f ⇒ g (f, g parallel 1-cells)."""
        return self.cells_from(f).get(g, ())

    def cells_from(self, f: str) -> dict[str, tuple[str, ...]]:
        """g -> the 2-cells f ⇒ g, for every g that has one."""
        return self._cells_from_index.get(f, {})

    @cached_property
    def _cells_from_index(self) -> dict[str, dict[str, tuple[str, ...]]]:
        return {f: _index(cells, self.cell_dst.get)
                for f, cells in _index(self.cells, self.cell_src.get).items()}

    def vcomp(self, b: str, a: str) -> str:
        """b⊙a: first a, then b."""
        try:
            return self.vcomp_table[(b, a)]
        except KeyError:
            raise StructureError(f"2-cells not vertically composable: {b} after {a}") from None

    def hcomp(self, b: str, a: str) -> str:
        """b∗a: the given entry, else (b∗i_f′)⊙(i_g∗a) for a: f ⇒ f′, b: g ⇒ g′."""
        try:
            if self.given_hcomp is not None:
                return self.given_hcomp[(b, a)]
            return self.vcomp_table[(self.right_rows[self.cell_dst[a]][b],
                                     self.left_rows[self.cell_src[b]][a])]
        except KeyError:
            raise StructureError(f"2-cells not horizontally composable: {b} beside {a}") from None

    def whisker_left(self, f: str, gamma: str) -> str:
        """i_f ∗ γ, for γ over some g: A→B and f: B→C."""
        try:
            return self.left_rows[f][gamma]
        except KeyError:
            raise StructureError(f"cannot whisker {gamma} by {f} on the left") from None

    def whisker_right(self, gamma: str, f: str) -> str:
        """γ ∗ i_f, for f: A→B and γ over some g: B→C."""
        try:
            return self.right_rows[f][gamma]
        except KeyError:
            raise StructureError(f"cannot whisker {gamma} by {f} on the right") from None

    @cached_property
    def left_rows(self) -> dict[str, dict[str, str]]:
        return self._rows_from_table(True)

    @cached_property
    def right_rows(self) -> dict[str, dict[str, str]]:
        return self._rows_from_table(False)

    def _rows_from_table(self, left: bool) -> dict[str, dict[str, str]]:
        """The given table's entries i_h∗a (or a∗i_h), per 1-cell h, in `cells` order."""
        ht, id2, beside = self.given_hcomp, self.id2, self._cells_by_end[left]
        end = (self.mor_dst, self.mor_src)[left]
        return {h: {a: r for a in beside.get(end[h], ())
                    if (r := ht.get((id2.get(h), a) if left else (a, id2.get(h)))) is not None}
                for h in self.mors}

    @cached_property
    def _cells_by_end(self) -> tuple[dict, dict]:
        """(object -> 2-cells over 1-cells out of it, object -> those into it), in `cells` order."""
        return tuple(_index(self.cells, lambda a, end=end: end[self.cell_src[a]])
                     for end in (self.mor_src, self.mor_dst))

    @cached_property
    def hcomp_table(self) -> dict[tuple[str, str], str]:
        """b∗a for every composable pair: the given table, or derived b-major in `cell_src` order."""
        if self.given_hcomp is not None:
            return self.given_hcomp
        landing = _index(self.cell_src, lambda a: self.mor_dst[self.cell_src[a]])
        return {(b, a): self.hcomp(b, a) for b in self.cell_src
                for a in landing.get(self.mor_src[self.cell_src[b]], ())}

    @cached_property
    def _inverse2(self) -> dict[str, str]:
        """cell -> vcomp-inverse, for exactly the invertible 2-cells."""
        inv: dict[str, str] = {}
        for a in self.cells:
            f, g = self.cell_src[a], self.cell_dst[a]
            for b in self.hom2(g, f):
                if (
                    self.vcomp_table.get((b, a)) == self.id2[f]
                    and self.vcomp_table.get((a, b)) == self.id2[g]
                ):
                    inv[a] = b
                    break
        return inv

    def inverse2(self, gamma: str) -> str | None:
        """The vcomp-inverse of gamma, or None (exhaustive scan, cached)."""
        return self._inverse2.get(gamma)

    def is_invertible2(self, gamma: str) -> bool:
        return gamma in self._inverse2

    def invertible_cells(self, f: str, g: str) -> tuple[str, ...]:
        return self.invertible_from(f).get(g, ())

    def invertible_from(self, f: str) -> dict[str, tuple[str, ...]]:
        """g -> the invertible 2-cells f ⇒ g, for every g that has one."""
        return self._invertible_from_index.get(f, {})

    @cached_property
    def _invertible_from_index(self) -> dict[str, dict[str, tuple[str, ...]]]:
        invertible = [a for a in self.cells if a in self._inverse2]
        return {f: _index(cells, self.cell_dst.get)
                for f, cells in _index(invertible, self.cell_src.get).items()}

    # -- the slot `fractions` owns ------------------------------------------

    _fractions = None  # its class stores, one per W, and what they share; set on first use


# ---------------------------------------------------------------------------
# validation


class Report:
    """Named verdicts of one check, each failure with its first witness.

    `structural` lists the problems that stopped the check.  The names
    given are declared passing; any other enters when it first fails.
    """

    def __init__(self, names=()):
        self.structural: list[str] = []
        self.verdicts: dict[str, bool] = dict.fromkeys(names, True)
        self.counterexamples: dict[str, object] = {}

    @property
    def ok(self) -> bool:
        return not self.structural and all(self.verdicts.values())

    def fail(self, name: str, witness) -> None:
        """Record that `name` fails; only its first witness is kept."""
        if self.verdicts.get(name, True):
            self.verdicts[name] = False
            self.counterexamples[name] = witness

    def lines(self) -> list[str]:
        return [f"structural: {msg}" for msg in self.structural] + [
            f"{name}: {witness!r}" for name, witness in self.counterexamples.items()]


def _index(items, key) -> dict[object, tuple]:
    """key(x) -> the tuple of items x with that key, in the order given."""
    out: dict = {}
    for x in items:
        out.setdefault(key(x), []).append(x)
    return {k: tuple(v) for k, v in out.items()}


def _check_domain(table: dict, start: dict, end: dict, name: str, gripe) -> set:
    """Gripe at the missing, then the non-composable keys of `table`; return the latter.

    A key (b, a) is composable iff start[b] = end[a].  The composable pairs
    are counted, Σ_x |end⁻¹(x)|·|start⁻¹(x)|, and listed, to name the
    missing ones in sorted order, only when the table has fewer of them.
    """
    stray = {(b, a) for b, a in table if b not in start or start[b] != end.get(a)}
    outs = Counter(start.values())
    if len(table) - len(stray) != sum(n * outs[x] for x, n in Counter(end.values()).items()):
        starting = _index(start, start.get)
        pairs = {(b, a) for a in end for b in starting.get(end[a], ())}
        for pair in sorted(pairs - table.keys()):
            gripe(f"{name} missing entry for {pair}")
    for pair in sorted(stray):
        gripe(f"{name} has a non-composable entry {pair}")
    return stray


def _check_structure(c: TwoCat, report: Report) -> bool:
    """Referential integrity and table totality; False aborts law checking."""
    bad = False

    def gripe(msg: str) -> None:
        nonlocal bad
        bad = True
        report.structural.append(msg)

    objset = set(c.objects)
    if len(c.objects) != len(objset):
        gripe("duplicate object identifiers")
    if not objset:
        gripe("no objects declared")
    for f in c.mor_src:
        if c.mor_src[f] not in objset or c.mor_dst.get(f) not in objset:
            gripe(f"1-cell {f} has a dangling endpoint")
    if set(c.mor_dst) != set(c.mor_src):
        gripe("mor_src and mor_dst disagree on declared 1-cells")
    for obj in sorted(objset):
        e = c.id1.get(obj)
        if e is None:
            gripe(f"no identity 1-cell for object {obj}")
        elif e not in c.mor_src or c.mor_src[e] != obj or c.mor_dst[e] != obj:
            gripe(f"id1[{obj}] = {e} is not an endo-1-cell of {obj}")
    if bad:
        return False

    morset = set(c.mor_src)
    stray = _check_domain(c.comp1, c.mor_src, c.mor_dst, "compose1", gripe)
    for (g, f), h in c.comp1.items():
        if h not in morset:
            gripe(f"compose1[{(g, f)}] = {h} is not a declared 1-cell")
        elif (g, f) not in stray and (c.mor_src[h], c.mor_dst[h]) != (c.mor_src[f], c.mor_dst[g]):
            gripe(f"compose1[{(g, f)}] = {h} has the wrong boundary")

    for a in c.cell_src:
        sf, df = c.cell_src[a], c.cell_dst.get(a)
        if sf not in morset or df not in morset:
            gripe(f"2-cell {a} has a dangling boundary 1-cell")
        elif (c.mor_src[sf], c.mor_dst[sf]) != (c.mor_src[df], c.mor_dst[df]):
            gripe(f"2-cell {a}: boundary 1-cells {sf}, {df} are not parallel")
    if set(c.cell_dst) != set(c.cell_src):
        gripe("cell_src and cell_dst disagree on declared 2-cells")
    for f in sorted(morset):
        i = c.id2.get(f)
        if i is None:
            gripe(f"no identity 2-cell for 1-cell {f}")
        elif i not in c.cell_src or c.cell_src[i] != f or c.cell_dst[i] != f:
            gripe(f"id2[{f}] = {i} is not an endo-2-cell of {f}")
    if bad:
        return False

    cellset = set(c.cell_src)
    stray = _check_domain(c.vcomp_table, c.cell_src, c.cell_dst, "vcomp", gripe)
    for (b, a), r in c.vcomp_table.items():
        if r not in cellset:
            gripe(f"vcomp[{(b, a)}] = {r} is not a declared 2-cell")
        elif (b, a) not in stray and (
                c.cell_src[r], c.cell_dst[r]) != (c.cell_src[a], c.cell_dst[b]):
            gripe(f"vcomp[{(b, a)}] = {r} has the wrong boundary")

    if c.given_hcomp is None:  # built from whiskerings: the rows stand in for hcomp
        morsets = (_index(c.mors, c.mor_src.get), _index(c.mors, c.mor_dst.get))
        for left, rows in ((True, c.left_rows), (False, c.right_rows)):
            side, beside = ("left", "right")[not left], c._cells_by_end[left]
            for h in sorted(rows.keys() - morset):
                gripe(f"{side} whisker row for an undeclared 1-cell {h}")
            for h in c.mors:
                row, end = rows.get(h, {}), (c.mor_dst, c.mor_src)[left][h]
                if list(row) != list(beside.get(end, ())):
                    gripe(f"{side} whisker row of {h} is not keyed by the 2-cells beside it, in order")
                    continue
                composite = {f: c.comp1.get((h, f) if left else (f, h))  # the 1-cells beside h
                             for f in morsets[left].get(end, ())}
                for a, r in row.items():
                    if r not in cellset or (c.cell_src[r], c.cell_dst[r]) != (
                            composite[c.cell_src[a]], composite[c.cell_dst[a]]):
                        gripe(f"{side} whisker of {a} by {h} is {r}, not a 2-cell of its boundary")
        return not bad
    starts = {a: c.mor_src[f] for a, f in c.cell_src.items()}
    ends = {a: c.mor_dst[f] for a, f in c.cell_src.items()}
    stray = _check_domain(c.hcomp_table, starts, ends, "hcomp", gripe)
    for (b, a), r in c.hcomp_table.items():
        if r not in cellset:
            gripe(f"hcomp[{(b, a)}] = {r} is not a declared 2-cell")
        elif (b, a) not in stray:
            want_src = c.comp1.get((c.cell_src[b], c.cell_src[a]))
            want_dst = c.comp1.get((c.cell_dst[b], c.cell_dst[a]))
            if c.cell_src[r] != want_src or c.cell_dst[r] != want_dst:
                gripe(f"hcomp[{(b, a)}] = {r} has the wrong boundary")
    return not bad


def _generators(items, units, table: dict, src: dict, dst: dict) -> list[str]:
    """A set S of `items` from which left composition in `table` reaches every item.

    `table[(s, x)]` is s after x, defined when dst x = src s, and `units`
    are the identities: the 1-cells under comp1, or the 2-cells under
    vcomp, whose S then holds generators of every hom-category.  The items
    reached start as the units and are kept closed under x ↦ s∘x for
    s ∈ S; an item not reached when its turn comes joins S.  So, in the
    order in which items are reached, each one is a unit, a member of S,
    or s∘x with s ∈ S and x reached earlier.  S follows the order of
    `items`, never that of a set.
    """
    gens: list[str] = []
    gens_from: dict[str, list[str]] = {}     # src -> members of S starting there
    reached_into: dict[str, list[str]] = {}  # dst -> reached items ending there
    reached: set[str] = set()

    def close(todo: list[str]) -> None:
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                reached_into.setdefault(dst[y], []).append(y)
                todo += [table[(s, y)] for s in gens_from.get(dst[y], ())]

    close(list(units))
    for f in items:
        if f not in reached:
            gens.append(f)
            gens_from.setdefault(src[f], []).append(f)
            close([f] + [table[(f, x)] for x in reached_into.get(src[f], ())])
    return gens


def _is_two_category(c: TwoCat) -> bool:
    """Decide the strict 2-category laws on tables that pass `_check_structure`.

    Write L_h = i_h∗− and R_h = −∗i_h for the whisker rows.  The tables
    are lawful when the rows are the whiskerings of a strict 2-category
    and every hcomp entry b∗a, with a: f1 ⇒ f2 and b: g1 ⇒ g2, is

        (W)  b∗a = R_{f2}b ⊙ L_{g1}a,

    as `TwoCat.hcomp` defines it for a table built from whiskerings.  Let
    S be the `_generators` of the 1-cells under comp1, and G those of the
    2-cells under vcomp.  Checked in full: the compose1 and vcomp unit
    laws, that L_id and R_id are identity maps, L_g i_f = R_f i_g =
    i_{g∘f}, and (W) for each given entry whose cells are not identities
    (at i_g∗a and b∗i_f it holds by the last two checks and the vcomp unit
    laws).  Checked for b ∈ G, every 1-cell h other than an identity, and
    every d and a with d⊙b⊙a defined:

        (V)  (d⊙b)⊙a = d⊙(b⊙a);
        (F)  L_h(b⊙a) = L_h b ⊙ L_h a  and  R_h(b⊙a) = R_h b ⊙ R_h a.

    Checked for s, s′ ∈ S, every composable 1-cell g, d and e (g and d
    not identities, where the unit checks give these), and a ∈ G:

        (A)  (s∘g)∘e = s∘(g∘e);
        (L)  L_s L_g a = L_{s∘g} a;
        (R)  R_d R_s a = R_{s∘d} a;
        (M)  R_{s′} L_s a = L_s R_{s′} a;
        (I)  R_{f2}b ⊙ L_{g1}a = L_{g2}a ⊙ R_{f1}b, for b ∈ G too.

    Each check is an instance of the laws, so lawful tables pass.  The
    converse takes five steps.

    (v) vcomp-assoc, by Light's test: the b for which (V) holds for all d
    and a contain the identities, by the unit laws, and are closed under
    ⊙, as (d⊙(b⊙b′))⊙a = ((d⊙b)⊙b′)⊙a = (d⊙b)⊙(b′⊙a) = d⊙(b⊙(b′⊙a))
    = d⊙((b⊙b′)⊙a) by (V) at b, b′, b and b′.  In the order in which
    `_generators` reaches 2-cells, each b is an identity, in G, or b′⊙x
    with b′ ∈ G and x reached earlier, so (V) holds for every b.

    (f) Functors: every L_h and R_h keeps identities and ⊙, so two
    composites of them that agree on G and on identities agree on every
    2-cell, and (L), (R) and (M) hold for every a.  Along the order of
    (v), L_h((b′⊙x)⊙a) = L_h b′ ⊙ L_h(x⊙a) = L_h(b′⊙x) ⊙ L_h a by (F) for
    b′ and x and vcomp-assoc; likewise for R_h.

    (b) 1-cells: (A), (L), (R) and (M) hold with any 1-cells in place of
    s and s′, by induction along the order in which `_generators` reaches
    1-cells.  For an identity they follow from the unit checks.  For s ∈ S
    they were checked.  For s∘x with x reached earlier:

    * (A): ((s∘x)∘g)∘e = (s∘(x∘g))∘e = s∘((x∘g)∘e) = s∘(x∘(g∘e))
      = (s∘x)∘(g∘e), by (A) at s, s, x and s; the steps below use (A) at
      any 1-cell;
    * (L): L_{(s∘x)∘g} = L_s L_{x∘g} = L_s L_x L_g = L_{s∘x} L_g;
    * (R): R_{(s∘x)∘d} = R_{x∘d} R_s = R_d R_x R_s = R_d R_{s∘x};
    * (M): R_{s∘x} = R_x R_s and L_{s∘x} = L_s L_x by (R) and (L), so (M)
      at s∘x, on either side, follows from (M) at s and x.

    (c) Interchange: (I) holds for all a and b.  Fix b.  The a for which
    (I) holds contain the identities, as R_{f}b ⊙ L_{g1}i_f = R_{f}b =
    L_{g2}i_f ⊙ R_{f}b, and are closed under ⊙, by (F) for L:

        R_{f3}b ⊙ L_{g1}(a2⊙a) = L_{g2}a2 ⊙ R_{f2}b ⊙ L_{g1}a
                               = L_{g2}(a2⊙a) ⊙ R_{f1}b.

    By the induction of (f), (I) holds for b ∈ G and every a.  Now fix any
    a; the same argument in b, by (F) for R, gives (I) for every b.

    (a) Whiskering: with (W), (I), and (A) to (M) for all 1-cells, hcomp
    is associative and interchanges; its unit laws follow from (W) and the
    unit checks.  The structure check fixes the boundary of every
    composite (d∗b runs from k1∘g1), which the formulas below read.  Take
    d: k1 ⇒ k2 after b after a, and a2: f2 ⇒ f3, b2: g2 ⇒ g3.  Then, up to
    brackets (vcomp-assoc),

    * (d∗b)∗a = R_{f2}(R_{g2}d ⊙ L_{k1}b) ⊙ L_{k1∘g1}a
      = R_{g2∘f2}d ⊙ L_{k1}R_{f2}b ⊙ L_{k1}L_{g1}a
      = R_{g2∘f2}d ⊙ L_{k1}(R_{f2}b ⊙ L_{g1}a) = d∗(b∗a), by (F), (R),
      (M) and (L);
    * (b2⊙b)∗(a2⊙a) = R_{f3}b2 ⊙ (R_{f3}b ⊙ L_{g1}a2) ⊙ L_{g1}a
      = R_{f3}b2 ⊙ (L_{g2}a2 ⊙ R_{f2}b) ⊙ L_{g1}a = (b2∗a2)⊙(b∗a), by (F),
      (W) and (I) for b∗a2.

    Cost.  (V) walks the 2-cells before and after each generator, where
    `validate`'s loop walks every vcomp entry against the 2-cells after
    it.  (W) reads two row entries per given entry that is not a
    whiskering; a table built from whiskerings has none, so no hcomp entry
    is derived.  The unit and identity checks read two row entries per
    2-cell and per comp1 entry, (F) one per (h, b) and two per a after b,
    (L) and (R) three per generator a, (M) one per (s, a) and three per
    s′, and (I) four per pair of generators: 132 pairs on the
    catalog Unit, Pair2, Disc3, where hcomp has 4,740 entries, and 6,424 on
    the 4-groupoid catalog, where it has 727,484.
    """
    mors, cells = c.mors, c.cells
    comp1, vt, id1, id2 = c.comp1, c.vcomp_table, c.id1, c.id2
    L, R = c.left_rows, c.right_rows  # L[h] = i_h∗−, R[h] = −∗i_h
    mor_src, mor_dst = c.mor_src, c.mor_dst
    cell_src, cell_dst = c.cell_src, c.cell_dst

    if any(comp1[(f, id1[mor_src[f]])] != f or comp1[(id1[mor_dst[f]], f)] != f
           for f in mors):
        return False
    if any(vt[(a, id2[cell_src[a]])] != a or vt[(id2[cell_dst[a]], a)] != a
           for a in cells):
        return False
    if any(L[g][id2[f]] != id2[gf] or R[f][id2[g]] != id2[gf] for (g, f), gf in comp1.items()):
        return False
    if any(L[id1[mor_dst[cell_src[a]]]][a] != a or R[id1[mor_src[cell_src[a]]]][a] != a
           for a in cells):
        return False
    units = set(id2.values())
    if c.given_hcomp is not None and any(                                # (W)
            vt[(R[cell_dst[a]][b], L[cell_src[b]][a])] != ba
            for (b, a), ba in c.given_hcomp.items() if b not in units and a not in units):
        return False

    S = _generators(mors, id1.values(), comp1, mor_src, mor_dst)
    G = _generators(cells, units, vt, cell_src, cell_dst)
    # 1-cell -> the 2-cells starting at it, and those ending at it
    starting, ending = _index(cells, cell_src.get), _index(cells, cell_dst.get)
    for b in G:                                                           # (V)
        before = ending.get(cell_src[b], ())
        b_before = [vt[(b, a)] for a in before]
        for d in starting.get(cell_dst[b], ()):
            db = vt[(d, b)]
            if any(vt[(db, a)] != vt[(d, ba)] for a, ba in zip(before, b_before)):
                return False

    # by object: the generators over 1-cells into it, out of it, and from z
    # to it; the 1-cells into it, and the members of S into it
    g_into = _index(G, lambda a: mor_dst[cell_src[a]])
    g_from = _index(G, lambda a: mor_src[cell_src[a]])
    g_hom = _index(G, lambda a: (mor_src[cell_src[a]], mor_dst[cell_src[a]]))
    mors_into, s_into = _index(mors, mor_dst.get), _index(S, mor_dst.get)
    C = {h: {g: comp1[(h, g)] for g in mors_into.get(mor_src[h], ())} for h in mors}  # h∘−
    ids = set(id1.values())  # at an identity, (F), (A), (L) and (R) hold by the unit checks

    def image(m: dict, xs) -> list:
        return list(map(m.__getitem__, xs))

    for rows, end, gens in ((L, mor_src, g_into), (R, mor_dst, g_from)):  # (F)
        for h in mors:
            m = rows[h]
            for b in () if h in ids else gens.get(end[h], ()):
                mb = m[b]
                if any(m[vt[(b, a)]] != vt[(mb, m[a])] for a in ending.get(cell_src[b], ())):
                    return False

    for s in S:
        x, y, Ls, Rs, Cs = mor_src[s], mor_dst[s], L[s], R[s], C[s]
        for g in mors_into.get(x, ()):
            if g in ids:
                continue
            sg = Cs[g]
            if image(Cs, C[g].values()) != list(C[sg].values()):           # (A)
                return False
            xs = g_into.get(mor_src[g], ())
            if image(Ls, image(L[g], xs)) != image(L[sg], xs):            # (L)
                return False
            xs = g_from.get(y, ())
            if image(R[g], image(Rs, xs)) != image(R[sg], xs):            # (R)
                return False
        for z in c.objects:
            xs = g_hom.get((z, x), ())
            s_xs = image(Ls, xs)
            if xs and any(image(R[e], s_xs) != image(Ls, image(R[e], xs))
                          for e in s_into.get(z, ())):                    # (M)
                return False

    for b in G:                                                           # (I)
        Lg1, Lg2 = L[cell_src[b]], L[cell_dst[b]]
        if any(vt[(R[cell_dst[a]][b], Lg1[a])] != vt[(Lg2[a], R[cell_src[a]][b])]
               for a in g_into.get(mor_src[cell_src[b]], ())):
            return False
    return True


def validate(c: TwoCat) -> Report:
    """Decide the strict 2-category laws; name a first witness for each failure.

    Structural problems (dangling identifiers, partial tables) are reported
    separately from law failures and suppress them, since a partial table
    makes the law loops meaningless.  The laws are then decided by
    `_is_two_category`, which checks them on the whisker rows, for
    generators of the 1-cells and of each hom-category; its docstring
    proves that this is exact.  Only when it
    says no do the per-law loops below run, to name one counterexample
    tuple per failing law, by identifier: the first one found.

    Those loops visit only composable tuples, through boundary indexes built
    here in the order of `c.mors`, `c.cells` and `c.vcomp_table`, so the
    first counterexample is the one an all-tuples scan in that order would
    find.
    """
    report = Report()
    if not _check_structure(c, report) or _is_two_category(c):
        return report

    mors, cells = c.mors, c.cells
    comp1, vt, ht = c.comp1, c.vcomp_table, c.hcomp_table
    mor_src, mor_dst = c.mor_src, c.mor_dst
    cell_src, cell_dst = c.cell_src, c.cell_dst
    mors_from = _index(mors, mor_src.get)       # object -> 1-cells out of it
    cells_on = _index(cells, cell_src.get)      # 1-cell -> 2-cells out of it
    cells_at = c._cells_by_end[False]             # object -> 2-cells over 1-cells out of it
    vpairs_at = _index(vt, lambda ba: mor_src[cell_src[ba[1]]])  # vcomp pairs by object

    for f in mors:
        ia, ib = c.id1[mor_src[f]], c.id1[mor_dst[f]]
        if comp1[(f, ia)] != f:
            report.fail("compose1-right-unit", (f, ia))
        if comp1[(ib, f)] != f:
            report.fail("compose1-left-unit", (ib, f))
    for (g, f), gf in comp1.items():
        for h in mors_from.get(mor_dst[g], ()):
            if comp1[(comp1[(h, g)], f)] != comp1[(h, gf)]:
                report.fail("compose1-assoc", (h, g, f))

    for a in cells:
        if vt[(a, c.id2[cell_src[a]])] != a:
            report.fail("vcomp-right-unit", (a,))
        if vt[(c.id2[cell_dst[a]], a)] != a:
            report.fail("vcomp-left-unit", (a,))
    for (b, a), ba in vt.items():
        for d in cells_on.get(cell_dst[b], ()):
            if vt[(vt[(d, b)], a)] != vt[(d, ba)]:
                report.fail("vcomp-assoc", (d, b, a))

    for (g, f), gf in comp1.items():
        if c.whisker_left(g, c.id2[f]) != c.id2[gf] or c.whisker_right(c.id2[g], f) != c.id2[gf]:
            report.fail("hcomp-identities", (g, f))
    for a in cells:
        f = cell_src[a]
        ia = c.id2[c.id1[mor_src[f]]]
        ib = c.id2[c.id1[mor_dst[f]]]
        if ht[(a, ia)] != a:
            report.fail("hcomp-right-unit", (a,))
        if ht[(ib, a)] != a:
            report.fail("hcomp-left-unit", (a,))
    for (b, a), ba in ht.items():
        for d in cells_at.get(mor_dst[cell_src[b]], ()):
            if ht[(ht[(d, b)], a)] != ht[(d, ba)]:
                report.fail("hcomp-assoc", (d, b, a))

    # interchange: (b2⊙b1)∗(a2⊙a1) = (b2∗a2)⊙(b1∗a1)
    for (a2, a1), a in vt.items():
        for b2, b1 in vpairs_at.get(mor_dst[cell_src[a1]], ()):
            if ht[(vt[(b2, b1)], a)] != vt[(ht[(b2, a2)], ht[(b1, a1)])]:
                report.fail("interchange", (b2, b1, a2, a1))
    return report


# ---------------------------------------------------------------------------
# internal equivalences


class EquivalenceWitness(NamedTuple):
    """e with quasi-inverse e_bar and invertible delta: id ⇒ ē∘e, xi: e∘ē ⇒ id."""

    e: str
    e_bar: str
    delta: str
    xi: str
    adjoint: bool = False


def witness_problems(c: TwoCat, w: EquivalenceWitness) -> list[str]:
    """Everything wrong with the witness; empty list means it is valid."""
    probs: list[str] = []
    a, b = c.mor_src[w.e], c.mor_dst[w.e]
    if (c.mor_src.get(w.e_bar), c.mor_dst.get(w.e_bar)) != (b, a):
        return [f"quasi-inverse {w.e_bar} has the wrong boundary"]
    ee = c.compose1(w.e_bar, w.e)
    eb = c.compose1(w.e, w.e_bar)
    if (c.cell_src.get(w.delta), c.cell_dst.get(w.delta)) != (c.id1[a], ee):
        probs.append(f"delta {w.delta} is not id_{a} ⇒ {w.e_bar}∘{w.e}")
    if (c.cell_src.get(w.xi), c.cell_dst.get(w.xi)) != (eb, c.id1[b]):
        probs.append(f"xi {w.xi} is not {w.e}∘{w.e_bar} ⇒ id_{b}")
    if probs:
        return probs
    if not c.is_invertible2(w.delta):
        probs.append(f"delta {w.delta} is not invertible")
    if not c.is_invertible2(w.xi):
        probs.append(f"xi {w.xi} is not invertible")
    if w.adjoint and not probs:
        left = c.vcomp(c.whisker_right(w.xi, w.e), c.whisker_left(w.e, w.delta))
        if left != c.id2[w.e]:
            probs.append("first triangle identity fails")
        right = c.vcomp(c.whisker_left(w.e_bar, w.xi), c.whisker_right(w.delta, w.e_bar))
        if right != c.id2[w.e_bar]:
            probs.append("second triangle identity fails")
    return probs


def find_quasi_inverse(c: TwoCat, e: str) -> EquivalenceWitness | None:
    """Exhaustive search for (ē, δ, ξ); lexicographically first hit or None."""
    a, b = c.mor_src[e], c.mor_dst[e]
    for e_bar in c.hom1(b, a):
        for delta in c.invertible_cells(c.id1[a], c.compose1(e_bar, e)):
            for xi in c.invertible_cells(c.compose1(e, e_bar), c.id1[b]):
                return EquivalenceWitness(e, e_bar, delta, xi)
    return None


def internal_equivalences(c: TwoCat) -> frozenset[str]:
    return frozenset(e for e in c.mors if find_quasi_inverse(c, e) is not None)


def adjointify(c: TwoCat, w: EquivalenceWitness) -> EquivalenceWitness:
    """Keep (e, ē, δ) and take ξ' = ξ ⊙ (i_e∗δ⁻¹∗i_ē) ⊙ (ξ⁻¹∗i_{e∘ē}).

    The triangle identities determine the counit of an adjoint equivalence
    by its unit, and this ξ' satisfies them for any valid witness, so a
    built witness that fails them is reported as data corruption.
    """
    if witness_problems(c, w):
        raise StructureError(f"not a valid equivalence witness: {w}")
    middle = c.whisker_left(w.e, c.whisker_right(c.inverse2(w.delta), w.e_bar))
    first = c.whisker_right(c.inverse2(w.xi), c.compose1(w.e, w.e_bar))
    out = EquivalenceWitness(w.e, w.e_bar, w.delta,
                             c.vcomp(w.xi, c.vcomp(middle, first)), adjoint=True)
    probs = witness_problems(c, out)
    if probs:
        raise InternalInconsistency(f"adjoint witness on {w.e} invalid: {probs}")
    return out


def quasi_inverse_witness(c: TwoCat, w: EquivalenceWitness) -> EquivalenceWitness:
    """The witness showing ē is itself an equivalence, via (e, ξ⁻¹, δ⁻¹)."""
    if witness_problems(c, w):
        raise StructureError(f"not a valid equivalence witness: {w}")
    return EquivalenceWitness(w.e_bar, w.e, c.inverse2(w.xi), c.inverse2(w.delta))


def transport_witness(c: TwoCat, w: EquivalenceWitness, gamma: str) -> EquivalenceWitness:
    """Move a witness for e across an invertible γ: e ⇒ ẽ.

    New witness: (ē, (i_ē∗γ)⊙δ, ξ⊙(γ⁻¹∗i_ē)).
    """
    if witness_problems(c, w):
        raise StructureError(f"not a valid equivalence witness: {w}")
    g_inv = c.inverse2(gamma)
    if g_inv is None:
        raise StructureError(f"transporting 2-cell {gamma} is not invertible")
    if c.cell_src[gamma] != w.e:
        raise StructureError(f"{gamma} does not start at {w.e}")
    e_new = c.cell_dst[gamma]
    delta_new = c.vcomp(c.whisker_left(w.e_bar, gamma), w.delta)
    xi_new = c.vcomp(w.xi, c.whisker_right(g_inv, w.e_bar))
    return EquivalenceWitness(e_new, w.e_bar, delta_new, xi_new)


def equivalence_of_composite(
    c: TwoCat, wf: EquivalenceWitness, wg: EquivalenceWitness
) -> EquivalenceWitness:
    """Witness for f∘g from witnesses for f and g, quasi-inverse ḡ∘f̄.

    δ = (i_ḡ ∗ δ_f ∗ i_g) ⊙ δ_g and ξ = ξ_f ⊙ (i_f ∗ ξ_g ∗ i_f̄), the strict
    form of the usual pasting.
    """
    f, g = wf.e, wg.e
    if c.mor_dst[g] != c.mor_src[f]:
        raise StructureError(f"1-cells not composable: {f} after {g}")
    fg = c.compose1(f, g)
    qinv = c.compose1(wg.e_bar, wf.e_bar)
    delta = c.vcomp(
        c.whisker_left(wg.e_bar, c.whisker_right(wf.delta, g)),
        wg.delta,
    )
    xi = c.vcomp(
        wf.xi,
        c.whisker_left(f, c.whisker_right(wg.xi, wf.e_bar)),
    )
    out = EquivalenceWitness(fg, qinv, delta, xi)
    probs = witness_problems(c, out)
    if probs:
        raise InternalInconsistency(f"composite witness invalid: {probs}")
    return out


def equivalence_from_cancellation(
    c: TwoCat,
    f: str,
    g: str,
    h: str,
    w_fg: EquivalenceWitness,
    w_gh: EquivalenceWitness,
) -> tuple[EquivalenceWitness, EquivalenceWitness, EquivalenceWitness]:
    """Given f∘g and g∘h equivalences, witnesses for f, g and h themselves.

    For the chain h: D→C, g: C→B, f: B→A, with m quasi-inverse of f∘g and
    l quasi-inverse of g∘h:

    * f gets quasi-inverse g∘m, with ξ_f = ξ¹ and δ_f pasted from δ¹ and ξ²;
    * g gets quasi-inverse m∘f, with δ_g = δ¹ and ξ_g = δ_f⁻¹;
    * h gets quasi-inverse l∘g, with δ_h = δ² and ξ_h conjugated from ξ².
    """
    if w_fg.e != c.compose1(f, g) or w_gh.e != c.compose1(g, h):
        raise StructureError("witnesses do not match the stated composites")
    for wit in (w_fg, w_gh):
        probs = witness_problems(c, wit)
        if probs:
            raise StructureError(f"invalid composite witness: {probs}")
    m, l = w_fg.e_bar, w_gh.e_bar
    d1, x1 = w_fg.delta, w_fg.xi
    d2, x2 = w_gh.delta, w_gh.xi

    u = c.compose1(g, m)                       # candidate quasi-inverse of f
    x2_inv = c.inverse2(x2)
    hl = c.compose1(h, l)
    delta_f = c.vcomp(
        c.whisker_left(c.compose1(u, f), x2),
        c.vcomp(
            c.whisker_right(c.whisker_left(g, d1), hl),
            x2_inv,
        ),
    )
    w_f = EquivalenceWitness(f, u, delta_f, x1)

    delta_f_inv = c.inverse2(delta_f)
    if delta_f_inv is None:
        raise InternalInconsistency("pasted delta for f is not invertible")
    w_g = EquivalenceWitness(g, c.compose1(m, f), d1, delta_f_inv)

    gbar = w_g.e_bar
    # ξ_h: h∘(l∘g) ⇒ id_C, conjugating the whiskered ξ² by δ_g on both sides.
    delta_g = w_g.delta
    delta_g_inv = c.inverse2(delta_g)
    xi_h = c.vcomp(
        delta_g_inv,
        c.vcomp(
            c.whisker_left(gbar, c.whisker_right(x2, g)),
            c.whisker_right(delta_g, c.compose1(hl, g)),
        ),
    )
    w_h = EquivalenceWitness(h, c.compose1(l, g), d2, xi_h)

    for label, wit in (("f", w_f), ("g", w_g), ("h", w_h)):
        probs = witness_problems(c, wit)
        if probs:
            raise InternalInconsistency(f"cancellation witness for {label}: {probs}")
    return w_f, w_g, w_h
