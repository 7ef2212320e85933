"""Localization of a finite strict 2-category at a class W of 1-cells.

1-cells of the localized bicategory are spans (apex, w, f) with the
denominator w ∈ W pointing back at the source; 2-cells are equivalence
classes of representatives

    (apex A3, v1, v2, alpha: w1∘v1 ⇒ w2∘v2, beta: f1∘v1 ⇒ f2∘v2)

with w1∘v1 ∈ W and alpha invertible (beta is unconstrained).  Two
representatives are identified when they are connected by a chain of
refinements r ↦ (E, v1∘p, v2∘p, alpha∗i_p, beta∗i_p) along any
p: E → A3 keeping the denominator leg in W.

Classes are output-sensitive.  A store (`_HomPartitions`) sweeps the
representatives out of a span once, partitions a hom only when it is
asked for, and keeps its classes as code lists and integer labels, so a
FractionCell is made only when one is asked for.  The classes depend only
on (C, W), not on the fillers: one store per (C, W) is kept in C's slot
for this module, and it alone checks input (W once, each span once, a
representative by membership).  A representative is one int, whose order
is the order of its names; only C's `Numbering`, shared by its stores,
builds, refines or unpacks these codes; other modules read classes
through `Localization`, whose keys are opaque to them.  Classes are
defined on tables that pass `validate`.

A `Localization` is C[W⁻¹] for one choice of fillers: `build_choices`
picks a filler for every cospan (f, v ∈ W), honouring C1 (f an
identity), C2 (v an identity) and C3 (f = v ∈ W), which make
identity spans strict units.  Every operation on spans and 2-cells takes
it first and reads the store of its (C, W); `hom_fraction_cells`,
`is_internal_equiv_closed_form` and `u_mor` keep a (c, w) form for the
benchmark.  Vertical composition and the whiskerings come from fresh
filler/lift searches, deterministic by their lexicographic order.

A span is an internal equivalence iff its numerator lies in W_sat, and
its quasi-inverse is built from a saturation witness, not searched for
(`is_internal_equiv_search`, which keeps that name for the benchmark).

Argument order is diagrammatic throughout: `compose_fractions(loc, s, t)`
applies s first, and `vcomp_fraction(loc, c1, c2)` applies c1 first.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple, Optional

from .core import InternalInconsistency, StructureError, TwoCat
from .saturation import _as_class, fill_cospan, lift_cell, saturation_witnesses


class Span(NamedTuple):
    """A 1-cell of the localization: denominator w, numerator f."""

    apex: str
    w: str
    f: str


class CellRep(NamedTuple):
    """One representative of a 2-cell between `src_span` and `dst_span`."""

    src_span: Span
    dst_span: Span
    apex: str
    v1: str
    v2: str
    alpha: str
    beta: str


def span_src(c: TwoCat, s: Span) -> str:
    return c.mor_dst[s.w]


def span_dst(c: TwoCat, s: Span) -> str:
    return c.mor_dst[s.f]


def span_problems(c: TwoCat, w, s: Span) -> list[str]:
    out = []
    if s.apex not in c.objects:
        return [f"apex {s.apex!r} is not an object"]
    for leg in (s.w, s.f):
        if leg not in c.mor_src:
            out.append(f"leg {leg!r} is not a 1-cell")
        elif c.mor_src[leg] != s.apex:
            out.append(f"leg {leg!r} does not start at the apex")
    if not out and s.w not in w:
        out.append(f"denominator {s.w!r} is not in W")
    return out


def identity_span(c: TwoCat, a: str) -> Span:
    if a not in c.id1:
        raise StructureError(f"{a!r} is not an object")
    return Span(a, c.id1[a], c.id1[a])


def u_mor(c: TwoCat, w, f: str) -> Span:
    """The canonical span presenting an ambient 1-cell.

    `w` is not read: `bench/workloads.py` calls this form until the next
    benchmark change.
    """
    if f not in c.mor_src:
        raise StructureError(f"{f!r} is not a 1-cell")
    return Span(c.mor_src[f], c.id1[c.mor_src[f]], f)


def rep_problems(c: TwoCat, w, rep: CellRep) -> list[str]:
    out = span_problems(c, w, rep.src_span) + span_problems(c, w, rep.dst_span)
    if out:
        return out
    s1, s2 = rep.src_span, rep.dst_span
    if span_src(c, s1) != span_src(c, s2) or span_dst(c, s1) != span_dst(c, s2):
        return ["source and target spans are not parallel"]
    for v, target in ((rep.v1, s1.apex), (rep.v2, s2.apex)):
        if v not in c.mor_src or c.mor_src[v] != rep.apex or c.mor_dst[v] != target:
            out.append(f"leg {v!r} is not a 1-cell {rep.apex!r} → {target!r}")
    if out:
        return out
    denom = c.compose1(s1.w, rep.v1)
    if denom not in w:
        out.append(f"denominator composite {denom!r} is not in W")
    if c.cell_src.get(rep.alpha) != denom or c.cell_dst.get(rep.alpha) != c.compose1(s2.w, rep.v2):
        out.append(f"alpha {rep.alpha!r} has wrong boundary")
    elif not c.is_invertible2(rep.alpha):
        out.append(f"alpha {rep.alpha!r} is not invertible")
    if (c.cell_src.get(rep.beta) != c.compose1(s1.f, rep.v1)
            or c.cell_dst.get(rep.beta) != c.compose1(s2.f, rep.v2)):
        out.append(f"beta {rep.beta!r} has wrong boundary")
    return out


# ---------------------------------------------------------------------------
# 2-cell classes


class Numbering:
    """Ids of objects, 1-cells and 2-cells in sorted order; the cells out of each f, coded.

    A class member (apex, v1, v2, α, β) is the int
    (((apex·M + v1)·M + v2)·K + α)·K + β over M 1-cells and K 2-cells, so
    numeric order is the tuple's lexicographic order, and no other class
    reads or writes that layout.  It holds no reference to its `TwoCat`,
    whose stores share it (`_Stores`), so `leg` is given the 2-category.
    """

    def __init__(self, c: TwoCat):
        self.objects, self.mors, self.cells = tuple(sorted(c.objects)), c.mors, c.cells
        self.obj_id, self.mor_id, self.cell_id = (
            {x: i for i, x in enumerate(names)} for names in (self.objects, self.mors, self.cells))
        self.m, self.k, self.kk = len(self.mors), len(self.cells), len(self.cells) ** 2
        self.alphas_from = {f: [(g, tuple(self.cell_id[a] * self.k for a in alphas))
                                for g, alphas in c.invertible_from(f).items()] for f in c.mors}
        self.betas_from = {f: [(h, tuple(map(self.cell_id.__getitem__, betas)))
                               for h, betas in c.cells_from(f).items()] for f in c.mors}
        self._legs: dict[str, tuple] = {}

    def base(self, apex: str, v1: str, v2: str) -> int:  # the code with α and β of id 0
        return ((self.obj_id[apex] * self.m + self.mor_id[v1]) * self.m + self.mor_id[v2]) * self.kk

    def members(self, blocks) -> list[int]:
        """The codes of blocks ((apex, v1, v2), α codes of `alphas_from`, β ids of `betas_from`)."""
        return [base + a + b for (apex, v1, v2), alphas, betas in blocks
                for base in (self.base(apex, v1, v2),) for a in alphas for b in betas]

    def encode(self, key: tuple) -> int:  # `KeyError` if key names an unknown cell
        apex, v1, v2, alpha, beta = key
        return self.base(apex, v1, v2) + self.cell_id[alpha] * self.k + self.cell_id[beta]

    def v2_beta(self, code: int) -> tuple[str, str]:  # all that `_swappable` reads
        return self.mors[code // self.kk % self.m], self.cells[code % self.k]

    def decode(self, code: int) -> tuple:
        rest, a, b = code // self.kk, code // self.k % self.k, code % self.k
        apex, v1, v2 = rest // self.m // self.m, rest // self.m % self.m, rest % self.m
        return self.objects[apex], self.mors[v1], self.mors[v2], self.cells[a], self.cells[b]

    def refine(self, code: int, legs) -> list[int]:
        """The codes of (src p, v1∘p, v2∘p, α∗i_p, β∗i_p) for each `leg` p in legs[v1]."""
        m, k, rest = self.m, self.k, code // self.kk
        v1, v2, a, b = rest // m % m, rest % m, code // k % k, code % k
        out = []
        for src, vp, ip in legs[v1]:
            out.append((((src * m + vp[v1]) * m + vp[v2]) * k + ip[a]) * k + ip[b])
        return out

    def leg(self, c: TwoCat, p: str) -> tuple:
        """(src p, v ↦ v∘p, α ↦ α∗i_p) on ids, for the v and α that start at dst p."""
        if p not in self._legs:
            comp1, cell_id = c.comp1, self.cell_id
            self._legs[p] = (self.obj_id[c.mor_src[p]], {
                i: self.mor_id[h] for i, v in enumerate(self.mors)
                if (h := comp1.get((v, p))) is not None}, {
                cell_id[a]: cell_id[h] for a, h in c.right_rows[p].items()})
        return self._legs[p]


class FractionCell:
    """A 2-cell of the localization: a full refinement-equivalence class.

    Compared, hashed and printed by its spans and canonical member only.
    """

    def __init__(self, src_span: Span, dst_span: Span, canonical: CellRep,
                 _keys: tuple[list[int], Numbering]):  # the member codes, least first
        self.src_span, self.dst_span, self.canonical = src_span, dst_span, canonical
        self._keys = _keys

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src_span, self.dst_span, self.canonical) == (
            other.src_span, other.dst_span, other.canonical)

    def __hash__(self):
        return hash((self.src_span, self.dst_span, self.canonical))

    def __repr__(self):
        return (f"FractionCell(src_span={self.src_span!r}, dst_span={self.dst_span!r}, "
                f"canonical={self.canonical!r})")

    @cached_property
    def members(self) -> frozenset[CellRep]:
        codes, coding = self._keys
        return frozenset(CellRep(self.src_span, self.dst_span, *coding.decode(r)) for r in codes)


class _Hom:
    """The classes of one hom: code lists by canonical, each least first.

    `labels` gives each member code its class's position; the
    FractionCells are built on first read, and kept.
    """

    def __init__(self, s1: Span, s2: Span, classes: list[list[int]], labels: dict[int, int], k):
        self.s1, self.s2, self.classes, self.labels, self.k = s1, s2, classes, labels, k

    @cached_property
    def cells(self) -> tuple[FractionCell, ...]:
        s1, s2, k = self.s1, self.s2, self.k
        return tuple(FractionCell(s1, s2, CellRep(s1, s2, *k.decode(codes[0])), (codes, k))
                     for codes in self.classes)


_EMPTY_HOM = _Hom(None, None, [], {}, None)


class _HomPartitions:
    """The 2-cell classes of every hom of the localization at one (C, W).

    Made by `_partitions`, which checks W then and only then, and kept on
    the `TwoCat` with no reference back to it, so it is freed together
    with the 2-category; the methods take the 2-category as an argument.

    Homs live in one table, `_out[s1][s2]`.  The first request for a hom
    out of s1 sweeps every representative out of s1 and fills s1's row,
    one entry per target span (`targets` reads its keys).  An entry is the
    sweep's blocks, ((apex, v1, v2), α codes, β ids), until
    `hom` partitions them into a `_Hom`, kept under the caller's s2; a hom
    with no entry is empty.  `has_invertible` reads either kind of entry
    and builds nothing.  The store keeps what depends on W, such as the
    legs p at each d with d∘p ∈ W (`legs_from`).  Each span is checked once
    (`require_span`): the spans that passed are kept, not the empty homs,
    which would take an entry per empty pair, and a failing span raises on
    every request.  A representative is checked by membership (`label`).
    W_sat and the least saturation witness of each member are computed
    together on first use (`saturation`, `saturation_witness`).

    Partitions are defined on tables that pass `validate`: the shortcut in
    `_partition` rests on its composition laws.

    `counters` records the work done: source spans swept, members of the
    partitioned homs, class members expanded and refinement edges walked.
    """

    def __init__(self, w: frozenset[str]):
        self.w = w
        self._legs: dict[str, tuple] = {}  # d ↦ `Numbering.leg` of each leg p with d∘p ∈ W
        self._legs_from: dict[str, dict] = {}  # w1 ↦ `legs_from`
        self._out: dict[Span, dict[Span, list[tuple] | _Hom]] = {}
        self._spans: set[Span] = set()  # spans that passed `span_problems`
        self._saturation: Optional[frozenset[str]] = None
        self._witnesses: dict[str, str] = {}  # f ∈ W_sat ↦ its least g
        self.counters = dict.fromkeys(
            ("sweeps", "representatives", "members_expanded", "refinement_edges"), 0)

    def hom(self, c: TwoCat, s1: Span, s2: Span) -> _Hom:
        row = self._swept(c, s1)
        found = row.get(s2)
        if found is None:
            self.require_span(c, s2)
            return _EMPTY_HOM
        if not isinstance(found, _Hom):
            found = self._partition(c, s1, s2, found)
            del row[s2]  # re-keyed by the caller's s2, which the classes already hold
            row[s2] = found
        return found

    def has_invertible(self, c: TwoCat, s1: Span, s2: Span) -> bool:
        """Is some 2-cell s1 ⇒ s2 invertible?  Read off the sweep; no class is built.

        A class is invertible iff a member passes `_swappable` (α is always
        invertible), and the classes partition the hom's representatives,
        so this holds iff one of them passes it.  A built hom's members are
        the keys of its `labels`; `_swappable` does not read α, so a block
        is tested once per β, with no α.
        """
        entry, k = self._swept(c, s1).get(s2), c._fractions.numbering
        if entry is None:
            self.require_span(c, s2)
            return False
        pairs = map(k.v2_beta, entry.labels) if isinstance(entry, _Hom) else (
            (head[2], k.cells[b]) for head, _alphas, betas in entry for b in betas)
        return any(_swappable(c, self.w, s2.w, v2, beta) for v2, beta in pairs)

    def targets(self, c: TwoCat, s1: Span):
        """Every s2 with a 2-cell s1 ⇒ s2: the keys of s1's row."""
        return self._swept(c, s1).keys()

    def _swept(self, c: TwoCat, s1: Span) -> dict[Span, list[tuple] | _Hom]:
        """The row of homs out of s1, sweeping s1 on first use."""
        row = self._out.get(s1)
        if row is None:
            self.require_span(c, s1)
            row = self._out[s1] = self._sweep(c, s1)
        return row

    def require_span(self, c: TwoCat, s: Span) -> None:
        if s not in self._spans:
            problems = span_problems(c, self.w, s)
            if problems:
                raise StructureError("; ".join(problems))
            self._spans.add(s)

    def cell(self, c: TwoCat, rep: CellRep, built_by: str = "") -> FractionCell:
        """The class of rep, found by rep's code in its swept hom."""
        try:
            hom = self.hom(c, rep.src_span, rep.dst_span)
        except StructureError:  # a bad span: `label` names it
            hom = _EMPTY_HOM
        return hom.cells[self.label(c, hom, rep, built_by)]

    def label(self, c: TwoCat, hom: _Hom, rep: CellRep, built_by: str = "") -> int:
        """The position in hom, rep's own, of rep's class; a miss raises what is wrong.

        On tables that pass `validate`, the sweep out of a valid s1 yields
        exactly the tuples `rep_problems` accepts: it takes every v1 with
        w1∘v1 ∈ W, every invertible α out of w1∘v1 and β out of f1∘v1, and
        reads w2 ∈ W, v2 and f2 off the composition table; the target
        (cod v2, w2, f2) is parallel to s1 since 2-cells join parallel
        1-cells.  So only a miss runs `rep_problems`, to raise what is wrong
        (`InternalInconsistency` if the operation `built_by` made rep).
        """
        try:
            return hom.labels[c._fractions.numbering.encode(rep[2:])]
        except KeyError:  # an unknown cell, or not a member
            pass
        problems = "; ".join(rep_problems(c, self.w, rep))
        if not problems:
            raise InternalInconsistency(f"valid representative {rep} is missing from its hom")
        if built_by:
            raise InternalInconsistency(f"{built_by} produced an invalid representative: {problems}")
        raise StructureError(problems)

    def saturation(self, c: TwoCat) -> frozenset[str]:
        """W_sat, computed on first use together with its witnesses."""
        if self._saturation is None:
            self._witnesses = saturation_witnesses(c, self.w)
            self._saturation = frozenset(self._witnesses)
        return self._saturation

    def saturation_witness(self, c: TwoCat, f: str) -> Optional[str]:
        """The least g with f∘g ∈ W and g∘h ∈ W for some h; None iff f ∉ W_sat."""
        self.saturation(c)
        return self._witnesses.get(f)

    def legs_from(self, c: TwoCat, w1: str) -> dict[int, tuple]:
        """v1's id ↦ the legs at w1∘v1 for each v1 with w1∘v1 ∈ W, as `Numbering.refine` reads."""
        legs = self._legs_from.get(w1)
        if legs is None:
            k, a = c._fractions.numbering, c.mor_src[w1]
            legs = self._legs_from[w1] = {
                k.mor_id[v1]: self._legs_at(c, d) for b in k.objects
                for v1 in c.hom1(b, a) if (d := c.comp1[(w1, v1)]) in self.w}
        return legs

    def _legs_at(self, c: TwoCat, d: str) -> tuple:
        """`Numbering.leg` of each p ≠ id (which refines nothing) with d∘p ∈ W."""
        legs = self._legs.get(d)
        if legs is None:
            a, k = c.mor_src[d], c._fractions.numbering
            legs = self._legs[d] = tuple(k.leg(c, p) for b in k.objects for p in c.hom1(b, a)
                                         if p != c.id1[a] and c.comp1[(d, p)] in self.w)
        return legs

    def _sweep(self, c: TwoCat, s1: Span) -> dict[Span, list[tuple]]:
        """Every representative out of s1, as blocks grouped by target.

        Only representatives that exist are visited: for each v1 with
        w1∘v1 ∈ W, each invertible alpha: w1∘v1 ⇒ g, each factorisation
        g = w2∘v2 with w2 ∈ W, each beta out of f1∘v1 with target h, and
        each f2 with f2∘v2 = h give one representative
        (apex, v1, v2, alpha, beta) of the hom s1 ⇒ (B, w2, f2), where B
        is the target of v2.  A block holds those of one (v1, g, v2, h, f2).
        """
        k, w, comp1, mor_dst = c._fractions.numbering, self.w, c.comp1, c.mor_dst
        groups: dict[tuple, list[tuple]] = {}
        for apex in k.objects:
            for v1 in c.hom1(apex, s1.apex):
                denom = comp1[(s1.w, v1)]
                if denom not in w:
                    continue
                betas_to = k.betas_from[comp1[(s1.f, v1)]]
                for g, alphas in k.alphas_from[denom]:
                    for w2, v2 in c.factorisations(g):
                        if w2 not in w:
                            continue
                        head = (apex, v1, v2)
                        for h, betas in betas_to:
                            for f2 in c.left_factors(v2, h):
                                groups.setdefault((mor_dst[v2], w2, f2), []).append(
                                    (head, alphas, betas))
        self.counters["sweeps"] += 1
        return {Span._make(s2): blocks for s2, blocks in groups.items()}

    def _partition(self, c: TwoCat, s1: Span, s2: Span, blocks: list[tuple]) -> _Hom:
        """Join the members s1 ⇒ s2 along refinements, labelling each once.

        The blocks are expanded into member codes, which are visited in
        order, and each member r not yet reached is expanded under a fresh
        class label: every refinement r·p that is a member and not yet
        reached takes r's label at once.  A reached member is not expanded.
        It would join nothing new: for a leg q of r·p, (r·p)·q = r·(p∘q),
        and p∘q is the identity or a leg of r, so r reaches it itself.
        That uses associativity of comp1 and hcomp and i_p∗i_q = i_{p∘q}.
        So a class is only split across labels when a later expansion
        reaches a member that an earlier one labelled, and that is the one
        place two labels merge: the smaller one's members move to the
        larger, so a member is relabelled O(log n) times at most.  Each label
        keeps its member list, and the lists left are the classes.
        """
        k = c._fractions.numbering
        label = dict.fromkeys(k.members(blocks), -1)
        members: list[list[int]] = []  # each label's members; label -1: not yet reached
        legs = self.legs_from(c, s1.w)
        edges = 0
        for r, x in label.items():  # a value set while iterating is read when reached
            if x >= 0:
                continue
            own = label[r] = len(members)
            mine = [r]
            members.append(mine)
            refinements = k.refine(r, legs)
            edges += len(refinements)
            for refined in refinements:
                other = label.get(refined)
                if other is None or other == own:
                    continue
                if other < 0:
                    label[refined] = own
                    mine.append(refined)
                    continue
                if len(members[other]) > len(mine):
                    own, other, mine = other, own, members[other]
                for moved in members[other]:
                    label[moved] = own
                mine += members[other]
                members[other] = []
        self.counters["representatives"] += len(label)
        self.counters["members_expanded"] += len(members)
        self.counters["refinement_edges"] += edges
        classes = sorted(sorted(codes) for codes in members if codes)
        return _Hom(s1, s2, classes, {r: i for i, codes in enumerate(classes) for r in codes}, k)


class _Stores(dict):
    """C's slot here: W ↦ the store of (C, W), and their numbering; neither refers back to C."""

    def __init__(self, c: TwoCat):
        self.numbering = Numbering(c)


def _partitions(c: TwoCat, w) -> _HomPartitions:
    """The class store of (c, W); W is checked only when its store is made."""
    key, stores = frozenset(w), c._fractions
    if stores is None:
        stores = c._fractions = _Stores(c)
    store = stores.get(key)
    if store is None:
        store = stores[key] = _HomPartitions(_as_class(c, key))
    return store


def cell_from_rep(loc: Localization, rep: CellRep) -> FractionCell:
    return loc._store.cell(loc.c, rep)


def hom_fraction_cells(c: TwoCat, w, s1: Span, s2: Span) -> tuple[FractionCell, ...]:
    """All 2-cells s1 ⇒ s2, ordered by canonical representative.

    `bench/workloads.py` calls this (c, w) form until the next benchmark change.
    """
    return _partitions(c, w).hom(c, s1, s2).cells


def cells_equal(loc: Localization, r1: CellRep, r2: CellRep) -> bool:
    """Do two representatives present the same localized 2-cell?"""
    if (r1.src_span, r1.dst_span) != (r2.src_span, r2.dst_span):
        raise StructureError("representatives do not share source/target spans")
    return cell_from_rep(loc, r1) == cell_from_rep(loc, r2)


def equality_chain(loc: Localization, r1: CellRep, r2: CellRep) -> Optional[list[CellRep]]:
    """A witness path r1 ~ ... ~ r2 of single refinements (either direction), found on codes."""
    if not cells_equal(loc, r1, r2):
        return None
    k, (s1, s2), codes = loc.c._fractions.numbering, r1[:2], cell_from_rep(loc, r1)._keys[0]
    legs = loc._store.legs_from(loc.c, s1.w)
    edges: dict[int, set[int]] = {r: set() for r in codes}
    for r in codes:
        for refined in k.refine(r, legs):
            if refined in edges:
                edges[r].add(refined)
                edges[refined].add(r)
    start, goal = (k.encode(r[2:]) for r in (r1, r2))
    prev = {start: start}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        if r == goal:
            path = [r]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return [CellRep(s1, s2, *k.decode(r)) for r in reversed(path)]
        for nxt in sorted(edges[r]):
            if nxt not in prev:
                prev[nxt] = r
                queue.append(nxt)
    raise InternalInconsistency("class members not connected by refinements")


def identity_fraction_cell(loc: Localization, s: Span) -> FractionCell:
    loc._store.require_span(loc.c, s)
    id1, id2 = loc.c.id1, loc.c.id2
    return cell_from_rep(loc, CellRep(s, s, s.apex, id1[s.apex], id1[s.apex], id2[s.w], id2[s.f]))


def u_cell(loc: Localization, gamma: str) -> FractionCell:
    """The canonical 2-cell presenting an ambient 2-cell."""
    c = loc.c
    if gamma not in c.cell_src:
        raise StructureError(f"{gamma!r} is not a 2-cell")
    f, g = c.cell_src[gamma], c.cell_dst[gamma]
    a = c.mor_src[f]
    rep = CellRep(u_mor(c, loc.w, f), u_mor(c, loc.w, g), a, c.id1[a], c.id1[a],
                  c.id2[c.id1[a]], gamma)
    return cell_from_rep(loc, rep)


# ---------------------------------------------------------------------------
# the localized bicategory: a choice of fillers, and span composition


class Localization:
    """C[W⁻¹] with a filler for every cospan (f, v ∈ W), normalised per C1/C2/C3.

    Built by `build_choices`; reads its classes and W_sat in its store.  It
    is the view `transport` walks, where a cell's key is an opaque name for
    its class: `canonical` gives its representative, `keys` finds it.
    """

    def __init__(self, c: TwoCat, w: frozenset[str],
                 entries: dict[tuple[str, str], tuple[str, str, str, str]]):
        self.c, self.w, self.entries, self.objects = c, w, entries, c.objects
        self._store = _partitions(c, w)

    def entry(self, f: str, v: str) -> tuple[str, str, str, str]:
        try:
            return self.entries[(f, v)]
        except KeyError:
            raise StructureError(f"no choice entry for cospan ({f!r}, {v!r})") from None

    @property
    def saturation(self) -> frozenset[str]:
        """W_sat: a span is an internal equivalence iff its numerator lies in it."""
        return self._store.saturation(self.c)

    def spans(self, src: str, dst: str) -> tuple[Span, ...]:
        c, w = self.c, self.w
        return tuple(Span(apex, wm, f) for apex in sorted(c.objects)
                     for wm in c.hom1(apex, src) if wm in w for f in c.hom1(apex, dst))
    ones = spans  # the name the view `transport` walks gives them

    def hom_cells(self, s1: Span, s2: Span) -> tuple[FractionCell, ...]:
        """All 2-cells s1 ⇒ s2, ordered by canonical representative."""
        return self._store.hom(self.c, s1, s2).cells

    def keys(self, s1: Span, s2: Span, reps) -> tuple[list[int], list[int]]:
        """The keys of the classes of reps, each s1 ⇒ s2, and all keys s1 ⇒ s2, in one read.

        A representative no class holds raises what `cell_from_rep` finds wrong with it.
        """
        hom = self._store.hom(self.c, s1, s2)
        keys = [members[0] for members in hom.classes]
        return [keys[self._store.label(self.c, hom, rep)] for rep in reps], keys

    def twos(self, s1: Span, s2: Span) -> list[int]:  # the keys, in `hom_cells` order
        return self.keys(s1, s2, ())[1]

    def canonical(self, s1: Span, s2: Span, key: int) -> CellRep:  # reads no hom
        return CellRep(s1, s2, *self.c._fractions.numbering.decode(key))

    def cell(self, s1: Span, s2: Span, key: int) -> FractionCell:
        return cell_from_rep(self, self.canonical(s1, s2, key))

    def targets(self, s1: Span):  # read off the sweep, as is `invertible_between`
        return self._store.targets(self.c, s1)

    def invertible_between(self, s1: Span, s2: Span) -> bool:
        return self._store.has_invertible(self.c, s1, s2)

    def equivalent_objects(self, a: str, b: str) -> bool:  # a span is one iff f ∈ W_sat
        return any(s.f in self.saturation for s in self.spans(a, b))


def c3_entry(c: TwoCat, f: str) -> tuple[str, str, str, str]:
    """C3's filler for the cospan (f, f): the identity square at src f."""
    a = c.mor_src[f]
    return (a, c.id1[a], c.id1[a], c.id2[f])


def build_choices(c: TwoCat, w) -> Localization:
    """Choose a filler (A'', v' ∈ W, f', invertible rho) per cospan (f, v ∈ W)."""
    w = _partitions(c, w).w
    identities = set(c.id1.values())
    entries: dict[tuple[str, str], tuple[str, str, str, str]] = {}
    for f in c.mors:
        for v in sorted(w):
            if c.mor_dst[v] != c.mor_dst[f]:
                continue
            if f in identities:  # C1: pull the cospan back along v itself
                entries[(f, v)] = (c.mor_src[v], v, c.id1[c.mor_src[v]], c.id2[v])
            elif v in identities:  # C2: nothing to invert
                entries[(f, v)] = (c.mor_src[f], c.id1[c.mor_src[f]], f, c.id2[f])
            elif f == v:  # C3: a W-leg against itself
                entries[(f, v)] = c3_entry(c, f)
            else:
                entries[(f, v)] = fill_cospan(c, w, f, v)
    return Localization(c, w, entries)


def localize(c: TwoCat, w, ch: Localization) -> Localization:
    """C[W⁻¹]: `ch` itself, once it is checked to be built for c and W.

    Nothing is built here; `build_choices` makes the table.
    """
    if ch.w != _partitions(c, w).w or ch.c is not c:
        raise StructureError("choice table was built for another 2-category or class W")
    return ch


def compose_fractions(loc: Localization, s: Span, t: Span) -> Span:
    """The composite span (s applied first, then t)."""
    c = loc.c
    loc._store.require_span(c, s)
    loc._store.require_span(c, t)
    if span_dst(c, s) != span_src(c, t):
        raise StructureError(f"spans {s} and {t} are not composable")
    apex, v2, f2, _rho = loc.entry(s.f, t.w)
    return Span(apex, c.compose1(s.w, v2), c.compose1(t.f, f2))


# ---------------------------------------------------------------------------
# vertical composition and whiskering of fraction cells


def vcomp_fraction(loc: Localization, c1: FractionCell, c2: FractionCell) -> FractionCell:
    """Vertical composite (c1 applied first)."""
    c, w = loc.c, loc.w
    if c1.dst_span != c2.src_span:
        raise StructureError("fraction cells are not vertically composable")
    r1, r2 = c1.canonical, c2.canonical
    mid = c1.dst_span  # the shared span (A2, w2, f2)

    # Align the two apexes over the middle denominator: fill the cospan
    # (w2∘v2 : A3 → ., w2∘u2 ∈ W), then lift the filler cell over w2.
    left = c.compose1(mid.w, r1.v2)
    right = c.compose1(mid.w, r2.v1)
    _e, r, rp, rho = fill_cospan(c, w, left, right)
    z, sigma = lift_cell(c, w, mid.w, c.compose1(r1.v2, r), c.compose1(r2.v1, rp),
                         rho, invertible=True)
    rz, rpz = c.compose1(r, z), c.compose1(rp, z)

    alpha = c.vcomp(
        c.whisker_right(r2.alpha, rpz),
        c.vcomp(c.whisker_left(mid.w, sigma), c.whisker_right(r1.alpha, rz)),
    )
    beta = c.vcomp(
        c.whisker_right(r2.beta, rpz),
        c.vcomp(c.whisker_left(mid.f, sigma), c.whisker_right(r1.beta, rz)),
    )
    rep = CellRep(c1.src_span, c2.dst_span, c.mor_src[z],
                  c.compose1(r1.v1, rz), c.compose1(r2.v2, rpz), alpha, beta)
    return loc._store.cell(c, rep, "vcomp_fraction")


def whisker_fraction_left(loc: Localization, t: Span, cell: FractionCell) -> FractionCell:
    """Post-compose a cell between spans A→B with a span t: B→C."""
    c, w = loc.c, loc.w
    s1, s2 = cell.src_span, cell.dst_span
    loc._store.require_span(c, t)
    if span_dst(c, s1) != span_src(c, t):
        raise StructureError("span does not post-compose with this cell")
    rep = cell.canonical
    d1, vp1, fp1, rho1 = loc.entry(s1.f, t.w)
    d2, vp2, fp2, rho2 = loc.entry(s2.f, t.w)

    # Drag the representative apex over both choice pullbacks.
    _p_apex, p, pp, tau1 = fill_cospan(c, w, rep.v1, vp1)
    _q_apex, q, qp, tau2 = fill_cospan(c, w, c.compose1(rep.v2, p), vp2)
    pq = c.compose1(p, q)
    t1 = c.compose1(pp, q)
    tau1_back = c.whisker_right(c.inverse2(tau1), q)  # vp1∘pp∘q ⇒ v1∘p∘q

    alpha = c.vcomp(
        c.whisker_left(s2.w, tau2),
        c.vcomp(c.whisker_right(rep.alpha, pq), c.whisker_left(s1.w, tau1_back)),
    )
    # The numerator data lives over t's denominator; build the comparison
    # there and lift it off.
    omega = c.vcomp(
        c.whisker_right(rho2, qp),
        c.vcomp(
            c.whisker_left(s2.f, tau2),
            c.vcomp(
                c.whisker_right(rep.beta, pq),
                c.vcomp(c.whisker_left(s1.f, tau1_back),
                        c.whisker_right(c.inverse2(rho1), t1)),
            ),
        ),
    )
    z, phi = lift_cell(c, w, t.w, c.compose1(fp1, t1), c.compose1(fp2, qp), omega)

    src = Span(d1, c.compose1(s1.w, vp1), c.compose1(t.f, fp1))
    dst = Span(d2, c.compose1(s2.w, vp2), c.compose1(t.f, fp2))
    out = CellRep(src, dst, c.mor_src[z],
                  c.compose1(t1, z), c.compose1(qp, z),
                  c.whisker_right(alpha, z), c.whisker_left(t.f, phi))
    return loc._store.cell(c, out, "whisker_fraction_left")


def whisker_fraction_right(loc: Localization, cell: FractionCell, s: Span) -> FractionCell:
    """Pre-compose a cell between spans B→C with a span s: A→B."""
    c, w = loc.c, loc.w
    t1s, t2s = cell.src_span, cell.dst_span
    loc._store.require_span(c, s)
    if span_dst(c, s) != span_src(c, t1s):
        raise StructureError("span does not pre-compose with this cell")
    rep = cell.canonical
    d1, vp1, fp1, rho1 = loc.entry(s.f, t1s.w)
    d2, vp2, fp2, rho2 = loc.entry(s.f, t2s.w)

    # Stage 1: compare s's first pullback with the representative apex.
    _p, p, pp, tau = fill_cospan(c, w, c.compose1(s.f, vp1),
                                 c.compose1(t1s.w, rep.v1))
    omega0 = c.vcomp(tau, c.whisker_right(c.inverse2(rho1), p))
    z1, sigma1 = lift_cell(c, w, t1s.w, c.compose1(fp1, p), c.compose1(rep.v1, pp),
                           omega0, invertible=True)
    pz1 = c.compose1(p, z1)
    ppz1 = c.compose1(pp, z1)

    # Stage 2: drag the result over the second pullback.
    _q, q, qp, taup = fill_cospan(c, w, c.compose1(vp1, pz1), vp2)

    # Stage 3: the numerator comparison over t2's denominator, lifted off.
    omega = c.vcomp(
        c.whisker_right(rho2, qp),
        c.vcomp(
            c.whisker_left(s.f, taup),
            c.vcomp(c.whisker_right(c.inverse2(tau), c.compose1(z1, q)),
                    c.whisker_right(c.inverse2(rep.alpha), c.compose1(ppz1, q))),
        ),
    )
    z2, chi = lift_cell(c, w, t2s.w, c.compose1(c.compose1(rep.v2, ppz1), q),
                        c.compose1(fp2, qp), omega)
    leg1 = c.compose1(pz1, c.compose1(q, z2))
    leg2 = c.compose1(qp, z2)
    mid_leg = c.compose1(ppz1, c.compose1(q, z2))

    src = Span(d1, c.compose1(s.w, vp1), c.compose1(t1s.f, fp1))
    dst = Span(d2, c.compose1(s.w, vp2), c.compose1(t2s.f, fp2))
    beta = c.vcomp(
        c.whisker_left(t2s.f, chi),
        c.vcomp(c.whisker_right(rep.beta, mid_leg),
                c.whisker_left(t1s.f, c.whisker_right(sigma1, c.compose1(q, z2)))),
    )
    out = CellRep(src, dst, c.mor_src[z2], leg1, leg2,
                  c.whisker_left(s.w, c.whisker_right(taup, z2)), beta)
    return loc._store.cell(c, out, "whisker_fraction_right")


# ---------------------------------------------------------------------------
# invertibility, associators, internal equivalences


def _swappable(c: TwoCat, w, w2: str, v2: str, beta: str) -> bool:
    """Tommasini's test on a member (A, v1, v2, α, β) into denominator w2: β invertible, w2∘v2 ∈ W.

    Under BF5 the second clause follows from α: w1∘v1 ⇒ w2∘v2; it is
    checked because a class that fails BF5 can break it.  α is not read.
    """
    return c.is_invertible2(beta) and c.comp1[(w2, v2)] in w


def _invertible_member(loc: Localization, cell: FractionCell) -> Optional[CellRep]:
    """The least member (A, v1, v2, α, β) of the class whose swap is a representative.

    A class is invertible iff some member has an invertible β (Tommasini,
    arXiv:1410.3990); the swap (v2, v1, α⁻¹, β⁻¹) then presents the
    inverse.  Classes are closed under refinement, so this reads "β∗i_z is
    invertible for some z with w1∘v1∘z ∈ W".  The swap also needs
    w2∘v2 ∈ W, which BF5 gives through α; it is checked because nothing
    here requires BF.  The member codes are tried least first, so
    `members` is not built; `has_invertible` runs the same test on a
    hom's blocks.
    """
    k, w2 = loc.c._fractions.numbering, cell.dst_span.w
    found = next((r for r in cell._keys[0] if _swappable(loc.c, loc.w, w2, *k.v2_beta(r))), None)
    return None if found is None else CellRep(cell.src_span, cell.dst_span, *k.decode(found))


def fraction_inverse(loc: Localization, cell: FractionCell) -> Optional[FractionCell]:
    """The two-sided vertical inverse of a fraction cell, if one exists."""
    rep = _invertible_member(loc, cell)
    if rep is None:
        return None
    c = loc.c
    swapped = CellRep(cell.dst_span, cell.src_span, rep.apex, rep.v2, rep.v1,
                      c.inverse2(rep.alpha), c.inverse2(rep.beta))
    return loc._store.cell(c, swapped, "fraction_inverse")


def is_invertible_fraction_cell(loc: Localization, cell: FractionCell) -> bool:
    return _invertible_member(loc, cell) is not None


def first_invertible_cell(loc: Localization, s1: Span, s2: Span) -> Optional[FractionCell]:
    """The first invertible 2-cell s1 ⇒ s2 in canonical order, or None.

    Whether one exists is read off the sweep; the classes are built only if so.
    """
    if not loc.invertible_between(s1, s2):
        return None
    return next(cell for cell in loc.hom_cells(s1, s2) if is_invertible_fraction_cell(loc, cell))


def comparison_cell(loc: Localization, left: Span, right: Span, what: str) -> FractionCell:
    """The identity if left == right, else the first invertible cell left ⇒ right."""
    if left == right:
        return identity_fraction_cell(loc, left)
    witness = first_invertible_cell(loc, left, right)
    if witness is None:
        raise InternalInconsistency(f"no invertible {what} between {left} and {right}")
    return witness


def find_associator_witness(loc: Localization, s: Span, t: Span, u: Span) -> FractionCell:
    """An invertible cell (s;t);u ⇒ s;(t;u) for a composable triple."""
    left = compose_fractions(loc, compose_fractions(loc, s, t), u)
    right = compose_fractions(loc, s, compose_fractions(loc, t, u))
    return comparison_cell(loc, left, right, "associator")


class SpanEquivalence(NamedTuple):
    """Internal-equivalence witness for a span in the localization."""

    e: Span
    e_bar: Span
    delta: FractionCell  # identity span ⇒ e;e_bar, invertible
    xi: FractionCell     # e_bar;e ⇒ identity span, invertible


def is_internal_equiv_search(loc: Localization, s: Span) -> Optional[SpanEquivalence]:
    """A quasi-inverse of s = (A′, w, f) built from a saturation witness; None iff f ∉ W_sat.

    Nothing is searched, despite the name, which `bench/workloads.py`
    calls until the next benchmark change.  s is an internal equivalence
    iff f ∈ W_sat (Tommasini, arXiv:1410.3990 and 1410.5075).  Then the
    least g with f∘g ∈ W and g∘h ∈ W for some h gives
    ē = (src g, f∘g, w∘g): s ≅ U(f)∘U(w)⁻¹, and (src g, f∘g, g) inverts
    U(f).  δ: id_a ⇒ s;ē and ξ: ē;s ⇒ id_b are the first invertible cells
    of their homs in canonical order (`first_invertible_cell`).  Under BF
    both exist, so a missing one raises `InternalInconsistency`; where BF
    fails, a span check may raise `StructureError` first.
    """
    c, store = loc.c, loc._store
    store.require_span(c, s)
    g = store.saturation_witness(c, s.f)
    if g is None:
        return None
    e_bar = Span(c.mor_src[g], c.compose1(s.f, g), c.compose1(s.w, g))
    delta = first_invertible_cell(loc, identity_span(c, span_src(c, s)),
                                  compose_fractions(loc, s, e_bar))
    xi = first_invertible_cell(loc, compose_fractions(loc, e_bar, s),
                               identity_span(c, span_dst(c, s)))
    if delta is None or xi is None:
        raise InternalInconsistency(f"no invertible δ or ξ for the quasi-inverse {e_bar} of {s}")
    return SpanEquivalence(s, e_bar, delta, xi)


def is_internal_equiv_closed_form(c: TwoCat, w, s: Span) -> bool:
    """Membership test: numerator in the right saturation; the store checks the span.

    `bench/workloads.py` calls this (c, w) form until the next benchmark change.
    """
    store = _partitions(c, w)
    store.require_span(c, s)
    return s.f in store.saturation(c)
