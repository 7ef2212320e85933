"""The hom partitions against the exhaustive closure they replace.

`oracle_partition` and `oracle_equality_chain` are the original
implementations: every (v1, v2) leg pair is tried, every object is
scanned for refinement legs, and every representative is expanded.
They are kept here only as a reference.
"""

import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter, deque

import pytest

from twoloc import (
    check_bf,
    discrete_groupoid,
    groupoid_twocat,
    pair_groupoid,
    unit_groupoid,
    validate,
)
from twoloc.core import StructureError, TwoCat
from twoloc.fixtures import FIXTURES, fixture
from twoloc.fractions import (
    CellRep,
    Localization,
    Span,
    _Hom,
    _HomPartitions,
    _partitions,
    build_choices,
    cell_from_rep,
    equality_chain,
    first_invertible_cell,
    hom_fraction_cells,
    is_internal_equiv_closed_form,
    is_invertible_fraction_cell,
    rep_problems,
    u_mor,
)
from twoloc.saturation import saturate
from twoloc.transport import comparison_to_saturation, x_conditions_for_induced

from corpus import classes_only, cyclic_parity, oracle_inputs


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
    objs, loc = sorted(c.objects), classes_only(c, w)
    for a, b in itertools.product(objs, objs):
        spans = loc.spans(a, b)
        yield from itertools.product(spans, spans)


def assert_partitions_match(c, w) -> int:
    """Compare every hom of (c, w) with the oracle; returns the hom count.

    In each hom, the first class is also walked from its canonical
    representative to its largest member, and the first and last classes
    must not connect.
    """
    w = frozenset(w)
    loc = classes_only(c, w)
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
            assert all(cell_from_rep(loc, r) is cell for r in cell.members)
        if cells:
            first, far = cells[0].canonical, max(cells[0].members)
            assert equality_chain(loc, first, far) == \
                oracle_equality_chain(c, w, want, first, far)
            assert equality_chain(loc, first, cells[-1].canonical) == \
                oracle_equality_chain(c, w, want, first, cells[-1].canonical)
    return homs


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


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_partitions_match_oracle(name):
    c, w = fixture(name)
    for cls in classes_to_compare(c, w):
        assert assert_partitions_match(c, cls) > 0


def test_corpus_partitions_match_oracle(corpus_entries):
    for entry in corpus_entries:
        for cls in classes_to_compare(entry.c, entry.w):
            assert_partitions_match(entry.c, cls)


@pytest.mark.parametrize("twist_name", ["s", "a"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_cyclic_parity_partitions_match_oracle(n, twist_name):
    # Every subgroup is compared, the whole group among them: Z/n is a
    # group, so it is the right saturation of each subgroup.
    c = cyclic_parity(n, twist_name)
    for step in (d for d in range(1, n + 1) if n % d == 0):
        w = frozenset(f"g{k}" for k in range(0, n, step))
        assert saturate(c, w) == frozenset(c.mors)
        assert_partitions_match(c, w)


@pytest.mark.parametrize("name", ["F3", "F4", "F5"])
def test_class_labels_merge_and_match_oracle(name):
    # Each expanded member opens a class label, so a hom that expands more
    # members than it has classes merged labels: a later expansion reached
    # a member an earlier one had labelled.  Those homs match the oracle.
    c, w = fixture(name)
    merged = 0
    for cls in classes_to_compare(c, w):
        counters = _partitions(c, cls).counters
        for s1, s2 in span_pairs(c, cls):
            before = counters["members_expanded"]
            cells = hom_fraction_cells(c, cls, s1, s2)
            if counters["members_expanded"] - before > len(cells):
                merged += 1
                got = {r: cell.members for cell in cells for r in cell.members}
                assert got == oracle_partition(c, cls, s1, s2), (s1, s2)
    assert merged > 0


def sampled_reps(c, w, rng: random.Random, count: int):
    """count tuples (s1, s2, apex, v1, v2, α, β) drawn from the tables.

    Each entry is drawn from those of the right type four times in five
    (spans of (c, w), legs into the span apexes, cells between the
    composites) and from the whole table otherwise, so valid and invalid
    representatives both occur.
    """
    objs, mors, cells, comp1 = sorted(c.objects), c.mors, c.cells, c.comp1
    loc = classes_only(c, w)

    def pick(typed, anything):
        return rng.choice(typed) if typed and rng.random() < 0.8 else anything()

    def any_span():
        return Span(rng.choice(objs), rng.choice(mors), rng.choice(mors))

    for _ in range(count):
        s1, s2 = (pick(loc.spans(rng.choice(objs), rng.choice(objs)), any_span)
                  for _ in range(2))
        apex = rng.choice(objs)
        v1 = pick(c.hom1(apex, s1.apex), lambda: rng.choice(mors))
        v2 = pick(c.hom1(apex, s2.apex), lambda: rng.choice(mors))
        alpha, beta = (pick(c.hom2(comp1.get((x1, v1)), comp1.get((x2, v2))),
                            lambda: rng.choice(cells))
                       for x1, x2 in ((s1.w, s2.w), (s1.f, s2.f)))
        yield CellRep(s1, s2, apex, v1, v2, alpha, beta)


def swept_hom(c, w, rep: CellRep) -> tuple:
    """The classes of rep's hom, or () when a span of rep is invalid."""
    try:
        return hom_fraction_cells(c, w, rep.src_span, rep.dst_span)
    except StructureError:
        return ()


def test_store_membership_matches_rep_problems():
    # the store checks a representative by looking it up in its swept hom;
    # `rep_problems` is the check it replaces
    rng = random.Random(20261018)
    seen = Counter()
    for entry in oracle_inputs():
        for cls in classes_to_compare(entry.c, entry.w):
            c = entry.c
            loc = classes_only(c, cls)
            for rep in sampled_reps(c, cls, rng, 20):
                problems = rep_problems(c, cls, rep)
                seen["invalid" if problems else "valid"] += 1
                hom = swept_hom(c, cls, rep)
                assert (not problems) == any(rep in cell.members for cell in hom), \
                    (entry.name, rep, problems)
                if problems:
                    with pytest.raises(StructureError) as raised:
                        cell_from_rep(loc, rep)
                    assert str(raised.value) == "; ".join(problems)
                else:
                    assert rep in cell_from_rep(loc, rep).members
                for cell in hom:
                    seen["members"] += len(cell.members)
                    assert all(rep_problems(c, cls, r) == [] for r in cell.members)
    assert min(seen.values()) > 1000, seen


def oracle_first_invertible_cell(loc, s1: Span, s2: Span):
    """The class-by-class scan that `first_invertible_cell` replaces."""
    return next((cell for cell in loc.hom_cells(s1, s2)
                 if is_invertible_fraction_cell(loc, cell)), None)


def existence_inputs():
    """(label, c, class): the oracle inputs at each class, and Z/8 at <4> and <2>."""
    for entry in oracle_inputs():
        for cls in classes_to_compare(entry.c, entry.w):
            yield entry.name, entry.c, cls
    for twist_name, step in itertools.product("sa", (4, 2)):
        c = cyclic_parity(8, twist_name)
        for cls in classes_to_compare(c, {f"g{k}" for k in range(0, 8, step)}):
            yield f"Z/8 {twist_name} <{step}>", c, cls


def existence_pairs(c, w, rng: random.Random, most: int = 50_000) -> list:
    """Every span pair of (c, w); past `most`, the pairs out of 10 sampled source spans.

    Only the 50-cell groupoid catalog at all 1-cells passes `most`: its
    677,156 pairs sweep 12,468,096 representatives.
    """
    pairs = list(span_pairs(c, w))
    if len(pairs) <= most:
        return pairs
    sources = set(rng.sample(sorted({s1 for s1, _ in pairs}), 10))
    return [pair for pair in pairs if pair[0] in sources]


def test_has_invertible_matches_class_scan():
    # the existence check reads the sweep, before the hom's classes are
    # built and after; the classes are built only when a cell exists.  A
    # fresh store per class keeps other tests' homs out.  No filler is
    # read, so the classes need not satisfy BF.
    rng = random.Random(20261018)
    homs = Counter()
    for label, c, cls in existence_inputs():
        loc = Localization(c, cls, {})
        store = loc._store = _HomPartitions(cls)
        for s1, s2 in existence_pairs(c, cls, rng):
            before = store.has_invertible(c, s1, s2)
            first = first_invertible_cell(loc, s1, s2)
            assert before or not isinstance(store._out[s1].get(s2), _Hom), (label, s1, s2)
            want = any(is_invertible_fraction_cell(loc, x) for x in loc.hom_cells(s1, s2))
            assert before == want == store.has_invertible(c, s1, s2), (label, s1, s2)
            assert first == oracle_first_invertible_cell(loc, s1, s2), (label, s1, s2)
            homs[want] += 1
    assert min(homs.values()) > 1000, homs


def test_has_invertible_is_symmetric():
    """The swap lemma: s1 ⇒ s2 has an invertible cell iff s2 ⇒ s1 has one.

    It holds on every table that passes `validate`, whether or not BF
    holds.  The swap (A, v1, v2, α, β) ↦ (A, v2, v1, α⁻¹, β⁻¹) sends a
    member of s1 ⇒ s2 that passes `_swappable` to a member of s2 ⇒ s1
    that passes it: its denominator w2∘v2 is in W by the test, α⁻¹ is
    invertible with target w1∘v1, β⁻¹ runs f2∘v2 ⇒ f1∘v1, and its own
    test asks for β⁻¹ invertible and w1∘v1 ∈ W, which holds since the
    member is a representative.  The swap is its own inverse, so it is a
    bijection between the members that pass in the two homs.  A span that
    fails its check raises either way round.

    Asked before the hom's classes are built and after, on classes that
    need not satisfy BF.  A sampled input keeps the pairs between its
    sampled sources.
    """
    rng = random.Random(20261019)
    asked = Counter()
    for label, c, cls in existence_inputs():
        store = _HomPartitions(cls)
        pairs = existence_pairs(c, cls, rng)
        sources = {s1 for s1, _ in pairs}
        for s1, s2 in pairs:
            if s2 not in sources:
                continue
            there = store.has_invertible(c, s1, s2)
            assert store.has_invertible(c, s2, s1) == there, (label, s1, s2)
            store.hom(c, s1, s2)
            assert store.has_invertible(c, s2, s1) == there, (label, s1, s2)
            assert store.has_invertible(c, s1, s2) == there, (label, s1, s2)
            asked[there] += 1
    assert min(asked.values()) > 1000, asked


def swapped_leg_outside_w() -> tuple[TwoCat, frozenset[str]]:
    """A hom whose only representative has an invertible β but w2∘v2 ∉ W.

    Objects A, P, X, Z; m, n: A→X, w2: P→X, v2: A→P, f1: A→Z, f2: P→Z
    with w2∘v2 = n and f2∘v2 = f1; the only other 2-cells are an
    invertible alpha: m ⇒ n and its inverse.  W is the identities, m and w2.
    """
    mors = {"idA": ("A", "A"), "idP": ("P", "P"), "idX": ("X", "X"), "idZ": ("Z", "Z"),
            "m": ("A", "X"), "n": ("A", "X"), "w2": ("P", "X"), "v2": ("A", "P"),
            "f1": ("A", "Z"), "f2": ("P", "Z")}
    ids = {m for m in mors if m.startswith("id")}
    comp1 = {("w2", "v2"): "n", ("f2", "v2"): "f1"}
    for h, (src, dst) in mors.items():
        comp1[(f"id{dst}", h)] = comp1[(h, f"id{src}")] = h
    cell_src = {**{f"i_{h}": h for h in mors}, "alpha": "m", "alpha_inv": "n"}
    cell_dst = {**{f"i_{h}": h for h in mors}, "alpha": "n", "alpha_inv": "m"}
    vcomp = {(f"i_{h}", f"i_{h}"): f"i_{h}" for h in mors}
    vcomp.update({("alpha", "i_m"): "alpha", ("i_n", "alpha"): "alpha",
                  ("alpha_inv", "i_n"): "alpha_inv", ("i_m", "alpha_inv"): "alpha_inv",
                  ("alpha_inv", "alpha"): "i_m", ("alpha", "alpha_inv"): "i_n"})
    hcomp = {}
    for b, a in itertools.product(cell_src, cell_src):
        h, k = cell_src[b], cell_src[a]
        if mors[k][1] == mors[h][0]:
            hcomp[(b, a)] = a if h in ids else b if k in ids else f"i_{comp1[(h, k)]}"
    c = TwoCat(objects=("A", "P", "X", "Z"), mor_src={h: sd[0] for h, sd in mors.items()},
               mor_dst={h: sd[1] for h, sd in mors.items()}, comp1=comp1,
               id1={o: f"id{o}" for o in "APXZ"}, cell_src=cell_src, cell_dst=cell_dst,
               vcomp_table=vcomp, hcomp_table=hcomp, id2={h: f"i_{h}" for h in mors})
    return c, frozenset(ids | {"m", "w2"})


def test_has_invertible_needs_the_swapped_leg_in_w():
    # β = i_f1 is invertible, but the swap (v2, idA, alpha⁻¹, i_f1) has the
    # leg w2∘v2 = n outside W, so no 2-cell of the hom is invertible; a test
    # of β alone would say there is one.  BF5 fails (alpha: m ⇒ n, m ∈ W).
    c, w = swapped_leg_outside_w()
    assert validate(c).ok and not check_bf(c, w).passed["BF5"]
    s1, s2 = Span("A", "m", "f1"), Span("P", "w2", "f2")
    loc = Localization(c, w, {})
    store = loc._store = _HomPartitions(w)
    assert store._swept(c, s1)[s2] == [("A", "idA", "v2", "alpha", "i_f1")]
    assert not store.has_invertible(c, s1, s2)
    assert not any(is_invertible_fraction_cell(loc, x) for x in loc.hom_cells(s1, s2))


def shuffled_requests(c, w, seed: int):
    """Every span pair of (c, w), empty homs first, each part shuffled."""
    empty, full = [], []
    for pair in span_pairs(c, w):
        (full if oracle_partition(c, w, *pair) else empty).append(pair)
    rng = random.Random(seed)
    rng.shuffle(empty)
    rng.shuffle(full)
    return empty + full


def fresh_inputs():
    """(label, build): each call of build gives new tables and their W."""
    for name in sorted(FIXTURES):
        yield name, lambda name=name: fixture(name)
    for n in (4, 6):
        yield f"Z/{n}", lambda n=n: (cyclic_parity(n, "s"), frozenset({"g0", f"g{n // 2}"}))


@pytest.mark.parametrize("seed", [0, 1])
def test_homs_asked_in_any_order_match_oracle(seed):
    for label, build in fresh_inputs():
        c, w = build()
        for cls in classes_to_compare(c, w):
            fresh, _ = build()
            for s1, s2 in shuffled_requests(c, cls, seed):
                want = oracle_partition(c, cls, s1, s2)
                cells = hom_fraction_cells(fresh, cls, s1, s2)
                got = {r: cell.members for cell in cells for r in cell.members}
                assert got == want, (label, sorted(cls), s1, s2)


def test_malformed_target_span_raises_after_its_source_was_swept():
    c, w = fixture("F2")
    s1 = Span("X", "idX", "f")
    assert hom_fraction_cells(c, w, s1, s1)
    assert s1 in _partitions(c, w)._out
    for bad in (Span("X", "idX", "g"), Span("X", "g", "f")):
        with pytest.raises(StructureError, match="leg 'g' does not start at the apex"):
            hom_fraction_cells(c, w, s1, bad)
        with pytest.raises(StructureError, match="leg 'g' does not start at the apex"):
            hom_fraction_cells(c, w, bad, s1)
    outside = Span("Y", "g", "idY")  # a span X → Y, but g is not in W
    for s, t in ((s1, outside), (outside, s1)):
        with pytest.raises(StructureError, match="denominator 'g' is not in W"):
            hom_fraction_cells(c, w, s, t)


def counters_after_every_hom(c, w):
    classes = sum(len(hom_fraction_cells(c, w, s1, s2)) for s1, s2 in span_pairs(c, w))
    return classes, _partitions(c, w).counters


def test_work_counters_on_z8():
    # Z/8, W = <2>, localized at W and at W_sat = all of Z/8.  A hom
    # s1 ⇒ s2 is non-empty iff f2 - w2 = f1 - w1, and a non-empty hom has
    # one representative per (v1 with w1 + v1 ∈ W, alpha, beta): 4 × 2 × 2
    # at W over 4 targets per source, 8 × 2 × 2 at W_sat over 8.  Every
    # class is one orbit of the legs (3 at W, 7 at W_sat), so only its
    # first member is expanded.
    c = cyclic_parity(8, "s")
    w = frozenset({"g0", "g2", "g4", "g6"})
    w_sat = saturate(c, w)
    assert w_sat == frozenset(c.mors)
    for cls, sources, targets, reps, legs in ((w, 32, 4, 16, 3), (w_sat, 64, 8, 32, 7)):
        classes, counters = counters_after_every_hom(c, cls)
        assert classes == sources * targets * reps // (legs + 1)
        assert counters == {
            "sweeps": sources,
            "representatives": sources * targets * reps,
            "members_expanded": classes,
            "refinement_edges": classes * legs,
        }


def test_hom_checks_each_span_at_most_once(monkeypatch):
    # Z/8, W = <2>: a hom s1 ⇒ s2 is empty unless f2 - w2 = f1 - w1, so
    # most of the 1,024 requests, each asked twice, are for empty homs
    import twoloc.fractions as fractions

    checked = Counter()  # (W, span) -> span_problems calls
    span_problems = fractions.span_problems
    monkeypatch.setattr(fractions, "span_problems",
                        lambda c, w, s: checked.update([(w, s)]) or span_problems(c, w, s))
    valid_reps_checked = []
    rep_problems_ = fractions.rep_problems

    def rep_problems(c, w, rep):
        problems = rep_problems_(c, w, rep)
        if not problems:
            valid_reps_checked.append(rep)
        return problems

    monkeypatch.setattr(fractions, "rep_problems", rep_problems)
    c = cyclic_parity(8, "s")
    w = frozenset({"g0", "g2", "g4", "g6"})
    pairs = list(span_pairs(c, w)) * 2
    empty = sum(not hom_fraction_cells(c, w, s1, s2) for s1, s2 in pairs)
    assert empty == 2 * 32 * 28
    assert len(checked) == 32 and max(checked.values()) == 1

    # the other entry points reach the same checked spans: a class looked up
    # from each member, the closed form on every span, and the comparison
    # C[W⁻¹] → C[W_sat⁻¹] with its X-conditions, which sweep the W_sat store
    loc = build_choices(c, w)
    for s1, s2 in pairs:
        for cell in hom_fraction_cells(c, w, s1, s2):
            assert all(cell_from_rep(loc, r) is cell for r in cell.members)
    spans = {s for pair in pairs for s in pair}
    assert all(is_internal_equiv_closed_form(c, w, s) for s in spans for _ in range(2))
    assert len(checked) == 32
    assert x_conditions_for_induced(comparison_to_saturation(c, w)).ok
    assert {key[0] for key in checked} == {w, frozenset(c.mors)}
    assert len(checked) > 32 and max(checked.values()) == 1
    assert valid_reps_checked == []
    bad = Span("x", "g1", "g0")  # g1 is not in W
    for _ in range(2):
        with pytest.raises(StructureError, match="denominator 'g1' is not in W"):
            hom_fraction_cells(c, w, pairs[0][0], bad)


def test_closed_form_saturates_once(monkeypatch):
    import twoloc.fractions as fractions

    calls = []
    witnesses = fractions.saturation_witnesses
    monkeypatch.setattr(fractions, "saturation_witnesses",
                        lambda c, w: calls.append(w) or witnesses(c, w))
    c, w = groupoid_twocat([unit_groupoid(), pair_groupoid(2), discrete_groupoid(3)])
    equivalences = {f for f in c.mors
                    if is_internal_equiv_closed_form(c, w, u_mor(c, w, f))}
    assert len(c.mors) == 50 and equivalences == w
    assert len(calls) <= 1
    assert build_choices(c, w).saturation == w and len(calls) <= 1


# -- lifetime: partitions live and die with their 2-category -----------------


def test_partitions_do_not_outlive_their_twocat():
    c, w = fixture("F3")
    spans = classes_only(c, w).spans("0", "0")
    assert hom_fraction_cells(c, w, spans[0], spans[-1])
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def localize_fresh_z6():
    c = cyclic_parity(6, "s")
    loc = build_choices(c, {"g0", "g3"})
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
