"""Acceptance criteria for the localization engine, one test per criterion.

Each test prints a single PASS/FAIL line (outside pytest's capture) so a
plain test run shows the per-criterion scoreboard, then asserts.  Time
bounds are enforced with perf_counter around exactly the work they cover.
"""

import itertools
import json
import time

from twoloc import (
    build_choices,
    check_bf,
    comparison_to_saturation,
    compose_fractions,
    discrete_groupoid,
    enumerate_gfunctors,
    equivalence_from_cancellation,
    find_associator_witness,
    find_quasi_inverse,
    fixture,
    groupoid_twocat,
    identity_span,
    induce,
    internal_equivalences,
    is_internal_equiv_closed_form,
    is_internal_equiv_search,
    is_invertible_fraction_cell,
    is_morita,
    localize,
    morita_saturated_check,
    morita_two_out_of_six,
    pair_groupoid,
    preserves_into,
    quasi_units,
    saturate,
    saturation_compatibility,
    u_cell,
    u_mor,
    unit_groupoid,
    vcomp_fraction,
    whisker_fraction_left,
    x_conditions_for_induced,
)
from twoloc.cli import main as cli_main
from twoloc.fixtures import FIXTURES
from twoloc.fractions import FractionCell
from twoloc.groupoids import CATALOGS

from oracles import enumerate_strict_functors, oracle_internal_equiv_search, search_constancy

BF_FIXTURES = ("F1", "F2", "F3", "F5", "F6", "F7")


def _line(capsys, n, ok, text):
    with capsys.disabled():
        print(f"[C{n:02d}] {'PASS' if ok else 'FAIL'} — {text}")


def _cases(corpus_entries):
    for name in FIXTURES:
        yield name, *fixture(name)
    for entry in corpus_entries:
        yield entry.name, entry.c, entry.w


def test_c01_saturation_laws(corpus_entries, capsys):
    t0 = time.perf_counter()
    problems = []
    n = 0
    for name, c, w in _cases(corpus_entries):
        n += 1
        sat = saturate(c, w)
        if not frozenset(w) <= sat:
            problems.append((name, "not inflationary"))
        if saturate(c, sat) != sat:
            problems.append((name, "not idempotent"))
        qu = quasi_units(c)
        if qu <= frozenset(w) and not saturate(c, qu) <= sat:
            problems.append((name, "not monotone"))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 60 and n >= 107  # 7 fixtures + >=100 random
    _line(capsys, 1, ok, f"saturation inflationary/idempotent/monotone on "
                         f"{n} categories in {dt:.1f}s")
    assert ok, problems[:3]


def test_c02_bf_preserved_by_saturation(corpus_entries, capsys):
    t0 = time.perf_counter()
    problems = []
    n = 0
    for name, c, w in _cases(corpus_entries):
        if not check_bf(c, w).ok:  # F4 is the designed BF failure
            continue
        n += 1
        rep = check_bf(c, saturate(c, w))
        if not rep.ok:
            problems.append((name, rep.counterexamples))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 60
    _line(capsys, 2, ok, f"BF axioms survive saturation on {n} "
                         f"BF-passing pairs in {dt:.1f}s")
    assert ok, problems[:3]


def test_c03_quasi_unit_saturation_is_equivalences(corpus_entries, capsys):
    problems = []
    n = 0
    for name, c, _w in _cases(corpus_entries):
        n += 1
        if saturate(c, quasi_units(c)) != internal_equivalences(c):
            problems.append(name)
    ok = not problems
    _line(capsys, 3, ok,
          f"saturate(quasi-units) equals internal equivalences on {n} categories")
    assert ok, problems[:5]


def test_c04_equivalence_deciders_agree(capsys):
    # restricted to the BF-passing fixtures: the closed form is only claimed
    # to match the witness search when (C, W) satisfies the fraction axioms,
    # and F4 exists precisely to violate them
    problems = []
    slow = []
    for name in BF_FIXTURES:
        c, w = fixture(name)
        t0 = time.perf_counter()
        ch = build_choices(c, w)
        sat = saturate(c, w)
        for f in c.mors:
            found = oracle_internal_equiv_search(ch, u_mor(c, w, f)) is not None
            if found != (f in sat):
                problems.append((name, f))
        for a, b in itertools.product(c.objects, repeat=2):
            for s in ch.spans(a, b):
                closed = is_internal_equiv_closed_form(c, w, s)
                found = oracle_internal_equiv_search(ch, s) is not None
                if closed != found:
                    problems.append((name, s))
        dt = time.perf_counter() - t0
        if dt >= 5:
            slow.append((name, dt))
    ok = not problems and not slow
    _line(capsys, 4, ok, "witness search matches saturation membership and "
                         f"closed form on all spans of {len(BF_FIXTURES)} "
                         f"fixtures, each under 5s")
    assert ok, (problems[:3], slow)


def test_c05_two_out_of_three_and_cancellation(corpus_entries, capsys):
    problems = []
    cancels = 0
    for name, c, w in _cases(corpus_entries):
        qinv = {m: find_quasi_inverse(c, m) for m in c.mors}
        classes = {"equivalences":
                   frozenset(m for m, wit in qinv.items() if wit is not None)}
        if check_bf(c, w).ok:
            classes["saturation"] = saturate(c, w)
        for label, cls in classes.items():
            for (g, f), gf in c.comp1.items():
                inside = (f in cls) + (g in cls) + (gf in cls)
                if inside == 2:
                    problems.append((name, label, g, f))
        for (g, f), gf in c.comp1.items():
            if qinv[gf] is None:
                continue
            for h in c.mors:
                if c.mor_dst[h] != c.mor_src[f]:
                    continue
                w_fh = qinv[c.compose1(f, h)]
                if w_fh is None:
                    continue
                # chain h then f then g; both bracketings are equivalences,
                # so all three links must admit (validated) witnesses
                equivalence_from_cancellation(c, g, f, h, qinv[gf], w_fh)
                cancels += 1
    ok = not problems and cancels > 0
    _line(capsys, 5, ok, "two-out-of-three holds for equivalence and "
                         f"saturation classes; {cancels} cancellation "
                         f"witness triples validated")
    assert ok, problems[:3]


def test_c06_localized_operations_well_defined(capsys):
    problems = []
    for name in ("F3", "F5", "F7"):
        c, w = fixture(name)
        ch = build_choices(c, w)
        loc = localize(c, w, ch)
        objs = c.objects
        # embedding is functorial on 2-cells
        for (b, a), ba in c.vcomp_table.items():
            if vcomp_fraction(loc, u_cell(loc, a), u_cell(loc, b)) != u_cell(loc, ba):
                problems.append((name, "u-cell functoriality", b, a))
        for a, b in itertools.product(objs, repeat=2):
            spans = loc.spans(a, b)
            for s in spans:
                # strict units
                if compose_fractions(ch, identity_span(c, a), s) != s or \
                   compose_fractions(ch, s, identity_span(c, b)) != s:
                    problems.append((name, "strict units", s))
                for t in spans:
                    for cell in loc.hom_cells(s, t):
                        # any member representative gives the same composites
                        for r in sorted(cell.members)[:4]:
                            alias = FractionCell(cell.src_span, cell.dst_span, cell._keys)
                            alias.canonical = r
                            for u in spans:
                                for nxt in loc.hom_cells(t, u):
                                    if vcomp_fraction(ch, alias, nxt) != \
                                       vcomp_fraction(ch, cell, nxt):
                                        problems.append((name, "vcomp", r))
                            for cc in objs:
                                for tspan in loc.spans(b, cc)[:2]:
                                    lhs = whisker_fraction_left(ch, tspan, alias)
                                    rhs = whisker_fraction_left(ch, tspan, cell)
                                    if lhs != rhs:
                                        problems.append((name, "whisker", r))
        # associators exist and are invertible
        for a, b in itertools.product(objs, repeat=2):
            for s in loc.spans(a, b)[:2]:
                for cc in objs:
                    for t in loc.spans(b, cc)[:2]:
                        for d in objs:
                            for u in loc.spans(cc, d)[:2]:
                                wit = find_associator_witness(ch, s, t, u)
                                if not is_invertible_fraction_cell(ch, wit):
                                    problems.append((name, "associator", s, t, u))
    ok = not problems
    _line(capsys, 6, ok, "quotient operations independent of representative; "
                         "strict units; invertible associators (F3, F5, F7)")
    assert ok, problems[:3]


def test_c07_induced_functors(capsys):
    checked = induced = 0
    problems = []
    for na, nb in itertools.product(BF_FIXTURES, repeat=2):
        ca, wa = fixture(na)
        cb, wb = fixture(nb)
        sat_b = saturate(cb, wb)
        ch_a = build_choices(ca, wa)
        ch_b = build_choices(cb, sat_b)
        for fun in enumerate_strict_functors(ca, cb):
            checked += 1
            compat = saturation_compatibility(fun, wa, wb)
            if compat.image_in_target_sat != compat.sat_image_in_target_sat:
                problems.append((na, nb, "clauses disagree"))
            if not preserves_into(fun, wa, sat_b):
                continue
            ind = induce(fun, ch_a, ch_b)
            induced += 1
            if search_constancy(ind) is not None:
                problems.append((na, nb, "cell map not constant on a class"))
            for f in ca.mors:
                if ind.map_span(u_mor(ca, wa, f)) != u_mor(cb, sat_b, fun.f1[f]):
                    problems.append((na, nb, "square on 1-cells", f))
            for gamma in ca.cells:
                if ind.map_cell(u_cell(ch_a, gamma)) != \
                   u_cell(ch_b, fun.f2[gamma]):
                    problems.append((na, nb, "square on 2-cells", gamma))
    ok = not problems and induced > 0
    _line(capsys, 7, ok, f"saturation-compatibility clauses agree on "
                         f"{checked} functors; {induced} induced maps "
                         f"well-defined with strict squares")
    assert ok, problems[:3]


def test_c08_comparison_functor_weak_equivalence(capsys):
    results = []
    for name in ("F2", "F3"):
        c, w = fixture(name)
        t0 = time.perf_counter()
        rep = x_conditions_for_induced(comparison_to_saturation(c, w))
        dt = time.perf_counter() - t0
        results.append((name, rep.ok, dt))
    ok = all(r[1] and r[2] < 30 for r in results)
    _line(capsys, 8, ok, "comparison to the saturated localization passes "
                         "all X-conditions on F2 and F3 "
                         + ", ".join(f"({n}: {t:.1f}s)" for n, _o, t in results))
    assert ok, results


def test_c09_groupoid_suite(capsys):
    t0 = time.perf_counter()
    problems = []
    u, p, d = unit_groupoid(), pair_groupoid(2), discrete_groupoid(2)
    (p2u,) = enumerate_gfunctors(p, u)
    (d2u,) = enumerate_gfunctors(d, u)
    if not is_morita(p2u):
        problems.append("pair collapse should be Morita")
    if is_morita(d2u):
        problems.append("discrete collapse should not be Morita")

    cat = [u, p, d]
    funs = {(a.name, b.name): enumerate_gfunctors(a, b)
            for a, b in itertools.product(cat, repeat=2)}
    triples = 0
    for g0, g1, g2, g3 in itertools.product(cat, repeat=4):
        for xi in funs[(g0.name, g1.name)]:
            for psi in funs[(g1.name, g2.name)]:
                for phi in funs[(g2.name, g3.name)]:
                    triples += 1
                    if not morita_two_out_of_six(xi, psi, phi).ok:
                        problems.append(("cancellation", xi.signature()))

    for cname, make in CATALOGS.items():
        if not morita_saturated_check(make()):
            problems.append(("not saturated", cname))

    c, w = groupoid_twocat(cat)
    ch = build_choices(c, w)
    agree = 0
    for a, b in itertools.product(cat, repeat=2):
        for k, fun in enumerate(funs[(a.name, b.name)]):
            fid = f"{a.name}>{b.name}#{k}"
            localized = is_internal_equiv_search(ch, u_mor(c, w, fid)) is not None
            if localized != is_morita(fun):
                problems.append(("decider mismatch", fid))
            else:
                agree += 1
    dt = time.perf_counter() - t0
    ok = not problems and dt < 120
    _line(capsys, 9, ok, f"Morita verdicts, {triples} cancellation triples, "
                         f"saturated catalogs, and localized decider on "
                         f"{agree} functors in {dt:.1f}s")
    assert ok, problems[:3]


def test_c10_cli_contract(tmp_path, capsys):
    problems = []
    names = sorted(FIXTURES) + ["unit", "pair2", "disc2"]
    for name in names:
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        if cli_main(["fixtures", name, str(p1)]) != 0 or \
           cli_main(["fixtures", name, str(p2)]) != 0:
            problems.append((name, "emit"))
        elif p1.read_bytes() != p2.read_bytes():
            problems.append((name, "not byte-stable"))
    capsys.readouterr()

    f3 = tmp_path / "F3.json"
    f4 = tmp_path / "F4.json"
    cli_main(["fixtures", "F3", str(f3)])
    cli_main(["fixtures", "F4", str(f4)])
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    codes = (cli_main(["validate", str(f3)]),
             cli_main(["check-bf", str(f4)]),
             cli_main(["validate", str(broken)]),
             cli_main(["fixtures", "nope", str(tmp_path / "x.json")]))
    out = capsys.readouterr().out
    if codes != (0, 1, 2, 2):
        problems.append(("exit codes", codes))
    decoder = json.JSONDecoder()
    idx, reports = 0, []
    while idx < len(out):
        rep, end = decoder.raw_decode(out, idx)
        reports.append(rep)
        idx = end + 1
    keys = {"command", "input", "flags", "verdicts", "data",
            "counterexamples", "timing_s", "ok"}
    for rep in reports[:2]:
        if not keys <= set(rep):
            problems.append(("schema", sorted(rep)))
    ok = not problems
    _line(capsys, 10, ok, f"fixture emission byte-stable ({len(names)} "
                          "documents), exit codes 0/1/2, schema-complete reports")
    assert ok, problems[:3]
