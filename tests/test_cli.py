"""Command-line interface: exit codes, report schema, document round-trips."""

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from corpus import posetal_family, with_tables

from twoloc import build_choices, fixture
from twoloc import identity_functor as strict_identity
from twoloc.cli import _parser, main
from twoloc.documents import (dump_gfunctor, dump_groupoid, dump_twocat, dump_twofunctor,
                              load_gfunctor, load_groupoid, load_twocat, load_twofunctor)
from twoloc.fixtures import FIXTURES
from twoloc.groupoids import CATALOGS, GROUPOID_FIXTURES, enumerate_gfunctors, groupoid_twocat

SCHEMA_KEYS = {"command", "input", "flags", "verdicts", "data",
               "counterexamples", "timing_s", "ok"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def emit(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(["fixtures", name, str(path), "--output", str(tmp_path / "_r.json")]) == 0
    return str(path)


def test_report_schema_everywhere(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    for argv in (["validate", f3], ["check-bf", f3], ["saturate", f3],
                 ["localize", f3], ["equiv", f3, "(0,id0,w)"]):
        code, rep = run(capsys, *argv)
        assert code == 0, argv
        assert SCHEMA_KEYS <= set(rep), argv
        assert rep["ok"] is True
        assert rep["command"] == argv[0]


def test_flags_name_only_the_commands_own_options(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    fun = tmp_path / "F3-id.json"
    fun.write_text(dump_twofunctor(strict_identity(fixture("F3")[0])), encoding="utf-8")
    for argv in (["validate", f3], ["check-bf", f3], ["saturate", f3],
                 ["localize", f3], ["equiv", f3, "(0,id0,w)"]):
        assert run(capsys, *argv)[1]["flags"] == {}, argv
    for extra, want in (([], False), (["--xchecks"], True)):
        _code, rep = run(capsys, "induce", f3, f3, str(fun), *extra)
        assert rep["flags"] == {"xchecks": want}, extra


def test_fixture_emission_is_byte_stable(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for name in ("F1", "F4", "F7", "unit", "pair2", "disc2"):
        assert main(["fixtures", name, str(p1)]) == 0
        assert main(["fixtures", name, str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes(), name


def test_unknown_fixture_is_exit_2(tmp_path, capsys):
    code, rep = run(capsys, "fixtures", "F99", str(tmp_path / "x.json"))
    assert code == 2
    assert rep["error"] == ("unknown fixture 'F99'; have ['F1', 'F2', 'F3', 'F4', "
                            "'F5', 'F6', 'F7', 'disc2', 'pair2', 'unit']")


def test_parse_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": [')
    code, rep = run(capsys, "validate", str(bad))
    assert code == 2 and rep["ok"] is False


def test_unlawful_document_is_exit_2(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    doc = json.loads(Path(f3).read_text(encoding="utf-8"))
    del doc["compose"][0]
    mangled = tmp_path / "mangled.json"
    mangled.write_text(json.dumps(doc))
    code, rep = run(capsys, "validate", str(mangled))
    assert code == 2


def test_bf_failure_is_exit_1(tmp_path, capsys):
    f4 = emit(tmp_path, "F4")
    code, rep = run(capsys, "check-bf", f4)
    assert code == 1
    assert rep["verdicts"]["BF5"] is False
    assert rep["counterexamples"]["BF5"] == ["mu_inv", "q"]
    assert all(rep["verdicts"][a] for a in
               ("BF1", "BF2", "BF3", "BF4a", "BF4b", "BF4c"))


def test_saturate_answers_are_data(tmp_path, capsys):
    f2 = emit(tmp_path, "F2")
    code, rep = run(capsys, "saturate", f2)
    assert code == 0
    assert rep["data"]["saturation"] == ["f", "g", "idX", "idY"]
    assert rep["data"]["is_right_saturated"] is False


def test_equiv_reports_witness(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    code, rep = run(capsys, "equiv", f3, "(0,id0,w)")
    assert code == 0
    assert rep["verdicts"]["deciders_agree"] is True
    assert rep["data"]["is_internal_equivalence"] is True
    assert rep["data"]["witness"]["quasi_inverse"] == ["0", "w", "id0"]


def test_equiv_fails_a_witness_whose_delta_is_not_invertible(tmp_path, capsys, monkeypatch):
    # `deciders_agree` also asks that δ and ξ be invertible, so a search
    # that hands back a non-invertible δ fails it, and the report exits 1
    import twoloc.fractions as fractions

    for entry in posetal_family():
        loc = build_choices(entry.c, entry.w)
        bad = [cell for cell in map(functools.partial(fractions.u_cell, loc), entry.c.cells)
               if not fractions.is_invertible_fraction_cell(loc, cell)]
        if bad:
            break
    doc = tmp_path / "posetal.json"
    doc.write_text(dump_twocat(entry.c, entry.w), encoding="utf-8")
    a = entry.c.objects[0]
    span = f"({a},{entry.c.id1[a]},{entry.c.id1[a]})"
    assert run(capsys, "equiv", str(doc), span)[0] == 0
    search = fractions.is_internal_equiv_search
    monkeypatch.setattr(fractions, "is_internal_equiv_search",
                        lambda loc, s: search(loc, s)._replace(delta=bad[0]))
    code, rep = run(capsys, "equiv", str(doc), span)
    assert (code, rep["verdicts"]) == (1, {"deciders_agree": False})
    assert rep["counterexamples"]["deciders_agree"] == {
        "closed_form": True, "witness": True, "invertible": False}


def test_equiv_bad_span_is_exit_2(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    assert run(capsys, "equiv", f3, "(0,id0)")[0] == 2
    assert run(capsys, "equiv", f3, "(0,w,id0,x)")[0] == 2
    assert run(capsys, "equiv", f3, "(1,w,id1)")[0] == 2  # invalid span


def test_equiv_checks_each_span_once(tmp_path, capsys, monkeypatch):
    # the span argument is checked by the class store that the deciders
    # read, so the closed form does not check it a second time
    import twoloc.fractions as fractions

    f3 = emit(tmp_path, "F3")
    checked = Counter()
    span_problems = fractions.span_problems
    monkeypatch.setattr(fractions, "span_problems",
                        lambda c, w, s: checked.update([s]) or span_problems(c, w, s))
    assert run(capsys, "equiv", f3, "(0,id0,w)")[0] == 0
    assert checked[fractions.Span("0", "id0", "w")] == 1
    assert max(checked.values()) == 1
    checked.clear()
    code, rep = run(capsys, "equiv", f3, "(1,w,id1)")
    assert (code, rep["error"], rep["verdicts"]) == (2, "leg 'w' does not start at the apex", {})
    assert list(checked.values()) == [1]


def test_internal_inconsistency_is_exit_2_with_the_report_so_far(tmp_path, capsys, monkeypatch):
    # a corrupted table can make a search that cannot fail on valid input
    # come up empty; the CLI reports it like a structural problem
    import twoloc.fractions as fractions
    from twoloc.core import InternalInconsistency

    def corrupted(loc, span):
        raise InternalInconsistency("no δ for the saturation witness")

    f3 = emit(tmp_path, "F3")
    monkeypatch.setattr(fractions, "is_internal_equiv_search", corrupted)
    code, rep = run(capsys, "equiv", f3, "(0,id0,w)")
    assert (code, rep["ok"]) == (2, False)
    assert rep["error"] == "internal inconsistency: no δ for the saturation witness"
    # BF passed, so nothing was recorded before the search
    assert (rep["command"], rep["input"], rep["verdicts"], rep["data"]) == \
        ("equiv", [f3], {}, {})
    assert SCHEMA_KEYS <= set(rep)


def test_equiv_does_not_depend_on_the_order_objects_are_listed(tmp_path, capsys):
    # the unit-pair catalog, once with its objects sorted and once reversed:
    # every span gets the same verdicts and the same δ, ξ witnesses
    c, w = groupoid_twocat(CATALOGS["unit-pair"]())
    doc = json.loads(dump_twocat(c, w))
    paths = []
    for objects in (doc["objects"], doc["objects"][::-1]):
        paths.append(tmp_path / f"{'-'.join(objects)}.json")
        paths[-1].write_text(json.dumps({**doc, "objects": objects}), encoding="utf-8")
    loc = build_choices(c, w)
    spans = [s for a, b in itertools.product(c.objects, repeat=2) for s in loc.spans(a, b)]
    assert len(spans) == 34
    for s in spans:
        arg = f"({s.apex},{s.w},{s.f})"
        (code, got), (_, want) = (run(capsys, "equiv", str(p), arg) for p in paths)
        assert code == 0 and "witness" in want["data"], arg
        assert (got["verdicts"], got["data"]) == (want["verdicts"], want["data"]), arg


def test_cell_eq_distinguishes_f7_cells(tmp_path, capsys):
    f7 = emit(tmp_path, "F7")
    base = ["cell-eq", f7, "--src", "(A,idA,f)", "--dst", "(A,idA,f)"]
    code, rep = run(capsys, *base, "(A,idA,idA,i_idA,tau_f)",
                    "(A,idA,idA,i_idA,i_f)")
    assert code == 0 and rep["data"]["equal"] is False
    code, rep = run(capsys, *base, "(A,idA,idA,i_idA,tau_f)",
                    "(A,idA,idA,i_idA,tau_f)")
    assert code == 0 and rep["data"]["equal"] is True
    assert rep["data"]["chain_length"] == 0


def identity_functor(doc: dict) -> dict:
    """The identity 2-functor on a 2-category document, as a functor document."""
    return {"f0": {o: o for o in doc["objects"]},
            "f1": {m["id"]: m["id"] for m in doc["morphisms"]},
            "f2": {a["id"]: a["id"] for a in doc["twocells"]}}


def identity_functor_doc(tmp_path, path):
    """Write the identity 2-functor on the document at `path`; return its path."""
    fun = tmp_path / "id.json"
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    fun.write_text(json.dumps(identity_functor(doc)))
    return str(fun)


def test_induce_identity(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    code, rep = run(capsys, "induce", f3, f3, identity_functor_doc(tmp_path, f3),
                    "--xchecks")
    assert code == 0
    for name in ("image_in_target_saturation", "induced_well_defined",
                 "strict_square", "x_obj_surjective_up_to_equiv",
                 "x_cell_injective", "x_cell_surjective",
                 "x_mor_surjective_up_to_iso"):
        assert rep["verdicts"][name] is True, name


def test_induce_validates_the_functor_once(tmp_path, capsys, monkeypatch):
    import twoloc.transport as transport

    calls = []
    validate_functor = transport.validate_functor
    monkeypatch.setattr(transport, "validate_functor",
                        lambda fun: calls.append(fun) or validate_functor(fun))
    f6 = emit(tmp_path, "F6")
    code, rep = run(capsys, "induce", f6, f6, identity_functor_doc(tmp_path, f6))
    assert code == 0 and rep["ok"] is True
    assert len(calls) == 1


def test_each_command_takes_only_its_options(tmp_path, capsys):
    subparsers = next(a for a in _parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
               for name, sp in subparsers.choices.items()}
    own = {"cell-eq": {"--src", "--dst"}, "induce": {"--target", "--xchecks"},
           "groupoid": {"--check", "--functor"}}
    assert set(options) == {"validate", "check-bf", "saturate", "localize", "equiv",
                            "cell-eq", "induce", "groupoid", "fixtures"}
    for name, opts in options.items():
        assert opts == {"--output"} | own.get(name, set()), name

    # an option a command does not take is a usage error: no report
    f6 = emit(tmp_path, "F6")
    for argv in (["induce", f6, f6, identity_functor_doc(tmp_path, f6), "--no-c3"],
                 ["validate", f6, "--xchecks"],
                 ["groupoid", f6, "--check", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err, argv


def test_functor_documents_refuse_unknown_keys(tmp_path, capsys):
    f2 = emit(tmp_path, "F2")
    fun = tmp_path / "id.json"
    doc = identity_functor(json.loads(Path(f2).read_text(encoding="utf-8")))
    fun.write_text(json.dumps({**doc, "f3": {}, "typo": 1}))
    code, rep = run(capsys, "induce", f2, f2, str(fun))
    assert code == 2 and rep["ok"] is False
    assert "unknown keys ['f3', 'typo']" in rep["error"]

    unit, pair = emit(tmp_path, "unit"), emit(tmp_path, "pair2")
    gfun = tmp_path / "collapse.json"
    gfun.write_text(json.dumps({
        "obj_map": {"1": "1", "2": "1"},
        "arr_map": {"p11": "e1", "p12": "e1", "p21": "e1", "p22": "e1"},
        "typo": {},
    }))
    code, rep = run(capsys, "groupoid", pair, unit, "--check", "morita",
                    "--functor", str(gfun))
    assert code == 2 and rep["ok"] is False
    assert "unknown keys ['typo']" in rep["error"]


def test_every_document_kind_round_trips(tmp_path):
    for name in FIXTURES:
        c, w = fixture(name)
        path = tmp_path / f"{name}.json"
        path.write_text(dump_twocat(c, w), encoding="utf-8")
        c2, w2 = load_twocat(path)
        assert w2 == w and sorted(c2.objects) == sorted(c.objects), name
        for table in ("mor_src", "mor_dst", "comp1", "id1", "cell_src", "cell_dst",
                      "vcomp_table", "hcomp_table", "id2"):
            assert getattr(c2, table) == getattr(c, table), (name, table)
        fun = strict_identity(c)
        path = tmp_path / f"{name}-id.json"
        path.write_text(dump_twofunctor(fun), encoding="utf-8")
        fun2 = load_twofunctor(path, c2, c2)
        assert (fun2.f0, fun2.f1, fun2.f2) == (fun.f0, fun.f1, fun.f2), name
        assert dump_twofunctor(fun2) == dump_twofunctor(fun), name

    gpds = {name: build() for name, build in GROUPOID_FIXTURES.items()}
    loaded = {}
    for name, g in gpds.items():
        path = tmp_path / f"{g.name}.json"
        path.write_text(dump_groupoid(g), encoding="utf-8")
        loaded[name] = h = load_groupoid(path)
        assert (h.name, sorted(h.objects)) == (g.name, sorted(g.objects)), name
        for table in ("arr_src", "arr_dst", "comp", "inv", "unit"):
            assert getattr(h, table) == getattr(g, table), (name, table)
    funs = 0
    for a, b in itertools.product(gpds, gpds):
        for fun in enumerate_gfunctors(gpds[a], gpds[b]):
            path = tmp_path / "gfun.json"
            path.write_text(dump_gfunctor(fun), encoding="utf-8")
            fun2 = load_gfunctor(path, loaded[a], loaded[b])
            assert (fun2.obj_map, fun2.arr_map) == (fun.obj_map, fun.arr_map), (a, b)
            funs += 1
    assert funs > len(gpds)


def test_groupoid_checks(tmp_path, capsys):
    unit = emit(tmp_path, "unit")
    pair = emit(tmp_path, "pair2")
    disc = emit(tmp_path, "disc2")
    fun = tmp_path / "collapse.json"
    fun.write_text(json.dumps({
        "obj_map": {"1": "1", "2": "1"},
        "arr_map": {"p11": "e1", "p12": "e1", "p21": "e1", "p22": "e1"},
    }))
    code, rep = run(capsys, "groupoid", pair, unit, "--check", "morita",
                    "--functor", str(fun))
    assert code == 0 and rep["verdicts"]["morita"] is True

    fun2 = tmp_path / "dcollapse.json"
    fun2.write_text(json.dumps({
        "obj_map": {"1": "1", "2": "1"},
        "arr_map": {"e1": "e1", "e2": "e1"},
    }))
    code, rep = run(capsys, "groupoid", disc, unit, "--check", "morita",
                    "--functor", str(fun2))
    assert code == 1
    assert rep["verdicts"] == {"essentially_surjective": True,
                               "fully_faithful": False, "morita": False}

    code, rep = run(capsys, "groupoid", unit, pair, disc, "--check", "saturated")
    assert code == 0 and rep["verdicts"]["morita_class_saturated"] is True

    code, rep = run(capsys, "groupoid", unit, pair, "--check", "two-out-of-six")
    assert code == 0 and rep["verdicts"]["no_counterexample"] is True
    assert rep["data"]["triples_checked"] > 0


def test_groupoid_names_stay_distinct_after_renaming(tmp_path, capsys):
    # the third stem "u" must not be renamed onto the second file's "u_2"
    unit = emit(tmp_path, "unit")
    disc = str(tmp_path / "u_2.json")
    assert main(["fixtures", "disc2", disc, "--output", str(tmp_path / "_r.json")]) == 0
    capsys.readouterr()
    counts = [[1, 2, 1], [1, 4, 1], [1, 2, 1]]  # functors among Unit, Disc2, Unit
    chains = sum(counts[u][z] * counts[z][y] * counts[y][x]
                 for u, z, y, x in itertools.product(range(3), repeat=4))
    pairs = sum(counts[a][b] * counts[b][c]
                for a, b, c in itertools.product(range(3), repeat=3))

    code, rep = run(capsys, "groupoid", unit, disc, unit, "--check", "saturated")
    assert code == 0 and rep["verdicts"]["morita_class_saturated"] is True
    code, rep = run(capsys, "groupoid", unit, disc, unit, "--check", "two-out-of-six")
    assert code == 0 and rep["verdicts"]["no_counterexample"] is True
    assert rep["data"]["triples_checked"] == chains == 376
    assert rep["data"]["composites_decided"] == pairs


def test_output_flag_writes_file(tmp_path, capsys):
    f1 = emit(tmp_path, "F1")
    out = tmp_path / "report.json"
    assert main(["validate", f1, "--output", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["ok"] is True and rep["command"] == "validate"


def test_output_flag_leaves_sibling_files_alone(tmp_path, capsys):
    # the report goes through a temp file of its own, not through out.tmp
    sibling = tmp_path / "out.tmp"
    sibling.write_text("someone else's file\n")
    out = tmp_path / "out.json"
    assert main(["fixtures", "F3", str(tmp_path / "f3.json"), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert sibling.read_text() == "someone else's file\n"
    assert json.loads(out.read_text())["ok"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f3.json", "out.json", "out.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_console_script_entrypoint(tmp_path):
    f1 = tmp_path / "F1.json"
    proc = subprocess.run(
        [sys.executable, "-m", "twoloc.cli", "fixtures", "F1", str(f1)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run([sys.executable, "-m", "twoloc.cli", "validate", str(f1)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_validate_report_on_a_partial_table_does_not_depend_on_the_hash_seed(tmp_path):
    c, w = fixture("F6")
    hcomp = dict(c.hcomp_table)
    for key in sorted(hcomp)[:5]:
        del hcomp[key]
    doc = tmp_path / "F6-partial.json"
    doc.write_text(dump_twocat(with_tables(c, hcomp_table=hcomp), w))
    reports = []
    for seed in ("1", "2", "3"):
        proc = subprocess.run([sys.executable, "-m", "twoloc.cli", "validate", str(doc)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert len(report["data"]["structural"]) == 5
        del report["timing_s"]
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_unwritable_output_is_exit_2_with_full_report(tmp_path, capsys):
    f3 = emit(tmp_path, "F3")
    missing = tmp_path / "no-such-dir" / "x.json"
    code, rep = run(capsys, "saturate", f3, "--output", str(missing))
    assert code == 2
    assert SCHEMA_KEYS <= set(rep)
    assert rep["ok"] is False and rep["command"] == "saturate"
    assert rep["input"] == [f3]
    assert "No such file or directory" in rep["error"]
    assert not missing.parent.exists()


def test_unwritable_fixture_path_is_exit_2_with_full_report(tmp_path, capsys):
    code, rep = run(capsys, "fixtures", "F3", str(tmp_path / "no-such-dir" / "F3.json"))
    assert code == 2
    assert SCHEMA_KEYS <= set(rep)
    assert rep["ok"] is False and rep["input"] == ["F3"]
    assert "No such file or directory" in rep["error"]


def test_uncaught_document_error_is_exit_2_with_full_report(tmp_path, capsys, monkeypatch):
    import twoloc.cli as cli
    import twoloc.saturation as saturation

    def broken(*_args):
        raise cli.DocumentError("broken document")

    # cli imports its layers inside each subcommand, so the name is patched
    # where it is defined.
    monkeypatch.setattr(saturation, "saturate", broken)
    code, rep = run(capsys, "saturate", emit(tmp_path, "F3"))
    assert code == 2
    assert SCHEMA_KEYS <= set(rep)
    assert rep["ok"] is False and rep["error"] == "broken document"


def test_document_error_keeps_data_and_output(tmp_path, capsys, monkeypatch):
    import twoloc.cli as cli
    import twoloc.saturation as saturation

    def broken(*_args):
        raise cli.DocumentError("broken late")

    monkeypatch.setattr(saturation, "is_right_saturated", broken)
    out = tmp_path / "report.json"
    assert main(["saturate", emit(tmp_path, "F3"), "--output", str(out)]) == 2
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["error"] == "broken late" and rep["ok"] is False
    assert rep["data"]["saturation"] == ["id0", "id1", "w"]


def test_induce_with_functor_that_does_not_compose_is_exit_2(tmp_path, capsys):
    f6 = emit(tmp_path, "F6")
    doc = json.loads(Path(f6).read_text(encoding="utf-8"))
    bad = tmp_path / "BAD.json"
    bad.write_text(json.dumps({
        "f0": {o: o for o in doc["objects"]},
        "f1": {**{m["id"]: m["id"] for m in doc["morphisms"]}, "f": "idX"},
        "f2": {a["id"]: a["id"] for a in doc["twocells"]},
    }))
    code, rep = run(capsys, "induce", f6, f6, str(bad))
    assert code == 2
    assert SCHEMA_KEYS <= set(rep) and rep["ok"] is False
    assert rep["data"]["functor_validation"] == [
        "1-cell boundaries: 'f'", "2-cell boundaries: 'i_f'",
        "identity 2-cells: 'f'", "compose1: ('f', 'g')"]


def test_groupoid_with_undeclared_composite_is_exit_2(tmp_path, capsys):
    disc = tmp_path / "disc.json"
    doc = json.loads(Path(emit(tmp_path, "disc2")).read_text(encoding="utf-8"))
    doc["compose"] = [{**e, "result": "zz"} if (e["g"], e["f"]) == ("e1", "e1") else e
                      for e in doc["compose"]]
    disc.write_text(json.dumps(doc))
    code, rep = run(capsys, "groupoid", str(disc), "--check", "saturated")
    assert code == 2
    assert SCHEMA_KEYS <= set(rep) and rep["ok"] is False
    assert rep["error"] == "disc: not a groupoid"
    assert rep["data"]["validation_disc"] == [
        "structural: compose[('e1', 'e1')] = 'zz' is not a declared arrow"]


# The twoloc modules a subcommand loads, beyond those `import twoloc.cli` loads.
# No command loads `dataclasses` or the `inspect` it imports, and the ones that
# only read the tables and W never build a 2-category's numbering: the probe
# counts those `fractions` builds, and loads it only when a command does.
BASE_MODULES = {"twoloc", "twoloc.cli", "twoloc.core", "twoloc.documents"}
FOOTPRINTS = [
    ([], set()),
    (["validate", "{F3}"], set()),
    (["check-bf", "{F3}"], {"saturation"}),
    (["saturate", "{F3}"], {"saturation"}),
    (["localize", "{F3}"], {"saturation", "fractions"}),
    (["equiv", "{F3}", "(0,id0,w)"], {"saturation", "fractions"}),
    (["cell-eq", "{F7}", "--src", "(A,idA,f)", "--dst", "(A,idA,f)",
      "(A,idA,idA,i_idA,i_f)", "(A,idA,idA,i_idA,tau_f)"], {"saturation", "fractions"}),
    (["induce", "{F3}", "{F3}", "{ID}"], {"saturation", "fractions", "transport"}),
    (["groupoid", "{unit}", "--check", "two-out-of-six"], {"groupoids"}),
    (["groupoid", "{unit}", "--check", "saturated"], {"groupoids", "saturation"}),
    (["fixtures", "F3", "{out}"], {"fixtures"}),
    (["fixtures", "unit", "{out}"], {"fixtures", "groupoids"}),
]
LOADED_AFTER_MAIN = """
import importlib.machinery, json, sys
numbered = []

class CountNumberings:
    # finds twoloc.fractions as the path finder does, and counts the
    # numberings it builds, without loading it for commands that do not
    def find_spec(self, name, path, target=None):
        if name != "twoloc.fractions":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        load = spec.loader.exec_module

        def exec_module(module):
            load(module)
            init = module.Numbering.__init__
            module.Numbering.__init__ = lambda self, c: numbered.append(c) or init(self, c)

        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, CountNumberings())
argv = json.loads(sys.argv[1])
if argv:
    from twoloc.cli import main
    main(argv)
else:
    import twoloc.cli
print(json.dumps([sorted(m for m in sys.modules
                         if m.split(".")[0] == "twoloc" or m in ("dataclasses", "inspect")),
                  len(numbered)]))
"""


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    import twoloc

    docs = {name: emit(tmp_path, name) for name in ("F3", "F7", "unit")}
    docs["ID"] = identity_functor_doc(tmp_path, docs["F3"])
    docs["out"] = str(tmp_path / "out.json")
    src = os.path.dirname(os.path.dirname(twoloc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv, extra in FOOTPRINTS:
        argv = [a.format(**docs) for a in argv]
        if argv:
            argv += ["--output", str(tmp_path / "report.json")]
        proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, json.dumps(argv)],
                              capture_output=True, text=True, env=env, check=True)
        loaded, numbered = json.loads(proc.stdout)
        assert not set(loaded) & {"dataclasses", "inspect"}, argv
        assert set(loaded) == BASE_MODULES | {f"twoloc.{m}" for m in extra}, argv
        if argv[:1] in (["validate"], ["check-bf"], ["saturate"], ["groupoid"]):
            assert numbered == 0, argv
        if argv[:1] == ["localize"]:  # the probe sees a numbering where one is built
            assert numbered == 1, argv
        if argv:
            assert json.loads((tmp_path / "report.json").read_text())["ok"] is True, argv


# ---------------------------------------------------------------------------
# no input makes a traceback

FUZZ_COMMANDS = ("validate", "check-bf", "saturate", "localize", "equiv", "cell-eq",
                 "induce")


def fixture_docs():
    """Each fixture's document, its spans, and each 2-cell's spans and members."""
    out = {}
    for name in sorted(FIXTURES):
        c, w = fixture(name)
        loc = build_choices(c, w)
        parallel = [loc.spans(a, b)
                    for a, b in itertools.product(sorted(c.objects), repeat=2)]
        spans = [s for group in parallel for s in group]
        members = [(s1, s2, [r[2:] for r in sorted(cell.members)])
                   for group in parallel for s1, s2 in itertools.product(group, group)
                   for cell in loc.hom_cells(s1, s2)]
        out[name] = (json.loads(dump_twocat(c, w)), spans, members)
    return out


FUZZ_DOCS = fixture_docs()


def strings_in(x) -> list[str]:
    if isinstance(x, str):
        return [x]
    values = x.values() if isinstance(x, dict) else x
    return [s for v in values for s in strings_in(v)]


def mutate(data, doc: dict, names: list[str]) -> dict:
    """doc with one entry or key dropped, duplicated or renamed."""
    doc = json.loads(json.dumps(doc))
    key = data.draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    op = data.draw(st.sampled_from(["drop key", "rename key", "drop", "drop", "duplicate",
                                    "rename", "rename"]))
    if op == "drop key" or not value:
        del doc[key]
    elif op == "rename key":
        doc[key + "_"] = doc.pop(key)
    elif isinstance(value, dict):
        k = data.draw(st.sampled_from(sorted(value)))
        if op != "drop":  # the entry again, under another name
            value[data.draw(st.sampled_from(names))] = value[k]
        if op != "duplicate":
            del value[k]
    else:
        i = data.draw(st.integers(0, len(value) - 1))
        if op == "drop":
            del value[i]
        elif op == "duplicate":
            value.append(value[i])
        elif isinstance(value[i], str):
            value[i] = data.draw(st.sampled_from(names))
        else:
            field_ = data.draw(st.sampled_from(sorted(value[i])))
            value[i][field_] = data.draw(st.sampled_from(names))
    return doc


def tuple_text(data, real: list, names: list[str], size: int) -> str:
    """One of `real` written out, or `size` identifiers, or a wrong number of them."""
    pick = data.draw(st.integers(0, 5))
    if real and pick < 3:
        parts = data.draw(st.sampled_from(real))
    else:
        n = size if pick < 5 else data.draw(st.sampled_from([size - 1, size + 1]))
        parts = [data.draw(st.sampled_from(names)) for _ in range(n)]
    return "(" + ",".join(parts) + ")"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "a-directory").mkdir()
    return path


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_input_makes_a_traceback(fuzz_dir, data):
    name = data.draw(st.sampled_from(sorted(FUZZ_DOCS)))
    base, spans, members = FUZZ_DOCS[name]
    names = sorted(set(strings_in(base)) | {"zz"})
    doc = base
    for _ in range(data.draw(st.integers(0, 2))):
        doc = mutate(data, doc, names)
    fun = identity_functor(base)
    if data.draw(st.booleans()):
        fun = mutate(data, fun, names)
    for file, content in (("base.json", base), ("doc.json", doc), ("fun.json", fun)):
        (fuzz_dir / file).write_text(json.dumps(content), encoding="utf-8")
    where = {"doc": "doc.json", "missing": "no-such.json", "directory": "a-directory"}
    path = str(fuzz_dir / where[data.draw(st.sampled_from(["doc"] * 8 + sorted(where)))])

    cmd = data.draw(st.sampled_from(FUZZ_COMMANDS))
    if cmd == "equiv":
        argv = [cmd, path, tuple_text(data, spans, names, 3)]
    elif cmd == "cell-eq":
        src, dst, reps = data.draw(st.sampled_from(members))
        argv = [cmd, path, "--src", tuple_text(data, [src], names, 3),
                "--dst", tuple_text(data, [dst], names, 3),
                tuple_text(data, reps, names, 5), tuple_text(data, reps, names, 5)]
    elif cmd == "induce":
        base_path = str(fuzz_dir / "base.json")
        src, dst = data.draw(st.sampled_from([(path, base_path), (base_path, path),
                                              (path, path)]))
        argv = [cmd, src, dst, str(fuzz_dir / "fun.json"),
                "--target", data.draw(st.sampled_from(["sat", "plain"]))]
        if data.draw(st.booleans()):
            argv.append("--xchecks")
    else:
        argv = [cmd, path]

    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    rep = json.loads(out.getvalue())
    assert code in (0, 1, 2) and SCHEMA_KEYS <= set(rep), argv
    assert ("error" in rep) == (code == 2), argv
    assert (code == 0) == rep["ok"], argv
    if code == 1:
        assert not all(rep["verdicts"].values()), argv
