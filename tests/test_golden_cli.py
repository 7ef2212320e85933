"""Golden CLI reports: every report on F1–F7 must keep its bytes.

`golden_cli.json` holds, for each fixture, the reports of `validate`,
`check-bf`, `saturate`, `localize`, `equiv` on one fixed span and
`induce <F> <F> id --xchecks`, then three reports whose verdicts fail
(`FAILING`), with `timing_s` dropped.  Documents are named relative to
the working directory, so reports carry no paths.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from twoloc import collapse_functor, dump_twocat, dump_twofunctor, fixture, identity_functor
from twoloc.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
EQUIV_SPANS = {"F1": "(A,idA,idA)", "F2": "(X,idX,f)", "F3": "(0,w,w)",
               "F4": "(A,p,q)", "F5": "(A,u,u)", "F6": "(X,f,f)", "F7": "(A,idA,f)"}


def queries(name: str) -> list[list[str]]:
    doc, fun = f"{name}.json", f"{name}-id.json"
    return [["validate", doc], ["check-bf", doc], ["saturate", doc], ["localize", doc],
            ["equiv", doc, EQUIV_SPANS[name]], ["induce", doc, doc, fun, "--xchecks"]]


# A lawless vcomp table, a class failing BF1, BF3 and BF4a, and a functor
# that is no weak equivalence; `write_failing_documents` writes their inputs.
FAILING = [["validate", "F7-vcomp.json"], ["check-bf", "F3-w.json"],
           ["induce", "F7.json", "F1.json", "F7-F1.json", "--xchecks"]]


def write_failing_documents() -> None:
    c, w = fixture("F7")
    c.vcomp_table = {**c.vcomp_table, ("i_f", "tau_f"): "i_f"}  # the law gives tau_f
    Path("F7-vcomp.json").write_text(dump_twocat(c, w), encoding="utf-8")
    Path("F3-w.json").write_text(dump_twocat(fixture("F3")[0], frozenset({"w"})),
                                 encoding="utf-8")
    Path("F7-F1.json").write_text(
        dump_twofunctor(collapse_functor(fixture("F7")[0], fixture("F1")[0])), encoding="utf-8")


def run(argv: list[str]) -> dict:
    code = main(argv + ["--output", "report.json"])
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    del report["timing_s"]
    return {"argv": argv, "exit": code, "report": report}


def reports() -> list[dict]:
    """Run every query in the working directory; one entry per query."""
    out = []
    for name in sorted(EQUIV_SPANS):
        c, w = fixture(name)
        Path(f"{name}.json").write_text(dump_twocat(c, w), encoding="utf-8")
        Path(f"{name}-id.json").write_text(dump_twofunctor(identity_functor(c)),
                                           encoding="utf-8")
        out += [run(argv) for argv in queries(name)]
    write_failing_documents()
    return out + [run(argv) for argv in FAILING]


def test_cli_reports_match_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = reports()
    assert [g["argv"] for g in got] == [g["argv"] for g in golden]
    for entry, expected in zip(got, golden):
        assert entry == expected, entry["argv"]


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        entries = reports()
        os.chdir(here)
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(entries)} reports to {GOLDEN}\n")
