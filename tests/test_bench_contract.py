"""The benchmark's workloads, run once each as ordinary tests.

`bench/workloads.py` and `bench/clicorpus.py` are imported read-only and
run at seed 1: one task of each in-process workload, checked by the
workload's own `check`, and one cycle of the CLI corpus through
`twoloc.cli.main` in-process, each query checked by `check_report`.  The
benchmark calls `hom_fraction_cells`, `is_internal_equiv_closed_form` and
`u_mor` in their (c, w) form, so a change to any of them fails here.
"""

import contextlib
import io

import pytest

from twoloc.cli import main

from corpus import load_bench_module


@pytest.mark.parametrize("name", ["zn-saturation", "zn-saturation-cells-renamed",
                                  "catalog-morita"])
def test_in_process_task_passes_its_check(name):
    workload = load_bench_module("workloads").IN_PROCESS[name](1)
    inputs = workload.fresh_inputs()
    assert workload.check(inputs, workload.run(inputs)) == []


def test_cli_corpus_cycle_passes_its_checks(tmp_path):
    clicorpus = load_bench_module("clicorpus")
    queries = clicorpus.write_corpus(1, tmp_path)
    assert len(queries) == 180
    problems = {}
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(q.argv(tmp_path))
        found = clicorpus.check_report(q, code, out.getvalue(), err.getvalue())
        if found:
            problems[" ".join(q.argv(tmp_path))] = found
    assert problems == {}
