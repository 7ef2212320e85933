"""twoloc benchmark: three closed-loop workloads, end-to-end and per-layer.

    python3 bench/run.py --workload zn-saturation --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout (the directory holding `src/twoloc`).  Each
workload runs in fresh processes: set-up (importing twoloc and building the
inputs) is timed inside `SETUP_REPEATS` new interpreters and reported as the
median, then one worker process measures the workload for `--seconds`.  One
client runs one task at a time.  End-to-end times are scaled to a reference
machine speed measured in the same run (`reference_kernel`); the raw wall
times are printed beside them.

With `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
the worker first runs untraced for half the time, then installs the tracer
(`tracing.py`) and runs a fixed amount of work traced (`TRACED_TASKS` tasks,
or the first `TRACED_QUERIES` CLI queries, the same on every run of a seed),
and the result carries the per-layer metrics.  Every task's outcome is
checked against a known answer; a task with any other outcome counts as
failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A directory without
`src/twoloc` is refused with exit status 2.  See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("zn-saturation", "catalog-morita", "cli-corpus")
SETUP_REPEATS = 9
TRACED_TASKS = 5
TRACED_QUERIES = 60
MIN_TASKS = 20          # in-process tasks per run, however fast they go
RSS_AT_TASK = 10        # in-process peak RSS is read when this task ends
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
QUERY_TIMEOUT_S = 60
RUN_DEADLINE_S = 170     # one workload's set-up and run, all processes
IMPORT_PROBES = 7
# The host's speed swings by tens of percent within minutes, so end-to-end
# times are scaled to a reference speed: the time of `reference_kernel`,
# run before every task, over REFERENCE_KERNEL_S.
KERNEL_N = 40
REFERENCE_KERNEL_S = 0.020

LAYER_METRICS = (
    "core.validate", "saturation.check_bf", "saturation.saturate",
    "fractions.hom_fraction_cells", "fractions.cell_from_rep",
    "fractions.is_invertible_fraction_cell", "fractions.vcomp_fraction",
    "fractions.build_choices", "fractions.is_internal_equiv_search",
    "fractions.is_internal_equiv_closed_form",
    "transport.comparison_to_saturation", "transport.induce",
    "transport.x_conditions_for_induced", "groupoids.groupoid_twocat",
    "groupoids.morita_two_out_of_six", "documents.load_twocat",
)
CALL_METRICS = (
    "core.validate", "saturation.saturate", "fractions.hom_fraction_cells",
    "fractions.cell_from_rep", "fractions.is_invertible_fraction_cell",
    "fractions.vcomp_fraction", "fractions.is_internal_equiv_search",
    "groupoids.morita_two_out_of_six",
)
COUNTERS = ("core.input.vcomp_entries", "core.input.hcomp_entries",
            "fractions.classes", "documents.bytes_read")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # Fixed set iteration order, so the traced work counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    That is the (TAIL_BEYOND + 1)-th largest sample; with fewer samples it
    is the largest, reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def reference_kernel() -> float:
    """Seconds that a fixed pure-Python loop takes on this machine, now.

    The loop does what twoloc spends its time on, lookups in dicts keyed by
    tuples of strings, and uses nothing from twoloc, so no change to twoloc
    can move it.
    """
    t0 = time.perf_counter()
    names = [f"g{i:03d}" for i in range(KERNEL_N)]
    comp = {(g, f): names[(i + j) % KERNEL_N]
            for i, g in enumerate(names) for j, f in enumerate(names)}
    for (g, f), h in comp.items():
        for k in names:
            if comp[(comp[(k, g)], f)] != comp[(k, h)]:
                raise AssertionError("reference kernel: Z/n is not associative")
    return time.perf_counter() - t0


def slowdown(kernel_times: list[float]) -> float:
    """How much slower than the reference speed this machine ran."""
    return statistics.mean(kernel_times) / REFERENCE_KERNEL_S


def end_to_end(samples: list[float], correct: int, rss_mb: float,
               kernel_times: list[float]) -> dict:
    """End-to-end metrics, with times scaled to the reference machine speed."""
    factor = slowdown(kernel_times)
    scaled = [t / factor for t in samples]
    value, pct = tail(scaled)
    return {
        "task_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms",
                        "samples": len(samples),
                        "wall_ms": statistics.median(samples) * 1e3,
                        "slowdown": factor},
        "task_tail_ms": {"value": value * 1e3, "unit": "ms", "percentile": pct,
                         "samples": len(samples)},
        "tasks_per_s": {"value": correct / sum(scaled), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# worker: in-process workloads


class Loop:
    """Closed loop over fresh tasks until the time is up."""

    def __init__(self, workload, min_tasks: int, seconds: float, tracer=None):
        self.workload = workload
        self.min_tasks = min_tasks
        self.seconds = seconds
        self.tracer = tracer
        self.samples: list[float] = []
        self.failed = 0
        self.rss_mb = None
        self.problems: list[str] = []
        self.kernel: list[float] = []

    def run(self, first_task: int = 0) -> None:
        clock = time.perf_counter
        began = clock()
        task = first_task
        while len(self.samples) < self.min_tasks or clock() - began < self.seconds:
            self.kernel.append(reference_kernel())
            inputs = self.workload.fresh_inputs()
            if self.tracer is not None:
                self.tracer.begin_task(task)
            t0 = clock()
            try:
                outcome = self.workload.run(inputs)
                error = None
            except Exception as exc:  # a task that raises is a failed task
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if self.tracer is not None:
                self.tracer.end_task()
            self.samples.append(dt)
            if error is None:
                try:
                    problems = self.workload.check(inputs, outcome)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems.extend(f"task {task}: {p}" for p in problems)
            if len(self.samples) == RSS_AT_TASK:
                self.rss_mb = maxrss_mb()
            task += 1
        if self.rss_mb is None:
            self.rss_mb = maxrss_mb()


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import IN_PROCESS

    # Measured first, while this process is still small.
    import_cost = import_ms() if trace else None
    plain = Loop(IN_PROCESS[name](seed), MIN_TASKS if not trace else TRACED_TASKS,
                 seconds / 2 if trace else seconds)
    plain.run()
    result = {"attempted": len(plain.samples), "failed": plain.failed,
              "problems": plain.problems[:20]}
    if not trace:
        correct = len(plain.samples) - plain.failed
        result["metrics"] = end_to_end(plain.samples, correct, plain.rss_mb,
                                       plain.kernel)
        return result

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    # A fresh instance replays the seed's first inputs, so counts repeat.
    traced = Loop(IN_PROCESS[name](seed), TRACED_TASKS, 0, tracer)
    traced.run(first_task=len(plain.samples))
    result["attempted"] += len(traced.samples)
    result["failed"] += traced.failed
    result["problems"] += traced.problems[:20]
    metrics = layer_metrics(tracer)
    metrics.update(cli_metrics(None, None, import_cost))
    metrics["trace.overhead_ratio"] = overhead_ratio(plain, traced)
    dump_spans(tracer, name, seed)
    result["metrics"] = metrics
    return result


def overhead_ratio(plain, traced) -> dict:
    """Traced over untraced median task time, each at the reference speed."""
    ratio = ((statistics.median(traced.samples) / slowdown(traced.kernel))
             / (statistics.median(plain.samples) / slowdown(plain.kernel)))
    return {"value": ratio, "unit": "ratio"}


def dump_spans(tracer, name: str, seed: int) -> None:
    path = WORK / "trace" / f"{name}-seed{seed}.spans.tsv.gz"
    tracer.dump(str(path))
    print(f"spans: {len(tracer)} written to {path.relative_to(ROOT)}", file=sys.stderr)


def layer_metrics(tracer) -> dict:
    """Per-task self time, calls and counters of a tracer's spans."""
    self_s, calls, tasks = tracer.aggregate()
    counters = tracer.counters
    tasks = max(tasks, 1)
    out = {}
    for layer in ("core", "saturation", "fractions", "transport", "groupoids",
                  "documents", "cli"):
        out[f"{layer}.self_ms"] = {"value": self_s.get(layer, 0.0) * 1e3 / tasks,
                                   "unit": "ms"}
    for label in LAYER_METRICS:
        out[f"{label}.self_ms"] = {"value": self_s.get(label, 0.0) * 1e3 / tasks,
                                   "unit": "ms"}
    for label in CALL_METRICS:
        out[f"{label}.calls"] = {"value": calls.get(label, 0) / tasks, "unit": "count"}
    for label in COUNTERS:
        out[label] = {"value": counters.get(label, 0) / tasks, "unit": "count"}
    out["documents.bytes_read"]["unit"] = "bytes"
    searches = calls.get("fractions.is_internal_equiv_search", 0)
    out["fractions.is_internal_equiv_search.hit_ratio"] = {
        "value": counters.get("fractions.is_internal_equiv_search.hits", 0) / searches
        if searches else 0.0, "unit": "ratio"}
    chains = calls.get("groupoids.morita_two_out_of_six", 0)
    out["groupoids.two_out_of_six.vacuous_ratio"] = {
        "value": counters.get("groupoids.two_out_of_six.vacuous", 0) / chains
        if chains else 0.0, "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------
# worker: cli-corpus


def import_ms() -> float:
    """Median cost of `import twoloc.cli` over a bare interpreter, in ms."""
    def probe(code: str) -> float:
        # Captured output makes the wait select on the pipes; without it a
        # wait with a timeout polls, in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       check=True, timeout=QUERY_TIMEOUT_S, capture_output=True)
        return time.perf_counter() - t0

    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(probe("pass"))
        loaded.append(probe("import twoloc.cli"))
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3


def cli_metrics(queries: "QueryLoop | None", traced: "QueryLoop | None",
                import_cost: float) -> dict:
    """cli.* metrics: timings from untraced queries, exit counts from the
    traced ones, which are the same queries on every run of a seed.  Without
    queries, only the import cost is measured."""
    out = {"cli.import_ms": {"value": import_cost, "unit": "ms"}}
    if queries is None:
        for key in ("cli.report_timing_ms", "cli.startup_ms"):
            out[key] = {"value": 0.0, "unit": "ms"}
        exits = {0: 0, 1: 0, 2: 0}
    else:
        report = [t * 1e3 for t in queries.report_timing]
        startup = [(wall - t) * 1e3 for wall, t in
                   zip(queries.walls_with_report, queries.report_timing)]
        out["cli.report_timing_ms"] = {"value": statistics.median(report), "unit": "ms"}
        out["cli.startup_ms"] = {"value": statistics.median(startup), "unit": "ms"}
        exits = traced.exit_counts
    for code, count in exits.items():
        out[f"cli.exit{code}"] = {"value": count, "unit": "count"}
    return out


class QueryLoop:
    """CLI queries in cycle order, one process at a time, until time is up."""

    def __init__(self, queries, work: Path, seconds: float, min_queries: int,
                 spans_dir: Path | None):
        self.queries = queries
        self.work = work
        self.seconds = seconds
        self.min_queries = min_queries
        self.spans_dir = spans_dir
        self.samples: list[float] = []
        self.walls_with_report: list[float] = []
        self.report_timing: list[float] = []
        self.exit_counts: dict[int, int] = {0: 0, 1: 0, 2: 0}
        self.failed = 0
        self.rss_mb = 0.0
        self.problems: list[str] = []
        self.kernel: list[float] = []

    def run(self, first_task: int = 0) -> None:
        import clicorpus

        began = time.perf_counter()
        for task, q in enumerate(itertools.cycle(self.queries), first_task):
            if (len(self.samples) >= self.min_queries
                    and time.perf_counter() - began >= self.seconds):
                break
            self.one(q, task, clicorpus.check_report)

    def one(self, q, task: int, check) -> None:
        self.kernel.append(reference_kernel())
        argv = q.argv(self.work)
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "twoloc.cli", *argv]
        else:
            spans = self.spans_dir / f"q{task:05d}.tsv.gz"
            cmd = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans),
                   "--task", str(task), "--", *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            stdout, stderr = proc.communicate(timeout=QUERY_TIMEOUT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            timed_out = True
        wall = time.perf_counter() - t0
        # communicate() has reaped the child; its rusage is in RUSAGE_CHILDREN,
        # whose ru_maxrss is the largest child so far.
        self.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        self.samples.append(wall)
        code = proc.returncode
        if code in self.exit_counts:
            self.exit_counts[code] += 1
        problems = ["timed out"] if timed_out else check(q, code, stdout, stderr)
        if not problems:
            report = json.loads(stdout)
            self.walls_with_report.append(wall)
            self.report_timing.append(report["timing_s"])
        else:
            self.failed += 1
            self.problems.extend(f"query {task} {q.command} {q.doc}: {p}"
                                 for p in problems)


def run_cli_corpus(seed: int, seconds: float, trace: bool) -> dict:
    import clicorpus

    work = WORK / f"cli-corpus-seed{seed}-{os.getpid()}"
    try:
        queries = clicorpus.write_corpus(seed, work)
        import_cost = import_ms() if trace else None
        plain = QueryLoop(queries, work, seconds / 2 if trace else seconds, 1, None)
        plain.run()
        result = {"attempted": len(plain.samples), "failed": plain.failed,
                  "problems": plain.problems[:20]}
        if not trace:
            correct = len(plain.samples) - plain.failed
            result["metrics"] = end_to_end(plain.samples, correct, plain.rss_mb,
                                           plain.kernel)
            return result

        import tracing

        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced = QueryLoop(queries, work, 0, TRACED_QUERIES, spans_dir)
        traced.run(first_task=len(plain.samples))
        result["attempted"] += len(traced.samples)
        result["failed"] += traced.failed
        result["problems"] += traced.problems[:20]
        merged = tracing.Tracer()
        for path in sorted(spans_dir.glob("*.tsv.gz")):
            merged.extend(str(path))
        metrics = layer_metrics(merged)
        metrics.update(cli_metrics(plain, traced, import_cost))
        metrics["trace.overhead_ratio"] = overhead_ratio(plain, traced)
        dump_spans(merged, "cli-corpus", seed)
        result["metrics"] = metrics
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# worker entry


def setup_only(name: str, seed: int) -> tuple[float, float]:
    """Seconds a fresh process takes to import twoloc and build its inputs,
    and the mean time of three reference kernels run after that.

    Interpreter start-up is left out: no change to twoloc can move work
    there, and it is the noisiest part of a process's life here.
    """
    t0 = time.perf_counter()
    if name == "cli-corpus":
        import clicorpus

        work = WORK / f"setup-seed{seed}-{os.getpid()}"
        try:
            clicorpus.write_corpus(seed, work)
            elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        from workloads import IN_PROCESS

        IN_PROCESS[name](seed).fresh_inputs()
        elapsed = time.perf_counter() - t0
    return elapsed, statistics.mean(reference_kernel() for _ in range(3))


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    if args.phase == "setup":
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    if args.workload == "cli-corpus":
        result = run_cli_corpus(args.seed, args.seconds, args.trace)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# orchestrator


def spawn(args, phase: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
    # A session of its own, so a timeout also ends the worker's query processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    for _ in range(0 if args.trace else SETUP_REPEATS):
        proc = spawn(args, "setup", timeout=deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        elapsed, kernel = json.loads(proc.stdout)
        setups.append(elapsed / slowdown([kernel]))
    proc = spawn(args, "run", timeout=deadline - time.monotonic())
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups),
                                         "unit": "s", "samples": len(setups)},
                             **result["metrics"]}
    return result


def describe(name: str, args, result: dict) -> None:
    print(f"== {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(args.trace)}")
    for key, m in result["metrics"].items():
        extra = ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {key:48s} {m['value']:14.6g} {m['unit']:6s} {extra}")
    if not args.trace:
        share = result["failed"] / result["attempted"]
        print(f"  {'failed_share':48s} {share:14.6g} ratio  "
              f"({result['failed']} of {result['attempted']} tasks)")
    for p in result.get("problems", []):
        print(f"  FAILED {p}", file=sys.stderr)


def final_line(result: dict) -> dict:
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in result["metrics"].items()}
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all", "zn-saturation-cells-renamed"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.trace = bool(args.trace)

    if not (SRC / "twoloc" / "__init__.py").is_file():
        print(f"bench: no twoloc package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.phase:
        if args.workload == "all":
            p.error("a worker phase needs one workload")
        return worker(args)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = measure(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        describe(name, args, results[name])
    if len(names) == 1:
        print(json.dumps(final_line(results[names[0]])))
    else:
        lines = {name: final_line(r) for name, r in results.items()}
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "workloads": lines,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
