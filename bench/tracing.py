"""Span tracing of twoloc's layers, installed from outside the package.

The layers are the modules of the package (`LAYERS`).  `install()` wraps
every public function a layer defines and replaces *every binding* of it:
the attribute on the defining module, the names other modules imported with
`from .x import f`, and the names the benchmark's own modules imported.  A
call then opens a span (name, start, end, parent, task) whether it comes
from the benchmark or from inside twoloc, and nested calls become child
spans.  Spans are kept in flat arrays in memory and written out once, by
`Tracer.dump`.

Self time is counted per layer: a span's self time is its duration minus
the time covered by the spans of *other* layers it called.  Calls inside one
layer therefore stay in the caller's self time as well as appearing as
their own spans.

Generator functions (`saturation.cospan_fillers`, `saturation.cell_lifts`)
are not wrapped: a span around a generator call would close before any work
is done.  Their work counts in the self time of the layer that iterates
them.

Run as a script, this module is the traced form of the command line:

    python bench/tracing.py --spans OUT --task N -- validate F3.json

runs `twoloc.cli.main` under the tracer, writes the spans to OUT and exits
with the command's exit status.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("core", "saturation", "fractions", "transport", "groupoids",
          "documents", "cli")

# Work counters read off a traced call's arguments and result.  Each hook
# gets (counters, args, result); result is None when the call raised.


def _count_classes(counters, args, result):
    if result is not None:
        counters["fractions.classes"] += len(result)


def _count_search_hits(counters, args, result):
    if result is not None:
        counters["fractions.is_internal_equiv_search.hits"] += 1


def _count_vacuous(counters, args, result):
    if result is not None and result.vacuous:
        counters["groupoids.two_out_of_six.vacuous"] += 1


def _count_table_entries(counters, args, result):
    c = args[0]
    counters["core.input.vcomp_entries"] += len(c.vcomp_table)
    counters["core.input.hcomp_entries"] += len(c.hcomp_table)


def _count_bytes(counters, args, result):
    try:
        counters["documents.bytes_read"] += os.path.getsize(args[0])
    except (OSError, TypeError):
        pass


HOOKS = {
    "fractions.hom_fraction_cells": _count_classes,
    "fractions.is_internal_equiv_search": _count_search_hits,
    "groupoids.morita_two_out_of_six": _count_vacuous,
    "core.validate": _count_table_entries,
    "documents.load_twocat": _count_bytes,
    "documents.load_twofunctor": _count_bytes,
    "documents.load_groupoid": _count_bytes,
    "documents.load_gfunctor": _count_bytes,
}
TASK = "task"


class Tracer:
    """In-memory span store and work counters."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.task = array("l")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.current_task = -1
        self.active = False

    def _intern(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.current_task)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self) -> None:
        self.end[self.stack.pop()] = time.perf_counter()

    def wrap(self, fn, label: str):
        nid = self._intern(label)
        hook = HOOKS.get(label)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = None
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close()
                if hook is not None:
                    hook(tracer.counters, args, result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def begin_task(self, task: int) -> None:
        """Start recording and open the root span of one benchmark task."""
        self.current_task = task
        self.active = True
        self._open(self._intern(TASK))

    def end_task(self) -> None:
        self._close()
        self.active = False
        self.current_task = -1

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: str) -> None:
        """Write every span as a gzip'd TSV (task, id, parent, name, start,
        end) and the work counters beside it, as `<path>.counters.json`."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("task\tid\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{self.task[i]}\t{i}\t{self.parent[i]}\t"
                          f"{self.labels[self.name[i]]}\t{self.start[i]!r}\t"
                          f"{self.end[i]!r}\n")
        with open(path + ".counters.json", "w", encoding="utf-8") as out:
            json.dump(dict(self.counters), out, sort_keys=True)

    def extend(self, path: str) -> None:
        """Append the spans and counters that `dump` wrote to `path`."""
        base = len(self.start)
        with gzip.open(path, "rt", encoding="utf-8") as src:
            next(src)
            for line in src:
                task, _i, parent, name, start, end = line.rstrip("\n").split("\t")
                self.task.append(int(task))
                self.parent.append(base + int(parent) if int(parent) >= 0 else -1)
                self.name.append(self._intern(name))
                self.start.append(float(start))
                self.end.append(float(end))
        with open(path + ".counters.json", encoding="utf-8") as src:
            self.counters.update(json.load(src))

    def aggregate(self) -> tuple[Counter, Counter, int]:
        """(self seconds by name, calls by name, tasks) over every span.

        The name `<layer>` (no function part) holds the layer's total self
        time, summed over the spans that enter it from another layer.
        """
        names = [self.labels[n] for n in self.name]
        layers = [label.split(".", 1)[0] for label in names]
        parent = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(parent):
            if p < 0 or layers[p] == layers[i]:
                continue
            # A call into another layer: take it out of every span of the
            # calling layer, up to where that layer was entered.
            layer = layers[p]
            while p >= 0 and layers[p] == layer:
                own[p] -= dur[i]
                p = parent[p]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        tasks = 0
        for i, label in enumerate(names):
            if label == TASK:
                tasks += 1
                continue
            self_s[label] += own[i]
            calls[label] += 1
            p = parent[i]
            if p < 0 or layers[p] != layers[i]:
                self_s[layers[i]] += own[i]
        return self_s, calls, tasks


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, at every binding site."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"twoloc.{layer}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            wrappers[obj] = tracer.wrap(obj, f"{layer}.{name}")
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, obj in list(namespace.items()):
            if inspect.isfunction(obj) and obj in wrappers:
                namespace[name] = wrappers[obj]


def _main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: tracing.py --spans OUT --task N -- CLI-ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    spans = opts[opts.index("--spans") + 1]
    task = int(opts[opts.index("--task") + 1])
    import twoloc.cli

    tracer = Tracer()
    install(tracer)
    tracer.begin_task(task)
    try:
        code = twoloc.cli.main(cli_args)
    finally:
        tracer.end_task()
        sys.stdout.flush()
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
