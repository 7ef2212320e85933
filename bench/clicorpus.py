"""The cli-corpus workload: documents, the query cycle and expected exits.

Set-up writes, into a work directory:

* `CORPUS_SIZE` small (2-category, W) pairs that pass BF, generated from the
  seed with twoloc's public builders, inside the size caps of the test
  corpus (at most 4 objects, 8 1-cells and 12 2-cells);
* the fixtures F1-F7;
* three damaged copies of corpus documents, one of each kind in `DAMAGE`;
* for every lawful document, the identity functor document `induce` needs.

A cycle runs every command on every document, 180 queries in an order
drawn from the seed; three of the thirty documents are damaged, so one
query in ten is.  Each query is one `python -m twoloc.cli` process; its
expected exit status is fixed by `expected()`, with the reason beside it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import twoloc
from twoloc import fixtures

COMMANDS = ("validate", "check-bf", "saturate", "localize", "equiv", "induce")
CORPUS_SIZE = 20
FIXTURE_NAMES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")
DAMAGE = ("truncated", "dropped-compose", "w-not-a-1-cell")
MAX_OBJECTS, MAX_MORS, MAX_CELLS = 4, 8, 12
SCHEMA_KEYS = frozenset({"command", "input", "flags", "verdicts", "data",
                         "counterexamples", "timing_s", "ok"})


# ---------------------------------------------------------------------------
# generated (2-category, W) pairs


def _poset(rng: random.Random):
    """Category tables of a random order on up to four points."""
    n = rng.randint(1, MAX_OBJECTS)
    objs = [f"p{i}" for i in range(n)]
    up = {i: {i} for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                up[i].add(j)
    for i in reversed(range(n)):
        for j in list(up[i]):
            up[i] |= up[j]
    mors = {f"u{i}{j}": (objs[i], objs[j]) for i in range(n) for j in up[i]}
    ident = {objs[i]: f"u{i}{i}" for i in range(n)}
    arrow = {ends: m for m, ends in mors.items()}
    comp = {(g, f): arrow[(mors[f][0], mors[g][1])]
            for g in mors for f in mors if mors[f][1] == mors[g][0]}
    return objs, mors, ident, comp


def _cyclic(rng: random.Random):
    n = rng.randint(1, 6)
    mors = {f"z{k}": ("pt", "pt") for k in range(n)}
    comp = {(f"z{i}", f"z{j}"): f"z{(i + j) % n}"
            for i in range(n) for j in range(n)}
    return ["pt"], mors, {"pt": "z0"}, comp


def _candidate(rng: random.Random):
    """One lawful 2-category, or None when it breaks the size caps."""
    kind = rng.randrange(4)
    if kind == 0:
        c = fixtures.parity_twocat(*_poset(rng), twisted=set())
    elif kind == 1:
        objs, mors, ident, comp = _cyclic(rng)
        twisted = set(mors) if rng.random() < 0.5 else set()
        c = fixtures.parity_twocat(objs, mors, ident, comp, twisted=twisted)
    elif kind == 2:
        objs, mors, ident, comp = _poset(rng)
        # Non-identity arrows of an order are closed under composition with
        # anything, so a parity cell on each of them keeps the tables total.
        twisted = {m for m in mors if m not in ident.values()}
        c = fixtures.parity_twocat(objs, mors, ident, comp, twisted=twisted)
    else:
        left = fixtures.parity_twocat(*_cyclic(rng), twisted=set())
        right = fixtures.parity_twocat(*_poset(rng), twisted=set())
        c = fixtures.disjoint_union(left, right)
    if (len(c.objects) > MAX_OBJECTS or len(c.mors) > MAX_MORS
            or len(c.cells) > MAX_CELLS):
        return None
    return c


def _classes(c, rng: random.Random):
    units = twoloc.quasi_units(c)
    yield units
    yield twoloc.internal_equivalences(c)
    rest = sorted(set(c.mors) - units)
    if rest:
        yield units | frozenset(rng.sample(rest, rng.randint(1, len(rest))))


def generate_pairs(rng: random.Random, count: int):
    """`count` (2-category, W) pairs that pass BF."""
    out = []
    for _attempt in range(5000):
        c = _candidate(rng)
        if c is None:
            continue
        w = rng.choice(list(_classes(c, rng)))
        if twoloc.check_bf(c, w).ok:
            out.append((c, w))
            if len(out) == count:
                return out
    raise RuntimeError(f"only {len(out)} of {count} BF-passing pairs generated")


# ---------------------------------------------------------------------------
# documents and queries


@dataclass(frozen=True)
class Query:
    doc: str        # document stem; damaged copies are `<stem>.<damage>`
    kind: str       # "corpus", "fixture" or one of DAMAGE
    command: str
    span: str       # the span argument of `equiv`

    def argv(self, work: Path) -> list[str]:
        path = str(work / f"{self.doc}.json")
        if self.command == "equiv":
            return ["equiv", path, self.span]
        if self.command == "induce":
            functor = str(work / f"{self.doc.split('.')[0]}.id.json")
            return ["induce", path, path, functor, "--target", "sat", "--xchecks"]
        return [self.command, path]


def expected(q: Query) -> tuple[int, str]:
    """Exit status a query must end with, and why."""
    if q.kind in DAMAGE:
        return 2, {
            "truncated": "the JSON does not parse",
            "dropped-compose": "the 1-cell composition table is not total",
            "w-not-a-1-cell": "W names a 2-cell, not a 1-cell",
        }[q.kind]
    if q.doc == "F4":
        if q.command in ("check-bf", "localize", "equiv"):
            return 1, "F4 is lawful but fails BF5, and only BF5"
        if q.command == "induce":
            return 2, "saturation compatibility refuses a class that fails BF"
        return 0, "F4 is a lawful 2-category; a saturation is data, not a verdict"
    if q.command == "induce":
        return 0, "the comparison C[W^-1] -> C[W_sat^-1] is a weak equivalence"
    return 0, "lawful tables and W passes BF1-BF5"


def check_report(q: Query, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one query's outcome; empty when it is correct."""
    want, why = expected(q)
    problems = []
    if code != want:
        problems.append(f"exit {code}, expected {want} ({why})")
    if "Traceback" in stderr:
        problems.append("printed a traceback")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + ["stdout is not one JSON report"]
    missing = SCHEMA_KEYS - set(report)
    if missing:
        problems.append(f"report lacks {sorted(missing)}")
    verdicts = report.get("verdicts", {})
    if q.command == "equiv" and want == 0 and verdicts.get("deciders_agree") is not True:
        problems.append("deciders_agree is not true")
    if q.doc == "F4" and want == 1:
        failing = sorted(k for k, v in verdicts.items() if not v)
        if failing != ["BF5"]:
            problems.append(f"failing verdicts {failing}, expected only BF5")
    return problems


def _span_of(c, w, rng: random.Random) -> str:
    """A valid span (apex, w, f) of the document, written as the CLI takes it."""
    apex = rng.choice(sorted(c.objects))
    denom = rng.choice(sorted(m for m in w if c.mor_src[m] == apex))
    numer = rng.choice(sorted(m for m in c.mors if c.mor_src[m] == apex))
    return f"({apex},{denom},{numer})"


def _damage(text: str, kind: str, c, rng: random.Random) -> str:
    if kind == "truncated":
        return text[:rng.randint(len(text) // 4, 3 * len(text) // 4)]
    doc = json.loads(text)
    if kind == "dropped-compose":
        doc["compose"].pop(rng.randrange(len(doc["compose"])))
    else:
        doc["W"] = sorted(doc["W"] + [rng.choice(sorted(c.cells))])
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_corpus(seed: int, work: Path) -> list[Query]:
    """Write every document of the seed's corpus; return one cycle of queries.

    Every command runs on every document, so the cost of a cycle averages
    over the whole corpus rather than over a few drawn documents.
    """
    rng = random.Random(f"cli-corpus/{seed}")
    work.mkdir(parents=True, exist_ok=True)
    pairs = [(f"d{k:02d}", c, w, "corpus")
             for k, (c, w) in enumerate(generate_pairs(rng, CORPUS_SIZE))]
    pairs += [(name, *twoloc.fixture(name), "fixture") for name in FIXTURE_NAMES]
    spans = {}
    for stem, c, w, _kind in pairs:
        text = twoloc.dump_twocat(c, w)
        (work / f"{stem}.json").write_text(text, encoding="utf-8")
        functor = twoloc.dump_twofunctor(twoloc.identity_functor(c))
        (work / f"{stem}.id.json").write_text(functor, encoding="utf-8")
        spans[stem] = _span_of(c, w, rng)

    damaged = []
    originals = rng.sample(pairs[:CORPUS_SIZE], len(DAMAGE))
    for kind, (stem, c, w, _kind) in zip(DAMAGE, originals):
        text = (work / f"{stem}.json").read_text(encoding="utf-8")
        (work / f"{stem}.{kind}.json").write_text(
            _damage(text, kind, c, rng), encoding="utf-8")
        damaged.append((f"{stem}.{kind}", kind, spans[stem]))

    slots = [(stem, kind, spans[stem]) for stem, _c, _w, kind in pairs] + damaged
    queries = [Query(stem, kind, command, span)
               for stem, kind, span in slots for command in COMMANDS]
    rng.shuffle(queries)
    return queries
