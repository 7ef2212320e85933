"""Command-line surface: machine-readable reports over the document formats.

Every subcommand prints one JSON report with the fields

    command, input, flags, verdicts, data, counterexamples, timing_s, ok

and exits with one of three codes:

* 0: every verdict passed;
* 1: some verdict is false, and nothing else went wrong;
* 2: the input is malformed or structurally invalid, or a file could not
  be read or written (including the `--output` report and the document
  `fixtures` writes).  The report then carries an `error` message.  It
  keeps the data gathered so far and goes where `--output` says, except
  when a file could not be written: then it is printed to stdout.

Computed answers (e.g. a saturation, or a 2-cell equality) are data, not
verdicts: they never flip the exit code by themselves.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .core import StructureError, validate
from .documents import (
    DocumentError,
    dump_groupoid,
    dump_twocat,
    load_gfunctor,
    load_groupoid,
    load_twocat,
    load_twofunctor,
)

if TYPE_CHECKING:
    from .fractions import CellRep, Span

# Each subcommand imports the layers it calls, so a query compiles only
# the modules it uses.

OK, FAIL, BAD_INPUT = 0, 1, 2


def _jsonable(x):
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in x]
        return sorted(items, key=repr) if isinstance(x, (set, frozenset)) else items
    return repr(x)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    import tempfile  # slow to import, and needed only here
    # a fresh file beside the output, so that no other file is touched
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(os.path.abspath(output)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        umask = os.umask(0)  # mkstemp makes the file private; give the usual mode
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, output)
    except BaseException:
        os.unlink(tmp)
        raise


class _Command:
    """Collects report fields; decides the exit code at the end."""

    def __init__(self, args: argparse.Namespace):
        inputs: list[str] = []
        for name in args.inputs:  # the arguments that name documents
            value = getattr(args, name)
            inputs.extend(value if isinstance(value, list) else [value])
        self.report = {
            "command": args.cmd,
            "input": inputs,
            "flags": {"xchecks": args.xchecks} if "xchecks" in args else {},
            "verdicts": {},
            "data": {},
            "counterexamples": {},
        }
        self.output = args.output
        self.started = time.perf_counter()
        self.forced_exit: int | None = None

    def verdict(self, name: str, value: bool, counterexample=None) -> None:
        self.report["verdicts"][name] = bool(value)
        if not value and counterexample is not None:
            self.report["counterexamples"][name] = counterexample

    def finish(self) -> int:
        ok = all(self.report["verdicts"].values())
        self.report["ok"] = ok and self.forced_exit in (None, OK)
        self.report["timing_s"] = round(time.perf_counter() - self.started, 6)
        _emit(self.report, self.output)
        if self.forced_exit is not None:
            return self.forced_exit
        return OK if ok else FAIL

    def bad_input(self, message: str) -> int:
        self.report["error"] = message
        self.forced_exit = BAD_INPUT
        return self.finish()


def _span_arg(text: str) -> Span:
    from .fractions import Span

    parts = [p.strip() for p in text.strip().strip("()").split(",")]
    if len(parts) != 3 or not all(parts):
        raise DocumentError(f"span must be (apex,w,f): got {text!r}")
    return Span(*parts)


def _rep_arg(text: str, src: Span, dst: Span) -> CellRep:
    from .fractions import CellRep

    parts = [p.strip() for p in text.strip().strip("()").split(",")]
    if len(parts) != 5 or not all(parts):
        raise DocumentError(f"representative must be (apex,v1,v2,alpha,beta): got {text!r}")
    return CellRep(src, dst, *parts)


def _span_out(s: Span) -> list[str]:
    return [s.apex, s.w, s.f]


def _rep_out(r: CellRep) -> dict:
    return {"src_span": _span_out(r.src_span), "dst_span": _span_out(r.dst_span),
            "apex": r.apex, "v1": r.v1, "v2": r.v2,
            "alpha": r.alpha, "beta": r.beta}


def _load_checked(cmd: _Command, path: str, name: str = "document"):
    """Load and validate a 2-category document; DocumentError if it is unlawful."""
    c, w = load_twocat(path)
    rep = validate(c)
    if not rep.ok:
        cmd.report["data"]["validation"] = rep.lines()
        raise DocumentError(f"{name} fails 2-category validation")
    return c, w


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cmd: _Command, args) -> int:
    c, _w = load_twocat(args.path)
    rep = validate(c)
    if rep.structural:
        cmd.report["data"]["structural"] = rep.structural
        return cmd.bad_input("document is not a 2-category (structural problems)")
    cmd.verdict("valid", rep.ok, rep.failures or None)
    cmd.report["data"]["checks"] = rep.lines()
    return cmd.finish()


def cmd_check_bf(cmd: _Command, args) -> int:
    from .saturation import check_bf

    c, w = _load_checked(cmd, args.path)
    bf = check_bf(c, w)
    for axiom, passed in bf.passed.items():
        cmd.verdict(axiom, passed, bf.counterexamples.get(axiom))
    cmd.report["data"]["W"] = sorted(w)
    return cmd.finish()


def cmd_saturate(cmd: _Command, args) -> int:
    from .saturation import is_right_saturated, saturate

    c, w = _load_checked(cmd, args.path)
    sat = saturate(c, w)
    cmd.report["data"]["W"] = sorted(w)
    cmd.report["data"]["saturation"] = sorted(sat)
    cmd.report["data"]["is_right_saturated"] = is_right_saturated(c, w)
    return cmd.finish()


def _require_bf(cmd: _Command, c, w) -> bool:
    from .saturation import check_bf

    bf = check_bf(c, w)
    if not bf.ok:
        for axiom, passed in bf.passed.items():
            cmd.verdict(axiom, passed, bf.counterexamples.get(axiom))
    return bf.ok


def cmd_localize(cmd: _Command, args) -> int:
    from .fractions import build_choices

    c, w = _load_checked(cmd, args.path)
    if not _require_bf(cmd, c, w):
        return cmd.finish()
    loc = build_choices(c, w)
    homs = []
    for a, b in itertools.product(sorted(c.objects), sorted(c.objects)):
        spans = loc.spans(a, b)
        cell_counts = [
            {"src_span": _span_out(s1), "dst_span": _span_out(s2),
             "count": len(loc.hom_cells(s1, s2))}
            for s1, s2 in itertools.product(spans, spans)
        ]
        homs.append({"src": a, "dst": b,
                     "spans": [_span_out(s) for s in spans],
                     "cell_counts": cell_counts})
    cmd.report["data"]["objects"] = sorted(c.objects)
    cmd.report["data"]["homs"] = homs
    return cmd.finish()


def cmd_equiv(cmd: _Command, args) -> int:
    from .fractions import build_choices, is_internal_equiv_closed_form, is_internal_equiv_search

    c, w = _load_checked(cmd, args.path)
    span = _span_arg(args.span)
    # the class store checks the span once, here, before BF is checked
    closed = is_internal_equiv_closed_form(c, w, span)
    if not _require_bf(cmd, c, w):
        return cmd.finish()
    loc = build_choices(c, w)
    witness = is_internal_equiv_search(loc, span)
    cmd.verdict("deciders_agree", closed == (witness is not None),
                {"closed_form": closed, "witness": witness is not None})
    cmd.report["data"]["span"] = _span_out(span)
    cmd.report["data"]["is_internal_equivalence"] = closed
    if witness is not None:
        cmd.report["data"]["witness"] = {
            "quasi_inverse": _span_out(witness.e_bar),
            "delta": _rep_out(witness.delta.canonical),
            "xi": _rep_out(witness.xi.canonical),
        }
    return cmd.finish()


def cmd_cell_eq(cmd: _Command, args) -> int:
    from .fractions import build_choices, cells_equal, equality_chain

    c, w = _load_checked(cmd, args.path)
    src = _span_arg(args.src)
    dst = _span_arg(args.dst)
    r1 = _rep_arg(args.rep1, src, dst)
    r2 = _rep_arg(args.rep2, src, dst)
    if not _require_bf(cmd, c, w):
        return cmd.finish()
    loc = build_choices(c, w)
    equal = cells_equal(loc, r1, r2)
    cmd.report["data"]["equal"] = equal
    if equal:
        chain = equality_chain(loc, r1, r2)
        cmd.report["data"]["chain"] = [_rep_out(r) for r in chain[1:-1]] \
            if len(chain) > 2 else []
        cmd.report["data"]["chain_length"] = len(chain) - 1
    return cmd.finish()


def cmd_induce(cmd: _Command, args) -> int:
    from .fractions import build_choices, u_mor
    from .transport import (induce, preserves_into, saturation_compatibility,
                            x_conditions_for_induced)

    c_src, w_src = _load_checked(cmd, args.src, f"{args.src}:")
    c_dst, w_dst = _load_checked(cmd, args.dst, f"{args.dst}:")
    fun = load_twofunctor(args.functor, c_src, c_dst)
    if not fun.validation.ok:
        cmd.report["data"]["functor_validation"] = fun.validation.lines()
        return cmd.bad_input("functor tables do not define a strict 2-functor")

    compat = saturation_compatibility(fun, w_src, w_dst)
    cmd.verdict("image_in_target_saturation", compat.image_in_target_sat,
                sorted(fun.map_class(w_src) - compat.dst_saturation) or None)
    cmd.verdict("saturated_image_in_target_saturation", compat.sat_image_in_target_sat)
    cmd.report["data"]["src_saturation"] = sorted(compat.src_saturation)
    cmd.report["data"]["dst_saturation"] = sorted(compat.dst_saturation)

    target_w = compat.dst_saturation if args.target == "sat" else w_dst
    cmd.report["data"]["target_class"] = sorted(target_w)
    if not preserves_into(fun, w_src, target_w):
        cmd.verdict("image_in_target_class", False,
                    sorted(fun.map_class(w_src) - frozenset(target_w)))
        return cmd.finish()
    cmd.verdict("image_in_target_class", True)

    ind = induce(fun, build_choices(c_src, w_src), build_choices(c_dst, target_w))
    # constant on classes by the lemma in `transport`, whose hypotheses
    # (lawful tables, strict F, image in the target class) hold here
    cmd.verdict("induced_well_defined", True)
    cmd.verdict("strict_square", all(
        ind.map_span(u_mor(c_src, w_src, f)) == u_mor(c_dst, target_w, fun.f1[f])
        for f in c_src.mors))
    cmd.report["data"]["span_images"] = [
        {"span": _span_out(s), "image": _span_out(ind.map_span(s))}
        for a, b in itertools.product(sorted(c_src.objects), sorted(c_src.objects))
        for s in ind.source_loc.spans(a, b)
    ]
    if args.xchecks:
        xrep = x_conditions_for_induced(ind)
        for name, value in xrep.verdicts.items():
            cmd.verdict(f"x_{name}", value, xrep.counterexamples.get(name))
    return cmd.finish()


def cmd_groupoid(cmd: _Command, args) -> int:
    from .groupoids import (enumerate_gfunctors, functor_problems,
                            is_essentially_surjective, is_fully_faithful,
                            morita_saturated_check, morita_two_out_of_six,
                            validate_groupoid)

    gpds = []
    for i, p in enumerate(args.paths):
        g = load_groupoid(p)
        taken = {other.name for other in gpds}
        if g.name in taken:  # first free suffix, from the position on
            k = i
            while f"{g.name}_{k}" in taken:
                k += 1
            g.name = f"{g.name}_{k}"
        gpds.append(g)

    for g in gpds:
        grep = validate_groupoid(g)
        if not grep.ok:
            cmd.report["data"][f"validation_{g.name}"] = grep.lines()
            return cmd.bad_input(f"{g.name}: not a groupoid")

    if args.check == "morita":
        if len(gpds) != 2 or not args.functor:
            return cmd.bad_input("--check=morita needs two groupoids and --functor")
        fun = load_gfunctor(args.functor, gpds[0], gpds[1])
        problems = functor_problems(fun)
        if problems:
            return cmd.bad_input("; ".join(problems))
        es = is_essentially_surjective(fun)
        ff = is_fully_faithful(fun)
        cmd.verdict("essentially_surjective", es)
        cmd.verdict("fully_faithful", ff)
        cmd.verdict("morita", es and ff)
    elif args.check == "two-out-of-six":
        checked, vacuous = 0, 0
        failures = []
        funs = {}
        for a, b in itertools.product(gpds, gpds):
            funs[(a.name, b.name)] = enumerate_gfunctors(a, b)
        for u, z, y, x in itertools.product(gpds, repeat=4):
            for xi in funs[(u.name, z.name)]:
                for psi in funs[(z.name, y.name)]:
                    for phi in funs[(y.name, x.name)]:
                        rep = morita_two_out_of_six(xi, psi, phi)
                        checked += 1
                        if rep.vacuous:
                            vacuous += 1
                        elif not rep.ok:
                            failures.append({
                                "xi": xi.signature(), "psi": psi.signature(),
                                "phi": phi.signature(), "verdicts": rep.verdicts})
        cmd.verdict("no_counterexample", not failures, failures or None)
        cmd.report["data"]["triples_checked"] = checked
        cmd.report["data"]["vacuous"] = vacuous
        cmd.report["data"]["composites_decided"] = sum(
            len(f.composites_decided) for fs in funs.values() for f in fs)
    elif args.check == "saturated":
        cmd.verdict("morita_class_saturated", morita_saturated_check(gpds))
    else:
        return cmd.bad_input(f"unknown --check {args.check!r}")
    return cmd.finish()


def cmd_fixtures(cmd: _Command, args) -> int:
    from .fixtures import FIXTURES, fixture

    name = args.name
    if name in FIXTURES:
        c, w = fixture(name)
        text = dump_twocat(c, w)
    else:
        from .groupoids import GROUPOID_FIXTURES  # not loaded for a 2-category fixture

        if name not in GROUPOID_FIXTURES:
            known = sorted(FIXTURES) + sorted(GROUPOID_FIXTURES)
            return cmd.bad_input(f"unknown fixture {name!r}; have {known}")
        text = dump_groupoid(GROUPOID_FIXTURES[name]())
    Path(args.out).write_text(text, encoding="utf-8")
    cmd.report["data"]["written"] = args.out
    cmd.report["data"]["bytes"] = len(text.encode("utf-8"))
    return cmd.finish()


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the JSON report here instead of stdout")

    p = argparse.ArgumentParser(prog="twoloc",
                                description="finite 2-category localization toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="check a 2-category document against all the laws")
    sp.add_argument("path")
    sp.set_defaults(fn=cmd_validate, inputs=("path",))

    sp = sub.add_parser("check-bf", parents=[common],
                        help="verify the fraction axioms for (C, W)")
    sp.add_argument("path")
    sp.set_defaults(fn=cmd_check_bf, inputs=("path",))

    sp = sub.add_parser("saturate", parents=[common],
                        help="compute the right saturation of W")
    sp.add_argument("path")
    sp.set_defaults(fn=cmd_saturate, inputs=("path",))

    sp = sub.add_parser("localize", parents=[common],
                        help="enumerate spans and 2-cell classes of C[W^-1]")
    sp.add_argument("path")
    sp.set_defaults(fn=cmd_localize, inputs=("path",))

    sp = sub.add_parser("equiv", parents=[common],
                        help="decide internal equivalence of a span, both ways")
    sp.add_argument("path")
    sp.add_argument("span", help="the span, written (apex,w,f)")
    sp.set_defaults(fn=cmd_equiv, inputs=("path",))

    sp = sub.add_parser("cell-eq", parents=[common],
                        help="decide equality of two 2-cell representatives")
    sp.add_argument("path")
    sp.add_argument("--src", required=True, help="source span (apex,w,f)")
    sp.add_argument("--dst", required=True, help="target span (apex,w,f)")
    sp.add_argument("rep1", help="(apex,v1,v2,alpha,beta)")
    sp.add_argument("rep2", help="(apex,v1,v2,alpha,beta)")
    sp.set_defaults(fn=cmd_cell_eq, inputs=("path",))

    sp = sub.add_parser("induce", parents=[common],
                        help="push a strict 2-functor down to the localizations")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument("functor")
    sp.add_argument("--target", choices=("sat", "plain"), default="sat",
                    help="localize the target at W_sat (default) or W itself")
    sp.add_argument("--xchecks", action="store_true", default=False,
                    help="run the expensive weak-equivalence enumeration")
    sp.set_defaults(fn=cmd_induce, inputs=("src", "dst", "functor"))

    sp = sub.add_parser("groupoid", parents=[common],
                        help="Morita checks over groupoid documents")
    sp.add_argument("paths", nargs="+")
    sp.add_argument("--check", required=True,
                    choices=("morita", "two-out-of-six", "saturated"))
    sp.add_argument("--functor", default=None,
                    help="functor document for --check=morita")
    sp.set_defaults(fn=cmd_groupoid, inputs=("paths",))

    sp = sub.add_parser("fixtures", parents=[common],
                        help="emit a built-in document (F1..F7, unit, pair2, disc2)")
    sp.add_argument("name")
    sp.add_argument("out")
    sp.set_defaults(fn=cmd_fixtures, inputs=("name",))
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    cmd = _Command(args)
    try:
        try:
            return args.fn(cmd, args)
        except (DocumentError, StructureError) as exc:
            return cmd.bad_input(str(exc))
    except OSError as exc:
        fallback = _Command(args)
        fallback.output = None  # the --output path may be what failed
        return fallback.bad_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
