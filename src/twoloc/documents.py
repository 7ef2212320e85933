"""JSON interchange for 2-categories, groupoids, and functor tables.

All tables are explicit (no inferred composites).  Pair-table entries use
diagrammatic order: in ``compose``, ``result = g∘f`` with f applied first;
in ``vcomp``/``hcomp``, ``result`` composes ``a`` first and ``b`` second
(for ``hcomp``, ``a`` sits over the earlier 1-cell).  Emission is
byte-stable: entries are sorted and serialized with a fixed layout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .core import TwoCat

if TYPE_CHECKING:  # the loaders import these when they build one
    from .groupoids import FiniteGroupoid, GroupoidFunctor
    from .transport import StrictTwoFunctor


class DocumentError(ValueError):
    """Malformed interchange document (syntax or shape)."""


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return doc


def _check_keys(doc: dict, expected: set[str], where: str) -> None:
    """Unknown keys first, then missing ones."""
    extra = set(doc) - expected
    if extra:
        raise DocumentError(f"{where}: unknown keys {sorted(extra)}")
    missing = expected - set(doc)
    if missing:
        raise DocumentError(f"{where}: missing keys {sorted(missing)}")


def _str_list(doc: dict, key: str, where: str) -> list[str]:
    val = doc.get(key)
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise DocumentError(f"{where}: {key!r} must be an array of strings")
    return val


def _str_map(doc: dict, key: str, where: str) -> dict[str, str]:
    val = doc.get(key)
    if not isinstance(val, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in val.items()):
        raise DocumentError(f"{where}: {key!r} must map strings to strings")
    return val


def _edge_list(doc: dict, key: str, where: str) -> dict[str, tuple[str, str]]:
    val = doc.get(key)
    if not isinstance(val, list):
        raise DocumentError(f"{where}: {key!r} must be an array")
    out = {}
    for i, entry in enumerate(val):
        if (not isinstance(entry, dict)
                or set(entry) != {"id", "src", "dst"}
                or not all(isinstance(entry[k], str) for k in entry)):
            raise DocumentError(
                f"{where}: {key}[{i}] must be {{id, src, dst}} with string values")
        if entry["id"] in out:
            raise DocumentError(f"{where}: duplicate {key} id {entry['id']!r}")
        out[entry["id"]] = (entry["src"], entry["dst"])
    return out


def _pair_table(doc: dict, key: str, fields: tuple[str, str], where: str
                ) -> dict[tuple[str, str], str]:
    val = doc.get(key)
    if not isinstance(val, list):
        raise DocumentError(f"{where}: {key!r} must be an array")
    out = {}
    second, first = fields
    for i, entry in enumerate(val):
        if (not isinstance(entry, dict)
                or set(entry) != {second, first, "result"}
                or not all(isinstance(v, str) for v in entry.values())):
            raise DocumentError(
                f"{where}: {key}[{i}] must be {{{second}, {first}, result}}")
        pair = (entry[second], entry[first])
        if pair in out:
            raise DocumentError(f"{where}: duplicate {key} entry for {pair}")
        out[pair] = entry["result"]
    return out


def load_twocat(path: str | Path) -> tuple[TwoCat, frozenset[str]]:
    """Read a 2-category document; shape only, laws are the validator's job."""
    where = str(path)
    doc = _load_json(path)
    _check_keys(doc, {"objects", "morphisms", "identities", "compose", "twocells",
                      "identity2", "vcomp", "hcomp", "W"}, where)

    objects = _str_list(doc, "objects", where)
    mors = _edge_list(doc, "morphisms", where)
    cells = _edge_list(doc, "twocells", where)
    c = TwoCat(
        objects=tuple(objects),
        mor_src={m: sd[0] for m, sd in mors.items()},
        mor_dst={m: sd[1] for m, sd in mors.items()},
        comp1=_pair_table(doc, "compose", ("g", "f"), where),
        id1=_str_map(doc, "identities", where),
        cell_src={a: sd[0] for a, sd in cells.items()},
        cell_dst={a: sd[1] for a, sd in cells.items()},
        vcomp_table=_pair_table(doc, "vcomp", ("b", "a"), where),
        hcomp_table=_pair_table(doc, "hcomp", ("b", "a"), where),
        id2=_str_map(doc, "identity2", where),
    )
    w = _str_list(doc, "W", where)
    unknown = set(w) - set(mors)
    if unknown:
        raise DocumentError(f"{where}: W references unknown morphisms {sorted(unknown)}")
    return c, frozenset(w)


def dump_twocat(c: TwoCat, w) -> str:
    doc = {
        "objects": sorted(c.objects),
        "morphisms": [{"id": m, "src": c.mor_src[m], "dst": c.mor_dst[m]}
                      for m in sorted(c.mor_src)],
        "identities": dict(sorted(c.id1.items())),
        "compose": [{"g": g, "f": f, "result": r}
                    for (g, f), r in sorted(c.comp1.items())],
        "twocells": [{"id": a, "src": c.cell_src[a], "dst": c.cell_dst[a]}
                     for a in sorted(c.cell_src)],
        "identity2": dict(sorted(c.id2.items())),
        "vcomp": [{"b": b, "a": a, "result": r}
                  for (b, a), r in sorted(c.vcomp_table.items())],
        "hcomp": [{"b": b, "a": a, "result": r}
                  for (b, a), r in sorted(c.hcomp_table.items())],
        "W": sorted(w),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_groupoid(path: str | Path) -> FiniteGroupoid:
    from .groupoids import FiniteGroupoid

    where = str(path)
    doc = _load_json(path)
    _check_keys(doc, {"objects", "arrows", "compose", "inverse", "unit"}, where)
    arrows = _edge_list(doc, "arrows", where)
    return FiniteGroupoid(
        name=Path(path).stem,
        objects=tuple(_str_list(doc, "objects", where)),
        arr_src={a: sd[0] for a, sd in arrows.items()},
        arr_dst={a: sd[1] for a, sd in arrows.items()},
        comp=_pair_table(doc, "compose", ("g", "f"), where),
        inv=_str_map(doc, "inverse", where),
        unit=_str_map(doc, "unit", where),
    )


def dump_groupoid(g: FiniteGroupoid) -> str:
    doc = {
        "objects": sorted(g.objects),
        "arrows": [{"id": a, "src": g.arr_src[a], "dst": g.arr_dst[a]}
                   for a in sorted(g.arr_src)],
        "compose": [{"g": b, "f": a, "result": r}
                    for (b, a), r in sorted(g.comp.items())],
        "inverse": dict(sorted(g.inv.items())),
        "unit": dict(sorted(g.unit.items())),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_twofunctor(path: str | Path, source: TwoCat, target: TwoCat) -> StrictTwoFunctor:
    from .transport import StrictTwoFunctor

    where = str(path)
    doc = _load_json(path)
    _check_keys(doc, {"f0", "f1", "f2"}, where)
    return StrictTwoFunctor(source, target,
                            _str_map(doc, "f0", where),
                            _str_map(doc, "f1", where),
                            _str_map(doc, "f2", where))


def dump_twofunctor(fun: StrictTwoFunctor) -> str:
    doc = {"f0": dict(sorted(fun.f0.items())),
           "f1": dict(sorted(fun.f1.items())),
           "f2": dict(sorted(fun.f2.items()))}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_gfunctor(path: str | Path, source: FiniteGroupoid,
                  target: FiniteGroupoid) -> GroupoidFunctor:
    from .groupoids import GroupoidFunctor

    where = str(path)
    doc = _load_json(path)
    _check_keys(doc, {"obj_map", "arr_map"}, where)
    return GroupoidFunctor(source, target,
                           _str_map(doc, "obj_map", where),
                           _str_map(doc, "arr_map", where))


def dump_gfunctor(fun: GroupoidFunctor) -> str:
    doc = {"obj_map": dict(sorted(fun.obj_map.items())),
           "arr_map": dict(sorted(fun.arr_map.items()))}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
