"""Built-in test 2-categories F1..F7 and small construction helpers.

Two builders produce fully tabulated strict 2-categories.  `parity_twocat`
puts a Z/2 worth of 2-cells on every chosen 1-cell (an extra invertible
endo-cell squaring to the identity), with both compositions adding
parities; with no chosen 1-cell the only 2-cells are identities.
`thin_twocat` takes at most one named 2-cell between two 1-cells, so
every composite is forced by its boundary.

Each fixture ships with a default W class (used by the CLI emitter).
"""

from __future__ import annotations

import itertools

from .core import TwoCat


def _close_composition(
    mors: dict[str, tuple[str, str]],
    id1: dict[str, str],
    comp: dict[tuple[str, str], str],
) -> dict[tuple[str, str], str]:
    """Fill in the identity composites and check the table is total."""
    table = dict(comp)
    for f, (s, d) in mors.items():
        table.setdefault((f, id1[s]), f)
        table.setdefault((id1[d], f), f)
    for g, f in itertools.product(mors, mors):
        if mors[f][1] == mors[g][0] and (g, f) not in table:
            raise ValueError(f"composition table missing {(g, f)}")
    return table


def parity_twocat(
    objects: list[str],
    mors: dict[str, tuple[str, str]],
    id1: dict[str, str],
    comp: dict[tuple[str, str], str],
    twisted: set[str] | None = None,
    twist_name: str = "s",
) -> TwoCat:
    """2-cells are (1-cell, parity); both compositions add parities mod 2.

    `twisted` selects which 1-cells carry the extra parity-1 cell (default:
    all of them).  Interchange holds because parity addition is commutative,
    but the tables are only total if `twisted` is closed under composition
    with everything — passing `None` (all 1-cells) is always safe.
    """
    comp = _close_composition(mors, id1, comp)
    if twisted is None:
        twisted = set(mors)

    def name(f: str, p: int) -> str:
        return f"i_{f}" if p == 0 else f"{twist_name}_{f}"

    cell_src: dict[str, str] = {}
    parities: dict[str, tuple[str, int]] = {}
    for f in mors:
        cell_src[name(f, 0)] = f
        parities[name(f, 0)] = (f, 0)
        if f in twisted:
            cell_src[name(f, 1)] = f
            parities[name(f, 1)] = (f, 1)

    vcomp: dict[tuple[str, str], str] = {}
    for b, (fb, pb) in parities.items():
        for a, (fa, pa) in parities.items():
            if fa == fb:  # parallel endo-cells: always vertically composable
                vcomp[(b, a)] = name(fa, (pa + pb) % 2)
    hcomp: dict[tuple[str, str], str] = {}
    for b, (fb, pb) in parities.items():
        for a, (fa, pa) in parities.items():
            if mors[fa][1] == mors[fb][0]:
                target = comp[(fb, fa)]
                p = (pa + pb) % 2
                if p == 1 and target not in twisted:
                    raise ValueError(
                        f"twisted set not closed: {target} needs a parity-1 cell"
                    )
                hcomp[(b, a)] = name(target, p)
    return TwoCat(
        objects=tuple(objects),
        mor_src={f: s for f, (s, _) in mors.items()},
        mor_dst={f: d for f, (_, d) in mors.items()},
        comp1=comp,
        id1=dict(id1),
        cell_src=cell_src,
        cell_dst=dict(cell_src),
        vcomp_table=vcomp,
        hcomp_table=hcomp,
        id2={f: name(f, 0) for f in mors},
    )


def thin_twocat(
    objects: list[str],
    mors: dict[str, tuple[str, str]],
    id1: dict[str, str],
    comp: dict[tuple[str, str], str],
    cells: dict[str, tuple[str, str]],
) -> TwoCat:
    """One named 2-cell f ⇒ g for each pair (f, g) in `cells`, and no others.

    With at most one 2-cell between two 1-cells every composite is forced:
    b⊙a runs from src a to dst b, and b∗a from src b∘src a to dst b∘dst a.
    Raises ValueError when two names share a pair, or when the pairs lack
    an identity or are not closed under either composition.
    """
    comp = _close_composition(mors, id1, comp)
    named = {pair: a for a, pair in cells.items()}
    if len(named) != len(cells):
        raise ValueError("two 2-cells share a boundary")

    def cell(f: str, g: str) -> str:
        try:
            return named[(f, g)]
        except KeyError:
            raise ValueError(f"the pairs have no 2-cell {f} ⇒ {g}") from None

    vcomp = {(b, a): cell(sa, db) for b, (sb, db) in cells.items()
             for a, (sa, da) in cells.items() if da == sb}
    hcomp = {(b, a): cell(comp[(sb, sa)], comp[(db, da)])
             for b, (sb, db) in cells.items()
             for a, (sa, da) in cells.items() if mors[sa][1] == mors[sb][0]}
    return TwoCat(
        objects=tuple(objects),
        mor_src={f: s for f, (s, _) in mors.items()},
        mor_dst={f: d for f, (_, d) in mors.items()},
        comp1=comp,
        id1=dict(id1),
        cell_src={a: f for a, (f, _) in cells.items()},
        cell_dst={a: g for a, (_, g) in cells.items()},
        vcomp_table=vcomp,
        hcomp_table=hcomp,
        id2={f: cell(f, f) for f in mors},
    )


def disjoint_union(c1: TwoCat, c2: TwoCat) -> TwoCat:
    """Side-by-side union with identifier prefixes "l." and "r."; no cross composites exist."""

    def merge(d1: dict, d2: dict, key1, key2, val1, val2) -> dict:
        out = {key1(k): val1(v) for k, v in d1.items()}
        out.update({key2(k): val2(v) for k, v in d2.items()})
        return out

    r1 = lambda x: "l." + x
    r2 = lambda x: "r." + x
    p1 = lambda kv: (r1(kv[0]), r1(kv[1]))
    p2 = lambda kv: (r2(kv[0]), r2(kv[1]))
    return TwoCat(
        objects=tuple(r1(o) for o in c1.objects) + tuple(r2(o) for o in c2.objects),
        mor_src=merge(c1.mor_src, c2.mor_src, r1, r2, r1, r2),
        mor_dst=merge(c1.mor_dst, c2.mor_dst, r1, r2, r1, r2),
        comp1=merge(c1.comp1, c2.comp1, p1, p2, r1, r2),
        id1=merge(c1.id1, c2.id1, r1, r2, r1, r2),
        cell_src=merge(c1.cell_src, c2.cell_src, r1, r2, r1, r2),
        cell_dst=merge(c1.cell_dst, c2.cell_dst, r1, r2, r1, r2),
        vcomp_table=merge(c1.vcomp_table, c2.vcomp_table, p1, p2, r1, r2),
        hcomp_table=merge(c1.hcomp_table, c2.hcomp_table, p1, p2, r1, r2),
        id2=merge(c1.id2, c2.id2, r1, r2, r1, r2),
    )


# ---------------------------------------------------------------------------
# the seven shipped fixtures; each returns (TwoCat, default W)


def f1() -> tuple[TwoCat, frozenset[str]]:
    """One object, identity cells only."""
    c = parity_twocat(["A"], {"idA": ("A", "A")}, {"A": "idA"}, {}, twisted=set())
    return c, frozenset({"idA"})


def _walking_iso(twisted: set[str] | None) -> TwoCat:
    """The walking isomorphism f: X→Y, g: Y→X, with parity cells on `twisted`."""
    return parity_twocat(
        ["X", "Y"],
        {"idX": ("X", "X"), "idY": ("Y", "Y"), "f": ("X", "Y"), "g": ("Y", "X")},
        {"X": "idX", "Y": "idY"},
        {("g", "f"): "idX", ("f", "g"): "idY"},
        twisted=twisted,
    )


def f2() -> tuple[TwoCat, frozenset[str]]:
    """Walking isomorphism f: X→Y, g: Y→X; identity 2-cells only."""
    return _walking_iso(set()), frozenset({"idX", "idY"})


def f3() -> tuple[TwoCat, frozenset[str]]:
    """Objects 0, 1 with a single arrow w: 0→1 (a poset as a 2-category)."""
    c = parity_twocat(
        ["0", "1"],
        {"id0": ("0", "0"), "id1": ("1", "1"), "w": ("0", "1")},
        {"0": "id0", "1": "id1"},
        {},
        twisted=set(),
    )
    return c, frozenset({"id0", "id1", "w"})


def f4() -> tuple[TwoCat, frozenset[str]]:
    """Parallel p, q: A→B joined by an invertible mu: p ⇒ q."""
    c = thin_twocat(
        ["A", "B"],
        {"idA": ("A", "A"), "idB": ("B", "B"), "p": ("A", "B"), "q": ("A", "B")},
        {"A": "idA", "B": "idB"},
        {},
        {"i_idA": ("idA", "idA"), "i_idB": ("idB", "idB"), "i_p": ("p", "p"),
         "i_q": ("q", "q"), "mu": ("p", "q"), "mu_inv": ("q", "p")},
    )
    return c, frozenset({"idA", "idB", "p"})


def f5() -> tuple[TwoCat, frozenset[str]]:
    """One object with an idempotent endo-cell u isomorphic to the identity.

    u∘u = u and an invertible eps: u ⇒ idA make u a non-identity quasi-unit,
    so the minimal BF class {idA, u} is strictly bigger than {idA}.
    Horizontally, whiskering by u crushes everything onto i_u.
    """
    c = thin_twocat(
        ["A"],
        {"idA": ("A", "A"), "u": ("A", "A")},
        {"A": "idA"},
        {("u", "u"): "u"},
        {"i_idA": ("idA", "idA"), "i_u": ("u", "u"),
         "eps": ("u", "idA"), "eps_inv": ("idA", "u")},
    )
    return c, frozenset({"idA", "u"})


def f6() -> tuple[TwoCat, frozenset[str]]:
    """Walking isomorphism with a Z/2 parity 2-cell on every 1-cell."""
    return _walking_iso(None), frozenset({"idX", "idY", "f", "g"})


def f7() -> tuple[TwoCat, frozenset[str]]:
    """A single f: A→B carrying an involutive 2-cell tau: f ⇒ f."""
    c = parity_twocat(
        ["A", "B"],
        {"idA": ("A", "A"), "idB": ("B", "B"), "f": ("A", "B")},
        {"A": "idA", "B": "idB"},
        {},
        twisted={"f"},
        twist_name="tau",
    )
    return c, frozenset({"idA", "idB"})


FIXTURES = {"F1": f1, "F2": f2, "F3": f3, "F4": f4, "F5": f5, "F6": f6, "F7": f7}


def fixture(name: str) -> tuple[TwoCat, frozenset[str]]:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}") from None
