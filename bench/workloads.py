"""The in-process workloads: inputs made from a seed, one task, its answer.

Each workload class has

* `fresh_inputs()`: new tables for one task, built outside the timed span;
* `run(inputs)`: the task itself, the only code inside the timed span;
* `check(inputs, outcome)`: compares the outcome with the known answer and
  returns a list of problems (empty when the task was correct).

The seed renames the identifiers the twoloc builders take (objects and
1-cells of Z/8; objects, arrows and names of the groupoids) through a
seeded bijection; the builders name the 2-cells from them.  Verdicts do not
depend on names, but twoloc searches in lexicographic order, so a renaming
changes which fillers, lifts and witnesses are found first.

twoloc is reached only through module attributes (`twoloc.validate`, ...),
never through names bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import random

import twoloc
from twoloc import fixtures


def fresh_names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct identifiers whose lexicographic order is random."""
    return [f"{prefix}{k:04d}" for k in rng.sample(range(10000), n)]


def rename_twocat(c, w, rng: random.Random):
    """A copy of (c, w) with every object, 1-cell and 2-cell renamed."""
    obj = dict(zip(c.objects, fresh_names(rng, len(c.objects), "o")))
    mor = dict(zip(c.mors, fresh_names(rng, len(c.mors), "m")))
    cell = dict(zip(c.cells, fresh_names(rng, len(c.cells), "c")))
    renamed = twoloc.TwoCat(
        objects=tuple(sorted(obj[o] for o in c.objects)),
        mor_src={mor[f]: obj[a] for f, a in c.mor_src.items()},
        mor_dst={mor[f]: obj[a] for f, a in c.mor_dst.items()},
        comp1={(mor[g], mor[f]): mor[h] for (g, f), h in c.comp1.items()},
        id1={obj[a]: mor[f] for a, f in c.id1.items()},
        cell_src={cell[x]: mor[f] for x, f in c.cell_src.items()},
        cell_dst={cell[x]: mor[f] for x, f in c.cell_dst.items()},
        vcomp_table={(cell[b], cell[a]): cell[r]
                     for (b, a), r in c.vcomp_table.items()},
        hcomp_table={(cell[b], cell[a]): cell[r]
                     for (b, a), r in c.hcomp_table.items()},
        id2={mor[f]: cell[x] for f, x in c.id2.items()},
    )
    return renamed, frozenset(mor[f] for f in w)


def rename_groupoid(g, rng: random.Random, name: str):
    obj = dict(zip(g.objects, fresh_names(rng, len(g.objects), "x")))
    arr = dict(zip(g.arrows, fresh_names(rng, len(g.arrows), "a")))
    return twoloc.FiniteGroupoid(
        name,
        tuple(sorted(obj[o] for o in g.objects)),
        {arr[a]: obj[o] for a, o in g.arr_src.items()},
        {arr[a]: obj[o] for a, o in g.arr_dst.items()},
        {(arr[b], arr[a]): arr[r] for (b, a), r in g.comp.items()},
        {arr[a]: arr[b] for a, b in g.inv.items()},
        {obj[o]: arr[a] for o, a in g.unit.items()},
    )


# ---------------------------------------------------------------------------
# zn-saturation


def cyclic_parity(n: int, names: list[str], point: str):
    """Z/n on one object, with a parity 2-cell on every 1-cell.

    `names[k]` is the 1-cell for k; the builder names the 2-cells after
    them (`i_<f>` for the identity cell, `s_<f>` for the parity cell).
    """
    mors = {g: (point, point) for g in names}
    comp = {(names[i], names[j]): names[(i + j) % n]
            for i in range(n) for j in range(n)}
    return fixtures.parity_twocat([point], mors, {point: names[0]}, comp)


class ZnSaturation:
    """Z/8 with parity cells; W = <4> and then W = <2>, fresh tables each.

    The seed renames the object and the 1-cells, which are the builder's
    inputs; `rename_cells` also renames every 2-cell afterwards.  At this
    commit the latter breaks the search decider and the X-conditions (see
    bench/README.md), so only the former is a listed workload.
    """

    N = 8
    # (generator step, recorded total of 2-cell classes over all span pairs).
    # The totals were recorded from the package as first benchmarked, not
    # derived by hand.
    SUBGROUPS = ((4, 128), (2, 512))
    X_CONDITIONS = {"obj_surjective_up_to_equiv", "mor_surjective_up_to_iso",
                    "cell_injective", "cell_surjective"}

    def __init__(self, seed: int, rename_cells: bool = False):
        self.rng = random.Random(f"zn-saturation/{seed}")
        self.rename_cells = rename_cells

    def fresh_inputs(self):
        out = []
        for step, classes in self.SUBGROUPS:
            names = fresh_names(self.rng, self.N, "m")
            c = cyclic_parity(self.N, names, fresh_names(self.rng, 1, "o")[0])
            w = frozenset(names[k] for k in range(0, self.N, step))
            if self.rename_cells:
                c, w = rename_twocat(c, w, self.rng)
            out.append((c, w, classes))
        return out

    def run(self, inputs):
        return [self._one(c, w) for c, w, _classes in inputs]

    @staticmethod
    def _one(c, w):
        valid = twoloc.validate(c)
        bf = twoloc.check_bf(c, w)
        sat = twoloc.saturate(c, w)
        ch = twoloc.build_choices(c, w)
        loc = twoloc.localize(c, w, ch)
        x = c.objects[0]
        spans = loc.spans(x, x)
        classes = sum(len(twoloc.hom_fraction_cells(c, w, s1, s2))
                      for s1 in spans for s2 in spans)
        closed = [twoloc.is_internal_equiv_closed_form(c, w, s) for s in spans]
        found = [twoloc.is_internal_equiv_search(ch, s) for s in spans]
        induced = twoloc.comparison_to_saturation(c, w)
        xrep = twoloc.x_conditions_for_induced(induced)
        return {"valid": valid.ok, "bf": bf.ok, "sat": sat, "ch": ch,
                "spans": len(spans), "classes": classes, "closed": closed,
                "found": found, "x": dict(xrep.verdicts)}

    def check(self, inputs, outcome) -> list[str]:
        problems = []
        for (c, w, classes), got in zip(inputs, outcome):
            tag = f"|W|={len(w)}"
            if not (got["valid"] and got["bf"]):
                problems.append(f"{tag}: tables invalid or BF fails")
            if got["sat"] != frozenset(c.mors):
                problems.append(f"{tag}: saturation is not all {self.N} 1-cells")
            if got["spans"] != len(w) * self.N:
                problems.append(f"{tag}: {got['spans']} spans")
            if not all(got["closed"]):
                problems.append(f"{tag}: closed form rejects a span")
            if not all(got["found"]):
                problems.append(f"{tag}: search finds no quasi-inverse for a span")
            elif not all(twoloc.is_invertible_fraction_cell(got["ch"], cell)
                         for eq in got["found"] for cell in (eq.delta, eq.xi)):
                problems.append(f"{tag}: a search witness cell is not invertible")
            if set(got["x"]) != self.X_CONDITIONS or not all(got["x"].values()):
                problems.append(f"{tag}: X-conditions {got['x']}")
            if got["classes"] != classes:
                problems.append(f"{tag}: {got['classes']} classes, recorded {classes}")
        return problems


# ---------------------------------------------------------------------------
# catalog-morita


class CatalogMorita:
    """Groupoids Unit, Pair2, Disc3 localized at the Morita functors."""

    SHAPE = {"functors": 50, "transformations": 120, "morita": 14,
             "vcomp": 620, "hcomp": 4740}
    CHAINS = 36820

    def __init__(self, seed: int):
        self.rng = random.Random(f"catalog-morita/{seed}")

    def fresh_inputs(self):
        base = [twoloc.unit_groupoid(), twoloc.pair_groupoid(2),
                twoloc.discrete_groupoid(3)]
        names = fresh_names(self.rng, len(base), "G")
        return [rename_groupoid(g, self.rng, name) for g, name in zip(base, names)]

    def run(self, catalog):
        c, w = twoloc.groupoid_twocat(catalog)
        valid = twoloc.validate(c)
        bf = twoloc.check_bf(c, w)
        sat = twoloc.saturate(c, w)
        ch = twoloc.build_choices(c, w)
        closed, found = {}, {}
        for f in c.mors:
            span = twoloc.u_mor(c, w, f)
            closed[f] = twoloc.is_internal_equiv_closed_form(c, w, span)
            found[f] = twoloc.is_internal_equiv_search(ch, span) is not None
        functors = {(a.name, b.name): twoloc.enumerate_gfunctors(a, b)
                    for a, b in itertools.product(catalog, repeat=2)}
        chains = counterexamples = 0
        for u, z, y, x in itertools.product(catalog, repeat=4):
            for xi in functors[(u.name, z.name)]:
                for psi in functors[(z.name, y.name)]:
                    for phi in functors[(y.name, x.name)]:
                        chains += 1
                        if not twoloc.morita_two_out_of_six(xi, psi, phi).ok:
                            counterexamples += 1
        return {"c": c, "w": w, "valid": valid.ok, "bf": bf.ok, "sat": sat,
                "closed": closed, "found": found, "chains": chains,
                "counterexamples": counterexamples}

    def check(self, catalog, got) -> list[str]:
        c, w = got["c"], got["w"]
        shape = {"functors": len(c.mors), "transformations": len(c.cells),
                 "morita": len(w), "vcomp": len(c.vcomp_table),
                 "hcomp": len(c.hcomp_table)}
        problems = []
        if shape != self.SHAPE:
            problems.append(f"catalog shape {shape}")
        if not (got["valid"] and got["bf"]):
            problems.append("tables invalid or BF fails")
        if got["sat"] != w:
            problems.append("saturate(W) != W")
        if got["closed"] != got["found"]:
            problems.append("the two deciders disagree")
        if {f for f, yes in got["closed"].items() if yes} != w:
            problems.append("the equivalences are not exactly W")
        if got["chains"] != self.CHAINS:
            problems.append(f"{got['chains']} chains, expected {self.CHAINS}")
        if got["counterexamples"]:
            problems.append(f"{got['counterexamples']} two-out-of-six counterexamples")
        return problems


IN_PROCESS = {
    "zn-saturation": ZnSaturation,
    "catalog-morita": CatalogMorita,
    # Not a listed workload: it reproduces a defect (bench/README.md).
    "zn-saturation-cells-renamed": lambda seed: ZnSaturation(seed, rename_cells=True),
}
