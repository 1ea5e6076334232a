"""Metric definitions and the per-layer values computed from a trace.

END_TO_END and PER_LAYER are the single source for names, units and
directions; BENCHMARK.json repeats them for tools that gate on it, and
selftest.py checks that the two agree.  Each per-layer entry names the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS
from workloads import SUBCOMMANDS

# name, unit, better, regression bound (share of the parent's median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SUP, _FLG, _CLI = "wall_s on supports", "job_p50_s/job_tail_s on flags", "on cli_fixtures"

# name, unit, better, what it should move
PER_LAYER = tuple(
    [("%s.self_s" % layer, "s", "lower", "wall_s on the workloads that use the layer")
     for layer in LAYERS.values()]
    + [
        ("lp.solve_lp.calls", "count", "lower", _SUP + "; cli.resolve.s " + _CLI),
        ("lp.solve_lp.s", "s", "lower", _SUP + "; cli.resolve.s " + _CLI),
        ("lp.pivots", "count", "lower", _SUP + " (kernel-internal: wraps _lp._pivot)"),
        ("lp.infeasible_frac", "ratio", "lower", _SUP),
        ("polyhedra.cone_generators.calls", "count", "lower", _SUP + "; setup_s on flags"),
        ("polyhedra.cone_generators.misses", "count", "lower", _SUP + "; setup_s on flags"),
        ("polyhedra.cone_generators.hit_ratio", "ratio", "higher", _SUP + "; setup_s on flags"),
        ("polyhedra.cone_generators.s", "s", "lower", _SUP + "; setup_s on flags"),
        ("polyhedra.feasible.calls", "count", "lower", _SUP + "; setup_s on flags"),
        ("polyhedra.feasible.closed_cone_calls", "count", "lower", _SUP + "; setup_s on flags"),
        ("polyhedra.feasible.empty_frac", "ratio", "higher", _SUP + "; setup_s on flags"),
        ("polyhedra.relative_interior_point.calls", "count", "lower", "wall_s " + _CLI),
        ("polyhedra.relative_interior_point.s", "s", "lower", "wall_s " + _CLI),
        ("resolve.resolve_boundary_prime.s", "s", "lower", "wall_s " + _CLI),
        ("resolve.verify_closure_hypothesis.s", "s", "lower", "wall_s " + _CLI),
        ("resolve.refinement_samples", "count", "lower", "wall_s " + _CLI),
        ("polyhedra.poly_in_union.nodes", "count", "lower", _SUP),
        ("polyhedra.faces_of.misses", "count", "lower", _SUP),
        ("variety.cells.candidates", "count", "lower", _SUP),
        ("variety.cells.kept", "count", "lower", _SUP),
        ("variety.cells.kept_frac", "ratio", "higher", _SUP),
        ("variety.support_of.builds", "count", "lower", "setup_s and peak_rss_mb on flags"),
        ("variety.flag_in_variety.calls", "count", "lower", _FLG + "; not supports"),
        ("variety.flag_in_variety.s", "s", "lower", _FLG + "; not supports"),
        ("variety.split_generators_by_forms.pieces", "count", "lower", _FLG + "; not supports"),
        ("congruence.congruence_in_prime.calls", "count", "lower", _FLG + "; not supports"),
        ("congruence.monomial_le.calls", "count", "lower", _FLG + "; not supports"),
        ("trop_core.TropPoly.evaluate.calls", "count", "lower", _FLG + "; not supports"),
        ("cli.import_s", "s", "lower", "setup_s and job_p50_s " + _CLI),
        ("trop_core.ToricContext.s", "s", "lower", "setup_s and job_p50_s " + _CLI),
        ("jsonio.load_document.s", "s", "lower", "setup_s and job_p50_s " + _CLI),
    ]
    + [("cli.%s.s" % sub, "s", "lower", "setup_s and job_p50_s " + _CLI)
       for sub in SUBCOMMANDS]
    + [
        ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
        ("trace.spans", "count", "lower", "none: spans recorded by the traced pass"),
    ]
)

# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = ("lp.solve_lp.calls", "lp.pivots", "polyhedra.cone_generators.misses",
                "variety.cells.kept")


def merge(dumps) -> dict:
    """Sum tracer aggregates (one per traced process) into one."""
    out = {"calls": {}, "incl": {}, "self_s": {}, "counts": {}, "spans": 0}
    for d in dumps:
        for key in ("calls", "incl", "self_s", "counts"):
            acc = out[key]
            for name, v in d[key].items():
                acc[name] = acc.get(name, 0) + v
        out["spans"] += len(d["spans"]) + d["dropped"]
    return out


def per_layer_values(agg: dict, import_times, overhead_s: float) -> dict:
    calls, incl, counts = agg["calls"], agg["incl"], agg["counts"]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    v = {"%s.self_s" % layer: agg["self_s"].get(layer, 0.0) for layer in LAYERS.values()}
    v["lp.solve_lp.calls"] = n("lp.solve_lp")
    v["lp.solve_lp.s"] = t("lp.solve_lp")
    v["lp.pivots"] = n("lp._pivot")
    v["lp.infeasible_frac"] = ratio(c("lp.solve_lp.infeasible"), n("lp.solve_lp"))
    cg = "polyhedra.cone_generators"
    v[cg + ".calls"] = n(cg)
    v[cg + ".misses"] = c(cg + ".misses")
    v[cg + ".hit_ratio"] = ratio(n(cg) - c(cg + ".misses"), n(cg))
    v[cg + ".s"] = t(cg)
    v["polyhedra.feasible.calls"] = n("polyhedra.feasible")
    v["polyhedra.feasible.closed_cone_calls"] = c("polyhedra.feasible.closed_cone")
    v["polyhedra.feasible.empty_frac"] = ratio(c("polyhedra.feasible.empty"),
                                               n("polyhedra.feasible"))
    v["polyhedra.relative_interior_point.calls"] = n("polyhedra.relative_interior_point")
    v["polyhedra.relative_interior_point.s"] = t("polyhedra.relative_interior_point")
    v["resolve.resolve_boundary_prime.s"] = t("resolve.resolve_boundary_prime")
    v["resolve.verify_closure_hypothesis.s"] = t("resolve.verify_closure_hypothesis")
    v["resolve.refinement_samples"] = c("resolve.refinement_samples")
    v["polyhedra.poly_in_union.nodes"] = n("polyhedra.poly_in_union")
    v["polyhedra.faces_of.misses"] = c("polyhedra.faces_of.misses")
    v["variety.cells.candidates"] = c("variety.cells.candidates")
    v["variety.cells.kept"] = c("variety.cells.kept")
    v["variety.cells.kept_frac"] = ratio(c("variety.cells.kept"), c("variety.cells.candidates"))
    v["variety.support_of.builds"] = c("variety.support_of.builds")
    v["variety.flag_in_variety.calls"] = n("variety.flag_in_variety")
    v["variety.flag_in_variety.s"] = t("variety.flag_in_variety")
    v["variety.split_generators_by_forms.pieces"] = c("variety.split_generators_by_forms.pieces")
    v["congruence.congruence_in_prime.calls"] = n("congruence.congruence_in_prime")
    v["congruence.monomial_le.calls"] = n("congruence.monomial_le")
    v["trop_core.TropPoly.evaluate.calls"] = n("trop_core.TropPoly.evaluate")
    v["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    v["trop_core.ToricContext.s"] = (t("trop_core.ToricContext.__init__")
                                     + t("trop_core.ToricContext.faces"))
    v["jsonio.load_document.s"] = t("jsonio.load_document")
    for sub in SUBCOMMANDS:
        v["cli.%s.s" % sub] = t("cli.cmd_" + sub.replace("-", "_"))
    v["trace.overhead_s"] = overhead_s
    v["trace.spans"] = agg["spans"]
    return v
