"""The benchmark's metrics: their values, and what each per-layer one should move.

Names, units, directions and bounds are declared once, in
``BENCHMARK.json``; ``declared()`` reads them.  ``MOVES`` holds what that
file's fixed schema cannot: the end-to-end metric and workload each
per-layer metric is expected to move, written down before any
optimisation is measured with it.
"""

import json
import os
import statistics

from layertrace import LAYERS

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

_GRAPHS = "run_s and item_tail_s on shape-sweep; run_s on word-graphs"
_TABLEAUX = "run_s and item_tail_s on shape-sweep"
_SCALARS = "run_s on residue"
_ACTION = "run_s and peak_rss_mb on residue"
_SOLVES = "run_s on residue only"
_EMIT = "run_s on word-graphs only"

_LAYER_MOVES = {
    "kernel": "run_s on word-graphs, a little on shape-sweep, nothing elsewhere",
    "words": "run_s on word-graphs (acceptance criteria 6-7)",
    "graphs": _GRAPHS,
    "tableaux": _TABLEAUX,
    "theorems": "run_s on shape-sweep (glue layer)",
    "laurent": _SCALARS,
    "action": _ACTION,
    "kashiwara": _SOLVES,
    "checks": "run_s on residue (glue layer)",
    "serialize": _EMIT,
    "cli": _EMIT,
}

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    name: moves
    for layer in LAYERS
    for name, moves in (
        (f"{layer}.calls", _LAYER_MOVES[layer]),
        (f"{layer}.self_s", _LAYER_MOVES[layer]),
        (f"{layer}.errors", "fail_share on every workload"),
    )
}
MOVES.update({
    "graphs.build_graph.calls": _GRAPHS,
    "graphs.build_graph.self_s": _GRAPHS,
    "graphs.nodes_built": _GRAPHS,
    "graphs.edges_built": _GRAPHS,
    "graphs.closure_set.self_s": _GRAPHS,
    "graphs.tensor.self_s": _GRAPHS,
    "graphs.graph_components.calls": _GRAPHS,
    "graphs.graph_components.self_s": _GRAPHS,
    "graphs.highest_weight_nodes.calls": _GRAPHS,
    "graphs.highest_weight_nodes.self_s": _GRAPHS,
    "graphs.isomorphic.calls": _GRAPHS,
    "graphs.isomorphic.self_s": _GRAPHS,
    "graphs.successor_rebuilds": "run_s on shape-sweep",
    "graphs.distinct_graphs": "run_s on shape-sweep",
    "graphs.successor_rebuilds_per_graph":
        "run_s on shape-sweep (wasted successor/predecessor table rebuilds)",
    "tableaux.crystal_of_shape.calls":
        _TABLEAUX + "; peak_rss_mb if crystals are memoized",
    "tableaux.crystal_of_shape.repeat_ratio":
        _TABLEAUX + "; peak_rss_mb if crystals are memoized",
    "tableaux.ops.calls": _TABLEAUX,
    "tableaux.ops.self_s": _TABLEAUX,
    "tableaux.enumerate_ssyt.fillings": _TABLEAUX,
    "tableaux.enumerate_ssyt.self_s": _TABLEAUX,
    "laurent.ratfunc.constructions": _SCALARS,
    "laurent.ratfunc.self_s": _SCALARS,
    "laurent.ratfunc.monomial_den_ratio": _SCALARS,
    "laurent.pgcd.calls": _SCALARS,
    "laurent.pgcd.self_s": _SCALARS,
    "action.act_expr.calls": _ACTION,
    "action.act_expr.terms": _ACTION,
    "action.act_expr.self_s": _ACTION,
    "action.act_prim.calls": _ACTION,
    "action.act_prim.self_s": _ACTION,
    "action.prim_cache.lookups": _ACTION,
    "action.prim_cache.hit_ratio": _ACTION,
    "kashiwara.string_decomposition.calls": _SOLVES,
    "kashiwara.string_decomposition.self_s": _SOLVES,
    "kashiwara.solves": _SOLVES,
    "kashiwara.solve_cells": _SOLVES,
    "kashiwara.solve.repeat_ratio": _SOLVES,
    "kashiwara.odd.self_s": _SOLVES,
    "serialize.bytes_out": _EMIT,
    "trace.run_s": "none: the traced pass's body time",
    "trace.overhead_s": "none: the traced pass minus the median untraced pass",
    "trace.unattributed_s": "none: traced body time outside every traced call",
})


def declared() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# time outside every traced call, as a share of the traced body, above
# which the per-layer self times no longer account for the traced pass
UNATTRIBUTED_LIMIT = 0.05

ODD_OPERATORS = ("kashiwara.tilde_k1", "kashiwara.tilde_ebar1",
                 "kashiwara.tilde_fbar1", "kashiwara.ktilde1_expr",
                 "kashiwara.tilde_ebar1_expr", "kashiwara.tilde_fbar1_expr")


def tail(values: list):
    """(value, percentile) at the highest percentile with >= 10 beyond it.

    Below twenty values that percentile would not exceed the median, so
    the maximum stands in for it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def item_latencies(passes: list) -> list:
    """Each item's median over the run's passes, in reference seconds."""
    seen = {}
    for p in passes:
        for m in p["items"]:
            seen.setdefault(m["item"], []).append(m["reference_s"])
    return [statistics.median(v) for v in seen.values()]


def end_to_end(passes: list, setups: list) -> dict:
    """End-to-end metric values from a run's untraced passes.

    Times are in reference seconds (``speed.py``), so the slow periods of
    a shared machine are discounted.  ``run_s`` is the body's time
    composed from each item's median over the passes.
    """
    latencies = item_latencies(passes)
    run_s = sum(latencies)
    return {
        "run_s": run_s,
        "items_per_s": len(latencies) / run_s,
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": tail(latencies)[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: dict, untraced_median_s: float) -> dict:
    """Per-layer metric values from a traced pass."""
    summary = traced["trace"]
    rows = summary["stats"]
    counters = summary["counters"]

    def layer_of(name):
        return name.split(".", 1)[0]

    def total(select, column):
        return sum(row[column] for row in rows if select(row[0]))

    def calls(name):
        return total(lambda n: n == name, 2)

    def self_s(name):
        return total(lambda n: n == name, 4)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(
            row[2] for row in rows
            if layer_of(row[0]) == layer and layer_of(row[1]) != layer)
        out[f"{layer}.self_s"] = total(lambda n: layer_of(n) == layer, 4)
        out[f"{layer}.errors"] = summary["errors"].get(layer, 0)
    for fn in ("build_graph", "graph_components", "highest_weight_nodes",
               "isomorphic"):
        out[f"graphs.{fn}.calls"] = calls(f"graphs.{fn}")
    for fn in ("build_graph", "closure_set", "tensor", "graph_components",
               "highest_weight_nodes", "isomorphic"):
        out[f"graphs.{fn}.self_s"] = self_s(f"graphs.{fn}")
    out["graphs.nodes_built"] = counters.get("graphs.nodes_built", 0)
    out["graphs.edges_built"] = counters.get("graphs.edges_built", 0)
    rebuilds = counters.get("graphs.successor_rebuilds", 0)
    distinct = counters.get("graphs.distinct_graphs", 0)
    out["graphs.successor_rebuilds"] = rebuilds
    out["graphs.distinct_graphs"] = distinct
    out["graphs.successor_rebuilds_per_graph"] = ratio(rebuilds, distinct)
    shapes = calls("tableaux.crystal_of_shape")
    out["tableaux.crystal_of_shape.calls"] = shapes
    out["tableaux.crystal_of_shape.repeat_ratio"] = ratio(
        counters.get("tableaux.crystal_of_shape.repeats", 0), shapes)
    is_op = lambda n: n.startswith("tableaux.TableauOps.")  # noqa: E731
    out["tableaux.ops.calls"] = total(is_op, 2)
    out["tableaux.ops.self_s"] = total(is_op, 4)
    out["tableaux.enumerate_ssyt.fillings"] = counters.get(
        "tableaux.enumerate_ssyt.fillings", 0)
    out["tableaux.enumerate_ssyt.self_s"] = self_s("tableaux.enumerate_ssyt")
    built = calls("laurent.RatFunc.__init__")
    out["laurent.ratfunc.constructions"] = built
    out["laurent.ratfunc.self_s"] = self_s("laurent.RatFunc.__init__")
    out["laurent.ratfunc.monomial_den_ratio"] = ratio(
        counters.get("laurent.ratfunc.monomial_den", 0), built)
    out["laurent.pgcd.calls"] = calls("laurent.pgcd")
    out["laurent.pgcd.self_s"] = self_s("laurent.pgcd")
    out["action.act_expr.calls"] = calls("action.act_expr")
    out["action.act_expr.terms"] = counters.get("action.act_expr.terms", 0)
    out["action.act_expr.self_s"] = self_s("action.act_expr")
    out["action.act_prim.calls"] = calls("action.act_prim")
    out["action.act_prim.self_s"] = self_s("action.act_prim")
    hits, misses = traced["prim_cache"]
    out["action.prim_cache.lookups"] = hits + misses
    out["action.prim_cache.hit_ratio"] = ratio(hits, hits + misses)
    decompositions = calls("kashiwara.string_decomposition")
    out["kashiwara.string_decomposition.calls"] = decompositions
    out["kashiwara.string_decomposition.self_s"] = self_s(
        "kashiwara.string_decomposition")
    out["kashiwara.solves"] = counters.get("kashiwara.solves", 0)
    out["kashiwara.solve_cells"] = counters.get("kashiwara.solve_cells", 0)
    out["kashiwara.solve.repeat_ratio"] = ratio(
        counters.get("kashiwara.solve.repeats", 0), decompositions)
    out["kashiwara.odd.self_s"] = total(lambda n: n in ODD_OPERATORS, 4)
    out["serialize.bytes_out"] = counters.get("serialize.bytes_out", 0)
    out["trace.run_s"] = traced["body_s"]
    out["trace.overhead_s"] = traced["body_s"] - untraced_median_s
    out["trace.unattributed_s"] = traced["body_s"] - summary["attributed_s"]
    return out
