"""The benchmark's metric names, units, and the map from layers to outcomes.

``END_TO_END`` metrics come from an untraced run (``--trace 0``).
``PER_LAYER`` metrics come from a traced run (``--trace 1``); each
entry names the end-to-end metric it should move and the workload it
should move it on (``"-"`` where the metric is a fidelity figure rather
than a layer).  On a workload that does not reach a layer, the layer's
metric reads 0 and the prediction there is no change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str


#: Meanings are in README.md.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower"),
    EndToEnd("ops_per_s", "1/s", "higher"),
    EndToEnd("read_p50_ms", "ms", "lower"),
    EndToEnd("read_p90_ms", "ms", "lower"),
    EndToEnd("peak_rss_mb", "MB", "lower"),
]

_PARSE_PLAN = ("read_p50_ms", "adhoc_query")
_OPERATORS = ("read_p50_ms, ops_per_s", "adhoc_query")
_SYMBOLIC = ("read_p90_ms", "adhoc_query")
_CACHES = ("read_p50_ms", "adhoc_query")
_PROBABILITY = ("read_p50_ms, read_p90_ms, ops_per_s", "tuple_probability")
_WRITES = ("write latency (bench.write_p50_ms, bench.write_p90_ms)", "churn_refresh")
_REFRESH = ("read_p50_ms, read_p90_ms", "churn_refresh")


def _layers() -> List[Layer]:
    rows: List[Layer] = []

    def add(name: str, unit: str, better: str, target: tuple) -> None:
        rows.append(Layer(name, unit, better, *target))

    for layer in (
        "algebra.parser.parse_query", "ctalgebra.build_plan",
        "ctalgebra.optimize_plan", "physical.lower",
    ):
        add(f"{layer}.busy_s", "s", "lower", _PARSE_PLAN)
        add(f"{layer}.calls", "count", "lower", _PARSE_PLAN)
    add("physical.execute_physical.busy_s", "s", "lower", _OPERATORS)
    for op in (
        "ScanOp", "FilterOp", "HashJoinOp", "ProjectOp",
        "ProductOp", "UnionOp", "DifferenceOp", "IntersectOp",
    ):
        add(f"physical.{op}.busy_s", "s", "lower", _OPERATORS)
    add("physical.to_ctable.busy_s", "s", "lower", _OPERATORS)
    add("physical.rows_out", "count", "lower", _OPERATORS)
    add("worlds.certain_from_answer.busy_s", "s", "lower", _SYMBOLIC)
    add("worlds.possible_from_answer.busy_s", "s", "lower", _SYMBOLIC)
    add("worlds.membership_condition.busy_s", "s", "lower", _SYMBOLIC)
    add("worlds.membership_condition.calls", "count", "lower", _SYMBOLIC)
    add("logic.equality_sat.busy_s", "s", "lower", _SYMBOLIC)
    add("worlds.certain.yield", "ratio", "higher", _SYMBOLIC)
    for cache in ("engine.plan_cache", "engine.result_cache"):
        add(f"{cache}.hit_ratio", "ratio", "higher", _CACHES)
        add(f"{cache}.evictions", "count", "lower", _CACHES)
    for cache in ("engine.circuit_cache", "logic.evaluation"):
        add(f"{cache}.hit_ratio", "ratio", "higher", _PROBABILITY)
        add(f"{cache}.evictions", "count", "lower", _PROBABILITY)
    for layer in (
        "logic.compile.booleanize", "logic.cnf.tseitin_clauses",
        "logic.compile.compile_cnf", "logic.compile.compile_condition",
        "prob.wmc.compile_probability", "prob.wmc.weighted_count",
        "logic.counting.probability_shannon",
    ):
        add(f"{layer}.busy_s", "s", "lower", _PROBABILITY)
    add("logic.compile.clauses", "count", "lower", _PROBABILITY)
    add("logic.compile.circuit_nodes", "count", "lower", _PROBABILITY)
    add("prob.route_wmc_share", "ratio", "lower", _PROBABILITY)
    add("engine.session.insert.busy_s", "s", "lower", _WRITES)
    add("engine.session.delete.busy_s", "s", "lower", _WRITES)
    add("ivm.delta_rows", "count", "lower", _WRITES)
    add("ivm.refresh.busy_s", "s", "lower", _REFRESH)
    add("ivm.refresh.delta_share", "ratio", "higher", _REFRESH)
    add("engine.session.self_s", "s", "lower", ("whichever metric the op feeds", "all"))
    add("bench.write_p50_ms", "ms", "lower", ("-", "churn_refresh"))
    add("bench.write_p90_ms", "ms", "lower", ("-", "churn_refresh"))
    add("bench.trace_overhead", "ratio", "lower", ("-", "all"))
    return rows


PER_LAYER: List[Layer] = _layers()


def units(trace: bool) -> Dict[str, str]:
    """Metric name → unit for one kind of run."""
    return {row.name: row.unit for row in (PER_LAYER if trace else END_TO_END)}
