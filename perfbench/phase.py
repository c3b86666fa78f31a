"""One measured phase of one workload, run in its own interpreter.

``run.py`` starts this module as a child process with a scrubbed
environment (no ``REPRO_*`` variables, ``PYTHONHASHSEED`` fixed by the
seed), so every phase starts from cold process-wide state.  The phase
sets up several times, keeps the last set-up, runs ops until their
summed wall time reaches the requested seconds (or an op count is
reached), checks sampled answers off the clock, and prints one JSON
object on its last line of output.  Each set-up and op is bracketed by
a sample of the reference task in ``calibrate.py``, off the clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import repro
from repro.logic.evaluation import clear_evaluation_caches, evaluation_cache_stats

import layers
from calibrate import reference_s
from workloads import WORKLOADS, describe_config

#: Set up at least this many times, and until set-ups took this long in
#: total, so that ``setup_s`` is the median of enough samples.
MIN_SETUPS = 5
SETUP_BUDGET_S = 1.0


def _counter_total(snapshot: Dict[str, Any], name: str, label: str = "") -> float:
    series = snapshot["engine"]["counters"].get(name, {})
    return sum(value for key, value in series.items() if label in key)


_CACHE_KEYS = ("hits", "misses", "evictions")


def _cache_delta(
    before: Dict[str, Any], after: Dict[str, Any], off_clock: Counter
) -> Dict[str, Dict[str, int]]:
    """Cache counter deltas over a phase.  The evaluation memo is
    process-wide, so what the off-clock checks did to it is taken out."""
    delta = {
        cache: {
            key: after["caches"][cache][key] - before["caches"][cache][key]
            for key in _CACHE_KEYS
        }
        for cache in after["caches"]
    }
    for key in _CACHE_KEYS:
        delta["evaluation"][key] -= off_clock[key]
    return delta


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: layers.Tracer,
    before: Dict[str, Any],
    after: Dict[str, Any],
    off_clock: Counter,
) -> Dict[str, float]:
    """The per-layer metrics of a traced phase (summed self seconds,
    call counts, work counts and cache ratios)."""
    busy, calls = layers.self_times(tracer)
    metrics: Dict[str, float] = {}
    for name in layers.LAYERS:
        if name != layers.ROOT:
            metrics[f"{name}.busy_s"] = busy.get(name, 0.0)
    metrics["engine.session.self_s"] = busy.get(layers.ROOT, 0.0)
    for name in (
        "algebra.parser.parse_query", "ctalgebra.build_plan",
        "ctalgebra.optimize_plan", "physical.lower",
        "worlds.membership_condition",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    counts = tracer.counts
    metrics["physical.rows_out"] = counts["physical.rows_out"]
    metrics["worlds.certain.yield"] = _ratio(
        counts["worlds.certain.found"], counts["worlds.certain.tested"]
    )
    metrics["logic.compile.clauses"] = counts["logic.compile.clauses"]
    metrics["logic.compile.circuit_nodes"] = sum(
        circuit.size() for circuit in tracer.circuits
    )
    wmc = calls.get("prob.wmc.compile_probability", 0)
    shannon = calls.get("logic.counting.probability_shannon", 0)
    metrics["prob.route_wmc_share"] = _ratio(wmc, wmc + shannon)
    caches = _cache_delta(before, after, off_clock)
    for cache, prefix in (
        ("plan", "engine.plan_cache"), ("result", "engine.result_cache"),
        ("circuit", "engine.circuit_cache"), ("evaluation", "logic.evaluation"),
    ):
        stats = caches[cache]
        metrics[f"{prefix}.hit_ratio"] = _ratio(
            stats["hits"], stats["hits"] + stats["misses"]
        )
        metrics[f"{prefix}.evictions"] = stats["evictions"]
    metrics["ivm.delta_rows"] = (
        _counter_total(after, "ivm_delta_rows_total")
        - _counter_total(before, "ivm_delta_rows_total")
    )
    delta = (
        _counter_total(after, "ivm_refresh_total", "mode=delta")
        - _counter_total(before, "ivm_refresh_total", "mode=delta")
    )
    refreshes = (
        _counter_total(after, "ivm_refresh_total")
        - _counter_total(before, "ivm_refresh_total")
    )
    metrics["ivm.refresh.delta_share"] = _ratio(delta, refreshes)
    return metrics


def _checked(check, errors: List[str]) -> Optional[bool]:
    """Run an answer check; an exception counts as a failed check."""
    try:
        return check()
    except Exception:
        errors.append(traceback.format_exc(limit=4))
        return False


def run_phase(
    workload_name: str,
    seed: int,
    seconds: float,
    max_ops: Optional[int] = None,
    traced: bool = False,
    digests: bool = False,
    spans_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up, run the closed loop, and report what was measured."""
    workload = WORKLOADS[workload_name](seed)
    setup_seconds: List[float] = []
    setup_reference: List[float] = []
    state = None
    reference = reference_s()
    while len(setup_seconds) < MIN_SETUPS or sum(setup_seconds) < SETUP_BUDGET_S:
        state = None
        gc.collect()
        started = perf_counter()
        state = workload.setup()
        setup_seconds.append(perf_counter() - started)
        following = reference_s()
        setup_reference.append((reference + following) / 2)
        reference = following
    # Nothing a set-up evaluated may answer a measured op from the memo.
    clear_evaluation_caches()
    gc.collect()

    engine = state["engine"]
    tracer = layers.Tracer() if traced else None
    installed = layers.Installed(tracer) if traced else None
    before = engine.metrics_snapshot()
    reads: List[float] = []
    writes: List[float] = []
    # The reference time around each op, in the order of reads/writes.
    read_reference: List[float] = []
    write_reference: List[float] = []
    answer_digests: List[Optional[str]] = []
    attempted = failed = checked = 0
    errors: List[str] = []
    off_clock: Counter = Counter()
    on_clock = 0.0
    wall_limit = perf_counter() + 3 * seconds + 30
    try:
        for op in workload.ops():
            if max_ops is not None and attempted >= max_ops:
                break
            if max_ops is None and on_clock >= seconds:
                break
            if perf_counter() > wall_limit:
                break
            workload.prepare(state, op)
            reference = reference_s()
            attempted += 1
            answer = None
            ok = True
            if tracer is not None:
                root = tracer.begin_op(op.index)
            started = perf_counter()
            try:
                answer = workload.run(state, op)
            except Exception:
                ok = False
                errors.append(traceback.format_exc(limit=4))
            finally:
                elapsed = perf_counter() - started
                if tracer is not None:
                    elapsed = tracer.end_op(root)
            on_clock += elapsed
            (writes if op.kind == "write" else reads).append(elapsed)
            (write_reference if op.kind == "write" else read_reference).append(
                (reference + reference_s()) / 2
            )
            if ok and op.check:
                checked += 1
                memo_before = evaluation_cache_stats()
                ok = _checked(lambda: workload.check(state, op, answer), errors)
                memo_after = evaluation_cache_stats()
                for key in _CACHE_KEYS:
                    off_clock[key] += memo_after[key] - memo_before[key]
                if not ok:
                    errors.append(f"op {op.index} ({op.template}) failed its check")
            if not ok:
                failed += 1
            if digests:
                answer_digests.append(workload.digest(op, answer) if ok else "error")
        after = engine.metrics_snapshot()
        verdict = _checked(lambda: workload.final_check(state), errors)
        if verdict is not None:
            checked += 1
            if not verdict:
                failed += 1
                errors.append("the final state failed its check")
    finally:
        if installed is not None:
            installed.remove()

    report: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "errors": errors[:5],
        "on_clock_s": on_clock,
        "reads_ms": [value * 1000 for value in reads],
        "writes_ms": [value * 1000 for value in writes],
        "reads_reference_s": read_reference,
        "writes_reference_s": write_reference,
        "setup_s": setup_seconds,
        "setup_reference_s": setup_reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "config": describe_config(workload.config),
        "repro": repro.__file__,
    }
    if digests:
        report["digests"] = answer_digests
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, before, after, off_clock)
        report["spans"] = len(tracer.spans)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with spans_path.open("w") as handle:
                json.dump(
                    {
                        "fields": ["name", "start", "end", "parent", "op"],
                        "spans": tracer.spans,
                    },
                    handle,
                )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--digests", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    report = run_phase(
        args.workload, args.seed, args.seconds,
        max_ops=args.max_ops, traced=args.traced, digests=args.digests,
        spans_path=args.spans,
    )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
