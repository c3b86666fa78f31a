"""Self-test: a planted slowdown in one operator is flagged in that layer alone.

Runs the ``adhoc_query`` workload traced, on a fixed op sequence, with
and without a 20% slowdown planted in ``HashJoinOp.compute`` (a busy
wait proportional to the method's own time, installed at runtime in this
process only), in adjacent pairs.  The host's speed drifts between runs,
and the drift scales every layer alike, so each pair's per-layer ratios
are divided by their median over the layers the plant does not touch.
The test passes when, over the pairs' medians, the planted layer grew by
at least 10% and every other layer holding at least 2% of the time moved
by less than half as much.  It also checks that the metric names agree
with ``BENCHMARK.json``.

Run from the root of a checkout::

    python3 perfbench/check_localization.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.physical.operators import HashJoinOp  # noqa: E402

import metrics  # noqa: E402
from phase import run_phase  # noqa: E402

PLANTED = "physical.HashJoinOp.busy_s"
SLOWDOWN = 0.2
PAIRS = 4
OPS = 80


def plant(slowdown: float) -> Callable[[], None]:
    """Slow ``HashJoinOp.compute`` by *slowdown*; return the undo."""
    original = HashJoinOp.compute

    def slowed(self, ctx, inputs):
        started = perf_counter()
        result = original(self, ctx, inputs)
        until = started + (1 + slowdown) * (perf_counter() - started)
        while perf_counter() < until:
            pass
        return result

    HashJoinOp.compute = slowed
    return lambda: setattr(HashJoinOp, "compute", original)


def busy_times(planted: bool) -> Dict[str, float]:
    undo = plant(SLOWDOWN) if planted else None
    try:
        report = run_phase("adhoc_query", seed=7, seconds=60, max_ops=OPS,
                           traced=True)
    finally:
        if undo is not None:
            undo()
    if report["failed"]:
        raise AssertionError(f"workload failed: {report['errors']}")
    layers = report["layers"]
    return {name: value for name, value in layers.items()
            if name.endswith(".busy_s") or name == "engine.session.self_s"}


def check_names() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, rows in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        expected = [(row.name, row.unit, row.better) for row in rows]
        found = [(row["name"], row["unit"], row["better"]) for row in declared[key]]
        if expected != found:
            raise AssertionError(f"BENCHMARK.json {key} disagrees with metrics.py")


def main() -> int:
    check_names()
    growths: Dict[str, list] = {}
    for _ in range(PAIRS):
        base = busy_times(planted=False)
        slow = busy_times(planted=True)
        total = sum(base.values())
        ratios = {
            name: slow[name] / base[name]
            for name in base
            if base[name] >= 0.02 * total
        }
        drift = statistics.median(
            ratio for name, ratio in ratios.items() if name != PLANTED
        )
        for name, ratio in ratios.items():
            growths.setdefault(name, []).append(ratio / drift - 1)
    growth = {
        name: statistics.median(values)
        for name, values in growths.items()
        if len(values) == PAIRS
    }
    for name, change in sorted(growth.items(), key=lambda item: -abs(item[1])):
        print(f"{name:40s} {change:+.1%}")
    planted_growth = growth[PLANTED]
    strays = sorted(
        name for name, change in growth.items()
        if name != PLANTED and abs(change) >= planted_growth / 2
    )
    if planted_growth < SLOWDOWN / 2:
        print(f"FAIL: the planted slowdown shows as {planted_growth:+.1%}")
        return 1
    if strays:
        print(f"FAIL: the slowdown also shows in {strays}")
        return 1
    print(f"ok: {PLANTED} grew {planted_growth:+.1%}; no other layer moved half as much")
    return 0


if __name__ == "__main__":
    sys.exit(main())
