"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload adhoc_query --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced in a fresh interpreter and
reports the end-to-end metrics.  ``--trace 1`` runs it traced (spans
around each layer's public functions) for half the seconds, then
replays the same ops untraced; it reports the per-layer metrics,
checks that both runs gave the same answers, and takes the ratio of
their op times as the tracing overhead.  Every time reported is scaled
to a nominal host speed by the reference task timed around it
(``calibrate.py``).  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
report — host fingerprint, resolved engine config, raw latencies and
the reference times around them — goes to ``perfbench/out/``, with the
spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from calibrate import NOMINAL_S  # perfbench/ is on the path as the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("adhoc_query", "tuple_probability", "churn_refresh")


def host_fingerprint() -> Dict[str, Any]:
    is_gil_enabled = getattr(sys, "_is_gil_enabled", None)
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": True if is_gil_enabled is None else bool(is_gil_enabled()),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def child_environment(seed: int) -> Dict[str, str]:
    """No ``REPRO_*`` knob leaks in; the hash seed follows the run seed."""
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(args: List[str], seed: int, timeout: float) -> Dict[str, Any]:
    """Run one phase in a fresh interpreter; return its JSON report."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "phase.py"), *args],
        cwd=ROOT,
        env=child_environment(seed),
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=False,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"phase {args} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def at_nominal_speed(times: List[float], references: List[float]) -> List[float]:
    """Each measured time scaled by how much faster or slower than
    nominal the reference task ran around it (see calibrate.py)."""
    return [
        time_ * NOMINAL_S / reference
        for time_, reference in zip(times, references, strict=True)
    ]


def nominal_op_time(report: Dict[str, Any]) -> float:
    """Summed op time of a phase, in nominal milliseconds."""
    return sum(
        at_nominal_speed(report["reads_ms"], report["reads_reference_s"])
    ) + sum(at_nominal_speed(report["writes_ms"], report["writes_reference_s"]))


def end_to_end(report: Dict[str, Any]) -> Dict[str, float]:
    reads = at_nominal_speed(report["reads_ms"], report["reads_reference_s"])
    writes = at_nominal_speed(report["writes_ms"], report["writes_reference_s"])
    setups = at_nominal_speed(report["setup_s"], report["setup_reference_s"])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1000 * (len(reads) + len(writes)) / nominal_op_time(report),
        "read_p50_ms": statistics.median(reads),
        "read_p90_ms": percentile(reads, 0.9),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from metrics import units  # noqa: E402 - perfbench/ is not a package

    timeout = 3 * args.seconds + 60

    def phase(seconds: float, *extra: str) -> Dict[str, Any]:
        return run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), *extra],
            args.seed, timeout,
        )

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    errors: List[str] = []
    if args.trace == 0:
        report = phase(args.seconds)
        attempted, failed = report["attempted"], report["failed"]
        values = end_to_end(report)
        phases = {"measured": report}
    else:
        # Half the time traced, then the same ops replayed untraced.
        traced = phase(
            args.seconds / 2, "--traced", "--digests",
            "--spans", str(OUT / f"spans-{stem}.json"),
        )
        replay = phase(
            args.seconds, "--digests", "--max-ops", str(traced["attempted"]),
        )
        attempted = traced["attempted"] + replay["attempted"]
        failed = traced["failed"] + replay["failed"]
        if traced["digests"] != replay["digests"]:
            errors.append("traced and untraced answers differ")
        values = dict(traced["layers"])
        writes = at_nominal_speed(replay["writes_ms"], replay["writes_reference_s"])
        values["bench.write_p50_ms"] = statistics.median(writes) if writes else 0.0
        values["bench.write_p90_ms"] = percentile(writes, 0.9)
        values["bench.trace_overhead"] = nominal_op_time(traced) / nominal_op_time(replay)
        phases = {"traced": traced, "replay": replay}
    expected = units(bool(args.trace))
    if set(values) != set(expected):
        errors.append(
            f"metric names drifted: {sorted(set(values) ^ set(expected))}"
        )
    checked = all(part["checked"] > 0 for part in phases.values())
    correct = failed == 0 and checked and not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in expected.items()
            if name in values
        },
    }
    OUT.mkdir(exist_ok=True)
    with (OUT / f"report-{stem}.json").open("w") as handle:
        json.dump(
            {"host": host_fingerprint(),
             "errors": errors, "result": result, "phases": phases},
            handle, indent=1,
        )
    for message in errors + [e for part in phases.values() for e in part["errors"]]:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
