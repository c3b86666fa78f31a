"""EXPLAIN ANALYZE rendering: estimated vs actual, per operator.

Mirrors the tree layout of
:func:`repro.physical.lower.explain_physical`, but annotates every
operator with the actuals a :class:`~repro.obs.trace.TraceCollector`
gathered during one real execution: rows out (vs the planner's
estimate), wall time, and a **drift** flag on operators whose actual
cardinality diverges from the estimate by at least
:data:`DRIFT_THRESHOLD` — the feedback signal adaptive re-lowering
will key on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Span, TraceCollector, Tracer
    from repro.physical.operators import PhysicalOp

from repro.obs.names import SPAN_EXECUTE, SPAN_OPTIMIZE, SPAN_PLAN, SPAN_VERIFY

#: An operator's actual cardinality this many times above (or below) its
#: estimate is flagged as drifted.
DRIFT_THRESHOLD = 4.0


def estimate_drift(est_rows: Optional[float], actual_rows: int) -> Optional[float]:
    """The symmetric est-vs-actual divergence ratio (>= 1.0), or None
    without an estimate.  Both sides are floored at half a row so empty
    results and sub-row estimates don't divide by zero or explode."""
    if est_rows is None:
        return None
    estimated = max(est_rows, 0.5)
    actual = max(float(actual_rows), 0.5)
    return max(actual / estimated, estimated / actual)


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    return f"{seconds * 1e3:.2f}ms"


def _find_spans(root: "Span", name: str) -> List["Span"]:
    found: List["Span"] = []
    stack = [root]
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(reversed(span.children))
    return found


def _plan_line(tracer: "Tracer") -> str:
    plans = _find_spans(tracer.root, SPAN_PLAN)
    if not plans:
        return "plan: reused (already built on this prepared query)"
    plan = plans[0]
    if plan.attrs.get("cached"):
        return "plan: cache hit"
    parts = [f"built in {_ms(plan.seconds)}"]
    optimize = _find_spans(plan, SPAN_OPTIMIZE)
    if optimize:
        parts.append(f"optimize {_ms(optimize[0].seconds)}")
    verifies = _find_spans(plan, SPAN_VERIFY)
    if verifies:
        total = sum(span.seconds or 0.0 for span in verifies)
        parts.append(f"verify {_ms(total)} over {len(verifies)} checks")
    return "plan: " + ", ".join(parts)


def render_analyze(
    physical: "PhysicalOp",
    collector: "TraceCollector",
    tracer: "Tracer",
    *,
    executor: str,
    result_cached: Optional[bool] = None,
    drift_threshold: float = DRIFT_THRESHOLD,
) -> str:
    """Render the analyzed physical tree with header provenance lines."""
    lines = [f"EXPLAIN ANALYZE  (executor={executor})", _plan_line(tracer)]
    if result_cached is not None:
        lines.append(
            "result cache: hit (analyze re-executed anyway)"
            if result_cached
            else "result cache: miss"
        )
    executes = _find_spans(tracer.root, SPAN_EXECUTE)
    if executes:
        lines.append(f"execute: {_ms(executes[0].seconds)}")
    lines.append("")

    def annotate(op: "PhysicalOp") -> str:
        record = collector.lookup(op)
        est = f"est≈{op.est_rows:.1f}" if op.est_rows is not None else "est=?"
        if record is None:
            return f"{op.label()}  {est}  act=?"
        label = f"{op.label()}  {est}  act={record.rows_out}"
        label += f"  time={_ms(record.seconds)}"
        drift = estimate_drift(op.est_rows, record.rows_out)
        if drift is not None and drift >= drift_threshold:
            label += f"  [drift {drift:.1f}x]"
        return label

    def render(op: "PhysicalOp", prefix: str, child_prefix: str) -> None:
        lines.append(prefix + annotate(op))
        children = op.children()
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            render(child, child_prefix + connector, child_prefix + extension)

    render(physical, "", "")
    return "\n".join(lines)


__all__ = ["DRIFT_THRESHOLD", "estimate_drift", "render_analyze"]
