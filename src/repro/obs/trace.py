"""Span-based per-query tracing and per-operator execution collection.

A `Tracer` records a hierarchical trace of one prepared-query
execution: parse -> plan (optimize, verify) -> lower -> execute.  The
executing code never holds a tracer reference — it asks
`current_tracer()` / `trace_span(...)`, which resolve through a
context variable so nested and concurrent queries each see their own
trace.

The disabled path is the common one and must cost almost nothing: a
module-level activation counter is checked first (one integer
comparison, no allocation) before the context variable is ever
consulted.  Per-operator actuals are cheaper still: physical execution
checks ``ctx.collector is None`` and takes the untouched fast path.

A `TraceCollector` accumulates per-physical-operator actuals (rows
in/out, batches, wall time) during one execution.  Row counts and
operator identities are deterministic from run to run; timings
naturally vary and are excluded from determinism guarantees.

While any tracer is active, one ``gc.callbacks`` hook charges each
cyclic-GC pause to the innermost open span of the tracer active where
the collection ran (``Span.gc_s``, plus ``Span.gc_pauses`` per collected
generation); without it a pause would be self time of whichever layer
happened to allocate when a threshold tripped.  The hook only reads the
clock: it never calls into ``gc`` and never changes a threshold.  GC
time is a timing, so the deterministic view leaves it out.
"""

from __future__ import annotations

import gc
import json
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.obs.names import SPAN_GC_PAUSES, SPAN_GC_SECONDS, SPAN_QUERY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.physical.operators import Batch, PhysicalOp

_ACTIVATION_LOCK = threading.Lock()
# Number of currently active tracers across all threads; the disabled
# fast path is a single read of this integer.
_ACTIVE_TRACERS = 0  # guarded-by: _ACTIVATION_LOCK [writes]

_CURRENT: ContextVar[Optional["Tracer"]] = ContextVar("repro_tracer", default=None)


def tracing_active() -> bool:
    """True when at least one tracer is active somewhere in the process."""
    return _ACTIVE_TRACERS > 0


def current_tracer() -> Optional["Tracer"]:
    """The tracer active in this context, or None (the cheap common case)."""
    if _ACTIVE_TRACERS == 0:
        return None
    return _CURRENT.get()


class Span:
    """One named, timed node in a trace tree."""

    __slots__ = ("attrs", "children", "gc_pauses", "gc_s", "name", "seconds")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.seconds: Optional[float] = None
        self.children: List["Span"] = []
        #: GC pause seconds while this span was innermost, and the
        #: pauses per collected generation (0, 1, 2).
        self.gc_s = 0.0
        self.gc_pauses = [0, 0, 0]

    def to_dict(self, timings: bool = True) -> Dict[str, Any]:
        """JSON-ready dict; ``timings=False`` yields the deterministic view."""
        out: Dict[str, Any] = {"name": self.name}
        if timings and self.seconds is not None:
            out["seconds"] = self.seconds
        if timings and self.gc_s:
            out[SPAN_GC_SECONDS] = self.gc_s
            out[SPAN_GC_PAUSES] = list(self.gc_pauses)
        if self.attrs:
            out["attrs"] = dict(sorted(self.attrs.items()))
        if self.children:
            out["children"] = [child.to_dict(timings) for child in self.children]
        return out


class Tracer:
    """Builds one trace tree.  Not thread-safe: spans are opened and
    closed on the query's scheduling thread only (cross-thread operator
    attribution goes through `TraceCollector` instead)."""

    __slots__ = ("_gc_started", "_stack", "root")

    def __init__(self, **attrs: Any) -> None:
        self.root = Span(SPAN_QUERY, dict(attrs))
        self._stack: List[Span] = [self.root]
        #: When the running collection started (see `_gc_pause`).
        self._gc_started = 0.0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a timed child span for the duration of the ``with`` body."""
        node = Span(name, dict(attrs))
        self._stack[-1].children.append(node)
        self._stack.append(node)
        started = perf_counter()
        try:
            yield node
        finally:
            node.seconds = perf_counter() - started
            self._stack.pop()

    def event(self, name: str, seconds: Optional[float] = None, **attrs: Any) -> Span:
        """Append a pre-measured (or instantaneous) leaf span."""
        node = Span(name, dict(attrs))
        node.seconds = seconds
        self._stack[-1].children.append(node)
        return node

    def count(self, key: str, amount: int = 1) -> None:
        """Bump an integer attribute on the innermost open span.

        The optimizer uses this to accumulate per-rule fire/no-fire
        counts onto the ``optimize`` span without threading the span
        through every rewrite function.
        """
        attrs = self._stack[-1].attrs
        attrs[key] = int(attrs.get(key, 0)) + amount

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer as `current_tracer()` and time the root span."""
        global _ACTIVE_TRACERS
        token = _CURRENT.set(self)
        with _ACTIVATION_LOCK:
            if _ACTIVE_TRACERS == 0:
                gc.callbacks.append(_gc_pause)
            _ACTIVE_TRACERS += 1
        started = perf_counter()
        try:
            yield self
        finally:
            self.root.seconds = perf_counter() - started
            with _ACTIVATION_LOCK:
                _ACTIVE_TRACERS -= 1
                if _ACTIVE_TRACERS == 0:
                    gc.callbacks.remove(_gc_pause)
            _CURRENT.reset(token)

    def to_dict(self, timings: bool = True) -> Dict[str, Any]:
        return self.root.to_dict(timings)

    def to_json(self, timings: bool = True, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(timings), indent=indent, sort_keys=True)


def _gc_pause(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` hook installed while a tracer is active:
    charge a pause to the innermost open span of the tracer active in
    the context that triggered it.  A collection runs to its end in
    that context, so its start and stop reach the same tracer."""
    tracer = _CURRENT.get()
    if tracer is None:
        return
    if phase == "start":
        tracer._gc_started = perf_counter()
        return
    span = tracer._stack[-1]
    span.gc_s += perf_counter() - tracer._gc_started
    span.gc_pauses[info["generation"]] += 1


@contextmanager
def trace_span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Open a span on the active tracer, or do nothing when tracing is off."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as node:
        yield node


class OperatorRecord:
    """Accumulated actuals for one physical operator instance.

    Mutated only through `TraceCollector` methods (under its lock).
    """

    __slots__ = (
        "batches",
        "calls",
        "label",
        "rows_in",
        "rows_out",
        "seconds",
    )

    def __init__(self, label: str) -> None:
        self.label = label
        self.calls = 0
        self.batches = 0
        self.rows_in = 0
        self.rows_out = 0
        self.seconds = 0.0

    def as_dict(self, timings: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "batches": self.batches,
            "calls": self.calls,
            "operator": self.label,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }
        if timings:
            out["seconds"] = self.seconds
        return out


class TraceCollector:
    """Per-execution sink for operator actuals, keyed by operator identity."""

    __slots__ = ("_lock", "_records")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[int, OperatorRecord] = {}  # guarded-by: _lock

    def open(self, op: "PhysicalOp") -> OperatorRecord:
        """The record for ``op``, created on first use."""
        key = id(op)
        with self._lock:
            record = self._records.get(key)
            if record is None:
                record = OperatorRecord(op.label())
                self._records[key] = record
            return record

    def record(
        self,
        op: "PhysicalOp",
        inputs: tuple["Batch", ...],
        output: "Batch",
        seconds: float,
    ) -> None:
        """Account one completed `compute` call for ``op``."""
        rows_in = sum(len(batch) for batch in inputs)
        record = self.open(op)
        with self._lock:
            record.calls += 1
            record.batches += len(inputs)
            record.rows_in += rows_in
            record.rows_out += len(output)
            record.seconds += seconds

    def lookup(self, op: "PhysicalOp") -> Optional[OperatorRecord]:
        with self._lock:
            return self._records.get(id(op))

    def summary(
        self, root: Optional["PhysicalOp"] = None, timings: bool = True
    ) -> List[Dict[str, Any]]:
        """Operator records as dicts — in pre-order of ``root`` when given
        (deterministic), else in first-touch order."""
        if root is None:
            with self._lock:
                return [rec.as_dict(timings) for rec in self._records.values()]
        out: List[Dict[str, Any]] = []
        stack: List["PhysicalOp"] = [root]
        while stack:
            op = stack.pop()
            record = self.lookup(op)
            if record is not None:
                out.append(record.as_dict(timings))
            stack.extend(reversed(op.children()))
        return out


__all__ = [
    "OperatorRecord",
    "Span",
    "TraceCollector",
    "Tracer",
    "current_tracer",
    "trace_span",
    "tracing_active",
]
