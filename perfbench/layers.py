"""Per-layer tracing from outside the program.

The traced run installs wrappers around the public functions of each
layer, at the name the *caller* looks up (``repro.engine.session``
imports ``parse_query``, ``build_plan``, ``lower`` and
``execute_physical`` by name, so those are patched there; ``repro.prob.wmc``
imports ``compile_condition`` by name, and so on).  A wrapper only calls
through: it records a span (name, start, end, parent, op id) and, for a
few layers, a count.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the time its direct
child spans cover.  The benchmark opens one root span per op, named
``engine.session``, so its self time is the op's wall time not covered by
any wrapped layer, and the self times of one op sum to its wall time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.ctalgebra.translate as translate_module
import repro.engine.session as session_module
import repro.logic.compile as compile_module
import repro.logic.counting as counting_module
import repro.logic.equality_sat as equality_sat_module
import repro.prob.wmc as wmc_module
import repro.worlds.symbolic_answers as answers_module
from repro.ivm.view import MaterializedView
from repro.logic.compile import DDNNF
from repro.physical import operators
from repro.physical.batch import Batch

ROOT = "engine.session"

#: Operator classes whose ``compute`` is timed.  ``compute`` runs after
#: the children were pulled, so its span is the operator's self time.
OPERATORS = (
    "ScanOp", "FilterOp", "HashJoinOp", "ProjectOp",
    "ProductOp", "UnionOp", "DifferenceOp", "IntersectOp",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Compiled circuits, sized after the run so sizing costs no op time.
        self.circuits: List[DDNNF] = []
        self.recording = False
        self._stack: List[int] = []
        self._op = -1
        self._active: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of op *op_id* and start recording."""
        self._op = op_id
        self.recording = True
        return self.open(ROOT)

    def end_op(self, index: int) -> float:
        """Close the root span; return the op's wall time in seconds."""
        self.close(index)
        self.recording = False
        if self._stack:
            raise RuntimeError(f"spans left open after op {self._op}")
        span = self.spans[index]
        return span[2] - span[1]


def _wrap(
    tracer: Tracer,
    name: str,
    function: Callable,
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
    reentrant: bool = True,
) -> Callable:
    """A call-through wrapper that records one span per call.

    With ``reentrant=False`` a recursive function records only its
    outermost call (the inner calls still go through the wrapper but
    open no span).  *after* sees the arguments and result inside the
    span, for counters.
    """

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.recording or (not reentrant and tracer._active[name]):
            return function(*args, **kwargs)
        index = tracer.open(name)
        tracer._active[name] += 1
        try:
            result = function(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result
        finally:
            tracer._active[name] -= 1
            tracer.close(index)

    return wrapper


def _count_rows(tracer: Tracer, args: tuple, result: Batch) -> None:
    tracer.counts["physical.rows_out"] += len(result)


def _count_certain(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["worlds.certain.found"] += len(result)


def _count_membership(tracer: Tracer, args: tuple, result: Any) -> None:
    if tracer._active["worlds.certain_from_answer"]:
        tracer.counts["worlds.certain.tested"] += 1


def _count_clauses(tracer: Tracer, args: tuple, result: DDNNF) -> None:
    tracer.counts["logic.compile.clauses"] += len(args[0])
    tracer.circuits.append(result)


#: (owner, attribute, layer name, counter hook, reentrant) per wrapper.
PATCHES: List[Tuple[Any, str, str, Optional[Callable], bool]] = [
    (session_module, "parse_query", "algebra.parser.parse_query", None, True),
    (session_module, "build_plan", "ctalgebra.build_plan", None, True),
    (translate_module, "optimize_plan", "ctalgebra.optimize_plan", None, True),
    (session_module, "lower", "physical.lower", None, True),
    (session_module, "execute_physical", "physical.execute_physical", None, True),
    *(
        (getattr(operators, op), "compute", f"physical.{op}", _count_rows, True)
        for op in OPERATORS
    ),
    (Batch, "to_ctable", "physical.to_ctable", None, True),
    (answers_module, "certain_from_answer", "worlds.certain_from_answer",
     _count_certain, True),
    (answers_module, "possible_from_answer", "worlds.possible_from_answer",
     None, True),
    (answers_module, "membership_condition", "worlds.membership_condition",
     _count_membership, True),
    (equality_sat_module, "is_valid_infinite", "logic.equality_sat", None, True),
    (equality_sat_module, "is_satisfiable_infinite", "logic.equality_sat",
     None, True),
    (counting_module, "probability_shannon",
     "logic.counting.probability_shannon", None, True),
    (wmc_module, "compile_probability", "prob.wmc.compile_probability",
     None, True),
    (wmc_module, "compile_condition", "logic.compile.compile_condition",
     None, True),
    (compile_module, "booleanize", "logic.compile.booleanize", None, False),
    (compile_module, "tseitin_clauses", "logic.cnf.tseitin_clauses", None, True),
    (compile_module, "compile_cnf", "logic.compile.compile_cnf",
     _count_clauses, True),
    (DDNNF, "weighted_count", "prob.wmc.weighted_count", None, True),
    (session_module.Session, "insert", "engine.session.insert", None, True),
    (session_module.Session, "delete", "engine.session.delete", None, True),
    (MaterializedView, "refresh", "ivm.refresh", None, True),
]

#: Every layer name a span can carry, the root included.
LAYERS = tuple(dict.fromkeys([ROOT] + [patch[2] for patch in PATCHES]))


class Installed:
    """The wrappers of one tracer, installed until :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []
        for owner, attribute, name, after, reentrant in PATCHES:
            original = getattr(owner, attribute)
            own = attribute in vars(owner)
            self._saved.append((owner, attribute, vars(owner).get(attribute), own))
            setattr(
                owner, attribute,
                _wrap(tracer, name, original, after, reentrant),
            )

    def remove(self) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()


def self_times(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Summed self seconds and call counts per layer over all spans.

    Checks the span tree on the way: every span but an op root has a
    parent in the same op, lies inside it, and does not overlap its
    earlier siblings; and the self times of each op sum to its root
    span's duration.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    last_end: Dict[int, float] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            raise AssertionError(f"span {name} of op {op} never closed")
        if parent < 0:
            if name != ROOT:
                raise AssertionError(f"span {name} outside any op")
            continue
        outer = spans[parent]
        if outer[4] != op or start < outer[1] or end > outer[2]:
            raise AssertionError(f"span {name} escapes its parent {outer[0]}")
        if start < last_end.get(parent, outer[1]):
            raise AssertionError(f"span {name} overlaps a sibling")
        last_end[parent] = end
        covered[parent] += end - start
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    per_op: Dict[int, float] = defaultdict(float)
    walls: Dict[int, float] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        own = (end - start) - covered[index]
        busy[name] += own
        calls[name] += 1
        per_op[op] += own
        if parent < 0:
            walls[op] = end - start
    for op, wall in walls.items():
        if abs(per_op[op] - wall) > 1e-9 + 1e-9 * wall:
            raise AssertionError(
                f"op {op}: self times sum to {per_op[op]!r}, wall is {wall!r}"
            )
    return dict(busy), dict(calls)
