"""The physical execution subsystem: vectorized batch operators.

This package sits between the logical plan IR of
:mod:`repro.ctalgebra.plan` and the prepared-query layer that caches
plans: a *physical* runtime that makes a cached plan fast.
:func:`lower` turns an optimized :class:`~repro.ctalgebra.plan.PlanNode`
tree into a tree of pull-based batch operators over
:class:`~repro.physical.batch.Batch` fragments — the c-table row form
itself, ``CRow`` objects plus the table metadata;
:func:`execute_physical` runs it.

The contract with the interpreted path (``execute_plan``) is structural
identity: same rows, same interned condition objects, same order.  The
engine's ``ExecutionConfig.executor`` knob flips between the two
executors — ``"interpreted"`` (the lifted-operator oracle) and
``"vectorized"`` (this batch runtime).  Both produce byte-for-byte the
same answer tables; the differential harness (``tests/harness.py``)
checks them against each other.
"""

from repro.physical.batch import Batch
from repro.physical.operators import (
    ConstScanOp,
    DifferenceOp,
    EmptyOp,
    ExecContext,
    FilterOp,
    HashJoinOp,
    IntersectOp,
    PhysicalOp,
    ProductOp,
    ProjectOp,
    ScanOp,
    UnionOp,
)
from repro.physical.lower import (
    execute_physical,
    execute_plan_vectorized,
    explain_physical,
    lower,
)

__all__ = [
    "Batch",
    "ConstScanOp",
    "DifferenceOp",
    "EmptyOp",
    "ExecContext",
    "FilterOp",
    "HashJoinOp",
    "IntersectOp",
    "PhysicalOp",
    "ProductOp",
    "ProjectOp",
    "ScanOp",
    "UnionOp",
    "execute_physical",
    "execute_plan_vectorized",
    "explain_physical",
    "lower",
]
