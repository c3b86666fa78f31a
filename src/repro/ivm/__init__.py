"""Incremental view maintenance: the physical operators run on deltas.

The mutation API (:meth:`repro.engine.session.Session.insert` /
``delete`` / ``update``) validates each write's inserted rows once and
turns the change into a :class:`~repro.ivm.delta.DeltaBatch` in row
form — the deleted row ids plus the inserted ``(row_id, CRow)`` pairs,
conditions interned — and every standing prepared query's
:class:`~repro.ivm.view.MaterializedView` folds those batches into one
keyed row store per operator of its lowered plan.  Each operator's
delta rule runs that operator's own ``compute`` body over the rows a
change reaches, so the maintained answer stays structurally identical
to a full re-execution of the same plan (Lemma 1 makes the
per-operator condition composition exact; position keys make the row
order exact).
"""

from repro.ivm.delta import DeltaBatch
from repro.ivm.view import MaterializedView

__all__ = ["DeltaBatch", "MaterializedView"]
