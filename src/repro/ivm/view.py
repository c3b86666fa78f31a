"""Maintained materialized views over a frozen physical plan.

A :class:`MaterializedView` shadows the lowered operator tree of one
optimized plan with a tree of :class:`ViewNode` row stores, one per
operator, each holding the rows that operator outputs under *keys*
whose ascending order is the order a from-scratch run produces:

- a scan keys a row by ``(row_id,)`` — registration-then-insert order is
  exactly how a rerun sees the relation; a constant or pruned leaf by
  its position;
- every other operator derives its keys from the input positions its
  ``compute_tracked`` reports (see :mod:`repro.physical.operators`).

Building a view is one ``compute_tracked`` pass per operator.  A
mutation of a registered relation arrives as a
:class:`~repro.ivm.delta.DeltaBatch` — the deleted row ids and the
inserted ``(row_id, CRow)`` pairs — and is propagated bottom-up: each
operator's ``delta`` turns its inputs' signed row changes into its own,
running the operator's own body over the rows the change can reach, and
its store absorbs the result; subtrees no delta reaches do no work.

The maintained result is therefore **structurally identical** to
re-executing the plan on the mutated tables — the same rows carrying
the *same interned condition objects*, in the same order, under the
same domains and global condition.

Two shapes fall back to full re-execution (:func:`maintainable`): plans
mixing finite-domain and infinite-domain scans (the domain-merge rules
depend on row content there), and scans of :class:`CTable` subclasses
whose metadata is derived from rows (boolean c-tables).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

from repro.tables.ctable import CRow, CTable
from repro.ctalgebra.plan import PlanNode, Scan
from repro.physical.batch import Batch
from repro.physical.lower import execute_physical
from repro.physical.operators import (
    Delta,
    EmptyOp,
    ExecContext,
    Key,
    Keyed,
    PhysicalOp,
    ScanOp,
)
from repro.ivm.delta import DeltaBatch

#: One registered relation as the view machinery sees it: the current
#: c-table plus the row ids aligned with its rows.
Binding = Tuple[CTable, Sequence[int]]


_T = TypeVar("_T")


def _drop(items: List[_T], cuts: List[int]) -> None:
    """Delete the entries at the ascending positions *cuts* from *items*
    in one splice: the kept slices after the first cut, joined, replace
    everything from it on.  The list stays the same object, so a store
    that has aged into the collector's oldest generation is not copied
    into a young list that every minor collection walks again."""
    tail: List[_T] = []
    for cut, end in zip(cuts, [*cuts[1:], len(items)]):
        tail += items[cut + 1 : end]
    items[cuts[0] :] = tail


class ViewNode:
    """One operator's maintained output: rows by key, kept in key order,
    plus the index the operator's delta rule keeps over its inputs."""

    __slots__ = (
        "op", "children", "rows", "order", "ordered_rows", "index",
        "domains", "global_condition",
    )

    def __init__(
        self,
        op: PhysicalOp,
        children: Tuple["ViewNode", ...],
        keys: List[Key],
        batch: Batch,
    ) -> None:
        self.op = op
        self.children = children
        self.rows: Dict[Key, CRow] = dict(zip(keys, batch.rows))
        self.order = keys
        # The batch's row objects in the same order as ``order``, so
        # materializing is one pass over a ready-made list.
        self.ordered_rows = list(batch.rows)
        self.domains = batch.domains
        self.global_condition = batch.global_condition
        self.index: Any = op.maintenance_index(children)

    def apply(self, doomed: Sequence[Key], inserted: Keyed) -> Optional[Delta]:
        """Delete the held rows among *doomed*, store *inserted*, and
        return the change (None when nothing changed).

        A key always names the same values, so a row deleted and
        re-inserted with the same condition is left alone: a change
        that cancels out reaches no parent.

        The *k* deleted keys leave ``order`` and ``ordered_rows`` in one
        splice (:func:`_drop`): their positions are found by bisection
        and sorted, and each list is rebuilt once from the slices
        between them.  That is O(n + k log n) per refresh, where
        deleting key by key shifts the tail once per key, O(k·n) — and
        the oldest rows, the ones deletes hit, sit in front."""
        rows = self.rows
        gone = {key for key in doomed if key in rows}
        fresh: Keyed = []
        for key, row in inserted:
            if key in gone and rows[key].condition is row.condition:
                gone.discard(key)
            else:
                fresh.append((key, row))
        if not gone and not fresh:
            return None
        order = self.order
        ordered = self.ordered_rows
        deleted: Keyed = [(key, rows.pop(key)) for key in gone]
        if gone:
            cuts = sorted([bisect_left(order, key) for key in gone])
            _drop(order, cuts)
            _drop(ordered, cuts)
        for key, row in fresh:
            index = bisect_left(order, key)
            order.insert(index, key)
            ordered.insert(index, row)
            rows[key] = row
        return deleted, fresh


def _scanned(op: PhysicalOp) -> Iterator[str]:
    """The relation names *op* itself reads (a pruned region remembers
    its sources' names for their metadata)."""
    if isinstance(op, ScanOp):
        yield op.name
    elif isinstance(op, EmptyOp):
        for source in op.sources:
            if isinstance(source, Scan):
                yield source.name


def maintainable(physical: PhysicalOp, tables: Mapping[str, CTable]) -> bool:
    """Whether the delta rules can maintain *physical* over *tables*.

    They rely on every operator's domains and global condition being
    fixed by the plan alone: true unless a scanned table is a
    :class:`CTable` subclass (whose metadata follows its rows) or the
    plan mixes finite-domain and infinite-domain tables.
    """
    finite = set()
    for op in physical.walk():
        for name in _scanned(op):
            table = tables[name]
            if type(table) is not CTable:
                return False
            finite.add(table.domains is not None)
    return len(finite) < 2


class MaterializedView:
    """One standing query's maintained row stores plus pending deltas.

    The plan is frozen at construction (statistics drift never re-plans
    a standing view; a re-``register`` of a read relation marks the view
    dirty, and the session rebuilds it on a fresh plan).  ``refresh``
    applies pending delta batches one at a time — each batch is a valid
    signed delta on its own, so one-by-one and coalesced mutation
    sequences land in the identical state — and materializes the root.
    """

    __slots__ = (
        "plan", "physical", "simplify_conditions", "relations", "dirty",
        "supported", "pending", "root",
    )

    def __init__(
        self, plan: PlanNode, physical: PhysicalOp, simplify_conditions: bool
    ) -> None:
        self.plan = plan
        self.physical = physical
        self.simplify_conditions = simplify_conditions
        self.relations = frozenset(
            name for op in physical.walk() for name in _scanned(op)
        )
        self.dirty = True
        self.supported = True
        self.pending: List[DeltaBatch] = []
        self.root: Optional[ViewNode] = None

    def invalidate(self) -> None:
        """Force a rebuild (a read relation was re-registered)."""
        self.dirty = True
        self.pending.clear()
        self.root = None

    def push(self, batch: DeltaBatch) -> None:
        """Queue a mutation's signed delta for the next refresh."""
        if self.dirty:
            return  # The rebuild reads the mutated tables directly.
        self.pending.append(batch)

    def refresh(self, bindings: Mapping[str, Binding]) -> Tuple[CTable, str]:
        """Bring the view up to date; returns ``(result, mode)``.

        *mode* is ``"build"`` (first refresh or after re-register),
        ``"delta"`` (pending batches propagated), ``"noop"`` (nothing
        pending), or ``"fallback"`` (a shape :func:`maintainable`
        rejects — full re-execution of the frozen plan).

        Every call materializes a fresh :class:`CTable` wrapper (the
        ``CRow`` objects inside are shared with the stores, so
        structural identity is preserved); the engine's ResultCache is
        the *only* memoization layer, keeping its LRU eviction contract
        observable.
        """
        tables = {name: table for name, (table, _ids) in bindings.items()}
        if self.dirty:
            self.supported = maintainable(self.physical, tables)
            if self.supported:
                self._build(tables, bindings)
                self.dirty = False
                return self._materialize(), "build"
        if not self.supported:
            self.dirty = False
            self.pending.clear()
            return execute_physical(
                self.physical,
                tables,
                simplify_conditions=self.simplify_conditions,
            ), "fallback"
        if not self.pending:
            return self._materialize(), "noop"
        # Memo dicts (simplification, compute's own) live one refresh.
        ctx = ExecContext(tables, simplify_conditions=self.simplify_conditions)
        for batch in self.pending:
            self._propagate(ctx, batch)
        self.pending.clear()
        return self._materialize(), "delta"

    def _build(
        self, tables: Mapping[str, CTable], bindings: Mapping[str, Binding]
    ) -> None:
        ctx = ExecContext(tables, simplify_conditions=self.simplify_conditions)

        def build(op: PhysicalOp) -> Tuple[ViewNode, Batch]:
            built = [build(child) for child in op.children()]
            children = tuple(node for node, _ in built)
            keys: List[Key]
            if children:
                batch, positions = op.compute_tracked(
                    ctx, tuple(batch for _, batch in built)
                )
                keys = op.keys(positions, [c.order for c in children])
            else:
                batch = op.compute(ctx, ())
                if isinstance(op, ScanOp):
                    keys = [(row_id,) for row_id in bindings[op.name][1]]
                else:  # A constant or pruned leaf.
                    keys = [(position,) for position in range(len(batch))]
            return ViewNode(op, children, keys, batch), batch

        self.root = build(self.physical)[0]

    def _propagate(self, ctx: ExecContext, batch: DeltaBatch) -> None:
        unchanged: Delta = ([], [])

        def run(node: ViewNode) -> Optional[Delta]:
            if not node.children:
                op = node.op
                if not isinstance(op, ScanOp) or op.name != batch.relation:
                    return None
                return node.apply(
                    [(row_id,) for row_id in batch.delete_ids],
                    [((row_id,), row) for row_id, row in batch.inserted],
                )
            deltas = [run(child) for child in node.children]
            if all(delta is None for delta in deltas):
                return None
            return node.apply(
                *node.op.delta(
                    ctx,
                    node,
                    [unchanged if delta is None else delta for delta in deltas],
                )
            )

        assert self.root is not None
        run(self.root)

    def _materialize(self) -> CTable:
        # Store rows are prior c-table machinery output — normalized
        # CRows of the root's arity, none with a false condition — so
        # the trusted constructor applies.
        root = self.root
        assert root is not None
        return CTable.from_normalized_rows(
            root.ordered_rows,
            root.op.arity,
            domains=root.domains,
            global_condition=root.global_condition,
        )
