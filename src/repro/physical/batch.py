"""Batches: the unit of data flow in the physical runtime.

A :class:`Batch` is a c-table fragment in the same row form every other
layer holds: a tuple of :class:`~repro.tables.ctable.CRow` objects, each
a term tuple plus an interned condition (the interning layer of
:mod:`repro.logic.syntax` makes the formula object itself the id —
comparing, hashing, and deduplicating conditions are pointer
operations).  Scanning a c-table wraps its row tuple as it is, and an
operator passes a row whose condition it leaves unchanged through as
the same object.

A batch also carries the representation-level metadata a c-table owns —
finite variable domains and the global condition — merged pairwise by
the binary operators with the lifted operators' own rule
(:func:`repro.ctalgebra.lifted.merge_domains`), so the final
:meth:`Batch.to_ctable` is structurally identical to what the
interpreted evaluation would have produced.

A batch that scans a c-table remembers it as its :attr:`Batch.source`,
so an operator reading it can ask the table's cached per-column index
(:meth:`~repro.tables.ctable.CTable.column_index`) which rows a key can
reach instead of visiting them all.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.logic.atoms import Var
from repro.logic.syntax import Formula, TOP
from repro.tables.ctable import CRow, CTable


class Batch:
    """A row-form c-table fragment plus the table-level metadata.

    The arity is stored explicitly: an arity-0 batch (a boolean query,
    e.g. ``π̄_∅``) holds rows with empty value tuples, and an empty batch
    has no row to read it from.

    Concurrency contract: a batch is immutable after construction —
    rows and metadata are never reassigned — so threads using one
    session may share a batch (a cached answer, say) with no
    coordination.  The one lazily-computed slot (:meth:`variables`) is a
    deterministic memo: a racing recomputation stores an equal value,
    never a different one.
    """

    __slots__ = (
        "rows", "arity", "domains", "global_condition", "source", "_vars"
    )

    def __init__(
        self,
        rows: Tuple[CRow, ...],
        arity: int,
        domains: Optional[Dict[str, tuple]] = None,
        global_condition: Formula = TOP,
    ) -> None:
        self.rows = rows
        self.arity = arity
        self.domains = domains
        self.global_condition = global_condition
        #: The scanned table whose rows these are (``rows is
        #: source.rows``), set only by :meth:`from_ctable`; None for
        #: every batch an operator builds.
        self.source: Optional[CTable] = None
        self._vars: Optional[FrozenSet[str]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def variables(self) -> FrozenSet[str]:
        """Every variable in values, conditions, and the global (cached).

        Consulted only by the finite/infinite domain-merge check, which
        the lifted operators run on their materialized operands.
        """
        if self._vars is None:
            names = set(self.global_condition.variables())
            for row in self.rows:
                names |= row.condition.variables()
                for term in row.values:
                    if isinstance(term, Var):
                        names.add(term.name)
            self._vars = frozenset(names)
        return self._vars

    @classmethod
    def from_ctable(cls, table: CTable) -> "Batch":
        """Wrap *table*'s rows and metadata (no row is copied).

        The variable set is the table's own, which the table caches, so
        scans of a bound table share it across executions; the batch
        records *table* as its :attr:`source`.
        """
        batch = cls(
            table.rows,
            table.arity,
            domains=table.domains,
            global_condition=table.global_condition,
        )
        batch.source = table
        batch._vars = table.variables()
        return batch

    def to_ctable(self) -> CTable:
        """Materialize the batch as a plain c-table.

        The rows are prior c-table machinery output — normalized CRows
        of the batch's arity, none with a ``false`` condition, over
        variables the domains cover — so the trusted constructor
        applies.
        """
        return CTable.from_normalized_rows(
            self.rows,
            self.arity,
            domains=self.domains,
            global_condition=self.global_condition,
        )
