"""Columnar batches: the unit of data flow in the physical runtime.

A :class:`Batch` is a c-table fragment laid out column-wise: ``arity``
tuple columns of terms plus one *condition column* of interned formula
objects (the interning layer of :mod:`repro.logic.syntax` makes the
formula object itself the id — comparing, hashing, and deduplicating
conditions are pointer operations).  Operators read the few columns they
need and process all rows of the batch in one pass, instead of
destructuring a :class:`~repro.tables.ctable.CRow` per tuple the way the
interpreted lifted operators do.

A batch also carries the representation-level metadata a c-table owns —
finite variable domains and the global condition — merged pairwise by
the binary operators (:func:`merge_metadata`) exactly as the
interpreted lifted operators merge them, so the final
:meth:`Batch.to_ctable` is structurally identical to what the
interpreted evaluation would have produced.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.errors import TableError
from repro.logic.atoms import Term, Var
from repro.logic.syntax import Formula, TOP, conj
from repro.tables.ctable import CRow, CTable


class Batch:
    """A columnar c-table fragment plus the table-level metadata.

    The arity is stored explicitly rather than derived from the column
    count: an arity-0 batch (a boolean query, e.g. ``π̄_∅``) has no
    columns but still carries one empty value-tuple per condition.

    Concurrency contract: a batch is immutable after construction —
    columns, conditions, and metadata are never reassigned — so threads
    using one session may share a batch (a cached answer, say) with no
    coordination.  The one lazily-computed slot (:meth:`variables`) is a deterministic memo: a
    racing recomputation stores an equal value, never a different one.
    """

    __slots__ = (
        "columns", "conditions", "batch_arity", "domains",
        "global_condition", "_vars",
    )

    def __init__(
        self,
        columns: Tuple[Tuple[Term, ...], ...],
        conditions: Tuple[Formula, ...],
        arity: Optional[int] = None,
        domains: Optional[Dict[str, tuple]] = None,
        global_condition: Formula = TOP,
    ) -> None:
        if arity is None:
            if not columns:
                raise TableError("an empty batch needs an explicit arity")
            arity = len(columns)
        elif columns and arity != len(columns):
            raise TableError(
                f"declared arity {arity} does not match {len(columns)} columns"
            )
        self.columns = columns
        self.conditions = conditions
        self.batch_arity = arity
        self.domains = domains
        self.global_condition = global_condition
        self._vars: Optional[FrozenSet[str]] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.batch_arity

    def __len__(self) -> int:
        return len(self.conditions)

    def rows(self) -> Iterator[Tuple[Term, ...]]:
        """Yield the value tuples, row-wise (used at materialization)."""
        if self.columns:
            return iter(zip(*self.columns))
        # Zero-arity rows: one empty tuple per condition.
        return iter(() for _ in self.conditions)

    def variables(self) -> FrozenSet[str]:
        """Every variable in values, conditions, and the global (cached).

        Consulted only by the finite/infinite domain-merge check, which
        mirrors the one the lifted operators run on their materialized
        operands.
        """
        if self._vars is None:
            names = set(self.global_condition.variables())
            for condition in self.conditions:
                names |= condition.variables()
            for column in self.columns:
                for term in column:
                    if isinstance(term, Var):
                        names.add(term.name)
            self._vars = frozenset(names)
        return self._vars

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_ctable(cls, table: CTable) -> "Batch":
        """Columnar-ize *table* (one transpose; conditions stay interned)."""
        return cls.from_rows(
            table.rows,
            table.arity,
            domains=table.domains,
            global_condition=table.global_condition,
        )

    @classmethod
    def from_rows(
        cls,
        rows: Tuple[CRow, ...],
        arity: int,
        domains: Optional[Dict[str, tuple]] = None,
        global_condition: Formula = TOP,
    ) -> "Batch":
        """Columnar-ize a row sequence under the given metadata.

        :meth:`from_ctable` passes a whole table's rows and metadata; an
        operator's delta rule passes the rows of a maintained operand
        it runs over, whose metadata lives on the view node rather than
        on a :class:`CTable`.  Deltas themselves stay in row form
        (:class:`~repro.ivm.delta.DeltaBatch`) until an operator's rule
        reaches them.
        """
        if rows:
            columns = tuple(zip(*[row.values for row in rows]))
        else:
            columns = tuple(() for _ in range(arity))
        return cls(
            columns,
            tuple([row.condition for row in rows]),
            arity=arity,
            domains=domains,
            global_condition=global_condition,
        )

    def to_ctable(self) -> CTable:
        """Materialize the batch as a c-table.

        Rows whose condition folded to ``false`` never entered the batch,
        so the constructor's normalization pass finds nothing to drop.
        """
        rows = [
            CRow(values, condition)
            for values, condition in zip(self.rows(), self.conditions)
        ]
        return CTable(
            rows,
            arity=self.arity,
            domains=self.domains,
            global_condition=self.global_condition,
        )


def merge_metadata(left: Batch, right: Batch) -> Tuple[Optional[Dict[str, tuple]], Formula]:
    """Merged (domains, global condition) of two operand batches.

    The lifted operators' rule: shared variables must agree on their
    finite domains, mixing a finite-domain operand with an
    infinite-domain one that actually has variables is rejected, and
    the global conditions are conjoined.
    """
    left_infinite = left.domains is None and left.variables()
    right_infinite = right.domains is None and right.variables()
    if (left_infinite and right.domains is not None) or (
        right_infinite and left.domains is not None
    ):
        raise TableError(
            "cannot combine an infinite-domain c-table with a finite-domain one"
        )
    if left.domains is None and right.domains is None:
        merged = None
    else:
        merged = dict(left.domains or {})
        for name, values in (right.domains or {}).items():
            existing = merged.get(name)
            if existing is not None and tuple(existing) != tuple(values):
                raise TableError(
                    f"variable {name!r} has conflicting domains in the operands"
                )
            merged[name] = tuple(values)
    return merged, conj(left.global_condition, right.global_condition)
