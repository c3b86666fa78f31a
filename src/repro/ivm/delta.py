"""Signed delta batches: the unit of change flowing into maintained views.

A mutation of a registered relation (``Session.insert`` / ``delete`` /
``update``) is described by one :class:`DeltaBatch`: two columnar
:class:`~repro.physical.batch.Batch` fragments — one tagged ``+`` for
inserted rows, one tagged ``−`` for deleted rows — each aligned with a
tuple of *row ids*.  Row ids are assigned once, monotonically, when a
row enters a relation (registration numbers the initial rows ``0..n-1``;
every later insert takes fresh ids), and they never recycle.  They are
the backbone of the maintenance layer's determinism story: re-executing
a plan from scratch visits a relation's rows in registration-then-insert
order, which is exactly ascending row-id order, so every maintained
operator keeps its state sorted by (tuples of) row ids and materializes
in the same order a rerun would produce.

Conditions inside the batches are the interned formula objects of
:mod:`repro.logic.syntax` — the delta carries the *identical* condition
objects the mutated table holds, so composing them through the physical
operators yields the identical interned results a rerun composes.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.physical.batch import Batch
from repro.tables.ctable import CRow, CTable


class DeltaBatch:
    """One relation's signed change: deleted rows out, inserted rows in.

    Deletions are applied before insertions — an ``update`` is one batch
    whose delete half removes the old rows and whose insert half adds
    the replacements, and applying the batch atomically (rather than as
    two batches) is what makes one-by-one and batched mutation sequences
    land in identical view states.
    """

    __slots__ = ("relation", "delete_ids", "deletes", "insert_ids", "inserts")

    def __init__(
        self,
        relation: str,
        delete_ids: Tuple[int, ...],
        deletes: Batch,
        insert_ids: Tuple[int, ...],
        inserts: Batch,
    ) -> None:
        if len(delete_ids) != len(deletes):
            raise ValueError(
                f"{len(delete_ids)} delete ids for {len(deletes)} rows"
            )
        if len(insert_ids) != len(inserts):
            raise ValueError(
                f"{len(insert_ids)} insert ids for {len(inserts)} rows"
            )
        self.relation = relation
        self.delete_ids = delete_ids
        self.deletes = deletes
        self.insert_ids = insert_ids
        self.inserts = inserts

    @classmethod
    def from_rows(
        cls,
        relation: str,
        table: CTable,
        deleted: Tuple[Tuple[int, CRow], ...],
        inserted: Tuple[Tuple[int, CRow], ...],
    ) -> "DeltaBatch":
        """Build the signed batch for a mutation of *table*.

        *deleted* and *inserted* pair each row with its row id; the
        columnar halves inherit the (post-mutation) table's metadata.
        """
        domains = table.domains
        global_condition = table.global_condition
        return cls(
            relation,
            tuple(row_id for row_id, _ in deleted),
            Batch.from_rows(
                tuple(row for _, row in deleted),
                table.arity,
                domains=domains,
                global_condition=global_condition,
            ),
            tuple(row_id for row_id, _ in inserted),
            Batch.from_rows(
                tuple(row for _, row in inserted),
                table.arity,
                domains=domains,
                global_condition=global_condition,
            ),
        )

    def __len__(self) -> int:
        return len(self.delete_ids) + len(self.insert_ids)

    def inserted_rows(self) -> Iterator[Tuple[int, CRow]]:
        """Yield ``(row_id, row)`` for the ``+`` half, in batch order."""
        for row_id, values, condition in zip(
            self.insert_ids, self.inserts.rows(), self.inserts.conditions
        ):
            yield row_id, CRow(values, condition)

    def __repr__(self) -> str:
        return (
            f"DeltaBatch({self.relation!r}, -{len(self.delete_ids)}, "
            f"+{len(self.insert_ids)})"
        )
