"""Signed deltas: the unit of change flowing into maintained views.

A mutation of a registered relation (``Session.insert`` / ``delete`` /
``update``) is described by one :class:`DeltaBatch`: the *row ids* it
removes and the ``(row_id, CRow)`` pairs it adds.  That is all a write
changes — the relation's domains and global condition stay put, and
Lemma 1 composes each row's condition locally — so the delta is in
the row form every layer shares, down to the physical operators whose
delta rules run over the rows it reaches.
Row ids are assigned once, monotonically, when a row enters a relation
(registration numbers the initial rows ``0..n-1``; every later insert
takes fresh ids), and they never recycle.  They are the backbone of the
maintenance layer's determinism story: re-executing a plan from scratch
visits a relation's rows in registration-then-insert order, which is
exactly ascending row-id order, so every maintained operator keeps its
state sorted by (tuples of) row ids and materializes in the same order
a rerun would produce.

The inserted rows are the *identical* ``CRow`` objects the mutated
table holds, interned conditions included, so composing them through
the physical operators yields the identical interned results a rerun
composes.
"""

from __future__ import annotations

from typing import Tuple

from repro.tables.ctable import CRow


class DeltaBatch:
    """One relation's signed change: deleted row ids out, inserted rows in.

    Deletions are applied before insertions — an ``update`` is one batch
    whose delete half removes the old rows and whose insert half adds
    the replacements, and applying the batch atomically (rather than as
    two batches) is what makes one-by-one and batched mutation sequences
    land in identical view states.
    """

    __slots__ = ("relation", "delete_ids", "inserted")

    def __init__(
        self,
        relation: str,
        delete_ids: Tuple[int, ...],
        inserted: Tuple[Tuple[int, CRow], ...],
    ) -> None:
        self.relation = relation
        self.delete_ids = delete_ids
        self.inserted = inserted

    def __len__(self) -> int:
        return len(self.delete_ids) + len(self.inserted)

    def __repr__(self) -> str:
        return (
            f"DeltaBatch({self.relation!r}, -{len(self.delete_ids)}, "
            f"+{len(self.inserted)})"
        )
