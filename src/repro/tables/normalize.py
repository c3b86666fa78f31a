"""c-table normalization: semantic cleanup of conditions and rows.

The lifted algebra composes conditions syntactically, so answer tables
accumulate rows whose conditions are *semantically* unsatisfiable (e.g.
``'ligase' = f & 'kinase' = f`` after a join) and distinct rows that
denote the same tuple pattern.  Normalization removes both:

- :func:`drop_unsatisfiable_rows` — delete rows whose condition
  (conjoined with the global condition) has no satisfying valuation,
  decided by :func:`repro.logic.equality_sat.decide_condition`: over the
  finite domains when present, by the SAT + equality-theory loop over
  the infinite domain otherwise;
- :func:`merge_duplicate_rows` — rows with syntactically identical term
  tuples merge into one row with the disjunction of their conditions;
- :func:`normalize` — both passes plus algebraic condition
  simplification; ``Mod``-preserving by construction (property-tested).

Normalization is deliberately *not* automatic: it costs satisfiability
checks per row, worthwhile for answer tables that will be displayed or
re-queried, wasted for intermediate results.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.logic.equality_sat import decide_condition
from repro.logic.simplify import simplify
from repro.logic.syntax import BOTTOM, conj, disj
from repro.tables.ctable import CRow, CTable


def _row_satisfiable(table: CTable, row: CRow) -> bool:
    condition = conj(table.global_condition, row.condition)
    return decide_condition(condition, table.domains)


def drop_unsatisfiable_rows(table: CTable) -> CTable:
    """Remove rows that no admissible valuation can realize."""
    rows = [row for row in table.rows if _row_satisfiable(table, row)]
    return CTable(
        rows,
        arity=table.arity,
        domains=table.domains,
        global_condition=table.global_condition,
    )


def merge_duplicate_rows(table: CTable) -> CTable:
    """Merge rows with identical term tuples (disjoin their conditions)."""
    grouped: Dict[Tuple, List] = {}
    order: List[Tuple] = []
    for row in table.rows:
        if row.values not in grouped:
            grouped[row.values] = []
            order.append(row.values)
        grouped[row.values].append(row.condition)
    rows = [CRow(values, disj(*grouped[values])) for values in order]
    return CTable(
        rows,
        arity=table.arity,
        domains=table.domains,
        global_condition=table.global_condition,
    )


def normalize(table: CTable) -> CTable:
    """Full pass: merge duplicates, simplify, drop unsatisfiable rows.

    The result has the same ``Mod`` as the input over any domain (merge
    and drop are semantics-preserving; simplification is logical
    equivalence).
    """
    merged = merge_duplicate_rows(table)
    simplified = CTable(
        [
            CRow(row.values, simplify(row.condition))
            for row in merged.rows
            if simplify(row.condition) != BOTTOM
        ],
        arity=merged.arity,
        domains=merged.domains,
        global_condition=simplify(merged.global_condition),
    )
    return drop_unsatisfiable_rows(simplified)
