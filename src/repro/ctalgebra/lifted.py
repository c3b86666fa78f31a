"""Lifted relational operators on c-tables (proof of Theorem 4).

Each operator mirrors its classical counterpart but manipulates rows
symbolically and composes conditions:

- projection merges rows with syntactically equal projected tuples,
  disjoining their conditions (the paper's ``π̄``),
- selection conjoins the instantiated predicate ``c(t)`` — a formula
  over constants and variables, not a truth value (``σ̄``),
- product and union are structural (``×̄``, ``∪̄``),
- difference and intersection (handled "similarly", per the paper)
  compare tuples symbolically: the term-wise equality of two rows is
  itself a condition, so ``T₁ −̄ T₂`` keeps row ``t₁`` under
  ``ϕ_{t₁} ∧ ⋀_{t₂∈T₂} ¬(ϕ_{t₂} ∧ (t₁ = t₂))``.

All operators preserve finite variable domains and global conditions
(both tables' globals are conjoined), and every operator satisfies
Lemma 1, which the property tests check against random valuations.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.errors import ArityError, TableError
from repro.logic.atoms import Const, Term, eq
from repro.logic.syntax import BOTTOM, TOP, Formula, conj, disj, neg
from repro.algebra.predicates import (
    check_predicate,
    instantiate_predicate,
    split_equijoin,
)
from repro.tables.ctable import CRow, CTable


class Operand(Protocol):
    """What the domain-merge rule reads of an operand: a :class:`CTable`
    here, a :class:`~repro.physical.batch.Batch` in the physical runtime."""

    @property
    def domains(self) -> Optional[Mapping[str, tuple]]: ...

    def variables(self) -> FrozenSet[str]: ...


def merge_domains(left: Operand, right: Operand) -> Optional[Dict[str, tuple]]:
    """Merge the finite domains of two operand tables.

    Shared variables must agree exactly.  A table with variables but no
    domains is an infinite-domain table: combining it with a finite-domain
    one has no well-defined domain story, so we reject it (the ``q̄``
    translation never produces the situation).
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
        return None
    merged: Dict[str, tuple] = dict(left.domains or {})
    for name, values in (right.domains or {}).items():
        existing = merged.get(name)
        if existing is not None and tuple(existing) != tuple(values):
            raise TableError(
                f"variable {name!r} has conflicting domains in the operands"
            )
        merged[name] = tuple(values)
    return merged


def _combine(
    left: CTable, right: CTable, rows: Iterable[CRow], arity: int
) -> CTable:
    return CTable(
        rows,
        arity=arity,
        domains=merge_domains(left, right),
        global_condition=conj(left.global_condition, right.global_condition),
    )


def project_bar(table: CTable, columns: Sequence[int]) -> CTable:
    """``π̄_ℓ``: project rows, merging equal term-tuples by disjunction."""
    columns = tuple(columns)
    bad = [c for c in columns if c < 0 or c >= table.arity]
    if bad:
        raise ArityError(
            f"projection columns {bad} out of range for arity {table.arity}"
        )
    grouped: Dict[Tuple[Term, ...], list] = {}
    order: list = []
    for row in table.rows:
        projected = tuple(row.values[index] for index in columns)
        if projected not in grouped:
            grouped[projected] = []
            order.append(projected)
        grouped[projected].append(row.condition)
    rows = [
        CRow(projected, disj(*grouped[projected])) for projected in order
    ]
    return CTable(
        rows,
        arity=len(columns),
        domains=table.domains,
        global_condition=table.global_condition,
    )


def select_bar(table: CTable, predicate: Formula) -> CTable:
    """``σ̄_c``: conjoin the symbolically instantiated predicate.

    When the instantiated predicate folds to ``true`` the row is kept
    *as-is* — same :class:`CRow`, same interned condition object — so
    selective-free scans allocate no fresh conjunctions at all; a
    ``false`` instantiation drops the row immediately.
    """
    check_predicate(predicate, table.arity)
    rows = []
    for row in table.rows:
        instantiated = instantiate_predicate(predicate, row.values)
        if instantiated is TOP:
            rows.append(row)
            continue
        condition = conj(row.condition, instantiated)
        if condition is not BOTTOM:
            rows.append(CRow(row.values, condition))
    return CTable(
        rows,
        arity=table.arity,
        domains=table.domains,
        global_condition=table.global_condition,
    )


def product_bar(left: CTable, right: CTable) -> CTable:
    """``×̄``: concatenate tuples, conjoin conditions.

    Shared variables are *not* renamed: a self-join of a c-table with
    itself must use the same valuation on both sides (Lemma 1 quantifies
    over a single ν).
    """
    rows = [
        CRow(l.values + r.values, conj(l.condition, r.condition))
        for l in left.rows
        for r in right.rows
    ]
    return _combine(left, right, rows, left.arity + right.arity)


def _join_key(row: CRow, columns: Iterable[int]) -> Optional[tuple]:
    """The row's constant values at *columns*, or None if any is a Var."""
    key = []
    for index in columns:
        term = row.values[index]
        if not isinstance(term, Const):
            return None
        key.append(term.value)
    return tuple(key)


def join_bar(left: CTable, right: CTable, predicate: Formula) -> CTable:
    """``σ̄_c(T₁ ×̄ T₂)`` fused, with an equijoin fast path.

    Produces exactly the table ``select_bar(product_bar(left, right),
    predicate)`` would, but when the predicate's top-level conjuncts
    contain cross-operand column equalities, rows whose join columns are
    *constants* are hash-partitioned on those columns: a pair of rows
    whose constants disagree can only yield a ``false`` condition (which
    the c-table drops anyway), so the blind nested loop skips it without
    ever building the row.  Rows with variables in a join column stay
    symbolic and are paired with every opposite row, preserving Lemma 1.
    """
    total_arity = left.arity + right.arity
    check_predicate(predicate, total_arity)
    pairs, _residual = split_equijoin(predicate, left.arity)
    if not pairs:
        return select_bar(product_bar(left, right), predicate)
    left_columns = tuple(i for i, _ in pairs)
    right_columns = tuple(j for _, j in pairs)
    buckets: Dict[tuple, list] = {}
    symbolic_right = []
    for row in right.rows:
        key = _join_key(row, right_columns)
        if key is None:
            symbolic_right.append(row)
        else:
            buckets.setdefault(key, []).append(row)
    rows = []
    for l in left.rows:
        key = _join_key(l, left_columns)
        if key is None:
            candidates = right.rows
        else:
            matched = buckets.get(key)
            if matched is None:
                candidates = symbolic_right
            elif symbolic_right:
                candidates = matched + symbolic_right
            else:
                candidates = matched
        for r in candidates:
            values = l.values + r.values
            condition = conj(
                l.condition,
                r.condition,
                instantiate_predicate(predicate, values),
            )
            if condition is not BOTTOM:
                rows.append(CRow(values, condition))
    return _combine(left, right, rows, total_arity)


def union_bar(left: CTable, right: CTable) -> CTable:
    """``∪̄``: the union of the two row sets."""
    if left.arity != right.arity:
        raise ArityError(f"arity mismatch: {left.arity} vs {right.arity}")
    return _combine(left, right, left.rows + right.rows, left.arity)


def _rows_equal_condition(first: CRow, second: CRow) -> Formula:
    """The condition under which two symbolic rows denote the same tuple."""
    return conj(
        *(eq(a, b) for a, b in zip(first.values, second.values))
    )


def _constant_row_key(row: CRow) -> Optional[tuple]:
    """The row's tuple of constant values, or None if any entry is a Var."""
    key = []
    for term in row.values:
        if not isinstance(term, Const):
            return None
        key.append(term.value)
    return tuple(key)


def _matching_right_rows(
    right: CTable,
) -> Callable[[CRow], Sequence[CRow]]:
    """Index the right operand for ``−̄``/``∩̄`` tuple-equality pairing.

    Two all-constant rows with syntactically unequal tuples have a
    ``false`` equality condition, which ``conj``/``disj`` fold away — so
    those pairs contribute nothing and never need their ``eq``
    conjunction built.  All-constant right rows are hash-bucketed by
    tuple (mirroring ``join_bar``'s partitioning); rows with a variable
    entry stay symbolic and pair with every left row.  Returns a
    function mapping a left row to the relevant right rows *in original
    right-operand order*, so the composed conditions are structurally
    identical to the blind nested loop's.
    """
    buckets: Dict[tuple, list] = {}
    symbolic_indices = []
    for index, row in enumerate(right.rows):
        key = _constant_row_key(row)
        if key is None:
            symbolic_indices.append(index)
        else:
            buckets.setdefault(key, []).append(index)

    def candidates(row: CRow):
        key = _constant_row_key(row)
        if key is None:
            return right.rows
        matched = buckets.get(key)
        if matched is None:
            indices = symbolic_indices
        elif symbolic_indices:
            indices = sorted(matched + symbolic_indices)
        else:
            indices = matched
        return [right.rows[index] for index in indices]

    return candidates


def difference_bar(left: CTable, right: CTable) -> CTable:
    """``−̄``: keep ``t₁`` unless some ``t₂`` is present and equal to it."""
    if left.arity != right.arity:
        raise ArityError(f"arity mismatch: {left.arity} vs {right.arity}")
    candidates = _matching_right_rows(right)
    rows = []
    for l in left.rows:
        absent_in_right = conj(
            *(
                neg(conj(r.condition, _rows_equal_condition(l, r)))
                for r in candidates(l)
            )
        )
        rows.append(CRow(l.values, conj(l.condition, absent_in_right)))
    return _combine(left, right, rows, left.arity)


def intersection_bar(left: CTable, right: CTable) -> CTable:
    """``∩̄``: keep ``t₁`` when some ``t₂`` is present and equal to it."""
    if left.arity != right.arity:
        raise ArityError(f"arity mismatch: {left.arity} vs {right.arity}")
    candidates = _matching_right_rows(right)
    rows = []
    for l in left.rows:
        present_in_right = disj(
            *(
                conj(r.condition, _rows_equal_condition(l, r))
                for r in candidates(l)
            )
        )
        rows.append(CRow(l.values, conj(l.condition, present_in_right)))
    return _combine(left, right, rows, left.arity)
