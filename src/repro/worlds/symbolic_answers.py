"""Certain and possible answers computed symbolically, without Mod.

Enumerating ``Mod(T)`` is exponential in the variable count; the c-table
algebra makes it unnecessary.  For a query ``q`` and c-table ``T``:

- a constant tuple ``t`` is a **certain answer** iff its *membership
  condition* in ``q̄(T)`` — the disjunction over answer rows of
  "condition holds and the row's terms equal ``t``" — is *valid*
  (true under every valuation),
- ``t`` is a **possible answer** iff that condition is *satisfiable*.

Validity/satisfiability are decided by
:func:`repro.logic.equality_sat.decide_condition`: over the infinite
domain by its SAT + equality-theory loop, for finite-domain tables over
the variable domains directly.

Candidate generation: a certain tuple survives into worlds where every
variable takes a fresh value, so its entries must be constants of the
answer table; the candidate pool is the product of per-column constants
(guarded by ``max_candidates``).  A column holding a variable also takes
the condition constants and, in a finite-domain table, the variable's
domain.

Cost: the answer table is indexed once (:meth:`CTable.row_index`), so
each candidate's membership condition is built from its matching
all-constant rows plus the rows with a variable entry.  The work before
solving is candidates × (matching rows + residual rows), not candidates
× rows.

Possible answers over an infinite domain form an infinite set in
general (rows with variable entries denote tuple *patterns*);
:func:`possible_answer_symbolic` therefore returns the constant possible
answers, which is what applications display — the full description
*is* the answer c-table.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Set, Tuple

from repro.errors import TableError, UnsupportedOperationError
from repro.core.instance import Instance, Row
from repro.logic.atoms import Const, eq
from repro.logic.equality_sat import constants_of, decide_condition
from repro.logic.syntax import Formula, conj, disj
from repro.algebra.ast import Query
from repro.tables.ctable import CTable


def membership_condition(table: CTable, row: Row) -> Formula:
    """The condition under which constant tuple *row* belongs to ν(T).

    The global condition and the disjunction, in table order, of "this
    row's condition holds and its terms equal *row*".  Only the rows
    :meth:`CTable.row_index` says can produce *row* are visited: every
    other row has a constant that differs from *row*, so its branch
    folds to ``false`` and :func:`disj` would drop it.  The result is
    the same interned formula as the disjunction over every row.
    """
    row = tuple(row)
    if len(row) != table.arity:
        raise TableError(
            f"tuple {row!r} has arity {len(row)}, table has {table.arity}"
        )
    exact, residual = table.row_index()
    rows = table.rows
    branches = []
    for position in sorted(exact.get(row, []) + residual):
        crow = rows[position]
        matches = conj(
            *(
                eq(term, Const(value))
                for term, value in zip(crow.values, row)
            )
        )
        branches.append(conj(crow.condition, matches))
    return conj(table.global_condition, disj(*branches))


def _column_constants(table: CTable) -> List[List[Hashable]]:
    """Constants appearing per column, plus, at a variable position, the
    condition constants and the variable's finite domain.

    Over the infinite domain a variable entry can only produce a
    *certain* constant when its condition forces it to equal some
    constant, and condition constants are the only candidates.  Over a
    finite domain it takes only values of its domain.  So the pool below
    is complete.
    """
    domains = table.domains
    condition_constants: Set[Hashable] = set(
        constants_of(table.global_condition)
    )
    for row in table.rows:
        condition_constants |= constants_of(row.condition)
    columns: List[Set[Hashable]] = [set() for _ in range(table.arity)]
    for row in table.rows:
        for index, term in enumerate(row.values):
            if isinstance(term, Const):
                columns[index].add(term.value)
            else:
                columns[index] |= condition_constants
                if domains is not None:
                    columns[index].update(domains[term.name])
    return [sorted(values, key=repr) for values in columns]


def _candidates(
    table: CTable, max_candidates: int
) -> Iterator[Row]:
    import itertools

    columns = _column_constants(table)
    total = 1
    for values in columns:
        total *= len(values)
    if total > max_candidates:
        raise UnsupportedOperationError(
            f"candidate pool of size {total} exceeds max_candidates="
            f"{max_candidates}; raise the bound or use enumeration"
        )
    yield from itertools.product(*columns)


def certain_from_answer(
    answered: CTable, max_candidates: int = 100_000
) -> Instance:
    """Certain tuples of an *already evaluated* answer table ``q̄(T)``.

    The candidate/validity machinery without the query evaluation — this
    is what :class:`~repro.engine.Dataset` terminals call, so certain and
    possible answers share one evaluation of ``q̄(T)``.  The candidates
    are the product of per-column constants, with the condition
    constants and any finite domain at variable positions.  Building
    their membership conditions costs candidates × (matching rows +
    residual rows), where the residual rows are those with a variable.
    """
    rows = [
        candidate
        for candidate in _candidates(answered, max_candidates)
        if decide_condition(
            membership_condition(answered, candidate),
            answered.domains,
            valid=True,
        )
    ]
    return Instance(rows, arity=answered.arity)


def possible_from_answer(
    answered: CTable, max_candidates: int = 100_000
) -> Instance:
    """Constant possible tuples of an already evaluated answer table."""
    rows = [
        candidate
        for candidate in _candidates(answered, max_candidates)
        if decide_condition(
            membership_condition(answered, candidate), answered.domains
        )
    ]
    return Instance(rows, arity=answered.arity)


def certain_answer_symbolic(
    query: Query,
    table: CTable,
    max_candidates: int = 100_000,
    optimize: bool = False,
) -> Instance:
    """Certain answers of *query* over ``Mod(table)``, via validity.

    Exact over infinite and finite domains alike; never materializes a
    single possible world.  ``optimize=True`` evaluates ``q̄`` through
    the plan optimizer — the answer table is ``Mod``-equal, so the same
    tuples are certain.  (Shim over the default engine; a
    :class:`~repro.engine.Session` additionally caches the plan and the
    answer table across calls.)
    """
    from repro.engine import default_engine

    answered = default_engine().execute_single(
        query, table, simplify_conditions=False, optimize=optimize
    )
    return certain_from_answer(answered, max_candidates)


def possible_answer_symbolic(
    query: Query,
    table: CTable,
    max_candidates: int = 100_000,
    optimize: bool = False,
) -> Instance:
    """Constant possible answers of *query*, via satisfiability.

    Tuples built from the answer table's constants that occur in *some*
    world.  Rows with variable entries additionally denote infinitely
    many fresh-valued possible tuples; those patterns are visible in
    ``apply_query_to_ctable(query, table)`` directly.
    """
    from repro.engine import default_engine

    answered = default_engine().execute_single(
        query, table, simplify_conditions=False, optimize=optimize
    )
    return possible_from_answer(answered, max_candidates)
