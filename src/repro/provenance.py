"""Why-provenance and its coincidence with c-table conditions (§9).

Section 9 of the paper observes that the condition decorating a tuple
``t`` in ``q̄(T)`` "can be seen as the lineage [8], a.k.a. the
why-provenance [6], of the tuple ``t``" — the germ of the authors'
later provenance-semiring work.  This module makes the observation
executable:

- :func:`why_provenance` computes the classical why-provenance of an
  answer tuple over a *conventional* instance: the set of *witnesses*,
  each witness being a minimal-by-construction set of input tuples that
  together produce the answer tuple,
- :func:`lineage_formula` converts a witness set into a boolean formula
  over per-input-tuple event variables (a disjunction of conjunctions —
  exactly DNF lineage),
- :func:`ctable_lineage_matches_provenance` checks the §9 claim: tag
  every input tuple with a fresh boolean variable (the canonical
  boolean c-table over the instance), run ``q̄``, and the condition of
  the answer tuple is *logically equivalent* to the why-provenance
  formula.

The check is a theorem for positive queries (SPJU); for queries with
difference the condition refines why-provenance with negative literals
(why-provenance is not defined for non-monotone queries), and the
function reports that honestly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.errors import QueryError, UnsupportedOperationError
from repro.core.instance import Instance, Row
from repro.logic.atoms import BoolVar, boolvar
from repro.logic.syntax import BOTTOM, Formula, conj, disj
from repro.algebra.ast import (
    ConstRel,
    Difference,
    Intersection,
    Product,
    Project,
    Query,
    RelVar,
    Select,
    Union,
)
from repro.algebra.predicates import eval_predicate

# A witness is a set of input tuples; why-provenance is a set of witnesses.
Witness = FrozenSet[Row]
WhyProvenance = FrozenSet[Witness]


def _annotated_eval(
    query: Query, instance: Instance
) -> Dict[Row, Set[Witness]]:
    """Evaluate *query* carrying witness sets per output tuple.

    Implements the classical why-provenance semantics of Buneman,
    Khanna and Tan for the positive operators; difference and
    intersection are rejected (why-provenance is defined for monotone
    queries).
    """
    if isinstance(query, RelVar):
        return {row: {frozenset({row})} for row in instance.rows}
    if isinstance(query, ConstRel):
        return {row: {frozenset()} for row in query.instance.rows}
    if isinstance(query, Project):
        child = _annotated_eval(query.child, instance)
        out: Dict[Row, Set[Witness]] = {}
        for row, witnesses in child.items():
            projected = tuple(row[index] for index in query.columns)
            out.setdefault(projected, set()).update(witnesses)
        return out
    if isinstance(query, Select):
        child = _annotated_eval(query.child, instance)
        return {
            row: set(witnesses)
            for row, witnesses in child.items()
            if eval_predicate(query.predicate, row)
        }
    if isinstance(query, Product):
        left = _annotated_eval(query.left, instance)
        right = _annotated_eval(query.right, instance)
        out = {}
        for left_row, left_witnesses in left.items():
            for right_row, right_witnesses in right.items():
                combined = left_row + right_row
                bucket = out.setdefault(combined, set())
                for lw in left_witnesses:
                    for rw in right_witnesses:
                        bucket.add(lw | rw)
        return out
    if isinstance(query, Union):
        left = _annotated_eval(query.left, instance)
        right = _annotated_eval(query.right, instance)
        out = {row: set(witnesses) for row, witnesses in left.items()}
        for row, witnesses in right.items():
            out.setdefault(row, set()).update(witnesses)
        return out
    if isinstance(query, (Difference, Intersection)):
        raise UnsupportedOperationError(
            "why-provenance is defined for monotone (SPJU) queries; "
            "use ctable lineage for queries with difference"
        )
    raise QueryError(f"unknown query node {query!r}")


def why_provenance(
    query: Query, instance: Instance, row: Row
) -> WhyProvenance:
    """Return the why-provenance of *row* in ``q(instance)``.

    The result is a set of witnesses; empty iff the tuple is not in the
    answer.  The query must reference a single relation name and be
    monotone (SPJU over constants).
    """
    names = query.relation_names()
    if len(names) > 1:
        raise QueryError("why_provenance expects a single input relation")
    annotated = _annotated_eval(query, instance)
    return frozenset(annotated.get(tuple(row), set()))


def minimal_witnesses(provenance: WhyProvenance) -> WhyProvenance:
    """Drop witnesses that strictly contain another witness.

    Buneman et al.'s *minimal* why-provenance; the lineage formula is
    logically unchanged (absorption), so the c-table comparison accepts
    either form.
    """
    witnesses = sorted(provenance, key=len)
    kept: List[Witness] = []
    for witness in witnesses:
        if not any(existing < witness for existing in kept):
            kept.append(witness)
    return frozenset(kept)


def tuple_event(row: Row) -> BoolVar:
    """The canonical event variable asserting input tuple *row* is present."""
    return boolvar(f"t:{row!r}")


def lineage_formula(provenance: WhyProvenance) -> Formula:
    """DNF lineage over tuple events: ∨ over witnesses, ∧ within."""
    if not provenance:
        return BOTTOM
    return disj(
        *(
            conj(*(tuple_event(row) for row in sorted(witness, key=repr)))
            for witness in sorted(provenance, key=repr)
        )
    )


def instance_as_event_ctable(instance: Instance):
    """Tag every tuple of *instance* with its event variable.

    The resulting boolean c-table's Mod is the powerset of the instance
    — the "every subset possible" database whose conditions *are*
    provenance.
    """
    from repro.tables.ctable import BooleanCTable, make_row

    rows = [
        make_row(row, tuple_event(row)) for row in sorted(instance.rows,
                                                          key=repr)
    ]
    return BooleanCTable(rows, arity=instance.arity)


def ctable_lineage(query: Query, instance: Instance, row: Row) -> Formula:
    """The condition of *row* in ``q̄`` over the event-tagged instance."""
    from repro.ctalgebra.translate import apply_query_to_ctable
    from repro.logic.atoms import Const

    table = instance_as_event_ctable(instance)
    answered = apply_query_to_ctable(query, table)
    row = tuple(row)
    branches = [
        crow.condition
        for crow in answered.rows
        if tuple(term.value for term in crow.values) == row
    ]
    return disj(*branches)


def _boolean_equivalent(left: Formula, right: Formula) -> bool:
    # Symbolic propositional equivalence (SAT on the XOR); lineage
    # formulas carry one event variable per input tuple, so the old
    # valuation enumeration was exponential in the instance size.
    from repro.logic.equality_sat import equivalent_conditions

    return equivalent_conditions(left, right)


def ctable_lineage_matches_provenance(
    query: Query, instance: Instance, row: Row
) -> bool:
    """Check §9's claim: q̄'s condition ≡ the why-provenance formula.

    Both formulas range over the tuple-event variables of *instance*;
    equivalence is checked by exhaustive boolean evaluation (the
    instances in play are small).
    """
    provenance = why_provenance(query, instance, row)
    expected = lineage_formula(provenance)
    actual = ctable_lineage(query, instance, row)
    return _boolean_equivalent(expected, actual)
