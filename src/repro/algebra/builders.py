"""Convenience constructors for relational-algebra expressions.

These mirror the paper's notation closely enough that Example 4's query

    q(V) := π₁₂₃({1}×{2}×V) ∪ π₁₂₃(σ₂₌₃,₄≠'2'({3}×V)) ∪ π₅₁₂(σ₃≠'1',₃≠₄({4}×{5}×V))

transcribes almost symbol-for-symbol (see ``examples/paper_tour.py``).
Columns here are 0-based; the paper's subscripts are 1-based.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.instance import Instance
from repro.logic.syntax import Formula, conj
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


def rel(name: str, arity: int) -> RelVar:
    """An input relation name of the given arity."""
    return RelVar(name, arity)


def singleton(*values: Hashable) -> ConstRel:
    """The constant relation containing the single tuple *values*.

    ``singleton(1)`` is the paper's ``{1}``; ``singleton(4, 5)`` is
    ``{4} × {5}`` pre-multiplied.
    """
    return ConstRel(Instance([tuple(values)]))


def proj(child: Query, columns: Sequence[int]) -> Project:
    """Projection onto 0-based *columns* (repeats and reorders allowed)."""
    return Project(child, tuple(columns))


def sel(child: Query, *predicates: Formula) -> Select:
    """Selection by the conjunction of *predicates*."""
    return Select(child, conj(*predicates))


def prod(first: Query, *rest: Query) -> Query:
    """Left-nested cross product of one or more expressions."""
    result = first
    for expression in rest:
        result = Product(result, expression)
    return result


def union(first: Query, *rest: Query) -> Query:
    """Left-nested union of one or more same-arity expressions."""
    result = first
    for expression in rest:
        result = Union(result, expression)
    return result


def diff(left: Query, right: Query) -> Difference:
    """Set difference."""
    return Difference(left, right)


def intersect(left: Query, right: Query) -> Intersection:
    """Set intersection."""
    return Intersection(left, right)
