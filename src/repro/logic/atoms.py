"""Atoms for c-table conditions: equality atoms and boolean variables.

Terms are either :class:`Var` (a named variable ranging over the domain
``D``) or :class:`Const` (an element of ``D``).  The single relational
atom is :class:`Eq`; disequalities are expressed as negated equalities via
:func:`ne`, which keeps the atom language minimal while matching the
paper's conditions (for instance Example 2's ``x = y ∧ z ≠ 2``).

Boolean c-tables (Section 3 of the paper) use :class:`BoolVar` atoms:
two-valued variables that may appear only in conditions, never as
attribute values.

A term hashes like its payload (name or value): no term hash builds a
tuple or depends on object identity.  Equality still requires the same
term class, so a constant never equals a variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Union, cast

from repro.errors import ConditionError
from repro.logic.syntax import Formula, Not, hashcons, neg


@dataclass(frozen=True, eq=False)
class Var:
    """A domain variable, identified by name."""

    name: str

    __slots__ = ("name",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Const:
    """A domain constant wrapping any hashable Python value.

    Constants compare by ``==`` on their values and hash like them, so
    ``Const(1)``, ``Const(True)`` and ``Const(1.0)`` are one constant.
    """

    value: Hashable

    __slots__ = ("value",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        value = other.value  # type: ignore[attr-defined]
        return self.value is value or self.value == value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


Term = Union[Var, Const]


def as_term(value: object) -> Term:
    """Coerce *value* into a :class:`Term`.

    Strings are ambiguous (variable name or string constant?), so only
    :class:`Var`/:class:`Const` instances pass through unchanged; anything
    else is wrapped as a constant.  Table builders that accept bare strings
    as variables perform their own coercion before reaching this point.
    """
    if isinstance(value, (Var, Const)):
        return value
    return Const(value)


@dataclass(frozen=True, eq=False)
class Eq(Formula):
    """Equality between two terms.

    Instances are normalized so that the two orders of the same pair of
    terms compare equal: terms are stored sorted by their repr.  Trivial
    equalities between identical terms are *not* folded here (the smart
    constructor :func:`eq` does that) so the raw dataclass stays dumb.
    """

    left: Term
    right: Term

    __slots__ = ("left", "right")

    def _fields(self) -> tuple:
        return (self.left, self.right)

    def _variables(self) -> FrozenSet[str]:
        names = set()
        if isinstance(self.left, Var):
            names.add(self.left.name)
        if isinstance(self.right, Var):
            names.add(self.right.name)
        return frozenset(names)

    def __repr__(self) -> str:
        return f"{self.left!r} = {self.right!r}"


@dataclass(frozen=True, eq=False)
class BoolVar(Formula):
    """A propositional variable used by boolean c-tables."""

    name: str

    __slots__ = ("name",)

    def _fields(self) -> tuple:
        return (self.name,)

    def _variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return self.name


def _ordered(left: Term, right: Term) -> "tuple[Term, Term]":
    return (left, right) if repr(left) <= repr(right) else (right, left)


def eq(left: object, right: object) -> Formula:
    """Build an equality atom between two terms with normalization.

    Identical terms fold to ``true``; distinct constants fold to
    ``false``; otherwise the atom is stored with a canonical term order so
    that ``eq(x, y) == eq(y, x)``.
    """
    left_term, right_term = as_term(left), as_term(right)
    if left_term == right_term:
        from repro.logic.syntax import TOP

        return TOP
    if isinstance(left_term, Const) and isinstance(right_term, Const):
        from repro.logic.syntax import BOTTOM, TOP

        return TOP if left_term.value == right_term.value else BOTTOM
    first, second = _ordered(left_term, right_term)
    return hashcons(Eq, first, second)


def ne(left: object, right: object) -> Formula:
    """Build a disequality, represented as a negated equality atom."""
    return neg(eq(left, right))


def boolvar(name: str) -> BoolVar:
    """Build a boolean variable atom through the interning table.

    Unlike the raw ``BoolVar(name)`` constructor (structural equality
    only), this returns the canonical node even when called from
    concurrent threads — table embeddings use it so conditions built
    during a threaded ``Session.register`` keep the identity invariant.
    """
    return cast(BoolVar, hashcons(BoolVar, name))


def atom_terms(atom: Formula) -> "tuple[Term, ...]":
    """Return the terms of an equality atom; raise for other formulas."""
    if isinstance(atom, Eq):
        return (atom.left, atom.right)
    raise ConditionError(f"not an equality atom: {atom!r}")


def is_boolean_condition(formula: Formula) -> bool:
    """Return True when every atom in *formula* is a :class:`BoolVar`.

    This is the well-formedness requirement for boolean c-table
    conditions.
    """
    from repro.logic.syntax import is_atom, walk

    return all(
        isinstance(node, BoolVar)
        for node in walk(formula)
        if is_atom(node)
    )


def is_equality_condition(formula: Formula) -> bool:
    """Return True when every atom in *formula* is an :class:`Eq` atom."""
    from repro.logic.syntax import is_atom, walk

    return all(isinstance(node, Eq) for node in walk(formula) if is_atom(node))
