"""Immutable, hash-consed formula ASTs for c-table conditions.

The grammar is the classical propositional one, over an open-ended set of
atoms (equality atoms and boolean variables live in
:mod:`repro.logic.atoms`)::

    phi ::= true | false | atom | NOT phi | AND(phi...) | OR(phi...)

Formulas are immutable, hashable values.  The smart constructors
:func:`conj`, :func:`disj` and :func:`neg` perform the cheap, always-safe
normalizations (flattening nested connectives, folding ``true``/``false``,
deduplicating children, and double-negation elimination) so that formulas
built by the c-table algebra stay small without a separate rewrite pass.

Interning (hash-consing)
------------------------

Every operator of the lifted c-table algebra composes conditions, so the
same sub-formulas are rebuilt over and over along a query plan.  The
smart constructors therefore *intern* the nodes they produce in a global
weak table: building the same connective over the same children twice
returns the **same object**.  The invariants are:

- **identity implies structural equality** — and for nodes built through
  the smart constructors, structural equality implies identity too, so
  ``a == b`` short-circuits to a pointer comparison on the hot path;
- **hashes are computed once per node** and cached, so hashing a deep
  formula built bottom-up is O(1) amortized per construction;
- **analyses are cached per node**: :meth:`Formula.atoms`,
  :meth:`Formula.variables` and the sorted-variable tuple used by the
  evaluation cache are computed once and reused by every table, operator,
  and world enumeration that touches the node;
- the raw dataclass constructors (``Not(x)``, ``And((a, b))``, …) remain
  usable and produce nodes that compare *structurally* equal to interned
  ones — interning is a transparent optimization, never a semantic
  requirement.

Deliberately *not* done here: anything requiring satisfiability reasoning.
That lives in :mod:`repro.logic.simplify` and
:mod:`repro.logic.equality_sat`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Tuple

#: Structural key ``(class, fields)`` -> live node.  Values are weakly
#: referenced so a long-running process does not accumulate every formula
#: it ever built; keys hold the children, which are themselves alive
#: while any parent is.
_INTERN_TABLE: "weakref.WeakValueDictionary" = (  # guarded-by: _INTERN_LOCK [writes]
    weakref.WeakValueDictionary()
)

#: Serializes the construct-and-insert miss path of :func:`hashcons`.
#: Sessions are usable from threads, so two threads racing to build the
#: same formula could otherwise both miss the table and each return a
#: *different* object for one structural formula — breaking the
#: "structural equality implies identity" invariant every ``is``-based
#: memo relies on.  Hits stay lock-free: once a canonical node is in the
#: table it is never replaced while referenced, so a stale read can only
#: return the canonical object.
#:
#: Scope: the guarantee covers nodes built through :func:`hashcons` (the
#: smart constructors, :func:`repro.logic.atoms.eq`/``boolvar``, …).
#: Raw dataclass construction (``BoolVar("b0")``, ``And((a, b))``)
#: bypasses the lock and keeps its documented weaker contract —
#: structural equality, identity best-effort — so threaded code that
#: needs identity must build through the smart constructors.
_INTERN_LOCK = threading.Lock()


class _Counters:
    """Hit/miss tallies owned by exactly one thread (no shared writes)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


_COUNTERS_LOCK = threading.Lock()

#: Every thread's private counter object, for aggregation.  The interning
#: hot path increments only its own thread's object, so the counters stay
#: exact without taking a lock per formula construction (module-global
#: ints would lose increments when sessions intern from several threads).
#: Entries of finished threads are kept: their tallies remain part of the
#: process totals.
_ALL_COUNTERS: list = []  # guarded-by: _COUNTERS_LOCK


class _LocalCounters(threading.local):
    """Thread-local handle; registers each thread's counters globally."""

    def __init__(self) -> None:
        self.counters = _Counters()
        with _COUNTERS_LOCK:
            _ALL_COUNTERS.append(self.counters)


_LOCAL = _LocalCounters()


class Formula:
    """Base class of all condition formulas.

    Subclasses are frozen dataclasses (with ``eq=False``: equality and
    hashing are implemented here, with an identity fast path and a cached
    hash).  Two syntactically identical conditions compare equal and are
    a single dictionary key; conditions built via the smart constructors
    are additionally a single *object*.  Python operators are overloaded
    for readability: ``a & b``, ``a | b`` and ``~a`` build conjunction,
    disjunction and negation through the smart constructors.
    """

    __slots__ = (
        "_hash",
        "_atoms",
        "_vars",
        "_svars",
        "_ememo",
        "_pmemo",
        "__weakref__",
    )

    def __new__(cls, *fields: object, **kwfields: object) -> "Formula":
        # Hash-consing: positional construction of an already-known node
        # returns the canonical instance (its fields are then re-assigned
        # to equal values by the dataclass __init__, which is harmless).
        counters = _LOCAL.counters
        if not kwfields:
            node = _INTERN_TABLE.get((cls, fields))
            if node is not None:
                counters.hits += 1
                return node
        counters.misses += 1
        return object.__new__(cls)

    def __post_init__(self) -> None:
        # unguarded-ok: raw constructors keep the weaker best-effort
        # identity contract; setdefault is atomic, so the canonical node
        # is never displaced — a racing raw build just isn't it.
        _INTERN_TABLE.setdefault((self.__class__, self._fields()), self)

    def _fields(self) -> tuple:
        """Return the structural fields, matching the constructor args."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.__class__, self._fields()))
            object.__setattr__(self, "_hash", value)  # row-attr-ok: a formula's own hash
            return value

    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)

    def atoms(self) -> FrozenSet["Formula"]:
        """Return the set of atoms occurring in this formula (cached)."""
        try:
            return self._atoms
        except AttributeError:
            pass
        if isinstance(self, (Top, Bottom)):
            result: FrozenSet[Formula] = frozenset()
        elif isinstance(self, Not):
            result = self.child.atoms()
        elif isinstance(self, (And, Or)):
            result = frozenset().union(*(c.atoms() for c in self.children))
        else:
            result = frozenset({self})
        object.__setattr__(self, "_atoms", result)
        return result

    def variables(self) -> FrozenSet[str]:
        """Return the names of all variables in this formula (cached)."""
        try:
            return self._vars
        except AttributeError:
            pass
        if isinstance(self, (Top, Bottom)):
            result: FrozenSet[str] = frozenset()
        elif isinstance(self, Not):
            result = self.child.variables()
        elif isinstance(self, (And, Or)):
            result = frozenset().union(
                *(c.variables() for c in self.children)
            )
        else:
            collect = getattr(self, "_variables", None)
            result = collect() if collect is not None else frozenset()
        object.__setattr__(self, "_vars", result)
        return result

    def sorted_variables(self) -> Tuple[str, ...]:
        """Return the variable names sorted, cached per node.

        The evaluation cache keys on the values a valuation assigns to
        exactly these names, in exactly this order.
        """
        try:
            return self._svars
        except AttributeError:
            result = tuple(sorted(self.variables()))
            object.__setattr__(self, "_svars", result)
            return result


@dataclass(frozen=True, eq=False)
class Top(Formula):
    """The always-true condition (the paper's unconditioned tuples)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True, eq=False)
class Bottom(Formula):
    """The always-false condition (tuples that never appear)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "false"


TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True, eq=False)
class Not(Formula):
    """Negation of a sub-formula."""

    child: Formula

    __slots__ = ("child",)

    def _fields(self) -> tuple:
        return (self.child,)

    def __repr__(self) -> str:
        return f"~{self.child!r}" if is_atom(self.child) else f"~({self.child!r})"


@dataclass(frozen=True, eq=False)
class And(Formula):
    """Conjunction over a non-empty tuple of children.

    Construct through :func:`conj`; the raw constructor performs no
    normalization and is reserved for internal use.
    """

    children: Tuple[Formula, ...]

    __slots__ = ("children",)

    def _fields(self) -> tuple:
        return (self.children,)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(c) for c in self.children) + ")"


@dataclass(frozen=True, eq=False)
class Or(Formula):
    """Disjunction over a non-empty tuple of children.

    Construct through :func:`disj`.
    """

    children: Tuple[Formula, ...]

    __slots__ = ("children",)

    def _fields(self) -> tuple:
        return (self.children,)

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(c) for c in self.children) + ")"


def hashcons(cls: type, *fields: object) -> Formula:
    """Return the canonical node ``cls(*fields)``, creating it if needed.

    Plain positional construction is equivalent (``Formula.__new__``
    consults the intern table itself), but this entry point returns a hit
    without re-entering the dataclass ``__init__``, so the smart
    constructors pay only a dictionary probe on the hot path.

    The miss path re-checks under :data:`_INTERN_LOCK` before
    constructing, so concurrent builders of one structural formula all
    receive the same canonical object (sessions used from several
    threads compose conditions concurrently).
    """
    counters = _LOCAL.counters
    node = _INTERN_TABLE.get((cls, fields))
    if node is not None:
        counters.hits += 1
        return node
    with _INTERN_LOCK:
        node = _INTERN_TABLE.get((cls, fields))
        if node is not None:
            counters.hits += 1
            return node
        return cls(*fields)


def interning_stats() -> dict:
    """Return live-size and hit/miss counters of the intern table.

    Hits/misses are summed over every thread's private counters, so the
    totals are exact even when several threads intern concurrently.
    """
    with _COUNTERS_LOCK:
        hits = sum(counters.hits for counters in _ALL_COUNTERS)
        misses = sum(counters.misses for counters in _ALL_COUNTERS)
    return {
        "live_nodes": len(_INTERN_TABLE),
        "hits": hits,
        "misses": misses,
    }


def is_interned(formula: Formula) -> bool:
    """True when *formula* is the canonical node for its structure.

    Nodes built through the smart constructors (or positional raw
    construction) are canonical; a node can fail this check only when it
    was built around the intern table — e.g. keyword-argument dataclass
    construction racing an existing canonical node.  The plan verifier
    uses this to certify the "structural equality ⇒ identity" invariant
    the ``is``-keyed memos depend on.
    """
    return _INTERN_TABLE.get((formula.__class__, formula._fields())) is formula


def is_atom(formula: Formula) -> bool:
    """Return True when *formula* is an atom (not a connective/constant)."""
    return not isinstance(formula, (Top, Bottom, Not, And, Or))


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield every sub-formula of *formula*, including itself (pre-order).

    Children are visited left to right, so the order matches the formula
    as written (and as rendered by ``repr``).
    """
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(reversed(node.children))


def _flatten(kind: type, formulas: Iterable[Formula]) -> Iterator[Formula]:
    for formula in formulas:
        if isinstance(formula, kind):
            yield from formula.children
        else:
            yield formula


def _complemented(seen: list, seen_set: set) -> bool:
    """True when *seen* contains some phi together with ~phi.

    Every complemented pair contains a ``Not`` whose child is also a
    sibling, so one set intersection finds all of them without allocating
    a negation per child.
    """
    negated = {f.child for f in seen if isinstance(f, Not)}
    return bool(negated) and not negated.isdisjoint(seen_set)


def conj(*formulas: Formula) -> Formula:
    """Build the conjunction of *formulas* with light normalization.

    Flattens nested conjunctions, drops ``true``, short-circuits on
    ``false``, deduplicates syntactically equal children, and detects the
    shallow contradiction ``phi & ~phi``.  An empty conjunction is ``true``.
    """
    seen: list = []
    seen_set: set = set()
    for formula in _flatten(And, formulas):
        if isinstance(formula, Bottom):
            return BOTTOM
        if isinstance(formula, Top) or formula in seen_set:
            continue
        seen.append(formula)
        seen_set.add(formula)
    if _complemented(seen, seen_set):
        return BOTTOM
    if not seen:
        return TOP
    if len(seen) == 1:
        return seen[0]
    return hashcons(And, tuple(seen))


def disj(*formulas: Formula) -> Formula:
    """Build the disjunction of *formulas* with light normalization.

    Dual of :func:`conj`; an empty disjunction is ``false``.
    """
    seen: list = []
    seen_set: set = set()
    for formula in _flatten(Or, formulas):
        if isinstance(formula, Top):
            return TOP
        if isinstance(formula, Bottom) or formula in seen_set:
            continue
        seen.append(formula)
        seen_set.add(formula)
    if _complemented(seen, seen_set):
        return TOP
    if not seen:
        return BOTTOM
    if len(seen) == 1:
        return seen[0]
    return hashcons(Or, tuple(seen))


def neg(formula: Formula) -> Formula:
    """Negate *formula*, eliminating double negation and constants."""
    if isinstance(formula, Top):
        return BOTTOM
    if isinstance(formula, Bottom):
        return TOP
    if isinstance(formula, Not):
        return formula.child
    return hashcons(Not, formula)
