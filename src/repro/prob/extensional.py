"""Extensional (safe-plan) query evaluation over independent tuples.

Section 8 closes with the observation that Dalvi–Suciu's [9] result
characterizes the conjunctive queries ``q`` for which, over any
p-?-table ``T``, the answer ``q̄(T)`` collapses back to a p-?-table —
equivalently, for which tuple probabilities can be computed
*extensionally*, by rules local to each operator, without lineage.

This module implements that world:

- :class:`ProbRelation` — a relation whose tuples carry independent
  probabilities (a multi-relation p-?-table environment),
- :class:`ConjunctiveQuery` — boolean conjunctive queries without
  self-joins, as lists of atoms,
- :func:`is_hierarchical` — the safety test: for every pair of
  variables, their atom sets must be nested or disjoint,
- :func:`safe_plan_probability` — the classic safe-plan evaluation:
  independent atoms multiply, a root variable turns into an independent
  project ``1 − ∏(1 − pᵢ)``; raises on unsafe queries,
- :func:`lineage_probability_cq` — the exact (intensional) answer via
  lineage over the tuple events, used to validate the safe plans and to
  expose where the extensional rules go wrong on unsafe queries
  (benchmark E18 shows both).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.errors import ProbabilityError, QueryError, UnsupportedOperationError
from repro.core.instance import Row
from repro.logic.atoms import BoolVar, boolvar
from repro.logic.counting import bernoulli, probability
from repro.logic.syntax import BOTTOM, Formula, conj, disj


class ProbRelation:
    """A named relation with independent per-tuple probabilities."""

    __slots__ = ("_name", "_rows", "_arity")

    def __init__(
        self,
        name: str,
        rows: Mapping[Row, Fraction],
        arity: int = None,
    ) -> None:
        normalized: Dict[Row, Fraction] = {}
        for row, weight in rows.items():
            weight = Fraction(weight)
            if not 0 <= weight <= 1:
                raise ProbabilityError(
                    f"tuple probability {weight} outside [0, 1]"
                )
            if weight > 0:
                normalized[tuple(row)] = weight
        if normalized:
            arities = {len(row) for row in normalized}
            if len(arities) != 1:
                raise QueryError(f"mixed arities in {name!r}")
            inferred = arities.pop()
            if arity is not None and arity != inferred:
                raise QueryError(
                    f"declared arity {arity} does not match {name!r}"
                )
            arity = inferred
        elif arity is None:
            raise QueryError(f"empty relation {name!r} needs an arity")
        self._name = name
        self._rows = normalized
        self._arity = arity

    @property
    def name(self) -> str:
        return self._name

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def rows(self) -> Dict[Row, Fraction]:
        """Return the tuple → probability map (a copy)."""
        return dict(self._rows)

    def probability_of(self, row: Row) -> Fraction:
        """Return the tuple's membership probability (0 if unlisted)."""
        return self._rows.get(tuple(row), Fraction(0))

    def values(self) -> List[Hashable]:
        """Return the active domain (sorted)."""
        return sorted(
            {value for row in self._rows for value in row}, key=repr
        )

    def __repr__(self) -> str:
        return f"ProbRelation({self._name!r}, {self._rows!r})"


@dataclass(frozen=True)
class Atom:
    """One subgoal: a relation name and a tuple of variables/constants.

    Bare strings denote variables (the :func:`atom` convention);
    non-string values are constants.  To use a *string-valued constant*
    in a query, wrap it: ``atom("R", CQConst("ann"))`` — substitution
    produces such wrapped constants internally.
    """

    relation: str
    terms: Tuple

    def variables(self) -> FrozenSet[str]:
        return frozenset(
            term for term in self.terms if isinstance(term, str)
        )

    def ground_row(self) -> Tuple:
        """Return the concrete tuple of a variable-free atom."""
        return tuple(
            term.value if isinstance(term, CQConst) else term
            for term in self.terms
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(term) for term in self.terms)
        return f"{self.relation}({inner})"


@dataclass(frozen=True)
class CQConst:
    """A constant value shielded from the strings-are-variables rule."""

    value: Hashable

    def __repr__(self) -> str:
        return repr(self.value)


def atom(relation: str, *terms) -> Atom:
    """Build a subgoal; string terms are variables, others constants."""
    return Atom(relation, tuple(terms))


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A boolean conjunctive query: a conjunction of subgoals.

    Self-joins (two atoms over the same relation name) are outside the
    scope of the hierarchical safety theorem and rejected by
    :func:`safe_plan_probability`.
    """

    atoms: Tuple[Atom, ...]

    def variables(self) -> FrozenSet[str]:
        names: set = set()
        for subgoal in self.atoms:
            names |= subgoal.variables()
        return frozenset(names)

    def has_self_join(self) -> bool:
        relations = [subgoal.relation for subgoal in self.atoms]
        return len(relations) != len(set(relations))

    def __repr__(self) -> str:
        return " ∧ ".join(repr(subgoal) for subgoal in self.atoms)


def cq(*atoms_: Atom) -> ConjunctiveQuery:
    """Convenience constructor for a conjunctive query."""
    return ConjunctiveQuery(tuple(atoms_))


def is_hierarchical(query: ConjunctiveQuery) -> bool:
    """The Dalvi–Suciu safety test for self-join-free boolean CQs.

    For variables ``x``, let ``at(x)`` be the set of atoms containing
    ``x``; the query is hierarchical iff for every two variables the
    sets ``at(x)``, ``at(y)`` are disjoint or one contains the other.
    Hierarchical ⇔ the query admits a safe (extensional) plan.
    """
    at: Dict[str, set] = {}
    for index, subgoal in enumerate(query.atoms):
        for name in subgoal.variables():
            at.setdefault(name, set()).add(index)
    names = sorted(at)
    for first, second in itertools.combinations(names, 2):
        a, b = at[first], at[second]
        if a & b and not (a <= b or b <= a):
            return False
    return True


def _active_domain(
    query: ConjunctiveQuery, relations: Mapping[str, ProbRelation]
) -> List[Hashable]:
    values: set = set()
    for subgoal in query.atoms:
        relation = relations.get(subgoal.relation)
        if relation is None:
            raise QueryError(f"no relation named {subgoal.relation!r}")
        values.update(relation.values())
    return sorted(values, key=repr)


def _substitute(query: ConjunctiveQuery, name: str, value) -> ConjunctiveQuery:
    # Wrap the substituted value: domain values may be strings, which
    # would otherwise read back as variables.
    replacement = CQConst(value)
    atoms_ = tuple(
        Atom(
            subgoal.relation,
            tuple(
                replacement if term == name else term
                for term in subgoal.terms
            ),
        )
        for subgoal in query.atoms
    )
    return ConjunctiveQuery(atoms_)


def _connected_components(
    query: ConjunctiveQuery,
) -> List[ConjunctiveQuery]:
    """Split atoms into components connected by shared variables."""
    remaining = list(query.atoms)
    components: List[ConjunctiveQuery] = []
    while remaining:
        seed = remaining.pop()
        component = [seed]
        variables = set(seed.variables())
        changed = True
        while changed:
            changed = False
            for subgoal in list(remaining):
                if subgoal.variables() & variables:
                    remaining.remove(subgoal)
                    component.append(subgoal)
                    variables |= subgoal.variables()
                    changed = True
        components.append(ConjunctiveQuery(tuple(component)))
    return components


def safe_plan_probability(
    query: ConjunctiveQuery, relations: Mapping[str, ProbRelation]
) -> Fraction:
    """Evaluate a boolean CQ extensionally; raise if no safe plan exists.

    The recursion of [9]:

    1. ground atoms are independent events: multiply (dedup within a
       relation is unnecessary — self-joins are rejected up front);
    2. independent connected components multiply;
    3. a *root variable* (one occurring in every atom of a connected
       component) becomes an independent project:
       ``1 − ∏_{a ∈ adom} (1 − P(q[x → a]))``;
    4. anything else is unsafe —
       :class:`~repro.errors.UnsupportedOperationError`.
    """
    if query.has_self_join():
        raise UnsupportedOperationError(
            "safe plans cover self-join-free queries only"
        )

    def recurse(sub: ConjunctiveQuery) -> Fraction:
        if not sub.variables():
            result = Fraction(1)
            for subgoal in sub.atoms:
                relation = relations.get(subgoal.relation)
                if relation is None:
                    raise QueryError(
                        f"no relation named {subgoal.relation!r}"
                    )
                result *= relation.probability_of(subgoal.ground_row())
            return result
        components = _connected_components(sub)
        if len(components) > 1:
            result = Fraction(1)
            for component in components:
                result *= recurse(component)
            return result
        # One connected component with variables: find a root variable.
        variables = sorted(sub.variables())
        root = None
        for name in variables:
            if all(name in subgoal.variables() for subgoal in sub.atoms):
                root = name
                break
        if root is None:
            raise UnsupportedOperationError(
                f"query {sub!r} is not hierarchical: no safe plan exists"
            )
        result = Fraction(1)
        for value in _active_domain(sub, relations):
            result *= 1 - recurse(_substitute(sub, root, value))
        return 1 - result

    return recurse(query)


# ----------------------------------------------------------------------
# Exact (intensional) evaluation for validation
# ----------------------------------------------------------------------

def _tuple_event(relation: str, row: Row) -> BoolVar:
    return boolvar(f"{relation}:{row!r}")


def cq_lineage(
    query: ConjunctiveQuery, relations: Mapping[str, ProbRelation]
) -> Formula:
    """The boolean lineage of a boolean CQ over tuple events."""
    variables = sorted(query.variables())
    domain = _active_domain(query, relations)
    disjuncts: List[Formula] = []
    for combo in itertools.product(domain, repeat=len(variables)):  # enumeration-ok: grounding over the active domain (query variables, not pc-table variables) — the lineage itself is counted symbolically
        valuation = dict(zip(variables, combo))
        conjuncts: List[Formula] = []
        feasible = True
        for subgoal in query.atoms:
            row = tuple(
                valuation.get(term, term)
                if isinstance(term, str)
                else (term.value if isinstance(term, CQConst) else term)
                for term in subgoal.terms
            )
            relation = relations[subgoal.relation]
            if relation.probability_of(row) == 0:
                feasible = False
                break
            conjuncts.append(_tuple_event(subgoal.relation, row))
        if feasible:
            disjuncts.append(conj(*conjuncts))
    return disj(*disjuncts) if disjuncts else BOTTOM


def lineage_probability_cq(
    query: ConjunctiveQuery, relations: Mapping[str, ProbRelation]
) -> Fraction:
    """Exact probability of a boolean CQ via its lineage.

    Works for *every* CQ, safe or not — the ground truth the safe plans
    are compared against.  The lineage is compiled to d-DNNF and
    weighted-model-counted, so unsafe queries over large tables stay
    evaluable.
    """
    lineage = cq_lineage(query, relations)
    distributions = {}
    for relation in relations.values():
        for row, weight in relation.rows.items():
            distributions[_tuple_event(relation.name, row).name] = bernoulli(
                weight
            )
    needed = lineage.variables()
    return probability(
        lineage,
        {name: dist for name, dist in distributions.items() if name in needed},
    )
