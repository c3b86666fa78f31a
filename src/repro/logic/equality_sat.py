"""The decision procedure for c-table conditions over an infinite domain.

c-tables in the paper range over a countably infinite domain ``D``, so
every symbolic question about a condition is a question in equality
logic: certain answers are membership conditions that are *valid*,
possible answers are ones that are *satisfiable*, and ``Mod``-equality of
two tables is per-tuple condition *equivalence*.  All of them reduce to
satisfiability, decided here by one loop (:func:`_theory_model`):

1. Tseitin-encode the formula (:func:`repro.logic.cnf.tseitin_clauses`),
   every atom an opaque proposition, and ask the DPLL solver for a
   propositional model.
2. Check the model's equality atoms with a union-find: true equalities
   merge their terms, and a false equality inside one class or two
   distinct constants in one class is a conflict.
3. On a conflict, add a clause negating only its *explanation* — the
   false equality plus the true equalities on the path joining its two
   sides, or the path joining the two constants — and solve again.

Every added clause is valid in equality logic, so no model of the
formula is lost, and each one excludes the current model, so the loop
ends.  A theory-consistent model extends to a valuation over the
infinite domain by giving every congruence class that holds no constant
its own fresh value; ``BoolVar`` atoms are free two-valued propositions.

Equality logic also has a *small-model property*: a formula over
variables ``V`` and constants ``C`` is satisfiable over an infinite
domain iff it is satisfiable over ``C`` plus ``|V|`` fresh values.
:func:`witness_domain` builds that domain and :func:`is_satisfiable_finite`
enumerates it.  That is the paper's definition, kept as the reference
oracle the tests compare the loop against; no production path calls it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.logic.atoms import BoolVar, Const, Eq, Term
from repro.logic.cnf import Clause, tseitin_clauses
from repro.logic.evaluation import partial_evaluate
from repro.logic.models import is_satisfiable_over
from repro.logic.sat import Assignment, Solver
from repro.logic.syntax import TOP, Formula, conj, disj, neg, walk
from repro.obs.metrics import counter
from repro.obs.names import EQUIV_SAT_TOTAL


def constants_of(formula: Formula) -> FrozenSet[Hashable]:
    """Return the set of constant values mentioned by equality atoms."""
    values = set()
    for node in walk(formula):
        if isinstance(node, Eq):
            for term in (node.left, node.right):
                if isinstance(term, Const):
                    values.add(term.value)
    return frozenset(values)


class _FreshValue:
    """A domain value guaranteed distinct from every user constant.

    Instances compare equal only to themselves, so they can never collide
    with paper-level constants such as small integers or strings.
    """

    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"•{self.label}"


def fresh_values(count: int) -> List[_FreshValue]:
    """Return *count* pairwise-distinct fresh domain values."""
    return [_FreshValue(index) for index in range(count)]


def witness_domain(formula: Formula, extra: int = 0) -> List[Hashable]:
    """Return a finite domain sufficient to decide *formula* over infinite D.

    The domain consists of the formula's constants plus one fresh value
    per domain variable, plus *extra* additional fresh values (callers
    comparing several formulas at once pass the combined requirement).
    """
    constants = sorted(constants_of(formula), key=repr)
    variable_count = sum(
        1 for name in formula.variables() if not _is_boolean_name(formula, name)
    )
    fresh = fresh_values(variable_count + extra)
    return list(constants) + list(fresh)


def _is_boolean_name(formula: Formula, name: str) -> bool:
    return any(
        isinstance(node, BoolVar) and node.name == name for node in walk(formula)
    )


def _split_variables(formula: Formula) -> Tuple[List[str], List[str]]:
    """Split the formula's variables into (domain variables, boolean vars)."""
    booleans = {
        node.name for node in walk(formula) if isinstance(node, BoolVar)
    }
    domain_vars = sorted(formula.variables() - booleans)
    return domain_vars, sorted(booleans)


def is_satisfiable_finite(
    formula: Formula, domain: Sequence[Hashable]
) -> bool:
    """Decide satisfiability of *formula* with domain vars ranging over *domain*.

    Enumerates valuations; over :func:`witness_domain` this is the
    reference oracle for :func:`is_satisfiable_infinite`.
    """
    domain_vars, boolean_vars = _split_variables(formula)
    domains: Dict[str, Sequence[Hashable]] = {
        name: list(domain) for name in domain_vars
    }
    domains.update({name: (False, True) for name in boolean_vars})
    if not domains:
        # Ground formula: partial evaluation decides it outright.
        return partial_evaluate(formula, {}) is TOP
    return is_satisfiable_over(formula, domains)


# ----------------------------------------------------------------------
# The SAT + equality-theory loop
# ----------------------------------------------------------------------

def _theory_model(formula: Formula) -> Optional[Dict[Formula, bool]]:
    """Return a theory-consistent truth assignment to *formula*'s atoms.

    The assignment makes *formula* true and its equality atoms are
    realizable over the infinite domain; ``None`` means *formula* is
    unsatisfiable there.  It may be empty when *formula* has no atoms.
    """
    clauses, atom_map, _ = tseitin_clauses(formula)
    atoms = [(atom_map.index_of(atom), atom) for atom in atom_map.atoms()]
    equalities = [(index, atom) for index, atom in atoms if isinstance(atom, Eq)]
    solver = Solver()
    while True:
        model = solver.solve(clauses)
        if model is None:
            return None
        lemmas = _theory_lemmas(model, equalities)
        if not lemmas:
            return {atom: model[index] for index, atom in atoms}
        clauses.extend(lemmas)


def _theory_lemmas(
    model: Assignment, equalities: Sequence[Tuple[int, Eq]]
) -> List[Clause]:
    """Return one clause per equality conflict of *model*.

    Each clause negates the conflict's explanation; an empty list means
    the model's equality atoms are consistent.  Union-find over the true
    equalities is the fast path: explanations are searched for only when
    it finds a conflict.  Excluding every conflict of a model at once,
    rather than the first, halves the re-solves on long equality chains.
    """
    parent: Dict[Term, Term] = {}

    def find(term: Term) -> Term:
        parent.setdefault(term, term)
        while parent[term] != term:
            parent[term] = parent[parent[term]]
            term = parent[term]
        return term

    false_equalities = []
    for index, atom in equalities:
        if model[index]:
            parent[find(atom.left)] = find(atom.right)
        else:
            false_equalities.append((index, atom))
    # (source, target, literals): the true equalities joining source and
    # target, together with *literals*, cannot all hold.
    conflicts: List[Tuple[Term, Term, Tuple[int, ...]]] = [
        (atom.left, atom.right, (index,))
        for index, atom in false_equalities
        if find(atom.left) == find(atom.right)
    ]
    constant_of: Dict[Term, Term] = {}
    for term in parent:
        if isinstance(term, Const):
            other = constant_of.setdefault(find(term), term)
            if other != term:
                conflicts.append((other, term, ()))
    if not conflicts:
        return []
    edges: Dict[Term, List[Tuple[Term, int]]] = {}
    for index, atom in equalities:
        if model[index]:
            edges.setdefault(atom.left, []).append((atom.right, index))
            edges.setdefault(atom.right, []).append((atom.left, index))
    return [
        frozenset({*literals, *_equality_path(edges, source, target)})
        for source, target, literals in conflicts
    ]


def _equality_path(
    edges: Mapping[Term, List[Tuple[Term, int]]], source: Term, target: Term
) -> Set[int]:
    """Negated literals of the true equalities on a shortest source–target path.

    The caller guarantees the path exists: union-find put both terms in
    one class.
    """
    came_from: Dict[Term, Tuple[Term, int]] = {source: (source, 0)}
    queue = deque([source])
    while target not in came_from:
        term = queue.popleft()
        for neighbour, index in edges[term]:
            if neighbour not in came_from:
                came_from[neighbour] = (term, index)
                queue.append(neighbour)
    literals: Set[int] = set()
    while target != source:
        target, index = came_from[target]
        literals.add(-index)
    return literals


# ----------------------------------------------------------------------
# Decision predicates, each one call into the loop
# ----------------------------------------------------------------------

def is_satisfiable_infinite(formula: Formula) -> bool:
    """Decide satisfiability of *formula* over the countably infinite domain."""
    return _theory_model(formula) is not None


def is_valid_infinite(formula: Formula) -> bool:
    """Decide validity (truth under every valuation) over the infinite domain."""
    return _theory_model(neg(formula)) is None


def implies_infinite(antecedent: Formula, consequent: Formula) -> bool:
    """Decide whether *antecedent* entails *consequent* over infinite D."""
    return _theory_model(conj(antecedent, neg(consequent))) is None


def xor_condition(left: Formula, right: Formula) -> Formula:
    """Return the symmetric difference ``(left ∧ ¬right) ∨ (¬left ∧ right)``.

    The smart constructors fold the obvious cases: identical (interned)
    inputs collapse to ``⊥`` without ever reaching a solver.
    """
    return disj(conj(left, neg(right)), conj(neg(left), right))


def distinguishing_assignment(
    left: Formula, right: Formula
) -> Optional[Dict[Formula, bool]]:
    """Return a theory-consistent atom assignment separating the conditions.

    ``None`` means the conditions are equivalent over the infinite
    domain.  Otherwise the mapping assigns truth values to the genuine
    atoms (``Eq`` / ``BoolVar``) of a model of the symmetric difference;
    it may be empty when the difference holds under every valuation, so
    compare against ``None`` rather than truthiness.
    """
    counter(EQUIV_SAT_TOTAL)
    return _theory_model(xor_condition(left, right))


def equivalent_conditions(left: Formula, right: Formula) -> bool:
    """Decide condition equivalence over the countably infinite domain."""
    return distinguishing_assignment(left, right) is None


def decide_condition(
    condition: Formula,
    domains: Optional[Mapping[str, Sequence[Hashable]]],
    *,
    valid: bool = False,
) -> bool:
    """Decide satisfiability (or, with *valid*, validity) over a table's domains.

    *domains* maps each variable to its finite domain; ``None`` means the
    countably infinite domain, decided by :func:`is_satisfiable_infinite`
    and :func:`is_valid_infinite`.  Those two are looked up as module
    attributes at call time, so a tracer that wraps them by name sees
    every certain/possible decision.
    """
    if domains is None:
        if valid:
            return is_valid_infinite(condition)
        return is_satisfiable_infinite(condition)
    relevant = {name: domains[name] for name in condition.variables()}
    if not relevant:
        return partial_evaluate(condition, {}) is TOP
    if valid:
        # Valid over the finite domains iff the negation has no model.
        return not is_satisfiable_over(neg(condition), relevant)
    return is_satisfiable_over(condition, relevant)

