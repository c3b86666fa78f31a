"""A DPLL SAT solver over integer-literal clauses.

The solver implements the classic Davis–Putnam–Logemann–Loveland
procedure with unit propagation, pure-literal elimination, and a
most-frequent-variable branching heuristic.  It is deliberately simple
and dependency-free: conditions in this library rarely exceed a few
hundred atoms.  :mod:`repro.logic.equality_sat` runs it inside its
equality-theory loop, which treats every equality atom as an opaque
proposition and adds a clause per theory conflict.

The clause format matches :mod:`repro.logic.cnf`: a clause is a frozenset
of non-zero integers, where ``-v`` is the negation of variable ``v``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.obs.metrics import counter
from repro.obs.names import DPLL_RECURSIONS_TOTAL, SAT_SOLVE_TOTAL

Clause = FrozenSet[int]
Assignment = Dict[int, bool]


class Solver:
    """A reusable DPLL solver instance.

    The class is stateless between calls; it exists so callers can hold a
    configured solver (e.g. with a custom branching heuristic) and to make
    room for future incremental interfaces.
    """

    def solve(self, clauses: Iterable[Clause]) -> Optional[Assignment]:
        """Return a satisfying assignment, or None when unsatisfiable.

        The returned assignment covers every variable occurring in the
        clauses (unconstrained variables default to False).
        """
        counter(SAT_SOLVE_TOTAL)
        clause_list = [frozenset(clause) for clause in clauses]
        variables = {abs(lit) for clause in clause_list for lit in clause}
        assignment = _dpll(clause_list, {})
        if assignment is None:
            return None
        for variable in variables:
            assignment.setdefault(variable, False)
        return assignment


def _unit_propagate(
    clauses: List[Clause], assignment: Assignment
) -> Optional[List[Clause]]:
    """Apply an assignment and propagate unit clauses; None on conflict."""
    changed = True
    current = clauses
    while changed:
        changed = False
        next_clauses: List[Clause] = []
        for clause in current:
            resolved = False
            remaining: List[int] = []
            for literal in clause:
                variable, wanted = abs(literal), literal > 0
                if variable in assignment:
                    if assignment[variable] == wanted:
                        resolved = True
                        break
                else:
                    remaining.append(literal)
            if resolved:
                continue
            if not remaining:
                return None
            if len(remaining) == 1:
                literal = remaining[0]
                assignment[abs(literal)] = literal > 0
                changed = True
            else:
                next_clauses.append(frozenset(remaining))
        current = next_clauses
    return current


def _pure_literals(clauses: List[Clause]) -> Dict[int, bool]:
    polarity: Dict[int, set] = {}
    for clause in clauses:
        for literal in clause:
            polarity.setdefault(abs(literal), set()).add(literal > 0)
    return {
        variable: signs.pop()
        for variable, signs in polarity.items()
        if len(signs) == 1
    }


def _choose_variable(clauses: List[Clause]) -> int:
    counts = Counter(abs(literal) for clause in clauses for literal in clause)
    return counts.most_common(1)[0][0]


def _dpll(clauses: List[Clause], assignment: Assignment) -> Optional[Assignment]:
    counter(DPLL_RECURSIONS_TOTAL)
    assignment = dict(assignment)
    simplified = _unit_propagate(list(clauses), assignment)
    if simplified is None:
        return None
    pure = _pure_literals(simplified)
    if pure:
        assignment.update(pure)
        simplified = [
            clause
            for clause in simplified
            if not any(
                abs(literal) in pure and pure[abs(literal)] == (literal > 0)
                for literal in clause
            )
        ]
    if not simplified:
        return assignment
    variable = _choose_variable(simplified)
    for choice in (True, False):
        attempt = dict(assignment)
        attempt[variable] = choice
        result = _dpll(simplified, attempt)
        if result is not None:
            return result
    return None


def solve_clauses(clauses: Iterable[Clause]) -> Optional[Assignment]:
    """Module-level convenience wrapper around :meth:`Solver.solve`."""
    return Solver().solve(clauses)


def is_satisfiable_clauses(clauses: Iterable[Clause]) -> bool:
    """Return True when the clause set has at least one model."""
    return solve_clauses(clauses) is not None
