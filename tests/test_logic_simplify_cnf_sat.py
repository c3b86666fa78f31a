"""Unit tests for NNF/simplification, CNF conversion, and the SAT solver."""

import itertools

import pytest

from repro.logic.atoms import BoolVar, Var, eq, ne
from repro.logic.cnf import AtomMap, to_cnf_clauses, tseitin_clauses
from repro.logic.evaluation import evaluate
from repro.logic.sat import is_satisfiable_clauses, solve_clauses
from repro.logic.simplify import formula_size, nnf, simplify
from repro.logic.syntax import BOTTOM, TOP, And, Not, Or, conj, disj, neg


A, B, C = BoolVar("a"), BoolVar("b"), BoolVar("c")


class TestNnf:
    def test_pushes_negation_through_and(self):
        formula = neg(conj(A, B))
        result = nnf(formula)
        assert result == disj(neg(A), neg(B))

    def test_pushes_negation_through_or(self):
        formula = neg(disj(A, B))
        assert nnf(formula) == conj(neg(A), neg(B))

    def test_idempotent(self):
        formula = neg(conj(A, disj(B, neg(C))))
        assert nnf(nnf(formula)) == nnf(formula)

    def test_preserves_truth_value(self):
        formula = neg(conj(A, disj(neg(B), C)))
        normal = nnf(formula)
        for values in itertools.product((False, True), repeat=3):
            valuation = dict(zip("abc", values))
            assert evaluate(formula, valuation) == evaluate(normal, valuation)


class TestSimplify:
    def test_absorption_and(self):
        formula = conj(A, disj(A, B))
        assert simplify(formula) == A

    def test_absorption_or(self):
        formula = disj(A, conj(A, B))
        assert simplify(formula) == A

    def test_never_grows(self):
        formula = conj(A, disj(A, B), disj(B, neg(C)))
        assert formula_size(simplify(formula)) <= formula_size(formula)

    def test_preserves_truth_value(self):
        formula = disj(conj(A, B), conj(A, B, C), neg(conj(A, A)))
        reduced = simplify(formula)
        for values in itertools.product((False, True), repeat=3):
            valuation = dict(zip("abc", values))
            assert evaluate(formula, valuation) == evaluate(reduced, valuation)

    def test_formula_size_counts_nodes(self):
        assert formula_size(A) == 1
        assert formula_size(conj(A, B)) == 3
        assert formula_size(neg(A)) == 2


class TestCnf:
    def test_true_gives_no_clauses(self):
        clauses, _ = to_cnf_clauses(TOP)
        assert clauses == []

    def test_false_gives_empty_clause(self):
        clauses, _ = to_cnf_clauses(BOTTOM)
        assert clauses == [frozenset()]

    def test_atom_single_unit(self):
        clauses, atom_map = to_cnf_clauses(A)
        assert clauses == [frozenset({atom_map.index_of(A)})]

    def test_distribution(self):
        clauses, atom_map = to_cnf_clauses(disj(conj(A, B), C))
        a, b, c = (atom_map.index_of(atom) for atom in (A, B, C))
        assert frozenset({a, c}) in clauses
        assert frozenset({b, c}) in clauses

    def test_cnf_equisatisfiable_with_formula(self):
        formula = disj(conj(A, neg(B)), conj(neg(A), C))
        clauses, atom_map = to_cnf_clauses(formula)
        model = solve_clauses(clauses)
        assert model is not None
        valuation = {
            atom_map.atom_of(index).name: value
            for index, value in model.items()
        }
        assert evaluate(formula, valuation)

    def test_tseitin_preserves_satisfiability(self):
        satisfiable = disj(conj(A, B), neg(A))
        unsatisfiable = conj(A, neg(A), B)
        clauses_sat, _, _ = tseitin_clauses(satisfiable)
        # conj folds the contradiction; build it clause-wise instead.
        clauses_unsat, amap, root = tseitin_clauses(conj(A, B))
        clauses_unsat = clauses_unsat + [frozenset({-amap.index_of(A)})]
        assert is_satisfiable_clauses(clauses_sat)
        assert not is_satisfiable_clauses(clauses_unsat)


class TestSolver:
    def test_empty_clause_set_satisfiable(self):
        assert solve_clauses([]) == {}

    def test_unit_propagation_chain(self):
        clauses = [frozenset({1}), frozenset({-1, 2}), frozenset({-2, 3})]
        model = solve_clauses(clauses)
        assert model == {1: True, 2: True, 3: True}

    def test_unsatisfiable_pair(self):
        assert solve_clauses([frozenset({1}), frozenset({-1})]) is None

    def test_model_satisfies_all_clauses(self):
        clauses = [
            frozenset({1, 2}),
            frozenset({-1, 3}),
            frozenset({-2, -3}),
            frozenset({2, 3}),
        ]
        model = solve_clauses(clauses)
        assert model is not None
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


class TestAtomMap:
    def test_indexes_stable(self):
        atom_map = AtomMap()
        first = atom_map.index_of(A)
        second = atom_map.index_of(A)
        assert first == second

    def test_distinct_atoms_distinct_indexes(self):
        atom_map = AtomMap()
        assert atom_map.index_of(A) != atom_map.index_of(B)

    def test_roundtrip(self):
        atom_map = AtomMap()
        index = atom_map.index_of(eq(Var("x"), 1))
        assert atom_map.atom_of(index) == eq(Var("x"), 1)
