"""Tests for the interned-formula condition engine.

Covers the hash-consing invariants (identity ⇔ structural equality for
constructor-built nodes), the cached per-node analyses, the memoized
evaluation layer, and the equijoin fast paths — all of which must be
transparent: same results as the seed implementation, only faster.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.instance import Instance
from repro.logic.atoms import BoolVar, Const, Eq, Var, eq, ne
from repro.logic.evaluation import (
    clear_evaluation_caches,
    evaluate,
    evaluation_cache_stats,
    partial_evaluate,
    set_evaluation_cache,
)
from repro.logic.simplify import nnf, simplify
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Not,
    Or,
    Top,
    conj,
    disj,
    interning_stats,
    neg,
)
from repro.algebra import (
    col_eq,
    col_eq_const,
    col_ne,
    diff,
    evaluate_query,
    prod,
    proj,
    rel,
    sel,
)
from repro.algebra.predicates import split_equijoin
from repro.ctalgebra.lifted import join_bar, product_bar, select_bar
from repro.ctalgebra.translate import apply_query_to_ctable
from repro.tables.ctable import CTable


A, B, C = BoolVar("a"), BoolVar("b"), BoolVar("c")
X, Y = Var("x"), Var("y")


class TestHashConsing:
    def test_equal_construction_returns_same_object(self):
        assert conj(A, B) is conj(A, B)
        assert disj(A, B, C) is disj(A, B, C)
        assert neg(A) is neg(A)

    def test_raw_constructors_intern_too(self):
        assert Not(A) is neg(A)
        assert And((A, B)) is conj(A, B)
        assert Or((A, B)) is disj(A, B)
        assert Top() is TOP
        assert Bottom() is BOTTOM

    def test_atoms_intern(self):
        assert BoolVar("a") is A
        assert eq(X, Y) is eq(Y, X)
        assert eq(X, 1) is eq(Const(1), X)

    def test_double_negation_returns_original_object(self):
        formula = conj(A, B)
        assert neg(neg(formula)) is formula

    def test_identity_implies_structural_equality(self):
        first = conj(A, disj(B, neg(C)))
        second = conj(A, disj(B, neg(C)))
        assert first is second
        assert first == second
        assert hash(first) == hash(second)

    def test_different_formulas_not_identical(self):
        assert conj(A, B) is not conj(B, A)
        assert conj(A, B) != disj(A, B)

    def test_shared_subformula_is_found_not_rebuilt(self):
        shared = conj(A, disj(B, neg(C)))
        rows = [conj(BoolVar(f"r{i}"), shared) for i in range(20)]
        before = interning_stats()
        again = [conj(BoolVar(f"r{i}"), shared) for i in range(20)]
        after = interning_stats()
        assert all(first is second for first, second in zip(rows, again))
        # Every node of the rebuild (20 atoms, 20 conjunctions) is a hit.
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] >= 40

    def test_interning_is_weak(self):
        import gc

        before = interning_stats()["live_nodes"]
        bulk = [
            conj(BoolVar(f"w{i}"), BoolVar(f"w{i+1}")) for i in range(50)
        ]
        during = interning_stats()["live_nodes"]
        assert during > before
        del bulk
        gc.collect()
        assert interning_stats()["live_nodes"] < during


class TestCachedAnalyses:
    def test_atoms_cached_and_correct(self):
        formula = conj(A, disj(B, neg(C)), eq(X, Y))
        expected = frozenset({A, B, C, eq(X, Y)})
        assert formula.atoms() == expected
        assert formula.atoms() is formula.atoms()

    def test_variables_cached_and_correct(self):
        formula = conj(eq(X, Y), A, neg(disj(B, eq(X, 3))))
        assert formula.variables() == frozenset({"x", "y", "a", "b"})
        assert formula.variables() is formula.variables()

    def test_sorted_variables(self):
        formula = conj(eq(Y, 1), eq(X, 2), A)
        assert formula.sorted_variables() == ("a", "x", "y")


class TestDeepContradiction:
    """Regression: φ ∧ ¬φ must be found without per-child allocations."""

    def test_contradiction_deep_in_flattened_children(self):
        fillers = [BoolVar(f"f{i}") for i in range(60)]
        nested = conj(*fillers[:30], conj(A, conj(*fillers[30:])))
        assert conj(nested, neg(A)) is BOTTOM

    def test_tautology_deep_in_flattened_children(self):
        fillers = [BoolVar(f"f{i}") for i in range(60)]
        nested = disj(*fillers, A)
        assert disj(neg(A), nested) is TOP

    def test_complement_pair_among_many_children(self):
        children = [BoolVar(f"g{i}") for i in range(200)]
        children.insert(77, neg(BoolVar("g150")))
        assert conj(*children) is BOTTOM

    def test_no_false_positive_without_complement(self):
        children = [BoolVar(f"h{i}") for i in range(50)] + [
            neg(BoolVar("other"))
        ]
        result = conj(*children)
        assert result is not BOTTOM
        assert len(result.children) == 51


class TestEvaluationMemo:
    def setup_method(self):
        clear_evaluation_caches()

    def _random_formula(self, rng, depth=4):
        atoms = [A, B, eq(X, Y), eq(X, 1), ne(Y, 2)]
        if depth == 0:
            return rng.choice(atoms)
        kind = rng.randrange(3)
        if kind == 0:
            return neg(self._random_formula(rng, depth - 1))
        parts = [
            self._random_formula(rng, depth - 1)
            for _ in range(rng.randint(2, 3))
        ]
        return conj(*parts) if kind == 1 else disj(*parts)

    def test_memoized_matches_uncached(self):
        rng = random.Random(7)
        formulas = [self._random_formula(rng) for _ in range(25)]
        valuations = [
            {"a": av, "b": bv, "x": xv, "y": yv}
            for av in (True, False)
            for bv in (True, False)
            for xv in (1, 2)
            for yv in (1, 2)
        ]
        for formula in formulas:
            for valuation in valuations:
                set_evaluation_cache(False)
                plain = evaluate(formula, valuation)
                set_evaluation_cache(True)
                cached_cold = evaluate(formula, valuation)
                cached_warm = evaluate(formula, valuation)
                assert plain == cached_cold == cached_warm

    def test_partial_evaluate_memoized_matches_uncached(self):
        rng = random.Random(11)
        formulas = [self._random_formula(rng) for _ in range(25)]
        for formula in formulas:
            for partial in ({"x": 1}, {"a": True, "y": 2}, {}):
                set_evaluation_cache(False)
                plain = partial_evaluate(formula, partial)
                set_evaluation_cache(True)
                cached = partial_evaluate(formula, partial)
                assert plain == cached
                assert partial_evaluate(formula, partial) == cached

    def test_cache_entries_accumulate_and_clear(self):
        set_evaluation_cache(True)
        formula = conj(A, disj(B, neg(A)), C)
        evaluate(formula, {"a": True, "b": False, "c": True})
        assert evaluation_cache_stats()["evaluate_entries"] > 0
        clear_evaluation_caches()
        assert evaluation_cache_stats()["evaluate_entries"] == 0

    def test_shared_subformula_evaluated_once(self):
        set_evaluation_cache(True)
        shared = disj(eq(X, 1), eq(Y, 2))
        table_like = [conj(eq(X, i), shared) for i in range(1, 4)]
        for valuation in ({"x": 1, "y": 2}, {"x": 2, "y": 3}):
            results = [evaluate(f, valuation) for f in table_like]
            set_evaluation_cache(False)
            expected = [evaluate(f, valuation) for f in table_like]
            set_evaluation_cache(True)
            assert results == expected

    def test_second_mod_is_served_from_the_memo(self):
        # A difference-over-join answer: its row conditions share
        # sub-formulas, and a second Mod enumeration revisits every
        # (node, valuation slice) pair the first one memoized.
        variables = (X, Y, Var("z"))
        table = CTable(
            [
                ((i % 4, variables[i % 3]), ne(variables[i % 3], i % 5))
                for i in range(9)
            ],
            arity=2,
            domains={name: tuple(range(6)) for name in ("x", "y", "z")},
        )
        query = diff(
            proj(sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]),
            proj(rel("V", 2), [1, 0]),
        )
        answer = apply_query_to_ctable(query, table)
        set_evaluation_cache(True)
        first = answer.mod()
        before = evaluation_cache_stats()
        second = answer.mod()
        after = evaluation_cache_stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]
        set_evaluation_cache(False)
        assert first == second == answer.mod()

    def teardown_method(self):
        set_evaluation_cache(True)


class TestSingleVisitRewrites:
    def test_nnf_on_shared_dag(self):
        shared = conj(A, B)
        formula = neg(disj(shared, neg(shared), C))
        result = nnf(formula)
        for valuation in (
            {"a": av, "b": bv, "c": cv}
            for av in (True, False)
            for bv in (True, False)
            for cv in (True, False)
        ):
            assert evaluate(result, valuation) == evaluate(formula, valuation)

    def test_simplify_on_shared_dag(self):
        shared = conj(A, B)
        formula = conj(C, disj(shared, C), neg(neg(C)))
        assert simplify(formula) is C


class TestSplitEquijoin:
    def test_single_cross_pair(self):
        pairs, residual = split_equijoin(col_eq(1, 2), 2)
        assert pairs == ((1, 0),)
        assert residual is TOP

    def test_conjunction_with_residual(self):
        predicate = conj(col_eq(0, 3), col_ne(1, 2), col_eq_const(0, 5))
        pairs, residual = split_equijoin(predicate, 2)
        assert pairs == ((0, 1),)
        assert residual == conj(col_ne(1, 2), col_eq_const(0, 5))

    def test_same_side_equality_is_residual(self):
        pairs, residual = split_equijoin(col_eq(0, 1), 2)
        assert pairs == ()
        assert residual == col_eq(0, 1)

    def test_disjunction_is_not_split(self):
        predicate = disj(col_eq(1, 2), col_eq(0, 3))
        pairs, residual = split_equijoin(predicate, 2)
        assert pairs == ()
        assert residual == predicate


class TestEquijoinFastPaths:
    def _random_ctable(self, rng, rows):
        out = []
        for _ in range(rows):
            values = tuple(
                rng.choice([1, 2, 3, X, Y]) for _ in range(2)
            )
            condition = rng.choice(
                [TOP, eq(X, 1), ne(Y, 2), conj(eq(X, Y))]
            )
            out.append((values, condition))
        return CTable(out, arity=2)

    def test_join_bar_matches_composed_operators(self):
        rng = random.Random(3)
        for trial in range(30):
            left = self._random_ctable(rng, rng.randint(0, 5))
            right = self._random_ctable(rng, rng.randint(0, 5))
            predicate = conj(
                col_eq(1, 2),
                rng.choice([TOP, col_ne(0, 3), col_eq_const(0, 1)]),
            )
            fused = join_bar(left, right, predicate)
            composed = select_bar(product_bar(left, right), predicate)
            assert fused == composed, trial

    def test_join_bar_no_equijoin_falls_back(self):
        left = self._random_ctable(random.Random(5), 3)
        right = self._random_ctable(random.Random(6), 3)
        predicate = col_eq_const(0, 1)
        assert join_bar(left, right, predicate) == select_bar(
            product_bar(left, right), predicate
        )

    def test_classical_hash_join_matches_nested_loop(self):
        rng = random.Random(9)
        for _ in range(30):
            left = Instance(
                {
                    tuple(rng.randint(1, 4) for _ in range(2))
                    for _ in range(rng.randint(0, 8))
                },
                arity=2,
            )
            right = Instance(
                {
                    tuple(rng.randint(1, 4) for _ in range(2))
                    for _ in range(rng.randint(0, 8))
                },
                arity=2,
            )
            query = sel(
                prod(rel("L", 2), rel("R", 2)),
                conj(col_eq(1, 2), col_ne(0, 3)),
            )
            fast = evaluate_query(query, {"L": left, "R": right})
            naive = Instance(
                {
                    l + r
                    for l in left.rows
                    for r in right.rows
                    if l[1] == r[0] and l[0] != r[1]
                },
                arity=4,
            )
            assert fast == naive

    def test_hash_join_nan_matches_nested_loop_semantics(self):
        # Dict probing compares identity-first, so the same NaN object
        # would match itself; the fast path must re-check with ==.
        nan = float("nan")
        left = Instance({(nan, 1)}, arity=2)
        right = Instance({(nan, 2)}, arity=2)
        query = sel(prod(rel("L", 2), rel("R", 2)), col_eq(0, 2))
        fast = evaluate_query(query, {"L": left, "R": right})
        assert fast == Instance((), arity=4)

    def test_symbolic_join_columns_stay_symbolic(self):
        left = CTable([((1, X), TOP)], arity=2)
        right = CTable([((Y, 5), TOP), ((2, 6), TOP)], arity=2)
        fused = join_bar(left, right, col_eq(1, 2))
        composed = select_bar(product_bar(left, right), col_eq(1, 2))
        assert fused == composed
        # The symbolic pairing survives: x = y and x = 2 both appear.
        conditions = {row.condition for row in fused.rows}
        assert eq(X, Y) in conditions
        assert eq(X, 2) in conditions


class TestInterningUnderThreads:
    def test_concurrent_construction_yields_one_canonical_object(self):
        # Fresh, never-interned formulas per trial: every thread builds
        # the same conjunction simultaneously; all must get one object.
        for trial in range(20):
            a = eq(Var("race_a"), 7000 + trial)
            b = ne(Var("race_b"), 9000 + trial)
            barrier = threading.Barrier(4)

            def build():
                barrier.wait()
                return conj(a, b)

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda _: build(), range(4)))
            first = results[0]
            assert all(result is first for result in results), trial
