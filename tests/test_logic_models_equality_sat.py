"""Unit tests for model enumeration and equality-logic satisfiability."""

import itertools
import signal

import pytest

from repro.engine import Engine
from repro.errors import DomainError
from repro.logic.atoms import BoolVar, Var, eq, ne
from repro.logic.equality_sat import (
    constants_of,
    equivalent_conditions,
    implies_infinite,
    is_satisfiable_finite,
    is_satisfiable_infinite,
    is_valid_infinite,
    witness_domain,
)
from repro.logic.models import (
    boolean_domains,
    count_models,
    domain_product_size,
    enumerate_models,
    enumerate_valuations,
    is_satisfiable_over,
)
from repro.logic.syntax import BOTTOM, TOP, conj, disj, neg
from repro.tables.ctable import CTable
from repro.tables.normalize import normalize
from repro.worlds.answers import certain_answer, possible_answer
from repro.worlds.compare import ctables_equivalent_symbolic
from repro.algebra import proj, rel


X, Y, Z = Var("x"), Var("y"), Var("z")


class TestEnumerateValuations:
    def test_product_order_and_count(self):
        valuations = list(enumerate_valuations({"a": [1, 2], "b": [3, 4]}))
        assert len(valuations) == 4
        assert valuations[0] == {"a": 1, "b": 3}

    def test_deterministic_order(self):
        first = list(enumerate_valuations({"b": [1, 2], "a": [5]}))
        second = list(enumerate_valuations({"a": [5], "b": [1, 2]}))
        assert first == second

    def test_empty_domain_rejected(self):
        with pytest.raises(DomainError):
            list(enumerate_valuations({"a": []}))

    def test_no_variables_single_empty_valuation(self):
        assert list(enumerate_valuations({})) == [{}]


class TestEnumerateModels:
    def test_counts_satisfying_only(self):
        formula = eq(X, Y)
        assert count_models(formula, {"x": [1, 2], "y": [1, 2]}) == 2

    def test_pruning_matches_bruteforce(self):
        formula = conj(disj(eq(X, 1), eq(Y, 2)), ne(X, Y))
        domains = {"x": [1, 2, 3], "y": [1, 2, 3]}
        from repro.logic.evaluation import evaluate

        brute = sum(
            1
            for valuation in enumerate_valuations(domains)
            if evaluate(formula, valuation)
        )
        assert count_models(formula, domains) == brute

    def test_missing_domain_raises(self):
        with pytest.raises(DomainError):
            list(enumerate_models(eq(X, Y), {"x": [1]}))

    def test_boolean_domains_helper(self):
        domains = boolean_domains(["a", "b"])
        assert count_models(BoolVar("a"), domains) == 2  # b free

    def test_domain_product_size(self):
        assert domain_product_size({"a": [1, 2], "b": [1, 2, 3]}) == 6

    def test_is_satisfiable_over(self):
        assert is_satisfiable_over(eq(X, 1), {"x": [1, 2]})
        assert not is_satisfiable_over(eq(X, 3), {"x": [1, 2]})


class TestWitnessDomain:
    def test_contains_constants(self):
        formula = conj(eq(X, 1), ne(Y, "a"))
        domain = witness_domain(formula)
        assert 1 in domain and "a" in domain

    def test_one_fresh_per_variable(self):
        formula = conj(eq(X, Y), ne(Y, Z))
        domain = witness_domain(formula)
        assert len(domain) == 3  # no constants, three variables

    def test_constants_of(self):
        formula = conj(eq(X, 1), ne(Y, 2), eq(X, Y))
        assert constants_of(formula) == frozenset({1, 2})


class TestInfiniteSatisfiability:
    def test_simple_satisfiable(self):
        assert is_satisfiable_infinite(conj(eq(X, Y), ne(Z, 2)))

    def test_contradiction(self):
        assert not is_satisfiable_infinite(conj(eq(X, 1), eq(X, 2)))

    def test_requires_fresh_value(self):
        # x differs from both named constants: needs a third value.
        formula = conj(ne(X, 1), ne(X, 2))
        assert is_satisfiable_infinite(formula)

    def test_pigeonhole_unsatisfiable(self):
        # Three pairwise-distinct variables all equal to 1 or each other: fine,
        # but x≠x folds to false at construction.
        assert ne(X, X) is BOTTOM

    def test_validity(self):
        assert is_valid_infinite(disj(eq(X, Y), ne(X, Y)))
        assert not is_valid_infinite(eq(X, Y))

    def test_implication(self):
        assert implies_infinite(eq(X, 1), disj(eq(X, 1), eq(Y, 2)))
        assert not implies_infinite(disj(eq(X, 1), eq(Y, 2)), eq(X, 1))

    def test_equivalence(self):
        # x≠1 ∨ x≠y  ≡  ¬(x=1 ∧ x=y): De Morgan over atoms.
        left = disj(ne(X, 1), ne(X, Y))
        right = neg(conj(eq(X, 1), eq(X, Y)))
        assert equivalent_conditions(left, right)

    def test_boolean_variables_mix(self):
        formula = conj(BoolVar("b"), eq(X, 1))
        assert is_satisfiable_infinite(formula)
        assert not is_satisfiable_infinite(conj(BoolVar("b"), neg(BoolVar("b"))))


def pigeonhole(count, constants):
    """*count* pairwise-distinct variables, each equal to one of *constants*."""
    variables = [Var(f"p{index}") for index in range(count)]
    return conj(
        *(disj(*(eq(v, c) for c in constants)) for v in variables),
        *(ne(a, b) for a, b in itertools.combinations(variables, 2)),
    )


def equality_chain(links):
    """``v0 = '1'``, ``v_links = '2'``, and each link equal or both ``'3'``.

    Unsatisfiable: equal links carry ``'1'`` forward, and a ``'3'`` link
    cannot follow a ``'1'``.
    """
    variables = [Var(f"v{index}") for index in range(links + 1)]
    return conj(
        eq(variables[0], "1"),
        eq(variables[-1], "2"),
        *(
            disj(eq(a, b), conj(eq(a, "3"), eq(b, "3")))
            for a, b in zip(variables, variables[1:])
        ),
    )


class TestSkeletonEngine:
    """Cross-validation of the SAT + equality-theory loop vs enumeration."""

    CASES = [
        conj(eq(X, Y), ne(Z, 2)),
        conj(eq(X, 1), eq(X, 2)),
        conj(ne(X, 1), ne(X, 2)),
        disj(conj(eq(X, Y), ne(Y, Z)), eq(Z, 1)),
        conj(eq(X, Y), eq(Y, Z), ne(X, Z)),
        conj(eq(X, 1), eq(Y, 1), ne(X, Y)),
        neg(disj(eq(X, Y), ne(X, Y))),
        pigeonhole(4, "abc"),
        pigeonhole(3, "abc"),
        equality_chain(7),
        disj(equality_chain(7), eq(X, 1)),
    ]

    @pytest.mark.parametrize("formula", CASES)
    def test_engines_agree(self, formula):
        assert is_satisfiable_infinite(formula) == is_satisfiable_finite(
            formula, witness_domain(formula)
        )

    def test_transitivity_conflict_detected(self):
        formula = conj(eq(X, Y), eq(Y, Z), ne(X, Z))
        assert not is_satisfiable_infinite(formula)

    def test_constant_merge_conflict_detected(self):
        formula = conj(eq(X, 1), eq(X, 2))
        assert not is_satisfiable_infinite(formula)


@pytest.fixture
def ten_second_guard():
    """Fail, instead of hanging, when the test body runs past 10 s."""

    def expire(signum, frame):
        raise TimeoutError("no answer within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestSolverHangs:
    """Inputs on which an earlier model-enumerating loop never returned."""

    def test_four_variable_pigeonhole(self, ten_second_guard):
        formula = pigeonhole(4, "abc")
        assert not is_satisfiable_infinite(formula)
        assert equivalent_conditions(formula, BOTTOM)

    def test_chain_selection_through_the_optimizer(self, ten_second_guard):
        # Dead-branch pruning decides the selection predicate, a 7-link
        # equality chain over the row's columns.
        table = CTable([(tuple(str(n) for n in range(1, 9)), TOP)], arity=8)
        links = " & ".join(
            f"({i}={i + 1} | ({i}='3' & {i + 1}='3'))" for i in range(1, 8)
        )
        query = f"sigma[1='1' & 8='2' & {links}](R)"
        result = Engine().session(R=table).query(query).collect()
        assert len(result.rows) == 0


class TestNoWitnessEnumeration:
    """No production path enumerates a witness domain."""

    def test_production_paths_answer_without_the_oracle(self, monkeypatch):
        table = CTable(
            [
                ((1, X), ne(X, 2)),
                ((X, Y), conj(eq(X, 1), eq(Y, 3))),
                ((2, 2), conj(eq(X, Y), eq(X, 1), eq(Y, 2))),
            ],
            arity=2,
        )
        query = proj(rel("R", 2), [0])
        domain = table.witness_domain()
        expected_certain = certain_answer(query, table.mod_over(domain))
        expected_possible = possible_answer(query, table.mod_over(domain))

        def forbidden(*args, **kwargs):
            raise AssertionError("witness-domain enumeration in production")

        monkeypatch.setattr(
            "repro.logic.equality_sat.is_satisfiable_finite", forbidden
        )
        dataset = Engine().session(R=table).query(query)
        assert dataset.certain() == expected_certain
        assert set(dataset.possible().rows) == set(expected_possible.rows)
        assert len(normalize(table).rows) == 2
        session = Engine(verify_plans=True).session(R=table, S=table)
        assert session.query("sigma[2=3 & 1='1'](R x S)").collect().rows
        assert not session.query("sigma[1='1' & 1='2'](R)").collect().rows
        reordered = CTable(list(reversed(table.rows)), arity=2)
        assert ctables_equivalent_symbolic(table, reordered)
