"""Property-based tests (hypothesis) on the library's core invariants.

Strategies build small random formulas, c-tables and queries; the
properties are the paper's theorems plus internal consistency laws
(engine cross-checks, probability conservation, Mod monotonicity).
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.instance import Instance
from repro.core.idatabase import IDatabase
from repro.logic.atoms import BoolVar, Const, Var, eq, ne
from repro.logic.counting import probability, probability_enumerate, uniform
from repro.logic.equality_sat import (
    is_satisfiable_finite,
    is_satisfiable_infinite,
    witness_domain,
)
from repro.logic.evaluation import evaluate, partial_evaluate
from repro.logic.models import count_models, enumerate_valuations
from repro.logic.simplify import nnf, simplify
from repro.logic.syntax import BOTTOM, TOP, conj, disj, neg
from repro.logic.bdd import formula_to_bdd


VARIABLES = ["x", "y", "z"]
CONSTANTS = [1, 2]
BOOL_NAMES = ["a", "b", "c"]


def equality_atoms():
    terms = [Var(name) for name in VARIABLES] + [Const(c) for c in CONSTANTS]
    return st.builds(
        eq,
        st.sampled_from(terms),
        st.sampled_from(terms),
    )


def equality_formulas(depth=3):
    return st.recursive(
        equality_atoms() | st.just(TOP) | st.just(BOTTOM),
        lambda children: st.one_of(
            st.builds(lambda a, b: conj(a, b), children, children),
            st.builds(lambda a, b: disj(a, b), children, children),
            st.builds(neg, children),
        ),
        max_leaves=8,
    )


def boolean_formulas():
    atoms = st.sampled_from([BoolVar(name) for name in BOOL_NAMES])
    return st.recursive(
        atoms | st.just(TOP) | st.just(BOTTOM),
        lambda children: st.one_of(
            st.builds(lambda a, b: conj(a, b), children, children),
            st.builds(lambda a, b: disj(a, b), children, children),
            st.builds(neg, children),
        ),
        max_leaves=8,
    )


DOMAINS = {name: [1, 2, 3] for name in VARIABLES}


def all_valuations(formula):
    names = sorted(formula.variables())
    for combo in itertools.product([1, 2, 3], repeat=len(names)):
        yield dict(zip(names, combo))


class TestFormulaInvariants:
    @given(equality_formulas())
    @settings(max_examples=60, deadline=None)
    def test_nnf_preserves_semantics(self, formula):
        normal = nnf(formula)
        for valuation in all_valuations(formula):
            valuation.update(
                {n: 1 for n in normal.variables() - set(valuation)}
            )
            assert evaluate(formula, valuation) == evaluate(
                normal, valuation
            )

    @given(equality_formulas())
    @settings(max_examples=60, deadline=None)
    def test_simplify_preserves_semantics(self, formula):
        reduced = simplify(formula)
        for valuation in all_valuations(formula):
            valuation.update(
                {n: 1 for n in reduced.variables() - set(valuation)}
            )
            assert evaluate(formula, valuation) == evaluate(
                reduced, valuation
            )

    @given(equality_formulas())
    @settings(max_examples=60, deadline=None)
    def test_partial_then_full_evaluation_consistent(self, formula):
        names = sorted(formula.variables())
        if not names:
            return
        first, rest = names[0], names[1:]
        for value in [1, 2]:
            residual = partial_evaluate(formula, {first: value})
            for combo in itertools.product([1, 2], repeat=len(rest)):
                valuation = dict(zip(rest, combo))
                full = dict(valuation)
                full[first] = value
                assert evaluate(formula, full) == evaluate(
                    residual, valuation
                )

    @given(equality_formulas())
    @settings(max_examples=40, deadline=None)
    def test_sat_engines_agree(self, formula):
        assert is_satisfiable_infinite(formula) == is_satisfiable_finite(
            formula, witness_domain(formula)
        )

    @given(equality_formulas())
    @settings(max_examples=40, deadline=None)
    def test_negation_complements_model_count(self, formula):
        domains = {
            name: [1, 2] for name in formula.variables()
        }
        if not domains:
            return
        total = 1
        for values in domains.values():
            total *= len(values)
        assert (
            count_models(formula, domains)
            + count_models(neg(formula), domains)
            == total
        )


class TestCountingInvariants:
    @given(boolean_formulas())
    @settings(max_examples=50, deadline=None)
    def test_shannon_equals_enumeration(self, formula):
        dists = {
            name: {True: Fraction(1, 3), False: Fraction(2, 3)}
            for name in BOOL_NAMES
        }
        assert probability(formula, dists) == probability_enumerate(
            formula, dists
        )

    @given(boolean_formulas())
    @settings(max_examples=50, deadline=None)
    def test_shannon_equals_bdd(self, formula):
        dists = {
            name: {True: Fraction(1, 4), False: Fraction(3, 4)}
            for name in BOOL_NAMES
        }
        manager, node = formula_to_bdd(formula, BOOL_NAMES)
        weights = {name: Fraction(1, 4) for name in BOOL_NAMES}
        assert probability(formula, dists) == manager.probability(
            node, weights
        )

    @given(boolean_formulas())
    @settings(max_examples=50, deadline=None)
    def test_complement_rule(self, formula):
        dists = {
            name: {True: Fraction(1, 2), False: Fraction(1, 2)}
            for name in BOOL_NAMES
        }
        assert probability(formula, dists) + probability(
            neg(formula), dists
        ) == 1


def ctables(draw):
    """Strategy body: a small random c-table."""
    rows = []
    row_count = draw(st.integers(1, 3))
    for _ in range(row_count):
        values = tuple(
            draw(
                st.sampled_from(
                    [Var("x"), Var("y"), Const(1), Const(2)]
                )
            )
            for _ in range(2)
        )
        condition = draw(equality_formulas())
        rows.append((values, condition))
    from repro.tables.ctable import CRow, CTable

    return CTable(
        [CRow(values, condition) for values, condition in rows], arity=2
    )


ctable_strategy = st.composite(lambda draw: ctables(draw))()


class TestClosureProperty:
    @given(ctable_strategy)
    @settings(max_examples=25, deadline=None)
    def test_theorem4_random_tables(self, table):
        """Mod(q̄(T)) = q(Mod(T)) for a fixed query battery."""
        from repro.algebra import col_eq, proj, prod, rel, sel, union
        from repro.worlds.compare import closure_holds

        queries = [
            proj(rel("V", 2), [0]),
            sel(rel("V", 2), col_eq(0, 1)),
            union(proj(rel("V", 2), [0]), proj(rel("V", 2), [1])),
        ]
        for query in queries:
            assert closure_holds(query, table)

    @given(ctable_strategy)
    @settings(max_examples=15, deadline=None)
    def test_theorem1_random_tables(self, table):
        from repro.completion.ra_definable import verify_ra_definability

        assert verify_ra_definability(table)


class TestProbabilisticInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.fractions(0, 1)),
            min_size=1,
            max_size=3,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_pqtable_total_probability(self, rows):
        from repro.prob.ptables import PQTable

        table = PQTable(
            {(value,): weight for value, weight in rows}, arity=1
        )
        total = sum(weight for _, weight in table.mod().items())
        assert total == 1

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.fractions(0, 1)),
            min_size=1,
            max_size=3,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_theorem8_random(self, rows):
        from repro.prob.completeness import verify_prob_completeness
        from repro.prob.ptables import PQTable

        table = PQTable(
            {(value,): weight for value, weight in rows}, arity=1
        )
        assert verify_prob_completeness(table.mod())

    @given(
        st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 2),
                      st.fractions(0, 1)),
            min_size=1,
            max_size=3,
            unique_by=lambda triple: (triple[0], triple[1]),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_theorem9_random_pqtables(self, rows):
        from repro.algebra import col_eq, proj, prod, rel, sel
        from repro.prob.closure import verify_prob_closure
        from repro.prob.ptables import PQTable

        table = PQTable(
            {(a, b): weight for a, b, weight in rows}, arity=2
        )
        pctable = table.to_pctable()
        query = proj(
            sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]
        )
        assert verify_prob_closure(query, pctable)
