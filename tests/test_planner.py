"""Planner tests: rewrite soundness, estimates, and the PR's bugfixes.

The optimizer's contract is Theorem 4: any classically equivalent plan
yields a ``Mod``-equal c-table.  The property tests here throw random
queries at random tables and demand

- ``Mod`` equality of the verbatim and optimized answers over a joint
  witness domain (``ctables_equivalent``), and
- the per-valuation Lemma 1 identity ``ν(q̄_opt(T)) = q(ν(T))``,

plus shape-level unit tests for the individual rewrite rules and
regression tests pinning the three bugfixes that ride along (fused join
under simplification, streaming certain answers, hash-bucketed
difference/intersection).
"""

import random

import pytest

from repro.errors import NoWorldsError
from repro.core.instance import Instance
from repro.logic.atoms import Const, Var, eq, ne
from repro.logic.syntax import TOP, conj, disj, neg
from repro.algebra import (
    col_eq,
    col_eq_const,
    col_ne,
    col_ne_const,
    diff,
    intersect,
    proj,
    prod,
    rel,
    sel,
    union,
)
from repro.algebra.evaluate import apply_query
from repro.ctalgebra.lifted import (
    _rows_equal_condition,
    difference_bar,
    intersection_bar,
)
from repro.ctalgebra.optimize import fuse_joins, optimize_plan
from repro.ctalgebra.plan import (
    DifferenceNode,
    EmptyNode,
    JoinNode,
    ProductNode,
    ProjectNode,
    Scan,
    SelectNode,
    UnionNode,
    collect_stats,
    estimate,
    explain,
    plan_cost,
    plan_from_query,
)
from repro.ctalgebra.translate import (
    apply_query_to_ctable,
    plan_for_query,
    translate_query,
)
from repro.tables.ctable import CRow, CTable
from repro.worlds.answers import certain_answer
from repro.worlds.compare import ctables_equivalent, lemma1_holds
from tests.conftest import random_ctable


X, Y = Var("x"), Var("y")

V = rel("V", 2)

UNSAT = conj(col_eq_const(0, 1), col_eq_const(0, 2))


def random_predicate(rng, arity):
    """A random predicate over columns < arity (occasionally unsat)."""
    def atom():
        kind = rng.randrange(4)
        a = rng.randrange(arity)
        b = rng.randrange(arity)
        if kind == 0:
            return col_eq(a, b) if a != b else col_eq_const(a, rng.choice((1, 2)))
        if kind == 1:
            return col_ne(a, b) if a != b else col_ne_const(a, rng.choice((1, 2)))
        if kind == 2:
            return col_eq_const(a, rng.choice((1, 2)))
        return col_ne_const(a, rng.choice((1, 2)))

    roll = rng.random()
    if roll < 0.1:
        return conj(col_eq_const(0, 1), col_eq_const(0, 2))  # dead branch
    if roll < 0.5:
        return conj(atom(), atom())
    if roll < 0.7:
        return disj(atom(), atom())
    return atom()


def random_query(rng, depth):
    """A random arity-2 query over the input relation ``V``."""
    if depth == 0 or rng.random() < 0.2:
        return V
    kind = rng.randrange(6)
    if kind == 0:
        child = random_query(rng, depth - 1)
        return proj(child, [rng.randrange(2), rng.randrange(2)])
    if kind == 1:
        child = random_query(rng, depth - 1)
        return sel(child, random_predicate(rng, 2))
    if kind == 2:
        left = random_query(rng, depth - 1)
        right = random_query(rng, depth - 1)
        product = prod(left, right)
        if rng.random() < 0.8:
            product = sel(product, random_predicate(rng, 4))
        columns = rng.sample(range(4), 2)
        return proj(product, columns)
    left = random_query(rng, depth - 1)
    right = random_query(rng, depth - 1)
    combiner = (union, diff, intersect)[kind % 3]
    return combiner(left, right)


class TestRewriteSoundness:
    """Every rewrite preserves Mod — the planner's Theorem 4 contract."""

    def test_random_queries_mod_equivalent(self):
        rng = random.Random(7)
        for trial in range(40):
            table = random_ctable(rng, arity=2, max_rows=3)
            query = random_query(rng, depth=2)
            verbatim = apply_query_to_ctable(query, table)
            optimized = apply_query_to_ctable(query, table, optimize=True)
            assert ctables_equivalent(verbatim, optimized), (trial, query)

    def test_random_queries_lemma1_on_optimized_plan(self):
        rng = random.Random(11)
        for trial in range(20):
            table = random_ctable(rng, arity=2, max_rows=3)
            query = random_query(rng, depth=2)
            for valuation in (
                {"x": 1, "y": 1},
                {"x": 1, "y": 2},
                {"x": 3, "y": 2},
            ):
                assert lemma1_holds(query, table, valuation, optimize=True), (
                    trial,
                    query,
                    valuation,
                )

    def test_per_valuation_identity_with_finite_domains(self):
        rng = random.Random(13)
        for trial in range(10):
            table = random_ctable(rng, arity=2, max_rows=3)
            if table.variables():
                table = table.with_domains(
                    {name: (1, 2, 3) for name in table.variables()}
                )
            query = random_query(rng, depth=2)
            optimized = apply_query_to_ctable(query, table, optimize=True)
            for valuation in table.valuations():
                assert optimized.apply_valuation(valuation) == apply_query(
                    query, table.apply_valuation(valuation)
                ), (trial, query, valuation)

    def test_simplify_and_optimize_compose(self):
        rng = random.Random(17)
        for _ in range(10):
            table = random_ctable(rng, arity=2, max_rows=3)
            query = random_query(rng, depth=2)
            plain = apply_query_to_ctable(query, table)
            both = apply_query_to_ctable(
                query, table, simplify_conditions=True, optimize=True
            )
            assert ctables_equivalent(plain, both)


class TestRewriteRules:
    """Shape-level checks of the individual rules."""

    TABLES = {"V": CTable([(1, 2), (2, 3), (X, 1)], arity=2)}

    def test_selection_pushdown_through_product(self):
        query = sel(
            prod(V, V), conj(col_eq_const(0, 1), col_eq_const(2, 2))
        )
        plan = plan_for_query(query, self.TABLES, optimize=True)
        # Both conjuncts are one-sided: the product survives with each
        # side filtered, and no selection remains above it.
        assert isinstance(plan, ProductNode)
        assert isinstance(plan.left, SelectNode)
        assert isinstance(plan.right, SelectNode)
        assert isinstance(plan.left.child, Scan)

    def test_predicate_split_into_sides_and_residual(self):
        query = sel(
            prod(V, V),
            conj(col_eq_const(0, 1), col_eq(1, 2), col_eq_const(3, 2)),
        )
        plan = plan_for_query(query, self.TABLES, optimize=True)
        assert isinstance(plan, JoinNode)
        assert plan.predicate == col_eq(1, 2)
        assert isinstance(plan.left, SelectNode)
        assert isinstance(plan.right, SelectNode)
        # The right-side conjunct is rebased to the operand's columns.
        assert plan.right.predicate == col_eq_const(1, 2)

    def test_selection_pushdown_through_union_and_projection(self):
        query = sel(union(proj(V, [1, 0]), V), col_eq_const(0, 1))
        plan = plan_for_query(query, self.TABLES, optimize=True)
        assert isinstance(plan, UnionNode)
        left, right = plan.children()
        # Left branch: the selection moved below π̄ with its column
        # remapped through the projection list (@0 -> @1).
        assert isinstance(left, ProjectNode)
        assert isinstance(left.child, SelectNode)
        assert left.child.predicate == col_eq_const(1, 1)
        assert isinstance(right, SelectNode)

    def test_projection_pushdown_through_product(self):
        query = proj(prod(V, V), [0])
        plan = plan_for_query(query, self.TABLES, optimize=True)
        # Only the left side's first column is needed.
        assert isinstance(plan, ProjectNode) or isinstance(plan, ProductNode)
        stats = collect_stats(self.TABLES)
        verbatim = fuse_joins(plan_from_query(query))
        assert plan_cost(plan, stats) <= plan_cost(verbatim, stats)
        for node in plan.walk():
            if isinstance(node, ProductNode):
                assert node.left.arity == 1

    def test_dead_branch_pruned_to_empty(self):
        query = union(V, sel(V, UNSAT))
        plan = plan_for_query(query, self.TABLES, optimize=True)
        assert isinstance(plan, UnionNode)
        assert isinstance(plan.right, EmptyNode)

    def test_dead_selection_over_product_prunes_whole_region(self):
        query = union(V, proj(sel(prod(V, V), UNSAT), [0, 3]))
        plan = plan_for_query(query, self.TABLES, optimize=True)
        assert isinstance(plan, UnionNode)
        assert isinstance(plan.right, EmptyNode)
        # The pruned region remembers its leaf tables.
        assert Scan("V", 2) in plan.right.sources

    def test_pruned_branch_keeps_domains_and_global_condition(self):
        table = CTable(
            [(X, 1), (2, Y)],
            arity=2,
            domains={"x": (1, 2), "y": (1, 2, 3)},
            global_condition=ne(X, 3),
        )
        tables = {"V": table}
        query = union(V, sel(V, UNSAT))
        verbatim = apply_query_to_ctable(query, table)
        optimized = apply_query_to_ctable(query, table, optimize=True)
        assert optimized.domains == verbatim.domains
        assert optimized.global_condition == verbatim.global_condition
        assert optimized.mod() == verbatim.mod()

    def test_join_reordering_prefers_selective_join_first(self):
        big_rows = [(index % 7, index % 5) for index in range(60)]
        tables = {
            "A": CTable(big_rows, arity=2),
            "B": CTable(big_rows, arity=2),
            "C": CTable([(1, 2), (2, 3)], arity=2),
        }
        query = sel(
            prod(prod(rel("A", 2), rel("B", 2)), rel("C", 2)),
            conj(col_eq(1, 4), col_eq(3, 5)),
        )
        stats = collect_stats(tables)
        verbatim = fuse_joins(plan_from_query(query))
        optimized = optimize_plan(plan_from_query(query), stats)
        assert plan_cost(optimized, stats) < plan_cost(verbatim, stats)

        a = translate_query(query, tables)
        b = translate_query(query, tables, optimize=True)
        assert ctables_equivalent(a, b)

    def test_pushdown_through_deep_plan_under_difference(self):
        # A join feeding a second product, a projection on each level
        # and a difference on top: every selection still reaches its
        # scan, and the answer keeps the verbatim plan's Mod.
        tables = {
            "L": CTable(
                [((i % 11, i % 13), ne(X, i % 2)) for i in range(12)],
                arity=2,
            ),
            "R": CTable([(i % 13, i % 5) for i in range(12)], arity=2),
            "S": CTable([(i % 7, i % 3) for i in range(12)], arity=2),
        }
        inner = proj(
            sel(
                prod(rel("L", 2), rel("R", 2)),
                conj(col_eq_const(0, 1), col_eq(1, 2)),
            ),
            [0, 3],
        )
        outer = proj(
            sel(prod(inner, rel("S", 2)), col_eq_const(2, 4)), [1, 3]
        )
        query = diff(outer, proj(rel("S", 2), [1, 0]))
        plan = plan_for_query(query, tables, optimize=True)
        assert isinstance(plan, DifferenceNode)
        selections = [
            node for node in plan.walk() if isinstance(node, SelectNode)
        ]
        assert len(selections) == 2
        assert all(isinstance(node.child, Scan) for node in selections)

        assert ctables_equivalent(
            translate_query(query, tables),
            translate_query(query, tables, optimize=True),
        )

    def test_explain_renders_estimates(self):
        query = proj(sel(prod(V, V), col_eq(1, 2)), [0, 3])
        plan = plan_for_query(query, self.TABLES, optimize=True)
        rendered = explain(plan, collect_stats(self.TABLES))
        assert "rows≈" in rendered and "cond≈" in rendered
        assert rendered.splitlines()[0].startswith("π̄")

    def test_estimates_are_finite_and_positive(self):
        stats = collect_stats(self.TABLES)
        query = diff(proj(V, [0, 1]), sel(V, col_eq(0, 1)))
        plan = plan_for_query(query, self.TABLES, optimize=True)
        for node in plan.walk():
            found = estimate(node, stats)
            assert found.rows >= 0.0
            assert found.condition_size >= 0.0


class TestFusedJoinSimplifyRegression:
    """The fast path and per-operator simplification now compose."""

    QUERY = proj(sel(prod(V, V), col_eq(1, 2)), [0, 3])

    def test_plan_is_fused_regardless_of_simplification(self):
        # The plan layer has no simplify knob: the same fused plan backs
        # both E08 ablation arms, so they compare like-for-like.
        plan = plan_for_query(self.QUERY, self.TABLES)
        assert any(isinstance(node, JoinNode) for node in plan.walk())
        assert not any(
            isinstance(node, ProductNode) for node in plan.walk()
        )

    TABLES = {"V": CTable([(1, 2), (2, 3), (X, 1), (2, Y)], arity=2)}

    def test_simplified_fused_result_matches_seed_route(self):
        table = self.TABLES["V"]
        fused = apply_query_to_ctable(
            self.QUERY, table, simplify_conditions=True
        )
        plain = apply_query_to_ctable(self.QUERY, table)
        assert ctables_equivalent(fused, plain)
        # Simplification of the fused result never *adds* rows.
        assert len(fused) <= len(plain)


class _CountingWorlds:
    """An iterable of instances that records how many were consumed."""

    def __init__(self, instances):
        self.instances = list(instances)
        self.consumed = 0

    def __iter__(self):
        for instance in self.instances:
            self.consumed += 1
            yield instance


class TestCertainAnswerStreamingRegression:
    def test_early_exit_once_intersection_is_empty(self):
        worlds = _CountingWorlds(
            [
                Instance([(1,)], arity=1),
                Instance([(2,)], arity=1),  # intersection empty here
                Instance([(1,)], arity=1),
                Instance([(1,)], arity=1),
            ]
        )
        answer = certain_answer(rel("V", 1), worlds)
        assert answer == Instance((), arity=1)
        assert worlds.consumed == 2

    def test_full_intersection_still_computed(self):
        worlds = [
            Instance([(1,), (2,)], arity=1),
            Instance([(1,), (3,)], arity=1),
        ]
        answer = certain_answer(rel("V", 1), worlds)
        assert answer == Instance([(1,)], arity=1)

    def test_no_worlds_still_raises(self):
        with pytest.raises(NoWorldsError):
            certain_answer(rel("V", 1), [])


def _difference_bar_reference(left, right):
    """The seed's blind nested-loop ``−̄`` (kept as the test oracle)."""
    from repro.ctalgebra.lifted import _combine

    rows = []
    for l in left.rows:
        absent_in_right = conj(
            *(
                neg(conj(r.condition, _rows_equal_condition(l, r)))
                for r in right.rows
            )
        )
        rows.append(CRow(l.values, conj(l.condition, absent_in_right)))
    return _combine(left, right, rows, left.arity)


def _intersection_bar_reference(left, right):
    """The seed's blind nested-loop ``∩̄`` (kept as the test oracle)."""
    from repro.ctalgebra.lifted import _combine

    rows = []
    for l in left.rows:
        present_in_right = disj(
            *(
                conj(r.condition, _rows_equal_condition(l, r))
                for r in right.rows
            )
        )
        rows.append(CRow(l.values, conj(l.condition, present_in_right)))
    return _combine(left, right, rows, left.arity)


class TestBucketedDifferenceIntersectionRegression:
    def test_structurally_identical_to_nested_loop(self):
        rng = random.Random(23)
        for trial in range(30):
            left = random_ctable(rng, arity=2, max_rows=4)
            right = random_ctable(rng, arity=2, max_rows=4)
            assert difference_bar(left, right) == _difference_bar_reference(
                left, right
            ), trial
            assert intersection_bar(
                left, right
            ) == _intersection_bar_reference(left, right), trial

    def test_constant_heavy_tables_skip_unequal_pairs(self):
        left = CTable([(i, i + 1) for i in range(20)], arity=2)
        right = CTable(
            [(i, i + 1) for i in range(10, 30)] + [((X, 0), eq(X, 1))],
            arity=2,
        )
        fast = difference_bar(left, right)
        reference = _difference_bar_reference(left, right)
        assert fast == reference
        # Rows 10..19 exist on both sides unconditionally, so they
        # cancel outright; rows 0..9 survive with a true condition (the
        # symbolic right row can never equal them: its second entry is
        # the constant 0).
        assert len(fast) == 10
        assert all(row.condition == TOP for row in fast.rows)
        assert fast.rows[0].values == (Const(0), Const(1))

    def test_symbolic_rows_still_pair_with_everything(self):
        left = CTable([((X, 1), TOP), ((1, 2), TOP)], arity=2)
        right = CTable([((Y, 1), TOP), ((3, 4), TOP)], arity=2)
        assert difference_bar(left, right) == _difference_bar_reference(
            left, right
        )
        assert intersection_bar(left, right) == _intersection_bar_reference(
            left, right
        )
