"""Tests for the physical execution subsystem and the result cache.

The vectorized runtime's contract is *structural identity* with the
interpreted lifted operators — same rows, same interned condition
objects — which is stronger than the Mod-level equivalence Theorem 4
requires.  The grid tests check each operator both ways; the randomized
suite sweeps small c-tables (≤ 3 variables, inside the known
Mod-enumeration blowup limits) across random plans.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CTable,
    Engine,
    Instance,
    TableError,
    Var,
    col_eq,
    col_eq_const,
    col_ne,
    col_ne_const,
    conj,
    ctables_equivalent,
    diff,
    eq,
    intersect,
    ne,
    proj,
    prod,
    rel,
    sel,
    union,
)
from repro.ctalgebra.plan import (
    StatsAccumulator,
    TableStats,
    collect_stats,
    execute_plan,
)
from repro.ctalgebra.lifted import select_bar
from repro.ctalgebra.translate import plan_for_query
from repro.engine.cache import ResultCache
from repro.physical import (
    FilterOp,
    HashJoinOp,
    execute_plan_vectorized,
    explain_physical,
    lower,
)

X, Y = Var("x"), Var("y")


def both_ways(query, tables, optimize=True, simplify_conditions=False):
    """Evaluate via the interpreted oracle and the vectorized runtime."""
    plan = plan_for_query(query, tables, optimize=optimize)
    interpreted = execute_plan(
        plan, tables, simplify_conditions=simplify_conditions
    )
    vectorized = execute_plan_vectorized(
        plan,
        tables,
        simplify_conditions=simplify_conditions,
        stats=collect_stats(tables),
    )
    return interpreted, vectorized


def assert_identical(query, tables, **kwargs):
    interpreted, vectorized = both_ways(query, tables, **kwargs)
    assert vectorized == interpreted, (query, interpreted, vectorized)
    assert ctables_equivalent(interpreted, vectorized)
    return vectorized


def mixed_table(rows=8):
    entries = [((i % 3, i % 5), ne(X, i % 2)) for i in range(rows)]
    entries.append(((X, 0), eq(X, 1)))
    entries.append(((1, Y), ne(Y, 2)))
    return CTable(entries, arity=2)


class TestOperatorGrid:
    """Every physical operator against its interpreted counterpart."""

    def test_select_constant_columns(self):
        assert_identical(
            sel(rel("V", 2), col_eq_const(0, 1)), {"V": mixed_table()}
        )

    def test_select_variable_columns(self):
        assert_identical(
            sel(rel("V", 2), conj(col_eq(0, 1), col_ne_const(1, 3))),
            {"V": mixed_table()},
        )

    def test_select_fast_exit_keeps_interned_conditions(self):
        table = mixed_table()
        query = sel(rel("V", 2), col_eq_const(0, 0) | ~col_eq_const(0, 0))
        answered = assert_identical(query, {"V": table}, optimize=False)
        # The tautological predicate folds to true per row: conditions
        # must be the child's own interned objects, not fresh conjuncts.
        original = {row.values: row.condition for row in table.rows}
        for row in answered.rows:
            assert row.condition is original[row.values]

    def test_project_dedups_conditions(self):
        query = proj(rel("V", 2), [0])
        answered = assert_identical(query, {"V": mixed_table()})
        values = [row.values for row in answered.rows]
        assert len(values) == len(set(values))  # merged by disjunction

    def test_hash_join_equijoin(self):
        query = sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2))
        assert_identical(
            query, {"L": mixed_table(), "R": mixed_table(5)}
        )

    def test_hash_join_with_residual(self):
        query = sel(
            prod(rel("L", 2), rel("R", 2)),
            conj(col_eq(1, 2), col_ne(0, 3)),
        )
        assert_identical(
            query, {"L": mixed_table(), "R": mixed_table(5)}
        )

    def test_join_without_equijoin_keys(self):
        query = sel(prod(rel("L", 2), rel("R", 2)), col_ne(0, 2))
        assert_identical(
            query, {"L": mixed_table(4), "R": mixed_table(3)}
        )

    def test_product(self):
        query = prod(rel("L", 2), rel("R", 2))
        assert_identical(
            query, {"L": mixed_table(4), "R": mixed_table(3)}
        )

    def test_union(self):
        query = union(rel("L", 2), rel("R", 2))
        assert_identical(
            query, {"L": mixed_table(4), "R": mixed_table(3)}
        )

    def test_difference(self):
        query = diff(rel("L", 2), rel("R", 2))
        assert_identical(
            query, {"L": mixed_table(4), "R": mixed_table(3)}
        )

    def test_intersection(self):
        query = intersect(rel("L", 2), rel("R", 2))
        assert_identical(
            query, {"L": mixed_table(4), "R": mixed_table(3)}
        )

    def test_dead_branch_keeps_domains_and_globals(self):
        table = CTable(
            [((1, X), ne(X, 2))],
            arity=2,
            domains={"x": (0, 1, 2)},
            global_condition=ne(X, 0),
        )
        dead = sel(
            rel("V", 2), conj(col_eq_const(0, 1), col_eq_const(0, 2))
        )
        query = union(rel("V", 2), dead)
        answered = assert_identical(query, {"V": table})
        assert answered.domains == {"x": (0, 1, 2)}
        assert answered.global_condition == ne(X, 0)

    def test_const_relation(self):
        from repro.algebra import singleton

        query = union(rel("V", 2), singleton(7, 8))
        assert_identical(query, {"V": mixed_table(3)})

    def test_finite_infinite_mix_raises_in_both(self):
        finite = CTable([(X, 1)], arity=2, domains={"x": (0, 1)})
        infinite = CTable([((Y, 2), ne(Y, 0))], arity=2)
        query = prod(rel("A", 2), rel("B", 2))
        tables = {"A": finite, "B": infinite}
        plan = plan_for_query(query, tables)
        with pytest.raises(TableError):
            execute_plan(plan, tables)
        with pytest.raises(TableError):
            execute_plan_vectorized(plan, tables)

    def test_arity_zero_projection(self):
        # A boolean query: π̄_∅ produces arity-0 rows whose presence is
        # the answer.  The batch runtime must not lose them (regression:
        # Batch once derived its arity from the column count).
        table = mixed_table(4)
        query = proj(rel("V", 2), [])
        answered = assert_identical(query, {"V": table})
        assert answered.arity == 0
        assert len(answered) == 1  # all rows merged by disjunction
        boolean = Engine().session(V=table).query(query)
        assert boolean.certain().rows == frozenset({()})

    def test_arity_zero_set_operators(self):
        tables = {"L": mixed_table(3), "R": mixed_table(2)}
        empty_l = proj(rel("L", 2), [])
        empty_r = proj(rel("R", 2), [])
        for combiner in (union, diff, intersect):
            assert_identical(combiner(empty_l, empty_r), tables)

    def test_simplify_conditions_parity(self):
        query = proj(
            sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]
        )
        assert_identical(
            query, {"V": mixed_table()}, simplify_conditions=True
        )


class TestBuildSideSelection:
    """lower() picks the hash-join build side from the estimates, and
    both sides produce the identical (ordered) output."""

    def _tables(self):
        big = mixed_table(30)
        small = mixed_table(4)
        return {"L": big, "R": small}

    def test_build_side_follows_estimates(self):
        tables = self._tables()
        query = sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2))
        plan = plan_for_query(query, tables, optimize=True)
        lowered = lower(plan, collect_stats(tables))
        joins = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
        assert joins and joins[0].build_side == "right"  # R is smaller
        swapped = {"L": self._tables()["R"], "R": self._tables()["L"]}
        lowered = lower(plan, collect_stats(swapped))
        joins = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
        assert joins and joins[0].build_side == "left"

    def test_both_build_sides_identical_rows(self):
        tables = self._tables()
        query = proj(
            sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), [0, 3]
        )
        plan = plan_for_query(query, tables, optimize=False)
        reference = execute_plan(plan, tables)
        for side in ("left", "right"):
            lowered = lower(plan)
            for op in lowered.walk():
                if isinstance(op, HashJoinOp):
                    op.build_side = side
            from repro.physical import execute_physical

            assert execute_physical(lowered, tables) == reference

    def test_interleaved_symbolic_rows_preserve_dedup_order(self):
        # Symbolic rows in the *middle* of both operands: a build-left
        # probe emits pairs right-major, and only the rank restoration
        # keeps the downstream projection's disjunction order (and thus
        # the merged condition formulas) identical to the interpreted
        # order.  The projection maps many join rows onto one output
        # row, so any order slip changes the Or structurally.
        left = CTable(
            [
                ((0, 1), eq(X, 0)),
                ((X, 1), ne(X, 1)),  # symbolic key, mid-table
                ((0, 1), eq(Y, 2)),
                ((0, 2), ne(Y, 0)),
            ],
            arity=2,
        )
        right = CTable(
            [
                ((1, 5), eq(Y, 1)),
                ((Y, 5), ne(Y, 3)),  # symbolic key, mid-table
                ((1, 5), eq(X, 1)),
                ((2, 5), ne(X, 2)),
            ],
            arity=2,
        )
        tables = {"L": left, "R": right}
        query = proj(
            sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), [1, 3]
        )
        plan = plan_for_query(query, tables, optimize=False)
        reference = execute_plan(plan, tables)
        for side in ("left", "right"):
            lowered = lower(plan)
            for op in lowered.walk():
                if isinstance(op, HashJoinOp):
                    op.build_side = side
            from repro.physical import execute_physical

            answered = execute_physical(lowered, tables)
            assert answered == reference, side
            # Not just the same row set: the same condition objects.
            expected = {row.values: row.condition for row in reference.rows}
            for row in answered.rows:
                assert row.condition is expected[row.values], side


class TestRandomizedEquivalence:
    """Randomized plans over ≤3-variable tables: structural identity and
    Mod-level equivalence of the two executors.

    Cases come from the shared differential harness (``tests/harness.py``),
    whose larger sweeps live in ``test_differential.py``.
    """

    @pytest.mark.parametrize("optimize", [False, True])
    def test_randomized(self, optimize):
        from harness import random_case

        rng = random.Random(97 + optimize)
        for trial in range(30):
            query, tables = random_case(rng)
            interpreted, vectorized = both_ways(
                query, tables, optimize=optimize
            )
            assert vectorized == interpreted, (trial, query)
            assert ctables_equivalent(interpreted, vectorized), (trial, query)


QUERY = proj(sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3])


class TestResultCache:
    """Mirrors test_plan_cache.py for the answer-table cache."""

    def test_hit_on_identical_read(self):
        engine = Engine()
        session = engine.session(V=mixed_table())
        first = session.query(QUERY).collect()
        before = engine.result_cache_stats()["hits"]
        second = session.query(QUERY).collect()  # a fresh Dataset
        assert second is first  # served without re-executing
        assert engine.result_cache_stats()["hits"] == before + 1

    def test_scoped_invalidation_on_re_register(self):
        engine = Engine()
        session = engine.session(V=mixed_table(6))
        stale = session.query(QUERY).collect()
        session.register("V", mixed_table(12))
        fresh = session.query(QUERY).collect()
        assert fresh is not stale
        assert engine.result_cache_stats()["invalidations"] >= 1

    def test_unrelated_register_keeps_entry_warm(self):
        engine = Engine()
        session = engine.session(V=mixed_table())
        cached = session.query(QUERY).collect()
        session.register("W", mixed_table(3))  # not read by QUERY
        assert session.query(QUERY).collect() is cached

    def test_sessions_do_not_share_results(self):
        engine = Engine()
        table = mixed_table()
        first = engine.session(V=table).query(QUERY).collect()
        misses = engine.result_cache_stats()["misses"]
        second = engine.session(V=table).query(QUERY).collect()
        assert engine.result_cache_stats()["misses"] == misses + 1
        assert second == first  # equal answers, distinct entries

    def test_lru_eviction(self):
        engine = Engine(result_cache_size=2)
        session = engine.session(V=mixed_table())
        queries = [proj(rel("V", 2), [i % 2]) for i in range(2)]
        answers = [session.query(q).collect() for q in queries]
        session.query(QUERY).collect()  # third entry evicts the first
        assert engine.result_cache_stats()["evictions"] == 1
        assert session.query(queries[1]).collect() is answers[1]
        assert session.query(queries[0]).collect() is not answers[0]

    def test_zero_capacity_disables_caching(self):
        engine = Engine(result_cache_size=0)
        session = engine.session(V=mixed_table())
        assert (
            session.query(QUERY).collect()
            is not session.query(QUERY).collect()
        )

    def test_clear_result_cache(self):
        engine = Engine()
        session = engine.session(V=mixed_table())
        cached = session.query(QUERY).collect()
        engine.clear_result_cache()
        assert session.query(QUERY).collect() is not cached

    def test_executor_and_config_partition_entries(self):
        table = mixed_table()
        interpreted = Engine(executor="interpreted")
        vectorized = Engine(executor="vectorized")
        a = interpreted.session(V=table).query(QUERY).collect()
        b = vectorized.session(V=table).query(QUERY).collect()
        assert a == b  # structural identity across executors

    def test_result_cache_unit_is_scoped(self):
        cache = ResultCache(8)
        cache.put("k1", "r1", scope=1, dependencies=frozenset({"V"}))
        cache.put("k2", "r2", scope=2, dependencies=frozenset({"V"}))
        assert cache.invalidate(1, ("V",)) == 1
        assert cache.get("k1") is None
        assert cache.get("k2") == "r2"


class TestIncrementalStats:
    """Session.register refreshes TableStats from row deltas."""

    def test_delta_refresh_matches_full_recompute(self):
        engine = Engine()
        session = engine.session(V=mixed_table(8))
        grown = CTable(
            list(mixed_table(8).rows)
            + [((2, 4), eq(X, 0)), ((0, 1), ne(Y, 1))],
            arity=2,
        )
        session.register("V", grown)
        assert session.stats("V") == TableStats.from_ctable(grown)

    def test_row_removal_and_duplicates(self):
        engine = Engine()
        duplicated = CTable(
            [((1, 2), eq(X, 0)), ((1, 2), eq(X, 0)), ((3, Y), ne(Y, 1))],
            arity=2,
        )
        session = engine.session(V=duplicated)
        shrunk = CTable([((1, 2), eq(X, 0))], arity=2)
        session.register("V", shrunk)
        assert session.stats("V") == TableStats.from_ctable(shrunk)

    def test_schema_change_falls_back_to_full_recompute(self):
        engine = Engine()
        session = engine.session(V=mixed_table(4))
        wider = CTable([((1, 2, 3), eq(X, 0))], arity=3)
        session.register("V", wider)
        assert session.stats("V") == TableStats.from_ctable(wider)

    def test_accumulator_empties_cleanly(self):
        table = mixed_table(4)
        accumulator = StatsAccumulator.from_ctable(table)
        accumulator.apply_delta(table.rows, ())
        empty = CTable((), arity=2)
        assert accumulator.stats() == TableStats.from_ctable(empty)

    def test_instance_registration_still_works(self):
        engine = Engine()
        session = engine.session(V=Instance([(1, 2), (3, 4)], arity=2))
        session.register("V", Instance([(1, 2)], arity=2))
        assert session.stats("V").rows == 1


class TestExplainPhysical:
    def test_prepared_and_dataset_render_the_lowered_tree(self):
        engine = Engine()
        session = engine.session(L=mixed_table(10), R=mixed_table(3))
        query = proj(
            sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), [0, 3]
        )
        prepared = session.prepare(query)
        rendered = prepared.explain(physical=True)
        assert "HashJoin" in rendered
        assert "Scan(L)" in rendered and "Scan(R)" in rendered
        assert "rows≈" in rendered
        dataset = session.query(query)
        dataset.collect()
        snapshot = dataset.explain(physical=True)
        assert "HashJoin" in snapshot

    def test_filter_strategy_is_estimate_driven(self):
        # A near-unique key column → the residual memo cannot pay;
        # lower() switches the filter to per-row instantiation.
        unique = CTable(
            [((i, i % 3), ne(X, i % 2)) for i in range(64)], arity=2
        )
        tables = {"V": unique}
        query = sel(rel("V", 2), col_eq_const(0, 7))
        plan = plan_for_query(query, tables, optimize=False)
        lowered = lower(plan, collect_stats(tables))
        filters = [op for op in lowered.walk() if isinstance(op, FilterOp)]
        assert filters and not filters[0].memoize
        repetitive = CTable(
            [((i % 3, i % 5), ne(X, i % 2)) for i in range(64)], arity=2
        )
        lowered = lower(plan, collect_stats({"V": repetitive}))
        filters = [op for op in lowered.walk() if isinstance(op, FilterOp)]
        assert filters and filters[0].memoize
        assert "per-row" not in explain_physical(lowered)


class TestSelectBarFastExit:
    def test_true_instantiation_reuses_rows(self):
        table = mixed_table()
        tautology = col_eq_const(0, 5) | ~col_eq_const(0, 5)
        selected = select_bar(table, tautology)
        for before, after in zip(table.rows, selected.rows):
            assert after is before  # the row object itself, untouched

    def test_false_instantiation_drops_rows_early(self):
        table = CTable([(1, 2), (3, 4)], arity=2)
        selected = select_bar(table, col_eq_const(0, 1))
        assert len(selected) == 1
        assert selected.rows[0] is table.rows[0]
