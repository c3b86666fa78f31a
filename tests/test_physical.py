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
import re

import pytest

from repro import (
    TOP,
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
    TableStats,
    collect_stats,
    execute_plan,
)
from repro.ctalgebra.lifted import select_bar
from repro.ctalgebra.translate import plan_for_query
from repro.engine.cache import ResultCache
from repro.errors import QueryError
from repro.obs.names import IVM_REFRESH_TOTAL
from repro.tables.ctable import CRow
from repro.logic.atoms import Const
from repro.logic.syntax import Or, disj
from repro.physical import (
    FilterOp,
    HashJoinOp,
    ExecContext,
    ProductOp,
    ProjectOp,
    ScanOp,
    execute_plan_vectorized,
    explain_physical,
    lower,
)

from harness import assert_structurally_identical

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
    )
    return interpreted, vectorized


def assert_identical(query, tables, **kwargs):
    interpreted, vectorized = both_ways(query, tables, **kwargs)
    assert vectorized == interpreted, (query, interpreted, vectorized)
    assert_structurally_identical(interpreted, vectorized, repr(query))
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

    def test_scan_errors_match_in_both(self):
        # Both executors resolve a leaf through one function, so an
        # unbound name (with its nearest-name hint) and an arity
        # mismatch fail with the same error in each.
        table = mixed_table(3)
        plan = plan_for_query(rel("people", 2), {"people": table})
        wider = CTable([(1, 2, 3)], arity=3)
        for tables, expected in (
            ({"peeple": table}, "did you mean 'peeple'?"),
            ({"people": wider}, "has arity 3, query expects 2"),
        ):
            messages = []
            for run in (execute_plan, execute_plan_vectorized):
                with pytest.raises(QueryError) as caught:
                    run(plan, tables)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]
            assert expected in messages[0]

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
    """A hash join builds on its right input, whatever the estimates."""

    def test_right_input_is_the_build_side(self, monkeypatch):
        from repro.physical import execute_physical, operators

        overs = []  # (columns, rows) of each per-call index
        over = operators._KeyIndex.over.__func__

        def counting_over(cls, columns, refs, rows):
            overs.append((tuple(columns), len(rows)))
            return over(cls, columns, refs, rows)

        monkeypatch.setattr(operators._KeyIndex, "over", classmethod(counting_over))
        # R, filtered or scanned, is the larger input: it is built all
        # the same.
        tables = {"L": mixed_table(4), "R": mixed_table(30)}
        for right, right_class in (
            (sel(rel("R", 2), col_ne_const(1, 9)), FilterOp),
            (rel("R", 2), ScanOp),
        ):
            query = sel(prod(rel("L", 2), right), col_eq(1, 2))
            plan = plan_for_query(query, tables, optimize=True)
            lowered = lower(plan, collect_stats(tables))
            (op,) = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
            assert isinstance(op.right, right_class)
            assert op.left.est_rows < op.right.est_rows
            del overs[:]
            answered = execute_physical(lowered, tables)
            assert_structurally_identical(
                execute_plan(plan, tables), answered, right_class.__name__
            )
            if right_class is FilterOp:
                # A filtered right input (one that keeps every row) is
                # indexed once per call.
                assert overs == [(op.right_keys, len(tables["R"].rows))]
            else:
                # A scanned one is its table's cached column index.
                assert overs == []

    def test_interleaved_symbolic_rows_preserve_dedup_order(self):
        # Symbolic rows in the *middle* of both operands: a keyed left
        # row pairs with its bucket before the symbolic right rows, and
        # only that order keeps the downstream projection's disjunction
        # order (and thus the merged condition formulas) identical to
        # the interpreted order.  The projection maps many join rows
        # onto one output row, so any order slip changes the Or
        # structurally.
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
        lowered = lower(plan)
        assert any(isinstance(op, HashJoinOp) for op in lowered.walk())
        from repro.physical import execute_physical

        answered = execute_physical(lowered, tables)
        assert answered == reference
        # Not just the same row set: the same condition objects.
        expected = {row.values: row.condition for row in reference.rows}
        for row in answered.rows:
            assert row.condition is expected[row.values]


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
    """After a re-register, Session.stats describes the new table."""

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

    #: perfbench's query shapes: ad-hoc reads and the churn views over
    #: L(key, join) and R(join, payload), and the tuple-probability
    #: point selection over the unary lineage table P.
    PERFBENCH_TEXTS = (
        "pi[1,4](sigma[1='k3' & 2=3](L x R))",
        "pi[1,4](sigma[2=3 & 1!='k3'](L x R))",
        "sigma[1='k3'](L)",
        "pi[1,4](sigma[2=3](L x R))",
        "pi[2](sigma[1!='k7'](L))",
        "pi[2](L) - pi[1](R)",
        "sigma[1='g3'](P)",
    )

    @staticmethod
    def _perfbench_tables(rows=96):
        """Small tables shaped like perfbench's: L's keys mix conditioned
        and plain rows, R has one payload per row, P one tag per row."""
        left = CTable(
            [
                ((f"k{i % 13}", f"j{i % 12}"), eq(Var(f"c{i % 5}"), 1) if i % 4 == 0 else TOP)
                for i in range(rows)
            ],
            arity=2,
        )
        right = CTable(
            [((f"j{i % 12}", f"r{i}"), TOP) for i in range(rows)], arity=2
        )
        lineage = CTable(
            [((f"g{i}",), eq(Var(f"e{i}"), 1)) for i in range(rows)], arity=1
        )
        return {"L": left, "R": right, "P": lineage}

    def test_lowering_is_estimate_blind(self):
        # Statistics only stamp the rows≈ annotations: with them stripped,
        # the tree lowered with estimates renders as the one without.
        from repro.algebra.parser import parse_query

        from harness import random_case

        def blind(plan, tables):
            informed = explain_physical(lower(plan, collect_stats(tables)))
            assert "rows≈" in informed
            stripped = re.sub(r"  rows≈\S+", "", informed)
            assert stripped == explain_physical(lower(plan)), informed

        tables = self._perfbench_tables()
        arities = {name: table.arity for name, table in tables.items()}
        for text in self.PERFBENCH_TEXTS:
            query = parse_query(text, arities)
            blind(plan_for_query(query, tables, optimize=True), tables)
        rng = random.Random(2901)
        for _ in range(60):
            query, tables = random_case(rng)
            blind(plan_for_query(query, tables, optimize=True), tables)


class TestRowsPassThrough:
    """A row whose condition an operator leaves unchanged comes out as
    the input's own ``CRow`` object, from a one-shot execution and from
    a standing view alike."""

    @staticmethod
    def table():
        # The selection below leaves the outer rows' conditions alone
        # and conjoins x = 1 onto the middle one.
        return CTable([((1, 2), ne(Y, 0)), ((X, 2), ne(X, 0)), ((1, 3), TOP)])

    QUERIES = {
        "scan": (rel("V", 2), [True, True, True]),
        "select": (sel(rel("V", 2), col_eq_const(0, 1)), [True, False, True]),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_vectorized_execution(self, name):
        query, same = self.QUERIES[name]
        tables = {"V": self.table()}
        answer = execute_plan_vectorized(plan_for_query(query, tables), tables)
        source = tables["V"].rows
        assert [
            after is before for after, before in zip(answer.rows, source)
        ] == same

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_view_refresh(self, name):
        query, same = self.QUERIES[name]
        engine = Engine()
        session = engine.session(V=self.table())
        prepared = session.prepare(query)
        built = prepared.refresh()
        source = session.table("V").rows
        assert [
            after is before for after, before in zip(built.rows, source)
        ] == same
        session.insert("V", [((1, 4), TOP)])
        refreshed = prepared.refresh()
        assert engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "delta"}
        ) == 1
        source = session.table("V").rows
        assert len(refreshed.rows) == len(source) == 4
        assert [
            after is before for after, before in zip(refreshed.rows, source)
        ] == same + [True]


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


def _keyed_table(rng, rows, variable_column=None):
    """A random 3-column table for index-path tests.

    Keys repeat, ``1``, ``True`` and ``1.0`` (one key under ``==``) all
    occur, some rows hold a variable where a key could be, some rows are
    conditioned, and *variable_column* holds only variables.
    """
    keys = ("a", "b", 1, True, 1.0, 2)
    entries = []
    for _ in range(rows):
        values = tuple(
            rng.choice((X, Y))
            if column == variable_column or rng.random() < 0.2
            else rng.choice(keys)
            for column in range(3)
        )
        condition = rng.choice((TOP, TOP, eq(X, rng.choice(keys)), ne(Y, "a")))
        entries.append((values, condition))
    return CTable(entries, arity=3)


@pytest.fixture
def index_lookups(monkeypatch):
    """The column tuples :meth:`CTable.column_index` is asked for."""
    looked_up = []
    original = CTable.column_index

    def spy(table, columns):
        looked_up.append(columns)
        return original(table, columns)

    monkeypatch.setattr(CTable, "column_index", spy)
    return looked_up


class TestIndexPathIdentity:
    """Selections and joins over scanned tables read the tables' column
    indexes; the answers stay structurally identical to the oracle."""

    @staticmethod
    def _predicates(rng):
        k, k2 = rng.choice(("a", 1, True, 1.0)), rng.choice(("b", 2, 1))
        return [
            col_eq_const(0, k),  # one pin
            col_eq_const(0, k) & col_eq_const(2, k2),  # two pins
            col_eq_const(0, k) & col_ne_const(1, "a"),  # pin plus residual
            col_eq_const(0, k) | col_eq_const(1, k2),  # under Or: no pin
            ~col_eq_const(0, k),  # under Not: no pin
            col_eq_const(2, k),  # a column of variables only
        ]

    def test_selections(self, index_lookups):
        rng = random.Random(2501)
        for trial in range(40):
            variable_column = 2 if trial % 4 == 0 else None
            tables = {"T": _keyed_table(rng, rng.randint(0, 10), variable_column)}
            for predicate in self._predicates(rng):
                assert_identical(sel(rel("T", 3), predicate), tables)
        assert (0,) in index_lookups and (0, 2) in index_lookups
        assert (1,) not in index_lookups  # an Or/Not atom never pins

    @staticmethod
    def _check_join(query, tables):
        plan = plan_for_query(query, tables, optimize=True)
        reference = execute_plan(plan, tables)
        from repro.physical import execute_physical

        lowered = lower(plan, collect_stats(tables))
        assert any(isinstance(op, HashJoinOp) for op in lowered.walk()), query
        answered = execute_physical(lowered, tables)
        assert_structurally_identical(reference, answered, repr(query))

    def test_joins(self, index_lookups):
        rng = random.Random(2502)
        for trial in range(30):
            # Every third trial, L's join column holds only variables:
            # every left row is symbolic, so each one pairs with all of
            # R (the fallback).
            variable_column = 1 if trial % 3 == 0 else None
            tables = {
                "L": _keyed_table(rng, rng.randint(1, 8), variable_column),
                "R": _keyed_table(rng, rng.randint(1, 10)),
            }
            k = rng.choice(("a", 1, True))
            for query in (
                sel(prod(rel("L", 3), rel("R", 3)), col_eq(1, 3)),
                sel(
                    prod(rel("L", 3), rel("R", 3)),
                    col_eq_const(0, k) & col_eq(1, 3),
                ),
                proj(
                    sel(
                        prod(rel("L", 3), rel("R", 3)),
                        col_eq(1, 3) & col_eq(2, 5),
                    ),
                    [0, 4],
                ),
            ):
                self._check_join(query, tables)
        assert (0,) in index_lookups and (1,) in index_lookups
        assert (0, 2) in index_lookups  # two-column probe keys


class TestPointReadCost:
    """A warm point read costs its matches, not the relation: growing
    the relation from n to 2n keys, with the rows per key fixed, leaves
    the per-row calls of a point selection and a point join flat."""

    PER_KEY = 6

    def _tables(self, keys):
        left = CTable(
            [
                ((f"k{k}", f"j{k}"), ne(X, r) if r % 2 else TOP)
                for k in range(keys)
                for r in range(self.PER_KEY)
            ],
            arity=2,
        )
        right = CTable(
            [
                ((f"j{k}", r), eq(Y, r) if r % 3 else TOP)
                for k in range(keys)
                for r in range(self.PER_KEY)
            ],
            arity=2,
        )
        return {"L": left, "R": right}

    def _calls(self, monkeypatch, query, keys):
        from repro.physical import execute_physical
        from repro.physical import operators

        tables = self._tables(keys)
        plan = plan_for_query(query, tables, optimize=True)
        lowered = lower(plan, collect_stats(tables))
        warm = execute_physical(lowered, tables)
        counts = {"conj": 0, "_constant_key": 0}

        def counting(name):
            original = getattr(operators, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in counts:
                patch.setattr(operators, name, counting(name))
            answered = execute_physical(lowered, tables)
        assert answered == warm == execute_plan(plan, tables)
        assert len(answered) > 0
        return counts

    @pytest.mark.parametrize(
        "query",
        [
            sel(rel("L", 2), col_eq_const(0, "k7")),
            proj(
                sel(
                    prod(rel("L", 2), rel("R", 2)),
                    col_eq_const(0, "k7") & col_eq(1, 2),
                ),
                [0, 3],
            ),
        ],
        ids=["selection", "join"],
    )
    def test_calls_do_not_grow_with_the_relation(self, monkeypatch, query):
        small = self._calls(monkeypatch, query, 200)
        large = self._calls(monkeypatch, query, 400)
        for name in small:
            assert large[name] <= small[name] + 4, (name, small, large)

    def test_point_reads_see_every_write(self):
        session = Engine().session(**self._tables(20))
        point = sel(rel("L", 2), col_eq_const(0, "k3"))
        fresh = sel(rel("L", 2), col_eq_const(0, "new"))

        def check(query, expected_rows):
            answered = session.query(query).collect()
            reference = execute_plan(
                plan_for_query(query, {"L": session.table("L")}),
                {"L": session.table("L")},
            )
            assert_structurally_identical(reference, answered, repr(query))
            assert len(answered) == expected_rows

        check(point, self.PER_KEY)  # warms L's index on column 0
        check(fresh, 0)
        session.insert("L", [(("new", "j3"), TOP), (("k3", "j9"), ne(X, 9))])
        check(point, self.PER_KEY + 1)
        check(fresh, 1)
        session.delete("L", [(("new", "j3"), TOP), (("k3", "j9"), ne(X, 9))])
        check(point, self.PER_KEY)
        check(fresh, 0)


class TestLateMaterialization:
    """A projection directly over a hash join hands the join its
    columns: the join builds only those, the projection over it keeps
    the identity columns, and the answers stay structurally identical
    to the oracle's."""

    JOIN = sel(prod(rel("L", 3), rel("R", 3)), col_eq(1, 3))
    RESIDUAL = sel(prod(rel("L", 3), rel("R", 3)), col_eq(1, 3) & col_ne(0, 5))
    COLUMNS = ([], [4], [1, 1], [0, 1, 2], [3, 5], [4, 0], [0, 3])

    @staticmethod
    def _joins(lowered):
        return [op for op in lowered.walk() if isinstance(op, HashJoinOp)]

    def test_output_is_set_exactly_over_a_hash_join(self):
        tables = {"L": mixed_table(), "R": mixed_table(5)}
        join = sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2))
        plan = plan_for_query(proj(join, [0, 3]), tables, optimize=True)
        lowered = lower(plan, collect_stats(tables))
        assert isinstance(lowered, ProjectOp) and lowered.columns == (0, 1)
        (op,) = self._joins(lowered)
        assert lowered.child is op and op.output == (0, 3) and op.arity == 2
        assert "out=[0,3]" in explain_physical(lowered)
        # A bare join, and a join under a filter, keep every pair column.
        for query in (join, proj(sel(join, col_ne(0, 3)), [0, 3])):
            lowered = lower(plan_for_query(query, tables, optimize=False))
            (op,) = self._joins(lowered)
            assert op.output is None and op.arity == 4
            assert "out=" not in explain_physical(lowered)
        # Over a product, or a filter over a product, nothing narrows.
        for query in (
            proj(prod(rel("L", 2), rel("R", 2)), [0, 3]),
            proj(sel(prod(rel("L", 2), rel("R", 2)), col_ne(1, 2)), [0, 3]),
        ):
            lowered = lower(plan_for_query(query, tables, optimize=False))
            assert isinstance(lowered, ProjectOp)
            assert lowered.columns == (0, 3)
            assert isinstance(lowered.child, (ProductOp, FilterOp))
            assert not self._joins(lowered)

    def _check(self, query, tables, context):
        from repro.physical import execute_physical

        plan = plan_for_query(query, tables, optimize=True)
        for simplify in (False, True):
            reference = execute_plan(plan, tables, simplify_conditions=simplify)
            lowered = lower(plan, collect_stats(tables))
            (op,) = self._joins(lowered)
            assert op.output is not None, query
            answered = execute_physical(
                lowered, tables, simplify_conditions=simplify
            )
            assert_structurally_identical(
                reference,
                answered,
                f"{context} {query!r} simplify={simplify}",
            )

    def test_answers_match_the_oracle(self):
        rng = random.Random(2701)
        for trial in range(12):
            tables = {
                "L": _keyed_table(rng, rng.randint(1, 9), 1 if trial % 4 == 0 else None),
                "R": _keyed_table(rng, rng.randint(1, 9)),
            }
            for join in (self.JOIN, self.RESIDUAL):
                for columns in self.COLUMNS:
                    self._check(proj(join, columns), tables, f"trial={trial}")

    def test_repeated_row_objects_group_like_the_oracle(self):
        # One CRow object occurs several times: each occurrence is a
        # member of its group, whether the projection is fused into a
        # join or is the identity over a scan.
        shared = CRow((Const(1), X, Const("a")), eq(X, 1))
        other = CRow((Const(2), Const(1), Const("b")), ne(Y, 2))
        left = CTable([shared, other, shared, shared], arity=3)
        right = CTable([shared, other, shared], arity=3)
        tables = {"L": left, "R": right}
        for columns in ([0, 3], [2], [0, 1, 2], []):
            self._check(proj(self.JOIN, columns), tables, "repeated")
        identity = proj(rel("L", 3), [0, 1, 2])
        plan = plan_for_query(identity, tables, optimize=False)
        lowered = lower(plan)
        assert isinstance(lowered, ProjectOp)
        assert_structurally_identical(
            execute_plan(plan, tables),
            execute_plan_vectorized(plan, tables),
            "identity over a scan",
        )
        # A group's position is its first member: the repeats are not
        # new groups.
        ctx = ExecContext(tables)
        scanned = lowered.child.compute(ctx, ())
        batch, positions = lowered.compute_tracked(ctx, (scanned,))
        assert list(positions) == [0, 1]
        assert batch.rows == (shared, other)

    def test_unnormalized_or_is_disjoined(self):
        # A raw Or with a repeated child: disj() folds it to the child,
        # so even a group of one must not keep its condition as is.
        atom = eq(X, 1)
        raw = Or((atom, atom))  # interned-ok: a raw, un-normalized Or
        assert disj(raw) is not raw
        left = CTable([((1, 2, 3), raw), ((4, 2, 5), TOP)], arity=3)
        right = CTable([((6, 2, 7), TOP), ((8, 9, 0), raw)], arity=3)
        tables = {"L": left, "R": right}
        for columns in ([0, 3], [5, 4, 3, 2, 1, 0], [1]):
            self._check(proj(self.JOIN, columns), tables, "raw Or")
        identity = proj(rel("L", 3), [0, 1, 2])
        plan = plan_for_query(identity, tables, optimize=False)
        answered = execute_plan_vectorized(plan, tables)
        assert answered.rows[0].condition is atom
        assert_structurally_identical(
            execute_plan(plan, tables), answered, "identity over a scan"
        )


class TestBucketComposition:
    """A pure equijoin composes a probe row's condition with a whole
    bucket once per (condition, bucket key) and drops the ``false``
    pairs; the answers stay structurally identical to the oracle's."""

    ATOM = eq(Y, "b")
    RAW = Or((ATOM, ATOM))  # interned-ok: a raw, un-normalized Or
    #: One row object, placed several times in each table.
    SHARED = CRow((Const("s"), Const(1), X), eq(X, 1))
    #: x = 1 against x != 1 conjoins to false; against x = 2 it does
    #: only once simplified.
    CONDITIONS = (TOP, TOP, eq(X, 1), ne(X, 1), eq(X, 2), ne(Y, "a"), RAW)
    #: R as it is, and under a filter that drops no constant row.
    RIGHTS = {
        "scanned": rel("R", 3),
        "filtered": sel(rel("R", 3), col_ne_const(2, "z")),
    }

    @staticmethod
    def _joins(right):
        pair = prod(rel("L", 3), right)
        return (
            sel(pair, col_eq(1, 3)),
            sel(pair, col_eq(1, 3) & col_eq(2, 5)),  # a two-column key
            # Narrowed output; it reads every column of R, so no
            # projection is pushed onto R.
            proj(sel(pair, col_eq(1, 3)), [0, 5, 4]),
        )

    def _table(self, rng, rows):
        """Keys repeat under different conditions, some key entries are
        variables, and :attr:`SHARED` recurs."""
        entries = []
        for _ in range(rows):
            if rng.random() < 0.15:
                entries.append(self.SHARED)
                continue
            values = tuple(
                rng.choice((X, Y)) if rng.random() < 0.15 else rng.choice(("s", 1, 2))
                for _ in range(3)
            )
            entries.append((values, rng.choice(self.CONDITIONS)))
        # Two probe rows share a key but not a condition.
        entries.append((("t", 1, 2), eq(X, 1)))
        entries.append((("t", 1, 2), ne(X, 1)))
        return CTable(entries, arity=3)

    def _check(self, query, tables, right_class, context):
        from repro.physical import execute_physical

        plan = plan_for_query(query, tables, optimize=True)
        for simplify in (False, True):
            reference = execute_plan(plan, tables, simplify_conditions=simplify)
            lowered = lower(plan, collect_stats(tables))
            (op,) = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
            assert isinstance(op.right, right_class), query
            answered = execute_physical(
                lowered, tables, simplify_conditions=simplify
            )
            assert_structurally_identical(
                reference,
                answered,
                f"{context} {query!r} simplify={simplify}",
            )

    def test_answers_match_the_oracle(self, monkeypatch):
        from repro.physical.operators import _PairComposer

        dropped = []  # per bucket call: how many of its pairs were false
        original = _PairComposer.bucket

        def spy(composer, left_condition, key, matched, right_rows):
            found = original(composer, left_condition, key, matched, right_rows)
            dropped.append(len(matched) - len(found))
            return found

        monkeypatch.setattr(_PairComposer, "bucket", spy)
        rng = random.Random(2801)
        for trial in range(16):
            tables = {
                "L": self._table(rng, rng.randint(2, 10)),
                "R": self._table(rng, rng.randint(2, 10)),
            }
            for kind, right in self.RIGHTS.items():
                right_class = ScanOp if kind == "scanned" else FilterOp
                for join in self._joins(right):
                    self._check(join, tables, right_class, f"trial={trial} {kind}")
        # The per-bucket route ran, and dropped some false pairs.
        assert dropped and any(dropped)


class TestScannedBuildAndProjectBatches:
    """A scanned build side is hashed by its table's cached column
    index, not re-indexed per call; a projection passes an all-singleton
    batch through and merges duplicates in row order."""

    @staticmethod
    def _spy(monkeypatch):
        """Record ``_KeyIndex.over`` columns and each bucket composed."""
        from repro.physical import operators

        overs, buckets = [], []
        over = operators._KeyIndex.over.__func__
        bucket = operators._PairComposer.bucket

        def counting_over(cls, columns, refs, rows):
            overs.append(tuple(columns))
            return over(cls, columns, refs, rows)

        def recording_bucket(composer, condition, key, matched, rows):
            buckets.append((key, matched))
            return bucket(composer, condition, key, matched, rows)

        monkeypatch.setattr(operators._KeyIndex, "over", classmethod(counting_over))
        monkeypatch.setattr(operators._PairComposer, "bucket", recording_bucket)
        return overs, buckets

    def test_scanned_build_side_reads_the_column_index(self, monkeypatch):
        from repro.physical import execute_physical

        tables = {"L": mixed_table(6), "R": mixed_table(12)}
        overs, buckets = self._spy(monkeypatch)
        for right, scanned in (
            (rel("R", 2), True),
            (sel(rel("R", 2), col_ne_const(1, 9)), False),
        ):
            query = sel(prod(rel("L", 2), right), col_eq(1, 2))
            plan = plan_for_query(query, tables, optimize=True)
            reference = execute_plan(plan, tables)
            lowered = lower(plan, collect_stats(tables))
            (op,) = [op for op in lowered.walk() if isinstance(op, HashJoinOp)]
            del overs[:], buckets[:]
            answered = execute_physical(lowered, tables)
            assert_structurally_identical(reference, answered, repr(query))
            assert buckets
            if not scanned:
                # A filtered build side is indexed once per call.
                assert overs == [op.right_keys]
                continue
            # A scanned build side: no index is built, and every bucket
            # is the scanned table's cached one.
            assert overs == []
            exact, _ = tables["R"].column_index(op.right_keys)
            assert all(matched is exact[key] for key, matched in buckets)

    @staticmethod
    def _project(rows, columns):
        table = CTable(rows, arity=2)
        op = ProjectOp(ScanOp("T", 2), columns)
        ctx = ExecContext({"T": table})
        scanned = op.child.compute(ctx, ())
        return table, op.compute_tracked(ctx, (scanned,))

    def test_all_singleton_batch_passes_its_rows_through(self):
        rows = [((i, i % 3), eq(X, i) if i % 2 else TOP) for i in range(7)]
        table, (batch, positions) = self._project(rows, (0, 1))
        assert list(positions) == list(range(7))
        assert len(batch.rows) == len(table.rows)
        assert all(out is row for out, row in zip(batch.rows, table.rows))

    def test_duplicates_merge_in_row_order(self):
        a, b, c = eq(X, 1), ne(Y, 2), eq(Y, 3)
        rows = [((1, 2), a), ((3, 4), b), ((1, 2), c), ((5, 6), TOP), ((3, 4), a)]
        for columns in ((0, 1), (0,)):
            table, (batch, positions) = self._project(rows, columns)
            assert list(positions) == [0, 1, 3]
            assert [row.values for row in batch.rows] == [
                tuple(table.rows[first].values[c] for c in columns)
                for first in positions
            ]
            assert [row.condition for row in batch.rows] == [
                disj(a, c), disj(b, a), TOP
            ]
            assert batch.rows[1].condition.children == (b, a)
            plan = plan_for_query(proj(rel("T", 2), list(columns)), {"T": table})
            assert_structurally_identical(
                execute_plan(plan, {"T": table}),
                execute_plan_vectorized(plan, {"T": table}),
                f"project {columns}",
            )
