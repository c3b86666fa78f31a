"""Tests for the Engine/Session/Dataset facade and its legacy shims."""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import pytest

from repro import (
    CTable,
    Dataset,
    Engine,
    ExecutionConfig,
    Instance,
    OrSet,
    OrSetRow,
    OrSetTable,
    PCTable,
    QRow,
    QTable,
    Session,
    Var,
    apply_query_to_ctable,
    certain_answer_symbolic,
    certain_answer_table,
    col_eq,
    col_eq_const,
    ctable_of,
    ctables_equivalent,
    default_engine,
    eq,
    lineage_of,
    ne,
    possible_answer,
    possible_answer_symbolic,
    possible_answer_table,
    proj,
    prod,
    rel,
    sel,
    translate_query,
    tuple_probability_lineage,
    tuple_probability_naive,
)
from repro.core.idatabase import IDatabase
from repro.errors import (
    NoWorldsError,
    ProbabilityError,
    QueryError,
    TableError,
)
from repro.logic.syntax import TOP

X, Y = Var("x"), Var("y")


@pytest.fixture
def ctable() -> CTable:
    return CTable([((1, X), eq(X, 2)), ((3, 4), TOP)])


@pytest.fixture
def intro_pctable() -> PCTable:
    """An intro-style pc-table: two independent choice variables."""
    return PCTable(
        [((1, X), TOP), ((2, Y), eq(Y, 20))],
        {
            "x": {10: Fraction(1, 2), 11: Fraction(1, 2)},
            "y": {20: Fraction(1, 4), 21: Fraction(3, 4)},
        },
        arity=2,
    )


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.optimize is True
        assert config.simplify_conditions is False
        assert config.plan_cache_size > 0

    def test_with_options_none_keeps_setting(self):
        config = ExecutionConfig(optimize=False)
        assert config.with_options(optimize=None) is config
        assert config.with_options(optimize=True).optimize is True

    def test_unknown_option_rejected(self, ctable):
        with pytest.raises(TypeError):
            ExecutionConfig().with_options(optimise=True)
        # Options of the removed thread-pool executor fail loudly.  They
        # are spelled in pieces because the names are otherwise gone
        # from the codebase.
        workers, size = "num_" "workers", "mor" "sel_size"
        with pytest.raises(TypeError, match=workers):
            Engine(**{workers: 2})
        session = Engine().session(V=ctable)
        with pytest.raises(TypeError, match=size):
            session.prepare(rel("V", 2), **{size: 4})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(plan_cache_size=-1)
        with pytest.raises(ValueError):
            ExecutionConfig(max_candidates=0)
        expected = "executor must be 'interpreted' or 'vectorized'"
        with pytest.raises(ValueError, match=expected):
            ExecutionConfig(executor="parallel")

    def test_engine_kwargs_shortcut(self):
        engine = Engine(optimize=False, simplify_conditions=True)
        assert engine.config.optimize is False
        assert engine.config.simplify_conditions is True


class TestEngineAdHoc:
    def test_execute_matches_translate_query(self, ctable):
        query = proj(sel(rel("V", 2), col_eq_const(0, 1)), [1])
        engine = Engine()
        via_engine = engine.execute(query, {"V": ctable}, optimize=False)
        via_shim = translate_query(query, {"V": ctable})
        assert via_engine == via_shim

    def test_optimized_execute_is_mod_equal(self, ctable):
        query = proj(
            sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]
        )
        engine = Engine()
        plain = engine.execute(query, {"V": ctable}, optimize=False)
        optimized = engine.execute(query, {"V": ctable}, optimize=True)
        assert ctables_equivalent(plain, optimized)

    def test_execute_single_binds_one_name(self, ctable):
        query = proj(rel("V", 2), [0])
        engine = Engine()
        assert engine.execute_single(query, ctable) == apply_query_to_ctable(
            query, ctable
        )


class TestMultiRelationGuard:
    """apply_query_to_ctable no longer silently self-joins distinct names."""

    def test_two_names_raise(self, ctable):
        query = prod(rel("R", 2), rel("S", 2))
        with pytest.raises(QueryError) as excinfo:
            apply_query_to_ctable(query, ctable)
        message = str(excinfo.value)
        assert "'R'" in message and "'S'" in message
        assert "translate_query" in message

    def test_single_name_still_works(self, ctable):
        query = proj(
            sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]
        )
        answered = apply_query_to_ctable(query, ctable)
        assert answered.arity == 2

    def test_table_level_answers_reject_two_names(self, ctable):
        query = prod(rel("R", 2), rel("S", 2))
        with pytest.raises(QueryError):
            certain_answer_table(query, ctable, ctable.witness_domain())
        with pytest.raises(QueryError):
            possible_answer_table(query, ctable, ctable.witness_domain())

    def test_arity_mismatch_still_checked(self, ctable):
        with pytest.raises(QueryError):
            apply_query_to_ctable(rel("V", 3), ctable)


class TestSessionRegistry:
    def test_ctable_passthrough(self, ctable):
        session = Engine().session(V=ctable)
        assert session.table("V") is ctable
        assert session.source("V") is ctable

    def test_qtable_coerced_once(self):
        qtable = QTable([QRow((1, 2), False), QRow((3, 4), True)])
        session = Engine().session(Q=qtable)
        coerced = session.table("Q")
        assert coerced is session.table("Q")  # cached, not re-coerced
        assert ctables_equivalent(coerced, ctable_of(qtable))

    def test_four_representation_systems_in_one_session(self):
        # A c-table, a ?-table, an or-set table and a pc-table side by
        # side: each is coerced once, the join across the c-table and
        # the ?-table plans once, and every answer equals the same plan
        # run flat over the registry's coerced tables.
        vtable = CTable(
            [((i % 5, i % 3), ne(X, i % 3)) for i in range(8)],
            arity=2,
            domains={"x": (0, 1, 2, 3)},
        )
        qtable = QTable([QRow((i % 3, i % 2), i % 2 == 0) for i in range(4)])
        orset = OrSetTable(
            [
                OrSetRow((i % 3, OrSet((i % 2, 2))), i == 0)
                for i in range(4)
            ],
            arity=2,
        )
        pctable = PCTable(
            [((i % 2, i % 3), eq(Var(f"p{i % 2}"), 1)) for i in range(3)],
            {
                f"p{i}": {0: Fraction(1, 3), 1: Fraction(2, 3)}
                for i in range(2)
            },
            arity=2,
        )
        session = Engine().session(V=vtable, Q=qtable, O=orset, P=pctable)
        coerced = {name: session.table(name) for name in session.names()}
        queries = [
            proj(sel(prod(rel("V", 2), rel("Q", 2)), col_eq(1, 2)), [0, 3]),
            proj(sel(rel("O", 2), col_eq_const(0, 1)), [1]),
            proj(rel("P", 2), [0]),
        ]
        for query in queries:
            prepared = session.prepare(query)
            assert session.prepare(query).plan() is prepared.plan()
            flat = translate_query(
                query,
                {name: coerced[name] for name in query.relation_names()},
                optimize=True,
            )
            assert prepared.execute() == flat
        for name, table in coerced.items():
            assert session.table(name) is table

    def test_orset_table_coerced(self):
        orset = OrSetTable([OrSetRow((1, OrSet((2, 3))))])
        session = Engine().session(O=orset)
        assert ctables_equivalent(session.table("O"), ctable_of(orset))

    def test_instance_registered_as_constant_ctable(self):
        instance = Instance([(1, 2), (3, 4)])
        session = Engine().session(R=instance)
        assert session.table("R").is_v_table()
        assert len(session.table("R")) == 2

    def test_pctable_contributes_distributions(self, intro_pctable):
        session = Engine().session(V=intro_pctable)
        assert session.table("V") is intro_pctable.table
        assert "x" in session.distributions()

    def test_conflicting_distributions_raise(self, intro_pctable):
        other = PCTable(
            [((9, X), TOP)],
            {"x": {10: Fraction(1, 4), 11: Fraction(3, 4)}},
            arity=2,
        )
        session = Engine().session(V=intro_pctable, W=other)
        with pytest.raises(ProbabilityError):
            session.distributions()

    def test_unregisterable_object_rejected(self):
        with pytest.raises(TableError):
            Engine().session().register("V", object())

    def test_unknown_name_raises(self, ctable):
        session = Engine().session(V=ctable)
        with pytest.raises(QueryError):
            session.table("W")
        with pytest.raises(QueryError):
            session.prepare(rel("W", 2))

    def test_coerced_tables_stay_independent(self):
        """Embedding variables are freshened per registration.

        ``ctable_of`` numbers its synthetic variables from zero for
        every input, so two separately registered ?-tables would share
        ``q0`` and have their optional rows appear/disappear together.
        """
        from repro.algebra import diff

        a = QTable([QRow((1,), True)])
        b = QTable([QRow((1,), True)])
        session = Engine().session(A=a, B=b)
        assert not (
            session.table("A").variables() & session.table("B").variables()
        )
        # A world with A's row present and B's absent makes (1,) possible.
        dataset = session.query(diff(rel("A", 1), rel("B", 1)))
        assert (1,) in dataset.possible(method="worlds")
        assert (1,) in dataset.possible()

    def test_codd_nulls_stay_independent(self):
        """Codd nulls are independent unknowns even across tables.

        ``fresh_codd_table`` numbers nulls from zero, so two Codd
        tables both contain ``x0``; a product over them must still
        admit worlds where the two nulls differ.
        """
        from repro.tables.codd import fresh_codd_table

        a = fresh_codd_table([[None]], domains={"x0": (0, 1)})
        b = fresh_codd_table([[None]], domains={"x0": (0, 1)})
        session = Engine().session(A=a, B=b)
        worlds = session.query(prod(rel("A", 1), rel("B", 1))).collect().mod()
        assert len(set(worlds)) == 4  # 2 independent nulls, not 2 worlds

    def test_register_returns_self_for_chaining(self, ctable):
        session = Engine().session()
        assert session.register("V", ctable) is session
        assert "V" in session
        assert session.names() == ("V",)


class TestDataset:
    def test_query_accepts_strings(self, ctable):
        session = Engine().session(V=ctable)
        via_text = session.query("pi[1](V)").collect()
        via_ast = session.query(proj(rel("V", 2), [0])).collect()
        assert via_text == via_ast

    def test_collect_is_memoized(self, ctable):
        dataset = Engine().session(V=ctable).query("pi[1](V)")
        assert dataset.collect() is dataset.collect()

    def test_collect_matches_apply_query_to_ctable(self, ctable):
        query = proj(sel(rel("V", 2), col_eq_const(0, 1)), [1])
        collected = Engine().session(V=ctable).query(query).collect()
        reference = apply_query_to_ctable(query, ctable, optimize=True)
        assert ctables_equivalent(collected, reference)

    def test_certain_symbolic_matches_flat_function(self, ctable):
        query = proj(rel("V", 2), [0])
        dataset = Engine().session(V=ctable).query(query)
        assert dataset.certain() == certain_answer_symbolic(query, ctable)

    def test_possible_symbolic_matches_flat_function(self, ctable):
        query = proj(rel("V", 2), [0])
        dataset = Engine().session(V=ctable).query(query)
        assert dataset.possible() == possible_answer_symbolic(query, ctable)

    def test_worlds_method_matches_table_functions(self, ctable):
        query = proj(rel("V", 2), [0])
        domain = ctable.witness_domain()
        dataset = Engine().session(V=ctable).query(query)
        assert dataset.certain(
            method="worlds", domain=domain
        ) == certain_answer_table(query, ctable, domain)
        assert dataset.possible(
            method="worlds", domain=domain
        ) == possible_answer_table(query, ctable, domain)

    def test_unknown_method_rejected(self, ctable):
        dataset = Engine().session(V=ctable).query("pi[1](V)")
        with pytest.raises(ValueError):
            dataset.certain(method="magic")

    def test_mismatched_method_options_rejected(self, ctable):
        dataset = Engine().session(V=ctable).query("pi[1](V)")
        with pytest.raises(ValueError):
            dataset.certain(domain=ctable.witness_domain())  # symbolic
        with pytest.raises(ValueError):
            dataset.possible(method="worlds", max_candidates=5)

    def test_distribution_conflicts_stay_out_of_plain_queries(
        self, intro_pctable
    ):
        """A pc-table name clash must not break unrelated queries.

        The merge (and its conflict check) is deferred to the
        probabilistic readings; plain collects over other relations keep
        working.
        """
        clashing = PCTable(
            [((9, X), TOP)],
            {"x": {10: Fraction(1, 4), 11: Fraction(3, 4)}},
            arity=2,
        )
        plain = CTable([(1, 2)], arity=2)
        session = Engine().session(V=intro_pctable, W=clashing, U=plain)
        assert len(session.query("pi[1](U)").collect()) == 1
        with pytest.raises(ProbabilityError):
            session.query("pi[1](U)").probability((1,))

    def test_explain_renders_plan(self, ctable):
        query = proj(
            sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]
        )
        text = Engine().session(V=ctable).query(query).explain()
        assert "rows≈" in text and "scan V" in text

    def test_lineage_matches_lineage_of(self, intro_pctable):
        query = proj(rel("V", 2), [0])
        dataset = Engine().session(V=intro_pctable).query(query)
        assert dataset.lineage((1,)) == lineage_of(
            query, intro_pctable, (1,), optimize=True
        )

    def test_probability_matches_flat_solvers(self, intro_pctable):
        query = proj(rel("V", 2), [1])
        dataset = Engine().session(V=intro_pctable).query(query)
        expected = tuple_probability_lineage(query, intro_pctable, (20,))
        assert dataset.probability((20,)) == expected
        assert dataset.probability((20,)) == tuple_probability_naive(
            query, intro_pctable, (20,)
        )

    def test_probability_without_distributions_raises(self, ctable):
        dataset = Engine().session(V=ctable).query("pi[2](V)")
        with pytest.raises(ProbabilityError):
            dataset.probability((2,))

    def test_lineage_arity_checked(self, intro_pctable):
        dataset = Engine().session(V=intro_pctable).query("pi[1](V)")
        with pytest.raises(QueryError):
            dataset.lineage((1, 2))

    def test_to_pctable_round_trip(self, intro_pctable):
        query = proj(rel("V", 2), [1])
        dataset = Engine().session(V=intro_pctable).query(query)
        answered = dataset.to_pctable()
        from repro import answer_pctable

        reference = answer_pctable(query, intro_pctable, optimize=True)
        assert answered.tuple_probability((20,)) == reference.tuple_probability(
            (20,)
        )

    def test_dataset_is_a_consistent_snapshot(self, intro_pctable):
        """Once collected, a dataset answers for one registry state.

        Mixing a memoized answer table with *live* distributions after a
        re-register would yield probabilities true of neither state; the
        distributions are snapshotted with the answer instead.
        """
        session = Engine().session(V=intro_pctable)
        dataset = session.query("pi[2](V)")
        before = dataset.probability((20,))
        reweighted = PCTable(
            intro_pctable.table,
            {
                "x": {10: Fraction(1, 2), 11: Fraction(1, 2)},
                "y": {20: Fraction(3, 4), 21: Fraction(1, 4)},
            },
        )
        session.register("V", reweighted)
        assert dataset.probability((20,)) == before  # snapshot holds
        fresh = session.query("pi[2](V)").probability((20,))
        assert fresh != before  # a new dataset sees the new state

    def test_terminals_share_one_evaluation(self, ctable):
        dataset = Engine().session(V=ctable).query("pi[1](V)")
        collected = dataset.collect()
        dataset.certain()
        dataset.possible()
        dataset.lineage((1,))
        assert dataset.collect() is collected


class TestNaiveWorldOracle:
    """The table-level answers now derive from ``q̄(T)``; cross-check
    against per-world classical evaluation, the independent oracle that
    does not touch the lifted algebra at all."""

    def test_random_tables_agree_with_per_world_evaluation(self):
        import random

        from repro import certain_answer, possible_answer

        rng = random.Random(31)
        queries = [
            proj(rel("V", 2), [0]),
            sel(rel("V", 2), col_eq(0, 1)),
            proj(sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]),
        ]
        for trial in range(12):
            rows = []
            for index in range(rng.randrange(1, 4)):
                values = tuple(
                    rng.choice([rng.randrange(3), X, Y]) for _ in range(2)
                )
                rows.append((values, eq(X, rng.randrange(2))))
            table = CTable(rows, arity=2)
            domain = table.witness_domain()
            for query in queries:
                # certain_answer/possible_answer apply the query per
                # world with the classical evaluator — no q̄ involved.
                naive_worlds = table.mod_over(domain)
                assert certain_answer_table(
                    query, table, domain
                ) == certain_answer(query, naive_worlds), (trial, query)
                assert possible_answer_table(
                    query, table, domain
                ) == possible_answer(query, naive_worlds), (trial, query)


class TestZeroWorldsSymmetry:
    """possible = ∅ over zero worlds; certain raises.  Pinned both ways."""

    def test_possible_answer_over_empty_mod_is_empty(self):
        empty = IDatabase((), arity=1)
        assert len(possible_answer(rel("V", 1), empty)) == 0

    def test_possible_answer_table_unsat_global_is_empty(self):
        table = CTable(
            [(X,)], domains={"x": [1, 2]}, global_condition=eq(X, 3)
        )
        answer = possible_answer_table(rel("V", 1), table)
        assert len(answer) == 0

    def test_certain_answer_table_unsat_global_raises(self):
        table = CTable(
            [(X,)], domains={"x": [1, 2]}, global_condition=eq(X, 3)
        )
        with pytest.raises(NoWorldsError):
            certain_answer_table(rel("V", 1), table)

    def test_constant_query_still_quantifies_over_input_worlds(self):
        """A ConstRel query never scans the table, but the zero-worlds
        contract must still gate on Mod(table)."""
        from repro import ConstRel

        unsat = CTable(
            [((1,),)], arity=1, domains={"x": (0,)},
            global_condition=eq(X, 1),
        )
        query = ConstRel(Instance([(7,)], arity=1))
        with pytest.raises(NoWorldsError):
            certain_answer_table(query, unsat)
        assert len(possible_answer_table(query, unsat)) == 0
        sat = CTable([((1,),)], arity=1, domains={"x": (0,)})
        assert certain_answer_table(query, sat) == Instance([(7,)])
        assert possible_answer_table(query, sat) == Instance([(7,)])

    def test_dataset_mirrors_the_asymmetry(self):
        table = CTable(
            [(X,)], domains={"x": [1, 2]}, global_condition=eq(X, 3)
        )
        dataset = Engine().session(V=table).query(rel("V", 1))
        assert len(dataset.possible(method="worlds")) == 0
        with pytest.raises(NoWorldsError):
            dataset.certain(method="worlds")


class TestSessionConcurrency:
    """Sessions are usable from threads: shared caches under races."""

    def test_hammer_one_session_from_worker_threads(self):
        table = CTable(
            [((i % 3, i % 5), ne(X, i % 2)) for i in range(24)]
            + [((X, 0), eq(X, 1)), ((1, Y), ne(Y, 2))],
            arity=2,
        )
        join = proj(sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3])
        engine = Engine(executor="vectorized")
        session = engine.session(V=table)
        queries = [
            join,
            proj(rel("V", 2), [1, 0]),
            sel(rel("V", 2), col_eq_const(0, 1)),
        ]
        references = {
            query: Engine(executor="interpreted")
            .session(V=table)
            .query(query)
            .collect()
            for query in queries
        }
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_id):
            rng = random.Random(worker_id)
            barrier.wait()
            try:
                for step in range(30):
                    if worker_id == 0 and step % 10 == 5:
                        # Re-register the same rows: invalidates the
                        # caches without changing any answer.
                        session.register("V", table)
                        continue
                    query = rng.choice(queries)
                    answered = session.query(query).collect()
                    assert answered == references[query], (worker_id, step)
            except Exception as error:  # noqa: BLE001 - collected for report
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert session.query(join).collect() == references[join]


class TestDefaultEngine:
    def test_default_engine_is_a_singleton(self):
        assert default_engine() is default_engine()

    def test_set_default_engine_swaps_and_resets(self):
        from repro import set_default_engine

        original = default_engine()
        replacement = Engine(optimize=False)
        set_default_engine(replacement)
        try:
            assert default_engine() is replacement
        finally:
            set_default_engine(original)
        assert default_engine() is original

    def test_session_types_exported(self, ctable):
        session = default_engine().session(V=ctable)
        assert isinstance(session, Session)
        assert isinstance(session.query("pi[1](V)"), Dataset)
