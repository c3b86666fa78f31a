"""Incremental view maintenance: the delta ≡ rerun differential suite.

The maintained answer of every standing prepared query must be
**structurally identical** — same rows, same interned condition
objects, same order — to fully re-executing the view's frozen plan on
the mutated tables, under every executor mode.  That is the contract
the signed-delta propagation of :mod:`repro.ivm` is pinned to here:

- 200+ seeded insert/delete/update sequences, refreshed and compared
  against cold re-executions (interpreted and vectorized, the latter
  also from 1, 2 and 8 concurrent threads) plus a symbolic
  Mod-equivalence check against a freshly planned execution;
- batching invariance: one-by-one mutations, one coalesced batch, and
  a cold rerun all land on the identical answer;
- insert-then-delete cancellation restores the prior answer
  byte-identically;
- the result cache is re-populated in place by ``refresh`` and never
  serves a stale entry across mutations;
- after any seeded sequence the session's statistics equal a
  from-scratch recomputation, and every successful write gives the
  relation a new cache-key version even when its statistics are equal.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import (
    BooleanCTable,
    ConstRel,
    CRow,
    CTable,
    Engine,
    TableError,
    Var,
    col_eq,
    col_eq_const,
    col_ne_const,
    diff,
    eq,
    intersect,
    ne,
    prod,
    proj,
    rel,
    sel,
    union,
)
from repro.core.instance import Instance
from repro.ctalgebra.plan import (
    TableStats,
    execute_plan,
)
from repro.engine import session as session_module
from repro.engine.config import ExecutionConfig
from repro.errors import PlanVerificationError
from repro.logic.atoms import BoolVar, Const
from repro.logic.syntax import BOTTOM, TOP, conj
from repro.obs.names import (
    IVM_DELTA_ROWS_TOTAL,
    IVM_MUTATIONS_TOTAL,
    IVM_REFRESH_TOTAL,
)
from repro.ivm.view import MaterializedView
from repro.physical import execute_plan_vectorized
from repro.physical.operators import (
    ConstScanOp,
    DifferenceOp,
    EmptyOp,
    FilterOp,
    HashJoinOp,
    IntersectOp,
    ProductOp,
    ProjectOp,
    ScanOp,
    UnionOp,
)
from repro.tables.ctable import coerce_row

from harness import (
    CHURN_UPDATES,
    DEFAULT_TABLES,
    UpdateProfile,
    apply_random_updates,
    assert_delta_equals_rerun,
    assert_structurally_identical,
    random_case,
    random_fresh_row,
    renamed_constants,
)

X, Y = Var("x"), Var("y")

JOIN = proj(sel(prod(rel("V", 2), rel("W", 2)), col_eq(1, 2)), [0, 3])
#: JOIN over a filtered W that keeps every row the tests write.
JOIN_FILTERED_RIGHT = proj(
    sel(prod(rel("V", 2), sel(rel("W", 2), col_ne_const(1, 99))), col_eq(1, 2)),
    [0, 3],
)


def seeded_session(seed, engine=None, **prepare_options):
    """One (session, prepared, rng) triple over a random case."""
    rng = random.Random(seed)
    query, tables = random_case(rng)
    engine = engine or Engine()
    session = engine.session(**tables)
    prepared = session.prepare(query, **prepare_options)
    return session, prepared, rng


def rerun_from_threads(prepared, workers):
    """Cold vectorized reruns of *prepared*'s frozen plan, one per thread.

    All *workers* threads start together behind a barrier, so the reruns
    intern their condition objects concurrently.
    """
    session = prepared.session
    config = prepared.config
    view = session._views.get(
        (prepared.query, config.optimize, config.simplify_conditions)
    )
    plan = view.plan if view is not None else prepared.plan()
    tables = {
        name: session.table(name)
        for name in prepared.query.relation_names()
    }
    results = [None] * workers
    errors = []
    barrier = threading.Barrier(workers)

    def run(worker):
        barrier.wait()
        try:
            results[worker] = execute_plan_vectorized(
                plan,
                tables,
                simplify_conditions=config.simplify_conditions,
                )
        except Exception as error:  # noqa: BLE001 - collected for report
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(worker,))
        for worker in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


def small_tables():
    return {
        "V": CTable(
            [((0, 1), TOP), ((1, 2), eq(X, 1)), ((Y, 0), ne(Y, 2))],
            arity=2,
        ),
        "W": CTable([((1, 5), TOP), ((2, 6), eq(X, 2))], arity=2),
    }


# ----------------------------------------------------------------------
# The mutation API itself
# ----------------------------------------------------------------------

class TestMutationAPI:
    def test_insert_appends_rows_in_order(self):
        session = Engine().session(**small_tables())
        before = session.table("V").rows
        session.insert("V", [((7, 7), TOP), ((8, 8), eq(X, 0))])
        after = session.table("V").rows
        assert after[: len(before)] == before
        expected = CTable([((7, 7), TOP), ((8, 8), eq(X, 0))], arity=2)
        assert after[len(before):] == expected.rows

    def test_delete_removes_last_equal_occurrence(self):
        engine = Engine()
        duplicated = CTable([((1, 1), TOP), ((2, 2), TOP), ((1, 1), TOP)], arity=2)
        session = engine.session(V=duplicated, W=small_tables()["W"])
        session.delete("V", [((1, 1), TOP)])
        # The FIRST (1,1) survived — last-occurrence semantics.
        assert session.table("V").rows == duplicated.rows[:2]
        assert session._entry("V").row_ids == [0, 1]

    def test_delete_missing_row_raises(self):
        session = Engine().session(**small_tables())
        with pytest.raises(TableError):
            session.delete("V", [((9, 9), TOP)])

    def test_update_is_one_atomic_replacement(self):
        session = Engine().session(**small_tables())
        old = session.table("V").rows[0]
        session.update("V", [(old, ((5, 5), eq(Y, 1)))])
        table = session.table("V")
        assert old not in table.rows
        replacement = CTable([((5, 5), eq(Y, 1))], arity=2).rows[0]
        assert replacement in table.rows

    def test_bottom_condition_inserts_are_dropped(self):
        session = Engine().session(**small_tables())
        before = len(session.table("V").rows)
        session.insert("V", [((3, 3), BOTTOM)])
        assert len(session.table("V").rows) == before

    def test_source_keeps_original_object(self):
        tables = small_tables()
        session = Engine().session(**tables)
        session.insert("V", [((4, 4), TOP)])
        assert session.source("V") is tables["V"]

    def test_boolean_ctable_class_is_preserved(self):
        boolean = BooleanCTable([((1, 2), TOP)], arity=2)
        session = Engine().session(V=boolean, W=small_tables()["W"])
        session.insert("V", [((3, 4), TOP)])
        assert isinstance(session.table("V"), BooleanCTable)

    def test_mutation_counters_move(self):
        engine = Engine()
        session = engine.session(**small_tables())
        session.insert("V", [((7, 7), TOP)])
        session.delete("V", [((7, 7), TOP)])
        metrics = engine.metrics
        assert metrics.counter_value(
            IVM_MUTATIONS_TOTAL, {"op": "insert"}
        ) == 1.0
        assert metrics.counter_value(
            IVM_MUTATIONS_TOTAL, {"op": "delete"}
        ) == 1.0
        assert metrics.counter_value(
            IVM_DELTA_ROWS_TOTAL, {"sign": "insert"}
        ) == 1.0

    @pytest.mark.parametrize(
        "table,bad_row",
        [
            (small_tables()["V"], ((1, 2, 3), TOP)),
            (
                CTable([((1, X), TOP)], arity=2, domains={"x": (1, 2)}),
                ((Y, 1), TOP),
            ),
            (BooleanCTable([((1, 2), BoolVar("b"))], arity=2), ((X, 1), TOP)),
            (BooleanCTable([((1, 2), BoolVar("b"))], arity=2), ((3, 4), eq(X, 1))),
        ],
        ids=[
            "wrong_arity",
            "variable_missing_from_domains",
            "variable_entry_in_boolean_ctable",
            "non_boolean_condition_in_boolean_ctable",
        ],
    )
    def test_malformed_insert_raises_and_changes_nothing(self, table, bad_row):
        session = Engine().session(V=table)
        prepared = session.prepare(proj(rel("V", 2), [1, 0]))
        before = prepared.refresh()
        held, stats = session.table("V"), session.stats("V")
        with pytest.raises(TableError):
            # The well-formed first row must not land either.
            session.insert("V", [((5, 6), TOP), bad_row])
        assert session.table("V") is held
        assert session.stats("V") == stats
        assert_structurally_identical(before, prepared.refresh())

    def test_delete_of_false_condition_row_raises(self):
        session = Engine().session(**small_tables())
        # (0, 1) is present under TOP; under BOTTOM no table can hold it.
        with pytest.raises(TableError):
            session.delete("V", [((0, 1), BOTTOM)])

    def test_insert_validates_only_the_delta(self, monkeypatch):
        n, k = 300, 4
        session = Engine().session(
            V=CTable([((i, i % 7), TOP) for i in range(n)], arity=2)
        )
        constructed = []
        original = CTable.__init__

        def counting_init(self, rows=(), *args, **kwargs):
            rows = list(rows)
            constructed.append(len(rows))
            original(self, rows, *args, **kwargs)

        monkeypatch.setattr(CTable, "__init__", counting_init)
        session.insert("V", [((n + i, 0), eq(X, i)) for i in range(k)])
        monkeypatch.undo()
        assert constructed == [k]
        assert len(session.table("V").rows) == n + k

    @pytest.mark.parametrize(
        "requests",
        [[((0, 1), TOP), ((9, 9), TOP)], [((0, 1), TOP), ((0, 1), TOP)]],
        ids=["present_then_absent", "more_copies_than_held"],
    )
    def test_failed_delete_raises_and_changes_nothing(self, requests):
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(proj(rel("V", 2), [1, 0]))
        before = prepared.refresh()
        held, stats = session.table("V"), session.stats("V")
        with pytest.raises(TableError):
            # The present first row must not go either.
            session.delete("V", requests)
        assert session.table("V") is held
        assert session.stats("V") == stats
        noops = engine.metrics.counter_value(IVM_REFRESH_TOTAL, {"mode": "noop"})
        assert_structurally_identical(before, prepared.refresh())
        assert engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "noop"}
        ) == noops + 1

    def test_delete_cost_is_linear_in_the_relation(self, monkeypatch):
        touches = [0]
        equals, hashes = CRow.__eq__, CRow.__hash__

        def counting_eq(self, other):
            touches[0] += 1
            return equals(self, other)

        def counting_hash(self):
            touches[0] += 1
            return hashes(self)

        def delete_touches(n):
            session = Engine().session(
                V=CTable([((i, i % 7), TOP) for i in range(n)], arity=2)
            )
            oldest = list(session.table("V").rows[: n // 10])
            touches[0] = 0
            monkeypatch.setattr(CRow, "__eq__", counting_eq)
            monkeypatch.setattr(CRow, "__hash__", counting_hash)
            try:
                session.delete("V", oldest)
            finally:
                monkeypatch.undo()
            assert len(session.table("V").rows) == n - n // 10
            return touches[0]

        small, large = delete_touches(400), delete_touches(800)
        # O(n + k) doubles with n; the per-row search, O(k·n), quadruples.
        assert 1.5 <= large / small <= 2.5, (small, large)

    @pytest.mark.parametrize("seed", range(12))
    def test_one_pass_equals_sequential_rule(self, seed):
        rng = random.Random(seed)
        pool = CTable(
            [
                (values, condition)
                for values in [(0, 0), (0, 1), (1, 1), (X, 1)]
                for condition in [TOP, eq(X, 1), ne(Y, 0)]
            ],
            arity=2,
        ).rows
        for case in range(20):
            context = f"seed={seed} case={case}"
            present = pool[: rng.randint(1, 6)]
            session = Engine().session(
                V=CTable(
                    [rng.choice(present) for _ in range(rng.randint(0, 16))],
                    arity=2,
                )
            )
            prepared = session.prepare(proj(rel("V", 2), [1, 0]))
            prepared.refresh()
            view = next(iter(session._views.values()))
            if rng.random() < 0.5:
                # Move the row ids off 0..n-1 before the checked write.
                session.insert("V", [rng.choice(present) for _ in range(2)])
                session.delete("V", [session.table("V").rows[0]])
            rows, ids = session.table("V").rows, session._entry("V").row_ids
            requests = [
                rng.choice(pool if rng.random() < 0.05 else present)
                for _ in range(rng.randint(1, 5))
            ]
            expected = sequential_delete(rows, ids, requests)
            news = [rng.choice(present) for _ in requests]
            appended = len(news) if rng.random() < 0.5 else 0

            def write():
                if appended:
                    session.update("V", zip(requests, news))
                else:
                    session.delete("V", requests)

            if isinstance(expected, CRow):
                held, pending = session.table("V"), len(view.pending)
                with pytest.raises(TableError) as error:
                    write()
                assert f"row {expected!r} is not present" in str(error.value), context
                assert session.table("V") is held, context
                assert len(view.pending) == pending, context
                continue
            write()
            kept, kept_ids, delete_ids = expected
            table = session.table("V")
            assert table.rows[: len(table.rows) - appended] == tuple(kept), context
            assert session._entry("V").row_ids[: len(kept)] == kept_ids, context
            assert view.pending[-1].delete_ids == tuple(delete_ids), context
            assert_delta_equals_rerun(prepared, check_mod=False, context=context)


def sequential_delete(rows, ids, requests):
    """The per-request backward search, the rule one delete pass keeps.

    Returns ``(kept rows, kept ids, delete ids in request order)``, or
    the first request that finds no occurrence left.
    """
    working, ids, delete_ids = list(rows), list(ids), []
    for row in map(coerce_row, requests):
        for index in range(len(working) - 1, -1, -1):
            if working[index] == row:
                break
        else:
            return row
        working.pop(index)
        delete_ids.append(ids.pop(index))
    return working, ids, delete_ids


# ----------------------------------------------------------------------
# What a refresh does, read from counters rather than a clock
# ----------------------------------------------------------------------

class TestRefreshWork:
    """A refresh moves the delta counters by the rows that changed, never
    by the table size, and with nothing pending it changes nothing."""

    ROWS = 200
    KEYS = ROWS // 8

    def standing_join(self):
        # Eight join partners per key; every fourth left row conditioned.
        left = CTable(
            [
                (
                    (i, i % self.KEYS),
                    eq(Var(f"c{i % 12}"), 1) if i % 4 == 0 else TOP,
                )
                for i in range(self.ROWS)
            ],
            arity=2,
        )
        right = CTable(
            [((i % self.KEYS, i), TOP) for i in range(self.ROWS)], arity=2
        )
        engine = Engine()
        session = engine.session(L=left, R=right)
        query = proj(
            sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), [0, 3]
        )
        return engine, session, session.prepare(query)

    @staticmethod
    def counters(engine):
        metrics = engine.metrics
        delta_rows = sum(
            metrics.counter_value(IVM_DELTA_ROWS_TOTAL, {"sign": sign})
            for sign in ("insert", "delete")
        )
        refreshes = {
            mode: metrics.counter_value(IVM_REFRESH_TOTAL, {"mode": mode})
            for mode in ("build", "delta", "noop", "fallback")
        }
        return delta_rows, refreshes

    @pytest.mark.parametrize(
        "changed,mode",
        [(ROWS // 100, "delta"), (0, "noop")],
        ids=["one_percent_churn", "nothing_pending"],
    )
    def test_refresh_counts_only_changed_rows(self, changed, mode):
        engine, session, prepared = self.standing_join()
        previous = prepared.refresh()
        rows_before, refreshes_before = self.counters(engine)
        if changed:
            session.delete("L", list(session.table("L").rows[:changed]))
            fresh = [
                ((self.ROWS + i, i % self.KEYS), TOP) for i in range(changed)
            ]
            session.insert("L", fresh)
        refreshed = prepared.refresh()
        rows_after, refreshes_after = self.counters(engine)
        assert rows_after - rows_before == 2 * changed
        moved = {
            name: refreshes_after[name] - refreshes_before[name]
            for name in refreshes_after
        }
        assert moved == {name: float(name == mode) for name in moved}
        if changed:
            maintained = assert_delta_equals_rerun(
                prepared, check_mod=False, context="1% churn"
            )
            assert_structurally_identical(maintained, refreshed)
        else:
            assert_structurally_identical(previous, refreshed)


# ----------------------------------------------------------------------
# The differential core: delta ≡ rerun over seeded update sequences
# ----------------------------------------------------------------------

class TestDeltaEqualsRerun:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_sequences_default_profile(self, seed):
        session, prepared, rng = seeded_session(seed)
        assert_delta_equals_rerun(prepared, context=f"seed={seed} build")
        for step in range(3):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(
                prepared, context=f"seed={seed} step={step}"
            )

    @pytest.mark.parametrize("seed", range(40, 55))
    def test_seeded_sequences_churn_profile(self, seed):
        session, prepared, rng = seeded_session(seed)
        for step in range(2):
            apply_random_updates(rng, session, CHURN_UPDATES)
            assert_delta_equals_rerun(
                prepared, context=f"seed={seed} churn step={step}"
            )

    @pytest.mark.parametrize("seed", range(60, 75))
    def test_seeded_sequences_with_simplification(self, seed):
        session, prepared, rng = seeded_session(
            seed, simplify_conditions=True
        )
        for step in range(2):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(
                prepared, context=f"seed={seed} simplify step={step}"
            )

    @pytest.mark.parametrize("workers", (1, 2, 8))
    @pytest.mark.parametrize("seed", range(80, 90))
    def test_seeded_sequences_across_worker_counts(self, seed, workers):
        # Sessions are usable from threads: the refreshed view must also
        # equal cold reruns issued from *workers* threads at once.
        session, prepared, rng = seeded_session(seed)
        apply_random_updates(rng, session)
        context = f"seed={seed} workers={workers}"
        maintained = assert_delta_equals_rerun(prepared, context=context)
        for worker, rerun in enumerate(rerun_from_threads(prepared, workers)):
            assert_structurally_identical(
                rerun, maintained, context=f"{context} thread={worker}"
            )

    @pytest.mark.parametrize("seed", range(95, 105))
    def test_seeded_sequences_unoptimized_plans(self, seed):
        session, prepared, rng = seeded_session(seed, optimize=False)
        for step in range(2):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(
                prepared, context=f"seed={seed} verbatim step={step}"
            )

    def test_two_standing_views_over_shared_relations(self):
        engine = Engine()
        rng = random.Random(7)
        session = engine.session(**small_tables())
        first = session.prepare(JOIN)
        second = session.prepare(union(rel("V", 2), rel("W", 2)))
        for step in range(4):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(first, context=f"join step={step}")
            assert_delta_equals_rerun(second, context=f"union step={step}")

    def test_refresh_after_re_register_rebuilds(self):
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        prepared.refresh()
        session.register("V", CTable([((9, 1), TOP)], arity=2))
        assert_delta_equals_rerun(prepared, context="post re-register")
        mode_builds = engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "build"}
        )
        assert mode_builds >= 2.0  # initial build + rebuild


# ----------------------------------------------------------------------
# Batching invariance and cancellation
# ----------------------------------------------------------------------

class TestBatchingInvariance:
    @pytest.mark.parametrize("seed", range(110, 122))
    def test_one_by_one_equals_batched_equals_rerun(self, seed):
        rng = random.Random(seed)
        query, tables = random_case(rng)
        fresh = [
            random_fresh_row(rng, DEFAULT_TABLES)
            for _ in range(rng.randint(2, 5))
        ]
        victim_positions = rng.sample(
            range(len(tables["V"].rows)),
            min(2, len(tables["V"].rows)),
        )
        victims = [tables["V"].rows[position] for position in victim_positions]

        one_by_one = Engine().session(**tables)
        for row in fresh:
            one_by_one.insert("V", [row])
        for row in victims:
            one_by_one.delete("V", [row])
        single = one_by_one.prepare(query)

        batched = Engine().session(**tables)
        batched.insert("V", fresh)
        batched.delete("V", victims)
        coalesced = batched.prepare(query)

        left = assert_delta_equals_rerun(
            single, context=f"seed={seed} one-by-one"
        )
        right = assert_delta_equals_rerun(
            coalesced, context=f"seed={seed} batched"
        )
        assert_structurally_identical(
            left, right, context=f"seed={seed} one-by-one vs batched"
        )

    @pytest.mark.parametrize("seed", range(125, 137))
    def test_insert_then_delete_cancels_byte_identically(self, seed):
        session, prepared, rng = seeded_session(seed)
        before = prepared.refresh()
        fresh = [
            random_fresh_row(rng, DEFAULT_TABLES) for _ in range(3)
        ]
        session.insert("V", fresh)
        prepared.refresh()  # propagate the inserts first
        inserted = session.table("V").rows[-len(fresh):]
        session.delete("V", list(inserted))
        after = prepared.refresh()
        assert_structurally_identical(
            before, after, context=f"seed={seed} cancellation"
        )

    def test_uncancelled_pending_batches_apply_in_order(self):
        session = Engine().session(**small_tables())
        prepared = session.prepare(JOIN)
        prepared.refresh()
        session.insert("W", [((0, 9), TOP)])
        session.insert("V", [((3, 0), eq(X, 1))])
        session.delete("W", [((1, 5), TOP)])
        assert_delta_equals_rerun(prepared, context="interleaved batches")


# ----------------------------------------------------------------------
# Result cache: maintained in place, never stale
# ----------------------------------------------------------------------

class TestResultCacheMaintenance:
    def test_collect_after_mutation_is_never_stale(self):
        engine = Engine()
        rerun = Engine()
        tables = small_tables()
        session = engine.session(**tables)
        shadow = rerun.session(**tables)
        prepared = session.prepare(JOIN)
        cold = prepared.refresh()  # makes the query standing
        assert_structurally_identical(
            shadow.prepare(JOIN).execute(), cold, context="cold"
        )
        session.insert("V", [((2, 2), TOP)])
        shadow.insert("V", [((2, 2), TOP)])
        maintained = prepared.execute()
        rerun_result = shadow.prepare(JOIN).execute()
        assert_structurally_identical(
            rerun_result, maintained, context="post-insert"
        )

    def test_refresh_repopulates_the_result_cache(self):
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        prepared.execute()
        session.insert("V", [((2, 2), TOP)])
        refreshed = prepared.refresh()
        hits = engine.result_cache_stats()["hits"]
        assert prepared.execute() is refreshed  # served from the cache
        assert engine.result_cache_stats()["hits"] == hits + 1

    def test_mutation_invalidates_before_refresh_repopulates(self):
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        stale = prepared.refresh()
        session.insert("V", [((2, 2), TOP)])
        assert engine.result_cache_stats()["invalidations"] >= 1
        assert prepared.execute() is not stale

    def test_read_loop_stays_hits_across_mutations(self):
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        for round_number in range(3):
            session.insert("V", [((round_number, round_number), TOP)])
            prepared.refresh()
            before = engine.result_cache_stats()["hits"]
            prepared.execute()
            prepared.execute()
            assert engine.result_cache_stats()["hits"] == before + 2


# ----------------------------------------------------------------------
# Statistics: computed on demand, equal to a from-scratch recomputation
# ----------------------------------------------------------------------

class TestStatsRollForward:
    @pytest.mark.parametrize("seed", range(140, 160))
    def test_rolled_forward_stats_bit_identical(self, seed):
        rng = random.Random(seed)
        query, tables = random_case(rng)
        session = Engine().session(**tables)
        apply_random_updates(
            rng, session, UpdateProfile(min_steps=2, max_steps=6)
        )
        for name in session.names():
            table = session.table(name)
            rolled = session.stats(name)
            recomputed = TableStats.from_ctable(table)
            assert rolled == recomputed, (
                f"seed={seed} relation={name}: rolled-forward stats "
                f"{rolled!r} != recomputed {recomputed!r}"
            )

    def test_re_register_then_mutate_keeps_stats_exact(self):
        # A re-register followed by writes: the statistics describe
        # the table the writes left.
        session = Engine().session(**small_tables())
        session.register(
            "V", CTable([((1, 1), TOP), ((2, 2), eq(X, 0))], arity=2)
        )
        session.insert("V", [((3, 3), ne(Y, 1))])
        session.delete("V", [((1, 1), TOP)])
        assert session.stats("V") == TableStats.from_ctable(
            session.table("V")
        )

    def test_every_write_changes_the_key_even_with_equal_stats(self):
        session = Engine().session(**small_tables())
        prepared = session.prepare(JOIN)
        original = session.stats("V")
        # Column 0's constants swapped and column 1's rotated: another
        # table with the same statistics.
        swapped = CTable(
            [((1, 0), TOP), ((0, 2), eq(X, 1)), ((Y, 1), ne(Y, 2))], arity=2
        )
        writes = [
            lambda: session.insert("V", [((5, 5), TOP)]),
            lambda: session.delete("V", [((5, 5), TOP)]),
            lambda: session.register("V", swapped),
            lambda: session.update("V", [(((1, 0), TOP), ((1, 0), TOP))]),
        ]
        keys = {(prepared._plan_key(), prepared._result_key())}
        for write in writes:
            write()
            keys.add((prepared._plan_key(), prepared._result_key()))
        assert len(keys) == 1 + len(writes)
        assert session.stats("V") == original

    @pytest.mark.parametrize("seed", range(20))
    def test_renamed_constants_keep_stats_and_change_the_table(self, seed):
        rng = random.Random(seed)
        _, tables = random_case(rng)
        for table in tables.values():
            renamed = renamed_constants(rng, table)
            assert TableStats.from_ctable(renamed) == TableStats.from_ctable(
                table
            )
            if table.constants():
                assert renamed != table


class TestWritesDoNoStatisticsWork:
    """Writes and maintained reads never compute statistics; planning a
    new query walks each relation it reads once, and a plan-cache hit
    walks nothing."""

    #: churn_refresh's standing views over L(key, join), R(join, payload).
    VIEWS = (
        "pi[1,4](sigma[2=3](L x R))",
        "pi[2](sigma[1!='k7'](L))",
        "pi[2](L) - pi[1](R)",
    )
    NEW_TEXT = "pi[1,4](sigma[1='k3' & 2=3](L x R))"

    @staticmethod
    def counting_walks(monkeypatch):
        """Count calls of the per-condition walk both statistics paths
        share."""
        from repro.ctalgebra import plan as plan_module

        calls = []
        walk = plan_module._formula_size

        def counted(formula):
            calls.append(formula)
            return walk(formula)

        monkeypatch.setattr(plan_module, "_formula_size", counted)
        return calls

    def test_churn_cycles_walk_nothing(self, monkeypatch):
        rows, changed = 96, 4
        left = [
            ((f"k{i % 13}", f"j{i % 12}"), eq(Var(f"c{i}"), 1) if i % 4 == 0 else TOP)
            for i in range(rows)
        ]
        right = [((f"j{i % 12}", f"r{i}"), TOP) for i in range(rows)]
        engine = Engine()
        session = engine.session(
            L=CTable(left, arity=2), R=CTable(right, arity=2)
        )
        views = [session.prepare(text) for text in self.VIEWS]
        for view in views:
            view.refresh()
        calls = self.counting_walks(monkeypatch)
        fresh = rows
        for _ in range(20):
            victims = list(session.table("L").rows[:changed])
            session.delete("L", victims)
            session.insert(
                "L",
                [
                    ((f"k{n % 13}", f"j{n % 14}"), eq(Var(f"c{n}"), 1))
                    for n in range(fresh, fresh + changed)
                ],
            )
            fresh += changed
            for view in views:
                view.refresh()
        assert calls == []

        first = len(calls)
        session.prepare(self.NEW_TEXT).execute()
        planned = len(calls) - first
        # Re-planning the same text over unchanged tables repeats only
        # the estimator's predicate walks, so the difference is the
        # rows walked for statistics: L's once, and none of R's, whose
        # statistics from the views' planning still describe R.
        engine.clear_plan_cache()
        engine.clear_result_cache()
        first = len(calls)
        session.prepare(self.NEW_TEXT).execute()
        replanned = len(calls) - first
        assert planned - replanned == len(session.table("L").rows)
        engine.clear_result_cache()
        first = len(calls)
        session.prepare(self.NEW_TEXT).execute()
        assert engine.plan_cache_stats()["hits"] >= 1
        assert len(calls) == first


# ----------------------------------------------------------------------
# Fallback shapes, verification, and which reads keep views
# ----------------------------------------------------------------------

class TestFallbackAndVerification:
    def test_boolean_ctable_scan_falls_back_and_stays_correct(self):
        engine = Engine()
        flag = BoolVar("b")
        session = engine.session(
            B=BooleanCTable([((1, 2), TOP), ((3, 4), flag)], arity=2),
            W=small_tables()["W"],
        )
        prepared = session.prepare(sel(rel("B", 2), col_eq_const(0, 1)))
        assert_delta_equals_rerun(prepared, context="boolean build")
        session.insert("B", [((1, 9), TOP)])
        assert_delta_equals_rerun(prepared, context="boolean delta")
        assert engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "fallback"}
        ) >= 1.0

    def test_mixed_domain_plan_falls_back(self):
        # A finite-domain scan next to an infinite-capable (domain-less,
        # variable-free) one: legal to combine, but the merged metadata
        # would depend on row content — the view refuses and reruns.
        finite = CTable(
            [((X, 0), eq(X, 1))], arity=2, domains={"x": (0, 1)}
        )
        constants = CTable([((1, 2), TOP), ((3, 4), TOP)], arity=2)
        engine = Engine()
        session = engine.session(F=finite, V=constants)
        prepared = session.prepare(union(rel("F", 2), rel("V", 2)))
        # Finite-domain tables are outside the symbolic Mod-checker's
        # scope; the structural-identity comparison still runs.
        assert_delta_equals_rerun(
            prepared, check_mod=False, context="mixed domains"
        )
        assert engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "fallback"}
        ) >= 1.0

    def test_view_verifier_accepts_healthy_state(self):
        engine = Engine(verify_plans=True)
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        rng = random.Random(3)
        for _ in range(3):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(prepared, context="verified")

    def test_view_verifier_catches_corrupted_order(self):
        engine = Engine(verify_plans=True)
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        prepared.refresh()
        key = (
            prepared.query,
            prepared.config.optimize,
            prepared.config.simplify_conditions,
        )
        view = session._views[key]
        # A row the ordered key index does not know about: the state
        # invariant set(order) == set(rows) no longer holds.
        stray = next(iter(view.root.rows.values()))
        view.root.rows[(999, 999, 999)] = stray
        session.insert("V", [((6, 6), TOP)])
        with pytest.raises(PlanVerificationError) as excinfo:
            prepared.refresh()
        assert excinfo.value.check == "view"

    def test_rerun_maintenance_mode_keeps_no_views(self):
        # A query that is only execute()d is maintained by rerunning:
        # only refresh() makes a query standing, so it keeps no view and
        # re-runs its plan after every mutation.
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        previous = prepared.execute()
        rng = random.Random(5)
        for step in range(3):
            apply_random_updates(rng, session)
            answer = prepared.execute()
            assert session._views == {}
            assert answer is not previous
            tables = {name: session.table(name) for name in ("V", "W")}
            assert_structurally_identical(
                execute_plan(prepared.plan(), tables),
                answer,
                context=f"execute-only step={step}",
            )
            previous = answer
        assert engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "build"}
        ) == 0.0

    def test_interpreted_read_runs_the_oracle_beside_a_standing_view(
        self, monkeypatch
    ):
        # The interpreted executor is the lifted-operator oracle: its
        # reads must run the plan even when the session keeps a standing
        # view of the same query text.
        session = Engine().session(**small_tables())
        maintained = session.prepare(JOIN).refresh()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return execute_plan(*args, **kwargs)

        monkeypatch.setattr(session_module, "execute_plan", spy)
        oracle = session.prepare(JOIN, executor="interpreted")
        assert_structurally_identical(
            maintained, oracle.execute(), context="interpreted execute"
        )
        assert len(calls) == 1
        session.insert("V", [((2, 2), TOP)])
        refreshed = oracle.refresh()
        assert len(calls) == 2
        assert len(session._views) == 1
        assert_structurally_identical(
            session.prepare(JOIN).refresh(),
            refreshed,
            context="interpreted refresh",
        )

    def test_maintenance_knob_rejects_unknown_values(self):
        # The knob is gone, so every value is rejected: the read
        # (refresh or execute) chooses view maintenance.  The verifier's
        # depth knob went with it; the verifier has one depth.
        with pytest.raises(TypeError):
            Engine(maintenance="incremental")
        with pytest.raises(TypeError):
            ExecutionConfig(verify_mode="semantic")

    def test_view_lru_is_bounded(self):
        engine = Engine()
        session = engine.session(**small_tables())
        for column in range(2):
            for constant in range(20):
                session.prepare(
                    sel(rel("V", 2), col_eq_const(column, constant))
                ).refresh()
        assert len(session._views) <= type(session)._MAX_VIEWS


# ----------------------------------------------------------------------
# Delta ≡ rerun per physical operator: each delta rule on its own
# ----------------------------------------------------------------------

V2, W2 = rel("V", 2), rel("W", 2)

#: One query per physical operator class whose lowered tree holds it.
OPERATOR_QUERIES = {
    ScanOp: V2,
    ConstScanOp: union(V2, ConstRel(Instance([(1, 5), (2, 6)], arity=2))),
    EmptyOp: union(V2, sel(W2, conj(col_eq_const(0, 1), col_eq_const(0, 2)))),
    FilterOp: sel(V2, col_eq_const(0, 1)),
    ProjectOp: proj(V2, [1]),
    ProductOp: prod(V2, W2),
    UnionOp: union(V2, W2),
    DifferenceOp: diff(V2, W2),
    IntersectOp: intersect(V2, W2),
}


def standing_physical(prepared):
    """The physical tree the prepared query's standing view runs."""
    config = prepared.config
    key = (prepared.query, config.optimize, config.simplify_conditions)
    return prepared.session._views[key].physical


class TestDeltaPerOperator:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "op_class", list(OPERATOR_QUERIES), ids=lambda cls: cls.__name__
    )
    def test_delta_equals_rerun(self, op_class, seed):
        engine = Engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(OPERATOR_QUERIES[op_class])
        prepared.refresh()
        assert any(
            isinstance(op, op_class)
            for op in standing_physical(prepared).walk()
        )
        rng = random.Random(seed)
        for step in range(4):
            apply_random_updates(rng, session, CHURN_UPDATES)
            assert_delta_equals_rerun(
                prepared, context=f"{op_class.__name__} step={step}"
            )
        assert engine.metrics.counter_value(
            IVM_REFRESH_TOTAL, {"mode": "delta"}
        ) >= 1.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("right_input", ["filtered", "scanned"])
    def test_hash_join_right_inputs(self, right_input, seed):
        # A hash join builds on its right input: a filtered one (a
        # filter that keeps every row) is indexed per delta batch, a
        # scanned one by its maintained index.  Both sides carry rows
        # whose join key is a variable, which exercises the symbolic
        # (g = 1) pair order.
        small = CTable(
            [((0, 1), TOP), ((1, 2), eq(X, 1)), ((2, X), ne(Y, 2))], arity=2
        )
        large = CTable(
            [((index % 3, index), TOP) for index in range(9)]
            + [((Y, 7), eq(X, 2)), ((X, 8), TOP)],
            arity=2,
        )
        small_right = CTable([((1, 5), TOP), ((Y, 6), ne(X, 1))], arity=2)
        if right_input == "filtered":
            tables = {"V": small, "W": large}
            query = JOIN_FILTERED_RIGHT
            right_class = FilterOp
        else:
            tables = {"V": large, "W": small_right}
            query = JOIN
            right_class = ScanOp
        engine = Engine()
        session = engine.session(**tables)
        prepared = session.prepare(query)
        prepared.refresh()
        joins = [
            op for op in standing_physical(prepared).walk()
            if isinstance(op, HashJoinOp)
        ]
        assert [type(op.right) for op in joins] == [right_class]
        rng = random.Random(seed)
        for step in range(3):
            session.insert("V", [((3, Y), TOP), ((4, 2), eq(Y, 1))])
            session.insert("W", [((X, 9), ne(Y, 0)), ((2, 10), TOP)])
            assert_delta_equals_rerun(prepared, context=f"insert {step}")
            session.delete("V", [((3, Y), TOP)])
            session.delete("W", [((X, 9), ne(Y, 0))])
            assert_delta_equals_rerun(prepared, context=f"delete {step}")
            apply_random_updates(rng, session, CHURN_UPDATES)
            assert_delta_equals_rerun(prepared, context=f"churn {step}")


# ----------------------------------------------------------------------
# View-store invariants under front, middle and tail deletes
# ----------------------------------------------------------------------

#: The three standing-view shapes of the churn benchmark.
CHURN_VIEWS = (
    "pi[1,4](sigma[2=3](L x R))",  # join-project
    "pi[2](sigma[1!='k3'](L))",  # selection-project
    "pi[2](L) - pi[1](R)",  # difference
)

CHURN_CONDITIONS = (TOP, eq(X, "a"), ne(Y, "b"), conj(eq(X, "a"), ne(Y, "c")))


def churn_tables():
    left = [
        ((f"k{i % 7}", f"j{i % 9}"), CHURN_CONDITIONS[i % 4])
        for i in range(60)
    ]
    left += [((X, "j1"), eq(X, "k1")), (("k2", Y), TOP)]
    right = [((f"j{i % 11}", f"r{i}"), CHURN_CONDITIONS[i % 3]) for i in range(20)]
    right.append(((Y, "r99"), ne(Y, "j4")))
    return {"L": CTable(left, arity=2), "R": CTable(right, arity=2)}


def view_nodes(node):
    yield node
    for child in node.children:
        yield from view_nodes(child)


def assert_store_invariants(node, context):
    order = node.order
    assert all(a < b for a, b in zip(order, order[1:])), context
    assert len(node.ordered_rows) == len(order) == len(node.rows), context
    assert all(
        row is node.rows[key] for key, row in zip(order, node.ordered_rows)
    ), context


class TestViewStoreSplice:
    """Refresh deletes every doomed key of a store in one splice; the
    stores stay sorted, aligned and equal to a rerun wherever the
    deleted keys sit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stores_stay_sorted_aligned_and_equal_to_rerun(self, seed):
        rng = random.Random(seed)
        session = Engine().session(**churn_tables())
        prepared = [session.prepare(text) for text in CHURN_VIEWS]
        for query in prepared:
            query.refresh()
        views = [session._views[query._view_key()] for query in prepared]
        # Per view root: which thirds of the store deletes have hit.
        thirds = [set() for _ in views]
        fresh = 0
        for step in range(12):
            before = [list(view.root.order) for view in views]
            for name in ("L", "R"):
                rows = session.table(name).rows
                n = len(rows)
                picks = {0, n // 2 + rng.randrange(-2, 3), n - 1}
                picks.add(rng.randrange(n))
                victims = [rows[i] for i in sorted(picks)]
                if name == "L":
                    # A projection group's key is its first member's:
                    # deleting that member moves the group, from the
                    # front, the middle or the tail of the store.
                    for view, skip in ((views[1], Const("k3")), (views[2], None)):
                        groups = view.root.ordered_rows
                        group = groups[
                            rng.choice([0, len(groups) // 2, len(groups) - 1])
                        ].values[0]
                        victims.append(next(
                            row for row in rows
                            if row.values[1] == group and row.values[0] != skip
                        ))
                victims = list({id(row): row for row in victims}.values())
                session.delete(name, victims)
                # One victim comes back, with another condition, in the
                # same refresh.
                back = rng.choice(victims)
                condition = rng.choice(
                    [c for c in CHURN_CONDITIONS if c is not back.condition]
                )
                added = [(back.values, condition)]
                for _ in range(rng.randint(2, 4)):
                    if name == "L":
                        values = (f"k{rng.randrange(7)}", f"j{rng.randrange(10)}")
                    else:
                        values = (f"j{rng.randrange(12)}", f"r{100 + fresh}")
                    added.append((values, rng.choice(CHURN_CONDITIONS)))
                    fresh += 1
                session.insert(name, added)
            answers = [query.refresh() for query in prepared]
            tables = {name: session.table(name) for name in ("L", "R")}
            for index, (view, answer) in enumerate(zip(views, answers)):
                context = f"seed={seed} step={step} view={CHURN_VIEWS[index]}"
                for node in view_nodes(view.root):
                    assert_store_invariants(node, context)
                assert_structurally_identical(
                    execute_plan(view.plan, tables), answer, context=context
                )
                kept = set(view.root.order)
                size = len(before[index])
                thirds[index].update(
                    3 * position // size
                    for position, key in enumerate(before[index])
                    if key not in kept
                )
        assert thirds == [{0, 1, 2}] * len(views)


# ----------------------------------------------------------------------
# Narrowed join stores (a projection fused into the join below it)
# ----------------------------------------------------------------------

class TestNarrowedJoinStores:
    """A join whose output a projection narrowed keeps narrow rows in
    its store under the pair keys a full rebuild gives, and refreshes
    to the rerun's answer."""

    @staticmethod
    def _mutate(rng, session, fresh):
        for name in ("L", "R"):
            rows = session.table(name).rows
            picks = rng.sample(range(len(rows)), rng.randint(1, 3))
            session.delete(name, [rows[i] for i in picks])
            added = []
            for _ in range(rng.randint(1, 3)):
                join = rng.choice((f"j{rng.randrange(10)}", X, Y))
                if name == "L":
                    values = (f"k{rng.randrange(7)}", join)
                else:
                    values = (join, f"r{100 + fresh}")
                fresh += 1
                added.append((values, rng.choice(CHURN_CONDITIONS)))
            session.insert(name, added)
        return fresh

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "columns", [[0, 3], [3, 0], [3], []], ids=lambda c: f"pi{c}"
    )
    def test_refresh_keeps_rerun_answer_and_rebuild_keys(self, columns, seed):
        session = Engine().session(**churn_tables())
        query = proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), columns)
        prepared = session.prepare(query)
        prepared.refresh()
        view = session._views[prepared._view_key()]
        rng = random.Random(seed)
        fresh = 0
        for step in range(6):
            fresh = self._mutate(rng, session, fresh)
            answer = prepared.refresh()
            context = f"pi{columns} seed={seed} step={step}"
            tables = {name: session.table(name) for name in ("L", "R")}
            assert_structurally_identical(
                execute_plan(view.plan, tables), answer, context=context
            )
            rebuilt = MaterializedView(
                view.plan, view.physical, view.simplify_conditions
            )
            assert rebuilt.refresh(session._ivm_bindings(prepared.query))[1] == "build"
            (join,), (fresh_join,) = (
                [node for node in view_nodes(root) if isinstance(node.op, HashJoinOp)]
                for root in (view.root, rebuilt.root)
            )
            # The optimizer may narrow an operand first, so only the
            # output width is fixed.
            assert len(join.op.output) == len(columns), context
            assert join.order == fresh_join.order, context
            for kept, built in zip(join.ordered_rows, fresh_join.ordered_rows):
                assert kept.values == built.values, context
                assert len(kept.values) == len(columns), context
                assert kept.condition is built.condition, context
            assert_store_invariants(join, context)
