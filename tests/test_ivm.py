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
- rolled-forward ``StatsAccumulator`` statistics stay bit-identical to
  a from-scratch recomputation after any seeded sequence (which also
  pins the re-register delta path these accumulators were built for).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import (
    BooleanCTable,
    ConstRel,
    CTable,
    Engine,
    TableError,
    Var,
    col_eq,
    col_eq_const,
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
from repro.ctalgebra.plan import StatsAccumulator, TableStats, collect_stats
from repro.errors import PlanVerificationError
from repro.logic.atoms import BoolVar
from repro.logic.syntax import BOTTOM, TOP, conj
from repro.obs.names import (
    IVM_DELTA_ROWS_TOTAL,
    IVM_MUTATIONS_TOTAL,
    IVM_REFRESH_TOTAL,
)
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

from harness import (
    CHURN_UPDATES,
    DEFAULT_TABLES,
    UpdateProfile,
    apply_random_updates,
    assert_delta_equals_rerun,
    assert_structurally_identical,
    random_case,
    random_fresh_row,
)

X, Y = Var("x"), Var("y")

JOIN = proj(sel(prod(rel("V", 2), rel("W", 2)), col_eq(1, 2)), [0, 3])


def incremental_engine(**options):
    return Engine(maintenance="incremental", **options)


def seeded_session(seed, engine=None, **prepare_options):
    """One (session, prepared, rng) triple over a random case."""
    rng = random.Random(seed)
    query, tables = random_case(rng)
    engine = engine or incremental_engine()
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
                stats=collect_stats(tables),
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
        session = incremental_engine().session(**small_tables())
        before = session.table("V").rows
        session.insert("V", [((7, 7), TOP), ((8, 8), eq(X, 0))])
        after = session.table("V").rows
        assert after[: len(before)] == before
        expected = CTable([((7, 7), TOP), ((8, 8), eq(X, 0))], arity=2)
        assert after[len(before):] == expected.rows

    def test_delete_removes_last_equal_occurrence(self):
        engine = incremental_engine()
        duplicated = CTable([((1, 1), TOP), ((2, 2), TOP), ((1, 1), TOP)], arity=2)
        session = engine.session(V=duplicated, W=small_tables()["W"])
        session.delete("V", [((1, 1), TOP)])
        values = [row.values for row in session.table("V").rows]
        assert values.count(session.table("V").rows[0].values) >= 1
        assert len(session.table("V").rows) == 2
        # The FIRST (1,1) survived — last-occurrence semantics.
        assert session.table("V").rows[0].values == duplicated.rows[0].values

    def test_delete_missing_row_raises(self):
        session = incremental_engine().session(**small_tables())
        with pytest.raises(TableError):
            session.delete("V", [((9, 9), TOP)])

    def test_update_is_one_atomic_replacement(self):
        session = incremental_engine().session(**small_tables())
        old = session.table("V").rows[0]
        session.update("V", [(old, ((5, 5), eq(Y, 1)))])
        table = session.table("V")
        assert old not in table.rows
        replacement = CTable([((5, 5), eq(Y, 1))], arity=2).rows[0]
        assert replacement in table.rows

    def test_bottom_condition_inserts_are_dropped(self):
        session = incremental_engine().session(**small_tables())
        before = len(session.table("V").rows)
        session.insert("V", [((3, 3), BOTTOM)])
        assert len(session.table("V").rows) == before

    def test_source_keeps_original_object(self):
        tables = small_tables()
        session = incremental_engine().session(**tables)
        session.insert("V", [((4, 4), TOP)])
        assert session.source("V") is tables["V"]

    def test_boolean_ctable_class_is_preserved(self):
        boolean = BooleanCTable([((1, 2), TOP)], arity=2)
        session = incremental_engine().session(
            V=boolean, W=small_tables()["W"]
        )
        session.insert("V", [((3, 4), TOP)])
        assert isinstance(session.table("V"), BooleanCTable)

    def test_mutation_counters_move(self):
        engine = incremental_engine()
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
        engine = incremental_engine()
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
        engine = incremental_engine()
        rng = random.Random(7)
        session = engine.session(**small_tables())
        first = session.prepare(JOIN)
        second = session.prepare(union(rel("V", 2), rel("W", 2)))
        for step in range(4):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(first, context=f"join step={step}")
            assert_delta_equals_rerun(second, context=f"union step={step}")

    def test_refresh_after_re_register_rebuilds(self):
        engine = incremental_engine()
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

        one_by_one = incremental_engine().session(**tables)
        for row in fresh:
            one_by_one.insert("V", [row])
        for row in victims:
            one_by_one.delete("V", [row])
        single = one_by_one.prepare(query)

        batched = incremental_engine().session(**tables)
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
        session = incremental_engine().session(**small_tables())
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
        engine = incremental_engine()
        rerun = Engine()
        tables = small_tables()
        session = engine.session(**tables)
        shadow = rerun.session(**tables)
        prepared = session.prepare(JOIN)
        cold = prepared.execute()
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
        engine = incremental_engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        prepared.execute()
        session.insert("V", [((2, 2), TOP)])
        refreshed = prepared.refresh()
        hits = engine.result_cache_stats()["hits"]
        assert prepared.execute() is refreshed  # served from the cache
        assert engine.result_cache_stats()["hits"] == hits + 1

    def test_mutation_invalidates_before_refresh_repopulates(self):
        engine = incremental_engine()
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        stale = prepared.execute()
        session.insert("V", [((2, 2), TOP)])
        assert engine.result_cache_stats()["invalidations"] >= 1
        assert prepared.execute() is not stale

    def test_read_loop_stays_hits_across_mutations(self):
        engine = incremental_engine()
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
# Statistics roll-forward: accumulator ≡ from-scratch recomputation
# ----------------------------------------------------------------------

class TestStatsRollForward:
    @pytest.mark.parametrize("seed", range(140, 160))
    def test_rolled_forward_stats_bit_identical(self, seed):
        rng = random.Random(seed)
        query, tables = random_case(rng)
        session = incremental_engine().session(**tables)
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
            assert (
                StatsAccumulator.from_ctable(table).stats() == recomputed
            )

    def test_re_register_then_mutate_keeps_stats_exact(self):
        # Pins the PR-4 re-register delta path feeding the same
        # accumulator the mutation API rolls forward.
        session = incremental_engine().session(**small_tables())
        session.register(
            "V", CTable([((1, 1), TOP), ((2, 2), eq(X, 0))], arity=2)
        )
        session.insert("V", [((3, 3), ne(Y, 1))])
        session.delete("V", [((1, 1), TOP)])
        assert session.stats("V") == TableStats.from_ctable(
            session.table("V")
        )

    def test_identical_stats_mean_identical_plan_fingerprints(self):
        left = incremental_engine().session(**small_tables())
        right = Engine().session(**small_tables())
        left.insert("V", [((5, 5), TOP)])
        left.delete("V", [((5, 5), TOP)])
        assert left.stats("V") == right.stats("V")
        assert left._fingerprint(JOIN) == right._fingerprint(JOIN)


# ----------------------------------------------------------------------
# Fallback shapes, verification, and the rerun mode
# ----------------------------------------------------------------------

class TestFallbackAndVerification:
    def test_boolean_ctable_scan_falls_back_and_stays_correct(self):
        engine = incremental_engine()
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
        engine = incremental_engine()
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
        engine = incremental_engine(verify_plans=True)
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        rng = random.Random(3)
        for _ in range(3):
            apply_random_updates(rng, session)
            assert_delta_equals_rerun(prepared, context="verified")

    def test_view_verifier_catches_corrupted_order(self):
        engine = incremental_engine(verify_plans=True)
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
        # Explicit rather than relying on the default: the CI matrix runs
        # this suite under REPRO_MAINTENANCE=incremental too.
        engine = Engine(maintenance="rerun")
        assert engine.config.maintenance == "rerun"
        session = engine.session(**small_tables())
        prepared = session.prepare(JOIN)
        before = prepared.refresh()
        session.insert("V", [((2, 2), TOP)])
        after = prepared.refresh()
        assert session._views == {}
        assert after is not before
        assert_delta_equals_rerun(prepared, context="rerun mode")

    def test_maintenance_knob_rejects_unknown_values(self):
        with pytest.raises(ValueError):
            Engine(maintenance="eager")

    def test_view_lru_is_bounded(self):
        engine = incremental_engine()
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
        engine = incremental_engine()
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
    @pytest.mark.parametrize("build_side", ["left", "right"])
    def test_hash_join_both_build_sides(self, build_side, seed):
        # lower() builds on the smaller estimated side, so the table
        # sizes pick the side; both sides carry rows whose join key is a
        # variable, which exercises the symbolic (g = 1) pair order.
        small = CTable(
            [((0, 1), TOP), ((1, 2), eq(X, 1)), ((2, X), ne(Y, 2))], arity=2
        )
        large = CTable(
            [((index % 3, index), TOP) for index in range(9)]
            + [((Y, 7), eq(X, 2)), ((X, 8), TOP)],
            arity=2,
        )
        small_right = CTable([((1, 5), TOP), ((Y, 6), ne(X, 1))], arity=2)
        if build_side == "left":
            tables = {"V": small, "W": large}
        else:
            tables = {"V": large, "W": small_right}
        engine = incremental_engine()
        session = engine.session(**tables)
        prepared = session.prepare(JOIN)
        prepared.refresh()
        joins = [
            op for op in standing_physical(prepared).walk()
            if isinstance(op, HashJoinOp)
        ]
        assert [op.build_side for op in joins] == [build_side]
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
