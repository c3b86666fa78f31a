"""Tests for ``repro.obs``: metrics, tracing, and EXPLAIN ANALYZE.

The determinism contract under test: operator identities, row counts,
batch counts, and trace shape are identical from run to run, and the
traced executors answer identically; timings naturally vary and are
excluded from the deterministic view (``timings=False``).
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from harness import assert_structurally_identical, random_case
from repro import CTable, Engine, col_eq, col_eq_const, proj, prod, rel, sel
from repro.logic.syntax import TOP
from repro.obs import (
    DRIFT_THRESHOLD,
    CacheStats,
    MetricsRegistry,
    TraceCollector,
    Tracer,
    current_tracer,
    estimate_drift,
    render_prometheus,
    trace_span,
    tracing_active,
)
from repro.obs.names import (
    OPTIMIZER_RULES_TOTAL,
    QUERIES_TOTAL,
    REGISTERED_NAMES,
    SPAN_EXECUTE,
    SPAN_LOWER,
    SPAN_OPTIMIZE,
    SPAN_PLAN,
    SPAN_QUERY,
)

# A join whose answer is identical across every executor.
JOIN = proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), (0, 3))


def make_session(engine: Engine):
    session = engine.session()
    session.register("L", CTable([((i, i % 5), TOP) for i in range(60)]))
    session.register("R", CTable([((i % 5, i), TOP) for i in range(40)]))
    return session


def strip_timings(node: dict) -> dict:
    """The deterministic view of a trace dict: no seconds."""
    out = {"name": node["name"]}
    attrs = dict(node.get("attrs", {}))
    operators = attrs.get("operators")
    if operators:
        attrs["operators"] = [
            {
                key: value
                for key, value in record.items()
                if key != "seconds"
            }
            for record in operators
        ]
    if attrs:
        out["attrs"] = attrs
    children = [strip_timings(child) for child in node.get("children", [])]
    if children:
        out["children"] = children
    return out


# ----------------------------------------------------------------------
# MetricsRegistry / CacheStats / Prometheus
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter(QUERIES_TOTAL, labels={"executor": "vectorized"})
        registry.counter(QUERIES_TOTAL, 2, labels={"executor": "vectorized"})
        registry.counter(QUERIES_TOTAL, labels={"executor": "interpreted"})
        assert (
            registry.counter_value(
                QUERIES_TOTAL, labels={"executor": "vectorized"}
            )
            == 3.0
        )
        assert (
            registry.counter_value(
                QUERIES_TOTAL, labels={"executor": "interpreted"}
            )
            == 1.0
        )

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter(QUERIES_TOTAL, labels={"a": 1, "b": 2})
        registry.counter(QUERIES_TOTAL, labels={"b": 2, "a": 1})
        assert (
            registry.counter_value(QUERIES_TOTAL, labels={"b": 2, "a": 1})
            == 2.0
        )

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge(QUERIES_TOTAL, 4.0)
        registry.gauge(QUERIES_TOTAL, 7.0)
        assert registry.snapshot()["gauges"][QUERIES_TOTAL][""] == 7.0

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.histogram(QUERIES_TOTAL, value)
        summary = registry.snapshot()["histograms"][QUERIES_TOTAL][""]
        assert summary == {"count": 3.0, "max": 3.0, "min": 1.0, "sum": 6.0}

    def test_snapshot_is_deterministic_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter(QUERIES_TOTAL, labels={"executor": "interpreted"})
        registry.counter(QUERIES_TOTAL, labels={"executor": "vectorized"})
        registry.histogram(QUERIES_TOTAL, 0.5)
        first = json.dumps(registry.snapshot(), sort_keys=True)
        second = json.dumps(registry.snapshot(), sort_keys=True)
        assert first == second

    def test_clear_drops_all_series(self):
        registry = MetricsRegistry()
        registry.counter(QUERIES_TOTAL)
        registry.clear()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_thread_safety_no_lost_updates(self):
        registry = MetricsRegistry()

        def spin():
            for _ in range(1000):
                registry.counter(QUERIES_TOTAL)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value(QUERIES_TOTAL) == 4000.0


class TestCacheStats:
    def test_counters(self):
        stats = CacheStats()
        stats.hit()
        stats.hit()
        stats.miss()
        stats.evicted(3)
        stats.invalidated(2)
        assert stats.as_dict() == {
            "evictions": 3,
            "hits": 2,
            "invalidations": 2,
            "misses": 1,
        }

    def test_external_reentrant_lock(self):
        lock = threading.RLock()
        stats = CacheStats(lock=lock)
        with lock:  # the owning cache is already inside its own lock
            stats.hit()
        assert stats.as_dict()["hits"] == 1


class TestPrometheus:
    def test_registry_rendering(self):
        registry = MetricsRegistry()
        registry.counter(QUERIES_TOTAL, labels={"executor": "vectorized"})
        text = render_prometheus(registry.snapshot())
        assert f"# TYPE repro_{QUERIES_TOTAL} counter" in text
        assert (
            f'repro_{QUERIES_TOTAL}{{executor="vectorized"}} 1.0' in text
        )

    def test_engine_snapshot_rendering(self):
        engine = Engine()
        session = make_session(engine)
        session.prepare(JOIN).execute()
        text = engine.metrics_prometheus()
        assert 'repro_cache_misses{cache="result"} 1' in text
        assert '# TYPE repro_cache_hits gauge' in text
        assert f"repro_{QUERIES_TOTAL}" in text


# ----------------------------------------------------------------------
# Tracer / TraceCollector primitives
# ----------------------------------------------------------------------

class TestTracer:
    def test_disabled_fast_path(self):
        assert not tracing_active()
        assert current_tracer() is None
        with trace_span(SPAN_PLAN) as span:
            assert span is None

    def test_span_nesting_and_timing(self):
        tracer = Tracer(query="q")
        with tracer.activate():
            assert tracing_active()
            assert current_tracer() is tracer
            with trace_span(SPAN_PLAN, cached=False):
                with trace_span(SPAN_LOWER):
                    pass
        assert not tracing_active()
        trace = tracer.to_dict()
        assert trace["name"] == SPAN_QUERY
        assert trace["seconds"] >= 0.0
        plan = trace["children"][0]
        assert plan["name"] == SPAN_PLAN
        assert plan["attrs"] == {"cached": False}
        assert plan["children"][0]["name"] == SPAN_LOWER

    def test_deterministic_view_drops_seconds(self):
        tracer = Tracer()
        with tracer.activate():
            with trace_span(SPAN_PLAN):
                pass
        rendered = tracer.to_json(timings=False)
        assert "seconds" not in rendered

    def test_count_accumulates_on_open_span(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span(SPAN_PLAN) as span:
                tracer.count("rule.fired")
                tracer.count("rule.fired")
        assert span.attrs["rule.fired"] == 2

    def test_all_span_and_metric_names_registered(self):
        assert SPAN_QUERY in REGISTERED_NAMES
        assert QUERIES_TOTAL in REGISTERED_NAMES
        assert OPTIMIZER_RULES_TOTAL in REGISTERED_NAMES


# ----------------------------------------------------------------------
# Engine-level tracing: determinism across runs
# ----------------------------------------------------------------------

class TestTraceDeterminism:
    def executed_trace(self, *, executor: str = "vectorized"):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN, trace=True, executor=executor)
        answer = prepared.execute()
        return answer, engine.last_trace()

    def operator_view(self, stripped_trace: dict):
        for child in stripped_trace["children"]:
            if child["name"] == SPAN_EXECUTE:
                return child["attrs"]["operators"]
        raise AssertionError("no execute span in trace")

    def test_vectorized_trace_repeatable_rows(self):
        first_answer, first = self.executed_trace()
        second_answer, second = self.executed_trace()
        assert_structurally_identical(first_answer, second_answer)
        assert strip_timings(first) == strip_timings(second)
        assert self.operator_view(strip_timings(first))

    def test_trace_shape_parse_plan_lower_execute(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare("pi[1,4](sigma[2=3](L x R))", trace=True)
        prepared.execute()
        trace = engine.last_trace()
        names = [child["name"] for child in trace["children"]]
        assert names == ["parse", "plan", "lower", "execute"]
        # Under REPRO_VERIFY_PLANS=1 verify spans join optimize under
        # the plan span, so locate optimize rather than pinning index 0.
        plan_children = [
            child["name"] for child in trace["children"][1]["children"]
        ]
        assert SPAN_OPTIMIZE in plan_children

    def test_interpreted_executor_traces_without_operators(self):
        engine = Engine()
        session = make_session(engine)
        session.prepare(JOIN, trace=True, executor="interpreted").execute()
        trace = engine.last_trace()
        execute = [c for c in trace["children"] if c["name"] == SPAN_EXECUTE]
        assert execute and "operators" not in execute[0].get("attrs", {})

    def test_cached_execution_traces_as_cache_hit(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN, trace=True)
        prepared.execute()
        prepared.execute()
        trace = engine.last_trace()
        execute = [c for c in trace["children"] if c["name"] == SPAN_EXECUTE]
        assert execute[0]["attrs"]["cached"] is True


# ----------------------------------------------------------------------
# Disabled mode: no traces, no behavior change
# ----------------------------------------------------------------------

class TestDisabledMode:
    def test_untraced_execution_stores_no_trace(self):
        # trace=False pinned explicitly so the assertion holds under the
        # REPRO_TRACE=1 CI matrix entry too.
        engine = Engine()
        session = make_session(engine)
        answer = session.prepare(JOIN, trace=False).execute()
        assert len(answer.rows) > 0
        assert engine.last_trace() is None
        assert engine.last_trace_json() is None
        assert not tracing_active()

    def test_traced_and_untraced_answers_identical(self):
        engine = Engine()
        session = make_session(engine)
        plain = session.prepare(JOIN, trace=False).execute()
        traced_engine = Engine()
        traced_session = make_session(traced_engine)
        traced = traced_session.prepare(JOIN, trace=True).execute()
        assert_structurally_identical(plain, traced)

    def test_trace_flag_excluded_from_result_cache_key(self):
        engine = Engine()
        session = make_session(engine)
        session.prepare(JOIN).execute()
        session.prepare(JOIN, trace=True).execute()
        caches = engine.metrics_snapshot()["caches"]
        assert caches["result"]["hits"] == 1
        assert caches["result"]["misses"] == 1


# ----------------------------------------------------------------------
# Engine.metrics_snapshot()
# ----------------------------------------------------------------------

class TestMetricsSnapshot:
    def test_unified_cache_stats_for_all_four_caches(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN)
        prepared.execute()
        prepared.execute()
        snapshot = engine.metrics_snapshot()
        assert sorted(snapshot["caches"]) == [
            "circuit",
            "evaluation",
            "plan",
            "result",
        ]
        for stats in snapshot["caches"].values():
            for key in ("hits", "misses", "evictions", "invalidations"):
                assert key in stats
        assert snapshot["caches"]["result"]["hits"] >= 1
        assert snapshot["caches"]["plan"]["misses"] >= 1

    def test_engine_and_process_sections(self):
        engine = Engine()
        session = make_session(engine)
        session.prepare(JOIN).execute()
        snapshot = engine.metrics_snapshot()
        counters = snapshot["engine"]["counters"]
        assert QUERIES_TOTAL in counters
        process = snapshot["process"]["counters"]
        assert OPTIMIZER_RULES_TOTAL in process
        fired = {
            labels: value
            for labels, value in process[OPTIMIZER_RULES_TOTAL].items()
            if "outcome=fired" in labels
        }
        assert fired  # the join fusion alone must have fired

    def test_snapshot_stable_between_reads(self):
        engine = Engine()
        session = make_session(engine)
        session.prepare(JOIN).execute()
        first = json.dumps(engine.metrics_snapshot(), sort_keys=True)
        second = json.dumps(engine.metrics_snapshot(), sort_keys=True)
        assert first == second

    def test_solver_counters_move_under_probability(self):
        engine = Engine()
        session = engine.session()
        from repro import PCTable
        from repro.logic.atoms import BoolVar

        rows = [((1, 2), BoolVar("b1")), ((3, 4), BoolVar("b2"))]
        session.register(
            "P",
            PCTable(
                rows,
                distributions={
                    "b1": {True: 0.5, False: 0.5},
                    "b2": {True: 0.25, False: 0.75},
                },
            ),
        )
        before = engine.metrics_snapshot()["process"]["counters"]
        dataset = session.query(sel(rel("P", 2), col_eq_const(0, 1)))
        dataset.probability((1, 2))
        after = engine.metrics_snapshot()["process"]["counters"]

        def total(counters, name):
            return sum(counters.get(name, {}).values())

        moved = any(
            total(after, name) > total(before, name)
            for name in (
                "solver_sat_solve_total",
                "solver_dpll_recursions_total",
                "solver_wmc_count_total",
            )
        )
        assert moved


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------

class TestExplainAnalyze:
    def test_estimate_drift(self):
        assert estimate_drift(None, 10) is None
        assert estimate_drift(10.0, 10) == 1.0
        assert estimate_drift(10.0, 40) == 4.0
        assert estimate_drift(40.0, 10) == 4.0
        # zero-row floors avoid division blowups
        assert estimate_drift(0.0, 0) == 1.0
        assert DRIFT_THRESHOLD == 4.0

    def test_join_rendering(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN)
        text = prepared.explain(analyze=True)
        assert "EXPLAIN ANALYZE" in text
        assert "est≈" in text
        assert "act=" in text
        assert "time=" in text
        assert "HashJoin" in text
        assert "result cache: miss" in text

    def test_result_cache_provenance(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN)
        prepared.execute()
        text = prepared.explain(analyze=True)
        assert "result cache: hit" in text

    def test_drift_flagged_on_skewed_column(self):
        # 90 of 100 rows share constant 7 in column 1; ten distinct
        # values make the uniform estimate rows/distinct ≈ 11, so the
        # actual 91 rows drift ≥ 4× and must be flagged.
        engine = Engine()
        session = engine.session()
        rows = [((i, 7), TOP) for i in range(90)]
        rows += [((90 + j, j), TOP) for j in range(10)]
        session.register("S", CTable(rows))
        prepared = session.prepare(sel(rel("S", 2), col_eq_const(1, 7)))
        text = prepared.explain(analyze=True)
        assert "[drift" in text

    def test_analyze_does_not_touch_result_cache(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN)
        prepared.explain(analyze=True)
        stats = engine.metrics_snapshot()["caches"]["result"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_dataset_explain_analyze(self):
        engine = Engine()
        session = make_session(engine)
        dataset = session.query(JOIN)
        dataset.collect()
        text = dataset.explain(analyze=True)
        assert "EXPLAIN ANALYZE" in text
        assert "act=" in text

    def test_interpreted_analyzed_through_vectorized_lowering(self):
        engine = Engine()
        session = make_session(engine)
        prepared = session.prepare(JOIN, executor="interpreted")
        text = prepared.explain(analyze=True)
        assert "executor=vectorized" in text


# ----------------------------------------------------------------------
# Differential sweep with tracing on
# ----------------------------------------------------------------------

class TestTracedDifferential:
    @pytest.mark.parametrize("seed", [9201, 9202])
    def test_executors_agree_under_tracing(self, seed):
        rng = random.Random(seed)
        for trial in range(10):
            query, tables = random_case(rng)
            answers = {}
            traces = {}
            analyzed = None
            for executor in ("interpreted", "vectorized"):
                engine = Engine()
                session = engine.session()
                for name, table in tables.items():
                    session.register(name, table)
                prepared = session.prepare(
                    query, trace=True, executor=executor
                )
                answers[executor] = prepared.execute()
                traces[executor] = engine.last_trace()
                if executor == "interpreted":
                    # EXPLAIN ANALYZE of an interpreted query runs its
                    # vectorized lowering; its operator rows must match.
                    prepared.explain(analyze=True)
                    analyzed = engine.last_trace()
            context = f"seed={seed} trial={trial} query={query!r}"
            assert_structurally_identical(
                answers["interpreted"], answers["vectorized"], context
            )
            for executor, trace in traces.items():
                assert trace is not None and trace["name"] == SPAN_QUERY, (
                    f"missing trace for {executor} [{context}]"
                )
            vec_ops = [
                c
                for c in traces["vectorized"]["children"]
                if c["name"] == SPAN_EXECUTE
            ][0]["attrs"]["operators"]
            analyzed_ops = [
                c
                for c in analyzed["children"]
                if c["name"] == SPAN_EXECUTE
            ][0]["attrs"]["operators"]
            deterministic = lambda ops: [  # noqa: E731
                {
                    k: o[k]
                    for k in ("operator", "rows_in", "rows_out", "calls")
                }
                for o in ops
            ]
            assert deterministic(vec_ops) == deterministic(analyzed_ops), (
                context
            )
