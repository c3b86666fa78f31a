"""Tests for the prepared-query plan cache (LRU + stats invalidation)."""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    CTable,
    Engine,
    Var,
    col_eq,
    ctables_equivalent,
    eq,
    ne,
    proj,
    prod,
    rel,
    sel,
)
from repro.engine.cache import PlanCache, ResultCache


X = Var("x")

QUERY = proj(sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3])


def make_table(rows: int = 6) -> CTable:
    return CTable(
        [((i % 3, i % 5), ne(X, i % 2)) for i in range(rows)]
        + [((X, 0), eq(X, 1))],
        arity=2,
    )


class TestPlanCacheHits:
    def test_cache_hit_returns_identical_plan_object(self):
        engine = Engine()
        session = engine.session(V=make_table())
        first = session.prepare(QUERY).plan()
        before = engine.plan_cache_stats()["hits"]
        second = session.prepare(QUERY).plan()
        assert second is first  # the object, not merely an equal plan
        assert engine.plan_cache_stats()["hits"] == before + 1

    def test_equal_query_asts_share_the_entry(self):
        engine = Engine()
        session = engine.session(V=make_table())
        rebuilt = proj(
            sel(prod(rel("V", 2), rel("V", 2)), col_eq(1, 2)), [0, 3]
        )
        assert session.prepare(QUERY).plan() is session.prepare(rebuilt).plan()

    def test_parsed_text_shares_the_entry(self):
        engine = Engine()
        session = engine.session(V=make_table())
        text = "pi[1](sigma[1='1'](V))"
        assert (
            session.prepare(text).plan() is session.prepare(text).plan()
        )

    def test_dataset_terminals_reuse_the_cached_plan(self):
        engine = Engine()
        session = engine.session(V=make_table())
        dataset = session.query(QUERY)
        dataset.collect()
        assert session.query(QUERY).prepared.plan() is dataset.prepared.plan()


class TestInvalidation:
    def test_re_register_causes_replan(self):
        engine = Engine()
        session = engine.session(V=make_table(6))
        stale = session.prepare(QUERY).plan()
        session.register("V", make_table(40))  # changed statistics
        fresh = session.prepare(QUERY).plan()
        assert fresh is not stale
        assert engine.plan_cache_stats()["invalidations"] >= 1

    def test_unrelated_register_keeps_entry_warm(self):
        engine = Engine()
        session = engine.session(V=make_table())
        cached = session.prepare(QUERY).plan()
        session.register("W", make_table(3))  # not read by QUERY
        assert session.prepare(QUERY).plan() is cached

    def test_sessions_do_not_share_entries(self):
        engine = Engine()
        table = make_table()
        plan_a = engine.session(V=table).prepare(QUERY).plan()
        misses_before = engine.plan_cache_stats()["misses"]
        engine.session(V=table).prepare(QUERY).plan()
        assert engine.plan_cache_stats()["misses"] == misses_before + 1
        # The plans are equal trees even though the entries are distinct.
        assert engine.session(V=table).prepare(QUERY).plan() == plan_a


class TestCapacity:
    def test_lru_evicts_oldest(self):
        engine = Engine(plan_cache_size=2)
        session = engine.session(V=make_table())
        queries = [proj(rel("V", 2), [i % 2]) for i in range(2)]
        plans = [session.prepare(q).plan() for q in queries]
        session.prepare(QUERY).plan()  # third entry evicts the first
        assert engine.plan_cache_stats()["evictions"] == 1
        assert session.prepare(queries[1]).plan() is plans[1]  # still warm
        assert session.prepare(queries[0]).plan() is not plans[0]

    def test_zero_capacity_disables_caching(self):
        engine = Engine(plan_cache_size=0)
        session = engine.session(V=make_table())
        assert session.prepare(QUERY).plan() is not session.prepare(QUERY).plan()

    def test_clear_plan_cache(self):
        engine = Engine()
        session = engine.session(V=make_table())
        cached = session.prepare(QUERY).plan()
        engine.clear_plan_cache()
        assert session.prepare(QUERY).plan() is not cached


class TestPlanCacheUnit:
    def test_invalidate_is_scoped(self):
        cache = PlanCache(8)
        cache.put("k1", "plan1", scope=1, dependencies=frozenset({"V"}))
        cache.put("k2", "plan2", scope=2, dependencies=frozenset({"V"}))
        assert cache.invalidate(1, ("V",)) == 1
        assert cache.get("k1") is None
        assert cache.get("k2") == "plan2"

    def test_invalidate_only_named_dependencies(self):
        cache = PlanCache(8)
        cache.put("k1", "plan1", scope=1, dependencies=frozenset({"V"}))
        cache.put("k2", "plan2", scope=1, dependencies=frozenset({"W"}))
        assert cache.invalidate(1, ("W",)) == 1
        assert cache.get("k1") == "plan1"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(-1)

    def test_lru_eviction_cleans_dependency_index(self):
        cache = PlanCache(1)
        cache.put("k1", "p1", scope=1, dependencies=frozenset({"A"}))
        cache.put("k2", "p2", scope=1, dependencies=frozenset({"A"}))
        # k1 was evicted; the dependency index must not pin it forever,
        # and invalidation must count only the live entry.
        assert cache.invalidate(1, ("A",)) == 1
        assert len(cache) == 0

    def test_plan_and_result_cache_thread_hammer(self):
        # Sessions are usable from threads, so the caches must keep the
        # LRU order and the dependency index consistent under races.
        for cache in (PlanCache(16), ResultCache(16)):
            barrier = threading.Barrier(6)

            def worker(worker_id, cache=cache, barrier=barrier):
                rng = random.Random(worker_id)
                barrier.wait()
                for step in range(200):
                    key = f"k{rng.randrange(24)}"
                    action = rng.random()
                    if action < 0.5:
                        cache.get(key)
                    elif action < 0.8:
                        cache.put(
                            key,
                            f"value-{worker_id}-{step}",
                            scope=worker_id % 2,
                            dependencies=frozenset({key[:2]}),
                        )
                    elif action < 0.95:
                        cache.invalidate(worker_id % 2, (key[:2],))
                    else:
                        cache.stats()

            with ThreadPoolExecutor(max_workers=6) as pool:
                list(pool.map(worker, range(6)))
            stats = cache.stats()
            assert stats["entries"] <= 16
            # The dependency index must not leak evicted/invalidated keys.
            live = set(cache._entries)
            indexed = set().union(*cache._by_dependency.values(), set())
            assert indexed <= live


#: Single-relation shape for the cache tests, via the shared harness
#: generators (``tests/harness.py``) — the same pool the differential
#: executor suite draws from.
def _single_v_case(rng: random.Random):
    from harness import QueryProfile, TableProfile, random_ctable, random_query

    profile = TableProfile(max_rows=4, variables=("x", "y"))
    table = random_ctable(rng, profile)
    query = random_query(
        rng, QueryProfile(relations=(("V", 2),)), depth=2
    )
    return table, query


class TestCachedResultsEquivalent:
    """Cached-plan results must stay Mod-equal to cold-path results."""

    def test_randomized_tables_and_queries(self):
        rng = random.Random(23)
        engine = Engine()
        for trial in range(25):
            table, query = _single_v_case(rng)
            session = engine.session(V=table)
            warmup = session.query(query).collect()
            cached = session.query(query).collect()  # second run: cache hit
            cold = Engine().session(V=table).query(query).collect()
            assert cached == warmup, (trial, query)
            assert ctables_equivalent(cached, cold), (trial, query)

    def test_replan_after_register_stays_equivalent(self):
        rng = random.Random(5)
        engine = Engine()
        session = engine.session(V=make_table())
        for trial in range(10):
            table, query = _single_v_case(rng)
            session.register("V", table)
            via_session = session.query(query).collect()
            via_flat = Engine(optimize=False).session(V=table).query(query).collect()
            assert ctables_equivalent(via_session, via_flat), (trial, query)
