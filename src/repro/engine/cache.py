"""The LRU caches behind prepared queries: plans and answer tables.

A cache entry is an optimized :class:`~repro.ctalgebra.plan.PlanNode`
keyed on the (interned) query AST, the version of each relation it
reads, and the optimize flag.  A session draws a new version for a
relation on every successful write, and computes a key before it reads
the tables, so an entry is only ever *returned* for the tables it was
computed from; one computed while a write landed sits under a version
no later lookup asks for.  Invalidation exists to keep the cache from
filling up with such unreachable entries and to make the
re-plan-on-write contract observable.

Entries also record which relation names they depend on, per scope (one
scope per :class:`~repro.engine.Session`), so a write can evict exactly
the entries whose inputs changed and leave the rest warm.

:class:`ResultCache` reuses the identical machinery for *answer tables*
(``q̄(T)`` results): c-tables are immutable values, so a repeated read
at unchanged versions can be served without touching the physical plan
at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Set, Tuple

from repro.obs.metrics import CacheStats


class PlanCache:
    """A bounded LRU mapping plan keys to planned :class:`PlanNode` trees.

    Thread safety: sessions are usable from threads, so an engine (and
    its caches) may be shared by many application threads; every public
    operation runs under one re-entrant lock.  ``get``'s
    ``move_to_end``, ``put``'s eviction sweep, and ``invalidate``'s
    two-structure walk each mutate the ``OrderedDict`` *and* the
    dependency index — interleaving them across threads corrupts the
    LRU order or leaks index entries, which a single GIL-atomic dict
    operation cannot protect against.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Tuple[object, Hashable, FrozenSet[str]]]" = (
            OrderedDict()
        )  # guarded-by: _lock
        # (scope, relation name) -> keys of entries reading that relation.
        self._by_dependency: Dict[
            Tuple[Hashable, str], Set[Hashable]
        ] = {}  # guarded-by: _lock
        # All hit/miss/eviction/invalidation accounting goes through the
        # shared CacheStats helper, constructed over this cache's own
        # (re-entrant) lock so counter updates from inside locked
        # sections stay under the same lock — never a bare increment.
        self._stats = CacheStats(lock=self._lock)

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """Return the cached plan for *key*, or ``None`` (LRU-touching)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.miss()
                return None
            self._entries.move_to_end(key)
            self._stats.hit()
            return entry[0]

    def put(
        self,
        key: Hashable,
        plan: object,
        scope: Hashable,
        dependencies: FrozenSet[str],
    ) -> None:
        """Insert *plan*, evicting the least-recently-used entry if full."""
        if self._capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._unindex(key)
                self._entries.pop(key)
            self._entries[key] = (plan, scope, dependencies)
            for name in dependencies:
                self._by_dependency.setdefault((scope, name), set()).add(key)
            while len(self._entries) > self._capacity:
                oldest = next(iter(self._entries))
                self._unindex(oldest)  # before the pop: _unindex reads the entry
                del self._entries[oldest]
                self._stats.evicted()

    def invalidate(self, scope: Hashable, names: Iterable[str]) -> int:
        """Evict entries of *scope* that read any of *names*; return count."""
        with self._lock:
            stale: Set[Hashable] = set()
            for name in names:
                stale |= self._by_dependency.get((scope, name), set())
            for key in stale:
                self._unindex(key)
                self._entries.pop(key, None)
            self._stats.invalidated(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_dependency.clear()

    def contains(self, key: Hashable) -> bool:
        """Whether *key* is present — no LRU touch, no counter update.

        EXPLAIN ANALYZE uses this to report cache provenance without
        perturbing the statistics it is reporting on.
        """
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        """Counters since construction (``clear`` does not reset them)."""
        with self._lock:
            counters = self._stats.as_dict()
            counters["entries"] = len(self._entries)
            counters["capacity"] = self._capacity
            return counters

    def _unindex(self, key: Hashable) -> None:  # requires-lock: _lock
        entry = self._entries.get(key)
        if entry is None:
            return
        _, scope, dependencies = entry
        for name in dependencies:
            bucket = self._by_dependency.get((scope, name))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_dependency[(scope, name)]


class ResultCache(PlanCache):
    """A bounded LRU mapping read keys to answer :class:`CTable` objects.

    Keys mirror the plan cache's — (session scope, interned query,
    relation versions, the config fields that shape the answer).
    Correctness rests on the versions: any new table-mutation path MUST
    draw a new version after publishing its table, like
    ``Session.register`` and ``Session._mutate`` do.  At unchanged
    versions, c-table immutability makes sharing the cached answer safe.

    After a mutation (``Session.insert``/``delete``/``update``),
    ``PreparedQuery.refresh()`` *re-populates* the cache: the maintained
    view's refreshed table is ``put`` under the key taken before the
    view read the tables — so a standing read loop over mutating data
    stays a cache hit without ever observing a stale answer.
    """

    __slots__ = ()


class CircuitCache(PlanCache):
    """A bounded LRU mapping condition keys to compiled d-DNNF circuits.

    Entries are :class:`repro.prob.wmc.CompiledCondition` objects keyed
    on the interned lineage formula plus a fingerprint of the
    distributions restricted to the formula's variables — the two inputs
    that fully determine the probability.  The key therefore *proves*
    correctness on its own (a hit can never be wrong); invalidation, per
    relation scope alongside the result cache on ``Session.register``,
    exists only to drop entries whose lineages can no longer be asked
    for.  Because the cached object memoizes its count, a prepared
    probability loop pays compile + count once and answers every
    subsequent call from memory
    (``tests/test_wmc.py::TestEngineCircuitCache::test_repeated_probability_hits_the_cache``).
    """

    __slots__ = ()
