"""Engine, Session, PreparedQuery, Dataset — the session-layer API.

The paper's central claim (Theorems 4, 8–9) is architectural: *one*
representation — c-tables, pc-tables — answers every downstream question
(certain, possible, probabilistic, lineage) without enumerating worlds.
The flat top-level API obscures that: each of ``certain_answer_symbolic``,
``possible_answer_symbolic``, ``lineage_of``, ``tuple_probability_lineage``
independently re-translates and re-plans the query and re-evaluates
``q̄(T)``.  This module makes the shared structure explicit:

- an :class:`Engine` owns an :class:`~repro.engine.config.ExecutionConfig`
  and an LRU plan cache,
- a :class:`Session` registers named tables of *any* representation
  system (v-/Codd-/or-set-/?-/…/c-tables, pc-tables), coercing each to a
  c-table once via :func:`~repro.tables.convert.ctable_of` and caching
  per-table statistics,
- ``session.query(q)`` returns a lazy :class:`Dataset` whose terminal
  methods — ``collect``, ``certain``, ``possible``, ``probability``,
  ``lineage``, ``explain`` — all share one :class:`PreparedQuery`: the
  query is planned once (plan memoized in the engine's cache, keyed on
  query + schema + statistics fingerprint) and ``q̄(T)`` is evaluated
  once, then every question is answered off that single answer table.

The pre-engine top-level functions survive as thin shims over a
module-level default engine (see :func:`repro.engine.default_engine`),
so existing code and the paper-artifact tests run unchanged.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import OrderedDict
from fractions import Fraction
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.idatabase import IDatabase

from repro.errors import ProbabilityError, QueryError, TableError, nearest_name
from repro.core.domain import Domain
from repro.core.instance import Instance, Row
from repro.logic.syntax import BOTTOM, Formula
from repro.algebra.ast import Query
from repro.algebra.parser import parse_query
from repro.tables.base import Table
from repro.tables.codd import CoddTable
from repro.tables.ctable import BooleanCTable, CRow, CTable, make_row
from repro.tables.convert import ctable_of
from repro.ctalgebra.plan import (
    PlanNode,
    StatsAccumulator,
    TableStats,
    collect_stats,
    execute_plan,
    explain as explain_plan,
)
from repro.ctalgebra.translate import build_plan
from repro.ctalgebra.verify import PlanVerifier
from repro.physical import (
    PhysicalOp,
    execute_physical,
    execute_plan_vectorized,
    explain_physical,
    lower,
)
from repro.prob.pctable import PCTable
from repro.engine.cache import CircuitCache, PlanCache, ResultCache
from repro.engine.config import ExecutionConfig
from repro.obs.explain import render_analyze
from repro.obs.metrics import MetricsRegistry, global_metrics, render_prometheus
from repro.obs.names import (
    IVM_DELTA_ROWS_TOTAL,
    IVM_MUTATIONS_TOTAL,
    IVM_REFRESH_SECONDS,
    IVM_REFRESH_TOTAL,
    QUERIES_TOTAL,
    QUERY_SECONDS,
    SPAN_EXECUTE,
    SPAN_LOWER,
    SPAN_PARSE,
    SPAN_PLAN,
    SPAN_REFRESH,
)
from repro.obs.trace import TraceCollector, Tracer, current_tracer, trace_span
from repro.ivm import DeltaBatch, MaterializedView
from repro.ivm.view import Binding


def bind_single_table(query: Query, table: CTable) -> Dict[str, CTable]:
    """Bindings for the paper's single-relation usage; reject self-joins
    across *distinct* names.

    The pre-engine ``apply_query_to_ctable`` bound every relation name in
    the query to the same table and only checked arity, so a query over
    ``R`` and ``S`` silently got self-join semantics.  Queries mentioning
    more than one name now raise: bind each name explicitly through
    ``translate_query(query, bindings)`` or ``Session.register``.
    """
    names = query.relation_names()
    if len(names) > 1:
        ordered = sorted(names)
        raise QueryError(
            f"query references relations {ordered}; binding them all to one "
            f"table would silently compute a self-join.  Bind "
            f"{ordered[1:]} explicitly via translate_query(query, bindings) "
            f"or register each relation in a Session"
        )
    for name, arity in names.items():
        if arity != table.arity:
            raise QueryError(
                f"query input {name!r} has arity {arity}, c-table has "
                f"arity {table.arity}"
            )
    return {name: table for name in names}


#: The variable-distribution maps pc-tables contribute.
_Distributions = Dict[str, Dict[Hashable, Fraction]]


def _merge_distribution_sources(
    sources: Iterable[Mapping[str, Mapping[Hashable, Fraction]]],
) -> _Distributions:
    """Merge per-table variable distributions; conflicting names raise."""
    merged: Dict[str, Dict[Hashable, Fraction]] = {}
    for distributions in sources:
        for variable, dist in distributions.items():
            existing = merged.get(variable)
            if existing is not None and existing != dict(dist):
                raise ProbabilityError(
                    f"variable {variable!r} has conflicting distributions "
                    f"across registered pc-tables"
                )
            merged[variable] = dict(dist)
    return merged


class _Registered:
    """One registry entry: the coerced c-table plus cached derived data.

    ``row_ids`` aligns one monotonically assigned integer with each row
    of ``ctable`` (registration numbers the initial rows ``0..n-1``;
    the mutation API hands out fresh ids from ``next_row_id`` and never
    recycles them).  Ascending row id *is* the rows' order, which the
    incremental-maintenance layer relies on to reproduce rerun order.
    """

    __slots__ = (
        "source", "ctable", "stats", "accumulator", "distributions",
        "row_ids", "next_row_id",
    )

    def __init__(
        self,
        source: object,
        ctable: CTable,
        stats: TableStats,
        accumulator: StatsAccumulator,
        distributions: Optional[Mapping[str, Mapping[Hashable, Fraction]]],
    ) -> None:
        self.source = source
        self.ctable = ctable
        self.stats = stats
        self.accumulator = accumulator
        self.distributions = distributions
        self.row_ids: List[int] = list(range(len(ctable.rows)))
        self.next_row_id = len(ctable.rows)


class _PlanEntry:
    """What the plan cache stores per key: the logical plan, plus the
    physical plan lowered from it on first physical execution."""

    __slots__ = ("logical", "physical")

    def __init__(self, logical: PlanNode) -> None:
        self.logical = logical
        self.physical: Optional[PhysicalOp] = None


def _distribution_fingerprint(
    condition: Formula,
    distributions: Mapping[str, Mapping[Hashable, Fraction]],
) -> Tuple[Tuple[str, Optional[Tuple[Tuple[Hashable, Fraction], ...]]], ...]:
    """A canonical key for the distributions *condition* depends on.

    Restricted to the condition's own variables (anything else cannot
    change its probability), with outcomes in repr-sorted order so
    structurally equal distribution maps fingerprint identically.  A
    variable without a distribution is recorded as ``None`` — the
    compile path then raises the coverage error exactly once per key.
    """
    entries: list = []
    for name in sorted(condition.variables()):
        distribution = distributions.get(name)
        if distribution is None:
            entries.append((name, None))
            continue
        outcomes = tuple(
            sorted(
                ((value, Fraction(weight)) for value, weight in distribution.items()),
                key=lambda item: repr(item[0]),
            )
        )
        entries.append((name, outcomes))
    return tuple(entries)


class Engine:
    """Holds the execution config, the plan cache, and session factory.

    An engine is cheap to construct; applications typically keep one per
    configuration.  The module-level :func:`repro.engine.default_engine`
    backs the legacy top-level functions.
    """

    def __init__(
        self, config: Optional[ExecutionConfig] = None, **options: object
    ) -> None:
        if config is None:
            config = ExecutionConfig()
        self._config = config.with_options(**options)
        self._plan_cache = PlanCache(self._config.plan_cache_size)
        self._result_cache = ResultCache(self._config.result_cache_size)
        self._circuit_cache = CircuitCache(self._config.circuit_cache_size)
        self._intern_lock = threading.Lock()
        # An engine may be shared across application threads; interning
        # is get-then-insert over a plain dict plus a bounding clear, so
        # it runs under its own small lock (the GIL does not make the
        # compound read-modify-write atomic).
        self._query_interning: Dict[Query, Query] = {}  # guarded-by: _intern_lock
        self._metrics = MetricsRegistry()
        self._trace_lock = threading.Lock()
        # The most recent per-query trace (JSON-ready dict), written by
        # traced executions and EXPLAIN ANALYZE.
        self._last_trace: Optional[Dict[str, Any]] = None  # guarded-by: _trace_lock

    @property
    def config(self) -> ExecutionConfig:
        return self._config

    def plan_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/invalidation counters of the plan cache."""
        return self._plan_cache.stats()

    def clear_plan_cache(self) -> None:
        self._plan_cache.clear()

    def result_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/invalidation counters of the result cache."""
        return self._result_cache.stats()

    def clear_result_cache(self) -> None:
        self._result_cache.clear()

    def circuit_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/invalidation counters of the circuit cache."""
        return self._circuit_cache.stats()

    def clear_circuit_cache(self) -> None:
        self._circuit_cache.clear()

    @property
    def metrics(self) -> MetricsRegistry:
        """This engine's metrics registry (query counters, latencies)."""
        return self._metrics

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One stable dict of everything the engine can observe.

        ``"caches"`` holds the unified hit/miss/size stats of all four
        caches (plan, result, circuit, and the memoized evaluation
        cache); ``"engine"`` this engine's own registry (per-query
        counters and latency histograms); ``"process"`` the process-wide
        registry the module-level subsystems report to — optimizer
        rule fire/no-fire counts and SAT/BDD/DPLL/WMC solver-call
        counters.  Key order is deterministic, so snapshots diff
        cleanly across runs.
        """
        from repro.logic.evaluation import evaluation_cache_stats

        return {
            "caches": {
                "circuit": self._circuit_cache.stats(),
                "evaluation": evaluation_cache_stats(),
                "plan": self._plan_cache.stats(),
                "result": self._result_cache.stats(),
            },
            "engine": self._metrics.snapshot(),
            "process": global_metrics().snapshot(),
        }

    def metrics_prometheus(self) -> str:
        """The metrics snapshot in Prometheus text exposition format."""
        return render_prometheus(self.metrics_snapshot())

    def last_trace(self) -> Optional[Dict[str, Any]]:
        """The most recent per-query trace dict (``trace=True`` or
        EXPLAIN ANALYZE), or None when nothing has been traced yet."""
        with self._trace_lock:
            return self._last_trace

    def last_trace_json(self, indent: Optional[int] = 2) -> Optional[str]:
        """The most recent trace as deterministic JSON (keys sorted)."""
        trace = self.last_trace()
        if trace is None:
            return None
        return json.dumps(trace, indent=indent, sort_keys=True, default=str)

    def _store_trace(self, trace: Dict[str, Any]) -> None:
        with self._trace_lock:
            self._last_trace = trace

    def condition_probability(
        self,
        condition: Formula,
        distributions: Mapping[str, Mapping[Hashable, Fraction]],
        *,
        strategy: Optional[str] = None,
        scope: Hashable = None,
        dependencies: FrozenSet[str] = frozenset(),
    ) -> Fraction:
        """Exact probability of *condition*, circuit-cached on the WMC route.

        Dispatches like :func:`repro.logic.counting.probability` (with
        the engine config's ``prob_strategy`` as the default), but when
        the compiled d-DNNF route is chosen the
        :class:`~repro.prob.wmc.CompiledCondition` is kept in the
        engine's :class:`~repro.engine.cache.CircuitCache`, keyed on the
        interned condition plus a fingerprint of the distributions
        restricted to its variables.  Those two inputs fully determine
        the answer, so a hit is always correct; since the cached object
        memoizes its count, a prepared probability loop compiles once,
        counts once, and then answers from memory.  *scope* and
        *dependencies* (a session id and relation names) let
        ``Session.register`` evict exactly the lineages whose inputs
        changed.
        """
        from repro.logic.counting import (
            PROB_STRATEGIES,
            PROB_VARIABLE_BUDGET,
            probability,
        )

        resolved = (strategy or self._config.prob_strategy).lower()
        if resolved not in PROB_STRATEGIES:
            raise ProbabilityError(
                f"unknown probability strategy {resolved!r}; "
                f"expected one of {PROB_STRATEGIES}"
            )
        if resolved == "auto":
            if len(condition.variables()) <= PROB_VARIABLE_BUDGET:
                resolved = "shannon"
            else:
                resolved = "wmc"
        if resolved != "wmc" or self._config.circuit_cache_size == 0:
            return probability(condition, distributions, strategy=resolved)
        from repro.prob.wmc import compile_probability

        key = (condition, _distribution_fingerprint(condition, distributions))
        compiled = self._circuit_cache.get(key)
        if compiled is None:
            compiled = compile_probability(condition, distributions)
            self._circuit_cache.put(
                key, compiled, scope, frozenset(dependencies)
            )
        return compiled.probability()

    def session(
        self, tables: Optional[Mapping[str, object]] = None, **named: object
    ) -> "Session":
        """Create a :class:`Session`, optionally pre-registering tables."""
        session = Session(self)
        for name, table in {**(dict(tables) if tables else {}), **named}.items():
            session.register(name, table)
        return session

    # ------------------------------------------------------------------
    # Ad-hoc execution (what the legacy shims call)
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        tables: Mapping[str, CTable],
        *,
        simplify_conditions: Optional[bool] = None,
        optimize: Optional[bool] = None,
        executor: Optional[str] = None,
    ) -> CTable:
        """Evaluate ``q̄`` against ad-hoc bindings.

        Ad-hoc calls re-plan every time: without a registry there is no
        place to track statistics changes, so nothing is cached.  Use a
        :class:`Session` for repeated queries.
        """
        config = self._config.with_options(
            simplify_conditions=simplify_conditions,
            optimize=optimize,
            executor=executor,
        )
        collected: Dict[str, TableStats] = {}

        def stats_thunk() -> Dict[str, TableStats]:
            collected.update(collect_stats(tables))
            return collected

        verifier: Optional[PlanVerifier] = None
        if config.verify_plans:
            verifier = PlanVerifier(mode=config.verify_mode)
            verifier.verify_query(
                query,
                {name: table.arity for name, table in tables.items()},
            )
            for name, table in tables.items():
                verifier.verify_ctable(name, table)
        plan = build_plan(
            query,
            stats_thunk,
            config.optimize,
            verify=config.verify_plans,
            verify_mode=config.verify_mode,
        )
        if config.executor == "vectorized":
            # When the optimizer ran, its statistics are reused to guide
            # lowering (build sides, filter strategies); an unoptimized
            # ad-hoc call stays estimate-blind rather than paying a
            # statistics pass nothing else would amortize.
            return execute_plan_vectorized(
                plan, tables,
                simplify_conditions=config.simplify_conditions,
                stats=collected or None,
                verifier=verifier,
            )
        return execute_plan(
            plan, tables, simplify_conditions=config.simplify_conditions
        )

    def execute_single(
        self,
        query: Query,
        table: CTable,
        *,
        simplify_conditions: Optional[bool] = None,
        optimize: Optional[bool] = None,
    ) -> CTable:
        """Evaluate a single-relation query against one table."""
        return self.execute(
            query,
            bind_single_table(query, table),
            simplify_conditions=simplify_conditions,
            optimize=optimize,
        )

    def answer_pctable(
        self,
        query: Query,
        pctable: PCTable,
        *,
        simplify_conditions: Optional[bool] = None,
        optimize: Optional[bool] = None,
    ) -> PCTable:
        """Theorem 9's query answering: ``q̄`` on the underlying c-table,
        distributions riding along untouched."""
        answered = self.execute_single(
            query,
            pctable.table,
            simplify_conditions=simplify_conditions,
            optimize=optimize,
        )
        # Drop domains: the PCTable constructor re-derives them from the
        # distributions' supports (answer tables keep all input variables).
        return PCTable(answered.without_domains(), pctable.distributions)

    # ------------------------------------------------------------------
    # Internals shared with Session/PreparedQuery
    # ------------------------------------------------------------------

    def intern_query(self, query: Query) -> Query:
        """Return the canonical object for structurally equal queries.

        Parsing the same text twice (or rebuilding an equal AST) yields
        the one interned object, so plan-cache keys compare by identity
        fast-path and equal queries share cache entries.
        """
        with self._intern_lock:
            canonical = self._query_interning.get(query)
            if canonical is None:
                # Bound the interning table; queries are tiny but
                # unbounded growth across a long-lived engine would
                # still be a leak.
                if len(self._query_interning) >= 4096:
                    self._query_interning.clear()
                self._query_interning[query] = query
                canonical = query
        return canonical


class Session:
    """A table registry plus prepared-query machinery over one engine.

    Tables register under relation names and may be instances of *any*
    representation system: c-tables pass through, every weaker system is
    embedded via :func:`~repro.tables.convert.ctable_of` (Mod-preserving
    by construction), pc-tables contribute their underlying c-table plus
    their variable distributions, and plain :class:`Instance` values
    become variable-free c-tables.  Coercion and per-table statistics
    happen once, at registration.
    """

    _ids = itertools.count()

    #: Standing materialized views kept per session (LRU-bounded).
    _MAX_VIEWS = 32

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._registry: Dict[str, _Registered] = {}
        self._merged_distributions: Optional[
            Dict[str, Dict[Hashable, Fraction]]
        ] = None
        self._id = next(Session._ids)
        # guarded-by: single-threaded like the registry itself; views
        # are keyed on (query, optimize, simplify_conditions) — the
        # maintained state is executor-independent.
        self._views: "OrderedDict[Tuple[object, ...], MaterializedView]" = (
            OrderedDict()
        )

    @property
    def engine(self) -> Engine:
        return self._engine

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registry))

    def __contains__(self, name: str) -> bool:
        return name in self._registry

    def register(self, name: str, table: object) -> "Session":
        """Register (or replace) *table* under *name*; returns ``self``.

        Replacing a name invalidates exactly the cached plans *and
        cached answer tables* that read it — statistics of the other
        registered tables stay warm, and a replacement of the same
        schema refreshes the cached statistics incrementally from the
        row delta.
        """
        distributions = None
        source = table
        if isinstance(table, PCTable):
            distributions = table.distributions
            ctable = table.table
        elif isinstance(table, CoddTable):
            # Codd semantics: "every variable occurrence is an
            # independent unknown", so name collisions across
            # registrations (fresh_codd_table numbers nulls from zero)
            # must never correlate two tables.
            ctable = self._freshen_variables(name, table)
        elif isinstance(table, CTable):
            # v-/c-tables are NOT renamed: repeating a variable is the
            # representation's way of *expressing* correlation, within
            # and across tables.
            ctable = table
        elif isinstance(table, Table):
            # Freshen the embedding's synthetic variable names (q0, o0,
            # …): a weak-system table's worlds are independent of every
            # other table's, but ctable_of numbers variables from zero
            # for each input, and shared names would silently correlate
            # separately registered tables.
            ctable = self._freshen_variables(name, ctable_of(table))
        elif isinstance(table, Instance):
            ctable = CTable(
                [make_row(row) for row in table], arity=table.arity
            )
        else:
            raise TableError(
                f"cannot register {type(table).__name__!r}: expected a "
                "representation-system table, a PCTable, or an Instance"
            )
        if self._engine.config.verify_plans:
            # Conditions entering the engine must satisfy the identity
            # invariant (canonical interned formulas) and stay inside
            # the declared domain metadata.
            PlanVerifier(mode=self._engine.config.verify_mode).verify_ctable(
                name, ctable
            )
        previous = self._registry.get(name)
        if previous is not None and previous.ctable.arity == ctable.arity:
            # Incremental refresh: absorb the row delta into the cached
            # accumulator instead of re-walking the whole table (and
            # every condition formula) from scratch.  A schema change
            # falls through to the full rebuild below.
            accumulator = previous.accumulator
            accumulator.apply_delta(previous.ctable.rows, ctable.rows)
        else:
            accumulator = StatsAccumulator.from_ctable(ctable)
        self._registry[name] = _Registered(
            source,
            ctable,
            accumulator.stats(),
            accumulator,
            distributions,
        )
        self._merged_distributions = None
        self._engine._plan_cache.invalidate(self._id, (name,))
        self._engine._result_cache.invalidate(self._id, (name,))
        self._engine._circuit_cache.invalidate(self._id, (name,))
        # A re-register is a wholesale replacement, not a delta: any
        # standing view reading the name rebuilds on its next refresh
        # (and picks up a freshly planned tree while it is at it).
        for view in self._views.values():
            if name in view.relations:
                view.invalidate()
        return self

    # ------------------------------------------------------------------
    # Mutation API — signed deltas for incremental view maintenance
    # ------------------------------------------------------------------

    def insert(self, name: str, rows: Iterable[object]) -> "Session":
        """Append *rows* to the registered relation *name*.

        Rows take the same shapes the :class:`~repro.tables.ctable.CTable`
        constructor accepts — :class:`CRow`, ``(values, condition)``
        pairs, or bare value tuples.  The mutation rolls the cached
        statistics forward from the row delta, invalidates exactly the
        cached plans/answers/circuits that read *name*, and hands every
        standing materialized view a signed
        :class:`~repro.ivm.delta.DeltaBatch` (consumed on its next
        ``refresh``).  The coerced table object changes;
        :meth:`source` keeps returning the originally registered object.
        """
        return self._mutate(name, (), tuple(rows), "insert")

    def delete(self, name: str, rows: Iterable[object]) -> "Session":
        """Remove *rows* from the registered relation *name*.

        Each given row removes the **last** structurally equal
        occurrence (same values, same interned condition) — so an
        insert followed by a delete of the same rows restores the
        relation byte-identically even when earlier duplicates exist.
        A row that is not present raises :class:`TableError`.
        """
        return self._mutate(name, tuple(rows), (), "delete")

    def update(
        self, name: str, replacements: Iterable[Tuple[object, object]]
    ) -> "Session":
        """Replace rows of *name*: each ``(old, new)`` pair deletes
        ``old`` and appends ``new``, as one atomic signed delta batch."""
        olds: List[object] = []
        news: List[object] = []
        for old, new in replacements:
            olds.append(old)
            news.append(new)
        return self._mutate(name, tuple(olds), tuple(news), "update")

    @staticmethod
    def _coerce_rows(rows: Sequence[object]) -> List[CRow]:
        """Normalize mutation-API rows like the ``CTable`` constructor."""
        normalized: List[CRow] = []
        for row in rows:
            if isinstance(row, CRow):
                normalized.append(row)
            elif (
                isinstance(row, tuple)
                and len(row) == 2
                and isinstance(row[1], Formula)
                and isinstance(row[0], (tuple, list))
            ):
                normalized.append(make_row(row[0], row[1]))
            else:
                normalized.append(make_row(row))  # type: ignore[arg-type]
        return normalized

    @staticmethod
    def _rebuild_table(old: CTable, rows: Sequence[CRow]) -> CTable:
        """A same-metadata table with the mutated row sequence.

        The constructor re-validates arity and finite-domain coverage,
        so a malformed mutation raises before any state changes.
        """
        if isinstance(old, BooleanCTable):
            return BooleanCTable(
                rows, arity=old.arity, global_condition=old.global_condition
            )
        return CTable(
            rows,
            arity=old.arity,
            domains=old.domains,
            global_condition=old.global_condition,
        )

    def _mutate(
        self,
        name: str,
        deletes: Sequence[object],
        inserts: Sequence[object],
        op: str,
    ) -> "Session":
        entry = self._entry(name)
        old_table = entry.ctable
        delete_rows = self._coerce_rows(deletes)
        # Rows whose condition is already false can never appear — the
        # c-table constructor drops them, so the delta must too.
        insert_rows = [
            row for row in self._coerce_rows(inserts)
            if row.condition != BOTTOM
        ]
        working = list(old_table.rows)
        ids = list(entry.row_ids)
        removed: List[Tuple[int, CRow]] = []
        for row in delete_rows:
            for index in range(len(working) - 1, -1, -1):
                if working[index] == row:
                    break
            else:
                raise TableError(
                    f"cannot delete from {name!r}: row {row!r} is not present"
                )
            working.pop(index)
            removed.append((ids.pop(index), row))
        next_id = entry.next_row_id
        added = [
            (next_id + offset, row) for offset, row in enumerate(insert_rows)
        ]
        new_table = self._rebuild_table(
            old_table, working + [row for _, row in added]
        )
        if self._engine.config.verify_plans:
            PlanVerifier(mode=self._engine.config.verify_mode).verify_ctable(
                name, new_table
            )
        entry.ctable = new_table
        entry.row_ids = ids + [row_id for row_id, _ in added]
        entry.next_row_id = next_id + len(added)
        entry.accumulator.remove_rows(row for _, row in removed)
        entry.accumulator.add_rows(insert_rows)
        entry.stats = entry.accumulator.stats()
        engine = self._engine
        engine._plan_cache.invalidate(self._id, (name,))
        engine._result_cache.invalidate(self._id, (name,))
        engine._circuit_cache.invalidate(self._id, (name,))
        batch = DeltaBatch.from_rows(
            name, new_table, tuple(removed), tuple(added)
        )
        for view in self._views.values():
            if name in view.relations:
                view.push(batch)
        engine._metrics.counter(IVM_MUTATIONS_TOTAL, labels={"op": op})
        if removed:
            engine._metrics.counter(
                IVM_DELTA_ROWS_TOTAL, len(removed), labels={"sign": "delete"}
            )
        if added:
            engine._metrics.counter(
                IVM_DELTA_ROWS_TOTAL, len(added), labels={"sign": "insert"}
            )
        return self

    # ------------------------------------------------------------------
    # Materialized-view plumbing (maintenance="incremental")
    # ------------------------------------------------------------------

    def _ivm_bindings(self, query: Query) -> Dict[str, Binding]:
        bindings: Dict[str, Binding] = {}
        for name in query.relation_names():
            entry = self._entry(name)
            bindings[name] = (entry.ctable, tuple(entry.row_ids))
        return bindings

    def _maintained_result(
        self, prepared: "PreparedQuery"
    ) -> Tuple[CTable, str]:
        """Serve *prepared* from its maintained view, (re)building it
        on the current plan when dirty; returns ``(table, mode)``."""
        config = prepared.config
        key = (
            prepared.query,
            config.optimize,
            config.simplify_conditions,
        )
        view = self._views.get(key)
        if view is None or view.dirty:
            view = MaterializedView(
                prepared.plan(), config.simplify_conditions
            )
            self._views[key] = view
            while len(self._views) > Session._MAX_VIEWS:
                self._views.popitem(last=False)
        self._views.move_to_end(key)
        result, mode = view.refresh(self._ivm_bindings(prepared.query))
        if config.verify_plans and mode in ("build", "delta"):
            PlanVerifier(mode=config.verify_mode).verify_view(
                view.plan, view
            )
        return result, mode

    def table(self, name: str) -> CTable:
        """The registered table's (cached) c-table embedding."""
        return self._entry(name).ctable

    def source(self, name: str) -> object:
        """The originally registered object (pre-coercion)."""
        return self._entry(name).source

    def stats(self, name: str) -> TableStats:
        """The cached :class:`TableStats` of one registered table."""
        return self._entry(name).stats

    def distributions(self) -> Dict[str, Dict[Hashable, Fraction]]:
        """Variable distributions merged across registered pc-tables.

        Conflicting distributions for one variable name raise: variables
        are global to a session, as they are to a c-table's valuations.
        The merge is cached and recomputed only after ``register``.
        """
        if self._merged_distributions is not None:
            return self._merged_distributions
        merged = _merge_distribution_sources(self._distribution_sources())
        self._merged_distributions = merged
        return merged

    def _distribution_sources(
        self,
    ) -> Tuple[Mapping[str, Mapping[Hashable, Fraction]], ...]:
        """The registered pc-tables' distribution maps, in name order."""
        return tuple(
            distributions
            for name in sorted(self._registry)
            if (distributions := self._registry[name].distributions)
            is not None
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Query:
        """Parse query text against the registry's relation schema."""
        relations = {
            name: entry.ctable.arity
            for name, entry in self._registry.items()
        }
        return parse_query(text, relations)

    def prepare(
        self,
        query: Union[Query, str],
        *,
        simplify_conditions: Optional[bool] = None,
        optimize: Optional[bool] = None,
        executor: Optional[str] = None,
        trace: Optional[bool] = None,
    ) -> "PreparedQuery":
        """Normalize, bind, and wrap *query* for repeated execution.

        ``executor`` overrides the engine config per prepared query; the
        answer is identical whichever executor runs it.  ``trace=True``
        records a span trace per execution (see ``Engine.last_trace()``).
        """
        parse_seconds: Optional[float] = None
        if isinstance(query, str):
            started = perf_counter()
            query = self.parse(query)
            parse_seconds = perf_counter() - started
        query = self._engine.intern_query(query)
        # Structured pre-translation diagnostics: unknown relations and
        # arity mismatches surface here, naming the nearest registered
        # relation, instead of as a KeyError deep inside planning.
        PlanVerifier().verify_query(
            query,
            {
                name: entry.ctable.arity
                for name, entry in self._registry.items()
            },
        )
        config = self._engine.config.with_options(
            simplify_conditions=simplify_conditions,
            optimize=optimize,
            executor=executor,
            trace=trace,
        )
        return PreparedQuery(self, query, config, parse_seconds)

    def query(self, query: Union[Query, str], **options: Any) -> "Dataset":
        """The lazy entry point: ``session.query(q).certain()`` etc."""
        return self.prepare(query, **options).dataset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _freshen_variables(name: str, ctable: CTable) -> CTable:
        """Prefix the table's variables with the relation name."""
        rename = {
            variable: f"{name}.{variable}"
            for variable in ctable.variables()
        }
        if not rename:
            return ctable
        return ctable.rename_variables(rename)

    def _entry(self, name: str) -> _Registered:
        entry = self._registry.get(name)
        if entry is None:
            hint = nearest_name(name, self.names())
            raise QueryError(
                f"no table registered under {name!r}; registered names "
                f"are {list(self.names())}{hint}"
            )
        return entry

    def _bindings(self, query: Query) -> Dict[str, CTable]:
        return {
            name: self._entry(name).ctable
            for name in query.relation_names()
        }

    def _fingerprint(
        self, query: Query
    ) -> Tuple[Tuple[str, int, TableStats], ...]:
        """(schema, statistics) parts of the plan-cache key."""
        parts: list[Tuple[str, int, TableStats]] = []
        for name in sorted(query.relation_names()):
            entry = self._entry(name)
            parts.append((name, entry.ctable.arity, entry.stats))
        return tuple(parts)


class PreparedQuery:
    """One query, planned once against the session's current statistics.

    The optimized plan is memoized in the engine's LRU plan cache keyed
    on (query, schema, statistics fingerprint, optimize flag); as long as
    the registry does not change, every execution — and every
    :class:`Dataset` terminal — reuses the identical plan object.
    """

    __slots__ = ("_session", "_query", "_config", "_parse_seconds")

    def __init__(
        self,
        session: Session,
        query: Query,
        config: ExecutionConfig,
        parse_seconds: Optional[float] = None,
    ) -> None:
        self._session = session
        self._query = query
        self._config = config
        # Wall seconds spent parsing the query text (None when prepared
        # from an AST); surfaces as the trace's parse span.
        self._parse_seconds = parse_seconds

    @property
    def query(self) -> Query:
        return self._query

    @property
    def config(self) -> ExecutionConfig:
        return self._config

    @property
    def session(self) -> Session:
        return self._session

    def _plan_key(self) -> Tuple[object, ...]:
        session = self._session
        return (
            session._id,
            self._query,
            session._fingerprint(self._query),
            self._config.optimize,
        )

    def _plan_entry(self) -> _PlanEntry:
        """The cached (logical, lazily-lowered physical) plan pair."""
        session = self._session
        engine = session.engine
        key = self._plan_key()
        cache = engine._plan_cache
        entry = cache.get(key)
        if entry is None:
            names = frozenset(self._query.relation_names())
            with trace_span(SPAN_PLAN, cached=False):
                logical = build_plan(
                    self._query,
                    lambda: {name: session.stats(name) for name in names},
                    self._config.optimize,
                    verify=self._config.verify_plans,
                    verify_mode=self._config.verify_mode,
                )
            entry = _PlanEntry(logical)
            cache.put(key, entry, session._id, names)
        else:
            tracer = current_tracer()
            if tracer is not None:
                tracer.event(SPAN_PLAN, cached=True)
        return entry

    def plan(self) -> PlanNode:
        """The (cached) logical plan this query executes."""
        return self._plan_entry().logical

    def physical_plan(self) -> PhysicalOp:
        """The physical plan, lowered once and cached alongside the
        logical one (same cache entry, same invalidation)."""
        entry = self._plan_entry()
        lowered = entry.physical
        if lowered is None:
            stats = {
                name: self._session.stats(name)
                for name in self._query.relation_names()
            }
            verifier = (
                PlanVerifier(stats, mode=self._config.verify_mode)
                if self._config.verify_plans
                else None
            )
            with trace_span(SPAN_LOWER):
                lowered = lower(entry.logical, stats, verifier=verifier)
            entry.physical = lowered
        return lowered

    def _result_key(self) -> Tuple[object, ...]:
        session = self._session
        config = self._config
        return (
            "result",
            session._id,
            self._query,
            session._fingerprint(self._query),
            config.optimize,
            config.simplify_conditions,
            config.executor,
        )

    def refresh(self) -> CTable:
        """Bring the maintained answer up to date and return it.

        Under ``maintenance="incremental"`` this consumes the signed
        delta batches pending from :meth:`Session.insert` /
        :meth:`~Session.delete` / :meth:`~Session.update` calls since
        the last refresh, folds them through the view's operator
        states, and re-caches the maintained table under the current
        result-cache key — the next :meth:`execute` is a cache hit on a
        never-stale entry.  The returned table is structurally
        identical (rows, interned condition objects, order) to fully
        re-executing the view's plan on the mutated tables.

        Under ``maintenance="rerun"`` it simply re-executes.
        """
        config = self._config
        if config.maintenance != "incremental":
            return self._execute()
        session = self._session
        engine = session.engine
        started = perf_counter()
        with trace_span(SPAN_REFRESH) as span:
            result, mode = session._maintained_result(self)
            if span is not None:
                span.attrs["mode"] = mode
        engine._metrics.counter(IVM_REFRESH_TOTAL, labels={"mode": mode})
        engine._metrics.histogram(
            IVM_REFRESH_SECONDS, perf_counter() - started,
            labels={"mode": mode},
        )
        engine._result_cache.put(
            self._result_key(),
            result,
            session._id,
            frozenset(self._query.relation_names()),
        )
        return result

    def execute(self) -> CTable:
        """Evaluate the plan against the registry's current tables.

        A repeated identical read — same session state, same query, same
        config — is served from the engine's result cache without
        executing (or even lowering) any plan; ``register`` invalidates
        per relation name.  With ``trace=True`` in the config, a span
        trace of the execution lands in ``Engine.last_trace()``.
        Under ``maintenance="incremental"`` the read is served from the
        query's maintained materialized view (refreshing it first), so
        repeated reads over mutating tables pay delta-propagation cost
        instead of full re-execution.
        """
        if not self._config.trace:
            return self._execute()
        engine = self._session.engine
        tracer = Tracer(query=repr(self._query))
        with tracer.activate():
            if self._parse_seconds is not None:
                tracer.event(SPAN_PARSE, seconds=self._parse_seconds)
            answered = self._execute()
        engine._store_trace(tracer.to_dict())
        return answered

    def _execute(
        self,
        collector: Optional[TraceCollector] = None,
        use_result_cache: bool = True,
    ) -> CTable:
        """The execution body; runs under whatever tracer is active."""
        engine = self._session.engine
        config = self._config
        results = engine._result_cache
        key = self._result_key()
        if use_result_cache:
            answered = results.get(key)
            if answered is not None:
                engine._metrics.counter(
                    QUERIES_TOTAL,
                    labels={"cached": "true", "executor": config.executor},
                )
                tracer = current_tracer()
                if tracer is not None:
                    tracer.event(
                        SPAN_EXECUTE, cached=True, executor=config.executor
                    )
                return answered
        if (
            config.maintenance == "incremental"
            and use_result_cache
            and collector is None
            and current_tracer() is None
        ):
            # Serve the read from the maintained materialized view.  An
            # active tracer (or an analyze collector) falls through to
            # the executor path instead: span traces document an actual
            # plan execution, and the maintained state has none to show.
            started = perf_counter()
            answered, mode = self._session._maintained_result(self)
            engine._metrics.counter(IVM_REFRESH_TOTAL, labels={"mode": mode})
            engine._metrics.histogram(
                IVM_REFRESH_SECONDS, perf_counter() - started,
                labels={"mode": mode},
            )
            engine._metrics.counter(
                QUERIES_TOTAL,
                labels={"cached": "false", "executor": config.executor},
            )
            engine._metrics.histogram(
                QUERY_SECONDS,
                perf_counter() - started,
                labels={"executor": config.executor},
            )
            results.put(
                key,
                answered,
                self._session._id,
                frozenset(self._query.relation_names()),
            )
            return answered
        bindings = self._session._bindings(self._query)
        if (
            collector is None
            and config.executor != "interpreted"
            and current_tracer() is not None
        ):
            collector = TraceCollector()
        # Resolve planning and lowering before the execute span opens so
        # the plan/lower spans render as siblings of execute, not inside
        # it — and so the summary below never re-enters _plan_entry.
        physical: Optional[PhysicalOp] = None
        if config.executor == "interpreted":
            logical = self.plan()
        else:
            physical = self.physical_plan()
        started = perf_counter()
        with trace_span(
            SPAN_EXECUTE, cached=False, executor=config.executor
        ) as span:
            if physical is None:
                answered = execute_plan(
                    logical,
                    bindings,
                    simplify_conditions=config.simplify_conditions,
                )
            else:
                answered = execute_physical(
                    physical,
                    bindings,
                    simplify_conditions=config.simplify_conditions,
                    collector=collector,
                )
            if span is not None and collector is not None:
                span.attrs["operators"] = collector.summary(physical)
        engine._metrics.counter(
            QUERIES_TOTAL,
            labels={"cached": "false", "executor": config.executor},
        )
        engine._metrics.histogram(
            QUERY_SECONDS,
            perf_counter() - started,
            labels={"executor": config.executor},
        )
        if use_result_cache:
            results.put(
                key,
                answered,
                self._session._id,
                frozenset(self._query.relation_names()),
            )
        return answered

    def explain(self, physical: bool = False, analyze: bool = False) -> str:
        """Render the cached plan with cardinality/condition estimates.

        ``physical=True`` renders the lowered operator tree instead —
        the hash-join build sides and filter strategies actually chosen.
        ``analyze=True`` *executes* the query under tracing and renders
        the physical tree with estimated-vs-actual cardinalities,
        per-operator wall time, cache-hit provenance,
        and a drift flag on operators whose actuals diverge ≥4× from
        the estimates.
        """
        if analyze:
            return self._explain_analyze()
        if physical:
            return explain_physical(self.physical_plan())
        stats = {
            name: self._session.stats(name)
            for name in self._query.relation_names()
        }
        return explain_plan(self.plan(), stats)

    def _explain_analyze(self) -> str:
        """Execute under full instrumentation and render the actuals.

        Always re-executes (a memoized answer has no actuals to report)
        and bypasses the result cache in both directions, so repeated
        EXPLAIN ANALYZE calls measure real work and never pollute the
        cache statistics they report on.  The interpreted executor has
        no per-operator kernels to time, so it is analyzed through the
        structurally identical vectorized lowering.
        """
        session = self._session
        engine = session.engine
        config = self._config
        result_cached = engine._result_cache.contains(self._result_key())
        collector = TraceCollector()
        tracer = Tracer(query=repr(self._query))
        with tracer.activate():
            if self._parse_seconds is not None:
                tracer.event(SPAN_PARSE, seconds=self._parse_seconds)
            physical_tree = self.physical_plan()
            bindings = session._bindings(self._query)
            with tracer.span(
                SPAN_EXECUTE, cached=False, executor="vectorized"
            ) as span:
                execute_physical(
                    physical_tree,
                    bindings,
                    simplify_conditions=config.simplify_conditions,
                    collector=collector,
                )
                span.attrs["operators"] = collector.summary(physical_tree)
        engine._store_trace(tracer.to_dict())
        return render_analyze(
            physical_tree,
            collector,
            tracer,
            executor="vectorized",
            result_cached=result_cached,
        )

    def dataset(self) -> "Dataset":
        return Dataset(self)


class Dataset:
    """A lazy answer: nothing runs until a terminal method is called.

    All terminals share the one :class:`PreparedQuery` and the one
    evaluated answer table ``q̄(T)`` — the paper's point made executable:
    certain/possible answers, tuple probabilities, and lineage are
    different *readings* of the same representation, not different query
    evaluations.

    The first terminal call snapshots the registry state it needs (the
    answer table and the variable distributions together), so every
    reading of one dataset is consistent even if the session
    re-registers tables afterwards; ask the session for a fresh dataset
    to observe the new state.
    """

    __slots__ = (
        "_prepared",
        "_collected",
        "_distribution_sources",
        "_distributions",
        "_plan",
        "_stats",
    )

    def __init__(self, prepared: PreparedQuery) -> None:
        self._prepared = prepared
        self._collected: Optional[CTable] = None
        self._distribution_sources: Optional[
            Tuple[Mapping[str, Mapping[Hashable, Fraction]], ...]
        ] = None
        self._distributions: Optional[_Distributions] = None
        self._plan: Optional[PlanNode] = None
        self._stats: Optional[Dict[str, TableStats]] = None

    @property
    def prepared(self) -> PreparedQuery:
        return self._prepared

    @property
    def query(self) -> Query:
        return self._prepared.query

    def collect(self) -> CTable:
        """The answer c-table ``q̄(T)`` (memoized; the lazy boundary).

        The registry state the other terminals need — the plan, its
        statistics, the pc-table distributions — is snapshotted at the
        same moment (by reference; merging and rendering stay lazy), so
        probability/lineage/explain readings remain consistent with the
        answer even across later ``register`` calls.
        """
        if self._collected is None:
            session = self._prepared.session
            self._distribution_sources = session._distribution_sources()
            self._plan = self._prepared.plan()
            self._stats = {
                name: session.stats(name)
                for name in self._prepared.query.relation_names()
            }
            self._collected = self._prepared.execute()
        return self._collected

    def to_pctable(self) -> PCTable:
        """The answer as a pc-table (requires registered distributions)."""
        answered = self.collect().without_domains()
        distributions = self._merged_distributions()
        missing = sorted(answered.variables() - set(distributions))
        if missing:
            raise ProbabilityError(
                f"answer mentions variables {missing} with no registered "
                "distribution; register the inputs as PCTables"
            )
        return PCTable(answered, distributions)

    def explain(self, physical: bool = False, analyze: bool = False) -> str:
        """The executed plan, annotated with estimates.

        Once the dataset has collected, the plan and statistics are part
        of its snapshot: the rendering describes the plan that produced
        the memoized answer, not whatever a later ``register`` would
        plan.  ``physical=True`` renders the lowered physical operator
        tree (build sides, filter strategies) instead of the logical one.
        ``analyze=True`` re-executes the query under tracing against the
        session's *current* tables and renders estimated-vs-actual
        cardinalities per operator (the memoized answer itself is
        untouched).
        """
        if analyze:
            return self._prepared.explain(analyze=True)
        if self._plan is not None:
            if physical:
                return explain_physical(lower(self._plan, self._stats))
            return explain_plan(self._plan, self._stats)
        return self._prepared.explain(physical=physical)

    # ------------------------------------------------------------------
    # Certain / possible answers
    # ------------------------------------------------------------------

    def certain(
        self,
        *,
        method: str = "symbolic",
        domain: Optional[Union[Domain, object]] = None,
        max_candidates: Optional[int] = None,
    ) -> Instance:
        """Tuples in the answer of *every* world.

        ``method="symbolic"`` decides membership-condition validity (no
        world is ever materialized); ``method="worlds"`` enumerates
        ``Mod`` of the answer table — by Theorem 4 that equals the set
        of per-world answers, so the intersection is the certain answer.
        Raises :class:`~repro.errors.NoWorldsError` when the
        representation admits no world at all (the intersection over
        zero worlds is vacuously "every tuple").
        """
        if method == "symbolic":
            self._check_method_options(method, domain, max_candidates)
            from repro.worlds.symbolic_answers import certain_from_answer

            return certain_from_answer(
                self.collect(), self._max_candidates(max_candidates)
            )
        if method == "worlds":
            self._check_method_options(method, domain, max_candidates)
            from repro.worlds.answers import intersect_worlds

            answered = self.collect()
            return intersect_worlds(
                self._worlds(answered, domain), answered.arity
            )
        raise ValueError(f"unknown method {method!r}: 'symbolic' or 'worlds'")

    def possible(
        self,
        *,
        method: str = "symbolic",
        domain: Optional[Union[Domain, object]] = None,
        max_candidates: Optional[int] = None,
    ) -> Instance:
        """Tuples in the answer of *some* world.

        Unlike :meth:`certain`, this is well-defined over zero worlds:
        the union over the empty family is ∅, so an unsatisfiable
        representation yields the empty instance rather than an error.
        With ``method="symbolic"`` only the constant possible answers
        are returned (rows with variables denote tuple *patterns*; the
        full description is :meth:`collect` itself).
        """
        if method == "symbolic":
            self._check_method_options(method, domain, max_candidates)
            from repro.worlds.symbolic_answers import possible_from_answer

            return possible_from_answer(
                self.collect(), self._max_candidates(max_candidates)
            )
        if method == "worlds":
            self._check_method_options(method, domain, max_candidates)
            from repro.worlds.answers import union_worlds

            answered = self.collect()
            return union_worlds(
                self._worlds(answered, domain), answered.arity
            )
        raise ValueError(f"unknown method {method!r}: 'symbolic' or 'worlds'")

    # ------------------------------------------------------------------
    # Probabilistic / provenance readings
    # ------------------------------------------------------------------

    def lineage(self, row: Row) -> Formula:
        """The condition under which *row* is in the answer (Section 9:
        the membership condition *is* the tuple's why-provenance)."""
        from repro.worlds.symbolic_answers import membership_condition

        answered = self.collect()
        row = tuple(row)
        if len(row) != answered.arity:
            raise QueryError(
                f"tuple {row!r} has arity {len(row)}, answer has "
                f"arity {answered.arity}"
            )
        return membership_condition(answered, row)

    def probability(
        self, row: Row, strategy: Optional[str] = None
    ) -> Fraction:
        """``P[row ∈ q(I)]`` by counting the lineage condition.

        *strategy* overrides the prepared config's ``prob_strategy``
        (see :class:`~repro.engine.config.ExecutionConfig`): Shannon
        expansion within the variable budget, the compiled
        d-DNNF + weighted-model-counting route beyond it.  Compiled
        circuits live in the engine's circuit cache keyed on the
        interned lineage and the distribution snapshot, so a prepared
        probability hot loop compiles once and answers from memory;
        re-``register`` of any input relation evicts them.
        """
        lineage = self.lineage(row)  # collects, snapshotting distributions
        distributions = self._merged_distributions()
        missing = sorted(lineage.variables() - set(distributions))
        if missing:
            raise ProbabilityError(
                f"lineage mentions variables {missing} with no registered "
                "distribution; register the inputs as PCTables"
            )
        prepared = self._prepared
        return prepared.session.engine.condition_probability(
            lineage,
            distributions,
            strategy=strategy if strategy is not None else prepared.config.prob_strategy,
            scope=prepared.session._id,
            dependencies=frozenset(prepared.query.relation_names()),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_method_options(
        method: str, domain: object, max_candidates: Optional[int]
    ) -> None:
        """Reject options the chosen method cannot honor, loudly.

        Silently dropping ``domain`` under the symbolic method (or
        ``max_candidates`` under worlds enumeration) would let a caller
        believe a restriction applied when it did not.
        """
        if method == "symbolic" and domain is not None:
            raise ValueError(
                "domain= applies only to method='worlds'; the symbolic "
                "method decides validity/satisfiability exactly, without "
                "a world enumeration to restrict"
            )
        if method == "worlds" and max_candidates is not None:
            raise ValueError(
                "max_candidates= applies only to method='symbolic'; "
                "worlds enumeration has no candidate pool"
            )

    def _merged_distributions(self) -> Dict[str, Dict[Hashable, Fraction]]:
        """Merge the snapshotted distributions, lazily.

        The merge (and its conflict check) runs only when a
        probabilistic reading is actually requested, so sessions whose
        pc-tables have clashing variable names can still serve every
        non-probabilistic query.
        """
        if self._distributions is None:
            self.collect()  # ensure the sources snapshot exists
            self._distributions = _merge_distribution_sources(
                self._distribution_sources
            )
        return self._distributions

    def _max_candidates(self, override: Optional[int]) -> int:
        if override is not None:
            return override
        return self._prepared.config.max_candidates

    @staticmethod
    def _worlds(answered: CTable, domain: Any) -> "IDatabase":
        from repro.worlds.answers import mod_of

        return mod_of(answered, domain)
