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
  c-table once via :func:`~repro.tables.convert.ctable_of`,
- ``session.query(q)`` returns a lazy :class:`Dataset` whose terminal
  methods — ``collect``, ``certain``, ``possible``, ``probability``,
  ``lineage``, ``explain`` — all share one :class:`PreparedQuery`: the
  query is planned once (plan memoized in the engine's cache, keyed on
  the query and the versions of the relations it reads) and ``q̄(T)`` is
  evaluated once, then every question is answered off that single
  answer table.

Every successful write to a relation (``register``, ``insert``,
``delete``, ``update``) gives it a new version, drawn from one counter
per session.  Cached plans and answers are keyed on those versions, so
by Theorem 4 a cached ``q̄(T)`` is only ever returned while ``T`` is
still the registered table.  Per-table statistics are computed only
when the planner or EXPLAIN asks for them.

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
from repro.logic.counting import ValidatedDistributions, merge_distributions
from repro.logic.syntax import Formula
from repro.algebra.ast import Query
from repro.algebra.parser import parse_query
from repro.tables.base import Table
from repro.tables.codd import CoddTable
from repro.tables.ctable import CRow, CTable, coerce_row, make_row
from repro.tables.convert import ctable_of
from repro.ctalgebra.plan import (
    PlanNode,
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


class _Registered:
    """One registry entry: the coerced c-table plus cached derived data.

    ``version`` is the session-wide counter value drawn by the last
    successful write; cache keys carry it.  A write publishes
    ``ctable`` before ``version``, so a key read before the tables can
    only name the table it was read with or an earlier one.  ``stats``
    holds the last computed statistics beside the table they describe.

    ``row_ids`` aligns one monotonically assigned integer with each row
    of ``ctable`` (registration numbers the initial rows ``0..n-1``;
    the mutation API hands out fresh ids from ``next_row_id`` and never
    recycles them).  Ascending row id *is* the rows' order, which the
    incremental-maintenance layer relies on to reproduce rerun order.
    """

    __slots__ = (
        "source", "ctable", "version", "stats", "distributions",
        "row_ids", "next_row_id",
    )

    def __init__(
        self,
        source: object,
        ctable: CTable,
        version: int,
        distributions: Optional[ValidatedDistributions],
    ) -> None:
        self.source = source
        self.ctable = ctable
        self.version = version
        self.stats: Optional[Tuple[CTable, TableStats]] = None
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
        rule fire/no-fire counts and SAT/DPLL/d-DNNF/WMC solver-call
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
        scope: Hashable = None,
        dependencies: FrozenSet[str] = frozenset(),
    ) -> Fraction:
        """Exact probability of *condition*, counted through a cached circuit.

        Compiles *condition* to d-DNNF and counts it, like
        :func:`repro.logic.counting.probability`, but keeps the
        :class:`~repro.prob.wmc.CompiledCondition` in the engine's
        :class:`~repro.engine.cache.CircuitCache`, keyed on the interned
        condition plus a fingerprint of the distributions restricted to
        its variables.  Those two inputs fully determine the answer, so
        a hit is always correct; since the cached object memoizes its
        count, a prepared probability loop compiles once, counts once,
        and then answers from memory.  With ``circuit_cache_size=0``
        every call compiles and counts afresh.  *scope* and
        *dependencies* (a session id and relation names) let
        ``Session.register`` evict exactly the lineages whose inputs
        changed.  A plain distribution map is validated in full; a
        :class:`~repro.logic.counting.ValidatedDistributions` (what
        sessions pass) is taken as it is.
        """
        from repro.logic.counting import check_distributions
        from repro.prob.wmc import compile_probability

        distributions = check_distributions(distributions)
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

        Ad-hoc calls re-plan every time: without a registry there are no
        relation versions to key a cache on, so nothing is cached.  Use a
        :class:`Session` for repeated queries.
        """
        config = self._config.with_options(
            simplify_conditions=simplify_conditions,
            optimize=optimize,
            executor=executor,
        )
        verifier: Optional[PlanVerifier] = None
        if config.verify_plans:
            verifier = PlanVerifier()
            verifier.verify_query(
                query,
                {name: table.arity for name, table in tables.items()},
            )
            for name, table in tables.items():
                verifier.verify_ctable(name, table)
        plan = build_plan(
            query,
            lambda: collect_stats(tables),
            config.optimize,
            verify=config.verify_plans,
        )
        if config.executor == "vectorized":
            return execute_plan_vectorized(
                plan, tables,
                simplify_conditions=config.simplify_conditions,
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
    become variable-free c-tables.  Coercion happens once, at
    registration; per-table statistics are computed when a plan first
    needs them.
    """

    _ids = itertools.count()

    #: Standing materialized views kept per session (LRU-bounded).
    _MAX_VIEWS = 32

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._registry: Dict[str, _Registered] = {}
        # The last merge of pc-table distributions and the snapshot it
        # merged (see ``_merge_distributions``).
        self._merged: Optional[
            Tuple[Tuple[ValidatedDistributions, ...], ValidatedDistributions]
        ] = None
        self._id = next(Session._ids)
        # One counter for every relation's version: a write draws the
        # next value, so no two tables a relation ever held share one.
        self._versions = itertools.count()
        # guarded-by: single-threaded like the registry itself.  One
        # view per standing query (made standing by
        # ``PreparedQuery.refresh()``), keyed on (query, optimize,
        # simplify_conditions); interpreted queries never build or
        # read one.
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

        The relation gets a new version, so no cached plan or answer
        table read from the replaced table is returned again; the
        entries that read *name* are evicted, and those of the other
        registered tables stay warm.
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
            PlanVerifier().verify_ctable(name, ctable)
        # One dict store publishes the table and its version together.
        self._registry[name] = _Registered(
            source, ctable, next(self._versions), distributions
        )
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
        pairs, or bare value tuples.  Only these rows are validated
        (arity, domain coverage, the boolean c-table rules); a malformed
        one raises :class:`TableError` and changes nothing.  The
        mutation gives *name* a new version, evicts exactly the cached
        plans/answers/circuits that read it, and hands every standing
        materialized view a signed
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
        A row given twice removes its last two occurrences, and so on in
        turn.  A row that is not present, or asked for more times than
        the relation holds it, raises :class:`TableError` and changes
        nothing.  Deleting k rows from an n-row relation costs one
        backward pass over it, O(n + k).
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

    def _mutate(
        self,
        name: str,
        deletes: Sequence[object],
        inserts: Sequence[object],
        op: str,
    ) -> "Session":
        entry = self._entry(name)
        old_table = entry.ctable
        # A false-condition row is kept here: no table holds one, so
        # deleting it raises like any other absent row.
        delete_rows = [coerce_row(row) for row in deletes]
        working: Sequence[CRow] = old_table.rows
        ids: List[int] = entry.row_ids
        delete_ids: List[int] = []
        if delete_rows:
            # Each request removes the last equal occurrence earlier
            # requests left, so one backward pass hands a row's
            # occurrences, last first, to its requests in order.  Each
            # row's open requests are stacked latest first.
            waiting: Dict[CRow, List[int]] = {}
            for request in range(len(delete_rows) - 1, -1, -1):
                waiting.setdefault(delete_rows[request], []).append(request)
            positions: List[int] = [-1] * len(delete_rows)
            open_count = len(delete_rows)
            for index in range(len(working) - 1, -1, -1):
                if not open_count:
                    break
                stack = waiting.get(working[index])
                if stack:
                    positions[stack.pop()] = index
                    open_count -= 1
            if open_count:
                missing = delete_rows[positions.index(-1)]
                raise TableError(
                    f"cannot delete from {name!r}: row {missing!r} is not present"
                )
            removed = set(positions)
            working = [
                row for index, row in enumerate(working) if index not in removed
            ]
            delete_ids = [ids[index] for index in positions]
            ids = [
                row_id for index, row_id in enumerate(ids)
                if index not in removed
            ]
        # Only the inserted rows are validated; a malformed one raises
        # here, before any state changes.
        new_table = old_table.spliced(working, inserts)
        insert_rows = new_table.rows[len(working):]
        if self._engine.config.verify_plans:
            PlanVerifier().verify_ctable(name, new_table)
        next_id = entry.next_row_id
        added = tuple(
            zip(range(next_id, next_id + len(insert_rows)), insert_rows)
        )
        entry.ctable = new_table
        entry.row_ids = ids + [row_id for row_id, _ in added]
        entry.next_row_id = next_id + len(added)
        entry.version = next(self._versions)  # after the table it names
        engine = self._engine
        engine._plan_cache.invalidate(self._id, (name,))
        engine._result_cache.invalidate(self._id, (name,))
        engine._circuit_cache.invalidate(self._id, (name,))
        batch = DeltaBatch(name, tuple(delete_ids), added)
        for view in self._views.values():
            if name in view.relations:
                view.push(batch)
        engine._metrics.counter(IVM_MUTATIONS_TOTAL, labels={"op": op})
        if delete_ids:
            engine._metrics.counter(
                IVM_DELTA_ROWS_TOTAL, len(delete_ids), labels={"sign": "delete"}
            )
        if added:
            engine._metrics.counter(
                IVM_DELTA_ROWS_TOTAL, len(added), labels={"sign": "insert"}
            )
        return self

    # ------------------------------------------------------------------
    # Materialized-view plumbing (standing queries, made by refresh())
    # ------------------------------------------------------------------

    def _ivm_bindings(self, query: Query) -> Dict[str, Binding]:
        bindings: Dict[str, Binding] = {}
        for name in query.relation_names():
            entry = self._entry(name)
            bindings[name] = (entry.ctable, entry.row_ids)
        return bindings

    def _maintained_result(self, prepared: "PreparedQuery") -> CTable:
        """Serve *prepared* from its maintained view, (re)building it
        on the current plan when dirty, and record the refresh."""
        started = perf_counter()
        config = prepared.config
        key = prepared._view_key()
        view = self._views.get(key)
        if view is None or view.dirty:
            view = MaterializedView(
                prepared.plan(),
                prepared.physical_plan(),
                config.simplify_conditions,
            )
            self._views[key] = view
            while len(self._views) > Session._MAX_VIEWS:
                self._views.popitem(last=False)
        self._views.move_to_end(key)
        with trace_span(SPAN_REFRESH) as span:
            result, mode = view.refresh(self._ivm_bindings(prepared.query))
            if span is not None:
                span.attrs["mode"] = mode
        if config.verify_plans and mode in ("build", "delta"):
            PlanVerifier().verify_view(view)
        metrics = self._engine._metrics
        metrics.counter(IVM_REFRESH_TOTAL, labels={"mode": mode})
        metrics.histogram(
            IVM_REFRESH_SECONDS, perf_counter() - started,
            labels={"mode": mode},
        )
        return result

    def table(self, name: str) -> CTable:
        """The registered table's (cached) c-table embedding."""
        return self._entry(name).ctable

    def source(self, name: str) -> object:
        """The originally registered object (pre-coercion)."""
        return self._entry(name).source

    def stats(self, name: str) -> TableStats:
        """The :class:`TableStats` of one registered table.

        Computed from the current table on first use after a change and
        cached beside that table object; only the optimizer and EXPLAIN
        read them.
        """
        entry = self._entry(name)
        table = entry.ctable
        cached = entry.stats
        if cached is None or cached[0] is not table:
            cached = (table, TableStats.from_ctable(table))
            entry.stats = cached
        return cached[1]

    def distributions(self) -> ValidatedDistributions:
        """Variable distributions merged across registered pc-tables.

        Conflicting distributions for one variable name raise: variables
        are global to a session, as they are to a c-table's valuations.
        The merge is cached per registry state.
        """
        return self._merge_distributions(self._distribution_sources())

    def _distribution_sources(self) -> Tuple[ValidatedDistributions, ...]:
        """The registered pc-tables' distribution maps, in name order."""
        return tuple(
            distributions
            for name in sorted(self._registry)
            if (distributions := self._registry[name].distributions)
            is not None
        )

    def _merge_distributions(
        self, sources: Tuple[ValidatedDistributions, ...]
    ) -> ValidatedDistributions:
        """Merge a distribution snapshot, reusing the last merge if it
        was of the same maps (registered maps are read-only, so equal
        snapshots merge to equal results)."""
        merged = self._merged
        if merged is None or merged[0] != sources:
            merged = (sources, merge_distributions(sources))
            self._merged = merged
        return merged[1]

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

    def _versions_of(self, query: Query) -> Tuple[Tuple[str, int], ...]:
        """The ``(name, version)`` pairs of the relations *query* reads:
        the registry-state part of plan and result keys."""
        return tuple(
            (name, self._entry(name).version)
            for name in sorted(query.relation_names())
        )


class PreparedQuery:
    """One query, planned once against the session's current statistics.

    The optimized plan is memoized in the engine's LRU plan cache keyed
    on (query, versions of the relations it reads, optimize flag); as
    long as none of those relations is written, every execution — and
    every :class:`Dataset` terminal — reuses the identical plan object.
    Keys are always computed before the tables are read, so an answer
    raced by a write is parked under a version no later lookup uses.
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
            session._versions_of(self._query),
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
        logical one (same cache entry, same invalidation).

        Lowered without statistics: estimates only annotate EXPLAIN
        output, which lowers its own annotated tree.
        """
        entry = self._plan_entry()
        lowered = entry.physical
        if lowered is None:
            verifier = PlanVerifier() if self._config.verify_plans else None
            with trace_span(SPAN_LOWER):
                lowered = lower(entry.logical, verifier=verifier)
            entry.physical = lowered
        return lowered

    def _stats(self) -> Dict[str, TableStats]:
        """Current statistics of the relations this query reads."""
        session = self._session
        return {
            name: session.stats(name) for name in self._query.relation_names()
        }

    def _result_key(self) -> Tuple[object, ...]:
        session = self._session
        config = self._config
        return (
            "result",
            session._id,
            self._query,
            session._versions_of(self._query),
            config.optimize,
            config.simplify_conditions,
            config.executor,
        )

    def _view_key(self) -> Tuple[object, ...]:
        """The session's key for this query's standing view."""
        config = self._config
        return (self._query, config.optimize, config.simplify_conditions)

    def refresh(self) -> CTable:
        """The maintained read: make the query standing, bring its
        answer up to date, and return it.

        The first call builds the session's materialized view of the
        query.  Later calls consume the signed delta batches pending
        from :meth:`Session.insert` / :meth:`~Session.delete` /
        :meth:`~Session.update` calls since the last refresh and fold
        them through the delta rules of the view's physical operators.
        The maintained table is re-cached under the result-cache key
        taken before the view read the tables, so the next
        :meth:`execute` is a cache hit, and a write racing the refresh
        leaves the answer under a version no later read asks for.  The
        returned table is structurally identical (rows, interned
        condition objects, order) to fully re-executing the view's plan
        on the mutated tables.

        An ``executor="interpreted"`` query never builds or reads a
        view: its refresh re-executes through the lifted-operator
        oracle, as :meth:`execute` does.
        """
        if self._config.executor == "interpreted":
            return self._execute()
        session = self._session
        key = self._result_key()  # before the view reads the tables
        result = session._maintained_result(self)
        session.engine._result_cache.put(
            key,
            result,
            session._id,
            frozenset(self._query.relation_names()),
        )
        return result

    def execute(self) -> CTable:
        """Evaluate the plan against the registry's current tables.

        A repeated identical read — same relation versions, same query,
        same config — is served from the engine's result cache without
        executing (or even lowering) any plan; a write to a relation the
        query reads gives it a new version, so the read misses.  With
        ``trace=True`` in the config, a span trace of the execution
        lands in ``Engine.last_trace()``.
        Once :meth:`refresh` has made the query standing, a read that
        misses the cache is served from its materialized view
        (refreshing it first), so repeated reads over mutating tables pay
        delta-propagation cost instead of full re-execution.  Otherwise
        the plan runs.
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

    def _execute(self) -> CTable:
        """The execution body; runs under whatever tracer is active."""
        engine = self._session.engine
        config = self._config
        results = engine._result_cache
        key = self._result_key()
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
            config.executor != "interpreted"
            and self._view_key() in self._session._views
        ):
            # A standing query (see refresh): serve the read from its
            # maintained view — traced or not, so tracing never changes
            # what runs.
            started = perf_counter()
            answered = self._session._maintained_result(self)
        else:
            answered, started = self._run_plan()
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

    def _run_plan(self) -> Tuple[CTable, float]:
        """Execute the plan; returns the answer and when execution began."""
        config = self._config
        bindings = self._session._bindings(self._query)
        collector: Optional[TraceCollector] = None
        if config.executor != "interpreted" and current_tracer() is not None:
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
        return answered, started

    def explain(self, physical: bool = False, analyze: bool = False) -> str:
        """Render the cached plan with cardinality/condition estimates.

        ``physical=True`` renders the lowered operator tree instead —
        the operators that actually run, a hash join's ``out=`` columns
        among them.
        ``analyze=True`` *executes* the query under tracing and renders
        the physical tree with estimated-vs-actual cardinalities,
        per-operator wall time, cache-hit provenance,
        and a drift flag on operators whose actuals diverge ≥4× from
        the estimates.
        """
        if analyze:
            return self._explain_analyze()
        if physical:
            return explain_physical(lower(self.plan(), self._stats()))
        return explain_plan(self.plan(), self._stats())

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
            logical = self.plan()
            with trace_span(SPAN_LOWER):
                physical_tree = lower(logical, self._stats())
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
        "_tables",
    )

    def __init__(self, prepared: PreparedQuery) -> None:
        self._prepared = prepared
        self._collected: Optional[CTable] = None
        self._distribution_sources: Optional[
            Tuple[ValidatedDistributions, ...]
        ] = None
        self._distributions: Optional[ValidatedDistributions] = None
        self._plan: Optional[PlanNode] = None
        self._tables: Optional[Dict[str, CTable]] = None

    @property
    def prepared(self) -> PreparedQuery:
        return self._prepared

    @property
    def query(self) -> Query:
        return self._prepared.query

    def collect(self) -> CTable:
        """The answer c-table ``q̄(T)`` (memoized; the lazy boundary).

        The registry state the other terminals need — the plan, the
        bound tables, the pc-table distributions — is snapshotted at the
        same moment (by reference; merging, statistics and rendering
        stay lazy), so probability/lineage/explain readings remain
        consistent with the answer even across later ``register`` calls.
        """
        if self._collected is None:
            session = self._prepared.session
            self._distribution_sources = session._distribution_sources()
            self._plan = self._prepared.plan()
            self._tables = session._bindings(self._prepared.query)
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

        Once the dataset has collected, the plan and the tables it read
        are part of its snapshot: the rendering describes the plan that
        produced the memoized answer, with estimates from those tables,
        not whatever a later ``register`` would plan.  ``physical=True`` renders the lowered physical operator
        tree (hash joins and their ``out=`` columns, filters) instead of
        the logical one.
        ``analyze=True`` re-executes the query under tracing against the
        session's *current* tables and renders estimated-vs-actual
        cardinalities per operator (the memoized answer itself is
        untouched).
        """
        if analyze:
            return self._prepared.explain(analyze=True)
        if self._plan is not None:
            assert self._tables is not None
            stats = collect_stats(self._tables)
            if physical:
                return explain_physical(lower(self._plan, stats))
            return explain_plan(self._plan, stats)
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

    def probability(self, row: Row) -> Fraction:
        """``P[row ∈ q(I)]`` by counting the lineage condition.

        The lineage is compiled to d-DNNF and weighted-model-counted
        (:meth:`Engine.condition_probability`).  Compiled circuits live
        in the engine's circuit cache keyed on the interned lineage and
        the distribution snapshot, so a prepared probability hot loop
        compiles once and answers from memory; re-``register`` of any
        input relation evicts them.
        """
        lineage = self.lineage(row)  # collects, snapshotting distributions
        distributions = self._merged_distributions()
        missing = sorted(
            name for name in lineage.variables() if name not in distributions
        )
        if missing:
            raise ProbabilityError(
                f"lineage mentions variables {missing} with no registered "
                "distribution; register the inputs as PCTables"
            )
        prepared = self._prepared
        return prepared.session.engine.condition_probability(
            lineage,
            distributions,
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

    def _merged_distributions(self) -> ValidatedDistributions:
        """Merge the snapshotted distributions, lazily.

        The merge (and its conflict check) runs only when a
        probabilistic reading is actually requested, so sessions whose
        pc-tables have clashing variable names can still serve every
        non-probabilistic query.  A snapshot of the current registry
        state reuses the session's cached merge.
        """
        if self._distributions is None:
            self.collect()  # ensure the sources snapshot exists
            assert self._distribution_sources is not None
            self._distributions = self._prepared.session._merge_distributions(
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
