"""Registered metric and span names.

Every metric or span emitted anywhere in the engine must use a constant
defined here — lint OBS001 rejects bare string literals at
``counter(...)``/``gauge(...)``/``histogram(...)``/``span(...)`` call
sites.  Centralising the names keeps the export surface
(`Engine.metrics_snapshot()`, the Prometheus renderer, JSON trace dumps)
stable across refactors: renaming a constant here is a visible,
greppable API change instead of a silent drift of dashboard keys.

Naming conventions follow Prometheus practice: counters end in
``_total``, base units are seconds, and label names are lowercase.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Span names — the hierarchical per-query trace.
# ---------------------------------------------------------------------------

#: Root span wrapping one prepared-query execution.
SPAN_QUERY = "query"
#: Text -> Query AST (only present when the query was prepared from text).
SPAN_PARSE = "parse"
#: Logical planning: translate + optimize (plan-cache provenance attr).
SPAN_PLAN = "plan"
#: The optimizer fixpoint inside planning (rule fire counts are metrics).
SPAN_OPTIMIZE = "optimize"
#: One plan-verifier invocation (attrs: mode, stage).
SPAN_VERIFY = "verify"
#: Logical plan -> physical operator tree.
SPAN_LOWER = "lower"
#: Physical (or interpreted) execution of the plan.
SPAN_EXECUTE = "execute"
#: One incremental refresh of a maintained materialized view
#: (attrs: mode in {build, delta, fallback, noop}, batches).
SPAN_REFRESH = "refresh"

# ---------------------------------------------------------------------------
# Span timing keys beside ``seconds`` (rendered only with timings).
# ---------------------------------------------------------------------------

#: Seconds of cyclic-GC pauses that ran while the span was innermost.
SPAN_GC_SECONDS = "gc_s"
#: Those pauses counted per collected generation: ``[gen0, gen1, gen2]``.
SPAN_GC_PAUSES = "gc_pauses"

# ---------------------------------------------------------------------------
# Per-Engine metrics.
# ---------------------------------------------------------------------------

#: Counter, labels {executor, cached}: prepared-query executions.
QUERIES_TOTAL = "queries_total"
#: Histogram, labels {executor}: wall seconds per executed (uncached) query.
QUERY_SECONDS = "query_seconds"
#: Counter, labels {op in {insert, delete, update}}: mutation-API calls.
IVM_MUTATIONS_TOTAL = "ivm_mutations_total"
#: Counter, labels {sign in {insert, delete}}: rows carried by signed
#: delta batches produced by the mutation API.
IVM_DELTA_ROWS_TOTAL = "ivm_delta_rows_total"
#: Counter, labels {mode in {build, delta, fallback, noop}}: refreshes
#: of maintained materialized views.
IVM_REFRESH_TOTAL = "ivm_refresh_total"
#: Histogram, labels {mode}: wall seconds per view refresh.
IVM_REFRESH_SECONDS = "ivm_refresh_seconds"

# ---------------------------------------------------------------------------
# Process-wide metrics (module-level subsystems shared by every engine).
# ---------------------------------------------------------------------------

#: Counter, labels {rule, outcome in {fired, no_fire}}: optimizer rule
#: applications observed by the rewrite fixpoint.
OPTIMIZER_RULES_TOTAL = "optimizer_rule_applications_total"
#: Counter: top-level DPLL satisfiability checks (`Solver.solve`).
SAT_SOLVE_TOTAL = "solver_sat_solve_total"
#: Counter: DPLL search-tree nodes (recursive `_dpll` entries).
DPLL_RECURSIONS_TOTAL = "solver_dpll_recursions_total"
#: Counter: SAT-backed condition-equivalence proofs.
EQUIV_SAT_TOTAL = "solver_equivalence_sat_total"
#: Counter, labels {route in {direct, complement, tseitin}}: conditions
#: clausified for knowledge compilation, by the clause form their shape
#: picked.
CLAUSIFY_TOTAL = "solver_clausify_total"
#: Counter: CNF -> d-DNNF knowledge compilations.
DDNNF_COMPILE_TOTAL = "solver_ddnnf_compile_total"
#: Counter: weighted model counts evaluated on compiled circuits.
WMC_COUNT_TOTAL = "solver_wmc_count_total"

#: Every registered name, for validation and tests.
REGISTERED_NAMES = frozenset(
    {
        SPAN_QUERY,
        SPAN_PARSE,
        SPAN_PLAN,
        SPAN_OPTIMIZE,
        SPAN_VERIFY,
        SPAN_LOWER,
        SPAN_EXECUTE,
        SPAN_REFRESH,
        SPAN_GC_SECONDS,
        SPAN_GC_PAUSES,
        QUERIES_TOTAL,
        QUERY_SECONDS,
        IVM_MUTATIONS_TOTAL,
        IVM_DELTA_ROWS_TOTAL,
        IVM_REFRESH_TOTAL,
        IVM_REFRESH_SECONDS,
        OPTIMIZER_RULES_TOTAL,
        SAT_SOLVE_TOTAL,
        DPLL_RECURSIONS_TOTAL,
        EQUIV_SAT_TOTAL,
        CLAUSIFY_TOTAL,
        DDNNF_COMPILE_TOTAL,
        WMC_COUNT_TOTAL,
    }
)

__all__ = [
    "CLAUSIFY_TOTAL",
    "DDNNF_COMPILE_TOTAL",
    "DPLL_RECURSIONS_TOTAL",
    "EQUIV_SAT_TOTAL",
    "IVM_DELTA_ROWS_TOTAL",
    "IVM_MUTATIONS_TOTAL",
    "IVM_REFRESH_SECONDS",
    "IVM_REFRESH_TOTAL",
    "OPTIMIZER_RULES_TOTAL",
    "QUERIES_TOTAL",
    "QUERY_SECONDS",
    "REGISTERED_NAMES",
    "SAT_SOLVE_TOTAL",
    "SPAN_EXECUTE",
    "SPAN_GC_PAUSES",
    "SPAN_GC_SECONDS",
    "SPAN_LOWER",
    "SPAN_OPTIMIZE",
    "SPAN_PARSE",
    "SPAN_PLAN",
    "SPAN_QUERY",
    "SPAN_REFRESH",
    "SPAN_VERIFY",
    "WMC_COUNT_TOTAL",
]
