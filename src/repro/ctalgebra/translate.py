"""The translation ``q ↦ q̄`` from RA queries to c-table programs.

Replacing each operator ``u`` of a relational-algebra expression by its
lifted counterpart ``ū`` gives the c-table algebra expression ``q̄`` with
``Mod(q̄(T)) = q(Mod(T))`` (Theorem 4).  The translation is explicit
about *plans* now: the query AST is first lowered to a
:class:`~repro.ctalgebra.plan.PlanNode` tree, optionally rewritten by
the rule-based optimizer, and then executed through the lifted
operators.

Constant relations become variable-free c-tables; the input relation
name(s) resolve to caller-supplied c-tables.  Two knobs:

- ``simplify_conditions`` runs the condition simplifier at every
  operator — benchmark E08 ablates its effect on condition growth.  The
  fused equijoin fast path is used either way: the fused ``⋈̄`` result
  is structurally identical to ``σ̄`` over ``×̄``, so simplifying *it*
  keeps the ablation like-for-like (previously the fast path was
  silently skipped whenever simplification was on, so E08 compared
  different plans).
- ``optimize`` runs the Theorem-4-sound rewrite rules of
  :mod:`repro.ctalgebra.optimize` (selection/projection pushdown, join
  reordering, dead-branch pruning) before execution
  (``tests/test_planner.py`` checks optimized answers ``Mod``-equal to
  verbatim ones).

Since the engine redesign, :func:`translate_query` and
:func:`apply_query_to_ctable` are thin shims over the module-level
default :class:`~repro.engine.Engine` — ad-hoc calls re-plan every time;
use :class:`~repro.engine.Session` to cache plans across repeated
executions.
"""

from __future__ import annotations

from typing import Mapping

from typing import Callable, Dict, Optional

from repro.algebra.ast import Query
from repro.tables.ctable import CTable
from repro.ctalgebra.plan import (
    PlanNode,
    TableStats,
    collect_stats,
    plan_from_query,
)
from repro.ctalgebra.optimize import fuse_joins, optimize_plan
from repro.ctalgebra.verify import PlanVerifier
from repro.obs.names import SPAN_OPTIMIZE, SPAN_VERIFY
from repro.obs.trace import trace_span


def _verified(
    verifier: Optional[PlanVerifier],
    plan: PlanNode,
    rule: str,
) -> None:
    """One pipeline-level verifier check, traced as a verify span."""
    if verifier is None:
        return
    with trace_span(SPAN_VERIFY, stage=rule):
        verifier.verify_plan(plan, rule=rule)


def build_plan(
    query: Query,
    stats_thunk: Callable[[], Dict[str, TableStats]],
    optimize: bool,
    verify: bool = False,
) -> PlanNode:
    """The one plan-construction pipeline, shared with the engine.

    *stats_thunk* supplies table statistics lazily — they are only
    needed (and only computed) when the optimizer runs.  Both
    :func:`plan_for_query` and :class:`repro.engine.Engine` delegate
    here, so the plan the engine executes is by construction the plan
    ``explain``/``plan_for_query`` describe.

    With ``verify=True`` (``ExecutionConfig.verify_plans``) a
    :class:`~repro.ctalgebra.verify.PlanVerifier` checks the verbatim
    plan, then re-checks after every individual rewrite rule (the
    structural conservation checks, then symbolic translation
    validation), and finally certifies the plan that leaves the pipeline.
    """
    plan = plan_from_query(query)
    if optimize:
        stats = stats_thunk()
        verifier: Optional[PlanVerifier] = (
            PlanVerifier(stats) if verify else None
        )
        _verified(verifier, plan, "plan_from_query")
        with trace_span(SPAN_OPTIMIZE):
            optimized = optimize_plan(plan, stats, verifier=verifier)
        _verified(verifier, optimized, "optimize_plan")
        return optimized
    verifier = PlanVerifier() if verify else None
    _verified(verifier, plan, "plan_from_query")
    fused = fuse_joins(plan, verifier)
    _verified(verifier, fused, "fuse_joins")
    return fused


def plan_for_query(
    query: Query,
    tables: Mapping[str, CTable],
    optimize: bool = False,
    verify: bool = False,
) -> PlanNode:
    """The plan ``translate_query`` would execute for *query*.

    With ``optimize=False`` this is the verbatim plan with selections
    over products fused into joins (the seed evaluation order); with
    ``optimize=True`` the full rewrite pipeline runs against statistics
    of the bound tables.  ``verify=True`` runs the plan verifier along
    the pipeline (as in :func:`build_plan`).
    """
    return build_plan(
        query, lambda: collect_stats(tables), optimize, verify=verify
    )


def translate_query(
    query: Query,
    tables: Mapping[str, CTable],
    simplify_conditions: bool = False,
    optimize: bool = False,
) -> CTable:
    """Evaluate ``q̄`` on c-table inputs bound by name.

    The result is a c-table representing ``q(Mod(T))``; its domains and
    global condition are inherited from the inputs.
    """
    from repro.engine import default_engine

    return default_engine().execute(
        query,
        tables,
        simplify_conditions=simplify_conditions,
        optimize=optimize,
    )


def apply_query_to_ctable(
    query: Query,
    table: CTable,
    simplify_conditions: bool = False,
    optimize: bool = False,
) -> CTable:
    """Evaluate ``q̄(T)`` for a single-input query.

    The query's single relation name binds to *table*, mirroring the
    paper's single-relation schemas.  A query mentioning *several*
    distinct relation names raises :class:`~repro.errors.QueryError`:
    binding them all to one table would silently compute a self-join
    (the pre-engine behavior, which only checked arity).  Bind each name
    explicitly via :func:`translate_query` or a
    :class:`~repro.engine.Session`.
    """
    from repro.engine import default_engine

    return default_engine().execute_single(
        query,
        table,
        simplify_conditions=simplify_conditions,
        optimize=optimize,
    )
