"""The c-table algebra: Theorem 4's lifted relational operators.

[20] defines, for each relational-algebra operation ``u``, an operation
``ū`` on c-tables such that for every valuation ν,

    ν(q̄(T)) = q(ν(T))                        (Lemma 1)

and therefore ``Mod(q̄(T)) = q(Mod(T))`` — c-tables are closed under the
relational algebra.  :mod:`repro.ctalgebra.lifted` implements the
operators; :mod:`repro.ctalgebra.translate` implements ``q ↦ q̄``;
:mod:`repro.ctalgebra.plan` provides the logical-plan IR with
cardinality/condition estimates and :func:`explain`;
:mod:`repro.ctalgebra.optimize` rewrites plans (soundly, by Theorem 4)
before execution.
"""

from repro.ctalgebra.lifted import (
    difference_bar,
    intersection_bar,
    join_bar,
    product_bar,
    project_bar,
    select_bar,
    union_bar,
)
from repro.ctalgebra.plan import (
    PlanNode,
    TableStats,
    collect_stats,
    estimate,
    execute_plan,
    explain,
    plan_cost,
    plan_from_query,
)
from repro.ctalgebra.optimize import fuse_joins, optimize_plan
from repro.ctalgebra.translate import (
    apply_query_to_ctable,
    plan_for_query,
    translate_query,
)

__all__ = [
    "PlanNode",
    "TableStats",
    "apply_query_to_ctable",
    "collect_stats",
    "difference_bar",
    "estimate",
    "execute_plan",
    "explain",
    "fuse_joins",
    "intersection_bar",
    "join_bar",
    "optimize_plan",
    "plan_cost",
    "plan_for_query",
    "plan_from_query",
    "product_bar",
    "project_bar",
    "select_bar",
    "translate_query",
    "union_bar",
]
