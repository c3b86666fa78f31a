"""Lowering: optimized logical plans → physical operator trees.

``lower()`` walks a :class:`~repro.ctalgebra.plan.PlanNode` tree and
gives each logical node its one physical operator:

- a :class:`~repro.ctalgebra.plan.JoinNode` whose predicate contains
  cross-operand column equalities becomes a
  :class:`~repro.physical.operators.HashJoinOp`, which builds on its
  right input (a scanned one's cached column index is the hash table)
  and probes the left rows in order; without equijoin keys it lowers to
  the ``FilterOp``-over-``ProductOp`` pipeline (the nested-loop shape
  ``join_bar`` falls back to);
- a :class:`~repro.ctalgebra.plan.ProjectNode` directly over a join
  that lowers to a hash join hands the join its columns
  (:attr:`~repro.physical.operators.HashJoinOp.output`, late
  materialization) and becomes a
  :class:`~repro.physical.operators.ProjectOp` over the identity
  columns, which only merges rows with equal values;
- the remaining operators, :class:`~repro.ctalgebra.plan.SelectNode`
  → :class:`~repro.physical.operators.FilterOp` among them, map
  one-to-one.

Table statistics, when supplied, only stamp each operator's estimated
cardinality (``est_rows``) for EXPLAIN; they choose nothing.  Every
lowering preserves the structural-identity contract: the materialized
answer equals the interpreted ``execute_plan`` result row-for-row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.ctalgebra.verify import PlanVerifier
    from repro.obs.trace import TraceCollector

from repro.errors import QueryError
from repro.tables.ctable import CTable
from repro.algebra.predicates import check_predicate, split_equijoin
from repro.ctalgebra.plan import (
    ConstScan,
    DifferenceNode,
    EmptyNode,
    Estimate,
    IntersectionNode,
    JoinNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    Scan,
    SelectNode,
    TableStats,
    UnionNode,
    estimate,
)
from repro.physical.operators import (
    ConstScanOp,
    DifferenceOp,
    EmptyOp,
    ExecContext,
    FilterOp,
    HashJoinOp,
    IntersectOp,
    PhysicalOp,
    ProductOp,
    ProjectOp,
    ScanOp,
    UnionOp,
)


def lower(
    plan: PlanNode,
    stats: Optional[Mapping[str, TableStats]] = None,
    verifier: Optional["PlanVerifier"] = None,
) -> PhysicalOp:
    """The physical operator tree of *plan*.

    A projection directly over a hash join sets the join's ``output`` to
    its columns and keeps the identity columns itself.  *stats*, when
    given, stamp each operator's ``est_rows`` and nothing else.  With a
    *verifier* (``ExecutionConfig.verify_plans``) the lowered tree is
    checked for the lowering invariants — arities, join keys and output
    columns within range, filter pins — before it is returned.
    """
    memo: Dict[PlanNode, Estimate] = {}

    def found(node: PlanNode) -> Optional[Estimate]:
        if stats is None:
            return None
        return estimate(node, stats, memo)

    def recurse(node: PlanNode) -> PhysicalOp:
        if isinstance(node, Scan):
            op: PhysicalOp = ScanOp(node.name, node.rel_arity)
        elif isinstance(node, ConstScan):
            op = ConstScanOp(node.instance)
        elif isinstance(node, EmptyNode):
            op = EmptyOp(node.empty_arity, node.sources)
        elif isinstance(node, ProjectNode):
            bad = [
                c for c in node.columns if c < 0 or c >= node.child.arity
            ]
            if bad:
                from repro.errors import ArityError

                raise ArityError(
                    f"projection columns {bad} out of range for arity "
                    f"{node.child.arity}"
                )
            child_op = recurse(node.child)
            columns = node.columns
            if isinstance(child_op, HashJoinOp):
                # Late materialization: the join builds only the kept
                # columns, and the projection over it only merges.
                child_op.output = tuple(columns)
                columns = tuple(range(len(columns)))
            op = ProjectOp(child_op, columns)
        elif isinstance(node, SelectNode):
            check_predicate(node.predicate, node.child.arity)
            op = FilterOp(recurse(node.child), node.predicate)
        elif isinstance(node, JoinNode):
            check_predicate(node.predicate, node.arity)
            pairs, residual = split_equijoin(node.predicate, node.left.arity)
            left_op = recurse(node.left)
            right_op = recurse(node.right)
            if not pairs:
                # join_bar's fallback: the blind nested loop, expressed
                # as the same Filter-over-Product pipeline (conj
                # flattening makes the conditions structurally equal).
                product_op = ProductOp(left_op, right_op)
                if (
                    left_op.est_rows is not None
                    and right_op.est_rows is not None
                ):
                    # The synthetic product has no plan node of its own;
                    # give it the obvious estimate so explain can see
                    # through it.
                    product_op.est_rows = left_op.est_rows * right_op.est_rows
                op = FilterOp(product_op, node.predicate)
            else:
                op = HashJoinOp(
                    left_op,
                    right_op,
                    node.predicate,
                    residual,
                    tuple(i for i, _ in pairs),
                    tuple(j for _, j in pairs),
                )
        elif isinstance(node, ProductNode):
            op = ProductOp(recurse(node.left), recurse(node.right))
        elif isinstance(node, UnionNode):
            op = UnionOp(recurse(node.left), recurse(node.right))
        elif isinstance(node, DifferenceNode):
            op = DifferenceOp(recurse(node.left), recurse(node.right))
        elif isinstance(node, IntersectionNode):
            op = IntersectOp(recurse(node.left), recurse(node.right))
        else:
            raise QueryError(f"unknown plan node {node!r}")
        node_estimate = found(node)
        if node_estimate is not None:
            op.est_rows = node_estimate.rows
        return op

    root = recurse(plan)
    if verifier is not None:
        verifier.verify_physical(root, rule="lower")
    return root


def execute_physical(
    physical: PhysicalOp,
    tables: Mapping[str, CTable],
    simplify_conditions: bool = False,
    collector: Optional["TraceCollector"] = None,
) -> CTable:
    """Run a lowered operator tree against bound tables.

    *collector* (EXPLAIN ANALYZE / tracing) receives per-operator
    actuals; None leaves the execution path untouched.
    """
    context = ExecContext(
        tables, simplify_conditions=simplify_conditions, collector=collector
    )
    return physical.execute(context).to_ctable()


def execute_plan_vectorized(
    plan: PlanNode,
    tables: Mapping[str, CTable],
    simplify_conditions: bool = False,
    verifier: Optional["PlanVerifier"] = None,
) -> CTable:
    """Lower *plan* and execute it — the one-shot convenience entry."""
    return execute_physical(
        lower(plan, verifier=verifier),
        tables,
        simplify_conditions=simplify_conditions,
    )


def explain_physical(physical: PhysicalOp) -> str:
    """Render a physical tree: operator labels and cardinality estimates."""
    lines = []

    def annotate(op: PhysicalOp) -> str:
        label = op.label()
        if op.est_rows is not None:
            label += f"  rows≈{op.est_rows:.1f}"
        return label

    def render(op: PhysicalOp, prefix: str, child_prefix: str) -> None:
        lines.append(prefix + annotate(op))
        children = op.children()
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            render(child, child_prefix + connector, child_prefix + extension)

    render(physical, "", "")
    return "\n".join(lines)
