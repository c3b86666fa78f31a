"""A rule-based optimizer for logical plans over c-tables.

Every rewrite here is *classically* sound under set semantics, and
therefore sound on c-tables: by Lemma 1 each lifted operator commutes
with every valuation, so two classically equivalent plans map each world
``ν(T)`` to the same instance and hence have the same ``Mod`` (Theorem 4
quantifies over *any* equivalent formulation of ``q``).  The rules:

- **selection pushdown** through ``×̄`` (splitting the predicate into
  per-side and residual cross conjuncts), ``∪̄``, ``π̄`` (remapping
  column indexes through the projection list), ``−̄`` and ``∩̄``
  (``σ_c(L − R) = σ_c(L) − σ_c(R)``, and likewise for ``∩``);
- **join fusion**: a selection directly above a product becomes a
  :class:`~repro.ctalgebra.plan.JoinNode`, unlocking the equijoin hash
  partitioning of :func:`repro.ctalgebra.lifted.join_bar`;
- **projection pushdown** below products/joins and unions, keeping only
  the columns the output (and the join predicate) needs;
- **join reordering**: flattened ``×̄``/``⋈̄`` regions are re-ordered
  greedily by estimated cardinality, with conjuncts attached at the
  earliest join where their columns are available and a final ``π̄``
  restoring the original column order;
- **dead-branch pruning**: a selection whose predicate is unsatisfiable
  (decided by :func:`repro.logic.equality_sat.is_satisfiable_infinite`,
  the SAT + equality-theory loop) collapses its entire sub-plan to an
  :class:`~repro.ctalgebra.plan.EmptyNode` that preserves the region's
  domains and global conditions.

``optimize_plan`` runs the rules to a fixpoint (bounded); ``fuse_joins``
applies only the fusion rule and is the default, verbatim-shaped path of
:func:`repro.ctalgebra.translate.translate_query`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.logic.equality_sat import is_satisfiable_infinite
from repro.logic.evaluation import substitute
from repro.logic.syntax import And, Bottom, Formula, TOP, Top, conj
from repro.algebra.predicates import (
    col,
    predicate_columns,
    shift_predicate,
)
from repro.ctalgebra.plan import (
    DifferenceNode,
    EmptyNode,
    IntersectionNode,
    JoinNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    SelectNode,
    TableStats,
    UnionNode,
    estimate,
    leaf_sources,
    plan_cost,
    predicate_selectivity,
)

from repro.obs.metrics import counter
from repro.obs.names import OPTIMIZER_RULES_TOTAL
from repro.obs.trace import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.ctalgebra.verify import PlanVerifier

_MAX_PASSES = 8


def _note_rule(rule: str, fired: bool) -> None:
    """Account one rule application in the process-wide metrics, and —
    when a query trace is active — on the innermost open span (the
    ``optimize`` span on the planned path)."""
    outcome = "fired" if fired else "no_fire"
    counter(OPTIMIZER_RULES_TOTAL, labels={"outcome": outcome, "rule": rule})
    tracer = current_tracer()
    if tracer is not None:
        tracer.count(f"{rule}.{outcome}")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _conjuncts(predicate: Formula) -> Tuple[Formula, ...]:
    """Top-level conjuncts (smart constructors keep ``And`` flattened)."""
    if isinstance(predicate, And):
        return predicate.children
    return (predicate,)


def _remap_columns(predicate: Formula, mapping: Mapping[int, int]) -> Formula:
    """Rewrite every column variable ``@i`` to ``@mapping[i]``."""
    substitution = {
        col(old).name: col(new) for old, new in mapping.items()
    }
    return substitute(predicate, substitution)


def _split_product_predicate(
    predicate: Formula, left_arity: int
) -> Tuple[Formula, Formula, Formula]:
    """Split into (left-only, right-only local, residual) conjunctions."""
    left_parts: List[Formula] = []
    right_parts: List[Formula] = []
    residual: List[Formula] = []
    for part in _conjuncts(predicate):
        columns = predicate_columns(part)
        if columns and max(columns) < left_arity:
            left_parts.append(part)
        elif columns and min(columns) >= left_arity:
            right_parts.append(shift_predicate(part, -left_arity))
        else:
            residual.append(part)
    return conj(*left_parts), conj(*right_parts), conj(*residual)


class _SatCache:
    """Memoized satisfiability of selection predicates.

    Predicates are interned formulas, so the dictionary lookup is a
    pointer hash; the DPLL + congruence check runs once per distinct
    predicate per optimization session.
    """

    def __init__(self) -> None:
        self._known: Dict[Formula, bool] = {}

    def satisfiable(self, predicate: Formula) -> bool:
        if isinstance(predicate, Top):
            return True
        if isinstance(predicate, Bottom):
            return False
        cached = self._known.get(predicate)
        if cached is None:
            cached = is_satisfiable_infinite(predicate)
            self._known[predicate] = cached
        return cached


def _rebuild(node: PlanNode, children: Sequence[PlanNode]) -> PlanNode:
    """The same operator over new children."""
    if isinstance(node, ProjectNode):
        return ProjectNode(children[0], node.columns)
    if isinstance(node, SelectNode):
        return SelectNode(children[0], node.predicate)
    if isinstance(node, JoinNode):
        return JoinNode(children[0], children[1], node.predicate)
    if isinstance(node, ProductNode):
        return ProductNode(children[0], children[1])
    if isinstance(node, UnionNode):
        return UnionNode(children[0], children[1])
    if isinstance(node, DifferenceNode):
        return DifferenceNode(children[0], children[1])
    if isinstance(node, IntersectionNode):
        return IntersectionNode(children[0], children[1])
    return node


# ----------------------------------------------------------------------
# The verbatim path: join fusion only
# ----------------------------------------------------------------------

def fuse_joins(
    plan: PlanNode, verifier: Optional["PlanVerifier"] = None
) -> PlanNode:
    """Fuse each selection directly above a product into a join.

    This reproduces the seed dispatch of ``translate_query`` — the
    result table is structurally identical to the composed operators —
    and is applied on the non-optimized path too, so the equijoin fast
    path and per-operator simplification compose instead of excluding
    each other.
    """
    children = [fuse_joins(child, verifier) for child in plan.children()]
    plan = _rebuild(plan, children)
    if isinstance(plan, SelectNode) and isinstance(plan.child, ProductNode):
        fused = JoinNode(plan.child.left, plan.child.right, plan.predicate)
        _note_rule("fuse_joins", True)
        if verifier is not None:
            verifier.verify_rewrite("fuse_joins", plan, fused)
        return fused
    return plan


# ----------------------------------------------------------------------
# Local rewrite rules
# ----------------------------------------------------------------------

def _prune_to_empty(node: PlanNode) -> EmptyNode:
    return EmptyNode(node.arity, leaf_sources(node))


def _rewrite_select(node: SelectNode, sat: _SatCache) -> PlanNode:
    predicate = node.predicate
    child = node.child
    if isinstance(predicate, Top):
        return child
    if not sat.satisfiable(predicate):
        return _prune_to_empty(node)
    if isinstance(child, EmptyNode):
        return child
    if isinstance(child, SelectNode):
        return SelectNode(child.child, conj(child.predicate, predicate))
    if isinstance(child, UnionNode):
        return UnionNode(
            SelectNode(child.left, predicate),
            SelectNode(child.right, predicate),
        )
    if isinstance(child, (DifferenceNode, IntersectionNode)):
        rebuilt = type(child)(
            SelectNode(child.left, predicate),
            SelectNode(child.right, predicate),
        )
        return rebuilt
    if isinstance(child, ProjectNode):
        mapping = {
            index: child.columns[index]
            for index in range(len(child.columns))
        }
        return ProjectNode(
            SelectNode(child.child, _remap_columns(predicate, mapping)),
            child.columns,
        )
    if isinstance(child, ProductNode):
        return JoinNode(child.left, child.right, predicate)
    if isinstance(child, JoinNode):
        return JoinNode(
            child.left, child.right, conj(child.predicate, predicate)
        )
    return node


def _rewrite_join(node: JoinNode, sat: _SatCache) -> PlanNode:
    if isinstance(node.predicate, Top):
        return ProductNode(node.left, node.right)
    if not sat.satisfiable(node.predicate):
        return _prune_to_empty(node)
    if isinstance(node.left, EmptyNode) or isinstance(node.right, EmptyNode):
        return _prune_to_empty(node)
    left_only, right_only, residual = _split_product_predicate(
        node.predicate, node.left.arity
    )
    if isinstance(left_only, Top) and isinstance(right_only, Top):
        return node
    left = (
        node.left
        if isinstance(left_only, Top)
        else SelectNode(node.left, left_only)
    )
    right = (
        node.right
        if isinstance(right_only, Top)
        else SelectNode(node.right, right_only)
    )
    if isinstance(residual, Top):
        return ProductNode(left, right)
    return JoinNode(left, right, residual)


def _rewrite_project(node: ProjectNode) -> PlanNode:
    child = node.child
    if isinstance(child, EmptyNode):
        return EmptyNode(node.arity, child.sources)
    if node.columns == tuple(range(child.arity)):
        return child
    if isinstance(child, ProjectNode):
        return ProjectNode(
            child.child,
            tuple(child.columns[index] for index in node.columns),
        )
    if isinstance(child, UnionNode):
        return UnionNode(
            ProjectNode(child.left, node.columns),
            ProjectNode(child.right, node.columns),
        )
    if isinstance(child, (ProductNode, JoinNode)):
        return _push_project_through(node, child)
    return node


def _push_project_through(node: ProjectNode, child: PlanNode) -> PlanNode:
    """Keep only the columns the output and the join predicate need."""
    left_arity = child.left.arity
    predicate = child.predicate if isinstance(child, JoinNode) else TOP
    used = sorted(set(node.columns) | predicate_columns(predicate))
    used_left = [index for index in used if index < left_arity]
    used_right = [index for index in used if index >= left_arity]
    if (
        len(used_left) == left_arity
        and len(used_right) == child.right.arity
    ):
        return node
    mapping = {index: position for position, index in enumerate(used_left)}
    mapping.update(
        {
            index: len(used_left) + position
            for position, index in enumerate(used_right)
        }
    )
    left = (
        child.left
        if len(used_left) == left_arity
        else ProjectNode(child.left, tuple(used_left))
    )
    right = (
        child.right
        if len(used_right) == child.right.arity
        else ProjectNode(
            child.right, tuple(index - left_arity for index in used_right)
        )
    )
    if isinstance(predicate, Top):
        inner: PlanNode = ProductNode(left, right)
    else:
        inner = JoinNode(left, right, _remap_columns(predicate, mapping))
    outer = tuple(mapping[index] for index in node.columns)
    if outer == tuple(range(inner.arity)):
        return inner
    return ProjectNode(inner, outer)


def _rewrite_structural(node: PlanNode) -> PlanNode:
    """Empty-operand collapses for the remaining binary operators."""
    if isinstance(node, ProductNode) and (
        isinstance(node.left, EmptyNode) or isinstance(node.right, EmptyNode)
    ):
        return _prune_to_empty(node)
    if isinstance(node, IntersectionNode) and (
        isinstance(node.left, EmptyNode) or isinstance(node.right, EmptyNode)
    ):
        return _prune_to_empty(node)
    if isinstance(node, DifferenceNode) and isinstance(node.left, EmptyNode):
        return _prune_to_empty(node)
    if (
        isinstance(node, UnionNode)
        and isinstance(node.left, EmptyNode)
        and isinstance(node.right, EmptyNode)
    ):
        return _prune_to_empty(node)
    return node


def _apply_local_rule(
    node: PlanNode, sat: _SatCache
) -> Tuple[str, PlanNode]:
    """Dispatch one local rule; returns ``(rule_name, rewritten)``.

    The rule functions are resolved through module globals on purpose:
    the verifier's mutation tests monkeypatch them to seed deliberately
    broken rewrites.
    """
    if isinstance(node, SelectNode):
        return "rewrite_select", _rewrite_select(node, sat)
    if isinstance(node, JoinNode):
        return "rewrite_join", _rewrite_join(node, sat)
    if isinstance(node, ProjectNode):
        return "rewrite_project", _rewrite_project(node)
    return "rewrite_structural", _rewrite_structural(node)


def _rewrite_once(
    plan: PlanNode,
    sat: _SatCache,
    verifier: Optional["PlanVerifier"] = None,
) -> PlanNode:
    """One bottom-up pass of the local rules.

    With a *verifier*, every individual rule application is checked the
    moment it fires, so a violation names the offending rule and the
    exact before/after pair — not the fully-optimized wreckage.
    """
    children = [
        _rewrite_once(child, sat, verifier) for child in plan.children()
    ]
    node = _rebuild(plan, children)
    for _ in range(_MAX_PASSES):
        rule, rewritten = _apply_local_rule(node, sat)
        fired = rewritten != node
        _note_rule(rule, fired)
        if not fired:
            return node
        if verifier is not None:
            verifier.verify_rewrite(rule, node, rewritten)
        node = rewritten
    return node


# ----------------------------------------------------------------------
# Join reordering
# ----------------------------------------------------------------------

def _flatten_region(
    node: PlanNode,
    offset: int,
    operands: List[Tuple[PlanNode, int]],
    conjuncts: List[Formula],
) -> None:
    """Flatten nested products/joins; conjuncts in global column space."""
    if isinstance(node, (ProductNode, JoinNode)):
        _flatten_region(node.left, offset, operands, conjuncts)
        _flatten_region(
            node.right, offset + node.left.arity, operands, conjuncts
        )
        if isinstance(node, JoinNode):
            for part in _conjuncts(node.predicate):
                conjuncts.append(
                    part if offset == 0 else shift_predicate(part, offset)
                )
    else:
        operands.append((node, offset))


def _build_in_order(
    operands: Sequence[Tuple[PlanNode, int]],
    conjuncts: Sequence[Formula],
    order: Sequence[int],
    total_arity: int,
) -> PlanNode:
    """A left-deep tree placing *operands* in *order*.

    Conjuncts attach at the first join where all their columns are
    available; a final projection restores the original column order.
    """
    pending = [(part, predicate_columns(part)) for part in conjuncts]
    positions: Dict[int, int] = {}
    tree: Optional[PlanNode] = None
    for index in order:
        operand, start = operands[index]
        base = tree.arity if tree is not None else 0
        for local in range(operand.arity):
            positions[start + local] = base + local
        placed: Set[int] = set(positions)
        ready = [
            (part, columns)
            for part, columns in pending
            if columns <= placed
        ]
        pending = [
            (part, columns)
            for part, columns in pending
            if not columns <= placed
        ]
        predicate = conj(
            *(_remap_columns(part, positions) for part, _ in ready)
        )
        if tree is None:
            tree = (
                operand
                if isinstance(predicate, Top)
                else SelectNode(operand, predicate)
            )
        elif isinstance(predicate, Top):
            tree = ProductNode(tree, operand)
        else:
            tree = JoinNode(tree, operand, predicate)
    assert tree is not None and not pending
    outer = tuple(positions[index] for index in range(total_arity))
    if outer == tuple(range(total_arity)):
        return tree
    return ProjectNode(tree, outer)


def _greedy_order(
    operands: Sequence[Tuple[PlanNode, int]],
    conjuncts: Sequence[Formula],
    stats: Mapping[str, TableStats],
) -> List[int]:
    """Order operands by smallest estimated intermediate cardinality."""
    memo: Dict[PlanNode, object] = {}
    estimates = [estimate(operand, stats, memo) for operand, _ in operands]
    # Column stats in the original global column space.
    global_columns: List = []
    spans: List[Set[int]] = []
    for (operand, start), found in zip(operands, estimates):
        while len(global_columns) < start:
            global_columns.append(None)
        global_columns.extend(found.columns)
        spans.append(set(range(start, start + operand.arity)))
    tagged = [(part, predicate_columns(part)) for part in conjuncts]

    remaining = set(range(len(operands)))
    first = min(remaining, key=lambda index: estimates[index].rows)
    order = [first]
    remaining.remove(first)
    placed_columns = set(spans[first])
    current_rows = estimates[first].rows
    used: Set[int] = set()
    while remaining:
        best_index = None
        best_rows = None
        for candidate in remaining:
            columns = placed_columns | spans[candidate]
            selectivity = 1.0
            for tag, (part, part_columns) in enumerate(tagged):
                if tag in used or not part_columns <= columns:
                    continue
                selectivity *= predicate_selectivity(part, global_columns)
            rows = current_rows * estimates[candidate].rows * selectivity
            if best_rows is None or rows < best_rows:
                best_rows = rows
                best_index = candidate
        order.append(best_index)
        remaining.remove(best_index)
        placed_columns |= spans[best_index]
        for tag, (part, part_columns) in enumerate(tagged):
            if tag not in used and part_columns <= placed_columns:
                used.add(tag)
        current_rows = best_rows
    return order


def reorder_joins(
    plan: PlanNode,
    stats: Mapping[str, TableStats],
    verifier: Optional["PlanVerifier"] = None,
) -> PlanNode:
    """Reorder flattened join regions by estimated cardinality.

    The reordered candidate is kept only when the cost model says it is
    strictly cheaper than the region in its original operand order.
    """
    if isinstance(plan, (ProductNode, JoinNode)):
        flat: List[Tuple[PlanNode, int]] = []
        conjuncts: List[Formula] = []
        _flatten_region(plan, 0, flat, conjuncts)
        flat = [
            (reorder_joins(operand, stats, verifier), start)
            for operand, start in flat
        ]
        identity = list(range(len(flat)))
        rebuilt = _build_in_order(flat, conjuncts, identity, plan.arity)
        if rebuilt != plan:
            _note_rule("reorder_joins", True)
            if verifier is not None:
                verifier.verify_rewrite("reorder_joins", plan, rebuilt)
        if len(flat) < 3:
            return rebuilt
        order = _greedy_order(flat, conjuncts, stats)
        if order == identity:
            return rebuilt
        candidate = _build_in_order(flat, conjuncts, order, plan.arity)
        if verifier is not None:
            verifier.verify_rewrite("reorder_joins", plan, candidate)
        memo: Dict[PlanNode, object] = {}
        if plan_cost(candidate, stats, memo) < plan_cost(rebuilt, stats, memo):
            _note_rule("reorder_joins", True)
            return candidate
        _note_rule("reorder_joins", False)
        return rebuilt
    children = [
        reorder_joins(child, stats, verifier) for child in plan.children()
    ]
    return _rebuild(plan, children)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

def optimize_plan(
    plan: PlanNode,
    stats: Optional[Mapping[str, TableStats]] = None,
    max_passes: int = _MAX_PASSES,
    verifier: Optional["PlanVerifier"] = None,
) -> PlanNode:
    """Run the rewrite rules to a (bounded) fixpoint.

    Sound by Theorem 4: the optimized plan's ``Mod`` equals the verbatim
    plan's, which the planner property tests check on randomized tables.
    With a *verifier* (``ExecutionConfig.verify_plans``), every single
    rule application is re-checked against the structural conservation
    laws and a violation raises
    :class:`~repro.errors.PlanVerificationError` naming the rule.
    """
    stats = stats or {}
    sat = _SatCache()
    for _ in range(max_passes):
        rewritten = _rewrite_once(plan, sat, verifier)
        rewritten = reorder_joins(rewritten, stats, verifier)
        if rewritten == plan:
            break
        plan = rewritten
    return plan
