"""A logical plan IR for the lifted c-table algebra.

``translate_query`` used to evaluate the query AST verbatim; this module
separates *what* to evaluate from *how*.  A :class:`PlanNode` tree mirrors
the relational-algebra AST but adds two operators the AST has no use for:

- :class:`JoinNode` — the fused ``σ̄_c(T₁ ×̄ T₂)`` with the equijoin hash
  partitioning of :func:`repro.ctalgebra.lifted.join_bar`,
- :class:`EmptyNode` — a provably empty sub-plan (its selection condition
  is unsatisfiable).  The node remembers the *leaf tables* of the region
  it replaced so execution can reproduce the verbatim result's merged
  finite domains and conjoined global condition exactly; by Theorem 4
  the two tables then have the same ``Mod``.

Because every lifted operator satisfies Lemma 1 (``ν(ū(T)) = u(ν(T))``),
any plan that is *classically* equivalent to the query under set
semantics represents the same ``Mod`` — that is what licenses the
rewrites in :mod:`repro.ctalgebra.optimize`.

The module also provides the cost model the optimizer ranks plans with:
:func:`estimate` computes per-node cardinality and condition-size
estimates from lightweight per-table statistics (:class:`TableStats`),
and :func:`explain` renders a plan with its estimates for inspection::

    π̄[0,3]  rows≈12.0 cond≈5.0
    └─ ⋈̄[(@1 = @2)]  rows≈12.0 cond≈5.0
       ├─ scan L  rows≈100
       └─ scan R  rows≈100
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import QueryError, TableError, nearest_name
from repro.core.instance import Instance
from repro.logic.atoms import Const, Eq
from repro.logic.syntax import (
    And,
    Bottom,
    Formula,
    Not,
    Or,
    TOP,
    Top,
    conj,
    walk,
)
from repro.algebra.ast import (
    ConstRel,
    Difference,
    Intersection,
    Product,
    Project,
    Query,
    RelVar,
    Select,
    Union,
)
from repro.algebra.predicates import is_column_var, column_index
from repro.tables.ctable import CRow, CTable, make_row
from repro.ctalgebra.lifted import (
    difference_bar,
    intersection_bar,
    join_bar,
    product_bar,
    project_bar,
    select_bar,
    union_bar,
)


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------

class PlanNode:
    """Base class of logical-plan operators.

    Nodes are immutable, hashable values (frozen dataclasses), so plans
    can be compared for fixpoint detection and memoized in estimate
    caches.
    """

    __slots__ = ()

    @property
    def arity(self) -> int:
        raise NotImplementedError

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        """Yield every node of the plan, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def label(self) -> str:
        """One-line operator label used by :func:`explain`."""
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(PlanNode):
    """Read an input c-table bound by relation name."""

    name: str
    rel_arity: int

    __slots__ = ("name", "rel_arity")

    @property
    def arity(self) -> int:
        return self.rel_arity

    def label(self) -> str:
        return f"scan {self.name}"


@dataclass(frozen=True)
class ConstScan(PlanNode):
    """Embed a constant relation as a variable-free c-table."""

    instance: Instance

    __slots__ = ("instance",)

    @property
    def arity(self) -> int:
        return self.instance.arity

    def label(self) -> str:
        return f"const {list(self.instance.rows)!r}"


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """``π̄_ℓ`` onto (possibly repeated, reordered) columns."""

    child: PlanNode
    columns: Tuple[int, ...]

    __slots__ = ("child", "columns")

    @property
    def arity(self) -> int:
        return len(self.columns)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"π̄[{','.join(str(c) for c in self.columns)}]"


@dataclass(frozen=True)
class SelectNode(PlanNode):
    """``σ̄_c`` by a predicate over the child's columns."""

    child: PlanNode
    predicate: Formula

    __slots__ = ("child", "predicate")

    @property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"σ̄[{self.predicate!r}]"


@dataclass(frozen=True)
class ProductNode(PlanNode):
    """``×̄``: the cross product."""

    left: PlanNode
    right: PlanNode

    __slots__ = ("left", "right")

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "×̄"


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """``σ̄_c(T₁ ×̄ T₂)`` fused; executes via the equijoin fast path."""

    left: PlanNode
    right: PlanNode
    predicate: Formula

    __slots__ = ("left", "right", "predicate")

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"⋈̄[{self.predicate!r}]"


@dataclass(frozen=True)
class UnionNode(PlanNode):
    """``∪̄``."""

    left: PlanNode
    right: PlanNode

    __slots__ = ("left", "right")

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "∪̄"


@dataclass(frozen=True)
class DifferenceNode(PlanNode):
    """``−̄``."""

    left: PlanNode
    right: PlanNode

    __slots__ = ("left", "right")

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "−̄"


@dataclass(frozen=True)
class IntersectionNode(PlanNode):
    """``∩̄``."""

    left: PlanNode
    right: PlanNode

    __slots__ = ("left", "right")

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "∩̄"


@dataclass(frozen=True)
class EmptyNode(PlanNode):
    """A sub-plan proven to produce no rows in any world.

    *sources* are the leaf nodes (:class:`Scan`/:class:`ConstScan`) of
    the pruned region: the verbatim evaluation would have merged their
    finite domains and conjoined their global conditions into the
    result, and those parts of the representation are semantically
    load-bearing (a global condition can rule out valuations of
    variables shared with the *surviving* branches).  Execution rebuilds
    them without evaluating a single operator.
    """

    empty_arity: int
    sources: Tuple[PlanNode, ...]

    __slots__ = ("empty_arity", "sources")

    @property
    def arity(self) -> int:
        return self.empty_arity

    def label(self) -> str:
        names = ",".join(
            source.name if isinstance(source, Scan) else "const"
            for source in self.sources
        )
        return f"∅[{self.empty_arity}]({names})"


def leaf_sources(plan: PlanNode) -> Tuple[PlanNode, ...]:
    """The plan's leaves (scans/constants/pruned sources), deduplicated."""
    seen: List[PlanNode] = []
    for node in plan.walk():
        found = ()
        if isinstance(node, (Scan, ConstScan)):
            found = (node,)
        elif isinstance(node, EmptyNode):
            found = node.sources
        for leaf in found:
            if leaf not in seen:
                seen.append(leaf)
    return tuple(seen)


# ----------------------------------------------------------------------
# Building plans from query ASTs
# ----------------------------------------------------------------------

def plan_from_query(query: Query) -> PlanNode:
    """The verbatim plan: one plan operator per query AST operator."""
    if isinstance(query, RelVar):
        return Scan(query.name, query.rel_arity)
    if isinstance(query, ConstRel):
        return ConstScan(query.instance)
    if isinstance(query, Project):
        return ProjectNode(plan_from_query(query.child), tuple(query.columns))
    if isinstance(query, Select):
        return SelectNode(plan_from_query(query.child), query.predicate)
    if isinstance(query, Product):
        return ProductNode(
            plan_from_query(query.left), plan_from_query(query.right)
        )
    if isinstance(query, Union):
        return UnionNode(
            plan_from_query(query.left), plan_from_query(query.right)
        )
    if isinstance(query, Difference):
        return DifferenceNode(
            plan_from_query(query.left), plan_from_query(query.right)
        )
    if isinstance(query, Intersection):
        return IntersectionNode(
            plan_from_query(query.left), plan_from_query(query.right)
        )
    raise QueryError(f"unknown query node {query!r}")


# ----------------------------------------------------------------------
# Statistics and estimates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnStats:
    """Per-column summary: how often the entry is a constant, how varied."""

    constant_fraction: float
    distinct_constants: int


@dataclass(frozen=True)
class TableStats:
    """Lightweight statistics of one input c-table."""

    rows: int
    columns: Tuple[ColumnStats, ...]
    condition_size: float

    @classmethod
    def from_ctable(cls, table: CTable) -> "TableStats":
        total = len(table.rows)
        if total == 0:
            return cls(0, tuple(ColumnStats(1.0, 0) for _ in range(table.arity)), 0.0)
        constants: List[set] = [set() for _ in range(table.arity)]
        constant_counts = [0] * table.arity
        condition_nodes = 0
        for row in table.rows:
            condition_nodes += _formula_size(row.condition)
            for index, term in enumerate(row.values):
                if isinstance(term, Const):
                    constant_counts[index] += 1
                    constants[index].add(term.value)
        columns = tuple(
            ColumnStats(constant_counts[i] / total, len(constants[i]))
            for i in range(table.arity)
        )
        return cls(total, columns, condition_nodes / total)

    @classmethod
    def from_instance(cls, instance: Instance) -> "TableStats":
        rows = list(instance.rows)
        distinct = [
            len({row[i] for row in rows}) for i in range(instance.arity)
        ]
        columns = tuple(
            ColumnStats(1.0, distinct[i]) for i in range(instance.arity)
        )
        return cls(len(rows), columns, 1.0)


def collect_stats(tables: Mapping[str, CTable]) -> Dict[str, TableStats]:
    """Statistics of every bound input table, keyed by name."""
    return {
        name: TableStats.from_ctable(table) for name, table in tables.items()
    }


def _formula_size(formula: Formula) -> int:
    return sum(1 for _ in walk(formula))


class StatsAccumulator:
    """Mutable per-table counters behind :class:`TableStats`.

    ``TableStats.from_ctable`` walks every row (and every row's
    condition formula) from scratch; a session re-registering a large
    table that changed by a handful of rows pays that full walk again.
    The accumulator keeps the raw integer counters — row count,
    per-column constant refcounts, total condition nodes — so a
    re-registration can be absorbed as a *row delta*: only the added and
    removed rows are walked.  :meth:`stats` performs the same final
    divisions as ``from_ctable``, so the resulting :class:`TableStats`
    is bit-identical (the statistics fingerprint in plan/result cache
    keys depends on it).
    """

    __slots__ = ("arity", "rows", "constant_counts", "constant_refs", "condition_nodes")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.rows = 0
        self.constant_counts = [0] * arity
        #: Per column: constant value -> number of rows holding it.
        self.constant_refs: List[Dict[object, int]] = [
            {} for _ in range(arity)
        ]
        self.condition_nodes = 0

    @classmethod
    def from_ctable(cls, table: CTable) -> "StatsAccumulator":
        accumulator = cls(table.arity)
        accumulator.add_rows(table.rows)
        return accumulator

    def add_rows(self, rows: Iterable[CRow]) -> None:
        for row in rows:
            self.rows += 1
            self.condition_nodes += _formula_size(row.condition)
            for index, term in enumerate(row.values):
                if isinstance(term, Const):
                    self.constant_counts[index] += 1
                    refs = self.constant_refs[index]
                    refs[term.value] = refs.get(term.value, 0) + 1

    def remove_rows(self, rows: Iterable[CRow]) -> None:
        for row in rows:
            self.rows -= 1
            self.condition_nodes -= _formula_size(row.condition)
            for index, term in enumerate(row.values):
                if isinstance(term, Const):
                    self.constant_counts[index] -= 1
                    refs = self.constant_refs[index]
                    remaining = refs[term.value] - 1
                    if remaining:
                        refs[term.value] = remaining
                    else:
                        del refs[term.value]

    def apply_delta(
        self, old_rows: Iterable[CRow], new_rows: Iterable[CRow]
    ) -> None:
        """Shift the counters from the *old_rows* multiset to *new_rows*."""
        from collections import Counter

        before = Counter(old_rows)
        after = Counter(new_rows)
        self.add_rows((after - before).elements())
        self.remove_rows((before - after).elements())

    def stats(self) -> TableStats:
        """The equivalent ``TableStats.from_ctable`` result."""
        total = self.rows
        if total == 0:
            return TableStats(
                0, tuple(ColumnStats(1.0, 0) for _ in range(self.arity)), 0.0
            )
        columns = tuple(
            ColumnStats(
                self.constant_counts[i] / total, len(self.constant_refs[i])
            )
            for i in range(self.arity)
        )
        return TableStats(total, columns, self.condition_nodes / total)


@dataclass(frozen=True)
class Estimate:
    """Planner estimate for one node: output rows, condition size, columns."""

    rows: float
    condition_size: float
    columns: Tuple[ColumnStats, ...]

    def cost(self) -> float:
        """The node's intrinsic work estimate (rows touched)."""
        return self.rows


_DEFAULT_DISTINCT = 10


def _predicate_fold_probability(
    predicate: Formula, columns: Sequence[ColumnStats]
) -> float:
    """P[an all-constant row satisfies the predicate] — crude but ordinal."""
    if isinstance(predicate, Top):
        return 1.0
    if isinstance(predicate, Bottom):
        return 0.0
    if isinstance(predicate, Eq):
        distincts = []
        for term in (predicate.left, predicate.right):
            if is_column_var(term):
                index = column_index(term)
                if index < len(columns):
                    distincts.append(max(1, columns[index].distinct_constants))
                else:
                    distincts.append(_DEFAULT_DISTINCT)
        if not distincts:
            return 1.0
        return 1.0 / max(distincts)
    if isinstance(predicate, Not):
        return 1.0 - _predicate_fold_probability(predicate.child, columns)
    if isinstance(predicate, And):
        result = 1.0
        for child in predicate.children:
            result *= _predicate_fold_probability(child, columns)
        return result
    if isinstance(predicate, Or):
        result = 1.0
        for child in predicate.children:
            result *= 1.0 - _predicate_fold_probability(child, columns)
        return 1.0 - result
    return 0.5


def _predicate_constant_cover(
    predicate: Formula, columns: Sequence[ColumnStats]
) -> float:
    """P[every column the predicate touches holds a constant]."""
    cover = 1.0
    seen = set()
    for node in walk(predicate):
        if isinstance(node, Eq):
            for term in (node.left, node.right):
                if is_column_var(term):
                    index = column_index(term)
                    if index not in seen and index < len(columns):
                        seen.add(index)
                        cover *= columns[index].constant_fraction
    return cover


def predicate_selectivity(
    predicate: Formula, columns: Sequence[ColumnStats]
) -> float:
    """Estimated fraction of rows a lifted selection keeps.

    All-constant rows either fold to ``true`` or disappear; rows with a
    variable in a referenced column always survive (their condition just
    grows).  The estimate blends the two regimes.
    """
    cover = _predicate_constant_cover(predicate, columns)
    fold = _predicate_fold_probability(predicate, columns)
    return min(1.0, cover * fold + (1.0 - cover))


def _union_columns(
    left: Estimate, right: Estimate
) -> Tuple[ColumnStats, ...]:
    total = left.rows + right.rows
    if total <= 0:
        return left.columns
    merged = []
    for l, r in zip(left.columns, right.columns):
        fraction = (
            l.constant_fraction * left.rows + r.constant_fraction * right.rows
        ) / total
        merged.append(
            ColumnStats(fraction, max(l.distinct_constants, r.distinct_constants))
        )
    return tuple(merged)


def estimate(
    plan: PlanNode,
    stats: Mapping[str, TableStats],
    _memo: Optional[Dict[PlanNode, Estimate]] = None,
) -> Estimate:
    """Bottom-up cardinality / condition-size estimate of *plan*."""
    if _memo is None:
        _memo = {}
    cached = _memo.get(plan)
    if cached is not None:
        return cached
    result = _estimate(plan, stats, _memo)
    _memo[plan] = result
    return result


def _estimate(
    plan: PlanNode,
    stats: Mapping[str, TableStats],
    memo: Dict[PlanNode, Estimate],
) -> Estimate:
    if isinstance(plan, Scan):
        table = stats.get(plan.name)
        if table is None:
            columns = tuple(
                ColumnStats(0.5, _DEFAULT_DISTINCT)
                for _ in range(plan.rel_arity)
            )
            return Estimate(float(_DEFAULT_DISTINCT), 1.0, columns)
        return Estimate(float(table.rows), table.condition_size, table.columns)
    if isinstance(plan, ConstScan):
        table = TableStats.from_instance(plan.instance)
        return Estimate(float(table.rows), table.condition_size, table.columns)
    if isinstance(plan, EmptyNode):
        columns = tuple(ColumnStats(1.0, 0) for _ in range(plan.arity))
        return Estimate(0.0, 0.0, columns)
    if isinstance(plan, ProjectNode):
        child = estimate(plan.child, stats, memo)
        columns = tuple(
            child.columns[index]
            if index < len(child.columns)
            else ColumnStats(0.5, _DEFAULT_DISTINCT)
            for index in plan.columns
        )
        return Estimate(child.rows, child.condition_size, columns)
    if isinstance(plan, SelectNode):
        child = estimate(plan.child, stats, memo)
        selectivity = predicate_selectivity(plan.predicate, child.columns)
        grown = child.condition_size + _formula_size(plan.predicate)
        return Estimate(child.rows * selectivity, grown, child.columns)
    if isinstance(plan, ProductNode):
        left = estimate(plan.left, stats, memo)
        right = estimate(plan.right, stats, memo)
        return Estimate(
            left.rows * right.rows,
            left.condition_size + right.condition_size,
            left.columns + right.columns,
        )
    if isinstance(plan, JoinNode):
        left = estimate(plan.left, stats, memo)
        right = estimate(plan.right, stats, memo)
        columns = left.columns + right.columns
        selectivity = predicate_selectivity(plan.predicate, columns)
        grown = (
            left.condition_size
            + right.condition_size
            + _formula_size(plan.predicate)
        )
        return Estimate(left.rows * right.rows * selectivity, grown, columns)
    if isinstance(plan, UnionNode):
        left = estimate(plan.left, stats, memo)
        right = estimate(plan.right, stats, memo)
        size = (
            (left.condition_size * left.rows + right.condition_size * right.rows)
            / (left.rows + right.rows)
            if left.rows + right.rows
            else 0.0
        )
        return Estimate(
            left.rows + right.rows, size, _union_columns(left, right)
        )
    if isinstance(plan, DifferenceNode):
        left = estimate(plan.left, stats, memo)
        right = estimate(plan.right, stats, memo)
        # Each kept row conjoins one negated membership per opposing row.
        per_row = right.condition_size + 2.0 * plan.arity
        grown = left.condition_size + right.rows * per_row
        return Estimate(left.rows, grown, left.columns)
    if isinstance(plan, IntersectionNode):
        left = estimate(plan.left, stats, memo)
        right = estimate(plan.right, stats, memo)
        per_row = right.condition_size + 2.0 * plan.arity
        grown = left.condition_size + right.rows * per_row
        return Estimate(min(left.rows, right.rows), grown, left.columns)
    raise QueryError(f"unknown plan node {plan!r}")


def plan_cost(
    plan: PlanNode,
    stats: Mapping[str, TableStats],
    _memo: Optional[Dict[PlanNode, Estimate]] = None,
) -> float:
    """Total estimated work of *plan*: rows produced across all nodes.

    The dominant cost of every lifted operator is the number of row
    (pairs) it materializes, so summing per-node output cardinalities
    ranks plans the way wall-clock does.
    """
    if _memo is None:
        _memo = {}
    return sum(estimate(node, stats, _memo).cost() for node in plan.walk())


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def explain(
    plan: PlanNode, stats: Optional[Mapping[str, TableStats]] = None
) -> str:
    """Render *plan* as an indented tree, with estimates when *stats* given."""
    memo: Dict[PlanNode, Estimate] = {}
    lines: List[str] = []

    def annotate(node: PlanNode) -> str:
        if stats is None:
            return node.label()
        found = estimate(node, stats, memo)
        return (
            f"{node.label()}  rows≈{found.rows:.1f} "
            f"cond≈{found.condition_size:.1f}"
        )

    def render(node: PlanNode, prefix: str, child_prefix: str) -> None:
        lines.append(prefix + annotate(node))
        children = node.children()
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            render(child, child_prefix + connector, child_prefix + extension)

    render(plan, "", "")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def resolve_scan(node: Scan, tables: Mapping[str, CTable]) -> CTable:
    """The bound table of a :class:`Scan`, arity-checked.

    Shared with the physical runtime (:mod:`repro.physical`), which
    resolves leaves the same way before columnar-izing them.
    """
    table = tables.get(node.name)
    if table is None:
        hint = nearest_name(node.name, sorted(tables))
        raise QueryError(
            f"no c-table bound for name {node.name!r}; bound names are "
            f"{sorted(tables)}{hint}"
        )
    if table.arity != node.rel_arity:
        raise QueryError(
            f"c-table {node.name!r} has arity {table.arity}, "
            f"query expects {node.rel_arity}"
        )
    return table


def const_table(instance: Instance) -> CTable:
    """A constant relation as a variable-free c-table."""
    rows = [make_row(row) for row in instance]
    return CTable(rows, arity=instance.arity)


def empty_table(node: EmptyNode, tables: Mapping[str, CTable]) -> CTable:
    """The empty c-table carrying the pruned region's domains and globals.

    Mirrors what folding the region's operators through
    ``lifted._combine`` would have produced for the representation-level
    metadata, without evaluating any rows.
    """
    merged_domains: Optional[Dict[str, tuple]] = None
    saw_finite = False
    saw_infinite = False
    global_condition = TOP
    for source in node.sources:
        if isinstance(source, Scan):
            table = resolve_scan(source, tables)
        elif isinstance(source, ConstScan):
            table = const_table(source.instance)
        else:
            raise QueryError(f"unexpected pruned source {source!r}")
        if table.domains is None and table.variables():
            saw_infinite = True
        elif table.domains is not None:
            saw_finite = True
            if merged_domains is None:
                merged_domains = {}
            for name, values in table.domains.items():
                existing = merged_domains.get(name)
                if existing is not None and tuple(existing) != tuple(values):
                    raise TableError(
                        f"variable {name!r} has conflicting domains in the "
                        "operands"
                    )
                merged_domains[name] = tuple(values)
        global_condition = conj(global_condition, table.global_condition)
    if saw_finite and saw_infinite:
        raise TableError(
            "cannot combine an infinite-domain c-table with a finite-domain one"
        )
    return CTable(
        (),
        arity=node.arity,
        domains=merged_domains,
        global_condition=global_condition,
    )


def execute_plan(
    plan: PlanNode,
    tables: Mapping[str, CTable],
    simplify_conditions: bool = False,
) -> CTable:
    """Evaluate *plan* bottom-up through the lifted operators."""

    def recurse(node: PlanNode) -> CTable:
        if isinstance(node, Scan):
            return resolve_scan(node, tables)
        if isinstance(node, ConstScan):
            return const_table(node.instance)
        if isinstance(node, EmptyNode):
            return empty_table(node, tables)
        if isinstance(node, ProjectNode):
            result = project_bar(recurse(node.child), node.columns)
        elif isinstance(node, SelectNode):
            result = select_bar(recurse(node.child), node.predicate)
        elif isinstance(node, JoinNode):
            result = join_bar(
                recurse(node.left), recurse(node.right), node.predicate
            )
        elif isinstance(node, ProductNode):
            result = product_bar(recurse(node.left), recurse(node.right))
        elif isinstance(node, UnionNode):
            result = union_bar(recurse(node.left), recurse(node.right))
        elif isinstance(node, DifferenceNode):
            result = difference_bar(recurse(node.left), recurse(node.right))
        elif isinstance(node, IntersectionNode):
            result = intersection_bar(recurse(node.left), recurse(node.right))
        else:
            raise QueryError(f"unknown plan node {node!r}")
        if simplify_conditions:
            result = result.simplified()
        return result

    return recurse(plan)
