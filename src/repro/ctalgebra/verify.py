"""Static verification of queries, logical plans, and physical plans.

The optimizer's soundness argument (Theorem 4: classically equivalent
plans share one ``Mod``) only covers rewrites that *are* classically
equivalent — a buggy rule that drops a residual conjunct, pushes a
predicate to the wrong product side, or truncates a projection produces
a well-formed tree that silently answers a different query.  Before this
module such bugs were caught probabilistically, by the differential
fuzzer, after the fact.  :class:`PlanVerifier` catches them at rewrite
time, structurally:

- **arity** — every operator's input/output arities are consistent, and
  every rewrite preserves the arity of the node it replaced;
- **scope** — plan predicates reference only column variables below the
  operand arity; a :class:`~repro.logic.atoms.BoolVar` or free domain
  variable inside a plan predicate is a scoping leak, and every variable
  of a c-table's conditions is covered by its domain metadata;
- **interning** — every condition/predicate sub-formula is the canonical
  node of the hash-consing table (the "structural equality ⇒ identity"
  invariant the ``is``-keyed memos rely on);
- **conjunct-conservation** — a rewrite neither drops nor invents atoms:
  the normalized atom keys of the output predicates are exactly those of
  the input, modulo the two legal folds (a contradiction collapsing to
  ``false``, and column-equalities folding to ``true`` through a
  duplicated projection column);
- **leaf-conservation** — a rewrite touches operators, never leaves: the
  set of scanned relations/constants (including those remembered by an
  :class:`~repro.ctalgebra.plan.EmptyNode`) is preserved;
- **unsat-prune** — a rewrite may introduce an ``EmptyNode`` only when
  its input already contained one or its predicate is genuinely
  unsatisfiable (re-decided independently);
- **estimates** — cardinality/condition estimates are finite,
  non-negative, and shaped like the node's schema;
- **lowering** — physical operators reference columns inside their
  input arities, and hash-join build sides agree with the estimates.

The checks above are purely *syntactic* and share one documented blind
spot: a shape-preserving predicate applied to the wrong join side keeps
every conjunct key, every leaf, and every arity intact.  In
``mode="semantic"`` the verifier therefore also performs **translation
validation**: each rewrite's before/after sub-plans are executed on
small *symbolic abstract tables* (fresh variable tuples, one boolean
row-presence flag per row) through the interpreted lifted operators,
and the two result tables must have per-tuple *equivalent conditions*
— decided by the cross-validated SAT+BDD engines of
:mod:`repro.logic.equivalence`, never by world enumeration.  A predicate
on the wrong side lands on the wrong tuple's fresh variables, so the
certificate fails by construction.

Verification is wired through :class:`repro.engine.config.ExecutionConfig`
(``verify_plans`` / env ``REPRO_VERIFY_PLANS``, with
``verify_mode`` / env ``REPRO_VERIFY_MODE`` selecting
``"syntactic"`` or ``"semantic"``): the optimizer then re-verifies after
**every individual rewrite rule** and names the offending rule in the
raised :class:`~repro.errors.PlanVerificationError`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Set, Tuple

from repro.errors import PlanVerificationError, QueryError, nearest_name
from repro.logic.atoms import Const, Eq, Term, Var, boolvar
from repro.logic.equality_sat import is_satisfiable_skeleton
from repro.logic.syntax import Bottom, Formula, is_atom, is_interned, walk
from repro.algebra.ast import Query, RelVar
from repro.algebra.predicates import column_index, is_column_var
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
    execute_plan,
)
from repro.tables.ctable import CTable, make_row

#: Valid :class:`PlanVerifier` modes.
VERIFY_MODES = ("syntactic", "semantic")

#: Rows per relation in the semantic-certificate abstract tables.  Two
#: rows exercise duplication/cross effects (joins see every pairing)
#: while keeping the per-rewrite proof obligations tiny.
_ABSTRACT_ROWS = 2

if TYPE_CHECKING:  # pragma: no cover - layering: imported lazily at runtime
    from repro.physical.operators import PhysicalOp

#: Logical operators that carry a column-space predicate.
_PREDICATED = (SelectNode, JoinNode)

#: Binary operators whose operands must agree on arity.
_SAME_ARITY = (UnionNode, DifferenceNode, IntersectionNode)


def _term_key(term: Term) -> str:
    """Normalize a predicate term for conjunct-conservation comparison.

    Column indexes are deliberately erased: pushdown and reordering remap
    them legitimately, while the *shape* of an atom (column-to-column,
    column-to-constant, which constant) must survive every rewrite.
    """
    if is_column_var(term):
        return "col"
    if isinstance(term, Const):
        return f"const:{term.value!r}"
    return f"var:{term.name}"


def _atom_key(atom: Eq) -> Tuple[str, str]:
    first, second = _term_key(atom.left), _term_key(atom.right)
    return (first, second) if first <= second else (second, first)


def _atom_keys(plan: PlanNode) -> Set[Tuple[str, str]]:
    """Normalized keys of every equality atom in the plan's predicates."""
    keys: Set[Tuple[str, str]] = set()
    for node in plan.walk():
        if isinstance(node, _PREDICATED):
            for atom in node.predicate.atoms():
                if isinstance(atom, Eq):
                    keys.add(_atom_key(atom))
    return keys


def _leaf_keys(plan: PlanNode) -> Set[PlanNode]:
    """The set of leaf nodes, looking through ``EmptyNode`` memories."""
    leaves: Set[PlanNode] = set()
    for node in plan.walk():
        if isinstance(node, (Scan, ConstScan)):
            leaves.add(node)
        elif isinstance(node, EmptyNode):
            leaves.update(node.sources)
    return leaves


def _has_empty(plan: PlanNode) -> bool:
    return any(isinstance(node, EmptyNode) for node in plan.walk())


def _has_bottom_predicate(plan: PlanNode) -> bool:
    return any(
        isinstance(node, _PREDICATED) and isinstance(node.predicate, Bottom)
        for node in plan.walk()
    )


def _has_duplicated_projection(plan: PlanNode) -> bool:
    return any(
        isinstance(node, ProjectNode)
        and len(set(node.columns)) != len(node.columns)
        for node in plan.walk()
    )


class PlanVerifier:
    """Checks the structural invariants of plans and rewrites.

    One verifier is created per planning pipeline (its estimate memo is
    plan-identity keyed, so it must not outlive the statistics it was
    given).  All ``verify_*`` methods raise
    :class:`~repro.errors.PlanVerificationError` on the first violation
    and return ``None`` on success; :meth:`verify_query` raises plain
    :class:`~repro.errors.QueryError` since a malformed *query* is the
    caller's bug, not the planner's.
    """

    def __init__(
        self,
        stats: Optional[Mapping[str, TableStats]] = None,
        mode: str = "syntactic",
    ) -> None:
        if mode not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {mode!r}; expected one of {VERIFY_MODES}"
            )
        self._stats = stats
        self._mode = mode
        self._memo: Dict[PlanNode, Estimate] = {}
        self._abstract: Dict[Tuple[str, int], CTable] = {}

    @property
    def mode(self) -> str:
        """The active verification mode (``"syntactic"`` or ``"semantic"``)."""
        return self._mode

    # ------------------------------------------------------------------
    # Queries (pre-translation)
    # ------------------------------------------------------------------

    def verify_query(self, query: Query, schema: Mapping[str, int]) -> None:
        """Check every relation reference against *schema* before planning.

        Unknown relations raise a :class:`~repro.errors.QueryError` that
        names the relation and its nearest registered match, instead of
        a deep ``KeyError`` inside translation.
        """
        for node in query.walk():
            if not isinstance(node, RelVar):
                continue
            declared = schema.get(node.name)
            if declared is None:
                hint = nearest_name(node.name, sorted(schema))
                raise QueryError(
                    f"query references unknown relation {node.name!r}; "
                    f"known relations are {sorted(schema)}{hint}"
                )
            if declared != node.rel_arity:
                raise QueryError(
                    f"query uses relation {node.name!r} with arity "
                    f"{node.rel_arity}, but it is declared with arity "
                    f"{declared}"
                )

    # ------------------------------------------------------------------
    # Logical plans
    # ------------------------------------------------------------------

    def verify_plan(
        self, plan: PlanNode, *, rule: Optional[str] = None
    ) -> None:
        """Check arity, predicate scoping, interning, and estimates."""
        for node in plan.walk():
            self._verify_node(node, rule)
        if self._stats is not None:
            self._verify_estimates(plan, rule)

    # ------------------------------------------------------------------
    # Maintained views (delta-plan shapes)
    # ------------------------------------------------------------------

    def verify_view(self, plan: PlanNode, view: object) -> None:
        """Check a maintained view's state tree against its plan.

        The incremental-maintenance layer (:mod:`repro.ivm.view`)
        shadows each plan position with an operator state; this check
        pins the shape invariants the delta rules rely on: the state
        tree is node-for-node isomorphic to the plan, every state's
        arity matches its plan node, and every state's maintained sort
        order is strictly increasing over exactly its row keys (the
        positional backbone of the rerun-order guarantee).
        """
        from repro.ivm.view import (  # local: ivm sits above ctalgebra
            MaterializedView,
            _JoinState,
            _ProjectState,
            _ScanState,
            _SelectState,
            _SetOpState,
            _State,
            _StaticState,
            _UnionState,
        )

        if not isinstance(view, MaterializedView):
            raise PlanVerificationError(
                "view", f"expected a MaterializedView, got {type(view).__name__}"
            )
        root = view.root
        if root is None:
            return  # Unsupported-plan fallback maintains no state tree.
        expected = {
            Scan: _ScanState,
            ConstScan: _StaticState,
            EmptyNode: _StaticState,
            SelectNode: _SelectState,
            ProjectNode: _ProjectState,
            JoinNode: _JoinState,
            ProductNode: _JoinState,
            UnionNode: _UnionState,
            DifferenceNode: _SetOpState,
            IntersectionNode: _SetOpState,
        }

        def check(node: PlanNode, state: "_State") -> None:
            wanted = expected.get(type(node))
            if wanted is None or not isinstance(state, wanted):
                raise PlanVerificationError(
                    "view",
                    f"plan node {node.label()} is shadowed by "
                    f"{type(state).__name__}, expected "
                    f"{wanted.__name__ if wanted else '?'}",
                    node=node,
                )
            if state.arity != node.arity:
                raise PlanVerificationError(
                    "view",
                    f"state arity {state.arity} != plan arity "
                    f"{node.arity} at {node.label()}",
                    node=node,
                )
            if isinstance(node, Scan) and state.name != node.name:  # type: ignore[attr-defined]
                raise PlanVerificationError(
                    "view",
                    f"scan state reads {state.name!r}, plan scans "  # type: ignore[attr-defined]
                    f"{node.name!r}",
                    node=node,
                )
            order = state.sorted_keys()
            if any(
                order[index] >= order[index + 1]
                for index in range(len(order) - 1)
            ):
                raise PlanVerificationError(
                    "view",
                    f"maintained order at {node.label()} is not strictly "
                    "increasing",
                    node=node,
                )
            if set(order) != set(state.rows):
                raise PlanVerificationError(
                    "view",
                    f"maintained order at {node.label()} disagrees with "
                    "the row keys",
                    node=node,
                )
            ordered = state.ordered_rows()
            if len(ordered) != len(order) or any(
                ordered[index] is not state.rows[key]
                for index, key in enumerate(order)
            ):
                raise PlanVerificationError(
                    "view",
                    f"maintained row list at {node.label()} disagrees "
                    "with the keyed rows",
                    node=node,
                )
            children = state.children()
            plan_children = node.children()
            if len(children) != len(plan_children):
                raise PlanVerificationError(
                    "view",
                    f"state at {node.label()} has {len(children)} children, "
                    f"plan has {len(plan_children)}",
                    node=node,
                )
            for child_node, child_state in zip(plan_children, children):
                check(child_node, child_state)

        check(plan, root)

    def _verify_node(self, node: PlanNode, rule: Optional[str]) -> None:
        if isinstance(node, Scan):
            if node.rel_arity < 0:
                raise PlanVerificationError(
                    "arity",
                    f"scan of {node.name!r} declares negative arity "
                    f"{node.rel_arity}",
                    rule=rule,
                    node=node,
                )
        elif isinstance(node, ProjectNode):
            child_arity = node.child.arity
            bad = [
                column
                for column in node.columns
                if column < 0 or column >= child_arity
            ]
            if bad:
                raise PlanVerificationError(
                    "arity",
                    f"projection references columns {bad} outside the "
                    f"child arity {child_arity}",
                    rule=rule,
                    node=node,
                )
        elif isinstance(node, _PREDICATED):
            self._verify_predicate(node.predicate, node.arity, rule, node)
        elif isinstance(node, _SAME_ARITY):
            if node.left.arity != node.right.arity:
                raise PlanVerificationError(
                    "arity",
                    f"{node.label()} operands have arities "
                    f"{node.left.arity} and {node.right.arity}",
                    rule=rule,
                    node=node,
                )
        elif isinstance(node, EmptyNode):
            if node.empty_arity < 0:
                raise PlanVerificationError(
                    "arity",
                    f"empty node declares negative arity {node.empty_arity}",
                    rule=rule,
                    node=node,
                )
            bad_sources = [
                source
                for source in node.sources
                if not isinstance(source, (Scan, ConstScan))
            ]
            if bad_sources:
                raise PlanVerificationError(
                    "leaf-conservation",
                    f"empty node remembers non-leaf sources {bad_sources}",
                    rule=rule,
                    node=node,
                )

    def _verify_predicate(
        self,
        predicate: Formula,
        arity: int,
        rule: Optional[str],
        node: object,
    ) -> None:
        for part in walk(predicate):
            if not is_interned(part):
                raise PlanVerificationError(
                    "interning",
                    f"predicate sub-formula {part!r} is not the canonical "
                    "interned node; build conditions through the smart "
                    "constructors",
                    rule=rule,
                    node=node,
                )
            if isinstance(part, Eq):
                for term in (part.left, part.right):
                    if isinstance(term, Var) and not is_column_var(term):
                        raise PlanVerificationError(
                            "scope",
                            f"predicate references non-column variable "
                            f"{term!r}; plan predicates scope over columns "
                            "only",
                            rule=rule,
                            node=node,
                        )
                    if is_column_var(term):
                        index = column_index(term)
                        if index < 0 or index >= arity:
                            raise PlanVerificationError(
                                "arity",
                                f"predicate references column {index} but "
                                f"the operand arity is {arity}",
                                rule=rule,
                                node=node,
                            )
            elif is_atom(part):
                raise PlanVerificationError(
                    "scope",
                    f"predicate contains non-equality atom {part!r} "
                    "(boolean condition variables scope to table rows, "
                    "not plans)",
                    rule=rule,
                    node=node,
                )

    def _verify_estimates(self, plan: PlanNode, rule: Optional[str]) -> None:
        stats = self._stats
        assert stats is not None
        for node in plan.walk():
            found = estimate(node, stats, self._memo)
            if not math.isfinite(found.rows) or found.rows < 0:
                raise PlanVerificationError(
                    "estimates",
                    f"estimated cardinality {found.rows!r} is not a finite "
                    "non-negative number",
                    rule=rule,
                    node=node,
                )
            if (
                not math.isfinite(found.condition_size)
                or found.condition_size < 0
            ):
                raise PlanVerificationError(
                    "estimates",
                    f"estimated condition size {found.condition_size!r} is "
                    "not a finite non-negative number",
                    rule=rule,
                    node=node,
                )
            if len(found.columns) != node.arity:
                raise PlanVerificationError(
                    "estimates",
                    f"estimate carries {len(found.columns)} column summaries "
                    f"for a node of arity {node.arity}",
                    rule=rule,
                    node=node,
                )

    # ------------------------------------------------------------------
    # Rewrites
    # ------------------------------------------------------------------

    def verify_rewrite(
        self, rule: str, before: PlanNode, after: PlanNode
    ) -> PlanNode:
        """Check one rewrite rule application; returns *after* on success.

        Beyond re-verifying the rewritten tree, the rewrite itself must
        preserve arity, the leaf set, and the predicate atoms (modulo
        provable folds) — the conservation laws every Theorem-4-sound
        rewrite obeys.
        """
        if after.arity != before.arity:
            raise PlanVerificationError(
                "arity",
                f"rewrite changed the arity from {before.arity} to "
                f"{after.arity}",
                rule=rule,
                node=after,
            )
        self.verify_plan(after, rule=rule)

        before_leaves = _leaf_keys(before)
        after_leaves = _leaf_keys(after)
        if before_leaves != after_leaves:
            dropped = before_leaves - after_leaves
            added = after_leaves - before_leaves
            raise PlanVerificationError(
                "leaf-conservation",
                f"rewrite changed the leaf set (dropped {sorted(map(repr, dropped))}, "
                f"added {sorted(map(repr, added))})",
                rule=rule,
                node=after,
            )

        collapsed = isinstance(after, EmptyNode) and not isinstance(
            before, EmptyNode
        )
        before_keys = _atom_keys(before)
        after_keys = _atom_keys(after)
        invented = after_keys - before_keys
        if invented:
            raise PlanVerificationError(
                "conjunct-conservation",
                f"rewrite invented predicate atoms {sorted(invented)}",
                rule=rule,
                node=after,
            )
        missing = before_keys - after_keys
        if missing and not collapsed and not _has_bottom_predicate(after):
            if _has_duplicated_projection(before):
                # A non-injective projection remap may legally fold
                # column-to-column equalities to ``true``.
                missing = {key for key in missing if key != ("col", "col")}
            if missing:
                raise PlanVerificationError(
                    "conjunct-conservation",
                    f"rewrite dropped predicate atoms {sorted(missing)} "
                    "without folding the region to empty",
                    rule=rule,
                    node=after,
                )

        if collapsed or (_has_empty(after) and not _has_empty(before)):
            self._verify_prune(rule, before, after)

        if self._mode == "semantic":
            self._verify_semantics(rule, before, after)
        return after

    # ------------------------------------------------------------------
    # Semantic translation validation
    # ------------------------------------------------------------------

    def _abstract_table(self, name: str, arity: int) -> CTable:
        """A small symbolic c-table standing in for relation *name*.

        Every cell is a fresh domain variable and every row carries a
        fresh boolean presence flag, so executing a plan over these
        tables computes the *most general* per-tuple conditions the plan
        can produce — any concrete table is a substitution instance.
        Cached per verifier: both occurrences of a self-joined relation
        (and the before/after sides of a rewrite) must see the same
        symbols.
        """
        key = (name, arity)
        cached = self._abstract.get(key)
        if cached is None:
            rows = [
                make_row(
                    tuple(
                        Var(f"{name}.r{index}c{column}")
                        for column in range(arity)
                    ),
                    boolvar(f"{name}.row{index}"),
                )
                for index in range(_ABSTRACT_ROWS)
            ]
            cached = CTable(rows, arity=arity)
            self._abstract[key] = cached
        return cached

    def _verify_semantics(
        self, rule: str, before: PlanNode, after: PlanNode
    ) -> None:
        """Certify one rewrite by symbolic execution on abstract tables.

        Both sub-plans are interpreted over the shared abstract tables
        and the result tables are compared tuple-by-tuple with the
        cross-validated SAT+BDD equivalence engines — translation
        validation of the individual rewrite, catching semantic bugs
        (e.g. a predicate pushed to the wrong join side) that preserve
        every syntactic conservation law.  No world enumeration is
        involved, so the certificate cost scales with plan size, not
        ``2^variables``.
        """
        # Lazy import: worlds.compare sits above ctalgebra in the
        # layering (it imports translate, which builds verifiers).
        from repro.worlds.compare import ctables_equivalent_symbolic

        tables = {}
        for leaf in _leaf_keys(before):
            if isinstance(leaf, Scan):
                tables[leaf.name] = self._abstract_table(
                    leaf.name, leaf.rel_arity
                )
        before_result = execute_plan(before, tables)
        after_result = execute_plan(after, tables)
        if not ctables_equivalent_symbolic(
            before_result, after_result, engine="both", strict=False
        ):
            raise PlanVerificationError(
                "semantics",
                "rewrite is not Mod-preserving: applied to symbolic "
                "abstract tables, the before/after plans produce tuples "
                "with inequivalent conditions",
                rule=rule,
                node=after,
            )

    def _verify_prune(
        self, rule: str, before: PlanNode, after: PlanNode
    ) -> None:
        """An introduced ``EmptyNode`` needs an independent justification."""
        if _has_empty(before):
            # Collapsing an operator over an already-empty region: the
            # empty operand is the justification.
            return
        if isinstance(before, _PREDICATED):
            predicate = before.predicate
            if isinstance(predicate, Bottom):
                return
            if not is_satisfiable_skeleton(predicate):
                return
            raise PlanVerificationError(
                "unsat-prune",
                f"rewrite pruned a region whose predicate {predicate!r} "
                "is satisfiable",
                rule=rule,
                node=after,
            )
        raise PlanVerificationError(
            "unsat-prune",
            "rewrite introduced an empty node below an operator with no "
            "unsatisfiable predicate and no empty operand",
            rule=rule,
            node=after,
        )

    # ------------------------------------------------------------------
    # Physical plans
    # ------------------------------------------------------------------

    def verify_physical(
        self, op: "PhysicalOp", *, rule: Optional[str] = None
    ) -> None:
        """Check lowering invariants of a physical operator tree."""
        # Lazy import: ctalgebra sits below physical in the layering; the
        # verifier is handed physical trees by the lowering hook only.
        from repro.physical.operators import HashJoinOp, FilterOp, ProjectOp

        for node in op.walk():
            rows = node.est_rows
            if rows is not None and (not math.isfinite(rows) or rows < 0):
                raise PlanVerificationError(
                    "estimates",
                    f"physical estimate {rows!r} is not a finite "
                    "non-negative number",
                    rule=rule,
                    node=node,
                )
            if isinstance(node, HashJoinOp):
                self._verify_hash_join(node, rule)
            if isinstance(node, FilterOp):
                self._verify_predicate(
                    node.predicate, node.arity, rule, node
                )
            if isinstance(node, ProjectOp):
                child_arity = node.child.arity
                bad = [
                    column
                    for column in node.columns
                    if column < 0 or column >= child_arity
                ]
                if bad:
                    raise PlanVerificationError(
                        "arity",
                        f"physical projection references columns {bad} "
                        f"outside the child arity {child_arity}",
                        rule=rule,
                        node=node,
                    )

    def _verify_hash_join(self, node: "PhysicalOp", rule: Optional[str]) -> None:
        if node.build_side not in ("left", "right"):
            raise PlanVerificationError(
                "lowering",
                f"hash join build side must be 'left' or 'right', got "
                f"{node.build_side!r}",
                rule=rule,
                node=node,
            )
        left_arity = node.left.arity
        right_arity = node.right.arity
        bad_left = [key for key in node.left_keys if key >= left_arity]
        bad_right = [key for key in node.right_keys if key >= right_arity]
        if bad_left or bad_right:
            raise PlanVerificationError(
                "arity",
                f"hash join keys out of range (left {bad_left} of arity "
                f"{left_arity}, right {bad_right} of arity {right_arity})",
                rule=rule,
                node=node,
            )
        left_rows = node.left.est_rows
        right_rows = node.right.est_rows
        if left_rows is not None and right_rows is not None:
            expected = "left" if left_rows < right_rows else "right"
            if node.build_side != expected:
                raise PlanVerificationError(
                    "estimates",
                    f"hash join builds on the {node.build_side} side but "
                    f"the estimates ({left_rows:.1f} vs {right_rows:.1f} "
                    f"rows) pick {expected!r} — stale or inconsistent "
                    "estimates",
                    rule=rule,
                    node=node,
                )
        self._verify_predicate(node.predicate, node.arity, rule, node)
        self._verify_predicate(node.residual, node.arity, rule, node)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def verify_ctable(self, name: str, table: CTable) -> None:
        """Check condition canonicity and domain coverage of one c-table.

        Run at registration time (under ``verify_plans``) so that every
        condition entering the engine satisfies the identity invariant
        the ``is``-keyed memos assume.
        """
        domains = table.domains
        covered = None if domains is None else set(domains)
        self._verify_condition(
            name, table.global_condition, covered, "global condition"
        )
        for position, row in enumerate(table.rows):
            self._verify_condition(
                name, row.condition, covered, f"row {position}"
            )

    def _verify_condition(
        self,
        name: str,
        condition: Formula,
        covered: Optional[Set[str]],
        where: str,
    ) -> None:
        for part in walk(condition):
            if not is_interned(part):
                raise PlanVerificationError(
                    "interning",
                    f"table {name!r} {where} holds non-canonical "
                    f"sub-formula {part!r}; build conditions through the "
                    "smart constructors (conj/disj/neg/eq/boolvar)",
                    node=condition,
                )
        if covered is not None:
            missing = sorted(condition.variables() - covered)
            if missing:
                raise PlanVerificationError(
                    "scope",
                    f"table {name!r} {where} mentions variables {missing} "
                    "absent from the table's domain metadata",
                    node=condition,
                )

