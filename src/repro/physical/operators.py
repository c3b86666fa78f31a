"""Vectorized physical operators over columnar batches.

Each operator pulls the batches of its children on demand and processes
their rows column-wise.  The runtime contract — checked by the
executor-equivalence tests — is *structural identity* with the
interpreted lifted operators of :mod:`repro.ctalgebra.lifted`: the same
rows, composed of the same interned condition objects, in the same
order.  That keeps the interpreted path usable as an oracle and lets the
engine flip executors without observable changes.

Where the speed comes from:

- :class:`FilterOp` partially evaluates the selection predicate **once
  per distinct constant signature** (the tuple of terms in the
  predicate's columns) and reuses the residual formula across all rows
  sharing the signature, instead of re-walking the predicate and
  rebuilding a substitution per row the way ``select_bar`` does;
- :class:`HashJoinOp` generalizes the fused ``join_bar`` to any equijoin
  keys the planner found, with the *build side chosen by the
  cardinality estimates* and the same per-signature predicate memo plus
  a condition-composition memo (pairs of interned formulas repeat
  heavily in generated and real workloads);
- :class:`ProjectOp` deduplicates projected rows through one hash pass,
  disjoining the conditions of now-identical rows (the paper's ``π̄``);
- :class:`DifferenceOp`/:class:`IntersectOp` reuse the constant-tuple
  hash-bucket scheme of the lifted operators and memoize the whole
  membership condition per distinct left value-tuple.

Each operator does its work in one ``compute`` method over
already-materialized input batches; ``execute`` only adds the
pull-based recursion over children (and the optional per-operator
trace record).  Helpers remain only where they hide an algorithm: the
pair-condition composer of joins and products, the membership index of
difference and intersection, and the output sealing of ``_finish`` and
``_pairs_batch``.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.instance import Instance
    from repro.ctalgebra.plan import PlanNode
    from repro.obs.trace import TraceCollector

from repro.errors import ArityError, QueryError, nearest_name
from repro.logic.atoms import Const, Term, eq
from repro.logic.syntax import BOTTOM, TOP, Formula, conj, disj, neg
from repro.logic.evaluation import substitute
from repro.tables.ctable import CTable
from repro.physical.batch import Batch, merge_metadata

#: (left row, right row, composed condition) emitted by join/product loops.
_Pair = Tuple[int, int, Formula]


class ExecContext:
    """Per-execution state: table bindings plus shared memo tables."""

    __slots__ = (
        "tables",
        "simplify_conditions",
        "collector",
        "_scan_batches",
        "_simplify_memo",
    )

    def __init__(
        self,
        tables: Mapping[str, CTable],
        simplify_conditions: bool = False,
        collector: Optional["TraceCollector"] = None,
    ) -> None:
        self.tables = tables
        self.simplify_conditions = simplify_conditions
        #: Per-operator actuals sink (EXPLAIN ANALYZE / tracing); None —
        #: the overwhelmingly common case — keeps execution untouched.
        self.collector = collector
        self._scan_batches: Dict[str, Batch] = {}
        self._simplify_memo: Dict[Formula, Formula] = {}

    def scan_batch(self, name: str, rel_arity: int) -> Batch:
        """The columnar batch of a bound table (built once per execution,
        so self-joins transpose the table a single time)."""
        batch = self._scan_batches.get(name)
        if batch is None:
            table = self.tables.get(name)
            if table is None:
                hint = nearest_name(name, sorted(self.tables))
                raise QueryError(
                    f"no c-table bound for name {name!r}; bound names are "
                    f"{sorted(self.tables)}{hint}"
                )
            batch = Batch.from_ctable(table)
            self._scan_batches[name] = batch
        if batch.arity != rel_arity:
            raise QueryError(
                f"c-table {name!r} has arity {batch.arity}, "
                f"query expects {rel_arity}"
            )
        return batch

    def simplified(self, condition: Formula) -> Formula:
        """Memoized condition simplification (interned nodes hash O(1))."""
        cached = self._simplify_memo.get(condition)
        if cached is None:
            from repro.logic.simplify import simplify

            cached = simplify(condition)
            self._simplify_memo[condition] = cached
        return cached


def _finish(
    ctx: ExecContext,
    columns: Sequence[Sequence[Term]],
    conditions: Sequence[Formula],
    arity: int,
    domains: Optional[Dict[str, tuple]],
    global_condition: Formula,
) -> Batch:
    """Seal an operator's output, mirroring ``execute_plan``'s optional
    per-operator ``simplified()`` pass (leaf scans are exempt there too)."""
    if ctx.simplify_conditions:
        keep: List[int] = []
        simplified: List[Formula] = []
        for index, condition in enumerate(conditions):
            folded = ctx.simplified(condition)
            if folded is not BOTTOM:
                keep.append(index)
                simplified.append(folded)
        if len(keep) != len(conditions):
            columns = [
                tuple(column[index] for index in keep) for column in columns
            ]
        conditions = simplified
        global_condition = ctx.simplified(global_condition)
    return Batch(
        tuple(tuple(column) for column in columns),
        tuple(conditions),
        arity=arity,
        domains=domains,
        global_condition=global_condition,
    )


class PhysicalOp:
    """Base class of physical operators (a small pull-based tree)."""

    __slots__ = ("est_rows",)

    def __init__(self) -> None:
        #: Planner cardinality estimate, stamped by ``lower()`` when
        #: statistics are available; rendered by ``explain_physical``.
        self.est_rows: Optional[float] = None

    @property
    def arity(self) -> int:
        raise NotImplementedError

    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def execute(self, ctx: ExecContext) -> Batch:
        """Pull the children, then process them."""
        inputs = tuple(child.execute(ctx) for child in self.children())
        collector = ctx.collector
        if collector is None:
            return self.compute(ctx, inputs)
        started = perf_counter()
        output = self.compute(ctx, inputs)
        collector.record(self, inputs, output, perf_counter() - started)
        return output

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        """Process already-materialized input batches."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children():
            yield from child.walk()


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------

class ScanOp(PhysicalOp):
    """Columnar scan of a bound input c-table."""

    __slots__ = ("name", "rel_arity")

    def __init__(self, name: str, rel_arity: int) -> None:
        super().__init__()
        self.name = name
        self.rel_arity = rel_arity

    @property
    def arity(self) -> int:
        return self.rel_arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        return ctx.scan_batch(self.name, self.rel_arity)

    def label(self) -> str:
        return f"Scan({self.name})"


class ConstScanOp(PhysicalOp):
    """A constant relation embedded as a variable-free batch."""

    __slots__ = ("instance",)

    def __init__(self, instance: "Instance") -> None:
        super().__init__()
        self.instance = instance

    @property
    def arity(self) -> int:
        return self.instance.arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        from repro.ctalgebra.plan import const_table

        return Batch.from_ctable(const_table(self.instance))

    def label(self) -> str:
        return f"ConstScan({list(self.instance.rows)!r})"


class EmptyOp(PhysicalOp):
    """A pruned region: no rows, but the sources' domains and globals."""

    __slots__ = ("empty_arity", "sources")

    def __init__(
        self, empty_arity: int, sources: "Tuple[PlanNode, ...]"
    ) -> None:
        super().__init__()
        self.empty_arity = empty_arity
        self.sources = sources

    @property
    def arity(self) -> int:
        return self.empty_arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        from repro.ctalgebra.plan import EmptyNode, empty_table

        node = EmptyNode(self.empty_arity, self.sources)
        return Batch.from_ctable(empty_table(node, ctx.tables))

    def label(self) -> str:
        return f"Empty[{self.empty_arity}]"


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------

class FilterOp(PhysicalOp):
    """Vectorized ``σ̄``: one predicate instantiation per constant signature.

    The predicate's column variables and their ``@i`` names are resolved
    at lowering time; execution takes one pass over the batch, looking
    each row's *signature* (its terms in the predicate columns) up in a
    memo of residual formulas.  A residual of ``true`` keeps the row's
    original interned condition object untouched — no conjunction is
    allocated at all (the ``select_bar`` fast exit, vectorized); a
    residual of ``false`` drops the row before it is ever materialized.

    ``memoize=False`` (chosen by ``lower()`` when the estimates say
    nearly every row has a distinct signature) skips the memo and
    instantiates per row — still with the hoisted column resolution.
    """

    __slots__ = ("child", "predicate", "memoize", "_pred_columns", "_names")

    def __init__(
        self, child: PhysicalOp, predicate: Formula, memoize: bool = True
    ) -> None:
        super().__init__()
        from repro.algebra.predicates import col, predicate_columns

        self.child = child
        self.predicate = predicate
        self.memoize = memoize
        self._pred_columns = tuple(sorted(predicate_columns(predicate)))
        self._names = tuple(col(index).name for index in self._pred_columns)

    @property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        (child,) = inputs
        signature_columns = [child.columns[c] for c in self._pred_columns]
        conditions = child.conditions
        predicate = self.predicate
        names = self._names
        memoize = self.memoize
        memo: Dict[Tuple[Term, ...], Formula] = {}
        keep: List[int] = []
        kept_conditions: List[Formula] = []
        # Whether every row survived with its original condition object.
        unchanged = True
        for row in range(len(conditions)):
            signature = tuple(column[row] for column in signature_columns)
            residual = memo.get(signature) if memoize else None
            if residual is None:
                residual = substitute(predicate, dict(zip(names, signature)))
                if memoize:
                    memo[signature] = residual
            if residual is TOP:
                keep.append(row)
                kept_conditions.append(conditions[row])
                continue
            condition = conj(conditions[row], residual)
            if condition is BOTTOM:
                unchanged = False
                continue
            keep.append(row)
            kept_conditions.append(condition)
            if condition is not conditions[row]:
                unchanged = False
        # The select_bar fast exit: a fully-unchanged batch is returned
        # as the child object itself.
        if unchanged and len(keep) == len(conditions):
            if not ctx.simplify_conditions:
                return child
            columns: Sequence[Sequence[Term]] = child.columns
        elif len(keep) == len(conditions):
            columns = child.columns
        else:
            columns = [
                tuple(column[row] for row in keep) for column in child.columns
            ]
        return _finish(
            ctx, columns, kept_conditions, self.arity,
            child.domains, child.global_condition,
        )

    def label(self) -> str:
        suffix = "" if self.memoize else " per-row"
        return f"Filter[{self.predicate!r}]{suffix}"


# ----------------------------------------------------------------------
# Project
# ----------------------------------------------------------------------

class ProjectOp(PhysicalOp):
    """Vectorized ``π̄`` with condition-dedup.

    One hash pass groups rows whose projected value-tuples became
    identical and disjoins their conditions in row order — exactly
    ``project_bar``'s merge, without building intermediate rows.
    """

    __slots__ = ("child", "columns")

    def __init__(self, child: PhysicalOp, columns: Tuple[int, ...]) -> None:
        super().__init__()
        self.child = child
        self.columns = tuple(columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        (child,) = inputs
        projected = [child.columns[index] for index in self.columns]
        grouped: Dict[Tuple[Term, ...], List[Formula]] = {}
        order: List[Tuple[Term, ...]] = []
        conditions = child.conditions
        for row in range(len(conditions)):
            key = tuple(column[row] for column in projected)
            bucket = grouped.get(key)
            if bucket is None:
                grouped[key] = [conditions[row]]
                order.append(key)
            else:
                bucket.append(conditions[row])
        merged = [disj(*grouped[key]) for key in order]
        columns = (
            list(zip(*order))
            if order
            else [() for _ in range(self.arity)]
        )
        return _finish(
            ctx, columns, merged, self.arity,
            child.domains, child.global_condition,
        )

    def label(self) -> str:
        return f"Project[{','.join(str(c) for c in self.columns)}]"


# ----------------------------------------------------------------------
# Joins and products
# ----------------------------------------------------------------------

def _constant_key(
    columns: Sequence[Sequence[Term]], key_columns: Sequence[int], row: int
) -> Optional[tuple]:
    """The row's constant values at *key_columns*, or None if any is a Var."""
    key = []
    for index in key_columns:
        term = columns[index][row]
        if not isinstance(term, Const):
            return None
        key.append(term.value)
    return tuple(key)


class _PairComposer:
    """Shared condition composition for pairing operators.

    Instantiation is memoized per predicate-column *signature* and the
    three-way conjunction per (left condition, right condition, residual)
    triple — all interned objects, so the keys hash by identity.

    Hash-*matched* pairs (both key columns constant and equal) get a
    cheaper route: their equijoin conjuncts are known to fold to
    ``true``, so only the residual predicate is instantiated, over a
    much smaller signature.  ``conj`` flattening makes the composed
    condition structurally identical to the full instantiation.
    """

    __slots__ = (
        "predicate", "left", "right",
        "_full_spec", "_res_spec", "_full_inst", "_res_inst", "_conj",
    )

    def __init__(
        self,
        predicate: Formula,
        residual: Formula,
        left: Batch,
        right: Batch,
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self._full_spec = self._spec(predicate, left.arity)
        self._res_spec = self._spec(residual, left.arity)
        self._full_inst: Dict[tuple, Formula] = {}
        self._res_inst: Dict[tuple, Formula] = {}
        self._conj: Dict[tuple, Formula] = {}

    @staticmethod
    def _spec(
        predicate: Formula, left_arity: int
    ) -> Tuple[Formula, Tuple[str, ...], Tuple[int, ...], Tuple[int, ...]]:
        """(predicate, ``@i`` names, left columns, right columns)."""
        from repro.algebra.predicates import col, predicate_columns

        mentioned = tuple(sorted(predicate_columns(predicate)))
        names = tuple(col(index).name for index in mentioned)
        left_pred = tuple(i for i in mentioned if i < left_arity)
        right_pred = tuple(
            i - left_arity for i in mentioned if i >= left_arity
        )
        return (predicate, names, left_pred, right_pred)

    def _instantiate(
        self,
        spec: Tuple[Formula, Tuple[str, ...], Tuple[int, ...], Tuple[int, ...]],
        memo: Dict[tuple, Formula],
        i: int,
        j: int,
    ) -> Formula:
        predicate, names, left_pred, right_pred = spec
        signature = tuple(
            self.left.columns[c][i] for c in left_pred
        ) + tuple(self.right.columns[c][j] for c in right_pred)
        instantiated = memo.get(signature)
        if instantiated is None:
            instantiated = substitute(predicate, dict(zip(names, signature)))
            memo[signature] = instantiated
        return instantiated

    def _compose(
        self, left_condition: Formula, right_condition: Formula,
        instantiated: Formula,
    ) -> Formula:
        key = (left_condition, right_condition, instantiated)
        composed = self._conj.get(key)
        if composed is None:
            composed = conj(left_condition, right_condition, instantiated)
            self._conj[key] = composed
        return composed

    def condition(self, i: int, j: int) -> Formula:
        """``conj(l.condition, r.condition, c(t₁t₂))``, full predicate."""
        return self._compose(
            self.left.conditions[i],
            self.right.conditions[j],
            self._instantiate(self._full_spec, self._full_inst, i, j),
        )

    def matched_condition(self, i: int, j: int) -> Formula:
        """The pair condition when the constant equijoin keys agree."""
        return self._compose(
            self.left.conditions[i],
            self.right.conditions[j],
            self._instantiate(self._res_spec, self._res_inst, i, j),
        )


def _pairs_batch(
    ctx: ExecContext, left: Batch, right: Batch, pairs: Sequence[_Pair]
) -> Batch:
    """The output batch of the surviving (i, j, condition) pairs."""
    left_index = [i for i, _, _ in pairs]
    right_index = [j for _, j, _ in pairs]
    columns: List[Sequence[Term]] = [
        tuple(column[i] for i in left_index) for column in left.columns
    ]
    columns.extend(
        tuple(column[j] for j in right_index) for column in right.columns
    )
    domains, global_condition = merge_metadata(left, right)
    return _finish(
        ctx, columns, [condition for _, _, condition in pairs],
        left.arity + right.arity, domains, global_condition,
    )


class HashJoinOp(PhysicalOp):
    """``σ̄_c(T₁ ×̄ T₂)`` fused, hash-partitioned on arbitrary equijoin keys.

    Rows whose key columns are all constants are bucketed; a pair whose
    constants disagree could only produce a ``false`` condition, so it is
    never built.  Rows with a variable in a key column stay symbolic and
    pair with every opposite row (Lemma 1 quantifies over one valuation).

    ``build_side`` is chosen by ``lower()`` from the cardinality
    estimates.  Building on the left streams the (usually larger) right
    side through the hash table; the emitted pairs are then re-ranked to
    the probe-left order so the output stays structurally identical to
    ``join_bar``'s for downstream condition-dedup.
    """

    __slots__ = (
        "left", "right", "predicate", "residual",
        "left_keys", "right_keys", "build_side",
    )

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        predicate: Formula,
        residual: Formula,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        build_side: str = "right",
    ) -> None:
        super().__init__()
        if build_side not in ("left", "right"):
            raise QueryError(f"unknown build side {build_side!r}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.residual = residual
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.build_side = build_side

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        composer = _PairComposer(self.predicate, self.residual, left, right)
        build_left = self.build_side == "left"
        build, build_keys = (
            (left, self.left_keys) if build_left else (right, self.right_keys)
        )
        # Hash-partition the build side once; keyed[row] is False exactly
        # for its symbolic rows.
        buckets: Dict[tuple, List[int]] = {}
        symbolic: List[int] = []
        keyed = [True] * len(build)
        for row in range(len(build)):
            key = _constant_key(build.columns, build_keys, row)
            if key is None:
                symbolic.append(row)
                keyed[row] = False
            else:
                buckets.setdefault(key, []).append(row)
        pairs: List[_Pair] = []
        if not build_left:
            # Probe left rows in order against the right build
            # (join_bar's loop).
            all_right = range(len(right))
            for i in range(len(left)):
                key = _constant_key(left.columns, self.left_keys, i)
                if key is None:
                    for j in all_right:
                        condition = composer.condition(i, j)
                        if condition is not BOTTOM:
                            pairs.append((i, j, condition))
                    continue
                matched = buckets.get(key)
                if matched is not None:
                    # Constant keys agree: the equijoin conjuncts fold to
                    # true, only the residual predicate needs instantiating.
                    for j in matched:
                        condition = composer.matched_condition(i, j)
                        if condition is not BOTTOM:
                            pairs.append((i, j, condition))
                for j in symbolic:
                    condition = composer.condition(i, j)
                    if condition is not BOTTOM:
                        pairs.append((i, j, condition))
        else:
            # Probe right rows against the left build, emitting *ranked*
            # pairs.  A pair survives iff either key is symbolic or both
            # constants agree — the same set as probing left.  The
            # probe-left order ranks pair (i, j) by (i, flag, j), where
            # flag puts a symbolic right row after a keyed left row's
            # bucket matches; sorting by that unique rank restores it.
            all_left = range(len(left))
            ranked: List[Tuple[int, int, int, Formula]] = []
            for j in range(len(right)):
                key = _constant_key(right.columns, self.right_keys, j)
                if key is None:
                    for i in all_left:
                        condition = composer.condition(i, j)
                        if condition is not BOTTOM:
                            ranked.append((i, 1 if keyed[i] else 0, j, condition))
                    continue
                matched = buckets.get(key)
                if matched is not None:
                    for i in matched:
                        condition = composer.matched_condition(i, j)
                        if condition is not BOTTOM:
                            ranked.append((i, 0, j, condition))
                for i in symbolic:
                    condition = composer.condition(i, j)
                    if condition is not BOTTOM:
                        ranked.append((i, 0, j, condition))
            ranked.sort(key=lambda pair: pair[:3])
            pairs = [(i, j, condition) for i, _, j, condition in ranked]
        return _pairs_batch(ctx, left, right, pairs)

    def label(self) -> str:
        return f"HashJoin[{self.predicate!r}] build={self.build_side}"


class ProductOp(PhysicalOp):
    """``×̄``: every pair, with a pairwise condition-conjunction memo."""

    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        self.left = left
        self.right = right

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        memo: Dict[Tuple[Formula, Formula], Formula] = {}
        pairs: List[_Pair] = []
        right_conditions = right.conditions
        for i, left_condition in enumerate(left.conditions):
            for j, right_condition in enumerate(right_conditions):
                key = (left_condition, right_condition)
                condition = memo.get(key)
                if condition is None:
                    condition = conj(left_condition, right_condition)
                    memo[key] = condition
                if condition is not BOTTOM:
                    pairs.append((i, j, condition))
        return _pairs_batch(ctx, left, right, pairs)

    def label(self) -> str:
        return "Product"


# ----------------------------------------------------------------------
# Union / difference / intersection
# ----------------------------------------------------------------------

def _check_same_arity(left: PhysicalOp, right: PhysicalOp) -> None:
    if left.arity != right.arity:
        raise ArityError(
            f"arity mismatch: {left.arity} vs {right.arity}"
        )


class UnionOp(PhysicalOp):
    """``∪̄``: columnar concatenation."""

    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        _check_same_arity(left, right)
        self.left = left
        self.right = right

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        columns = [
            left_column + right_column
            for left_column, right_column in zip(left.columns, right.columns)
        ]
        conditions = list(left.conditions + right.conditions)
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
        )

    def label(self) -> str:
        return "Union"


class _MembershipIndex:
    """The hash-bucket pairing of ``−̄``/``∩̄`` over a right batch.

    All-constant right rows are bucketed by value tuple; rows with a
    variable entry stay symbolic and pair with every left row.  The
    relevant right rows for a left row come back *in original right
    order*, so the composed membership conditions are structurally
    identical to the lifted operators'.  The whole membership condition
    is memoized per distinct left value-tuple — duplicate-valued left
    rows (common after projections) pay for it once.
    """

    __slots__ = ("right", "_buckets", "_symbolic", "_eq", "_memo")

    def __init__(self, right: Batch) -> None:
        self.right = right
        self._buckets: Dict[tuple, List[int]] = {}
        self._symbolic: List[int] = []
        for j in range(len(right)):
            key = _constant_key(right.columns, range(right.arity), j)
            if key is None:
                self._symbolic.append(j)
            else:
                self._buckets.setdefault(key, []).append(j)
        self._eq: Dict[Tuple[tuple, int], Formula] = {}
        self._memo: Dict[tuple, Formula] = {}

    def _candidates(self, values: tuple) -> Sequence[int]:
        if any(not isinstance(term, Const) for term in values):
            return range(len(self.right))
        key = tuple(term.value for term in values)
        matched = self._buckets.get(key)
        if matched is None:
            return self._symbolic
        if self._symbolic:
            return sorted(matched + self._symbolic)
        return matched

    def _equal_condition(self, values: tuple, j: int) -> Formula:
        cached = self._eq.get((values, j))
        if cached is None:
            cached = conj(
                *(
                    eq(term, column[j])
                    for term, column in zip(values, self.right.columns)
                )
            )
            self._eq[(values, j)] = cached
        return cached

    def membership(self, values: tuple, negated: bool) -> Formula:
        """``⋀ ¬(ϕ_{t₂} ∧ t₁=t₂)`` or ``⋁ (ϕ_{t₂} ∧ t₁=t₂)`` for *values*."""
        key = (values, negated)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        right_conditions = self.right.conditions
        parts = [
            conj(right_conditions[j], self._equal_condition(values, j))
            for j in self._candidates(values)
        ]
        if negated:
            result = conj(*(neg(part) for part in parts))
        else:
            result = disj(*parts)
        self._memo[key] = result
        return result


class _SetDifferenceBase(PhysicalOp):
    """Common machinery of ``−̄`` and ``∩̄``."""

    __slots__ = ("left", "right")

    _negated: bool

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        _check_same_arity(left, right)
        self.left = left
        self.right = right

    @property
    def arity(self) -> int:
        return self.left.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        left, right = inputs
        index = _MembershipIndex(right)
        keep: List[int] = []
        conditions: List[Formula] = []
        left_columns = left.columns
        left_conditions = left.conditions
        negated = self._negated
        for i in range(len(left_conditions)):
            values = tuple(column[i] for column in left_columns)
            condition = conj(
                left_conditions[i], index.membership(values, negated)
            )
            if condition is not BOTTOM:
                keep.append(i)
                conditions.append(condition)
        if len(keep) == len(left_conditions):
            columns: Sequence[Sequence[Term]] = left_columns
        else:
            columns = [tuple(column[i] for i in keep) for column in left_columns]
        domains, global_condition = merge_metadata(left, right)
        return _finish(
            ctx, columns, conditions, self.arity, domains, global_condition
        )


class DifferenceOp(_SetDifferenceBase):
    """``−̄``: keep ``t₁`` unless some ``t₂`` is present and equal."""

    __slots__ = ()
    _negated = True

    def label(self) -> str:
        return "Difference"


class IntersectOp(_SetDifferenceBase):
    """``∩̄``: keep ``t₁`` when some ``t₂`` is present and equal."""

    __slots__ = ()
    _negated = False

    def label(self) -> str:
        return "Intersect"
