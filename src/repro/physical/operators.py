"""Vectorized physical operators over row-form batches.

Each operator pulls the batches of its children on demand and processes
all their rows in one pass: it reads each
:class:`~repro.tables.ctable.CRow`'s values and condition and emits
``CRow`` objects, passing a row whose condition it leaves unchanged
through as the same object.  The runtime contract — checked by the
executor-equivalence tests — is *structural identity* with the
interpreted lifted operators of :mod:`repro.ctalgebra.lifted`: the same
rows, composed of the same interned condition objects, in the same
order.  That keeps the interpreted path usable as an oracle and lets the
engine flip executors without observable changes.

Where the speed comes from:

- a point read costs its matches, not the relation: over a batch that
  scans a c-table (:attr:`Batch.source`), :class:`FilterOp` visits only
  the rows the table's cached per-column index
  (:meth:`~repro.tables.ctable.CTable.column_index`) gives for the
  constants its predicate pins, and :class:`HashJoinOp` probes only the
  left rows whose key is a right key or holds a variable — the rows
  Lemma 1 does not already send to ``false``;
- :class:`FilterOp` partially evaluates the selection predicate **once
  per distinct constant signature** (the tuple of terms in the
  predicate's columns) and reuses the residual formula across all rows
  sharing the signature, instead of re-walking the predicate and
  rebuilding a substitution per row the way ``select_bar`` does, and
  drops a row whose residual is ``false`` without composing its
  condition;
- :class:`HashJoinOp` generalizes the fused ``join_bar`` to any equijoin
  keys the planner found, with the same per-signature predicate memo
  plus a condition-composition memo (pairs of interned formulas repeat
  heavily in generated and real workloads).  It builds on its right
  input; a scanned one is already hashed — its table's cached column
  index gives the buckets, so no per-call index is built.  When the
  residual reads no column — a pure equijoin's — a probe row's
  condition is composed with a whole bucket once per (condition,
  bucket) and call, and the bucket's surviving pairs are emitted with
  one list ``extend``;
- late materialization: under a projection, :class:`HashJoinOp` builds
  each surviving pair's row from only the projected columns (its
  ``output``), so a wide join never allocates the full concatenated
  rows the projection would drop;
- :class:`ProjectOp` deduplicates projected rows through one hash pass,
  disjoining the conditions of now-identical rows (the paper's ``π̄``)
  at one grouping hash per row and none per group; when no two rows
  merge it emits them with no merge step, and over a narrowed join it
  groups the rows' own value tuples and passes a singleton through as
  its input row;
- :class:`DifferenceOp`/:class:`IntersectOp` reuse the constant-tuple
  hash-bucket scheme of the lifted operators and memoize the whole
  membership condition per distinct left value-tuple.

Each operator does its work in one ``compute_tracked`` method over
already-materialized input batches.  Besides the output batch it
returns each output row's *position*: the input row(s) it came from.
``compute`` keeps just the batch; ``execute`` only adds the pull-based
recursion over children (and the optional per-operator trace record).

The same body maintains views (:mod:`repro.ivm.view`).  ``keys`` turns
positions into row keys whose ascending order is the output order, and
``delta`` is an operator's rule for a signed change of its inputs: it
keeps the operator's index over its maintained inputs up to date, picks
the input rows a change can reach, and runs ``compute_tracked`` over
just those rows, in batches with no source table.  Lemma 1 is what
makes that exact — each lifted operator composes a row's condition from
the rows it pairs, so a delta row comes out as the very object a rerun
would build.  Helpers remain only where they hide an algorithm: the
scanned-row lookup and the constant-key index, the
pair-condition composer of joins and products, the membership index of
difference and intersection, and the output sealing of ``_finish`` and
``_pairs_batch``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.instance import Instance
    from repro.ivm.view import ViewNode
    from repro.obs.trace import TraceCollector

from repro.errors import ArityError
from repro.logic.atoms import Const, Eq, Term, eq
from repro.logic.syntax import BOTTOM, TOP, And, Formula, Or, conj, disj, neg
from repro.logic.evaluation import substitute
from repro.tables.ctable import CRow, CTable
from repro.ctalgebra.lifted import merge_domains
from repro.ctalgebra.plan import (
    EmptyNode,
    PlanNode,
    const_table,
    empty_table,
    resolve_scan,
)
from repro.physical.batch import Batch

#: (left row, group bit, right row, composed condition) emitted by
#: join/product loops; the group bit orders a left row's pairs in a
#: maintained view's keys: a hash join's bucket matches (0) before its
#: symbolic right rows (1).
_Pair = Tuple[int, int, int, Formula]

#: A maintained row's key: ascending keys are the rerun's row order.
Key = Tuple[int, ...]

#: Keyed rows of a maintained operator, deleted or inserted.
Keyed = List[Tuple[Key, CRow]]

#: One input's signed change: its deleted rows, then its inserted rows.
Delta = Tuple[Keyed, Keyed]

#: Some rows of a maintained input, with their keys, for a delta rule
#: to run the operator over.
Operand = Tuple["ViewNode", Sequence[Key], Sequence[CRow]]


class ExecContext:
    """Per-execution state: table bindings plus shared memo tables."""

    __slots__ = (
        "tables",
        "simplify_conditions",
        "collector",
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
        self._simplify_memo: Dict[Formula, Formula] = {}

    def simplified(self, condition: Formula) -> Formula:
        """Memoized condition simplification (interned nodes hash O(1))."""
        cached = self._simplify_memo.get(condition)
        if cached is None:
            from repro.logic.simplify import simplify

            cached = simplify(condition)
            self._simplify_memo[condition] = cached
        return cached


def _restamped(row: CRow, condition: Formula) -> CRow:
    """*row* under *condition*: the row object itself if that is its own."""
    return row if condition is row.condition else CRow(row.values, condition)


def _finish(
    ctx: ExecContext,
    rows: Sequence[CRow],
    arity: int,
    inputs: Tuple[Batch, ...],
    positions: Sequence[Any],
) -> Tuple[Batch, Sequence[Any]]:
    """Seal an operator's output rows under its inputs' metadata.

    One input lends its domains and global condition; two merge them
    by the lifted operators' rule.  The optional ``simplified()`` pass
    mirrors ``execute_plan``'s per-operator one (leaf scans are exempt
    there too); *positions* runs parallel to the rows and loses the
    dropped ones.
    """
    if len(inputs) == 1:
        (child,) = inputs
        domains = child.domains
        global_condition = child.global_condition
    else:
        left, right = inputs
        domains = merge_domains(left, right)
        global_condition = conj(left.global_condition, right.global_condition)
    if ctx.simplify_conditions:
        keep: List[int] = []
        simplified: List[CRow] = []
        for index, row in enumerate(rows):
            folded = ctx.simplified(row.condition)
            if folded is not BOTTOM:
                keep.append(index)
                simplified.append(_restamped(row, folded))
        if len(keep) != len(rows):
            positions = [positions[index] for index in keep]
        rows = simplified
        global_condition = ctx.simplified(global_condition)
    batch = Batch(
        tuple(rows),
        arity,
        domains=domains,
        global_condition=global_condition,
    )
    return batch, positions


def _constant_key(terms: Iterable[Term]) -> Optional[tuple]:
    """The constant values of *terms*, or None if any is a Var."""
    key = []
    for term in terms:
        if not isinstance(term, Const):
            return None
        key.append(term.value)
    return tuple(key)


def _picker(columns: Tuple[int, ...]) -> Callable[[Tuple[Term, ...]], tuple]:
    """A C-level function from a values tuple to its entries at
    *columns*, always as a tuple: ``itemgetter`` returns a bare entry
    for one column and takes none for zero, so those take a slice."""
    if len(columns) > 1:
        return itemgetter(*columns)
    if columns:
        (column,) = columns
        return itemgetter(slice(column, column + 1))
    return itemgetter(slice(0, 0))


def _scanned_rows(
    source: CTable, columns: Tuple[int, ...], keys: Iterable[tuple]
) -> List[int]:
    """The positions of *source*'s rows that a key in *keys* at
    *columns* can reach, ascending: their exact buckets plus the rows
    with a variable in one of *columns* (the table's cached
    :meth:`~repro.tables.ctable.CTable.column_index`).  Every other row
    holds a constant there that no key equals."""
    exact, residual = source.column_index(columns)
    found = list(residual)
    for key in keys:
        found.extend(exact.get(key, ()))
    # Each list is ascending and the buckets are disjoint: the sort
    # merges sorted runs.
    found.sort()
    return found


class _KeyIndex:
    """Row references bucketed by their constants at ``columns``.

    A row with a variable in one of the columns is *symbolic*: it may
    pair with any opposite row, so it is listed apart.  References stay
    ascending — row positions in ``compute``, row keys in a maintained
    view — so candidates come back in operand order.
    """

    __slots__ = ("columns", "buckets", "symbolic")

    def __init__(self, columns: Sequence[int]) -> None:
        self.columns = tuple(columns)
        self.buckets: Dict[tuple, list] = {}
        self.symbolic: list = []

    @classmethod
    def over(
        cls, columns: Sequence[int], refs: Iterable[Any], rows: Sequence[CRow]
    ) -> "_KeyIndex":
        """Index *rows* under their ascending references *refs*."""
        index = cls(columns)
        for ref, row in zip(refs, rows):
            key = index.key(row.values)
            if key is None:
                index.symbolic.append(ref)
            else:
                index.buckets.setdefault(key, []).append(ref)
        return index

    def key(self, values: Sequence[Term]) -> Optional[tuple]:
        """The bucket of a row with *values* (None: symbolic)."""
        return _constant_key(values[c] for c in self.columns)

    def add(self, ref: Key, values: Sequence[Term]) -> None:
        key = self.key(values)
        insort(
            self.symbolic if key is None else self.buckets.setdefault(key, []),
            ref,
        )

    def remove(self, ref: Key, values: Sequence[Term]) -> None:
        key = self.key(values)
        refs = self.symbolic if key is None else self.buckets[key]
        del refs[bisect_left(refs, ref)]
        if key is not None and not refs:
            del self.buckets[key]

    def matching(self, keys: Iterable[Optional[tuple]]) -> list:
        """The references some probe with one of *keys* can pair with,
        ascending: its bucket plus the symbolic rows, or every row for a
        symbolic (None) probe."""
        found = set(self.symbolic)
        for key in keys:
            if key is None:
                found = found.union(*self.buckets.values())
                break
            found.update(self.buckets.get(key, ()))
        return sorted(found)


def _rows_batch(node: "ViewNode", rows: Sequence[CRow]) -> Batch:
    """Some rows of a maintained operand under its metadata."""
    return Batch(
        tuple(rows),
        node.op.arity,
        domains=node.domains,
        global_condition=node.global_condition,
    )


def _operand(node: "ViewNode", items: Keyed) -> Operand:
    return node, [key for key, _ in items], [row for _, row in items]


def _opposite(
    index: _KeyIndex, node: "ViewNode", probe: _KeyIndex, items: Keyed
) -> Operand:
    """The rows of *node* (indexed by *index*) that some row of *items*
    (keyed by *probe*'s columns) can pair with."""
    rows = node.rows
    refs = index.matching(probe.key(row.values) for _, row in items)
    return node, refs, [rows[ref] for ref in refs]


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
        return self.compute_tracked(ctx, inputs)[0]

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        """The output batch plus each output row's input position."""
        raise NotImplementedError

    def keys(
        self, positions: Sequence[Any], input_keys: Sequence[Sequence[Key]]
    ) -> List[Key]:
        """Output row keys from positions: by default a row keeps the
        key of the (left) input row it came from."""
        first = input_keys[0]
        return [first[position] for position in positions]

    def maintenance_index(self, children: Sequence["ViewNode"]) -> Any:
        """The index ``delta`` keeps over the maintained inputs."""
        return None

    def delta(
        self, ctx: ExecContext, node: "ViewNode", deltas: Sequence[Delta]
    ) -> Tuple[List[Key], Keyed]:
        """Keys to delete and keyed rows to insert after *deltas*.

        The children of *node* already hold their new rows; the keys to
        delete may name rows *node* does not hold."""
        raise NotImplementedError

    def _apply(self, ctx: ExecContext, operands: Sequence[Operand]) -> Keyed:
        """Run this operator over some rows of each maintained input."""
        batch, positions = self.compute_tracked(
            ctx, tuple(_rows_batch(node, rows) for node, _, rows in operands)
        )
        keys = self.keys(positions, [keys for _, keys, _ in operands])
        return list(zip(keys, batch.rows))

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
    """Scan of a bound input c-table: its rows, as they are."""

    __slots__ = ("name", "rel_arity")

    def __init__(self, name: str, rel_arity: int) -> None:
        super().__init__()
        self.name = name
        self.rel_arity = rel_arity

    @property
    def arity(self) -> int:
        return self.rel_arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        return Batch.from_ctable(
            resolve_scan(self.name, self.rel_arity, ctx.tables)
        )

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
        return Batch.from_ctable(const_table(self.instance))

    def label(self) -> str:
        return f"ConstScan({list(self.instance.rows)!r})"


class EmptyOp(PhysicalOp):
    """A pruned region: no rows, but the sources' domains and globals."""

    __slots__ = ("empty_arity", "sources")

    def __init__(
        self, empty_arity: int, sources: Tuple[PlanNode, ...]
    ) -> None:
        super().__init__()
        self.empty_arity = empty_arity
        self.sources = sources

    @property
    def arity(self) -> int:
        return self.empty_arity

    def compute(self, ctx: ExecContext, inputs: Tuple[Batch, ...]) -> Batch:
        node = EmptyNode(self.empty_arity, self.sources)
        return Batch.from_ctable(empty_table(node, ctx.tables))

    def label(self) -> str:
        return f"Empty[{self.empty_arity}]"


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------

def _pinned(atom: Formula) -> Optional[Tuple[int, Hashable]]:
    """``(c, value)`` when *atom* is ``@c = value`` for a constant value."""
    from repro.algebra.predicates import column_index, is_column_var

    if isinstance(atom, Eq):
        for column, value in ((atom.left, atom.right), (atom.right, atom.left)):
            if is_column_var(column) and isinstance(value, Const):
                return column_index(column), value.value
    return None


def _filter_pins(predicate: Formula) -> Tuple[Formula, ...]:
    """The conjuncts ``@c = constant`` of *predicate*, the first per column.

    Only the predicate itself or a top-level child of its ``And`` can
    pin: a row whose constant at ``c`` differs then instantiates the
    whole predicate to ``false``.  An atom under an ``Or`` or a ``Not``
    never pins.
    """
    conjuncts = predicate.children if isinstance(predicate, And) else (predicate,)
    pins: Dict[int, Formula] = {}
    for part in conjuncts:
        pinned = _pinned(part)
        if pinned is not None:
            pins.setdefault(pinned[0], part)
    return tuple(pins.values())


class FilterOp(PhysicalOp):
    """Vectorized ``σ̄``: one predicate instantiation per constant signature.

    The predicate's column variables and their ``@i`` names are resolved
    at lowering time; execution takes one pass over the batch, looking
    each row's *signature* (its terms in the predicate columns) up in a
    memo of residual formulas.  A residual of ``true`` keeps the row
    object itself — no conjunction is allocated at all (the
    ``select_bar`` fast exit, vectorized); a residual of ``false`` drops
    the row.

    The predicate's *pins* (:func:`_filter_pins`, its top-level
    ``@c = constant`` conjuncts) name the only rows of a scanned table
    it can keep: over a batch with a :attr:`~Batch.source`, the loop
    visits just the rows the table's column index gives for the pinned
    key.  Every skipped row would have instantiated to ``false``, so
    the output is the same rows, conditions and order either way.

    A row's position is its input row; its delta filters the inserted
    input rows.
    """

    __slots__ = (
        "child", "predicate", "pins", "_pred_columns", "_names",
        "_pin_columns", "_pin_key",
    )

    def __init__(self, child: PhysicalOp, predicate: Formula) -> None:
        super().__init__()
        from repro.algebra.predicates import col, predicate_columns

        self.child = child
        self.predicate = predicate
        self._pred_columns = tuple(sorted(predicate_columns(predicate)))
        self._names = tuple(col(index).name for index in self._pred_columns)
        self.pins = _filter_pins(predicate)
        pinned = sorted(
            (found for found in map(_pinned, self.pins) if found is not None),
            key=lambda found: found[0],
        )
        self._pin_columns = tuple(column for column, _ in pinned)
        self._pin_key = tuple(value for _, value in pinned)

    @property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        (child,) = inputs
        columns = self._pred_columns
        predicate = self.predicate
        names = self._names
        memo: Dict[Tuple[Term, ...], Formula] = {}
        keep: List[int] = []
        kept: List[CRow] = []
        rows = child.rows
        visit: Sequence[int] = range(len(rows))
        if child.source is not None and self.pins:
            visit = _scanned_rows(
                child.source, self._pin_columns, (self._pin_key,)
            )
        # Whether every row survived as its own object.
        unchanged = len(visit) == len(rows)
        for position in visit:
            row = rows[position]
            values = row.values
            signature = tuple([values[c] for c in columns])
            residual = memo.get(signature)
            if residual is None:
                residual = substitute(predicate, dict(zip(names, signature)))
                memo[signature] = residual
            if residual is BOTTOM:
                unchanged = False
                continue
            if residual is not TOP:
                condition = conj(row.condition, residual)
                if condition is BOTTOM:
                    unchanged = False
                    continue
                if condition is not row.condition:
                    unchanged = False
                    row = CRow(values, condition)
            keep.append(position)
            kept.append(row)
        # The select_bar fast exit: a fully-unchanged batch is returned
        # as the child object itself.
        if unchanged and not ctx.simplify_conditions:
            return child, keep
        return _finish(ctx, kept, self.arity, inputs, keep)

    def delta(
        self, ctx: ExecContext, node: "ViewNode", deltas: Sequence[Delta]
    ) -> Tuple[List[Key], Keyed]:
        ((deleted, inserted),) = deltas
        doomed = [key for key, _ in deleted]
        if not inserted:
            return doomed, []
        return doomed, self._apply(ctx, [_operand(node.children[0], inserted)])

    def label(self) -> str:
        return f"Filter[{self.predicate!r}]"


# ----------------------------------------------------------------------
# Project
# ----------------------------------------------------------------------

class ProjectOp(PhysicalOp):
    """Vectorized ``π̄`` with condition-dedup.

    One hash pass groups rows whose projected value-tuples became
    identical and disjoins their conditions in row order — exactly
    ``project_bar``'s merge, building one row per group.  Each row costs
    one grouping hash, and no key is hashed again: the dict gives a
    projected tuple its group number, and the merge reads the list of
    those numbers.  When every group is one row (as many groups as
    rows), the rows come out in order with no merge step; otherwise a
    group of one holds its row, not a list of conditions.  A singleton
    keeps its condition unless that is an ``Or``: ``disj`` flattens an
    un-normalized one, so an ``Or``'s ``disj(c)`` is taken, memoized per
    distinct ``c``.

    Over a :class:`HashJoinOp` whose ``output`` already holds the
    projected columns, ``lower()`` gives the projection the identity
    columns: it then groups the rows' own value tuples, and a singleton
    whose disjunction is its own condition comes out as the input row
    object itself.

    A group's position is its first member.  Its delta keeps each
    group's member keys and re-projects just the changed groups; a
    changed row's group is looked up once, and its members list is kept
    from that lookup.
    """

    __slots__ = ("child", "columns", "_pick")

    def __init__(self, child: PhysicalOp, columns: Tuple[int, ...]) -> None:
        super().__init__()
        self.child = child
        self.columns = tuple(columns)
        #: The projection of a values tuple; None for the identity.
        self._pick: Optional[Callable[[Tuple[Term, ...]], tuple]] = (
            None
            if self.columns == tuple(range(child.arity))
            else _picker(self.columns)
        )

    @property
    def arity(self) -> int:
        return len(self.columns)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        (child,) = inputs
        rows = child.rows
        pick = self._pick
        keys = (
            [row.values for row in rows]
            if pick is None
            else [pick(row.values) for row in rows]
        )
        # One grouping hash per row: a key's group number is the count of
        # groups before it.  (A row's identity cannot tell a new group:
        # one CRow object may occur twice in a batch.)
        slot_of: Dict[Tuple[Term, ...], int] = {}
        slots = [slot_of.setdefault(key, len(slot_of)) for key in keys]
        # Per group, in first-seen order: its one row, or the conditions
        # of its members.
        groups: Sequence[Any] = rows
        group_keys: Iterable[Tuple[Term, ...]] = keys
        first: Sequence[int] = range(len(rows))
        if len(slot_of) < len(rows):
            merging: List[Any] = [None] * len(slot_of)
            starts: List[int] = []
            for position, slot in enumerate(slots):
                held = merging[slot]
                if held is None:
                    merging[slot] = rows[position]
                    starts.append(position)
                elif held.__class__ is list:
                    held.append(rows[position].condition)
                else:
                    merging[slot] = [held.condition, rows[position].condition]
            groups, group_keys, first = merging, slot_of, starts
        # disj(c) of a group of one is c unless c is an Or, which disj
        # flattens (an un-normalized one changes): memoized per such c.
        flattened: Dict[Formula, Formula] = {}
        out: List[CRow] = []
        for key, held in zip(group_keys, groups):
            if held.__class__ is list:
                out.append(CRow(key, disj(*held)))
                continue
            merged = condition = held.condition
            if isinstance(condition, Or):
                merged = flattened.get(condition)
                if merged is None:
                    merged = flattened[condition] = disj(condition)
            if pick is None and merged is condition:
                out.append(held)
            else:
                out.append(CRow(key, merged))
        return _finish(ctx, out, self.arity, inputs, first)

    def _group(self, values: Tuple[Term, ...]) -> Tuple[Term, ...]:
        pick = self._pick
        return values if pick is None else pick(values)

    def maintenance_index(
        self, children: Sequence["ViewNode"]
    ) -> Dict[Tuple[Term, ...], List[Key]]:
        (child,) = children
        groups: Dict[Tuple[Term, ...], List[Key]] = {}
        for key, row in zip(child.order, child.ordered_rows):
            groups.setdefault(self._group(row.values), []).append(key)
        return groups

    def delta(
        self, ctx: ExecContext, node: "ViewNode", deltas: Sequence[Delta]
    ) -> Tuple[List[Key], Keyed]:
        ((deleted, inserted),) = deltas
        (child,) = node.children
        groups: Dict[Tuple[Term, ...], List[Key]] = node.index
        # Each touched group, found by one lookup in *groups* and then by
        # its members list's identity (an int hashes in C; a group tuple
        # hashes each of its terms): its projected key, its key before the
        # change (its first member) and its members list.  Only dropping
        # a group that emptied hashes its key a second time.
        changed: Dict[int, Tuple[Tuple[Term, ...], Optional[Key], List[Key]]] = {}
        for key, row in deleted:
            group = self._group(row.values)
            members = groups[group]
            if id(members) not in changed:
                changed[id(members)] = (group, members[0], members)
            del members[bisect_left(members, key)]
        for key, row in inserted:
            group = self._group(row.values)
            members = groups.setdefault(group, [])
            if id(members) not in changed:
                changed[id(members)] = (
                    group, members[0] if members else None, members
                )
            insort(members, key)
        doomed: List[Key] = []
        touched: List[Key] = []
        for group, before, members in changed.values():
            if before is not None:
                doomed.append(before)
            if members:
                touched.extend(members)
            else:
                del groups[group]
        if not touched:
            return doomed, []
        rows = child.rows
        return doomed, self._apply(
            ctx, [(child, touched, [rows[key] for key in touched])]
        )

    def label(self) -> str:
        return f"Project[{','.join(str(c) for c in self.columns)}]"


# ----------------------------------------------------------------------
# Joins and products
# ----------------------------------------------------------------------

class _PairComposer:
    """Shared condition composition for pairing operators.

    Instantiation is memoized per predicate-column *signature* and the
    three-way conjunction per (left condition, right condition, residual)
    triple — all interned objects, so the keys hash by identity.

    Hash-*matched* pairs (both key columns constant and equal) get a
    cheaper route: their equijoin conjuncts are known to fold to
    ``true``, so only the residual predicate is instantiated, over a
    much smaller signature.  ``conj`` flattening makes the composed
    condition structurally identical to the full instantiation.  When
    that residual reads no column, a matched pair's condition depends
    only on the two rows' conditions, so :meth:`bucket` composes a
    left row's condition with a whole right bucket once per call.
    """

    __slots__ = (
        "_full_spec", "_res_spec", "_full_inst", "_res_inst", "_conj",
        "_res_fixed", "_buckets",
    )

    def __init__(
        self, predicate: Formula, residual: Formula, left_arity: int
    ) -> None:
        self._full_spec = self._spec(predicate, left_arity)
        self._res_spec = self._spec(residual, left_arity)
        self._full_inst: Dict[tuple, Formula] = {}
        self._res_inst: Dict[tuple, Formula] = {}
        self._conj: Dict[tuple, Formula] = {}
        self._buckets: Dict[tuple, List[Tuple[int, Formula]]] = {}
        #: A residual that reads no column (a pure equijoin's ``true``)
        #: is instantiated here, once, instead of once per matched pair;
        #: its matched pairs are composed per bucket (:meth:`bucket`).
        self._res_fixed: Optional[Formula] = None
        _, _, left_pred, right_pred = self._res_spec
        if not left_pred and not right_pred:
            self._res_fixed = substitute(residual, {})

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
        left: CRow,
        right: CRow,
    ) -> Formula:
        predicate, names, left_pred, right_pred = spec
        left_values = left.values
        right_values = right.values
        signature = tuple([left_values[c] for c in left_pred]) + tuple(
            [right_values[c] for c in right_pred]
        )
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

    def condition(self, left: CRow, right: CRow) -> Formula:
        """``conj(l.condition, r.condition, c(t₁t₂))``, full predicate."""
        return self._compose(
            left.condition,
            right.condition,
            self._instantiate(self._full_spec, self._full_inst, left, right),
        )

    def matched_condition(self, left: CRow, right: CRow) -> Formula:
        """The pair condition when the constant equijoin keys agree and
        the residual reads a column (else see :meth:`bucket`)."""
        instantiated = self._instantiate(
            self._res_spec, self._res_inst, left, right
        )
        return self._compose(left.condition, right.condition, instantiated)

    def bucket(
        self,
        left_condition: Formula,
        key: tuple,
        matched: Sequence[int],
        right_rows: Sequence[CRow],
    ) -> List[Tuple[int, Formula]]:
        """``(right row, condition)`` of each non-``false`` pair a left
        row under *left_condition* forms with the right bucket *matched*
        of *key*, in bucket order; only for a residual that reads no
        column.

        Memoized per (left condition, bucket key): left rows that share
        both get the same list.
        """
        memo_key = (left_condition, key)
        found = self._buckets.get(memo_key)
        if found is None:
            fixed = self._res_fixed
            assert fixed is not None, "the residual reads a column"
            compose = self._compose
            found = []
            for j in matched:
                composed = compose(
                    left_condition, right_rows[j].condition, fixed
                )
                if composed is not BOTTOM:
                    found.append((j, composed))
            self._buckets[memo_key] = found
        return found


def _pairs_batch(
    ctx: ExecContext,
    inputs: Tuple[Batch, ...],
    pairs: List[_Pair],
    output: Optional[Tuple[int, ...]] = None,
) -> Tuple[Batch, Sequence[Any]]:
    """The output batch of the surviving (i, g, j, condition) pairs: each
    pair's concatenated values, or only their *output* columns."""
    left, right = inputs
    left_rows = left.rows
    right_rows = right.rows
    if output is None:
        rows = [
            CRow(left_rows[i].values + right_rows[j].values, condition)
            for i, _, j, condition in pairs
        ]
        return _finish(ctx, rows, left.arity + right.arity, inputs, pairs)
    pick = _picker(output)
    rows = [
        CRow(pick(left_rows[i].values + right_rows[j].values), condition)
        for i, _, j, condition in pairs
    ]
    return _finish(ctx, rows, len(output), inputs, pairs)


class _PairOp(PhysicalOp):
    """Common upkeep of ``×̄`` and ``⋈̄``: positions are the emitted
    ``(i, g, j, condition)`` pairs, keyed ``left + (g,) + right``.

    The delta rule indexes both maintained inputs on the join keys (a
    product has none, so every row shares one bucket) and pairs each
    changed row with the opposite rows its key can reach:

    - deleted left rows take every pair they head — one key range;
    - deleted right rows are paired with the surviving left rows to name
      the pairs they were in;
    - inserted right rows pair with the surviving left rows, and then
      inserted left rows with the whole new right side, so a pair of two
      inserted rows is built exactly once.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys")

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_keys: Tuple[int, ...] = (),
        right_keys: Tuple[int, ...] = (),
    ) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def keys(
        self, positions: Sequence[Any], input_keys: Sequence[Sequence[Key]]
    ) -> List[Key]:
        left, right = input_keys
        return [left[i] + (g,) + right[j] for i, g, j, _ in positions]

    def maintenance_index(
        self, children: Sequence["ViewNode"]
    ) -> Tuple[_KeyIndex, _KeyIndex]:
        left, right = children
        return (
            _KeyIndex.over(self.left_keys, left.order, left.ordered_rows),
            _KeyIndex.over(self.right_keys, right.order, right.ordered_rows),
        )

    def delta(
        self, ctx: ExecContext, node: "ViewNode", deltas: Sequence[Delta]
    ) -> Tuple[List[Key], Keyed]:
        (left_deleted, left_inserted), (right_deleted, right_inserted) = deltas
        left, right = node.children
        left_index, right_index = node.index
        order = node.order
        doomed: List[Key] = []
        for key, row in left_deleted:
            left_index.remove(key, row.values)
            # No left key prefixes another and the group bit after one
            # is 0 or 1, so its pairs are the keys in [key, key + (2,)).
            doomed.extend(
                order[bisect_left(order, key):bisect_left(order, key + (2,))]
            )
        for key, row in right_deleted:
            right_index.remove(key, row.values)
        if right_deleted:
            survivors = _opposite(left_index, left, right_index, right_deleted)
            doomed.extend(
                key for key, _ in self._apply(
                    ctx, [survivors, _operand(right, right_deleted)]
                )
            )
        inserted: Keyed = []
        for key, row in right_inserted:
            right_index.add(key, row.values)
        if right_inserted:
            survivors = _opposite(left_index, left, right_index, right_inserted)
            inserted.extend(
                self._apply(ctx, [survivors, _operand(right, right_inserted)])
            )
        for key, row in left_inserted:
            left_index.add(key, row.values)
        if left_inserted:
            partners = _opposite(right_index, right, left_index, left_inserted)
            inserted.extend(
                self._apply(ctx, [_operand(left, left_inserted), partners])
            )
        return doomed, inserted


class HashJoinOp(_PairOp):
    """``σ̄_c(T₁ ×̄ T₂)`` fused, hash-partitioned on arbitrary equijoin keys.

    Rows whose key columns are all constants are bucketed; a pair whose
    constants disagree could only produce a ``false`` condition, so it is
    never built.  Rows with a variable in a key column stay symbolic and
    pair with every opposite row (Lemma 1 quantifies over one valuation).

    The join builds on its right input and probes the left rows in
    order, as ``join_bar``'s loop does, so the output is structurally
    identical to ``join_bar``'s for downstream condition-dedup.  A keyed
    left row pairs first with its bucket (``g = 0``), then with the
    symbolic right rows (``g = 1``); a symbolic left row pairs with the
    whole right side in order (``g = 0``).

    A right input that scans a c-table is not indexed per call: the
    table's cached column index on the right keys holds the same
    buckets and symbolic rows, in the same ascending order; any other
    right input is indexed once per call.  When the right side has no
    symbolic row and the left side scans a c-table, only the left rows
    whose key is a right key or holds a variable can pair, so only
    those — read off the table's column index on the left keys — are
    probed.

    A matched pair under a residual that reads no column (every pure
    equijoin) has the condition ``conj(l.condition, r.condition,
    residual)``, which depends on the two conditions alone.  So a left
    row's pairs with its bucket are composed once per (left condition,
    bucket key) in a call (:meth:`_PairComposer.bucket`), ``false``
    pairs dropped, and emitted with one list ``extend``.

    ``output`` (late materialization) is set by ``lower()`` when a
    :class:`ProjectOp` sits directly on the join: each surviving pair
    then builds only the projected columns, and the projection above
    only merges.  It narrows ``arity`` alone.  The predicate, residual
    and key columns still address the ``left.arity + right.arity`` pair
    columns, and positions and pair keys are unchanged, so a maintained
    join store keeps its keys and just holds narrower rows.
    """

    __slots__ = ("predicate", "residual", "output")

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        predicate: Formula,
        residual: Formula,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        output: Optional[Tuple[int, ...]] = None,
    ) -> None:
        super().__init__(left, right, left_keys, right_keys)
        self.predicate = predicate
        self.residual = residual
        #: The pair columns each output row keeps; None keeps them all.
        self.output = None if output is None else tuple(output)

    @property
    def arity(self) -> int:
        output = self.output
        if output is None:
            return self.left.arity + self.right.arity
        return len(output)

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        left, right = inputs
        left_rows = left.rows
        right_rows = right.rows
        composer = _PairComposer(self.predicate, self.residual, left.arity)
        left_keys, right_keys = self.left_keys, self.right_keys
        # Hash-partition the right side once: a scanned one already is,
        # by its table's cached column index (same buckets, same order).
        if right.source is not None:
            buckets, symbolic = right.source.column_index(right_keys)
        else:
            index = _KeyIndex.over(right_keys, range(len(right_rows)), right_rows)
            buckets, symbolic = index.buckets, index.symbolic
        probed: Sequence[int] = range(len(left_rows))
        if left.source is not None and not symbolic:
            # Only a left row whose key is some right key, or holds a
            # variable, can pair with a right row that holds none.
            probed = _scanned_rows(left.source, left_keys, buckets)
        # A residual that reads no column composes a left row with a
        # whole bucket at once (see _PairComposer.bucket).
        by_bucket = composer._res_fixed is not None
        pairs: List[_Pair] = []
        # Probe left rows in order against the right side (join_bar's
        # loop).
        for i in probed:
            left_row = left_rows[i]
            values = left_row.values
            key = _constant_key([values[c] for c in left_keys])
            if key is None:
                for j, right_row in enumerate(right_rows):
                    condition = composer.condition(left_row, right_row)
                    if condition is not BOTTOM:
                        pairs.append((i, 0, j, condition))
                continue
            matched = buckets.get(key)
            if matched is not None and by_bucket:
                pairs.extend([
                    (i, 0, j, condition)
                    for j, condition in composer.bucket(
                        left_row.condition, key, matched, right_rows
                    )
                ])
            elif matched is not None:
                # Constant keys agree: the equijoin conjuncts fold to
                # true, only the residual predicate needs instantiating.
                for j in matched:
                    condition = composer.matched_condition(
                        left_row, right_rows[j]
                    )
                    if condition is not BOTTOM:
                        pairs.append((i, 0, j, condition))
            for j in symbolic:
                condition = composer.condition(left_row, right_rows[j])
                if condition is not BOTTOM:
                    pairs.append((i, 1, j, condition))
        return _pairs_batch(ctx, inputs, pairs, self.output)

    def label(self) -> str:
        label = f"HashJoin[{self.predicate!r}]"
        if self.output is not None:
            label += f" out=[{','.join(map(str, self.output))}]"
        return label


class ProductOp(_PairOp):
    """``×̄``: every pair, with a pairwise condition-conjunction memo."""

    __slots__ = ()

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__(left, right)

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        left, right = inputs
        memo: Dict[Tuple[Formula, Formula], Formula] = {}
        pairs: List[_Pair] = []
        right_conditions = [row.condition for row in right.rows]
        for i, left_row in enumerate(left.rows):
            left_condition = left_row.condition
            for j, right_condition in enumerate(right_conditions):
                key = (left_condition, right_condition)
                condition = memo.get(key)
                if condition is None:
                    condition = conj(left_condition, right_condition)
                    memo[key] = condition
                if condition is not BOTTOM:
                    pairs.append((i, 0, j, condition))
        return _pairs_batch(ctx, inputs, pairs)

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
    """``∪̄``: row concatenation; a row is keyed by its side first."""

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

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        left, right = inputs
        rows = left.rows + right.rows
        return _finish(ctx, rows, self.arity, inputs, range(len(rows)))

    def keys(
        self, positions: Sequence[Any], input_keys: Sequence[Sequence[Key]]
    ) -> List[Key]:
        left, right = input_keys
        split = len(left)
        return [
            (0,) + left[p] if p < split else (1,) + right[p - split]
            for p in positions
        ]

    def delta(
        self, ctx: ExecContext, node: "ViewNode", deltas: Sequence[Delta]
    ) -> Tuple[List[Key], Keyed]:
        (left_deleted, left_inserted), (right_deleted, right_inserted) = deltas
        doomed = [(0,) + key for key, _ in left_deleted]
        doomed.extend((1,) + key for key, _ in right_deleted)
        if not (left_inserted or right_inserted):
            return doomed, []
        left, right = node.children
        return doomed, self._apply(
            ctx,
            [_operand(left, left_inserted), _operand(right, right_inserted)],
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

    __slots__ = ("rows", "_index", "_eq", "_memo")

    def __init__(self, right: Batch) -> None:
        self.rows = right.rows
        self._index = _KeyIndex.over(
            range(right.arity), range(len(self.rows)), self.rows
        )
        self._eq: Dict[Tuple[tuple, int], Formula] = {}
        self._memo: Dict[tuple, Formula] = {}

    def _candidates(self, values: tuple) -> Sequence[int]:
        key = _constant_key(values)
        if key is None:
            return range(len(self.rows))
        symbolic = self._index.symbolic
        matched = self._index.buckets.get(key)
        if matched is None:
            return symbolic
        if symbolic:
            return sorted(matched + symbolic)
        return matched

    def _equal_condition(self, values: tuple, j: int) -> Formula:
        cached = self._eq.get((values, j))
        if cached is None:
            other = self.rows[j].values
            cached = conj(*(eq(a, b) for a, b in zip(values, other)))
            self._eq[(values, j)] = cached
        return cached

    def membership(self, values: tuple, negated: bool) -> Formula:
        """``⋀ ¬(ϕ_{t₂} ∧ t₁=t₂)`` or ``⋁ (ϕ_{t₂} ∧ t₁=t₂)`` for *values*."""
        key = (values, negated)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        rows = self.rows
        parts = [
            conj(rows[j].condition, self._equal_condition(values, j))
            for j in self._candidates(values)
        ]
        if negated:
            result = conj(*(neg(part) for part in parts))
        else:
            result = disj(*parts)
        self._memo[key] = result
        return result


class _SetDifferenceBase(PhysicalOp):
    """Common machinery of ``−̄`` and ``∩̄``.

    A row's position is its left row.  The delta rule is not a local
    one — a right change rewrites the membership conditions of left
    rows — so it indexes both maintained inputs by value tuple and
    recomputes exactly the left rows a changed row can reach, against
    the right rows those can reach.
    """

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

    def compute_tracked(
        self, ctx: ExecContext, inputs: Tuple[Batch, ...]
    ) -> Tuple[Batch, Sequence[Any]]:
        left, right = inputs
        index = _MembershipIndex(right)
        negated = self._negated
        keep: List[int] = []
        rows: List[CRow] = []
        for i, row in enumerate(left.rows):
            membership = index.membership(row.values, negated)
            condition = conj(row.condition, membership)
            if condition is not BOTTOM:
                keep.append(i)
                rows.append(_restamped(row, condition))
        return _finish(ctx, rows, self.arity, inputs, keep)

    def maintenance_index(
        self, children: Sequence["ViewNode"]
    ) -> Tuple[_KeyIndex, ...]:
        columns = range(self.arity)
        return tuple(
            _KeyIndex.over(columns, child.order, child.ordered_rows)
            for child in children
        )

    def delta(
        self, ctx: ExecContext, node: "ViewNode", deltas: Sequence[Delta]
    ) -> Tuple[List[Key], Keyed]:
        (left_deleted, left_inserted), (right_deleted, right_inserted) = deltas
        left, right = node.children
        left_index, right_index = node.index
        for key, row in left_deleted:
            left_index.remove(key, row.values)
        for key, row in left_inserted:
            left_index.add(key, row.values)
        for key, row in right_deleted:
            right_index.remove(key, row.values)
        for key, row in right_inserted:
            right_index.add(key, row.values)
        affected = {key for key, _ in left_inserted}
        changed = right_deleted + right_inserted
        if changed:
            affected.update(
                left_index.matching(
                    right_index.key(row.values) for _, row in changed
                )
            )
        doomed = [key for key, _ in left_deleted]
        doomed.extend(affected)
        if not affected:
            return doomed, []
        rows = left.rows
        items = [(key, rows[key]) for key in sorted(affected)]
        partners = _opposite(right_index, right, left_index, items)
        return doomed, self._apply(ctx, [_operand(left, items), partners])


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
