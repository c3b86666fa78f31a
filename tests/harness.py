"""Reusable differential/metamorphic fuzzing harness for executor modes.

Every executor the engine has — the interpreted lifted operators (the
oracle) and the vectorized batch runtime — must satisfy one contract:
**structural identity**.  Same
rows, composed of the same interned condition objects, in the same
order.  This module is the one place that contract is generated and
checked from, so a new executor (or a new operator strategy inside an
existing one) gets the whole randomized surface by adding one entry to
:data:`EXECUTORS`-style lists at its call sites.

The generators are seeded and fully reproducible: a failing case is
replayed by its ``(seed, trial)`` coordinates, which every assertion
message carries.  Profiles control the knobs that matter for coverage —
table sizes, variable-sharing density (one small variable pool shared by
values *and* conditions across all relations, so join answers correlate
through shared variables), and the operator mix over the paper's lifted
algebra (σ̄ / π̄ / ×̄ / ⋈̄ / ∪̄ / −̄ / ∩̄).

Mod-level checks are no longer capped by enumeration:
``ctables_equivalent`` dispatches to symbolic per-tuple condition
equivalence (:mod:`repro.logic.equality_sat`) whose cost scales with
condition size rather than ``2^variables``, so the
:data:`LARGE_TABLES` profile fuzzes with a 72-name variable pool —
dozens of distinct variables per case, far beyond any enumerable
witness domain.  The default profiles stay small (≤ 3 variables) so
the same sweeps remain cross-checkable against explicit world
enumeration (``ctables_equivalent(..., enumerate=True)``), which is
what keeps the symbolic engine honest.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro import (
    CTable,
    Var,
    col_eq,
    col_eq_const,
    col_ne,
    col_ne_const,
    conj,
    ctables_equivalent,
    ctables_equivalent_symbolic,
    diff,
    eq,
    intersect,
    ne,
    proj,
    prod,
    rel,
    sel,
    union,
)
from repro.logic.atoms import Const
from repro.logic.syntax import TOP, Formula, disj, neg
from repro.prob import PCTable
from repro.ctalgebra.plan import execute_plan
from repro.ctalgebra.translate import plan_for_query
from repro.physical import execute_plan_vectorized

#: Every executor mode the engine supports, oracle first.
EXECUTORS = ("interpreted", "vectorized")


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TableProfile:
    """Shape of the generated c-tables.

    ``variables`` is one *shared* pool: the smaller it is, the denser
    the variable sharing between values and conditions, within and
    across relations — which is exactly what stresses condition
    composition and the interning-identity contract.  Pools of any size
    are fine for ``ctables_equivalent`` (it goes symbolic above its
    variable budget); keep ≤ 3 names only where a sweep explicitly
    cross-validates against ``enumerate=True`` world enumeration.
    """

    arity: int = 2
    min_rows: int = 1
    max_rows: int = 5
    variables: Tuple[str, ...] = ("x", "y", "z")
    constants: int = 3
    variable_density: float = 0.3


@dataclass(frozen=True)
class QueryProfile:
    """Shape of the generated queries: relations, depth, operator mix.

    ``weights`` picks the operator at each level; ``join`` produces the
    equijoin shape the planner fuses into a hash join (with an optional
    residual disequality), ``product`` the keyless fallback.
    """

    relations: Tuple[Tuple[str, int], ...] = (("V", 2), ("W", 2))
    min_depth: int = 1
    max_depth: int = 3
    weights: Tuple[Tuple[str, float], ...] = (
        ("project", 2.0),
        ("select", 4.0),
        ("join", 2.0),
        ("product", 1.0),
        ("union", 1.0),
        ("difference", 1.0),
        ("intersect", 1.0),
    )


DEFAULT_TABLES = TableProfile()
DEFAULT_QUERIES = QueryProfile()

#: The enumeration-infeasible scale: a 72-name shared pool at high
#: density puts 40–65 distinct variables into a typical case (witness
#: domains of 8+ constants would mean ``~80^50`` worlds).  Mod checks at
#: this scale only work because ``ctables_equivalent`` goes symbolic.
LARGE_TABLES = TableProfile(
    min_rows=16,
    max_rows=28,
    variables=tuple(f"v{index:02d}" for index in range(72)),
    constants=8,
    variable_density=0.6,
)

#: Single-operator queries for the large profile: one level keeps the
#: worst case at a 28×28 product — nesting products of tables this wide
#: would blow up the intermediate row count, not the variable count.
FLAT_QUERIES = QueryProfile(min_depth=1, max_depth=1)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def random_condition(rng: random.Random, profile: TableProfile = DEFAULT_TABLES):
    """A small row condition over the profile's shared variable pool."""

    def atom():
        variable = Var(rng.choice(profile.variables))
        constant = rng.randrange(profile.constants)
        return (
            eq(variable, constant)
            if rng.random() < 0.5
            else ne(variable, constant)
        )

    roll = rng.random()
    if roll < 0.15:
        return TOP
    if roll < 0.6:
        return atom()
    if roll < 0.85:
        return atom() | atom()
    return conj(atom(), atom())


def random_ctable(
    rng: random.Random, profile: TableProfile = DEFAULT_TABLES
) -> CTable:
    """A random c-table drawn from *profile*."""
    rows = []
    for _ in range(rng.randint(profile.min_rows, profile.max_rows)):
        values = tuple(
            Var(rng.choice(profile.variables))
            if rng.random() < profile.variable_density
            else rng.randrange(profile.constants)
            for _ in range(profile.arity)
        )
        rows.append((values, random_condition(rng, profile)))
    return CTable(rows, arity=profile.arity)


def _random_predicate(rng: random.Random, constants: int):
    """A selection predicate over a binary operand."""
    return rng.choice(
        [
            col_eq(0, 1),
            col_eq_const(0, rng.randrange(constants)),
            col_eq_const(1, rng.randrange(constants)),
            col_ne_const(0, rng.randrange(constants)),
            col_ne(0, 1),
        ]
    )


def random_query(
    rng: random.Random,
    profile: QueryProfile = DEFAULT_QUERIES,
    depth: Optional[int] = None,
    constants: int = 3,
):
    """A random arity-2 query over the profile's relations.

    Binary combinators recurse on both sides; ``join``/``product``
    project their four columns back down to two so every sub-query keeps
    arity 2 and set operators always line up.
    """
    if depth is None:
        depth = rng.randint(profile.min_depth, profile.max_depth)
    operators = [name for name, _ in profile.weights]
    weights = [weight for _, weight in profile.weights]

    def leaf():
        name, arity = profile.relations[rng.randrange(len(profile.relations))]
        return rel(name, arity)

    def go(level: int):
        if level == 0:
            return leaf()
        operator = rng.choices(operators, weights=weights)[0]
        if operator == "project":
            return proj(go(level - 1), [rng.randrange(2), 0])
        if operator == "select":
            return sel(go(level - 1), _random_predicate(rng, constants))
        if operator == "join":
            paired = prod(go(level - 1), go(level - 1))
            predicate = col_eq(rng.randrange(2), 2 + rng.randrange(2))
            if rng.random() < 0.3:
                predicate = conj(predicate, col_ne(0, 3))
            return proj(sel(paired, predicate), rng.sample(range(4), 2))
        if operator == "product":
            paired = prod(go(level - 1), go(level - 1))
            return proj(paired, rng.sample(range(4), 2))
        combiner = {
            "union": union, "difference": diff, "intersect": intersect,
        }[operator]
        return combiner(go(level - 1), go(level - 1))

    return go(depth)


def random_case(
    rng: random.Random,
    table_profile: TableProfile = DEFAULT_TABLES,
    query_profile: QueryProfile = DEFAULT_QUERIES,
):
    """One (query, tables) pair: every relation the profile names gets a
    table, whether or not the query ends up reading it."""
    tables = {
        name: random_ctable(rng, replace(table_profile, arity=arity))
        for name, arity in query_profile.relations
    }
    query = random_query(rng, query_profile)
    return query, tables


# ----------------------------------------------------------------------
# Execution + assertions
# ----------------------------------------------------------------------

def evaluate(
    query,
    tables: Mapping[str, CTable],
    executor: str,
    *,
    optimize: bool = True,
    simplify_conditions: bool = False,
) -> CTable:
    """Evaluate ``q̄`` through one executor mode."""
    plan = plan_for_query(query, tables, optimize=optimize)
    if executor == "interpreted":
        return execute_plan(
            plan, tables, simplify_conditions=simplify_conditions
        )
    if executor == "vectorized":
        return execute_plan_vectorized(
            plan,
            tables,
            simplify_conditions=simplify_conditions,
        )
    raise ValueError(f"unknown executor {executor!r}: one of {EXECUTORS}")


def assert_structurally_identical(
    reference: CTable, candidate: CTable, context: str = ""
) -> None:
    """Same rows, same order, same interned condition *objects*."""
    note = f" [{context}]" if context else ""
    assert len(candidate.rows) == len(reference.rows), (
        f"row count {len(candidate.rows)} != {len(reference.rows)}{note}"
    )
    for position, (expected, actual) in enumerate(
        zip(reference.rows, candidate.rows)
    ):
        assert actual.values == expected.values, (
            f"row {position}: values {actual.values!r} != "
            f"{expected.values!r}{note}"
        )
        assert actual.condition is expected.condition, (
            f"row {position}: condition {actual.condition!r} is not the "
            f"interned object {expected.condition!r}{note}"
        )
    assert candidate.arity == reference.arity, note
    assert candidate.domains == reference.domains, note
    assert candidate.global_condition is reference.global_condition, note


def assert_executors_agree(
    query,
    tables: Mapping[str, CTable],
    *,
    executors: Sequence[str] = EXECUTORS,
    check_mod: bool = True,
    context: str = "",
    **options,
) -> Dict[str, CTable]:
    """Evaluate through every executor; the first is the oracle.

    Asserts pairwise structural identity against the oracle and — when
    *check_mod* — Mod-level equivalence (``ctables_equivalent``), which
    is the Theorem-4 guarantee structural identity strengthens.
    """
    results: Dict[str, CTable] = {}
    oracle_name = executors[0]
    oracle = evaluate(query, tables, oracle_name, **options)
    results[oracle_name] = oracle
    for executor in executors[1:]:
        answered = evaluate(query, tables, executor, **options)
        results[executor] = answered
        assert_structurally_identical(
            oracle,
            answered,
            context=f"{context} {oracle_name} vs {executor}".strip(),
        )
    if check_mod and len(executors) > 1:
        last = executors[-1]
        assert ctables_equivalent(oracle, results[last]), (
            f"Mod-level divergence between {oracle_name} and {last}"
            f"{' [' + context + ']' if context else ''}"
        )
    return results


def assert_plan_modes_equivalent(
    query, tables: Mapping[str, CTable], context: str = ""
) -> None:
    """The optimized and verbatim plans must answer Mod-equivalently.

    Every optimizer rewrite is Mod-preserving (Theorem 4), so the two
    answer tables — generally *not* structurally identical — must have
    equal world sets.  ``ctables_equivalent`` decides this symbolically
    above its variable budget, which is what lets this assertion run on
    :data:`LARGE_TABLES`-scale cases no enumeration could touch.
    """
    optimized = evaluate(query, tables, "interpreted", optimize=True)
    verbatim = evaluate(query, tables, "interpreted", optimize=False)
    assert ctables_equivalent(optimized, verbatim), (
        f"optimized and verbatim plans diverge at Mod level"
        f"{' [' + context + ']' if context else ''}"
    )


# ----------------------------------------------------------------------
# Update profile: seeded mutation sequences + the delta ≡ rerun contract
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateProfile:
    """Shape of a seeded insert/delete/update/re-register sequence.

    Each step picks one relation uniformly (the touched-relation mix),
    one operation from the insert/delete/update/re-register weights,
    and a batch of ``min_batch..max_batch`` rows.  Fresh rows draw
    values and conditions from ``tables`` — the *same* shared variable
    pool as the initial data, so deltas correlate with standing rows
    through shared variables, which is exactly what stresses
    incremental condition composition against the rerun oracle.  A
    re-register replaces the relation by :func:`renamed_constants` of
    it: a different table with identical statistics.
    """

    min_steps: int = 1
    max_steps: int = 5
    min_batch: int = 1
    max_batch: int = 3
    insert_weight: float = 2.0
    delete_weight: float = 1.5
    update_weight: float = 1.0
    reregister_weight: float = 0.5
    tables: TableProfile = DEFAULT_TABLES


DEFAULT_UPDATES = UpdateProfile()

#: Churn-heavy mix: larger batches, deletes and updates dominant, so
#: cancellation, group rewrites, and set-op recomputation paths fire on
#: most steps instead of occasionally.
CHURN_UPDATES = UpdateProfile(
    max_steps=8, max_batch=5, delete_weight=3.0, update_weight=2.0
)


def random_fresh_row(
    rng: random.Random, profile: TableProfile = DEFAULT_TABLES
):
    """One ``(values, condition)`` pair shaped like the profile's rows."""
    values = tuple(
        Var(rng.choice(profile.variables))
        if rng.random() < profile.variable_density
        else rng.randrange(profile.constants)
        for _ in range(profile.arity)
    )
    return values, random_condition(rng, profile)


def renamed_constants(rng: random.Random, table: CTable) -> CTable:
    """*table* with one column's constants renamed by a bijection.

    The column's constants, in ``repr`` order and followed by the least
    integer not among them, are shifted one place along: each maps to
    the next.  Row count, conditions, and each column's constant share
    and distinct count stay as they were, so the result has the same
    ``TableStats`` as *table*.  A table without constants comes back
    equal.
    """
    columns = [
        column
        for column in range(table.arity)
        if any(isinstance(row.values[column], Const) for row in table.rows)
    ]
    if not columns:
        return table
    column = rng.choice(columns)
    values = {
        term.value
        for row in table.rows
        if isinstance(term := row.values[column], Const)
    }
    fresh = next(value for value in itertools.count() if value not in values)
    cycle = sorted(values, key=repr) + [fresh]
    rename = dict(zip(cycle, cycle[1:]))
    rows = []
    for row in table.rows:
        entries = list(row.values)
        term = entries[column]
        if isinstance(term, Const):
            entries[column] = Const(rename[term.value])
        rows.append((tuple(entries), row.condition))
    return table.spliced((), rows)


def apply_random_updates(
    rng: random.Random,
    session,
    profile: UpdateProfile = DEFAULT_UPDATES,
    relations: Optional[Sequence[str]] = None,
):
    """Drive one seeded mutation sequence through *session*.

    Deletes and updates target rows sampled from the live table by
    *position* (duplicate rows stay multiset-correct: k sampled
    positions holding equal rows remove exactly k occurrences); an
    empty relation falls back to an insert.  A re-register (of a c-table
    relation; pc-table distributions are not carried over) counts every
    row as its batch.  Returns the applied steps as ``(operation,
    relation, batch_size)`` triples for assertion context — the
    sequence itself is replayable from the rng seed.
    """
    if relations is None:
        relations = session.names()
    operations = ("insert", "delete", "update", "reregister")
    weights = (
        profile.insert_weight,
        profile.delete_weight,
        profile.update_weight,
        profile.reregister_weight,
    )
    applied = []
    for _ in range(rng.randint(profile.min_steps, profile.max_steps)):
        name = relations[rng.randrange(len(relations))]
        table = session.table(name)
        operation = rng.choices(operations, weights=weights)[0]
        if operation != "insert" and not table.rows:
            operation = "insert"
        size = rng.randint(profile.min_batch, profile.max_batch)
        shape = replace(profile.tables, arity=table.arity)
        if operation == "insert":
            batch = [random_fresh_row(rng, shape) for _ in range(size)]
            session.insert(name, batch)
        elif operation == "delete":
            positions = rng.sample(
                range(len(table.rows)), min(size, len(table.rows))
            )
            batch = [table.rows[position] for position in positions]
            session.delete(name, batch)
        elif operation == "reregister":
            batch = list(table.rows)
            session.register(name, renamed_constants(rng, table))
        else:
            positions = rng.sample(
                range(len(table.rows)), min(size, len(table.rows))
            )
            batch = [
                (table.rows[position], random_fresh_row(rng, shape))
                for position in positions
            ]
            session.update(name, batch)
        applied.append((operation, name, len(batch)))
    return applied


def assert_delta_equals_rerun(
    prepared,
    *,
    check_mod: bool = True,
    context: str = "",
) -> CTable:
    """``refresh()`` must equal a cold re-execution — structurally.

    The maintained answer is compared, row for row and condition object
    for condition object, against re-executions of the standing view's
    *frozen* plan under every executor mode (statistics drift never
    re-plans a standing view, so the frozen plan is the reference the
    structural contract is stated against).  When *check_mod*, a
    freshly planned execution is additionally checked at Mod level via
    ``ctables_equivalent_symbolic`` — the Theorem-4 guarantee, which
    must survive even a stats-driven plan change.  Usable like
    :func:`assert_executors_agree`; returns the maintained table.
    """
    session = prepared.session
    config = prepared.config
    maintained = prepared.refresh()
    view = session._views.get(
        (prepared.query, config.optimize, config.simplify_conditions)
    )
    plan = view.plan if view is not None else prepared.plan()
    tables = {
        name: session.table(name)
        for name in prepared.query.relation_names()
    }
    note = f"{context} " if context else ""
    reruns = {
        "interpreted": execute_plan(
            plan, tables, simplify_conditions=config.simplify_conditions
        ),
        "vectorized": execute_plan_vectorized(
            plan,
            tables,
            simplify_conditions=config.simplify_conditions,
        ),
    }
    for executor, rerun in reruns.items():
        assert_structurally_identical(
            rerun, maintained, context=f"{note}refresh vs {executor} rerun"
        )
    if check_mod:
        fresh = evaluate(
            prepared.query,
            tables,
            "interpreted",
            optimize=config.optimize,
            simplify_conditions=config.simplify_conditions,
        )
        assert ctables_equivalent_symbolic(maintained, fresh), (
            f"refresh diverges from the fresh plan at Mod level"
            f"{' [' + context + ']' if context else ''}"
        )
    return maintained


# ----------------------------------------------------------------------
# Probability profile: pc-tables, distributions, and multi-valued
# conditions for the WMC/Shannon/enumeration differential suites
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilityProfile:
    """Shape of generated pc-tables and their variable distributions.

    The small default keeps every case inside
    :func:`repro.logic.counting.probability_enumerate`'s reach so all
    four strategies (enumerate / Shannon / BDD model counting / compiled
    d-DNNF WMC) can be compared exactly; :data:`WIDE_PROBABILITY` is the
    enumeration-infeasible scale that only the symbolic counters handle.
    """

    arity: int = 2
    min_rows: int = 1
    max_rows: int = 4
    variables: Tuple[str, ...] = ("x", "y", "z")
    min_support: int = 2
    max_support: int = 4
    variable_density: float = 0.4
    constants: int = 3
    condition_depth: int = 2


DEFAULT_PROBABILITY = ProbabilityProfile()

#: 36 variables at support 2–3: the product space has ``>= 2^36``
#: valuations, so enumeration is out and the differential check pits the
#: two symbolic counters (Shannon expansion vs compiled d-DNNF WMC)
#: against each other.
WIDE_PROBABILITY = ProbabilityProfile(
    min_rows=3,
    max_rows=6,
    variables=tuple(f"w{index:02d}" for index in range(36)),
    min_support=2,
    max_support=3,
)

#: Distribution outcomes.  Deliberately no ``True``/``False``: Python
#: dict keys collapse ``1 == True`` and ``0 == False``, which would
#: silently merge support entries and break the sums-to-one invariant
#: (the same pitfall that makes ``BooleanPCTable`` use isinstance
#: checks).  Boolean behaviour is still covered: conditions draw
#: ``BoolVar``-free equality atoms, and truthiness enters through the
#: dedicated boolean corpora in the tests.
_OUTCOME_POOL: Tuple[Hashable, ...] = (0, 1, 2, 3, 4, "a", "b", "c")


def random_distributions(
    rng: random.Random, profile: ProbabilityProfile = DEFAULT_PROBABILITY
) -> Dict[str, Dict[Hashable, Fraction]]:
    """One exact (Fraction-weighted, sums-to-one) distribution per name."""
    distributions: Dict[str, Dict[Hashable, Fraction]] = {}
    for name in profile.variables:
        size = rng.randint(profile.min_support, profile.max_support)
        support = rng.sample(_OUTCOME_POOL, size)
        weights = [rng.randint(1, 5) for _ in support]
        total = sum(weights)
        distributions[name] = {
            value: Fraction(weight, total)
            for value, weight in zip(support, weights)
        }
    return distributions


def random_prob_condition(
    rng: random.Random,
    distributions: Mapping[str, Mapping[Hashable, Fraction]],
    depth: int = 2,
) -> Formula:
    """A random condition whose atoms stay inside the given supports."""
    names = sorted(distributions)

    def atom() -> Formula:
        name = rng.choice(names)
        support = sorted(distributions[name], key=repr)
        roll = rng.random()
        if roll < 0.45:
            return eq(Var(name), rng.choice(support))
        if roll < 0.8:
            return ne(Var(name), rng.choice(support))
        return eq(Var(name), Var(rng.choice(names)))

    def go(level: int) -> Formula:
        if level == 0 or rng.random() < 0.35:
            return atom()
        roll = rng.random()
        if roll < 0.4:
            return conj(go(level - 1), go(level - 1))
        if roll < 0.8:
            return disj(go(level - 1), go(level - 1))
        return neg(go(level - 1))

    return go(depth)


def random_wide_condition(
    rng: random.Random,
    distributions: Mapping[str, Mapping[Hashable, Fraction]],
    width: int,
) -> Formula:
    """A condition over *width* distinct variables, ring-structured.

    A disjunction of adjacent-pair conjunctions: every one of the
    *width* variables occurs, the product space is ``2^width``-plus, yet
    the low treewidth keeps both Shannon expansion (memoized) and d-DNNF
    compilation polynomial — exactly the shape where symbolic counting
    must win and enumeration cannot be run at all.
    """
    names = rng.sample(sorted(distributions), width)

    def atom(name: str) -> Formula:
        support = sorted(distributions[name], key=repr)
        value = rng.choice(support)
        if rng.random() < 0.5:
            return eq(Var(name), value)
        return ne(Var(name), value)

    clauses = [
        conj(atom(names[index]), atom(names[(index + 1) % width]))
        for index in range(width)
    ]
    return disj(*clauses)


def random_pctable(
    rng: random.Random, profile: ProbabilityProfile = DEFAULT_PROBABILITY
) -> PCTable:
    """A random pc-table drawn from *profile* (Definition 13 shape)."""
    distributions = random_distributions(rng, profile)
    rows = []
    for _ in range(rng.randint(profile.min_rows, profile.max_rows)):
        values = tuple(
            Var(rng.choice(profile.variables))
            if rng.random() < profile.variable_density
            else rng.randrange(profile.constants)
            for _ in range(profile.arity)
        )
        condition = random_prob_condition(
            rng, distributions, depth=profile.condition_depth
        )
        rows.append((values, condition))
    return PCTable(rows, distributions, arity=profile.arity)


def run_differential(
    seed: int,
    trials: int,
    *,
    table_profile: TableProfile = DEFAULT_TABLES,
    query_profile: QueryProfile = DEFAULT_QUERIES,
    executors: Sequence[str] = EXECUTORS,
    check_mod: bool = True,
    check_plan_equivalence: bool = False,
    vary_options: bool = True,
    **options,
) -> int:
    """The main differential loop: *trials* seeded (query, tables) pairs.

    ``vary_options`` additionally draws ``optimize`` and (one trial in
    five) ``simplify_conditions`` from the stream, so both planner modes
    and both sealing modes stay covered without a separate sweep.
    ``check_plan_equivalence`` adds the optimized-vs-verbatim Mod check
    of :func:`assert_plan_modes_equivalent` to every case.  Returns the
    number of cases run (for callers that count coverage).
    """
    rng = random.Random(seed)
    for trial in range(trials):
        query, tables = random_case(rng, table_profile, query_profile)
        case_options = dict(options)
        if vary_options:
            case_options.setdefault("optimize", rng.random() < 0.5)
            case_options.setdefault(
                "simplify_conditions", rng.random() < 0.2
            )
        context = f"seed={seed} trial={trial} query={query!r}"
        assert_executors_agree(
            query,
            tables,
            executors=executors,
            check_mod=check_mod,
            context=context,
            **case_options,
        )
        if check_plan_equivalence:
            assert_plan_modes_equivalent(query, tables, context=context)
    return trials
