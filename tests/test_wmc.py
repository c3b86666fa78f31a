"""Differential tests for the knowledge-compilation subsystem.

The contract under test: the one production probability route — the
compiled d-DNNF + weighted-model-counting route of
:mod:`repro.logic.compile` / :mod:`repro.prob.wmc` — returns the *same
exact* :class:`~fractions.Fraction` as the reference oracles (valuation
enumeration, the Definition-13 semantics; memoized Shannon expansion;
OBDD weighted evaluation) on every condition, and keeps agreeing with
Shannon far beyond the scale enumeration can reach.

Layers:

- ``TestDifferentialSmall`` — enumerate ≡ Shannon ≡ WMC on a seeded
  corpus of random multi-valued conditions and pc-tables (the scale
  where the exponential oracle still runs);
- ``TestModelCounts`` — on pure-boolean conditions, the d-DNNF's
  unweighted ``model_count()`` equals :meth:`repro.logic.bdd.Bdd.count_models`
  over the full variable order, and the BDD probability route agrees
  with WMC on boolean pc-tables; raw CNFs count exactly against brute
  force under awkward weights; circuit sizes and retained memory are
  pinned, and a 10,000-level circuit counts without recursion;
- ``TestWideDifferential`` — Shannon ≡ WMC on 30+-variable conditions
  (product spaces past ``2^30``: no enumeration cross-check exists, the
  two symbolic counters keep each other honest);
- ``TestClausifyRoutes`` — each clause form ``compile_condition``
  picks by shape (direct CNF, DNF complement, Tseitin) ≡ enumeration
  on seeded corpora that take all three;
- ``TestDirectClausify`` / ``TestBooleanizeFallback`` — clausifying
  straight from the condition's literals ≡ enumeration, with the
  clauses and numbering of ``booleanize`` where nothing folds, and
  ``booleanize`` reached only by literals that assert no one outcome;
- ``TestDeepNesting`` — a condition nested hundreds of levels deep
  answers through every public terminal;
- ``TestStrategyDispatch`` / ``TestEngineCircuitCache`` — no route
  knob survives anywhere, and the engine's compiled-circuit cache
  answers every lineage (hits, invalidation on re-register).
"""

from __future__ import annotations

import inspect
import random
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import pytest

from harness import (
    DEFAULT_PROBABILITY,
    WIDE_PROBABILITY,
    random_distributions,
    random_pctable,
    random_prob_condition,
    random_wide_condition,
)
from repro.engine import Dataset, Engine, ExecutionConfig
from repro.errors import ConditionError, ProbabilityError
from repro.logic.atoms import Var, boolvar, eq, ne
from repro.logic.bdd import Bdd
import repro.logic.compile as compile_module
import repro.logic.counting as counting_module
from repro.logic.cnf import AtomMap, _literal, tseitin_clauses
from repro.logic.compile import (
    DAnd,
    DDNNF,
    DLit,
    DOr,
    _clausify,
    _two_level,
    booleanize,
    compile_cnf,
    compile_condition,
    compile_formula,
    indicator,
)
from repro.logic.counting import (
    ValidatedDistributions,
    check_distributions,
    probability,
    probability_enumerate,
    probability_shannon,
)
from repro.logic.syntax import BOTTOM, TOP, conj, disj, neg
from repro.obs.metrics import global_metrics
from repro.obs.names import CLAUSIFY_TOTAL
from repro.prob import (
    BooleanPCTable,
    PCTable,
    compile_probability,
    lineage_of,
    lineage_probability_cq,
    tuple_probability_bdd,
    tuple_probability_lineage,
    tuple_probability_naive,
    wmc_probability,
)
from repro.prob.wmc import condition_supports
from repro.algebra import col_eq_const, rel, sel

X = Var("x")
Y = Var("y")


def shape_edges(kind: str, size: int):
    """(vertex count, edges) of a chain, ring, or size × size grid."""
    if kind == "chain":
        return size, [(i, i + 1) for i in range(size - 1)]
    if kind == "ring":
        return size, [(i, (i + 1) % size) for i in range(size)]
    edges = []
    for row in range(size):
        for column in range(size):
            vertex = row * size + column
            if column + 1 < size:
                edges.append((vertex, vertex + 1))
            if row + 1 < size:
                edges.append((vertex, vertex + size))
    return size * size, edges


def edge_lineage(kind: str, size: int):
    """(condition, supports) of the ``OR (x_u AND x_v)`` edge lineage of
    a shape, over boolean flags."""
    vertices, edges = shape_edges(kind, size)
    names = [f"e{vertex}" for vertex in range(vertices)]
    flags = [boolvar(name) for name in names]
    lineage = disj(*(conj(flags[u], flags[v]) for u, v in edges))
    return lineage, {name: (False, True) for name in names}


def edge_lineage_cnf(kind: str, size: int):
    """(clauses, variable count) of the Tseitin CNF of the
    ``OR (x_u AND x_v)`` edge lineage of a shape, over boolean flags."""
    boolean = booleanize(*edge_lineage(kind, size))
    clauses, atom_map, _root = tseitin_clauses(boolean)
    return clauses, len(atom_map)


def random_cnf(rng: random.Random, num_vars: int, count: int):
    """*count* random clauses of one to three literals over variables
    ``1..num_vars - 1``: units, shared variables and an unused variable."""
    clauses = []
    for _ in range(count):
        width = rng.choice([1, 2, 2, 3, 3, 3])
        variables = rng.sample(range(1, num_vars), width)
        clauses.append(
            frozenset(v if rng.random() < 0.5 else -v for v in variables)
        )
    return clauses


def brute_force_count(clauses, num_vars: int, weights=None):
    """Count the assignments over variables 1..num_vars that satisfy
    every clause, weighted by ``weights = (pos, neg)`` when given."""
    count = 0
    for bits in range(2**num_vars):
        true = {v for v in range(1, num_vars + 1) if bits >> (v - 1) & 1}
        if all(
            any((abs(lit) in true) == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            weight = 1
            if weights is not None:
                pos, negative = weights
                for v in range(1, num_vars + 1):
                    weight *= pos[v] if v in true else negative[v]
            count += weight
    return count


def random_boolean_formula(rng: random.Random, names, depth: int = 3):
    """A random propositional formula over BoolVar atoms."""
    if depth == 0 or rng.random() < 0.3:
        atom = boolvar(rng.choice(names))
        return neg(atom) if rng.random() < 0.3 else atom
    roll = rng.random()
    if roll < 0.4:
        return conj(
            random_boolean_formula(rng, names, depth - 1),
            random_boolean_formula(rng, names, depth - 1),
        )
    if roll < 0.8:
        return disj(
            random_boolean_formula(rng, names, depth - 1),
            random_boolean_formula(rng, names, depth - 1),
        )
    return neg(random_boolean_formula(rng, names, depth - 1))


class TestDifferentialSmall:
    """enumerate ≡ Shannon ≡ WMC where the exponential oracle still runs."""

    def test_random_conditions_all_strategies_agree(self):
        rng = random.Random(20260808)
        for trial in range(80):
            distributions = random_distributions(rng)
            condition = random_prob_condition(rng, distributions, depth=3)
            enumerated = probability_enumerate(condition, distributions)
            shannon = probability_shannon(condition, distributions)
            wmc = wmc_probability(condition, distributions)
            assert enumerated == shannon == wmc, (
                f"trial={trial} condition={condition!r}: "
                f"enumerate={enumerated} shannon={shannon} wmc={wmc}"
            )

    def test_random_pctables_all_strategies_agree(self):
        rng = random.Random(97)
        for trial in range(25):
            pctable = random_pctable(rng)
            probes = [(0, 0), (1, 2), (rng.randrange(3), rng.randrange(3))]
            for row in probes:
                condition = pctable.membership_condition(row)
                distributions = pctable.distributions
                routes = {
                    "tuple_probability": pctable.tuple_probability(row),
                    "enumerate": probability_enumerate(condition, distributions),
                    "shannon": probability_shannon(condition, distributions),
                }
                assert len(set(routes.values())) == 1, (
                    f"trial={trial} row={row}: {routes}"
                )

    def test_query_routes_agree_on_boolean_pctable(self):
        """naive (world image) ≡ lineage (WMC) ≡ BDD ≡ Shannon through a
        query."""
        rng = random.Random(11)
        query = sel(rel("V", 2), col_eq_const(0, 1))
        for trial in range(10):
            names = ("b0", "b1", "b2")
            rows = []
            for value in ((1, 2), (1, 3), (2, 2)):
                rows.append(
                    (value, random_boolean_formula(rng, names, depth=2))
                )
            weights = {
                name: Fraction(rng.randint(1, 4), 5) for name in names
            }
            pctable = BooleanPCTable(
                rows,
                {
                    name: {True: weight, False: 1 - weight}
                    for name, weight in weights.items()
                },
                arity=2,
            )
            for row in ((1, 2), (1, 3), (2, 2)):
                naive = tuple_probability_naive(query, pctable, row)
                lineage = tuple_probability_lineage(query, pctable, row)
                bdd = tuple_probability_bdd(query, pctable, row)
                shannon = probability_shannon(
                    lineage_of(query, pctable, row), pctable.distributions
                )
                assert naive == lineage == bdd == shannon, (
                    f"trial={trial} row={row}: naive={naive} "
                    f"lineage={lineage} bdd={bdd} shannon={shannon}"
                )


class TestModelCounts:
    """d-DNNF counting against the OBDD package, unweighted and weighted."""

    def test_ddnnf_model_counts_match_bdd(self):
        rng = random.Random(4242)
        names = ["a", "b", "c", "d", "e"]
        for trial in range(60):
            formula = random_boolean_formula(rng, names, depth=4)
            compiled = compile_formula(formula)
            manager = Bdd(names)
            node = manager.from_formula(formula)
            # compile_formula allocates CNF variables only for the atoms
            # that occur; pad the BDD count down to that variable set.
            occurring = len(formula.variables())
            bdd_count = manager.count_models(node) // (
                2 ** (len(names) - occurring)
            )
            assert compiled.circuit.model_count() == bdd_count, (
                f"trial={trial} formula={formula!r}"
            )

    #: Circuit sizes of the ``OR (x_u AND x_v)`` edge lineages of the
    #: tuple-probability benchmark shapes.  The compiler's search order
    #: and residual cache fix them exactly; a change of any figure is a
    #: change of the circuits the compiler builds.
    BLOCK_SIZES = [
        ("chain", 6, 101), ("ring", 8, 293), ("grid", 2, 70),
        ("chain", 8, 157), ("chain", 40, 1053), ("ring", 30, 1525),
        ("grid", 4, 2093), ("chain", 44, 1165), ("ring", 34, 1749),
        ("chain", 100, 2733), ("ring", 70, 3765), ("grid", 5, 6547),
    ]

    @pytest.mark.parametrize(
        "kind,size,nodes", BLOCK_SIZES,
        ids=[f"{kind}{size}" for kind, size, _ in BLOCK_SIZES],
    )
    def test_edge_lineage_circuit_sizes(self, kind, size, nodes):
        circuit = compile_cnf(*edge_lineage_cnf(kind, size))
        assert circuit.size() == nodes

    #: Circuit sizes of the same lineages through ``compile_condition``,
    #: which compiles a DNF's complement: one clause of negated literals
    #: per edge, no definition variables.
    COMPLEMENT_SIZES = [
        ("chain", 6, 29), ("ring", 8, 65), ("grid", 2, 18),
        ("chain", 8, 41), ("chain", 40, 233), ("ring", 30, 329),
        ("grid", 4, 246), ("chain", 44, 257), ("ring", 34, 377),
        ("chain", 100, 593), ("ring", 70, 809), ("grid", 5, 640),
    ]

    @pytest.mark.parametrize(
        "kind,size,nodes", COMPLEMENT_SIZES,
        ids=[f"{kind}{size}" for kind, size, _ in COMPLEMENT_SIZES],
    )
    def test_edge_lineage_complement_circuit_sizes(self, kind, size, nodes):
        compiled = compile_condition(*edge_lineage(kind, size))
        assert compiled.complemented
        assert compiled.circuit.size() == nodes
        tseitin = {(k, n): pin for k, n, pin in self.BLOCK_SIZES}
        assert nodes < tseitin[kind, size]

    @pytest.mark.parametrize("kind,size", [
        ("chain", 100), ("ring", 70), ("grid", 5),
    ])
    def test_compiled_circuit_memory(self, kind, size):
        """A compiled circuit keeps well under 1.5 MB on the largest
        benchmark shapes: nodes hold an integer variable mask, not a
        set, and the compiler's tables die with the compile."""
        clauses, num_vars = edge_lineage_cnf(kind, size)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            circuit = compile_cnf(clauses, num_vars)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert circuit.size() > 1000
        assert retained <= 1_500_000, f"{kind}{size}: {retained} bytes"

    @pytest.mark.parametrize(
        "clauses,num_vars",
        [
            ([frozenset(), frozenset({1, 2})], 2),
            ([frozenset({1}), frozenset({-1})], 1),
            (
                [frozenset({1}), frozenset({1}), frozenset({-1, 2}),
                 frozenset({2})],
                3,
            ),
            ([frozenset({1, 2}), frozenset({3, -4}), frozenset({-5, 6})], 6),
            ([frozenset({1, -2}), frozenset({2, 3})], 7),
            (
                [frozenset({1}), frozenset({-1, 2}), frozenset({-2, 3}),
                 frozenset({-3, -1, 4})],
                5,
            ),
        ],
        ids=[
            "empty-clause", "complementary-units", "repeated-units",
            "root-components", "unused-variables", "unit-chain",
        ],
    )
    def test_raw_cnf_counts(self, clauses, num_vars):
        circuit = compile_cnf(clauses, num_vars)
        assert circuit.model_count() == brute_force_count(clauses, num_vars)
        # Weights that are neither 1 nor complementary expose a literal
        # the circuit asserts twice or a variable it drops.
        weights = (
            {v: Fraction(v, v + 2) for v in range(1, num_vars + 1)},
            {v: Fraction(3, v + 1) for v in range(1, num_vars + 1)},
        )
        assert circuit.weighted_count(*weights) == brute_force_count(
            clauses, num_vars, weights
        )

    #: Literal weights the integer counter must keep exact, as
    #: ``variable -> (pos, neg)``.
    WEIGHTS = {
        "zero-weight-literal": lambda v: (
            Fraction(0) if v == 2 else Fraction(1, v + 1), Fraction(2, 3)
        ),
        "coprime-denominators": lambda v: (
            Fraction(1, 997), Fraction(5, 1009)
        ),
        "negative-weight": lambda v: (
            Fraction(-2, 7) if v % 2 else Fraction(3, 5), Fraction(4, 7)
        ),
        "unnormalized": lambda v: (Fraction(3, 2), Fraction(7, 5)),
    }

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_raw_cnf_weighted_counts_are_exact(self, name):
        rng = random.Random(1807)
        num_vars = 6
        pos, negative = {}, {}
        for v in range(1, num_vars + 1):
            pos[v], negative[v] = self.WEIGHTS[name](v)
        for trial in range(25):
            clauses = random_cnf(rng, num_vars, rng.randint(1, 7))
            circuit = compile_cnf(clauses, num_vars)
            count = circuit.weighted_count(pos, negative)
            assert isinstance(count, Fraction)
            assert count == brute_force_count(
                clauses, num_vars, (pos, negative)
            ), f"trial={trial} clauses={clauses}"

    def test_wide_model_count_is_an_exact_int(self):
        """154 variables: fifty disjoint copies of a three-variable
        block, each counted by brute force, plus four free variables."""
        block = [frozenset({1, 2}), frozenset({-2, 3}), frozenset({-1, -3, 2})]
        clauses = [
            frozenset(lit + 3 * copy * (1 if lit > 0 else -1) for lit in clause)
            for copy in range(50)
            for clause in block
        ]
        count = compile_cnf(clauses, 154).model_count()
        assert type(count) is int
        assert count == brute_force_count(block, 3) ** 50 * 2**4

    def test_deep_circuit_counts_without_recursion(self):
        """A hand-built circuit 10,000 AND/OR levels deep: the parity
        pair ``g_k = (x_k AND g_(k-1)) OR (NOT x_k AND f_(k-1))`` and
        ``f_k = (x_k AND f_(k-1)) OR (NOT x_k AND g_(k-1))`` from
        ``g_1 = x_1``, ``f_1 = NOT x_1``.  ``g_n`` has ``2^(n-1)`` models,
        and at ``p(x) = 1/3`` its weight is ``(1 + (-1/3)^n) / 2``."""
        n = 5001
        g, f = DLit(1), DLit(-1)
        for k in range(2, n + 1):
            g, f = (
                DOr((DAnd((DLit(k), g)), DAnd((DLit(-k), f)))),
                DOr((DAnd((DLit(k), f)), DAnd((DLit(-k), g)))),
            )
        circuit = DDNNF(g, n)
        assert circuit.model_count() == 2 ** (n - 1)
        pos = {v: Fraction(1, 3) for v in range(1, n + 1)}
        negative = {v: Fraction(2, 3) for v in range(1, n + 1)}
        assert circuit.weighted_count(pos, negative) == (
            1 + Fraction(-1, 3) ** n
        ) / 2

    def test_constants(self):
        assert compile_formula(TOP).circuit.model_count() == 1
        assert compile_formula(BOTTOM).circuit.model_count() == 0
        assert wmc_probability(TOP, {}) == 1
        assert wmc_probability(BOTTOM, {}) == 0


class TestWideDifferential:
    """Shannon ≡ WMC past any enumerable scale (30+ variables)."""

    @pytest.mark.parametrize("width", [30, 32])
    def test_wide_ring_conditions(self, width):
        # One pinned seed per width: memoized Shannon expansion is the
        # cross-check here and its cost is instance-dependent (seconds
        # to tens of seconds); seed 103 keeps both instances under ~2s
        # while WMC stays ~0.1s regardless.
        rng = random.Random(103)
        distributions = random_distributions(rng, WIDE_PROBABILITY)
        condition = random_wide_condition(rng, distributions, width)
        assert len(condition.variables()) == width
        shannon = probability_shannon(condition, distributions)
        wmc = wmc_probability(condition, distributions)
        assert shannon == wmc, f"width={width}"

    def test_sixty_boolean_variables(self):
        """2^60 ≈ 1.15e18 worlds: the ISSUE's headline scale, exactly."""
        flags = [boolvar(f"p{index:03d}") for index in range(60)]
        ring = disj(
            *(
                conj(flags[index], flags[(index + 1) % 60])
                for index in range(60)
            )
        )
        distributions = {
            f"p{index:03d}": {True: Fraction(1, 3), False: Fraction(2, 3)}
            for index in range(60)
        }
        compiled = compile_probability(ring, distributions)
        answer = compiled.probability()
        assert 0 < answer < 1
        assert answer.denominator == 3**60
        # The unweighted count of the same circuit must match the known
        # closed form for "some adjacent pair both true" on a 60-cycle:
        # 2^n minus the number of independent sets of the cycle C_n,
        # which is the Lucas number L(60).
        lucas = [2, 1]
        while len(lucas) <= 60:
            lucas.append(lucas[-1] + lucas[-2])
        count = compile_formula(ring).circuit.model_count()
        assert count == 2**60 - lucas[60]


class TestClausifyRoutes:
    """Each clause form of ``compile_condition`` counts exactly.

    A CNF keeps its own clauses (``direct``), a DNF compiles its
    complement (``complement``), anything else goes through Tseitin
    (``tseitin``).  Every route must give valuation enumeration's exact
    answer, on boolean and on 3–4-valued supports with uneven weights,
    and every seed's corpus must take all three routes.
    """

    BOOLEAN = ("b0", "b1", "b2")
    MULTI = ("m0", "m1", "m2")
    ROUTES = ("direct", "complement", "tseitin")

    def distributions(self, rng):
        result = {}
        for name in self.BOOLEAN:
            weight = Fraction(rng.randint(1, 6), 7)
            result[name] = {True: weight, False: 1 - weight}
        for name in self.MULTI:
            support = ("a", "b", "c", "d")[: rng.randint(3, 4)]
            weights = [rng.randint(1, 9) for _ in support]
            result[name] = {
                value: Fraction(weight, sum(weights))
                for value, weight in zip(support, weights)
            }
        return result

    def group(self, rng, distributions):
        """Two or three literals over distinct variables."""
        literals = []
        for name in rng.sample(self.BOOLEAN + self.MULTI, rng.randint(2, 3)):
            if name in self.BOOLEAN:
                atom = boolvar(name)
            else:
                atom = eq(Var(name), rng.choice(sorted(distributions[name])))
            literals.append(neg(atom) if rng.random() < 0.4 else atom)
        return literals

    def dnf(self, rng, distributions):
        return disj(*(
            conj(*self.group(rng, distributions))
            for _ in range(rng.randint(2, 4))
        ))

    def cnf(self, rng, distributions):
        return conj(*(
            disj(*self.group(rng, distributions))
            for _ in range(rng.randint(2, 4))
        ))

    def mixed(self, rng, distributions):
        """Negations over connectives and ``Var = Var`` atoms."""
        left, right = rng.sample(self.MULTI, 2)
        parts = [
            neg(self.dnf(rng, distributions)),
            neg(self.cnf(rng, distributions)),
            eq(Var(left), Var(right)),
        ]
        rng.shuffle(parts)
        connective = conj if rng.random() < 0.5 else disj
        return connective(*parts[: rng.randint(2, 3)])

    @pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
    def test_every_route_matches_enumeration(self, seed):
        rng = random.Random(seed)
        distributions = self.distributions(rng)
        conditions = [TOP, BOTTOM, boolvar("b0"), neg(eq(Var("m1"), "a"))]
        conditions.append(conj(*self.group(rng, distributions)))
        conditions.append(disj(*self.group(rng, distributions)))
        for _ in range(6):
            conditions.append(self.dnf(rng, distributions))
            conditions.append(self.cnf(rng, distributions))
            conditions.append(self.mixed(rng, distributions))
        metrics = global_metrics()
        taken = set()
        for condition in conditions:
            before = {
                route: metrics.counter_value(CLAUSIFY_TOTAL, {"route": route})
                for route in self.ROUTES
            }
            compiled = compile_probability(condition, distributions)
            moved = [
                route for route in self.ROUTES
                if metrics.counter_value(CLAUSIFY_TOTAL, {"route": route})
                > before[route]
            ]
            assert len(moved) == 1, f"{condition!r}: routes {moved}"
            assert compiled.compiled.complemented == (moved[0] == "complement")
            taken.update(moved)
            expected = probability_enumerate(condition, distributions)
            assert compiled.probability() == expected, (
                f"seed={seed} route={moved[0]} condition={condition!r}"
            )
        assert taken == set(self.ROUTES)

    def test_constants_and_single_groups_take_the_direct_route(self):
        """⊤, ⊥, a literal, one term and one clause are CNFs already."""
        supports = {"b0": (False, True), "b1": (False, True)}
        b0, b1 = boolvar("b0"), boolvar("b1")
        for condition in (TOP, BOTTOM, b0, conj(b0, neg(b1)), disj(b0, b1)):
            assert not compile_condition(condition, supports).complemented
        assert compile_condition(
            disj(b0, conj(b0, b1)), supports
        ).complemented


class TestDirectClausify:
    """Clausifying a condition from its own literals ≡ enumeration.

    Seeded CNFs and DNFs over boolean flags, two-valued, singleton and
    3–4-valued supports, with negations, values outside the support,
    duplicate literals and ``x ∧ ¬x`` within a group.  Where no literal
    folds or merges, the clauses and the numbering are exactly those
    that :func:`booleanize` and ``_two_level`` give.
    """

    def distributions(self, rng):
        weight = Fraction(rng.randint(1, 6), 7)
        result = {
            "b0": {True: weight, False: 1 - weight},
            "b1": {True: 1 - weight, False: weight},
            "t0": {1: Fraction(2, 5), 2: Fraction(3, 5)},
            "t1": {"lo": Fraction(1, 9), "hi": Fraction(8, 9)},
            "s0": {"only": Fraction(1)},
            # Zero weight: "c" is outside the support.
            "z0": {"a": Fraction(1, 4), "b": Fraction(3, 4), "c": Fraction(0)},
            # One truthy outcome, so the flag is one one-hot variable.
            "f0": {0: Fraction(1, 6), "": Fraction(2, 6), "on": Fraction(3, 6)},
        }
        for name in ("m0", "m1"):
            support = ("a", "b", "c", "d")[: rng.randint(3, 4)]
            weights = [rng.randint(1, 9) for _ in support]
            result[name] = {
                value: Fraction(w, sum(weights))
                for value, w in zip(support, weights)
            }
        return result

    def literal(self, rng, distributions):
        name = rng.choice(sorted(distributions))
        if name in ("b0", "b1", "f0") and rng.random() < 0.5:
            atom = boolvar(name)
        else:
            values = sorted(distributions[name], key=repr)
            if rng.random() < 0.1:
                values = ["absent"]
            atom = eq(Var(name), rng.choice(values))
        return neg(atom) if rng.random() < 0.35 else atom

    def condition(self, rng, distributions):
        inner, outer = (conj, disj) if rng.random() < 0.5 else (disj, conj)
        return outer(*(
            inner(*(
                self.literal(rng, distributions)
                for _ in range(rng.randint(1, 3))
            ))
            for _ in range(rng.randint(1, 4))
        ))

    @staticmethod
    def reference(formula, supports):
        """Clauses and numbering through ``booleanize`` + ``_two_level``."""
        boolean = booleanize(formula, supports)
        groups, complemented = _two_level(boolean)
        sign, atom_map = (-1 if complemented else 1), AtomMap()
        clauses = [
            frozenset(sign * _literal(literal, atom_map) for literal in group)
            for group in groups
        ]
        numbers = {
            (atom.name, atom.value): atom_map.index_of(atom)
            for atom in atom_map.atoms()
        }
        return groups, clauses, numbers, complemented

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_direct_clauses_match_enumeration_and_booleanize(self, seed):
        rng = random.Random(seed)
        distributions = self.distributions(rng)
        compared = 0
        for trial in range(80):
            condition = self.condition(rng, distributions)
            supports = condition_supports(condition, distributions)
            shape = _clausify(condition, supports)
            assert shape is not None, f"trial={trial} {condition!r}"
            expected = probability_enumerate(condition, distributions)
            assert compile_probability(
                condition, distributions
            ).probability() == expected, f"seed={seed} trial={trial} {condition!r}"
            groups, clauses, numbers, complemented = self.reference(
                condition, supports
            )
            source, _ = _two_level(condition)
            if [len(group) for group in groups] != [
                len(group) for group in source
            ]:
                continue  # a literal folded or merged
            compared += 1
            assert shape.clauses == clauses, f"trial={trial} {condition!r}"
            assert shape.numbers == numbers, f"trial={trial} {condition!r}"
            assert (shape.route == "complement") == complemented
        assert compared >= 12, f"seed={seed}: only {compared} compared"

    def test_folds_and_merges_count_exactly(self):
        """The cases booleanize simplifies away, one by one."""
        distributions = self.distributions(random.Random(3))
        b0, t0, s0, z0 = (Var(name) for name in ("b0", "t0", "s0", "z0"))
        conditions = [
            conj(eq(t0, 1), eq(t0, 2)),  # x ∧ ¬x in one term
            disj(conj(eq(t0, 1), eq(t0, 2)), boolvar("b1")),
            disj(eq(t0, 1), eq(t0, 2)),  # x ∨ ¬x in one clause
            conj(disj(eq(t0, 1), ne(t0, 2)), boolvar("b1")),  # duplicates
            disj(conj(boolvar("b0"), eq(b0, True)), eq(s0, "only")),
            disj(conj(eq(z0, "c"), boolvar("b1")), ne(s0, "only")),
            conj(disj(eq(z0, "c"), ne(z0, "absent")), eq(Var("m0"), "b")),
            disj(conj(boolvar("f0"), ne(Var("m1"), "a")), eq(z0, "a")),
        ]
        for condition in conditions:
            assert _clausify(
                condition, condition_supports(condition, distributions)
            ) is not None
            assert compile_probability(
                condition, distributions
            ).probability() == probability_enumerate(
                condition, distributions
            ), f"{condition!r}"


class TestBooleanizeFallback:
    """``booleanize`` runs only for literals that map to no one outcome."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Outermost ``booleanize`` calls (its recursion is not counted)."""
        calls = []
        depth = [0]
        original = compile_module.booleanize

        def counted(formula, supports):
            if not depth[0]:
                calls.append(formula)
            depth[0] += 1
            try:
                return original(formula, supports)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(compile_module, "booleanize", counted)
        return calls

    @pytest.mark.parametrize(
        "kind,size", [(k, n) for k, n, _ in TestModelCounts.COMPLEMENT_SIZES]
    )
    def test_lineage_shapes_skip_booleanize(self, calls, kind, size):
        compiled = compile_condition(*edge_lineage(kind, size))
        assert compiled.complemented
        assert calls == []

    def test_cnf_skips_booleanize(self, calls):
        supports = {"x": (1, 2, 3), "b": (False, True), "y": (1, 2)}
        condition = conj(
            disj(eq(X, 1), boolvar("b")), disj(ne(X, 3), eq(Y, 2)), eq(Y, 1)
        )
        assert not compile_condition(condition, supports).complemented
        assert calls == []

    def test_unmapped_literals_take_booleanize_once(self, calls):
        supports = {
            "x": (1, 2, 3), "y": (2, 3), "b": (False, True), "n": (0, 1, 2),
        }
        conditions = [
            disj(conj(eq(X, Y), boolvar("b")), eq(X, 1)),  # Var = Var
            conj(disj(boolvar("n"), eq(X, 2)), ne(Y, 3)),  # two truthy
            neg(conj(boolvar("b"), eq(X, 3))),  # a Not over a connective
        ]
        for condition in conditions:
            calls.clear()
            compile_condition(condition, supports)
            assert calls == [condition]

    @pytest.mark.parametrize("condition", [
        eq(X, 1), boolvar("w"), disj(conj(eq(X, 1), eq(Y, 2)), eq(X, 2)),
        eq(X, Y),
    ], ids=["eq", "flag", "dnf", "var-var"])
    def test_missing_distribution_raises_the_same_error(self, condition):
        missing = sorted(condition.variables())[-1]
        supports = {
            name: (1, 2) for name in condition.variables() if name != missing
        }
        with pytest.raises(ConditionError, match=(
            f"no distribution covers condition variable {missing!r}"
        )):
            compile_condition(condition, supports)


class TestBooleanization:
    """The multi-valued-to-boolean encoding layer, unit by unit."""

    def test_indicator_roundtrip(self):
        atom = indicator("x", "red")
        assert (atom.name, atom.value) == ("x", "red")
        assert atom is indicator("x", "red")  # hash-consed

    def test_singleton_support_collapses_to_constants(self):
        supports = {"x": (5,)}
        assert booleanize(eq(X, 5), supports) is TOP
        assert booleanize(ne(X, 5), supports) is BOTTOM

    def test_two_valued_support_uses_one_proposition(self):
        supports = {"x": (1, 2)}
        encoded = booleanize(eq(X, 2), supports)
        assert encoded is neg(indicator("x", 1))

    def test_variable_variable_equality(self):
        distributions = {
            "x": {1: Fraction(1, 2), 2: Fraction(1, 2)},
            "y": {2: Fraction(1, 3), 3: Fraction(2, 3)},
        }
        # Supports intersect only at 2: P[x=2] * P[y=2].
        assert wmc_probability(eq(X, Y), distributions) == Fraction(1, 6)

    def test_uniform_three_valued(self):
        distributions = {"x": {value: Fraction(1, 3) for value in (1, 2, 3)}}
        assert wmc_probability(eq(X, 2), distributions) == Fraction(1, 3)
        assert wmc_probability(ne(X, 2), distributions) == Fraction(2, 3)

    def test_exactly_one_constraint_enforced(self):
        """One-hot indicators cannot double-fire: P[x=1 ∧ x=2] = 0 and
        the three indicator events partition the space."""
        distributions = {
            "x": {1: Fraction(1, 6), 2: Fraction(2, 6), 3: Fraction(3, 6)}
        }
        assert wmc_probability(
            conj(eq(X, 1), eq(X, 2)), distributions
        ) == 0
        assert wmc_probability(
            disj(eq(X, 1), eq(X, 2), eq(X, 3)), distributions
        ) == 1

    def test_zero_weight_outcomes_are_dropped(self):
        distributions = {
            "x": {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)}
        }
        assert wmc_probability(eq(X, 3), distributions) == 0
        assert wmc_probability(ne(X, 3), distributions) == 1

    def test_missing_distribution_raises(self):
        with pytest.raises(ProbabilityError):
            wmc_probability(eq(X, 1), {})

    def test_compile_condition_circuit_is_inspectable(self):
        supports = {"x": (1, 2, 3)}
        compiled = compile_condition(eq(X, 1), supports)
        assert compiled.circuit.size() > 0
        assert compiled.supports["x"] == (1, 2, 3)


class TestDeepNesting:
    """A deeply nested condition answers through every public terminal."""

    DEPTH = 400

    def test_alternating_nest_answers_through_every_terminal(self):
        """A 4-variable ``And``/``Or`` nest 400 levels deep: both the
        pc-table and the session terminal count it at the default
        recursion limit."""
        flags = [boolvar(f"b{index}") for index in range(4)]
        condition = flags[0]
        for level in range(1, self.DEPTH + 1):
            connective = conj if level % 2 else disj
            condition = connective(condition, flags[level % 4])
        distributions = {
            f"b{index}": {True: Fraction(index + 1, 6),
                          False: Fraction(5 - index, 6)}
            for index in range(4)
        }
        pctable = PCTable([(("a",), condition)], distributions, arity=1)
        # The oracle's recursive evaluator takes several frames a level;
        # only its call runs under a raised limit.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 4 * self.DEPTH)
        try:
            expected = probability_enumerate(condition, distributions)
        finally:
            sys.setrecursionlimit(limit)
        assert 0 < expected < 1
        assert pctable.tuple_probability(("a",)) == expected
        session = Engine().session(P=pctable)
        assert session.query("P").probability(("a",)) == expected


class TestStrategyDispatch:
    """One probability route: no knob, env var or keyword picks another."""

    DIST = {"x": {1: Fraction(1, 4), 2: Fraction(3, 4)}}

    def test_unknown_strategy_rejected(self):
        """No public probability entry point takes ``strategy=``."""
        entry_points = [
            probability,
            tuple_probability_lineage,
            lineage_probability_cq,
            PCTable.tuple_probability,
            Engine.condition_probability,
            Dataset.probability,
        ]
        for entry_point in entry_points:
            parameters = inspect.signature(entry_point).parameters
            assert "strategy" not in parameters, entry_point.__qualname__
        with pytest.raises(TypeError):
            probability(eq(X, 1), self.DIST, strategy="wmc")

    def test_config_knob_validates(self):
        with pytest.raises(TypeError):
            ExecutionConfig(prob_strategy="wmc")
        with pytest.raises(TypeError):
            Engine(prob_strategy="wmc")
        assert len(fields(ExecutionConfig)) == 9

    def test_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROB_STRATEGY", "guess")
        assert probability(eq(X, 1), self.DIST) == Fraction(1, 4)
        answer = Engine().condition_probability(eq(X, 1), self.DIST)
        assert answer == Fraction(1, 4)


@pytest.fixture
def prob_session():
    engine = Engine()
    pctable = PCTable(
        [((1, X), TOP), ((2, Y), eq(Y, 20))],
        {
            "x": {10: Fraction(1, 2), 11: Fraction(1, 2)},
            "y": {20: Fraction(1, 4), 21: Fraction(3, 4)},
        },
        arity=2,
    )
    return engine, engine.session(V=pctable), pctable


class TestEngineCircuitCache:
    """Compiled circuits are cached per engine and evicted on register."""

    QUERY = sel(rel("V", 2), col_eq_const(0, 2))

    def test_repeated_probability_hits_the_cache(self, prob_session):
        """Every lineage goes through the circuit cache, a one-variable
        one included."""
        engine, session, _ = prob_session
        prepared = session.prepare(self.QUERY)
        assert len(prepared.dataset().lineage((2, 20)).variables()) == 1
        before = engine.circuit_cache_stats()
        first = prepared.dataset().probability((2, 20))
        assert first == Fraction(1, 4)
        after_first = engine.circuit_cache_stats()
        assert after_first["misses"] == before["misses"] + 1
        for _ in range(5):
            assert prepared.dataset().probability((2, 20)) == first
        after = engine.circuit_cache_stats()
        assert after["hits"] >= before["hits"] + 5
        assert after["misses"] == after_first["misses"]

    def test_register_invalidates_circuits(self, prob_session):
        engine, session, pctable = prob_session
        prepared = session.prepare(self.QUERY)
        prepared.dataset().probability((2, 20))
        assert engine.circuit_cache_stats()["entries"] == 1
        session.register("V", pctable)
        assert engine.circuit_cache_stats()["entries"] == 0
        assert engine.circuit_cache_stats()["invalidations"] >= 1

    def test_strategy_override_agrees_with_cacheless_routes(
        self, prob_session
    ):
        """The cached route agrees with both oracles on the lineage."""
        _, session, pctable = prob_session
        dataset = session.prepare(self.QUERY).dataset()
        lineage = dataset.lineage((2, 20))
        answers = {
            "dataset": dataset.probability((2, 20)),
            "enumerate": probability_enumerate(lineage, pctable.distributions),
            "shannon": probability_shannon(lineage, pctable.distributions),
        }
        assert set(answers.values()) == {Fraction(1, 4)}

    def test_disabled_cache_still_correct(self):
        engine = Engine(circuit_cache_size=0)
        pctable = PCTable(
            [((2, Y), eq(Y, 20))],
            {"y": {20: Fraction(1, 4), 21: Fraction(3, 4)}},
            arity=2,
        )
        session = engine.session(V=pctable)
        dataset = session.prepare(self.QUERY).dataset()
        assert dataset.probability((2, 20)) == Fraction(1, 4)
        assert dataset.probability((2, 20)) == Fraction(1, 4)
        assert engine.circuit_cache_stats()["entries"] == 0

    def test_condition_probability_direct(self):
        engine = Engine()
        distributions = {"x": {1: Fraction(1, 2), 2: Fraction(1, 2)}}
        answer = engine.condition_probability(eq(X, 1), distributions)
        assert answer == Fraction(1, 2)
        with pytest.raises(ProbabilityError):
            engine.condition_probability(eq(Y, 1), distributions)


class TestValidatedDistributions:
    """Distributions are validated once, and every raw map still is."""

    HALF_MASS = {"x": {1: Fraction(1, 4), 2: Fraction(1, 4)}}
    NEGATIVE = {"x": {1: Fraction(3, 2), 2: Fraction(-1, 2)}}
    # The bad variable is outside the condition: validation is of the
    # whole map, not of the condition's variables.
    BAD_BYSTANDER = {
        "x": {1: Fraction(1, 2), 2: Fraction(1, 2)},
        "y": {1: Fraction(1, 2)},
    }
    INVALID = [HALF_MASS, NEGATIVE, BAD_BYSTANDER]

    @pytest.mark.parametrize("distributions", INVALID)
    def test_raw_invalid_map_raises_under_every_strategy(self, distributions):
        """The production route and both oracles validate a raw map."""
        for route in (probability, probability_enumerate, probability_shannon):
            with pytest.raises(ProbabilityError):
                route(eq(X, 1), distributions)

    @pytest.mark.parametrize("distributions", INVALID)
    def test_raw_invalid_map_raises_through_wmc(self, distributions):
        with pytest.raises(ProbabilityError):
            wmc_probability(eq(X, 1), distributions)

    @pytest.mark.parametrize("distributions", INVALID)
    def test_raw_invalid_map_raises_through_engine(self, distributions):
        engine = Engine()
        with pytest.raises(ProbabilityError):
            engine.condition_probability(eq(X, 1), distributions)

    def test_engine_validates_raw_map_on_a_circuit_cache_hit(self):
        engine = Engine()
        condition = eq(X, 1)
        valid = {"x": {1: Fraction(1, 2), 2: Fraction(1, 2)}}
        assert engine.condition_probability(condition, valid) == Fraction(1, 2)
        # Same condition, same restriction to its variables: the circuit
        # cache key matches, but the map as a whole is invalid.
        with pytest.raises(ProbabilityError):
            engine.condition_probability(condition, self.BAD_BYSTANDER)

    def test_validated_map_is_read_only(self):
        pctable = PCTable(
            [((X,), TOP)], {"x": {1: Fraction(1, 3), 2: Fraction(2, 3)}}
        )
        distributions = pctable.distributions
        assert isinstance(distributions, ValidatedDistributions)
        assert check_distributions(distributions) is distributions
        with pytest.raises(TypeError):
            distributions["z"] = {1: Fraction(1)}
        with pytest.raises(TypeError):
            distributions["x"][1] = Fraction(1)
        with pytest.raises(TypeError):
            distributions.update({})
        with pytest.raises(TypeError):
            del distributions["x"]
        assert distributions == {"x": {1: Fraction(1, 3), 2: Fraction(2, 3)}}

    @pytest.mark.parametrize("width", [4, 12])
    def test_session_probability_does_not_revalidate(self, monkeypatch, width):
        """A probability op validates nothing: its cost follows the
        lineage, not the size of the session's distribution map."""
        calls = []
        original = counting_module.check_distribution

        def counted(name, distribution):
            calls.append(name)
            original(name, distribution)

        monkeypatch.setattr(counting_module, "check_distribution", counted)
        flags = [boolvar(f"p{index}") for index in range(width)]
        bystanders = {
            f"q{index}": {True: Fraction(1, 2), False: Fraction(1, 2)}
            for index in range(50)
        }
        distributions = {
            **{f"p{index}": {True: Fraction(1, 3), False: Fraction(2, 3)}
               for index in range(width)},
            **bystanders,
        }
        engine = Engine()
        session = engine.session(
            P=PCTable([(("a",), disj(*flags))], distributions, arity=1)
        )
        assert len(calls) == width + 50  # construction validates each once
        calls.clear()
        answer = session.query("sigma[1='a'](P)").probability(("a",))
        assert answer == 1 - Fraction(2, 3) ** width
        assert calls == []


    def test_session_merges_once_per_registry_state(self, monkeypatch):
        import repro.engine.session as session_module

        merges = []
        original = session_module.merge_distributions

        def counted(sources):
            merges.append(len(sources))
            return original(sources)

        monkeypatch.setattr(session_module, "merge_distributions", counted)
        half = {True: Fraction(1, 2), False: Fraction(1, 2)}
        session = Engine().session(
            P=PCTable([(("a",), boolvar("p"))], {"p": half}, arity=1),
            Q=PCTable([(("b",), boolvar("q"))], {"q": half}, arity=1),
        )
        for _ in range(3):
            assert session.query("P").probability(("a",)) == Fraction(1, 2)
            assert session.query("Q").probability(("b",)) == Fraction(1, 2)
        assert merges == [2]
        session.register(
            "Q", PCTable([(("b",), boolvar("r"))], {"r": half}, arity=1)
        )
        assert session.query("Q").probability(("b",)) == Fraction(1, 2)
        assert merges == [2, 2]


class TestHarnessProfile:
    """The probability profile itself stays sound (sums, supports)."""

    def test_distributions_are_exact_and_normalized(self):
        rng = random.Random(5)
        for profile in (DEFAULT_PROBABILITY, WIDE_PROBABILITY):
            distributions = random_distributions(rng, profile)
            assert set(distributions) == set(profile.variables)
            for dist in distributions.values():
                assert sum(dist.values()) == 1
                assert all(
                    isinstance(weight, Fraction) for weight in dist.values()
                )
                # No bool outcomes: 1 == True would collide as dict keys.
                assert not any(
                    isinstance(value, bool) for value in dist
                )

    def test_conditions_stay_inside_the_pool(self):
        rng = random.Random(6)
        distributions = random_distributions(rng)
        for _ in range(20):
            condition = random_prob_condition(rng, distributions)
            assert condition.variables() <= set(distributions)
