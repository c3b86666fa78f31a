"""Tests for symbolic condition equivalence.

Three layers of evidence that
:func:`repro.logic.equality_sat.equivalent_conditions` (the SAT +
equality-theory loop) is an honest replacement for world enumeration:

1. **Engine agreement** — randomized seeded formulas (propositional,
   equality, and mixed) decided by the loop, by an independent
   test-side BDD decider, and by the enumeration oracle,
   ``is_satisfiable_finite`` over the ``witness_domain`` of the
   symmetric difference.
2. **Oracle agreement** — the verdicts of the loop (``sat``) and of the
   BDD decider (``bdd``) cross-checked against
   brute-force truth tables (propositional formulas) and the
   witness-domain oracle (equality formulas); the adversarial edge
   cases run through both deciders and through ``both``, which asserts
   that they agree.
3. **Table level** — ``ctables_equivalent_symbolic`` against enumerated
   world-set comparison on small corpora, the documented conservative
   case, the dispatcher's ``enumerate=`` forcing knob, and a
   100-variable pair no enumeration could ever decide.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import UnsupportedOperationError
from repro.logic.atoms import Var, boolvar, eq, ne
from repro.logic.bdd import ONE, ZERO, Bdd
from repro.logic.equality_sat import (
    distinguishing_assignment,
    equivalent_conditions,
    is_satisfiable_finite,
    witness_domain,
    xor_condition,
)
from repro.logic.evaluation import evaluate
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    conj,
    disj,
    neg,
)
from repro.tables.ctable import CTable
from repro.worlds.compare import (
    SYMBOLIC_VARIABLE_BUDGET,
    ctables_equivalent,
    ctables_equivalent_symbolic,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
A, B, C = boolvar("a"), boolvar("b"), boolvar("c")


# ----------------------------------------------------------------------
# Random formula generators (seeded, reproducible)
# ----------------------------------------------------------------------

def random_boolean_formula(rng, names=("a", "b", "c", "d"), depth=3):
    if depth == 0 or rng.random() < 0.3:
        return boolvar(rng.choice(names))
    roll = rng.random()
    if roll < 0.3:
        return neg(random_boolean_formula(rng, names, depth - 1))
    combiner = conj if roll < 0.65 else disj
    return combiner(
        random_boolean_formula(rng, names, depth - 1),
        random_boolean_formula(rng, names, depth - 1),
    )


def random_equality_formula(rng, names=("x", "y", "z"), depth=3):
    def atom():
        variable = Var(rng.choice(names))
        other = (
            Var(rng.choice(names))
            if rng.random() < 0.4
            else rng.randrange(3)
        )
        return eq(variable, other) if rng.random() < 0.7 else ne(variable, other)

    if depth == 0 or rng.random() < 0.3:
        return atom()
    roll = rng.random()
    if roll < 0.25:
        return neg(random_equality_formula(rng, names, depth - 1))
    combiner = conj if roll < 0.6 else disj
    return combiner(
        random_equality_formula(rng, names, depth - 1),
        random_equality_formula(rng, names, depth - 1),
    )


def oracle_equivalent(left, right):
    """Equivalence by enumerating the difference's witness domain."""
    difference = xor_condition(left, right)
    return not is_satisfiable_finite(difference, witness_domain(difference))


def _compile_opaque(manager, names, formula):
    """Compile *formula* with every atom as one opaque BDD variable."""
    if isinstance(formula, Top):
        return manager.true()
    if isinstance(formula, Bottom):
        return manager.false()
    if formula in names:
        return manager.var(names[formula])
    if isinstance(formula, Not):
        return manager.neg(_compile_opaque(manager, names, formula.child))
    if isinstance(formula, And):
        node = ONE
        for child in formula.children:
            node = manager.conj(node, _compile_opaque(manager, names, child))
        return node
    if isinstance(formula, Or):
        node = ZERO
        for child in formula.children:
            node = manager.disj(node, _compile_opaque(manager, names, child))
        return node
    raise TypeError(f"cannot compile {formula!r}")


def bdd_equivalent(left, right):
    """Equivalence by an opaque-atom BDD of the symmetric difference.

    Each root-to-⊤ path of the reduced BDD is a conjunction of atom
    literals; the pair is equivalent iff no path is consistent over the
    infinite domain, which the witness-domain oracle checks path by
    path.  Nothing here runs the SAT + equality-theory loop.
    """
    atoms = sorted(left.atoms() | right.atoms(), key=repr)
    names = {atom: f"a{index}" for index, atom in enumerate(atoms)}
    manager = Bdd([names[atom] for atom in atoms])
    left_node = _compile_opaque(manager, names, left)
    right_node = _compile_opaque(manager, names, right)
    difference = manager.disj(
        manager.conj(left_node, manager.neg(right_node)),
        manager.conj(manager.neg(left_node), right_node),
    )

    def consistent_path(node, position, literals):
        if node == ZERO:
            return False
        if node == ONE:
            path: Formula = conj(*literals)
            return is_satisfiable_finite(path, witness_domain(path))
        atom = atoms[position]
        low = manager.restrict(node, names[atom], False)
        high = manager.restrict(node, names[atom], True)
        if low == high:
            return consistent_path(low, position + 1, literals)
        return consistent_path(
            low, position + 1, literals + [neg(atom)]
        ) or consistent_path(high, position + 1, literals + [atom])

    return not consistent_path(difference, 0, [])


DECIDERS = ("sat", "bdd", "both")


def decide_equivalent(left, right, decider):
    """Decide equivalence with the loop, the BDD decider, or both."""
    if decider == "sat":
        return equivalent_conditions(left, right)
    if decider == "bdd":
        return bdd_equivalent(left, right)
    sat_verdict = equivalent_conditions(left, right)
    bdd_verdict = bdd_equivalent(left, right)
    assert sat_verdict == bdd_verdict, (
        f"sat={sat_verdict} bdd={bdd_verdict} on {left!r} vs {right!r}"
    )
    return sat_verdict


def boolean_truth_table(formula, names):
    rows = []
    for values in itertools.product([False, True], repeat=len(names)):
        valuation = dict(zip(names, values))
        rows.append(evaluate(formula, valuation))
    return rows


# ----------------------------------------------------------------------
# Engine agreement on random formulas
# ----------------------------------------------------------------------

class TestEngineAgreement:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_sat_and_bdd_agree_on_boolean_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            left = random_boolean_formula(rng)
            right = random_boolean_formula(rng)
            # "both" asserts that the loop and the BDD decider agree.
            assert decide_equivalent(
                left, right, "both"
            ) == oracle_equivalent(left, right), f"{left!r} vs {right!r}"

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_sat_and_bdd_agree_on_equality_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            left = random_equality_formula(rng)
            right = random_equality_formula(rng)
            # "both" asserts that the loop and the BDD decider agree.
            assert decide_equivalent(
                left, right, "both"
            ) == oracle_equivalent(left, right), f"{left!r} vs {right!r}"

    @pytest.mark.parametrize("seed", [31, 32])
    def test_sat_and_bdd_agree_on_mixed_formulas(self, seed):
        # BoolVar and Eq atoms in one formula: booleans are free
        # two-valued propositions, equalities go through the theory.
        rng = random.Random(seed)
        for _ in range(30):
            left = conj(
                random_boolean_formula(rng, depth=2),
                random_equality_formula(rng, depth=2),
            )
            right = disj(
                random_boolean_formula(rng, depth=2),
                random_equality_formula(rng, depth=2),
            )
            assert decide_equivalent(left, left, "both")
            # "both" asserts that the loop and the BDD decider agree.
            assert decide_equivalent(
                left, right, "both"
            ) == oracle_equivalent(left, right), f"{left!r} vs {right!r}"

    def test_unknown_engine_rejected(self):
        # One decision procedure: there is no engine to choose.
        left, right = CTable([((1,), A)]), CTable([((1,), B)])
        for engine in ("sat", "bdd", "both"):
            with pytest.raises(TypeError):
                equivalent_conditions(A, B, engine=engine)
            with pytest.raises(TypeError):
                ctables_equivalent_symbolic(left, right, engine=engine)
            with pytest.raises(TypeError):
                ctables_equivalent(left, right, engine=engine)


# ----------------------------------------------------------------------
# Oracle agreement: brute force and the small-model procedures
# ----------------------------------------------------------------------

class TestOracleAgreement:
    @pytest.mark.parametrize("decider", ["sat", "bdd"])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_boolean_verdicts_match_truth_tables(self, seed, decider):
        names = ("a", "b", "c", "d")
        rng = random.Random(seed)
        for _ in range(30):
            left = random_boolean_formula(rng, names)
            right = random_boolean_formula(rng, names)
            expected = boolean_truth_table(left, names) == boolean_truth_table(
                right, names
            )
            assert (
                decide_equivalent(left, right, decider) == expected
            ), f"{left!r} vs {right!r}"

    @pytest.mark.parametrize("decider", ["sat", "bdd"])
    @pytest.mark.parametrize("seed", [51, 52])
    def test_equality_verdicts_match_equivalent_infinite(self, seed, decider):
        # Expected verdicts: equivalence over the infinite domain, decided
        # by enumerating the difference's witness domain.
        rng = random.Random(seed)
        for _ in range(30):
            left = random_equality_formula(rng)
            right = random_equality_formula(rng)
            expected = oracle_equivalent(left, right)
            assert (
                decide_equivalent(left, right, decider) == expected
            ), f"{left!r} vs {right!r}"


# ----------------------------------------------------------------------
# Adversarial edge cases
# ----------------------------------------------------------------------

class TestEdgeCases:
    @pytest.mark.parametrize("decider", DECIDERS)
    def test_de_morgan(self, decider):
        left = neg(conj(A, B))
        right = disj(neg(A), neg(B))
        assert decide_equivalent(left, right, decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_xor_shape_not_equivalent_to_or(self, decider):
        exclusive = xor_condition(A, B)
        assert not decide_equivalent(exclusive, disj(A, B), decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_contradiction_via_distinct_constants(self, decider):
        # x=0 ∧ x=1 is unsat over any domain: the theory closure must
        # reject the propositional model that sets both atoms true.
        assert decide_equivalent(conj(eq(X, 0), eq(X, 1)), BOTTOM, decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_tautology_via_excluded_middle_on_equality(self, decider):
        assert decide_equivalent(disj(eq(X, 0), ne(X, 0)), TOP, decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_infinite_domain_no_finite_cover(self, decider):
        # x=0 ∨ x=1 covers a 2-value domain but not the infinite one —
        # the classic place a finite-enumeration mindset goes wrong.
        assert not decide_equivalent(disj(eq(X, 0), eq(X, 1)), TOP, decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_congruence_through_transitivity(self, decider):
        # x=y ∧ y=z ∧ x≠z is unsat only through the union-find closure.
        chain = conj(eq(X, Y), eq(Y, Z), ne(X, Z))
        assert decide_equivalent(chain, BOTTOM, decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_constants_pin_variable_equality(self, decider):
        # Under x=1 ∧ y=1 the atom x=y is forced: the conjunctions with
        # and without it are equivalent — but x=y alone is not implied.
        pinned = conj(eq(X, 1), eq(Y, 1))
        assert decide_equivalent(pinned, conj(pinned, eq(X, Y)), decider)
        assert not decide_equivalent(pinned, eq(X, Y), decider)

    @pytest.mark.parametrize("decider", DECIDERS)
    def test_boolvar_is_two_valued_not_domain_valued(self, decider):
        # a ∨ ¬a is a tautology for propositions — no infinite-domain
        # caveat applies to BoolVar atoms.
        assert decide_equivalent(disj(A, neg(A)), TOP, decider)

    def test_distinguishing_assignment_is_a_real_witness(self):
        left = conj(A, B)
        right = A
        witness = distinguishing_assignment(left, right)
        assert witness is not None
        valuation = {atom.name: value for atom, value in witness.items()}
        assert evaluate(left, valuation) != evaluate(right, valuation)

    def test_distinguishing_assignment_none_for_equivalent(self):
        assert distinguishing_assignment(conj(A, B), conj(B, A)) is None

    def test_empty_witness_means_comparing_against_none(self):
        # TOP vs BOTTOM differ under *every* valuation: the witness is
        # the empty assignment, which is falsy but not None.
        witness = distinguishing_assignment(TOP, BOTTOM)
        assert witness is not None
        assert witness == {}


# ----------------------------------------------------------------------
# Table-level: ctables_equivalent_symbolic and the dispatcher
# ----------------------------------------------------------------------

class TestSymbolicTables:
    def test_condition_reordering_is_equivalent(self):
        rows = [((Var("x"), 1), conj(eq(X, 0), ne(Y, 2)))]
        swapped = [((Var("x"), 1), conj(ne(Y, 2), eq(X, 0)))]
        left = CTable(rows, arity=2)
        right = CTable(swapped, arity=2)
        assert ctables_equivalent_symbolic(left, right)

    def test_split_row_condition_is_equivalent(self):
        # One row under c is the same as two copies under c∧d and c∧¬d.
        condition = eq(X, 0)
        whole = CTable([((1, 2), condition)], arity=2)
        split = CTable(
            [
                ((1, 2), conj(condition, eq(Y, 1))),
                ((1, 2), conj(condition, ne(Y, 1))),
            ],
            arity=2,
        )
        assert ctables_equivalent_symbolic(whole, split)

    def test_differing_ground_tuple_is_not_equivalent(self):
        left = CTable([((1, 2), eq(X, 5))], arity=2)
        right = CTable([((1, 3), eq(X, 5))], arity=2)
        assert not ctables_equivalent_symbolic(left, right)
        assert not ctables_equivalent(left, right)

    def test_conservative_symmetric_case_settled_by_dispatch(self):
        # {t: b} and {t: ¬b} both describe "t or nothing": per-tuple
        # conditions are inequivalent (symbolic says False) but the
        # world sets coincide — the dispatcher's enumeration fallback
        # gets the Mod-level answer right.
        left = CTable([((1, 2), A)], arity=2)
        right = CTable([((1, 2), neg(A))], arity=2)
        assert not ctables_equivalent_symbolic(left, right)
        assert ctables_equivalent(left, right)
        assert ctables_equivalent(left, right, enumerate=True)

    def test_enumerate_false_forces_pure_symbolic(self):
        left = CTable([((1, 2), A)], arity=2)
        right = CTable([((1, 2), neg(A))], arity=2)
        assert not ctables_equivalent(left, right, enumerate=False)

    def test_budget_stops_enumeration_fallback(self):
        # Same conservative pair, but the variable budget at zero keeps
        # the dispatcher from enumerating — the symbolic verdict stands.
        left = CTable([((1, 2), A)], arity=2)
        right = CTable([((1, 2), neg(A))], arity=2)
        assert not ctables_equivalent(left, right, variable_budget=0)
        assert SYMBOLIC_VARIABLE_BUDGET >= 1

    def test_strict_rejects_mixed_conditions(self):
        # BoolVar conditions on a plain infinite-domain c-table with
        # domain-valued variables in the rows are not symbolically
        # decidable under Mod semantics (truthiness reading).
        mixed = CTable([((Var("x"), 1), A)], arity=2)
        pure = CTable([((Var("x"), 1), A)], arity=2)
        with pytest.raises(UnsupportedOperationError):
            ctables_equivalent_symbolic(mixed, pure)
        assert ctables_equivalent_symbolic(mixed, pure, strict=False)

    def test_arity_mismatch_is_false(self):
        left = CTable([((1,), TOP)], arity=1)
        right = CTable([((1, 2), TOP)], arity=2)
        assert not ctables_equivalent_symbolic(left, right)

    @pytest.mark.parametrize("seed", [61, 62])
    def test_random_boolean_tables_agree_with_enumeration(self, seed):
        # ≤ 4 boolean variables: 16 worlds, enumeration is exact.  The
        # dispatcher must agree with forced enumeration on every pair.
        rng = random.Random(seed)
        names = ("a", "b", "c", "d")

        def random_table():
            rows = []
            for _ in range(rng.randint(1, 4)):
                values = (rng.randrange(2), rng.randrange(2))
                rows.append((values, random_boolean_formula(rng, names, 2)))
            return CTable(rows, arity=2)

        for trial in range(25):
            left, right = random_table(), random_table()
            enumerated = ctables_equivalent(left, right, enumerate=True)
            dispatched = ctables_equivalent(left, right)
            assert dispatched == enumerated, f"trial={trial}"
            if ctables_equivalent_symbolic(left, right):
                assert enumerated, f"unsound symbolic True: trial={trial}"

    def test_hundred_variable_pair_decided_symbolically(self):
        # The scaling claim: 100 distinct boolean variables (≈10^30
        # worlds) decided by per-tuple condition equivalence.  Both the
        # positive direction (reordered conjunctions) and the negative
        # (one strengthened condition) must come back right.
        flags = [boolvar(f"p{index}") for index in range(100)]
        same = CTable(
            [
                ((index, 0), conj(flags[index], flags[(index + 1) % 100]))
                for index in range(100)
            ],
            arity=2,
        )
        reordered = CTable(
            [
                ((index, 0), conj(flags[(index + 1) % 100], flags[index]))
                for index in range(100)
            ],
            arity=2,
        )
        assert ctables_equivalent_symbolic(same, reordered)
        strengthened_rows = [
            ((index, 0), conj(flags[index], flags[(index + 1) % 100]))
            for index in range(99)
        ] + [((99, 0), conj(flags[99], flags[0], flags[50]))]
        strengthened = CTable(strengthened_rows, arity=2)
        assert not ctables_equivalent_symbolic(same, strengthened)
        # Above budget the dispatcher trusts the symbolic verdicts.
        assert ctables_equivalent(same, reordered)
        assert not ctables_equivalent(same, strengthened)
