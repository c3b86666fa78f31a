"""The differential fuzzing suite: interpreted ≡ vectorized.

Built entirely on :mod:`harness`.  Four seeded sweeps of 50 cases give
200 random (query, table) pairs per run — every case checks structural
identity between the two executors and Mod-level ``ctables_equivalent``
between the oracle and the vectorized executor.  The Mod checks are no
longer capped by enumeration: the :class:`TestSymbolicScale` sweeps run
the ``LARGE_TABLES`` profile (40–65 distinct variables per case)
through the symbolic equivalence engine, and cross-validate the
symbolic verdicts against explicit world enumeration on the small
default profile.  A failing case reports its ``seed``/``trial``
coordinates and the query for replay.
"""

from __future__ import annotations

import random

import pytest

from harness import (
    EXECUTORS,
    FLAT_QUERIES,
    LARGE_TABLES,
    QueryProfile,
    TableProfile,
    assert_executors_agree,
    assert_plan_modes_equivalent,
    assert_structurally_identical,
    evaluate,
    random_case,
    run_differential,
)
from repro.worlds.compare import (
    ctables_equivalent,
    ctables_equivalent_symbolic,
)


class TestDifferentialExecutors:
    """The acceptance sweep: ≥ 200 seeded random pairs, three executors."""

    @pytest.mark.parametrize("seed", [1101, 1102, 1103, 1104])
    def test_seeded_sweep(self, seed):
        assert run_differential(seed, trials=50) == 50

    def test_single_relation_profile(self):
        # Self-join-heavy: one relation read twice on both sides of
        # every combinator, maximizing shared interned sub-conditions.
        run_differential(
            2201,
            trials=25,
            query_profile=QueryProfile(relations=(("V", 2),)),
        )

    def test_wider_tables_and_deeper_queries(self):
        run_differential(
            2301,
            trials=15,
            table_profile=TableProfile(max_rows=8, variable_density=0.45),
            query_profile=QueryProfile(min_depth=2, max_depth=4),
            check_mod=False,  # deeper answers; identity is the contract
        )


class TestSymbolicScale:
    """Mod-level checks beyond the enumeration limit, and the
    cross-validation that keeps the symbolic engine honest."""

    def test_large_scale_sweep_beyond_enumeration(self):
        # The lifted cap: cases routinely carry 40–65 distinct
        # variables, so every Mod check here necessarily runs through
        # ctables_equivalent's symbolic path — a witness domain of this
        # size would have ~80^50 worlds.
        assert len(LARGE_TABLES.variables) >= 50
        assert (
            run_differential(
                4401,
                trials=8,
                table_profile=LARGE_TABLES,
                query_profile=FLAT_QUERIES,
                check_mod=True,
                check_plan_equivalence=True,
            )
            == 8
        )

    def test_large_profile_actually_exceeds_fifty_variables(self):
        rng = random.Random(4501)
        peak = 0
        for _ in range(6):
            _, tables = random_case(rng, LARGE_TABLES, FLAT_QUERIES)
            combined = set()
            for table in tables.values():
                combined |= table.variables()
            peak = max(peak, len(combined))
        assert peak >= 50

    def test_symbolic_cross_validates_against_enumeration(self):
        # On the small default profile (≤ 3 variables) both engines can
        # decide every pair; the symbolic certificate must be *sound*
        # against explicit world enumeration: symbolic True implies
        # enumerated True, and the auto-dispatching ctables_equivalent
        # (symbolic + budget-bounded enumeration fallback) must agree
        # with forced enumeration exactly.
        rng = random.Random(4601)
        positives = 0
        for trial in range(20):
            query, tables = random_case(rng)
            optimized = evaluate(query, tables, "interpreted", optimize=True)
            verbatim = evaluate(query, tables, "interpreted", optimize=False)
            enumerated = ctables_equivalent(
                optimized, verbatim, enumerate=True
            )
            dispatched = ctables_equivalent(optimized, verbatim)
            assert dispatched == enumerated, f"trial={trial} query={query!r}"
            assert enumerated, f"plans diverged: trial={trial}"
            if ctables_equivalent_symbolic(optimized, verbatim):
                positives += 1
        assert positives >= 10  # the symbolic engine proves most cases

    def test_symbolic_never_accepts_what_enumeration_rejects(self):
        # Unrelated random tables are usually inequivalent; a symbolic
        # True on an enumerated-False pair would be a soundness bug.
        rng = random.Random(4701)
        for trial in range(20):
            _, left_tables = random_case(rng)
            _, right_tables = random_case(rng)
            left = left_tables["V"]
            right = right_tables["V"]
            if ctables_equivalent_symbolic(left, right):
                assert ctables_equivalent(left, right, enumerate=True), (
                    f"unsound symbolic verdict: trial={trial}"
                )


class TestMetamorphicInvariances:
    """The same case must be invariant under execution knobs."""

    def test_simplify_conditions_parity_across_executors(self):
        rng = random.Random(3401)
        for trial in range(10):
            query, tables = random_case(rng)
            assert_executors_agree(
                query,
                tables,
                simplify_conditions=True,
                check_mod=False,
                context=f"simplify trial={trial}",
            )

    def test_unoptimized_plans_also_agree(self):
        rng = random.Random(3501)
        for trial in range(10):
            query, tables = random_case(rng)
            assert_executors_agree(
                query,
                tables,
                optimize=False,
                context=f"verbatim trial={trial}",
            )


class TestHarnessSelfChecks:
    """The harness itself must be reproducible and honest."""

    def test_generators_are_deterministic_per_seed(self):
        first = random_case(random.Random(42))
        second = random_case(random.Random(42))
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_all_executor_names_evaluate(self):
        query, tables = random_case(random.Random(7))
        for executor in EXECUTORS:
            evaluate(query, tables, executor)

    def test_unknown_executor_rejected(self):
        query, tables = random_case(random.Random(7))
        with pytest.raises(ValueError):
            evaluate(query, tables, "gpu")

    def test_identity_assertion_actually_bites(self):
        # A divergence the assertion must catch: drop the last row.
        from repro import CTable

        query, tables = random_case(random.Random(9))
        answered = evaluate(query, tables, "interpreted")
        if not answered.rows:
            answered = CTable([((0, 0),)], arity=2)
            truncated = CTable((), arity=2)
        else:
            truncated = CTable(
                answered.rows[:-1],
                arity=answered.arity,
                domains=answered.domains,
                global_condition=answered.global_condition,
            )
        with pytest.raises(AssertionError):
            assert_structurally_identical(answered, truncated)
