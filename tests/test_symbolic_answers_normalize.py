"""Tests for symbolic answers and c-table normalization."""

import itertools
import random

import pytest

import repro.worlds.symbolic_answers as symbolic_answers
from harness import random_case
from harness import random_ctable as harness_ctable
from repro.core.instance import Instance, relation
from repro.engine import Engine
from repro.errors import UnsupportedOperationError
from repro.logic.atoms import Const, Var, eq, ne
from repro.logic.syntax import TOP, conj, disj
from repro.algebra import (
    col_eq,
    col_eq_const,
    diff,
    proj,
    prod,
    rel,
    sel,
    union,
)
from repro.tables.ctable import CTable
from repro.tables.normalize import (
    drop_unsatisfiable_rows,
    merge_duplicate_rows,
    normalize,
)
from repro.worlds.answers import certain_answer_table, possible_answer_table
from repro.worlds.compare import witness_domain_for
from repro.worlds.symbolic_answers import (
    certain_answer_symbolic,
    membership_condition,
    possible_answer_symbolic,
)
from tests.conftest import random_ctable


X, Y, Z = Var("x"), Var("y"), Var("z")
V3 = rel("V", 3)


class TestSymbolicCertainAnswers:
    def test_constant_row_is_certain(self, example2_ctable):
        query = proj(V3, [0, 1])
        symbolic = certain_answer_symbolic(query, example2_ctable)
        assert (1, 2) in symbolic

    def test_agrees_with_enumeration_on_battery(self, example2_ctable):
        queries = [
            proj(V3, [0]),
            proj(V3, [0, 1]),
            sel(V3, col_eq(0, 1)),
            union(proj(V3, [1]), proj(V3, [2])),
            diff(proj(V3, [0]), proj(V3, [1])),
        ]
        domain = example2_ctable.witness_domain()
        for query in queries:
            symbolic = certain_answer_symbolic(query, example2_ctable)
            enumerated = certain_answer_table(
                query, example2_ctable, domain
            )
            assert symbolic == enumerated, query

    def test_agrees_on_random_tables(self):
        rng = random.Random(31)
        queries = [proj(rel("V", 2), [0]), sel(rel("V", 2), col_eq(0, 1))]
        for _ in range(5):
            table = random_ctable(rng, arity=2, max_rows=2)
            domain = table.witness_domain()
            for query in queries:
                assert certain_answer_symbolic(
                    query, table
                ) == certain_answer_table(query, table, domain)

    def test_finite_domain_table(self):
        table = CTable(
            [((X, 1), eq(X, 1)), (2, 2)],
            domains={"x": [1, 2]},
        )
        query = rel("V", 2)
        symbolic = certain_answer_symbolic(query, table)
        assert symbolic == relation((2, 2))

    def test_forced_variable_is_certain(self):
        """A variable entry forced by its condition yields a certain tuple."""
        table = CTable([((X,), eq(X, 7))])
        query = rel("V", 1)
        # The only worlds with any tuple have x = 7... but worlds where
        # x ≠ 7 are empty, so (7,) is NOT certain.
        assert len(certain_answer_symbolic(query, table)) == 0
        # With an unconditional constant row alongside, (5,) is certain.
        table2 = CTable([((X,), eq(X, 7)), (5,)])
        assert (5,) in certain_answer_symbolic(query, table2)

    def test_candidate_bound_enforced(self):
        table = CTable([tuple([0] * 1)], arity=1)
        big = CTable(
            [tuple(Var(f"v{i}") for i in range(3))],
            global_condition=conj(
                *(eq(Var(f"v{i}"), i) for i in range(3))
            ),
        )
        with pytest.raises(UnsupportedOperationError):
            certain_answer_symbolic(rel("V", 3), big, max_candidates=1)


class TestSymbolicPossibleAnswers:
    def test_constant_possible_answers(self, example2_ctable):
        query = proj(V3, [0, 1])
        possible = possible_answer_symbolic(query, example2_ctable)
        assert (1, 2) in possible
        assert (3, 4) in possible  # row 2 projects to (3, x), x = 4
        assert (2, 1) not in possible  # no row matches that shape

    def test_subset_of_enumerated(self, example2_ctable):
        query = proj(V3, [1])
        domain = example2_ctable.witness_domain()
        symbolic = possible_answer_symbolic(query, example2_ctable)
        enumerated = possible_answer_table(query, example2_ctable, domain)
        assert set(symbolic.rows) <= set(enumerated.rows)

    def test_unsatisfiable_rows_not_possible(self):
        table = CTable([((1,), conj(eq(X, 1), ne(X, 1)))], arity=1)
        possible = possible_answer_symbolic(rel("V", 1), table)
        assert len(possible) == 0


def _random_finite_domain_table(rng: random.Random) -> CTable:
    """≤ 3 rows over values 1–3 and ≤ 3 variables, each with a domain."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        values = tuple(
            Var(rng.choice("xyz")) if rng.random() < 0.5 else rng.randint(1, 3)
            for _ in range(2)
        )
        roll = rng.random()
        if roll < 0.3:
            condition = TOP
        else:
            atom = eq if roll < 0.65 else ne
            condition = atom(Var(rng.choice("xyz")), rng.randint(1, 3))
        rows.append((values, condition))
    names = CTable(rows, arity=2).variables()
    domains = {
        name: rng.sample([1, 2, 3], rng.randint(1, 3)) for name in names
    }
    return CTable(rows, arity=2, domains=domains)


class TestFiniteDomainCandidates:
    """A variable position's candidates include the variable's domain."""

    def test_single_variable_certain(self):
        table = CTable([(X,)], arity=1, domains={"x": [1]})
        dataset = Engine().session(V=table).query("V")
        assert dataset.certain() == relation((1,))
        assert dataset.certain() == dataset.certain(method="worlds")

    def test_single_variable_possible(self):
        table = CTable([(X,)], arity=1, domains={"x": [1]})
        dataset = Engine().session(V=table).query("V")
        assert dataset.possible() == relation((1,))
        assert dataset.possible() == dataset.possible(method="worlds")

    def test_agrees_with_worlds_on_random_finite_domain_tables(self):
        rng = random.Random(2306)
        for trial in range(60):
            table = _random_finite_domain_table(rng)
            dataset = Engine().session(V=table).query("V")
            assert dataset.certain() == dataset.certain(
                method="worlds"
            ), (trial, table)
            assert dataset.possible() == dataset.possible(
                method="worlds"
            ), (trial, table)


class TestMixedTableAnswers:
    """A variable row pairs every column constant with every other."""

    TABLE = CTable([("a", "b"), (X, Y), ("c", "d")])

    def test_possible_takes_the_column_pool(self):
        assert possible_answer_symbolic(rel("V", 2), self.TABLE) == Instance(
            [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")], arity=2
        )

    def test_certain_is_the_constant_rows(self):
        assert certain_answer_symbolic(rel("V", 2), self.TABLE) == Instance(
            [("a", "b"), ("c", "d")], arity=2
        )


class TestRowVisitsAreLinear:
    """Each candidate builds equalities only for the rows it can match."""

    @staticmethod
    def _eq_calls(monkeypatch, n: int) -> int:
        calls = [0]

        def counting_eq(left, right):
            calls[0] += 1
            return eq(left, right)

        monkeypatch.setattr(symbolic_answers, "eq", counting_eq)
        table = CTable([(index, "k") for index in range(n)])
        dataset = Engine().session(V=table).query("V")
        assert len(dataset.certain()) == n
        assert len(dataset.possible()) == n
        return calls[0]

    def test_eq_calls_grow_linearly(self, monkeypatch):
        small = self._eq_calls(monkeypatch, 200)
        large = self._eq_calls(monkeypatch, 400)
        arity = 2
        assert large <= 4 * 400 * arity
        assert 1.5 <= large / small <= 2.5


def _full_scan(table: CTable, row) -> object:
    """The membership condition as the disjunction over every row."""
    return conj(
        table.global_condition,
        disj(
            *(
                conj(
                    crow.condition,
                    *(
                        eq(term, Const(value))
                        for term, value in zip(crow.values, row)
                    ),
                )
                for crow in table.rows
            )
        ),
    )


def _probes(table: CTable):
    """Every tuple over the table's constants and one outside value."""
    values = sorted(table.constants() | {99}, key=repr)
    return itertools.product(values, repeat=table.arity)


class TestMembershipConditionUnchanged:
    """The row index returns the full scan's interned formula."""

    @staticmethod
    def _assert_full_scan(table: CTable) -> None:
        for row in _probes(table):
            assert membership_condition(table, row) is _full_scan(
                table, row
            ), (table, row)

    def test_random_harness_tables(self):
        rng = random.Random(2307)
        for _ in range(40):
            self._assert_full_scan(harness_ctable(rng))

    def test_random_conftest_tables(self):
        rng = random.Random(2308)
        for _ in range(40):
            self._assert_full_scan(random_ctable(rng, arity=2, max_rows=4))

    def test_variable_rows_interleaved(self):
        self._assert_full_scan(
            CTable(
                [
                    ((1, 2), eq(X, 1)),
                    ((X, 2), ne(Y, 3)),
                    (3, 4),
                    ((1, Y), eq(Y, 2)),
                    ((1, 2), ne(X, 2)),
                    ((X, Z), eq(X, Z)),
                    ((3, 4), eq(Z, 1)),
                ]
            )
        )

    def test_global_condition(self):
        self._assert_full_scan(
            CTable(
                [((1, X), eq(Y, 2)), (1, 2), ((Y, 3), ne(X, 3))],
                global_condition=conj(ne(X, 1), disj(eq(Y, 2), eq(Y, 3))),
            )
        )

    def test_repeated_constant_tuple(self):
        self._assert_full_scan(
            CTable(
                [
                    ((1, 2), eq(X, 1)),
                    (3, 4),
                    ((1, 2), eq(Y, 2)),
                    ((1, 2), conj(ne(X, 1), ne(Y, 2))),
                ]
            )
        )

    def test_equal_keys_of_different_types(self):
        table = CTable(
            [
                ((1,), eq(X, 1)),
                ((True,), eq(Y, 2)),
                ((X,), ne(X, 3)),
                ((1.0,), ne(Z, 3)),
                ((0,), eq(Z, 1)),
            ]
        )
        for row in [(1,), (True,), (1.0,), (0,), (False,), (0.0,), (2,)]:
            assert membership_condition(table, row) is _full_scan(
                table, row
            ), row

    def test_dataset_lineage(self):
        rng = random.Random(2309)
        for _ in range(25):
            query, tables = random_case(rng)
            dataset = Engine().session(**tables).query(query)
            answered = dataset.collect()
            for row in _probes(answered):
                assert dataset.lineage(row) is _full_scan(
                    answered, row
                ), (query, row)


class TestNormalization:
    def test_drop_unsatisfiable_semantic(self):
        """Syntactically alive but semantically dead rows get dropped."""
        dead = conj(eq(X, "a"), eq(X, "b"))
        table = CTable([((1,), dead), ((2,),)], arity=1)
        cleaned = drop_unsatisfiable_rows(table)
        assert len(cleaned) == 1

    def test_drop_respects_finite_domains(self):
        # x = 3 is satisfiable over an infinite domain but not over {1,2}.
        table = CTable([((1,), eq(X, 3))], domains={"x": [1, 2]})
        assert len(drop_unsatisfiable_rows(table)) == 0

    def test_drop_uses_global_condition(self):
        table = CTable(
            [((1,), eq(X, 5))], global_condition=ne(X, 5)
        )
        assert len(drop_unsatisfiable_rows(table)) == 0

    def test_merge_duplicates(self):
        table = CTable(
            [((1, X), eq(Y, 1)), ((1, X), eq(Y, 2))]
        )
        merged = merge_duplicate_rows(table)
        assert len(merged) == 1
        assert merged.rows[0].condition == disj(eq(Y, 1), eq(Y, 2))

    def test_normalize_preserves_mod(self, example2_ctable):
        query = proj(
            sel(prod(V3, V3), conj(col_eq(2, 3), col_eq_const(0, 1))),
            [0, 4],
        )
        from repro.ctalgebra.translate import apply_query_to_ctable

        answered = apply_query_to_ctable(query, example2_ctable)
        cleaned = normalize(answered)
        domain = witness_domain_for(answered, cleaned)
        assert answered.mod_over(domain) == cleaned.mod_over(domain)

    def test_normalize_shrinks_join_garbage(self):
        """The Orchestra example's dead join rows disappear."""
        f = Var("f")
        table = CTable(
            [
                (("g1", "g4"), conj(eq(f, "ligase"), eq(f, "kinase"))),
                (("g1", "g2"), eq(f, "kinase")),
            ]
        )
        cleaned = normalize(table)
        assert len(cleaned) == 1

    def test_normalize_preserves_mod_random(self):
        rng = random.Random(13)
        for _ in range(6):
            table = random_ctable(rng, arity=2, max_rows=3)
            cleaned = normalize(table)
            domain = witness_domain_for(table, cleaned)
            assert table.mod_over(domain) == cleaned.mod_over(domain)
