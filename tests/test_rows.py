"""The row and term contracts the engine's dicts and sets rely on.

:class:`CRow` is a slotted class with a cached hash, and :class:`Const`
and :class:`Var` hash like their payload.  These tests pin what that
representation must keep from the frozen dataclasses it replaced:
equality by class and content, hashes that agree with equality, and
table equality over rows built separately.
"""

from __future__ import annotations

import pytest

from repro import CRow, CTable, Var, eq, ne
from repro.logic.atoms import Const
from repro.logic.syntax import TOP, conj
from repro.tables.ctable import make_row

X, Y = Var("x"), Var("y")


class TestTerms:
    def test_numeric_constants_are_one_constant(self):
        one, true, one_float = Const(1), Const(True), Const(1.0)
        assert one == true == one_float
        assert hash(one) == hash(true) == hash(one_float)
        assert len({one, true, one_float}) == 1

    @pytest.mark.parametrize("payload", ["x", 1, ("a", 2)])
    def test_a_constant_never_equals_a_variable(self, payload):
        if isinstance(payload, str):
            var = Var(payload)
            assert Const(payload) != var
            assert var != Const(payload)
            assert not (Const(payload) == var)
            assert not (var == Const(payload))
        assert Const(payload) != payload
        assert payload != Const(payload)

    def test_equal_terms_hash_alike(self):
        assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
        assert Const("k") == Const("k")
        assert hash(Const("k")) == hash(Const("k"))
        assert Var("x") != Var("y")
        assert Const("k") != Const("j")

    def test_same_value_nan_constant_equals_itself(self):
        nan = float("nan")
        assert Const(nan) == Const(nan)

    def test_integer_hashes_do_not_depend_on_identity(self):
        # Sets of integer constants iterate in the same order whichever
        # objects build them.
        first = [Const(i) for i in range(50)]
        second = [Const(i) for i in reversed(range(50))]
        assert [hash(term) for term in first] == list(range(50))
        assert list(set(first)) == list(set(second))


class TestRows:
    def test_row_against_other_classes_is_unequal_and_does_not_raise(self):
        row = make_row((1, 2))
        assert row != (Const(1), Const(2))
        assert row != ((Const(1), Const(2)), TOP)
        assert row != "row"
        assert row != None  # noqa: E711 - the comparison itself is tested
        assert (row == object()) is False

    def test_equality_is_values_and_condition(self):
        row = make_row((1, X), eq(X, 2))
        assert row == make_row((1, X), eq(X, 2))
        assert row != make_row((1, X), ne(X, 2))
        assert row != make_row((1, Y), eq(X, 2))
        assert make_row((1,)) == make_row((True,)) == make_row((1.0,))

    def test_cached_hash_equals_a_fresh_rows_hash(self):
        row = make_row(("a", X), conj(eq(X, 1), ne(Y, 2)))
        first = hash(row)
        assert hash(row) == first
        fresh = make_row(("a", X), conj(eq(X, 1), ne(Y, 2)))
        assert fresh is not row
        assert hash(fresh) == first
        assert {row: "held"}[fresh] == "held"

    def test_row_keeps_its_repr_and_default_condition(self):
        row = CRow((Const(1), X))
        assert row.condition is TOP
        assert repr(row) == "(1, x)"
        assert repr(CRow((Const(1),), eq(X, 1))) == "(1 : 1 = x)"

    def test_rows_have_no_instance_dict(self):
        assert not hasattr(make_row((1,)), "__dict__")


class TestTables:
    @staticmethod
    def build():
        return CTable(
            [
                ((1, X), eq(X, 2)),
                ((Y, "b"), ne(Y, "a")),
                (("c", 3), TOP),
            ],
            arity=2,
        )

    def test_tables_over_separately_built_rows_are_equal(self):
        first, second = self.build(), self.build()
        assert all(
            a is not b for a, b in zip(first.rows, second.rows)
        )
        assert first == second
        assert hash(first) == hash(second)

    def test_row_order_does_not_matter_and_content_does(self):
        first = self.build()
        reversed_rows = CTable(list(reversed(first.rows)), arity=2)
        assert first == reversed_rows
        assert hash(first) == hash(reversed_rows)
        changed = CTable([*first.rows[:-1], make_row(("c", 4))], arity=2)
        assert first != changed
