"""Shared builders for the paper-artifact benchmarks (E01–E20).

Each ``bench_e*.py`` regenerates one paper artifact (an example, a
theorem, or a quantitative claim the paper implies; E20 covers the §9
extensions) and times the operations involved.  The file names do not
match pytest's default collection pattern, so pass them explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py -q --benchmark-disable
    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py --benchmark-only

The first form runs every benchmarked callable once and checks that the
artifacts still regenerate; the second times them.  Shape expectations,
not absolute numbers, are what the reproduction commits to; the
``test_report_*`` cases print the series behind each claim.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro import CTable, Instance, IDatabase, TOP, Var, conj, disj, eq, ne
from repro.tables.ctable import CRow
from repro.logic.atoms import Const


@pytest.fixture
def example2_ctable() -> CTable:
    x, y, z = Var("x"), Var("y"), Var("z")
    return CTable(
        [
            ((1, 2, x), TOP),
            ((3, x, y), conj(eq(x, y), ne(z, 2))),
            ((z, 4, 5), disj(ne(x, 1), ne(x, y))),
        ]
    )


def chain_ctable(variables: int, arity: int = 2) -> CTable:
    """A c-table whose rows chain conditions over *variables* variables.

    Row i carries condition ``x_i = x_{i+1}`` (cyclically ``x_last ≠ x_0``),
    giving non-trivial correlation at any size.
    """
    names = [Var(f"x{index}") for index in range(variables)]
    rows = []
    for index in range(variables):
        nxt = names[(index + 1) % variables]
        condition = (
            eq(names[index], nxt) if index + 1 < variables else ne(
                names[index], names[0]
            )
        )
        values = tuple(
            names[(index + offset) % variables] for offset in range(arity)
        )
        rows.append(CRow(values, condition))
    return CTable(rows, arity=arity)


def random_finite_idatabase(
    seed: int, instances: int, arity: int = 2, values=(1, 2, 3)
) -> IDatabase:
    rng = random.Random(seed)
    out = set()
    while len(out) < instances:
        rows = {
            tuple(rng.choice(values) for _ in range(arity))
            for _ in range(rng.randint(0, 3))
        }
        out.add(Instance(rows, arity=arity))
    return IDatabase(out, arity=arity)


def random_pq_rows(seed: int, count: int, arity: int = 1):
    """Distinct tuples with random dyadic probabilities."""
    rng = random.Random(seed)
    rows = {}
    value = 0
    while len(rows) < count:
        value += 1
        rows[tuple([value] * arity)] = Fraction(rng.randint(1, 7), 8)
    return rows
