"""Probabilistic c-tables (Definition 13).

A pc-table is a c-table together with a finite probability space
``dom(x)`` for each variable; variables choose values independently.
Its semantics is the image of the product space
``V = ∏_x dom(x)`` under ``g(ν) = ν(T)`` — precisely the intro example's
Alice/Bob/Theo table, reproduced in ``examples/paper_tour.py``.

:class:`BooleanPCTable` restricts the underlying table to a boolean
c-table (variables two-valued, conditions only) — the complete fragment
of Theorem 8.

The classes *wrap* a :class:`~repro.tables.ctable.CTable` rather than
subclass it: a pc-table is a c-table plus probability data, and the
incompleteness machinery (the lifted algebra in particular) operates on
the wrapped table unchanged — that is the entire point of Theorem 9.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro.errors import ProbabilityError, TableError
from repro.core.instance import Instance, Row
from repro.core.idatabase import IDatabase
from repro.logic.counting import (
    ValidatedDistributions,
    check_distributions,
    probability as formula_probability,
)
from repro.logic.syntax import Formula
from repro.prob.pdatabase import PDatabase
from repro.tables.ctable import BooleanCTable, CTable
from repro.worlds import symbolic_answers


class PCTable:
    """A probabilistic c-table: c-table + per-variable distributions."""

    __slots__ = ("_table", "_distributions")

    def __init__(
        self,
        rows_or_table,
        distributions: Mapping[str, Mapping[Hashable, Fraction]],
        arity: Optional[int] = None,
    ) -> None:
        if isinstance(rows_or_table, CTable):
            table = rows_or_table
        else:
            table = self._build_table(rows_or_table, arity)
        normalized = check_distributions(distributions)
        missing = [name for name in table.variables() if name not in normalized]
        if missing:
            raise ProbabilityError(
                f"no distributions for variables {sorted(missing)}"
            )
        # Align the c-table's finite domains with the distributions'
        # supports so the incompleteness and probabilistic views agree.
        supports = {
            name: tuple(
                value for value, weight in normalized[name].items() if weight > 0
            )
            for name in table.variables()
        }
        self._table = table.with_domains(supports) if supports else table
        self._distributions = normalized

    @staticmethod
    def _build_table(rows, arity: Optional[int]) -> CTable:
        return CTable(rows, arity=arity)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def table(self) -> CTable:
        """Return the underlying (finite-domain) c-table."""
        return self._table

    @property
    def arity(self) -> int:
        return self._table.arity

    @property
    def distributions(self) -> ValidatedDistributions:
        """Return the per-variable distributions (validated, read-only)."""
        return self._distributions

    def variables(self):
        """Return the table's variable names."""
        return self._table.variables()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PCTable):
            return NotImplemented
        return (
            self._table == other._table
            and self._distributions == other._distributions
        )

    def __hash__(self) -> int:
        frozen = frozenset(
            (name, frozenset(dist.items()))
            for name, dist in self._distributions.items()
        )
        return hash((self._table, frozen))

    def __repr__(self) -> str:
        return f"PCTable({self._table!r}, {self._distributions!r})"

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def valuation_space(self) -> Iterable[Tuple[Dict[str, Hashable], Fraction]]:
        """Yield (valuation, probability) over the product space V.

        Valuations violating the table's global condition (extension) are
        skipped and their mass renormalized — with the default ``true``
        global condition this is exactly the paper's product space.
        """
        names = sorted(self._table.variables())
        pools = [
            [(value, weight) for value, weight in self._distributions[name].items()
             if weight > 0]
            for name in names
        ]
        total = Fraction(0)
        admissible = []
        from repro.logic.evaluation import evaluate

        for combo in itertools.product(*pools):  # enumeration-ok: Definition 13's product space, the semantics oracle
            valuation = {
                name: value for name, (value, _) in zip(names, combo)
            }
            weight = Fraction(1)
            for _, cell_weight in combo:
                weight *= cell_weight
            if evaluate(self._table.global_condition, valuation):
                admissible.append((valuation, weight))
                total += weight
        if total == 0:
            raise ProbabilityError(
                "the global condition excludes every valuation"
            )
        for valuation, weight in admissible:
            yield valuation, weight / total

    def mod(self) -> PDatabase:
        """Return the p-database: image of V under ``g(ν) = ν(T)``."""
        weights: Dict[Instance, Fraction] = {}
        for valuation, weight in self.valuation_space():  # enumeration-ok: Mod() *is* the enumerated image, the Definition-13 oracle
            instance = self._table.apply_valuation(valuation)
            weights[instance] = weights.get(instance, Fraction(0)) + weight
        return PDatabase(weights, arity=self.arity)

    def incompleteness_skeleton(self) -> IDatabase:
        """Forget the probabilities: the underlying c-table's Mod."""
        return self._table.mod()  # enumeration-ok: the skeleton is the underlying c-table's world set by definition

    # ------------------------------------------------------------------
    # Tuple-level queries
    # ------------------------------------------------------------------
    def membership_condition(self, row: Row) -> Formula:
        """The condition under which *row* belongs to ``ν(T)``.

        Disjunction over the table's rows of "this row's condition holds
        and its terms evaluate to *row*"; the probability of this formula
        is ``P[row ∈ I]``.
        """
        return symbolic_answers.membership_condition(self._table, row)

    def tuple_probability(self, row: Row) -> Fraction:
        """Return ``P[row ∈ I]`` by counting the membership condition.

        The condition is compiled to d-DNNF and weighted-model-counted
        (:func:`repro.logic.counting.probability`), so wide tables stay
        polynomial in circuit size instead of ``2^variables``.
        """
        return formula_probability(
            self.membership_condition(row), self._distributions
        )


class BooleanPCTable(PCTable):
    """A probabilistic boolean c-table (Theorem 8's complete fragment).

    Distributions are over ``{False, True}``; essentially the model of
    Fuhr–Rölleke [15], as the paper notes.
    """

    __slots__ = ()

    @staticmethod
    def _build_table(rows, arity: Optional[int]) -> CTable:
        return BooleanCTable(rows, arity=arity)

    def __init__(
        self,
        rows_or_table,
        distributions: Mapping[str, Mapping[bool, Fraction]],
        arity: Optional[int] = None,
    ) -> None:
        if isinstance(rows_or_table, CTable) and not isinstance(
            rows_or_table, BooleanCTable
        ):
            if not rows_or_table.is_boolean():
                raise TableError(
                    "BooleanPCTable requires a boolean c-table"
                )
        for name, dist in distributions.items():
            # isinstance check: 1 == True in Python, so set difference
            # against {False, True} would let integer keys slip through.
            bad = {value for value in dist if not isinstance(value, bool)}
            if bad:
                raise ProbabilityError(
                    f"boolean variable {name!r} has non-boolean outcomes {bad}"
                )
        super().__init__(rows_or_table, distributions, arity=arity)

    def weights(self) -> Dict[str, Fraction]:
        """Return ``P[x = true]`` per variable (for BDD evaluation)."""
        return {
            name: dist.get(True, Fraction(0))
            for name, dist in self._distributions.items()
        }
