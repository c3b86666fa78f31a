"""Conditionally dependent pc-table variables (§9 future work).

The paper: "trying to make pc-tables even more flexible, we plan to
investigate models in which the assumption that the variables take
values independently is relaxed by using conditional probability
distributions [14]".  This module implements that model:

- :class:`VariableNetwork` — a Bayesian-network-style factorization of
  the joint distribution over the table's variables: a DAG where each
  variable carries a CPT (one distribution per assignment of its
  parents),
- :class:`DependentPCTable` — a c-table whose variables are jointly
  distributed by a :class:`VariableNetwork`; ``mod()`` images the joint
  space through ``ν(T)`` exactly as Definition 13 does for the product
  space, and tuple probabilities marginalize the joint.

A network with no edges is an ordinary pc-table, and
:meth:`VariableNetwork.independent` round-trips a plain distribution
map, so :class:`~repro.prob.pctable.PCTable` is literally the special
case — verified by the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import ProbabilityError
from repro.core.instance import Instance, Row
from repro.logic.counting import check_distribution
from repro.prob.pdatabase import PDatabase

# A CPT maps each parent-assignment (tuple of values, ordered by the
# declared parent list) to a distribution over the variable's outcomes.
Cpt = Mapping[Tuple[Hashable, ...], Mapping[Hashable, Fraction]]


class VariableNetwork:
    """A DAG of variables with conditional probability tables."""

    def __init__(self) -> None:
        self._parents: Dict[str, Tuple[str, ...]] = {}
        self._cpts: Dict[str, Dict[Tuple, Dict[Hashable, Fraction]]] = {}
        self._order: List[str] = []

    def add(
        self,
        name: str,
        parents: Sequence[str],
        cpt: Cpt,
    ) -> "VariableNetwork":
        """Declare *name* with the given *parents* and CPT.

        Parents must have been declared earlier (this enforces
        acyclicity by construction).  Every parent-assignment over the
        parents' outcome spaces must have a row in the CPT.
        """
        if name in self._parents:
            raise ProbabilityError(f"variable {name!r} declared twice")
        for parent in parents:
            if parent not in self._parents:
                raise ProbabilityError(
                    f"parent {parent!r} of {name!r} not yet declared "
                    "(declare in topological order)"
                )
        normalized: Dict[Tuple, Dict[Hashable, Fraction]] = {}
        for assignment, distribution in cpt.items():
            key = tuple(assignment)
            if len(key) != len(parents):
                raise ProbabilityError(
                    f"CPT row {key!r} for {name!r} does not match "
                    f"{len(parents)} parents"
                )
            row = {value: Fraction(weight)
                   for value, weight in distribution.items()}
            check_distribution(f"{name}|{key!r}", row)
            normalized[key] = row
        for assignment in self._parent_assignments(parents):
            if assignment not in normalized:
                raise ProbabilityError(
                    f"CPT for {name!r} missing parent assignment "
                    f"{assignment!r}"
                )
        self._parents[name] = tuple(parents)
        self._cpts[name] = normalized
        self._order.append(name)
        return self

    def add_independent(
        self, name: str, distribution: Mapping[Hashable, Fraction]
    ) -> "VariableNetwork":
        """Declare a parentless variable (an ordinary pc-table variable)."""
        return self.add(name, (), {(): distribution})

    @classmethod
    def independent(
        cls, distributions: Mapping[str, Mapping[Hashable, Fraction]]
    ) -> "VariableNetwork":
        """The edgeless network: exactly Definition 13's product space."""
        network = cls()
        for name in sorted(distributions):
            network.add_independent(name, distributions[name])
        return network

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> List[str]:
        """Return the variables in declaration (topological) order."""
        return list(self._order)

    def parents_of(self, name: str) -> Tuple[str, ...]:
        """Return the declared parents of *name*."""
        return self._parents[name]

    def outcomes_of(self, name: str) -> List[Hashable]:
        """Return the union of outcome values across the variable's CPT."""
        values: List[Hashable] = []
        seen = set()
        for distribution in self._cpts[name].values():
            for value in distribution:
                if value not in seen:
                    seen.add(value)
                    values.append(value)
        return values

    def has_edges(self) -> bool:
        """True when some variable has parents (genuine dependence)."""
        return any(self._parents[name] for name in self._order)

    # ------------------------------------------------------------------
    # The joint distribution
    # ------------------------------------------------------------------
    def _parent_assignments(
        self, parents: Sequence[str]
    ) -> Iterator[Tuple]:
        import itertools

        pools = [self.outcomes_of(parent) for parent in parents]
        yield from itertools.product(*pools)  # enumeration-ok: parent-outcome combinations of one CPT row group, not a world space

    def joint(self) -> Iterator[Tuple[Dict[str, Hashable], Fraction]]:
        """Yield (valuation, probability) over the joint distribution.

        Zero-probability valuations are skipped; probabilities sum to 1.
        """

        def recurse(position: int, valuation: Dict[str, Hashable],
                    weight: Fraction):
            if position == len(self._order):
                yield dict(valuation), weight
                return
            name = self._order[position]
            parents = self._parents[name]
            key = tuple(valuation[parent] for parent in parents)
            for value, probability in self._cpts[name][key].items():
                if probability == 0:
                    continue
                valuation[name] = value
                yield from recurse(position + 1, valuation,
                                   weight * probability)
            if name in valuation:
                del valuation[name]

        yield from recurse(0, {}, Fraction(1))

    def probability_of_event(self, event) -> Fraction:
        """Return P[event(valuation)] under the joint distribution."""
        return sum(
            (weight for valuation, weight in self.joint()
             if event(valuation)),
            Fraction(0),
        )


class DependentPCTable:
    """A c-table whose variables follow a :class:`VariableNetwork`.

    The semantics is Definition 13 with the product space replaced by
    the network's joint distribution; everything downstream (image
    space, membership conditions) is unchanged — which is the point of
    the paper's suggestion: only the variable distribution generalizes.
    """

    __slots__ = ("_table", "_network")

    def __init__(self, table_or_rows, network: VariableNetwork,
                 arity: int = None) -> None:
        from repro.tables.ctable import CTable

        if isinstance(table_or_rows, CTable):
            table = table_or_rows
        else:
            table = CTable(table_or_rows, arity=arity)
        missing = table.variables() - set(network.variables)
        if missing:
            raise ProbabilityError(
                f"network does not cover variables {sorted(missing)}"
            )
        supports = {
            name: tuple(network.outcomes_of(name))
            for name in table.variables()
        }
        self._table = table.with_domains(supports) if supports else table
        self._network = network

    @property
    def table(self):
        """Return the underlying (finite-domain) c-table."""
        return self._table

    @property
    def network(self) -> VariableNetwork:
        """Return the variable network."""
        return self._network

    @property
    def arity(self) -> int:
        return self._table.arity

    def mod(self) -> PDatabase:
        """Image of the joint distribution under ``g(ν) = ν(T)``."""
        weights: Dict[Instance, Fraction] = {}
        from repro.logic.evaluation import evaluate

        total = Fraction(0)
        admissible = []
        for valuation, weight in self._network.joint():
            if evaluate(self._table.global_condition, valuation):
                admissible.append((valuation, weight))
                total += weight
        if total == 0:
            raise ProbabilityError(
                "the global condition excludes every valuation"
            )
        for valuation, weight in admissible:
            instance = self._table.apply_valuation(valuation)
            weights[instance] = weights.get(instance, Fraction(0)) \
                + weight / total
        return PDatabase(weights, arity=self.arity)

    def tuple_probability(self, row: Row) -> Fraction:
        """P[row ∈ I], marginalizing the joint distribution."""
        from repro.logic.evaluation import evaluate
        from repro.worlds import symbolic_answers

        # The membership condition, evaluated against the joint rather
        # than the product space.
        condition = symbolic_answers.membership_condition(self._table, row)

        return self._network.probability_of_event(
            lambda valuation: evaluate(condition, valuation)
        )

    def answer(self, query) -> "DependentPCTable":
        """Closure carries over verbatim: q̄ on the table, network kept."""
        from repro.ctalgebra.translate import apply_query_to_ctable

        answered = apply_query_to_ctable(query, self._table)
        return DependentPCTable(answered.without_domains(), self._network)

