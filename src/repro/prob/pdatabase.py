"""Probabilistic databases (Definition 9).

A p-database is a finite probability space whose outcomes are
conventional instances.  Directly specifying one needs ``2^(|D|^n) − 1``
numbers, which is why the probabilistic representation systems of
Sections 7–8 exist; this class is nonetheless the *semantic* object all
of them denote, and the equality tests of Theorems 8 and 9 compare
p-databases.

Everything here is, by its nature, enumeration over explicit worlds —
this module is the **oracle** the scalable routes are differentially
checked against.  Production paths answer probability questions from the
*representation* instead: :meth:`repro.prob.pctable.PCTable.tuple_probability`
and :meth:`repro.engine.session.Dataset.probability` count membership
conditions symbolically (compiled d-DNNF + weighted model counting,
:mod:`repro.prob.wmc`), never materializing a :class:`PDatabase`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterator, Mapping, Tuple

from repro.errors import ArityError, ProbabilityError
from repro.core.instance import Instance, Row
from repro.core.idatabase import IDatabase
from repro.prob.space import FiniteProbSpace


class PDatabase:
    """A probability distribution over same-arity instances."""

    __slots__ = ("_space", "_arity")

    def __init__(
        self, weights: Mapping[Instance, Fraction], arity: int = None
    ) -> None:
        space = FiniteProbSpace(weights)
        arities = {instance.arity for instance in space.outcomes}
        if arities:
            if len(arities) != 1:
                raise ArityError(
                    f"mixed arities in probabilistic database: {sorted(arities)}"
                )
            inferred = arities.pop()
            if arity is not None and arity != inferred:
                raise ArityError(
                    f"declared arity {arity} does not match instances of "
                    f"arity {inferred}"
                )
            arity = inferred
        elif arity is None:
            raise ArityError("empty probabilistic database needs an arity")
        self._space = space
        self._arity = arity

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def space(self) -> FiniteProbSpace:
        """Return the underlying probability space."""
        return self._space

    def probability_of(self, instance: Instance) -> Fraction:
        """Return ``P[I = instance]``."""
        return self._space.probability_of(instance)

    def items(self) -> Iterator[Tuple[Instance, Fraction]]:
        """Yield (instance, probability) in deterministic order."""
        yield from self._space.items()

    def instances(self) -> Tuple[Instance, ...]:
        """Return the support instances."""
        return self._space.outcomes

    def __len__(self) -> int:
        return len(self._space)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDatabase):
            return NotImplemented
        return self._arity == other._arity and self._space == other._space

    def __hash__(self) -> int:
        return hash((self._arity, self._space))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{instance!r}: {weight}" for instance, weight in self.items()
        )
        return f"PDatabase[{self._arity}]{{{parts}}}"

    # ------------------------------------------------------------------
    # Probabilistic queries
    # ------------------------------------------------------------------
    def tuple_probability(self, row: Row) -> Fraction:
        """Return ``P[t ∈ I]`` — the event ``E_t`` of Section 7."""
        row = tuple(row)
        return self._space.event_probability(lambda instance: row in instance)

    def event_probability(
        self, event: Callable[[Instance], bool]
    ) -> Fraction:
        """Return the probability of an arbitrary instance event."""
        return self._space.event_probability(event)

    def expected_size(self) -> Fraction:
        """Return ``E[|I|]``."""
        return sum(
            (Fraction(len(instance)) * weight for instance, weight in self.items()),
            Fraction(0),
        )

    def map_instances(
        self, transform: Callable[[Instance], Instance]
    ) -> "PDatabase":
        """Return the image p-database (Definition 10 for instances)."""
        weights = {}
        for instance, weight in self.items():
            image = transform(instance)
            weights[image] = weights.get(image, Fraction(0)) + weight
        return PDatabase(weights)

    def incompleteness_skeleton(self) -> IDatabase:
        """Forget probabilities: the support as an incomplete database.

        This is the "probabilistic counterpart" direction of the paper's
        conceptual contribution, read backwards.
        """
        return IDatabase(self._space.outcomes, arity=self._arity)


def pdatabase_from_pairs(*pairs, arity: int = None) -> PDatabase:
    """Convenience constructor from (instance, probability) pairs."""
    weights = {}
    for instance, weight in pairs:
        weights[instance] = weights.get(instance, Fraction(0)) + Fraction(weight)
    return PDatabase(weights, arity=arity)
