"""Finite probability spaces, product spaces, image spaces.

The paper's probabilistic constructions are all built from three pieces
of elementary probability theory:

- a *finite probability space* ``(Ω, p)`` with ``Σ p(ω) = 1``
  (Section 6's formulation),
- the *product* of spaces (Definition 12) — the formal meaning of
  "independently",
- the *image* of a space under a function (Definition 10) — the
  semantics of query answering (Definition 11).

Probabilities are exact :class:`fractions.Fraction` values throughout,
so the theorem checks in the tests are equalities, not tolerances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Iterator, Mapping, Tuple

from repro.errors import ProbabilityError


class FiniteProbSpace:
    """An immutable finite probability space over hashable outcomes."""

    __slots__ = ("_weights",)

    def __init__(self, weights: Mapping[Hashable, Fraction]) -> None:
        normalized: Dict[Hashable, Fraction] = {}
        total = Fraction(0)
        for outcome, weight in weights.items():
            weight = Fraction(weight)
            if weight < 0:
                raise ProbabilityError(
                    f"negative probability {weight} for outcome {outcome!r}"
                )
            total += weight
            if weight > 0:
                normalized[outcome] = normalized.get(outcome, Fraction(0)) + weight
        if total != 1:
            raise ProbabilityError(f"probabilities sum to {total}, expected 1")
        self._weights = normalized

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def outcomes(self) -> Tuple[Hashable, ...]:
        """Return the support (positive-probability outcomes), sorted."""
        return tuple(sorted(self._weights, key=repr))

    def probability_of(self, outcome: Hashable) -> Fraction:
        """Return ``p(outcome)`` (zero for outcomes off the support)."""
        return self._weights.get(outcome, Fraction(0))

    def event_probability(
        self, event: Callable[[Hashable], bool]
    ) -> Fraction:
        """Return ``P[{ω | event(ω)}]``."""
        return sum(
            (weight for outcome, weight in self._weights.items() if event(outcome)),
            Fraction(0),
        )

    def items(self) -> Iterator[Tuple[Hashable, Fraction]]:
        """Yield (outcome, probability) pairs in deterministic order."""
        for outcome in self.outcomes:
            yield outcome, self._weights[outcome]

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteProbSpace):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self) -> int:
        return hash(frozenset(self._weights.items()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{outcome!r}: {weight}" for outcome, weight in self.items()
        )
        return f"FiniteProbSpace({{{parts}}})"

    # ------------------------------------------------------------------
    # Constructions
    # ------------------------------------------------------------------
    def map(self, transform: Callable[[Hashable], Hashable]) -> "FiniteProbSpace":
        """Return the image space under *transform* (Definition 10)."""
        weights: Dict[Hashable, Fraction] = {}
        for outcome, weight in self._weights.items():
            image = transform(outcome)
            weights[image] = weights.get(image, Fraction(0)) + weight
        return FiniteProbSpace(weights)

    def product(self, other: "FiniteProbSpace") -> "FiniteProbSpace":
        """Return the product space (Definition 12), outcomes as pairs."""
        weights = {
            (a, b): wa * wb
            for a, wa in self._weights.items()
            for b, wb in other._weights.items()
        }
        return FiniteProbSpace(weights)

    def independent(
        self,
        first: Callable[[Hashable], bool],
        second: Callable[[Hashable], bool],
    ) -> bool:
        """Check whether two events are independent in this space."""
        p_first = self.event_probability(first)
        p_second = self.event_probability(second)
        p_both = self.event_probability(lambda o: first(o) and second(o))
        return p_both == p_first * p_second

    def jointly_independent(
        self, events: Iterable[Callable[[Hashable], bool]]
    ) -> bool:
        """Check joint independence: every sub-family factorizes.

        This is Proposition 3(2)'s notion — pairwise independence is not
        enough, so every subset of the events is checked.
        """
        events = list(events)
        for size in range(2, len(events) + 1):
            for subset in itertools.combinations(events, size):
                product = Fraction(1)
                for event in subset:
                    product *= self.event_probability(event)
                joint = self.event_probability(
                    lambda o, chosen=subset: all(event(o) for event in chosen)
                )
                if joint != product:
                    return False
        return True


def image_space(
    space: FiniteProbSpace, transform: Callable[[Hashable], Hashable]
) -> FiniteProbSpace:
    """Module-level alias for :meth:`FiniteProbSpace.map`."""
    return space.map(transform)


def product_space(*spaces: FiniteProbSpace) -> FiniteProbSpace:
    """Product of several spaces; outcomes are tuples of outcomes."""
    if not spaces:
        return FiniteProbSpace({(): Fraction(1)})
    weights: Dict[Tuple, Fraction] = {(): Fraction(1)}
    for space in spaces:
        weights = {
            prefix + (outcome,): weight * extra
            for prefix, weight in weights.items()
            for outcome, extra in space.items()
        }
    return FiniteProbSpace(weights)


def point_mass(outcome: Hashable) -> FiniteProbSpace:
    """The space putting probability 1 on a single outcome."""
    return FiniteProbSpace({outcome: Fraction(1)})
