"""Probability of a condition under independent distributed variables.

pc-tables (Definition 13 of the paper) attach to every variable ``x`` a
finite probability space ``dom(x)``; variables are independent.  The
probability that a condition holds is then a weighted count over the
product space.

:func:`probability` is the one production route: it compiles the
condition to d-DNNF once (:mod:`repro.logic.compile`) and
weighted-model-counts the circuit (:mod:`repro.prob.wmc`), so cost
scales with condition and circuit size, never ``2^variables``.  Two
reference oracles stay for the tests to compare against:

- :func:`probability_enumerate` — fold over *all* valuations (exact,
  exponential, the baseline),
- :func:`probability_shannon` — recursive Shannon expansion with
  memoization on the simplified residual formula: expand one variable at
  a time, weight each branch, and share work across branches whose
  residuals coincide (this generalizes BDD evaluation to multi-valued
  variables — in knowledge-compilation terms it builds a free decision
  diagram on the fly).  It is the only exact cross-check independent of
  the compiler past enumerable size.

:meth:`repro.logic.bdd.Bdd.probability` evaluates purely boolean
conditions over an OBDD.  All of them return identical exact
:class:`fractions.Fraction` values.

Distributions are validated once.  :func:`check_distributions` returns
a read-only :class:`ValidatedDistributions`, and returns at once when
handed one, so a map that a :class:`~repro.prob.pctable.PCTable` (or a
session merge of them) carries is never walked again: the per-call work
follows the condition's variables, not the size of the map.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Dict,
    Hashable,
    Iterable,
    Mapping,
    NoReturn,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ProbabilityError
from repro.logic.evaluation import evaluate, partial_evaluate
from repro.logic.syntax import BOTTOM, TOP, Formula

# A distribution maps each outcome value to its probability.
Distribution = Mapping[Hashable, Fraction]
Distributions = Mapping[str, Distribution]

def check_distribution(name: str, distribution: Distribution) -> None:
    """Validate that *distribution* is a probability distribution."""
    if not distribution:
        raise ProbabilityError(f"variable {name!r} has an empty distribution")
    total = Fraction(0)
    for value, weight in distribution.items():
        weight = Fraction(weight)
        if weight < 0:
            raise ProbabilityError(
                f"negative probability {weight} for {name!r}={value!r}"
            )
        total += weight
    if total != 1:
        raise ProbabilityError(
            f"probabilities for {name!r} sum to {total}, expected 1"
        )


class _ReadOnlyDict(dict):
    """A dict whose mutators raise ``TypeError``."""

    __slots__ = ()

    def _read_only(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = clear = pop = popitem = _read_only
    setdefault = update = __ior__ = _read_only

    def __reduce__(self) -> Tuple[type, Tuple[Dict[Hashable, object]]]:
        return (type(self), (dict(self),))


class ValidatedDistributions(_ReadOnlyDict):
    """A read-only distribution map that has passed validation.

    Constructing one runs :func:`check_distribution` on every entry and
    stores each distribution as a read-only map of exact
    :class:`~fractions.Fraction` weights.  Holding an instance is the
    proof of validity: :func:`check_distributions` returns it unchanged.
    """

    __slots__ = ()

    def __init__(self, distributions: Distributions) -> None:
        normalized = {
            name: _ReadOnlyDict(
                {value: Fraction(weight) for value, weight in distribution.items()}
            )
            for name, distribution in distributions.items()
        }
        for name, distribution in normalized.items():
            check_distribution(name, distribution)
        super().__init__(normalized)


def check_distributions(distributions: Distributions) -> ValidatedDistributions:
    """Validate every distribution in the map; return it validated.

    A :class:`ValidatedDistributions` passed its checks when it was
    built and is returned at once; any other map is checked in full.
    """
    if isinstance(distributions, ValidatedDistributions):
        return distributions
    return ValidatedDistributions(distributions)


def merge_distributions(
    sources: Iterable[ValidatedDistributions],
) -> ValidatedDistributions:
    """Union validated maps; one variable with two distributions raises.

    Only the conflict check runs: every source is validated already, and
    a single source is returned as it is.
    """
    sources = tuple(sources)
    if len(sources) == 1:
        return sources[0]
    merged: Dict[str, Distribution] = {}
    for distributions in sources:
        for name, distribution in distributions.items():
            existing = merged.setdefault(name, distribution)
            if existing is not distribution and existing != distribution:
                raise ProbabilityError(
                    f"variable {name!r} has conflicting distributions "
                    f"across registered pc-tables"
                )
    # Every entry was validated with its source: fill the map without
    # running the checks again.
    result = ValidatedDistributions.__new__(ValidatedDistributions)
    dict.update(result, merged)
    return result


def probability_enumerate(
    formula: Formula, distributions: Distributions
) -> Fraction:
    """Exact probability by full enumeration of the product space
    (reference oracle)."""
    distributions = check_distributions(distributions)
    _require_coverage(formula, distributions)
    names = sorted(distributions)

    def recurse(position: int, valuation: Dict[str, Hashable]) -> Fraction:
        if position == len(names):
            return Fraction(1) if evaluate(formula, valuation) else Fraction(0)
        name = names[position]
        total = Fraction(0)
        for value, weight in distributions[name].items():
            valuation[name] = value
            total += Fraction(weight) * recurse(position + 1, valuation)
        del valuation[name]
        return total

    return recurse(0, {})


def probability(formula: Formula, distributions: Distributions) -> Fraction:
    """Exact probability of *formula* under independent *distributions*.

    Compiles the condition to d-DNNF and counts the circuit
    (:func:`repro.prob.wmc.wmc_probability`).
    """
    # Imported lazily: repro.prob sits above repro.logic in the package
    # layering.
    from repro.prob.wmc import wmc_probability

    return wmc_probability(formula, distributions)


def probability_shannon(
    formula: Formula, distributions: Distributions
) -> Fraction:
    """Exact probability by memoized Shannon expansion (reference oracle).

    The formula's variables are expanded in sorted-name order,
    restricted to the ones the residual formula still mentions; branches
    whose partial evaluation folds to a constant stop immediately, and
    residuals are cached so isomorphic sub-problems are solved once.
    """
    distributions = check_distributions(distributions)
    _require_coverage(formula, distributions)
    cache: Dict[Tuple[Formula, Tuple[str, ...]], Fraction] = {}

    def recurse(current: Formula, remaining: Tuple[str, ...]) -> Fraction:
        if current is TOP:
            return Fraction(1)
        if current is BOTTOM:
            return Fraction(0)
        live = tuple(name for name in remaining if name in current.variables())
        if not live:
            # No distributed variable remains but the formula did not fold:
            # it must be ground-decidable.
            folded = partial_evaluate(current, {})
            if folded is TOP:
                return Fraction(1)
            if folded is BOTTOM:
                return Fraction(0)
            raise ProbabilityError(
                f"formula retains free variables without distributions: "
                f"{sorted(current.variables())}"
            )
        key = (current, live)
        cached = cache.get(key)
        if cached is not None:
            return cached
        pivot, rest = live[0], live[1:]
        total = Fraction(0)
        for value, weight in distributions[pivot].items():
            weight = Fraction(weight)
            if weight == 0:
                continue
            branch = partial_evaluate(current, {pivot: value})
            total += weight * recurse(branch, rest)
        cache[key] = total
        return total

    order = tuple(sorted(formula.variables()))
    return recurse(partial_evaluate(formula, {}), order)


def _require_coverage(formula: Formula, distributions: Distributions) -> None:
    missing = [name for name in formula.variables() if name not in distributions]
    if missing:
        raise ProbabilityError(
            f"no distributions for variables: {sorted(missing)}"
        )


def uniform(values: Sequence[Hashable]) -> Dict[Hashable, Fraction]:
    """Return the uniform distribution over *values*."""
    if not values:
        raise ProbabilityError("cannot build a uniform distribution over nothing")
    share = Fraction(1, len(values))
    return {value: share for value in values}


def bernoulli(weight: Union[int, float, str, Fraction]) -> Dict[bool, Fraction]:
    """Return a boolean distribution with P[True] = *weight*."""
    weight = Fraction(weight)
    if not 0 <= weight <= 1:
        raise ProbabilityError(f"Bernoulli weight {weight} outside [0, 1]")
    return {True: weight, False: 1 - weight}
