"""Weighted model counting over compiled d-DNNF circuits.

This is the scalable half of the paper's probability story: Theorem 9
reads the probability of an answer tuple off its (membership) condition,
and that read is a weighted model count over the independent variable
distributions of Definition 13.  :mod:`repro.logic.compile` turns the
condition into a d-DNNF circuit once; this module assigns every CNF
literal a weight drawn from ``dom(x)`` and evaluates the circuit in a
single pass of exact integer arithmetic: every node's count is an
integer numerator over per-variable common denominators, and one
:class:`fractions.Fraction` is built from the root's numerator at the
end.

Weights
-------

The compiler maps every outcome variable to its ``(name, value)`` pair
(:attr:`repro.logic.compile.CompiledCircuit.var_atom`), so a weight is a
lookup in the distributions:

- A **one-hot** variable ``x = v`` weighs ``p(v)`` positively and ``1``
  negatively; the exactly-one clauses emitted by the compiler make the
  product over a group pick out exactly one outcome's probability.
- A **two-value variable** is encoded as the single proposition
  ``x = v₀``, weighted ``(p(v₀), p(v₁))`` — no exactly-one clauses, and
  the weights sum to 1 so smoothing gaps cost nothing.
- **Tseitin definitions** have no pair and weigh ``(1, 1)``: the full
  biconditional encoding makes them functionally determined, so they
  never multiply the count.
- A **complemented** circuit (a DNF condition F) counts ``EO ∧ ¬F``,
  EO being the exactly-one clauses, and P(F) is ``1 − W(EO ∧ ¬F)``.
  Exact, because validated distributions sum to 1: a two-value pair
  adds ``p(v₀) + p(v₁) = 1`` and a one-hot group, whose EO models set
  one variable each, adds ``Σ p(v) · 1 = 1``, so ``W(EO) = 1``.

Zero-probability outcomes are dropped from every support before
compilation — a condition true only on measure-zero outcomes is simply
false, and dropping them keeps the circuits (and one-hot groups) small.

The compiled artifact (:class:`CompiledCondition`) memoizes its count,
so the engine's circuit cache (:class:`repro.engine.cache.CircuitCache`)
turns a prepared probability loop into pure cache hits: compile once,
count once, then answer from memory.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import ProbabilityError
from repro.logic.compile import CompiledCircuit, Supports, compile_condition
from repro.logic.counting import Distributions, check_distributions
from repro.logic.syntax import Formula


def condition_supports(
    formula: Formula, distributions: Distributions
) -> Dict[str, Tuple[Hashable, ...]]:
    """Return the positive-probability supports of the condition's variables.

    Restricted to the variables *formula* mentions (unmentioned
    distributions integrate out to a factor of 1), with outcomes in a
    deterministic repr-sorted order, zero-weight outcomes removed.
    Raises :class:`ProbabilityError` when a condition variable has no
    distribution.
    """
    missing = [name for name in formula.variables() if name not in distributions]
    if missing:
        raise ProbabilityError(
            f"no distributions for variables: {sorted(missing)}"
        )
    supports: Dict[str, Tuple[Hashable, ...]] = {}
    for name in sorted(formula.variables()):
        distribution = distributions[name]
        supports[name] = tuple(
            sorted(
                (
                    value
                    for value, weight in distribution.items()
                    if Fraction(weight) != 0
                ),
                key=repr,
            )
        )
    return supports


class CompiledCondition:
    """A condition compiled to d-DNNF with its literal weights attached.

    The probability is computed lazily and memoized: the engine's
    circuit cache stores these objects, so a cache hit answers a
    prepared probability query without re-compiling *or* re-counting.
    (The memoization race under concurrent readers is benign — every
    thread computes the same exact ``Fraction``.)
    """

    __slots__ = ("formula", "compiled", "_pos", "_neg", "_probability")

    def __init__(
        self,
        formula: Formula,
        compiled: CompiledCircuit,
        pos: Dict[int, Fraction],
        neg: Dict[int, Fraction],
    ) -> None:
        self.formula = formula
        self.compiled = compiled
        self._pos = pos
        self._neg = neg
        self._probability: Optional[Fraction] = None

    def circuit_size(self) -> int:
        """Return the node count of the compiled circuit."""
        return self.compiled.circuit.size()

    def probability(self) -> Fraction:
        """Return the exact probability of the condition (memoized)."""
        result = self._probability
        if result is None:
            result = self.compiled.circuit.weighted_count(self._pos, self._neg)
            if self.compiled.complemented:
                result = 1 - result
            self._probability = result
        return result


def compile_probability(
    formula: Formula, distributions: Distributions
) -> CompiledCondition:
    """Compile *formula* under *distributions* into a weighted circuit.

    Every variable starts at weight ``(1, 1)``; each outcome variable
    then takes its weights from its ``(name, value)`` pair, the
    negative one from the second outcome when the support has two.
    """
    distributions = check_distributions(distributions)
    supports: Supports = condition_supports(formula, distributions)
    compiled = compile_condition(formula, supports)
    pos = dict.fromkeys(range(1, compiled.circuit.num_vars + 1), Fraction(1))
    neg = dict(pos)
    for variable, (name, value) in compiled.var_atom.items():
        distribution = distributions[name]
        pos[variable] = distribution[value]
        support = compiled.supports[name]
        if len(support) == 2:
            neg[variable] = distribution[support[1]]
    return CompiledCondition(formula, compiled, pos, neg)


def wmc_probability(formula: Formula, distributions: Distributions) -> Fraction:
    """Exact condition probability by d-DNNF compilation + weighted counting.

    The route behind :func:`repro.logic.counting.probability`: cost
    scales with condition size and circuit size, never with
    ``2^variables``.
    """
    return compile_probability(formula, distributions).probability()
