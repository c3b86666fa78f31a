"""Evaluation and substitution for condition formulas.

A *valuation* maps variable names to values: domain values for
:class:`~repro.logic.atoms.Var` occurrences and booleans for
:class:`~repro.logic.atoms.BoolVar` atoms.  The paper's semantics of a
c-table applies a valuation to every tuple and keeps the tuple when its
condition evaluates to true; :func:`evaluate` is exactly that test.

:func:`partial_evaluate` substitutes only the variables a valuation
covers and folds what becomes decidable, which is the workhorse behind
pruned model enumeration and Shannon-expansion probability computation.

Memoization
-----------

World enumeration (``CTable.mod()``/``possible_worlds()``) evaluates the
same row conditions under every admissible valuation, and those
conditions share sub-formulas aggressively thanks to the interning layer
in :mod:`repro.logic.syntax`.  Both :func:`evaluate` and
:func:`partial_evaluate` therefore memoize connective nodes in a global
cache keyed on ``(node, relevant valuation slice)`` — the values the
valuation assigns to exactly the node's variables.  Two valuations that
agree on a sub-formula's variables share one cache entry, so each shared
sub-formula is evaluated once per distinct restriction instead of once
per world.  The caches are bounded (flushed wholesale when full) and can
be disabled with :func:`set_evaluation_cache`; the tests use the
uncached evaluator as the reference the memoized one must agree with.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Mapping, Tuple, TypeVar

from repro.errors import ValuationError
from repro.logic.atoms import BoolVar, Const, Eq, Term, Var
from repro.obs.metrics import CacheStats
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    conj,
    disj,
    neg,
)

Valuation = Mapping[str, Hashable]

_T = TypeVar("_T")

#: Sentinel marking a variable the valuation does not cover.
_MISSING = object()

#: Hard bound on each per-node memo; when exceeded, that node's memo is
#: flushed whole (the entries are cheap to recompute and a FIFO/LRU
#: policy is not worth the bookkeeping on this hot path).
_CACHE_LIMIT = 1 << 12

#: Nodes that currently hold a memo, so the caches can be cleared.
_memoized_nodes: "weakref.WeakSet" = weakref.WeakSet()
_cache_enabled = True

#: Unified hit/miss accounting for the memo caches, in the same
#: `CacheStats` shape as the engine's plan/result/circuit caches.
#: Evictions count entries dropped by wholesale memo flushes at
#: ``_CACHE_LIMIT``; invalidations count entries dropped by
#: :func:`clear_evaluation_caches`.
_stats = CacheStats()


def set_evaluation_cache(enabled: bool) -> None:
    """Enable or disable the evaluate/partial_evaluate memo caches.

    Disabling also clears them; results are identical either way — the
    toggle exists so tests can check the memoized evaluator against the
    uncached reference.
    """
    global _cache_enabled
    _cache_enabled = bool(enabled)
    clear_evaluation_caches()


def clear_evaluation_caches() -> None:
    """Drop every memoized evaluation result."""
    dropped = 0
    for node in list(_memoized_nodes):
        for slot in ("_ememo", "_pmemo"):
            try:
                memo = getattr(node, slot)
            except AttributeError:
                continue
            dropped += len(memo)
            memo.clear()
    _memoized_nodes.clear()
    if dropped:
        _stats.invalidated(dropped)


def evaluation_cache_stats() -> dict:
    """Sizes plus unified hit/miss counters of the evaluation memo caches.

    The counter keys (``hits``/``misses``/``evictions``/``invalidations``)
    match the other engine caches, so ``Engine.metrics_snapshot()`` can
    present all four caches uniformly.
    """
    evaluate_entries = 0
    partial_entries = 0
    for node in _memoized_nodes:
        try:
            evaluate_entries += len(node._ememo)
        except AttributeError:
            pass
        try:
            partial_entries += len(node._pmemo)
        except AttributeError:
            pass
    stats: dict = dict(_stats.as_dict())
    stats["enabled"] = _cache_enabled
    stats["evaluate_entries"] = evaluate_entries
    stats["partial_evaluate_entries"] = partial_entries
    return stats


def _node_memo(formula: Formula, slot: str) -> dict:
    """Return the formula's memo dict for *slot*, creating it lazily.

    The memo lives on the (immutable, interned) node itself: the cache
    key is then just the valuation slice, with no repeated hashing of
    the formula, and dropping the node drops its memo.
    """
    try:
        return getattr(formula, slot)
    except AttributeError:
        memo: dict = {}
        object.__setattr__(formula, slot, memo)
        _memoized_nodes.add(formula)
        return memo


def _memoized(
    formula: Formula,
    slot: str,
    compute: "Callable[[Formula, Valuation], _T]",
    valuation: Valuation,
) -> _T:
    """Memoize ``compute(formula, valuation)`` on the node's *slot* dict,
    keyed by the values the valuation assigns to the node's variables."""
    memo = _node_memo(formula, slot)
    key = tuple(
        valuation.get(name, _MISSING)
        for name in formula.sorted_variables()
    )
    cached = memo.get(key)
    if cached is not None:
        _stats.hit()
        return cached
    _stats.miss()
    result = compute(formula, valuation)
    if len(memo) >= _CACHE_LIMIT:
        _stats.evicted(len(memo))
        memo.clear()
    memo[key] = result
    return result


def _term_value(
    term: Term, valuation: Valuation, strict: bool
) -> "Tuple[bool, Hashable]":
    if isinstance(term, Const):
        return True, term.value
    if term.name in valuation:
        return True, valuation[term.name]
    if strict:
        raise ValuationError(f"valuation does not cover variable {term.name!r}")
    return False, None


def evaluate(formula: Formula, valuation: Valuation) -> bool:
    """Evaluate *formula* to a boolean under a total *valuation*.

    Raises :class:`~repro.errors.ValuationError` if the valuation misses a
    variable that the formula actually needs (short-circuiting may let
    incomplete valuations succeed, matching logical intuition: ``true | x``
    is true regardless of ``x``).
    """
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Eq):
        _, left = _term_value(formula.left, valuation, strict=True)
        _, right = _term_value(formula.right, valuation, strict=True)
        return left == right
    if isinstance(formula, BoolVar):
        if formula.name not in valuation:
            raise ValuationError(
                f"valuation does not cover boolean variable {formula.name!r}"
            )
        return bool(valuation[formula.name])
    if isinstance(formula, (Not, And, Or)):
        if not _cache_enabled:
            return _evaluate_connective(formula, valuation)
        return _memoized(formula, "_ememo", _evaluate_connective, valuation)
    raise ValuationError(f"cannot evaluate unknown formula node {formula!r}")


def _evaluate_connective(formula: Formula, valuation: Valuation) -> bool:
    if isinstance(formula, Not):
        return not evaluate(formula.child, valuation)
    if isinstance(formula, And):
        return all(evaluate(child, valuation) for child in formula.children)
    return any(evaluate(child, valuation) for child in formula.children)


def partial_evaluate(formula: Formula, valuation: Valuation) -> Formula:
    """Substitute the covered variables of *formula* and fold constants.

    The result contains no variable bound by *valuation*; if every
    variable was covered the result is ``TOP`` or ``BOTTOM``.
    """
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Eq):
        left_known, left = _term_value(formula.left, valuation, strict=False)
        right_known, right = _term_value(formula.right, valuation, strict=False)
        if left_known and right_known:
            return TOP if left == right else BOTTOM
        from repro.logic.atoms import eq

        new_left = Const(left) if left_known else formula.left
        new_right = Const(right) if right_known else formula.right
        return eq(new_left, new_right)
    if isinstance(formula, BoolVar):
        if formula.name in valuation:
            return TOP if valuation[formula.name] else BOTTOM
        return formula
    if isinstance(formula, (Not, And, Or)):
        if not _cache_enabled:
            return _partial_evaluate_connective(formula, valuation)
        return _memoized(
            formula, "_pmemo", _partial_evaluate_connective, valuation
        )
    raise ValuationError(f"cannot evaluate unknown formula node {formula!r}")


def _partial_evaluate_connective(
    formula: Formula, valuation: Valuation
) -> Formula:
    if isinstance(formula, Not):
        return neg(partial_evaluate(formula.child, valuation))
    if isinstance(formula, And):
        return conj(*(partial_evaluate(child, valuation) for child in formula.children))
    return disj(*(partial_evaluate(child, valuation) for child in formula.children))


def substitute(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Replace variables by *terms* (not values) throughout *formula*.

    Used by query translation, where a selection predicate over column
    indexes is instantiated with the terms of a symbolic tuple.
    """
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Eq):
        from repro.logic.atoms import eq

        left = mapping.get(formula.left.name, formula.left) if isinstance(
            formula.left, Var
        ) else formula.left
        right = mapping.get(formula.right.name, formula.right) if isinstance(
            formula.right, Var
        ) else formula.right
        return eq(left, right)
    if isinstance(formula, BoolVar):
        replacement = mapping.get(formula.name)
        if replacement is None:
            return formula
        if isinstance(replacement, Formula):
            return replacement
        raise ValuationError(
            f"boolean variable {formula.name!r} must be replaced by a formula"
        )
    if isinstance(formula, Not):
        return neg(substitute(formula.child, mapping))
    if isinstance(formula, And):
        return conj(*(substitute(child, mapping) for child in formula.children))
    if isinstance(formula, Or):
        return disj(*(substitute(child, mapping) for child in formula.children))
    raise ValuationError(f"cannot substitute in unknown formula node {formula!r}")
