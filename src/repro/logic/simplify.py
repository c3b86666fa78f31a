"""Negation normal form and algebraic simplification of conditions.

The smart constructors in :mod:`repro.logic.syntax` already perform the
cheap normalizations; this module adds the recursive passes used when
condition size matters (the c-table algebra composes conditions at every
operator, so projection-heavy query plans benefit from periodic
simplification; benchmark E08 measures the effect).
"""

from __future__ import annotations

from repro.logic.syntax import (
    And,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    conj,
    disj,
    is_atom,
    neg,
)


def nnf(formula: Formula) -> Formula:
    """Rewrite *formula* into negation normal form.

    Negations are pushed down to the atoms using De Morgan's laws; the
    result contains ``Not`` only directly above atoms.  Interning makes
    shared sub-formulas a single node, so a per-call memo turns the pass
    into a single visit per distinct sub-formula.
    """
    return _nnf(formula, {})


def _nnf(formula: Formula, memo: dict) -> Formula:
    if isinstance(formula, (Top, Bottom)) or is_atom(formula):
        return formula
    cached = memo.get(formula)
    if cached is not None:
        return cached
    if isinstance(formula, And):
        result = conj(*(_nnf(child, memo) for child in formula.children))
    elif isinstance(formula, Or):
        result = disj(*(_nnf(child, memo) for child in formula.children))
    else:
        # formula is a negation: dispatch on what is underneath.
        child = formula.child
        if is_atom(child):
            result = formula
        elif isinstance(child, Not):
            result = _nnf(child.child, memo)
        elif isinstance(child, And):
            result = disj(*(_nnf(neg(grand), memo) for grand in child.children))
        elif isinstance(child, Or):
            result = conj(*(_nnf(neg(grand), memo) for grand in child.children))
        else:
            result = neg(_nnf(child, memo))
    memo[formula] = result
    return result


def simplify(formula: Formula) -> Formula:
    """Recursively simplify *formula*.

    Converts to NNF, then applies absorption (``a & (a | b) -> a`` and its
    dual) and re-runs the smart constructors bottom-up so that folds
    cascade.  This is a heuristic size reduction, not a canonical form;
    equivalence checking belongs to :mod:`repro.logic.equality_sat`.
    """
    return _absorb(nnf(formula), {})


def _absorb(formula: Formula, memo: dict) -> Formula:
    if isinstance(formula, (Top, Bottom)) or is_atom(formula):
        return formula
    cached = memo.get(formula)
    if cached is not None:
        return cached
    result = _absorb_uncached(formula, memo)
    memo[formula] = result
    return result


def _absorb_uncached(formula: Formula, memo: dict) -> Formula:
    if isinstance(formula, Not):
        return neg(_absorb(formula.child, memo))
    children = [_absorb(child, memo) for child in formula.children]
    if isinstance(formula, And):
        # a & (a | b)  ->  a: drop any disjunction containing another child.
        kept = []
        child_set = set(children)
        for child in children:
            if isinstance(child, Or) and any(
                grand in child_set for grand in child.children
            ):
                continue
            kept.append(child)
        return conj(*kept)
    # Or: a | (a & b) -> a.
    kept = []
    child_set = set(children)
    for child in children:
        if isinstance(child, And) and any(
            grand in child_set for grand in child.children
        ):
            continue
        kept.append(child)
    return disj(*kept)


def formula_size(formula: Formula) -> int:
    """Return the node count of *formula* (atoms, constants, connectives)."""
    if isinstance(formula, (Top, Bottom)) or is_atom(formula):
        return 1
    if isinstance(formula, Not):
        return 1 + formula_size(formula.child)
    return 1 + sum(formula_size(child) for child in formula.children)
