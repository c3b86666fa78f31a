"""Boolean and equality logic substrate.

c-table conditions (Imieliński–Lipski) are boolean combinations of
equalities between variables and constants; boolean c-tables use
propositional variables instead.  This package provides everything the
rest of the library needs to manipulate such conditions:

- :mod:`repro.logic.syntax` / :mod:`repro.logic.atoms` — immutable formula
  ASTs with smart constructors,
- :mod:`repro.logic.evaluation` — total and partial evaluation under
  valuations,
- :mod:`repro.logic.simplify` — negation normal form and algebraic
  simplification,
- :mod:`repro.logic.cnf` — clause-form conversion,
- :mod:`repro.logic.sat` — a DPLL SAT solver,
- :mod:`repro.logic.models` — satisfying-valuation enumeration over
  finite variable domains,
- :mod:`repro.logic.equality_sat` — the one decision procedure for
  conditions over the infinite domain (satisfiability, validity,
  implication, equivalence): DPLL plus an equality-theory loop, with
  witness-domain enumeration kept as its reference oracle,
- :mod:`repro.logic.bdd` — ordered binary decision diagrams with
  weighted model counting,
- :mod:`repro.logic.counting` — probability of formulas over
  multi-valued distributed variables (compiled d-DNNF counting, with
  enumeration and Shannon expansion as reference oracles).

Interning invariants
--------------------

Formula nodes are **hash-consed**: constructing a node with the same
class and structurally equal fields returns the *same object*.  The
resulting invariants, relied on across the library:

1. **Identity implies structural equality**, and for positionally
   constructed nodes the converse holds too — ``conj(a, b) is
   conj(a, b)`` — so equality checks short-circuit on ``is`` and
   dictionary keys dedupe for free.
2. **The smart constructors are the canonical entry points.**
   :func:`conj`, :func:`disj`, :func:`neg`, and :func:`eq` perform the
   always-safe normalizations (flattening, constant folding,
   deduplication, complement detection, double negation, term ordering)
   *and* intern; raw dataclass construction also interns but skips
   normalization, and is reserved for internal use.
3. **Nodes are immutable and analyses are cached per node**:
   ``atoms()``, ``variables()``, and the sorted-variable tuple are
   computed once; :func:`~repro.logic.evaluation.evaluate` and
   :func:`~repro.logic.evaluation.partial_evaluate` memoize on
   ``(node, relevant valuation slice)``; :func:`simplify`/:func:`nnf`
   visit each distinct sub-formula once.
4. **Interning is transparent.**  No public API changed signature or
   semantics; the intern table holds nodes weakly, so formulas are
   garbage-collected normally.
"""

from repro.logic.atoms import BoolVar, Const, Eq, Term, Var, eq, ne
from repro.logic.syntax import (
    And,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    conj,
    disj,
    interning_stats,
    neg,
    BOTTOM,
    TOP,
)
from repro.logic.evaluation import (
    clear_evaluation_caches,
    evaluate,
    evaluation_cache_stats,
    partial_evaluate,
    set_evaluation_cache,
    substitute,
)
from repro.logic.simplify import nnf, simplify
from repro.logic.sat import Solver, is_satisfiable_clauses, solve_clauses
from repro.logic.models import enumerate_models, count_models
from repro.logic.equality_sat import (
    constants_of,
    decide_condition,
    distinguishing_assignment,
    equivalent_conditions,
    is_satisfiable_finite,
    is_satisfiable_infinite,
    is_valid_infinite,
    witness_domain,
    xor_condition,
)
from repro.logic.bdd import Bdd
from repro.logic.counting import probability

__all__ = [
    "And",
    "Bdd",
    "BoolVar",
    "Bottom",
    "BOTTOM",
    "Const",
    "Eq",
    "Formula",
    "Not",
    "Or",
    "Solver",
    "Term",
    "Top",
    "TOP",
    "Var",
    "clear_evaluation_caches",
    "conj",
    "constants_of",
    "count_models",
    "decide_condition",
    "disj",
    "distinguishing_assignment",
    "equivalent_conditions",
    "evaluation_cache_stats",
    "interning_stats",
    "set_evaluation_cache",
    "enumerate_models",
    "eq",
    "evaluate",
    "is_satisfiable_clauses",
    "is_satisfiable_finite",
    "is_satisfiable_infinite",
    "is_valid_infinite",
    "ne",
    "neg",
    "nnf",
    "partial_evaluate",
    "probability",
    "simplify",
    "solve_clauses",
    "substitute",
    "witness_domain",
    "xor_condition",
]
