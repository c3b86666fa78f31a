"""Probabilistic databases and probabilistic representation systems.

Sections 6–8 of the paper, executable:

- :mod:`repro.prob.space` — finite probability spaces, product spaces
  (Definition 12, Proposition 3), image spaces (Definition 10),
- :mod:`repro.prob.pdatabase` — probabilistic databases (Definition 9),
- :mod:`repro.prob.ptables` — p-?-tables (Proposition 2) and
  p-or-set-tables (Example 6),
- :mod:`repro.prob.pctable` — probabilistic c-tables (Definition 13),
- :mod:`repro.prob.completeness` — Theorem 8: boolean pc-tables are
  complete,
- :mod:`repro.prob.closure` — Theorem 9: pc-tables are closed under RA,
- :mod:`repro.prob.tuple_prob` — the tuple-probability problem of
  [15, 22, 34], solved naively, by lineage compilation to d-DNNF +
  weighted model counting, and by BDD compilation,
- :mod:`repro.prob.wmc` — exact weighted model counting over compiled
  d-DNNF circuits (:mod:`repro.logic.compile`): the route that scales
  probability to 50–100-variable conditions,
- :mod:`repro.prob.extensional` — the Dalvi–Suciu [9] extensional
  (safe-plan) evaluation for independent-tuple tables, including the
  hierarchical safety test.
"""

from repro.prob.space import FiniteProbSpace, image_space, product_space
from repro.prob.pdatabase import PDatabase
from repro.prob.ptables import POrSetTable, PQTable
from repro.prob.pctable import BooleanPCTable, PCTable
from repro.prob.completeness import boolean_pctable_for
from repro.prob.closure import answer_pctable, verify_prob_closure
from repro.prob.tuple_prob import (
    lineage_of,
    tuple_probability_bdd,
    tuple_probability_lineage,
    tuple_probability_naive,
)
from repro.prob.wmc import (
    CompiledCondition,
    compile_probability,
    wmc_probability,
)
from repro.prob.bayes import DependentPCTable, VariableNetwork
from repro.prob.possibilistic import (
    PossibilisticCTable,
    PossibilisticDatabase,
    verify_possibilistic_closure,
)
from repro.prob.extensional import (
    ConjunctiveQuery,
    ProbRelation,
    atom,
    is_hierarchical,
    lineage_probability_cq,
    safe_plan_probability,
)

__all__ = [
    "BooleanPCTable",
    "CompiledCondition",
    "ConjunctiveQuery",
    "DependentPCTable",
    "FiniteProbSpace",
    "PCTable",
    "PDatabase",
    "POrSetTable",
    "PQTable",
    "PossibilisticCTable",
    "PossibilisticDatabase",
    "VariableNetwork",
    "ProbRelation",
    "answer_pctable",
    "atom",
    "boolean_pctable_for",
    "compile_probability",
    "image_space",
    "is_hierarchical",
    "lineage_of",
    "lineage_probability_cq",
    "product_space",
    "safe_plan_probability",
    "tuple_probability_bdd",
    "tuple_probability_lineage",
    "tuple_probability_naive",
    "verify_possibilistic_closure",
    "verify_prob_closure",
    "wmc_probability",
]
