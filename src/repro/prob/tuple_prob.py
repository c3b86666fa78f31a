"""The tuple-probability problem: three solvers, one answer.

"What is the probability that tuple ``t`` occurs in the answer to
``q``?" — the question attacked independently by Fuhr–Rölleke [15],
Zimányi [34] and ProbView [22] (Section 7, "Query answering").  With
pc-tables the paper's answer is structural: compute ``q̄(T)``, read off
the *condition* under which ``t`` appears (its lineage, as Section 9
remarks), and compute that condition's probability.

Three evaluation routes, raced in benchmark E18 and cross-checked by the
tests (at 60 variables in
``tests/test_wmc.py::TestWideDifferential::test_sixty_boolean_variables``):

- :func:`tuple_probability_naive` — materialize the whole p-database
  ``q(Mod(T))`` and sum over worlds containing ``t`` (exponential in the
  number of variables; the oracle the others are checked against);
- :func:`tuple_probability_lineage` — compile the lineage formula to
  d-DNNF and weighted-model-count it
  (:func:`repro.logic.counting.probability`, :mod:`repro.prob.wmc`):
  the route that scales to the 50–100-variable lineages the engine
  produces;
- :func:`tuple_probability_bdd` — for boolean pc-tables, compile the
  lineage to an OBDD and evaluate in one bottom-up pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from repro.errors import ProbabilityError
from repro.core.instance import Row
from repro.logic.atoms import is_boolean_condition
from repro.logic.bdd import Bdd
from repro.logic.syntax import Formula
from repro.algebra.ast import Query
from repro.prob.closure import image_pdatabase
from repro.prob.pctable import BooleanPCTable, PCTable


def lineage_of(
    query: Query, pctable: PCTable, row: Row, optimize: bool = False
) -> Formula:
    """Return the lineage of *row* in ``q(T)``: its membership condition.

    The condition decorating ``t`` in ``q̄(T)`` is the tuple's lineage
    a.k.a. why-provenance (the paper's Section 9 observation); this
    function materializes it as a formula over the table's variables.
    ``optimize=True`` evaluates ``q̄`` through the plan optimizer; the
    lineage may then be a syntactically different but equivalent
    formula, so its probability is unchanged.  (Shim over the default
    engine; :meth:`repro.engine.Dataset.lineage` shares the evaluated
    answer with the other terminals.)
    """
    from repro.engine import default_engine

    return default_engine().answer_pctable(
        query, pctable, simplify_conditions=False, optimize=optimize
    ).membership_condition(row)


def tuple_probability_naive(
    query: Query, pctable: PCTable, row: Row
) -> Fraction:
    """P[t ∈ q(I)] by enumerating the answer p-database's worlds."""
    row = tuple(row)
    answer_distribution = image_pdatabase(
        query, pctable.mod()  # enumeration-ok: the semantics oracle
    )
    return answer_distribution.tuple_probability(row)


def tuple_probability_lineage(
    query: Query, pctable: PCTable, row: Row, optimize: bool = False
) -> Fraction:
    """P[t ∈ q(I)] by d-DNNF compilation + weighted model counting.

    Compiles the lineage once (:mod:`repro.logic.compile`) and counts
    the circuit (:mod:`repro.prob.wmc`); exact on arbitrary pc-tables,
    polynomial in the circuit size rather than ``2^variables``.
    """
    lineage = lineage_of(query, pctable, row, optimize=optimize)
    from repro.logic.counting import probability

    return probability(lineage, pctable.distributions)


def tuple_probability_bdd(
    query: Query,
    pctable: BooleanPCTable,
    row: Row,
    order: Optional[Sequence[str]] = None,
    optimize: bool = False,
) -> Fraction:
    """P[t ∈ q(I)] by OBDD compilation of the lineage (boolean tables).

    *order* fixes the BDD variable order (sorted names by default);
    benchmark E18 compares orders.
    """
    lineage = lineage_of(query, pctable, row, optimize=optimize)
    if not is_boolean_condition(lineage):
        raise ProbabilityError(
            "BDD evaluation requires a boolean lineage; general pc-tables "
            "use tuple_probability_lineage"
        )
    names = sorted(pctable.variables()) if order is None else list(order)
    manager = Bdd(names)
    node = manager.from_formula(lineage)
    return manager.probability(node, pctable.weights())
