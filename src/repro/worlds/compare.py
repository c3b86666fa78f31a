"""Semantic comparisons of tables and incomplete databases.

Over the infinite domain, ``Mod(T)`` is infinite, so equality of two
tables' semantics cannot be checked by enumeration of ``D``.  We use the
small-model property (see :mod:`repro.logic.equality_sat`): the
instances in ``Mod(T)`` are images of valuations, valuations matter only
through (a) which variables are equal to each other, (b) which variables
equal which constants — and every such pattern over the union of the two
tables' variables and constants is realized inside a finite *witness
domain* containing all the constants plus one fresh value per variable.
Comparing ``Mod`` restricted to that domain therefore decides full
equality.  :func:`witness_domain_for` builds the domain;
:func:`mod_equal_over` does the comparison.

Enumerating the witness domain is still exponential in the number of
variables, so it cannot scale past a handful of variables.
:func:`ctables_equivalent_symbolic` avoids enumeration entirely: it
groups rows by term tuple and proves per-tuple *condition* equivalence
with the SAT + equality-theory loop of :mod:`repro.logic.equality_sat` —
a certificate of ``Mod``-equality whose cost scales with condition size,
not ``2^variables``.  :func:`ctables_equivalent` dispatches between the
two automatically: symbolic first, enumeration (with collapse-style
canonical world hashing, :func:`worlds_signature`) only to settle
negative symbolic answers within a small variable budget.

For closure (Theorem 4), :func:`lemma1_holds` checks the per-valuation
identity ``ν(q̄(T)) = q(ν(T))``, which is stronger than Mod-level
equality and cheaper to test; :func:`closure_holds` checks the Mod-level
consequence.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.domain import Domain
from repro.core.idatabase import IDatabase
from repro.core.instance import Instance
from repro.errors import UnsupportedOperationError
from repro.logic.atoms import Term, is_boolean_condition, is_equality_condition
from repro.logic.equality_sat import equivalent_conditions, fresh_values
from repro.logic.syntax import BOTTOM, Formula, conj, disj
from repro.algebra.ast import Query
from repro.algebra.evaluate import apply_query
from repro.ctalgebra.translate import apply_query_to_ctable
from repro.tables.ctable import CTable

#: Above this many combined variables, :func:`ctables_equivalent` stops
#: settling negative symbolic answers by enumeration and trusts the
#: (conservative) symbolic verdict — enumeration is ``Θ(|domain|^vars)``.
SYMBOLIC_VARIABLE_BUDGET = 8


def witness_domain_for(
    *tables: CTable,
    extra: int = 0,
    constants: Sequence[Hashable] = (),
) -> Domain:
    """Return a finite domain deciding Mod-level questions for *tables*.

    Contains every constant of every table (plus caller-supplied
    *constants*, e.g. those of a query under study), and one fresh value
    per variable across all tables, plus *extra* more.
    """
    all_constants = set(constants)
    variables = set()
    for table in tables:
        all_constants |= table.constants()
        variables |= table.variables()
    # Never produce an empty domain: a degenerate table with no
    # constants and no variables still needs one value to range over.
    fresh = fresh_values(max(1, len(variables) + extra))
    return Domain(sorted(all_constants, key=repr) + list(fresh))


def mod_equal_over(
    left: CTable,
    right: CTable,
    domain: Optional[Union[Domain, Sequence]] = None,
) -> bool:
    """Compare ``Mod(left)`` and ``Mod(right)`` over a common domain.

    With ``domain=None`` a joint witness domain is computed, making the
    comparison decide genuine infinite-domain equality.
    """
    if domain is None:
        domain = witness_domain_for(left, right)
    return left.mod_over(domain) == right.mod_over(domain)


def world_signature(instance: Instance) -> Tuple[int, FrozenSet]:
    """Return a canonical hashable key identifying one possible world.

    Collapse-style canonicalization (after ``collapse()`` in the
    folseparators model dedup): two valuations producing the same ground
    relation map to the same key, so enumerated worlds dedup by set
    membership without materializing :class:`IDatabase` objects.
    """
    return (instance.arity, instance.rows)


def worlds_signature(
    table: CTable, domain: Union[Domain, Sequence]
) -> FrozenSet[Tuple[int, FrozenSet]]:
    """Return the set of canonical world keys of ``Mod(table)`` over *domain*."""
    return frozenset(
        world_signature(world) for world in table.possible_worlds(domain)
    )


def _symbolic_eligible(table: CTable) -> bool:
    """True when symbolic condition equivalence matches Mod semantics.

    Two shapes qualify: infinite-domain tables whose conditions are pure
    equality logic (the paper's c-tables — decided by the small-model
    theory closure), and boolean c-tables (two-valued variables — plain
    propositional logic).  Finite-domain tables and infinite-domain
    tables mixing ``BoolVar`` atoms into domain-valued valuations keep
    the enumeration semantics.
    """
    if table.is_boolean():
        return True
    if table.domains is not None:
        return False
    return is_equality_condition(table.global_condition) and all(
        is_equality_condition(row.condition) for row in table.rows
    )


def _membership_conditions(table: CTable) -> Dict[Tuple[Term, ...], Formula]:
    """Group rows by term tuple; value = disjunction of the rows' conditions."""
    grouped: Dict[Tuple[Term, ...], List[Formula]] = {}
    for row in table.rows:
        grouped.setdefault(row.values, []).append(row.condition)
    return {values: disj(*conditions) for values, conditions in grouped.items()}


def ctables_equivalent_symbolic(
    left: CTable,
    right: CTable,
    *,
    strict: bool = True,
) -> bool:
    """Certify ``Mod(left) = Mod(right)`` by per-tuple condition equivalence.

    Rows are grouped by term tuple under the combined variable set; the
    tables are accepted when the global conditions are equivalent and,
    for every term tuple, the disjunctions of its row conditions (each
    taken under its table's global condition) are equivalent — a tuple
    present on one side only must have unsatisfiable membership.  Under
    every valuation the two tables then activate the same term tuples,
    so their ``Mod`` sets coincide over any domain: ``True`` is a proof.

    ``False`` is conservative: tables that disagree tuple-by-tuple can
    still enumerate to equal world sets (e.g. ``{t: b}`` vs ``{t: ¬b}``
    both describe "``t`` or nothing").  :func:`ctables_equivalent`
    settles such answers by enumeration when the variable budget allows.

    Cost scales with the number of distinct tuples and condition sizes —
    never with ``2^variables`` — which is what lifts the table-size caps
    in the differential harness (see the 100-variable pair in
    ``tests/test_equivalence.py``, far beyond any enumerable witness
    domain).

    With ``strict=False`` the Mod-semantics eligibility check is skipped
    and every ``BoolVar`` is interpreted as a two-valued proposition —
    the reading the semantic plan verifier wants for its abstract tables,
    where boolean variables *are* symbolic row-presence flags rather
    than domain-valued c-table variables.
    """
    if left.arity != right.arity:
        return False
    if strict:
        for table in (left, right):
            if not _symbolic_eligible(table):
                raise UnsupportedOperationError(
                    "symbolic equivalence needs pure-equality or boolean "
                    f"conditions over an unrestricted domain; got {table!r}"
                )
    left_global = left.global_condition
    right_global = right.global_condition
    if not equivalent_conditions(left_global, right_global):
        return False
    left_by_tuple = _membership_conditions(left)
    right_by_tuple = _membership_conditions(right)
    for values in left_by_tuple.keys() | right_by_tuple.keys():
        in_left = conj(left_global, left_by_tuple.get(values, BOTTOM))
        in_right = conj(right_global, right_by_tuple.get(values, BOTTOM))
        if not equivalent_conditions(in_left, in_right):
            return False
    return True


def ctables_equivalent(
    left: CTable,
    right: CTable,
    extra: int = 0,
    *,
    enumerate: Optional[bool] = None,
    variable_budget: int = SYMBOLIC_VARIABLE_BUDGET,
) -> bool:
    """Decide ``Mod(left) = Mod(right)`` over the infinite domain.

    By default the symbolic certificate is tried first and settles the
    question whenever it answers ``True``; a (conservative) ``False`` is
    re-checked by witness-domain enumeration only while the combined
    variable count stays within *variable_budget* — above it the
    symbolic verdict stands, because enumeration is exponential in the
    variables.  ``enumerate=True`` forces the enumeration engine
    (flagged outside oracle modules by lint EXP001); ``enumerate=False``
    forces the pure symbolic path.
    """
    if enumerate is True:
        return _enumerated_equivalent(left, right, extra)
    symbolic_ok = _symbolic_eligible(left) and _symbolic_eligible(right)
    if enumerate is False:
        return ctables_equivalent_symbolic(left, right)
    if not symbolic_ok:
        return _enumerated_equivalent(left, right, extra)
    if left.arity == right.arity and ctables_equivalent_symbolic(left, right):
        return True
    if len(left.variables() | right.variables()) <= variable_budget:
        return _enumerated_equivalent(left, right, extra)
    return False


def _enumerated_equivalent(left: CTable, right: CTable, extra: int = 0) -> bool:
    """Witness-domain enumeration with canonical world-signature dedup."""
    if left.arity != right.arity:
        return False
    if left.is_boolean() and right.is_boolean():
        # Boolean conditions see domain values only through truthiness,
        # and the infinite domain realizes both truthiness classes, so
        # ``{False, True}`` is the exact witness domain.  The
        # equality-logic witness below (constants + fresh values) can
        # happen to be all-truthy, which would silently fix every
        # ``BoolVar`` to ⊤.
        domain: Union[Domain, Sequence] = (False, True)
    else:
        domain = witness_domain_for(left, right, extra=extra)
    return worlds_signature(left, domain) == worlds_signature(right, domain)


def lemma1_holds(
    query: Query,
    table: CTable,
    valuation: Mapping[str, Hashable],
    optimize: bool = False,
) -> bool:
    """Check Lemma 1 at one valuation: ``ν(q̄(T)) = q(ν(T))``.

    With ``optimize=True`` the identity is checked for the *optimized*
    plan — every rewrite is classically sound, so it must hold there
    too; the planner property tests rely on this.
    """
    translated = apply_query_to_ctable(query, table, optimize=optimize)
    left = translated.apply_valuation(valuation)
    right = apply_query(query, table.apply_valuation(valuation))
    return left == right


def closure_holds(
    query: Query,
    table: CTable,
    domain: Optional[Union[Domain, Sequence]] = None,
    optimize: bool = False,
) -> bool:
    """Check Theorem 4 at Mod level: ``Mod(q̄(T)) = q(Mod(T))``.

    The right-hand side is computed naively (per-world query evaluation),
    the left-hand side through the c-table algebra; with ``domain=None``
    the joint witness domain (including the query's constants) is used.
    """
    if domain is None:
        query_constants = [
            value
            for row_source in query.walk()
            for value in _query_node_constants(row_source)
        ]
        domain = witness_domain_for(table, constants=query_constants)
    translated = apply_query_to_ctable(query, table, optimize=optimize)
    via_algebra = translated.mod_over(domain)
    naive = IDatabase(
        (
            apply_query(query, instance)
            for instance in table.mod_over(domain)
        ),
        arity=query.arity,
    )
    return via_algebra == naive


def _query_node_constants(node) -> Sequence[Hashable]:
    """Collect constants appearing in a query node (ConstRel or Select)."""
    from repro.algebra.ast import ConstRel, Select
    from repro.logic.equality_sat import constants_of

    if isinstance(node, ConstRel):
        return [value for row in node.instance for value in row]
    if isinstance(node, Select):
        return sorted(constants_of(node.predicate), key=repr)
    return []
