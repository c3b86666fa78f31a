"""Knowledge compilation: conditions → d-DNNF circuits via trace-recorded DPLL.

The probability terminals of the pc-table stack (Definition 13, Theorem 9:
"compute q̄(T), then read probabilities off conditions") reduce to weighted
model counting of condition formulas.  Shannon expansion and valuation
enumeration in :mod:`repro.logic.counting` are exponential in the number
of variables; this module compiles a condition **once** into a circuit in
*deterministic, decomposable negation normal form* (d-DNNF), on which
weighted model counting is a single linear-time pass
(:mod:`repro.prob.wmc`).

Pipeline
--------

1. **Clausify** the condition straight from its own two levels (the
   root and the groups under it).  A CNF is its own clause set.  A DNF
   F, the shape of positive-query lineage, gives ¬F's clauses, one of
   negated literals per term; the circuit is ``complemented`` and the
   probability is ``1 − W(EO ∧ ¬F)`` (EO: the exactly-one clauses;
   :mod:`repro.prob.wmc` shows ``W(EO) = 1``).  Each literal maps to one
   signed CNF variable by the one-hot encoding pc-tables already imply:
   a ``Var = Const`` atom, or a :class:`BoolVar` with at most one truthy
   outcome, asserts one outcome ``(name, value)``.  The outcome of a
   singleton support folds to ⊤ and a value outside the support to ⊥; a
   two-value support uses one variable for ``x = v₀`` and a sign; a
   larger support uses one variable per outcome plus exactly-one
   clauses for every group the condition uses.  Outcomes are numbered by
   first occurrence, left to right, and each distinct atom is mapped
   once.
2. **Fall back** when a literal asserts no single outcome (``Var = Var``,
   a :class:`BoolVar` with several truthy outcomes) or a group is not a
   literal list: :func:`booleanize` translates the condition into
   propositional logic over :class:`_Indicator` atoms, which step 1
   clausifies when it has two levels; anything else is Tseitin-encoded
   (:func:`repro.logic.cnf.tseitin_clauses`).  Its biconditional
   definitions are *functionally determined* by the atoms, so the CNF
   has one model per model of the formula.
3. **Compile** (:func:`compile_cnf`): an exhaustive DPLL whose trace is
   recorded as a circuit.  Unit propagation contributes AND-conjoined
   literal nodes (their variables provably vanish from the residual, so
   the AND is decomposable); connected components of the residual clause
   set compile independently (decomposable AND); branching on a variable
   contributes a two-child OR whose children disagree on that variable
   (deterministic OR).  Residual components are cached by their clause
   set, so isomorphic subproblems — ubiquitous in the chain/ring lineage
   shapes relational plans produce — compile once.  Pure-literal
   elimination, which :mod:`repro.logic.sat` uses, is deliberately
   **absent**: it preserves satisfiability but not model counts.

Each compilation numbers every clause it meets, original or shrunk by
an assignment, in a per-compile table, and works on integer bitsets over
those numbers.  A residual is the bitmask of its clauses, and an
*occurrence index* maps each literal to the bitmask of the clauses that
contain it.  Assigning a literal drops the clauses it satisfies with one
``&`` and shrinks only the ones it falsifies; the component split ORs
index entries together and returns each component's branch variable from
that one walk; the cache is keyed by the residual bitmask itself, so it
hits exactly when two residual clause sets are equal.  A component is
connected by construction, so compiling it skips the split.  The
bitsets change how fast a node is found, never which node: residual-keyed
caching and min-index branching are unchanged, so the circuits are the
same node for node.

Every circuit node carries its variable set as an integer ``mask``.  The
resulting trace is *not smooth* (an OR child may mention fewer variables
than its sibling); :meth:`DDNNF.weighted_count` repairs this on the fly
with gap factors ``w(v) + w(¬v)`` for each variable of
``parent.mask & ~child.mask``, which is exact for arbitrary weights.  It
counts iteratively in integer numerators over per-variable common
denominators and builds one :class:`~fractions.Fraction` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

from repro.errors import ConditionError
from repro.logic.atoms import BoolVar, Const, Eq, Var
from repro.logic.cnf import Clause, tseitin_clauses
from repro.obs.metrics import counter
from repro.obs.names import CLAUSIFY_TOTAL, DDNNF_COMPILE_TOTAL, WMC_COUNT_TOTAL
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
    hashcons,
    neg,
)

#: ``supports[x]`` is the tuple of outcomes variable ``x`` can take with
#: positive probability, in a deterministic (repr-sorted) order.
Supports = Mapping[str, Tuple[Hashable, ...]]

#: A pc-table outcome: a variable's name and one value of its support.
Outcome = Tuple[str, Hashable]


@dataclass(frozen=True, eq=False)
class _Indicator(Formula):
    """Propositional atom asserting that pc-table variable *name* = *value*.

    Interned like every other atom (:func:`indicator`), so booleanized
    conditions share structure with each other and with the cache keys of
    the engine's circuit cache.
    """

    name: str
    value: Hashable

    __slots__ = ("name", "value")

    def _fields(self) -> tuple:
        return (self.name, self.value)

    def _variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return f"[{self.name}={self.value!r}]"


def indicator(name: str, value: Hashable) -> Formula:
    """Return the canonical indicator atom for ``name = value``."""
    return hashcons(_Indicator, name, value)


# ---------------------------------------------------------------------------
# Booleanization: multi-valued conditions → propositional formulas
# ---------------------------------------------------------------------------


def _support_of(name: str, supports: Supports) -> Tuple[Hashable, ...]:
    try:
        return supports[name]
    except KeyError:
        raise ConditionError(
            f"no distribution covers condition variable {name!r}"
        ) from None


def _encode(
    value: Hashable, support: Tuple[Hashable, ...]
) -> Union[bool, Tuple[Hashable, bool]]:
    """How ``x = value`` is encoded when ``x`` ranges over *support*.

    ``True`` or ``False`` when it folds: a singleton support's outcome
    always holds, a value outside the support never does.  Otherwise
    ``(encoded, positive)``: the outcome whose variable encodes the
    assertion, and its sign.  Two-value supports use one proposition
    ``x = v₀`` and its negation (no exactly-one clauses needed, and the
    weight pair ``(p(v₀), p(v₁))`` sums to 1 so smoothing gaps are
    free); larger supports use the one-hot variable of *value*.
    """
    if value not in support:
        return False
    if len(support) == 1:
        return True
    if len(support) == 2:
        return support[0], value == support[0]
    return value, True


def _takes(name: str, value: Hashable, supports: Supports) -> Formula:
    """Translate the assertion ``name = value`` under *supports*."""
    code = _encode(value, _support_of(name, supports))
    if code is True or code is False:
        return TOP if code else BOTTOM
    encoded, positive = code
    atom = indicator(name, encoded)
    return atom if positive else neg(atom)


def booleanize(formula: Formula, supports: Supports) -> Formula:
    """Translate *formula* into propositional logic over indicator atoms.

    Only conditions that :func:`compile_condition` cannot clausify
    straight from their own literals come here (module docstring, step
    2).  Equalities between a variable and a constant become ``_takes``;
    equalities between two variables expand over the intersection of
    their supports; a :class:`BoolVar` is the disjunction of its truthy
    outcomes (matching the truthiness semantics of
    :func:`repro.logic.evaluation.evaluate`).  The translation is exact:
    a valuation drawn from the supports satisfies *formula* iff its
    indicator image satisfies the result.
    """
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return neg(booleanize(formula.child, supports))
    if isinstance(formula, And):
        return conj(*(booleanize(child, supports) for child in formula.children))
    if isinstance(formula, Or):
        return disj(*(booleanize(child, supports) for child in formula.children))
    if isinstance(formula, BoolVar):
        return disj(
            *(
                _takes(formula.name, value, supports)
                for value in _support_of(formula.name, supports)
                if bool(value)
            )
        )
    if isinstance(formula, Eq):
        left, right = formula.left, formula.right
        if isinstance(left, Const) and isinstance(right, Var):
            left, right = right, left
        if isinstance(left, Var) and isinstance(right, Const):
            return _takes(left.name, right.value, supports)
        if isinstance(left, Var) and isinstance(right, Var):
            right_support = set(_support_of(right.name, supports))
            return disj(
                *(
                    conj(
                        _takes(left.name, value, supports),
                        _takes(right.name, value, supports),
                    )
                    for value in _support_of(left.name, supports)
                    if value in right_support
                )
            )
        # Const = Const only reaches here through raw construction; the
        # smart constructor folds it.
        left_const = cast(Const, left)
        right_const = cast(Const, right)
        return TOP if left_const.value == right_const.value else BOTTOM
    raise ConditionError(f"cannot booleanize atom {formula!r}")


# ---------------------------------------------------------------------------
# d-DNNF circuit nodes
# ---------------------------------------------------------------------------


class DNode:
    """Base class of d-DNNF circuit nodes.

    ``mask`` is the set of CNF variables the subcircuit depends on, as an
    integer bitmask: bit ``v`` is set when variable ``v`` occurs below
    the node.  The smoothing pass in :meth:`DDNNF.weighted_count` finds
    the variables it must repair under an OR child as the gap
    ``parent.mask & ~child.mask``.
    """

    __slots__ = ("mask",)

    mask: int


class DTrue(DNode):
    """The constant-true circuit (one model over no variables)."""

    __slots__ = ()

    def __init__(self) -> None:
        self.mask = 0

    def __repr__(self) -> str:
        return "dtrue"


class DFalse(DNode):
    """The constant-false circuit (zero models)."""

    __slots__ = ()

    def __init__(self) -> None:
        self.mask = 0

    def __repr__(self) -> str:
        return "dfalse"


D_TRUE = DTrue()
D_FALSE = DFalse()


class DLit(DNode):
    """A literal node: CNF variable ``abs(literal)`` with its sign."""

    __slots__ = ("literal",)

    def __init__(self, literal: int) -> None:
        self.literal = literal
        self.mask = 1 << abs(literal)

    def __repr__(self) -> str:
        return f"lit({self.literal})"


def _union(children: Tuple[DNode, ...]) -> int:
    mask = 0
    for child in children:
        mask |= child.mask
    return mask


class DAnd(DNode):
    """Decomposable conjunction: children have pairwise disjoint masks."""

    __slots__ = ("children",)

    def __init__(self, children: Tuple[DNode, ...]) -> None:
        self.children = children
        self.mask = _union(children)

    def __repr__(self) -> str:
        return f"and({len(self.children)})"


class DOr(DNode):
    """Deterministic disjunction: children are mutually exclusive.

    Built only from the two branches of a DPLL decision, which disagree
    on the decision variable, so determinism holds by construction.
    """

    __slots__ = ("children",)

    def __init__(self, children: Tuple[DNode, ...]) -> None:
        self.children = children
        self.mask = _union(children)

    def __repr__(self) -> str:
        return f"or({len(self.children)})"


def _dand(children: Sequence[DNode]) -> DNode:
    """AND-combine *children*, flattening and folding constants."""
    flat: List[DNode] = []
    for child in children:
        if isinstance(child, DFalse):
            return D_FALSE
        if isinstance(child, DTrue):
            continue
        if isinstance(child, DAnd):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return D_TRUE
    if len(flat) == 1:
        return flat[0]
    return DAnd(tuple(flat))


def _bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# The compiler: exhaustive DPLL with a recorded trace
# ---------------------------------------------------------------------------


class _Compiler:
    """One compilation: the clause table, its occurrence index, the cache.

    Every clause the search meets — original or shrunk by an assignment —
    is interned once and numbered; clause ``i`` is bit ``i`` of a clause
    bitmask.  Clause 0 is the empty clause.  A residual is such a
    bitmask, and so is each entry of the occurrence index:
    ``occurrences[l]`` holds the clauses containing literal ``l``.
    Assigning ``l`` drops the clauses it satisfies with one ``&`` and
    shrinks only those in ``occurrences[-l]``; the component walk ORs
    index entries together; the cache is keyed by the residual bitmask
    itself, so it hits exactly when two residual clause sets are equal.
    The index only grows: an entry also lists clauses that other branches
    left behind, which the ``&`` with the residual skips.
    """

    __slots__ = ("ids", "clauses", "spans", "units", "occurrences", "cache")

    def __init__(self) -> None:
        self.ids: Dict[Clause, int] = {}
        self.clauses: List[Clause] = []
        #: The variable bitmask of every interned clause, by id.
        self.spans: List[int] = []
        #: The literal of every unit clause, ``0`` for the others, by id.
        self.units: List[int] = []
        self.occurrences: Dict[int, int] = {}
        self.cache: Dict[int, DNode] = {}
        self.intern(frozenset())

    def intern(self, clause: Clause) -> int:
        """Return the id of *clause*, filing a new one first."""
        known = self.ids.get(clause)
        if known is not None:
            return known
        index = len(self.clauses)
        self.ids[clause] = index
        self.clauses.append(clause)
        bit = 1 << index
        span = 0
        occurrences = self.occurrences
        for literal in clause:
            span |= 1 << abs(literal)
            occurrences[literal] = occurrences.get(literal, 0) | bit
            # Either sign of a variable can be assigned: file both.
            occurrences.setdefault(-literal, 0)
        self.spans.append(span)
        self.units.append(next(iter(clause)) if len(clause) == 1 else 0)
        return index

    def propagate(
        self, residual: int, pending: List[int]
    ) -> Tuple[Optional[int], List[int]]:
        """Assign the *pending* literals and run unit propagation to fixpoint.

        *pending* are the literals to assign: a decision, or the root's
        unit clauses.  Every unit clause of *residual* must have its
        literal in *pending*.  Returns
        ``(residual, implied_literals)``; residual is ``None`` on
        conflict.  Every implied variable is eliminated from the
        residual, which is what makes the caller's AND of literal nodes
        decomposable.
        """
        current = residual
        implied: List[int] = []
        assigned: Set[int] = set()
        occurrences = self.occurrences
        units = self.units
        while pending:
            literal = pending.pop()
            variable = abs(literal)
            if variable in assigned:
                # A repeated unit: every clause of the variable is gone
                # already, so a complementary one would have emptied.
                continue
            assigned.add(variable)
            implied.append(literal)
            current &= ~occurrences[literal]
            falsified = occurrences[-literal] & current
            current ^= falsified
            for index in _bits(falsified):
                smaller = self.intern(self.clauses[index] - {-literal})
                if not smaller:  # id 0: the clause emptied
                    return None, implied
                unit = units[smaller]
                if unit:
                    pending.append(unit)
                current |= 1 << smaller
        return current, implied

    def components(self, residual: int) -> List[Tuple[int, int]]:
        """Split *residual* into connected components (shared variables).

        Each component comes with its branch variable, the lowest
        variable index it mentions.  The static order matters more than
        any dynamic score here: CNF variables are numbered in formula
        order by clausification, so min-index branching sweeps
        the condition structurally — and residuals left behind by
        different branches of the sweep *coincide* whenever the formula
        has bounded interaction width (chains, rings, lineages of
        localized queries).  The residual-keyed cache then turns the
        trace into a transfer-matrix pass: linear in the sweep, not
        ``2^variables``.  A dynamic most-frequent-variable score was
        measurably catastrophic on exactly the shapes this compiler
        exists for — it jumps around the formula, every jump fragments
        the ring into differently-keyed arc residuals, and the cache
        never hits (>100s for the 60-variable ring of
        ``tests/test_wmc.py::TestWideDifferential::test_sixty_boolean_variables``
        vs ~0.1s with the static order).
        """
        unvisited = residual
        spans = self.spans
        occurrences = self.occurrences
        components: List[Tuple[int, int]] = []
        while unvisited:
            members = frontier = unvisited & -unvisited
            unvisited ^= members
            reached = 0
            # Breadth-first, one layer of clauses per round.  The bit
            # loops are inlined: this walk is the compiler's hottest code.
            while frontier:
                fresh = 0
                while frontier:
                    low = frontier & -frontier
                    fresh |= spans[low.bit_length() - 1]
                    frontier ^= low
                fresh &= ~reached
                reached |= fresh
                found = 0
                while fresh:
                    low = fresh & -fresh
                    variable = low.bit_length() - 1
                    found |= occurrences[variable] | occurrences[-variable]
                    fresh ^= low
                frontier = found & unvisited
                unvisited ^= frontier
                members |= frontier
            components.append((members, (reached & -reached).bit_length() - 1))
        return components

    def solve(self, residual: Optional[int], implied: List[int]) -> DNode:
        """The circuit for a propagated residual and the literals implied."""
        if residual is None:
            return D_FALSE
        prefix: List[DNode] = [DLit(literal) for literal in implied]
        if not residual:
            return _dand(prefix)
        node = self.cache.get(residual)
        if node is None:
            components = self.components(residual)
            if len(components) > 1:
                node = _dand(
                    [self.component(part, branch) for part, branch in components]
                )
            else:
                node = self.branch(residual, components[0][1])
            self.cache[residual] = node
        if isinstance(node, DFalse):
            return D_FALSE
        return _dand(prefix + [node])

    def component(self, residual: int, variable: int) -> DNode:
        """The circuit for a connected, unit-free residual (cached)."""
        node = self.cache.get(residual)
        if node is None:
            node = self.branch(residual, variable)
            self.cache[residual] = node
        return node

    def branch(self, residual: int, variable: int) -> DNode:
        """Decide *variable* both ways: a deterministic OR of the branches."""
        branches = tuple(
            child
            for child in (
                self.solve(*self.propagate(residual, [variable])),
                self.solve(*self.propagate(residual, [-variable])),
            )
            if not isinstance(child, DFalse)
        )
        if not branches:
            return D_FALSE
        if len(branches) == 1:
            return branches[0]
        return DOr(branches)


def compile_cnf(clauses: Iterable[Clause], num_vars: int) -> "DDNNF":
    """Compile a CNF into a d-DNNF circuit counting over *num_vars* variables."""
    counter(DDNNF_COMPILE_TOTAL)
    compiler = _Compiler()
    residual = 0
    for clause in clauses:
        residual |= 1 << compiler.intern(clause)
    if residual & 1:
        return DDNNF(D_FALSE, num_vars)
    units = compiler.units
    pending = [units[index] for index in _bits(residual) if units[index]]
    root = compiler.solve(*compiler.propagate(residual, pending))
    return DDNNF(root, num_vars)


# ---------------------------------------------------------------------------
# The compiled artifact
# ---------------------------------------------------------------------------


class DDNNF:
    """A compiled circuit plus the variable universe it counts over.

    Model counts and weighted counts are taken over **all** ``num_vars``
    CNF variables: a variable outside the circuit's mask is free, and
    smoothing multiplies in its gap factor ``w(v) + w(¬v)`` (which is
    ``2`` for unweighted counting).  This matches
    :meth:`repro.logic.bdd.Bdd.count_models`, which also counts over its
    full variable order.
    """

    __slots__ = ("root", "num_vars")

    def __init__(self, root: DNode, num_vars: int) -> None:
        self.root = root
        self.num_vars = num_vars

    def size(self) -> int:
        """Return the number of distinct nodes in the circuit DAG."""
        seen: Set[int] = set()
        stack: List[DNode] = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, (DAnd, DOr)):
                stack.extend(node.children)
        return len(seen)

    def model_count(self) -> int:
        """Count satisfying assignments over all ``num_vars`` variables."""
        one = Fraction(1)
        weights = {v: one for v in range(1, self.num_vars + 1)}
        count = self.weighted_count(weights, weights)
        return int(count)

    def weighted_count(
        self,
        pos: Mapping[int, Fraction],
        neg: Mapping[int, Fraction],
    ) -> Fraction:
        """Exact weighted model count with on-the-fly smoothing.

        *pos*/*neg* map every CNF variable to the weight of its positive
        and negative literal.  The count is over complete assignments to
        all ``num_vars`` variables; a variable missing from an OR
        child's mask (the trace is not smooth) contributes its gap
        factor ``pos[v] + neg[v]`` exactly once per assignment family,
        which is correct for arbitrary weights — not only probability
        pairs that sum to 1.

        The pass is iterative and works in integers.  Each variable's
        two weights are put over a common denominator ``d(v)``; a node's
        count over its mask is then an integer numerator over the
        product of ``d(v)`` for ``v`` in the mask, so AND multiplies
        numerators, OR adds them after scaling each child by its gap's
        summed numerators, and one :class:`~fractions.Fraction` is built
        at the root.
        """
        counter(WMC_COUNT_TOTAL)
        size = self.num_vars + 1
        positive = [0] * size
        negative = [0] * size
        total = [1] * size
        denominator = 1
        for variable in range(1, size):
            high, low = pos[variable], neg[variable]
            common = lcm(high.denominator, low.denominator)
            positive[variable] = high.numerator * (common // high.denominator)
            negative[variable] = low.numerator * (common // low.denominator)
            total[variable] = positive[variable] + negative[variable]
            denominator *= common
        gaps: Dict[int, int] = {0: 1}

        def gap_factor(mask: int) -> int:
            factor = gaps.get(mask)
            if factor is None:
                factor = 1
                for variable in _bits(mask):
                    factor *= total[variable]
                gaps[mask] = factor
            return factor

        # Post-order over the DAG with an explicit stack: a node is
        # counted once all of its children have been.
        counts: Dict[int, int] = {}
        stack: List[DNode] = [self.root]
        while stack:
            node = stack[-1]
            if id(node) in counts:
                stack.pop()
                continue
            if isinstance(node, DLit):
                literal = node.literal
                count = positive[literal] if literal > 0 else negative[-literal]
            elif isinstance(node, (DAnd, DOr)):
                waiting = [
                    child for child in node.children if id(child) not in counts
                ]
                if waiting:
                    stack.extend(waiting)
                    continue
                if isinstance(node, DAnd):
                    count = 1
                    for child in node.children:
                        count *= counts[id(child)]
                else:
                    mask = node.mask
                    count = 0
                    for child in node.children:
                        count += counts[id(child)] * gap_factor(
                            mask & ~child.mask
                        )
            elif isinstance(node, DTrue):
                count = 1
            elif isinstance(node, DFalse):
                count = 0
            else:  # pragma: no cover - closed node hierarchy
                raise ConditionError(f"unknown circuit node {node!r}")
            counts[id(node)] = count
            stack.pop()
        everything = (1 << size) - 2  # variables 1..num_vars
        count = counts[id(self.root)] * gap_factor(everything & ~self.root.mask)
        return Fraction(count, denominator)


class CompiledCircuit:
    """A condition compiled end to end: circuit + encoding metadata.

    ``var_atom`` maps each CNF variable that encodes a pc-table outcome
    to that outcome's ``(name, value)`` pair; a two-value variable is
    always encoded by its first outcome ``support[0]``, and Tseitin
    definition variables are absent.  ``supports`` holds the support of
    every variable the encoding uses.  :mod:`repro.prob.wmc` reads both
    to weight literals from the distributions.  A ``complemented``
    circuit compiles the condition's negation, so the condition's
    probability is one minus the circuit's weighted count.
    """

    __slots__ = ("circuit", "var_atom", "supports", "complemented")

    def __init__(
        self,
        circuit: DDNNF,
        var_atom: Dict[int, Outcome],
        supports: Dict[str, Tuple[Hashable, ...]],
        complemented: bool = False,
    ) -> None:
        self.circuit = circuit
        self.var_atom = var_atom
        self.supports = supports
        self.complemented = complemented


def compile_formula(formula: Formula) -> CompiledCircuit:
    """Compile a pure-boolean condition, one CNF variable per atom.

    Every atom is treated as an independent two-valued proposition —
    the reading under which d-DNNF model counts must agree with
    :meth:`repro.logic.bdd.Bdd.count_models` over the same variables —
    so the circuit has no outcome variables to weight.  The counting
    universe is anchored to *every* atom of the formula: Tseitin
    clausification may simplify an atom away entirely (e.g. in
    ``~(e & ~(c | e))``, which is valid), and an eliminated atom must
    still count as a free variable — smoothing multiplies its gap
    factor in, which is ``2`` for model counts.
    """
    clauses, atom_map, _root = tseitin_clauses(formula)
    for atom in sorted(formula.atoms(), key=repr):
        atom_map.index_of(atom)  # allocate atoms simplification removed
    circuit = compile_cnf(clauses, len(atom_map))
    return CompiledCircuit(circuit, {}, {})


def _two_level(formula: Formula) -> Tuple[List[Sequence[Formula]], bool]:
    """Read *formula* as groups of members, looking two levels down.

    Returns ``(clauses, False)`` when the root is ⊤, ⊥, an AND, or an OR
    without AND children: each AND child (or the root itself) is one
    clause, an OR's children its members.  Returns ``(terms, True)`` for
    an OR with an AND child: each child is one term, an AND's children
    its members.  The formula is a CNF or DNF when every member is a
    literal, which :func:`_clausify` checks as it maps them.
    """
    complemented = False
    if isinstance(formula, And):
        tops = formula.children
    elif isinstance(formula, Or) and any(isinstance(c, And) for c in formula.children):
        tops, complemented = formula.children, True
    else:
        tops = () if isinstance(formula, Top) else (formula,)
    inner = And if complemented else Or
    groups: List[Sequence[Formula]] = []
    for top in tops:
        if isinstance(top, inner):
            groups.append(top.children)
        else:
            groups.append(() if isinstance(top, Bottom) else (top,))
    return groups, complemented


def _outcome_literal(
    atom: Formula,
    supports: Supports,
    numbers: Dict[Outcome, int],
    used: Dict[str, Tuple[Hashable, ...]],
) -> Optional[Union[int, bool]]:
    """The signed CNF variable asserting *atom*, encoded by :func:`_encode`.

    Numbers the asserted outcome on first use and files its variable's
    support in *used*.  Returns ``True``/``False`` when the atom folds
    under *supports*, and ``None`` when it asserts no single outcome: a
    ``Var = Var`` atom, a :class:`BoolVar` with several truthy outcomes,
    or no atom at all.  :class:`_Indicator` atoms map to their own
    outcome, so booleanized conditions clausify the same way.
    """
    if isinstance(atom, Eq):
        variable, constant = atom.left, atom.right
        if isinstance(variable, Const):
            variable, constant = constant, variable
        if not (isinstance(variable, Var) and isinstance(constant, Const)):
            return None
        name, value = variable.name, constant.value
        support = _support_of(name, supports)
    elif isinstance(atom, BoolVar):
        name = atom.name
        support = _support_of(name, supports)
        truthy = [outcome for outcome in support if outcome]
        if len(truthy) != 1:
            return None if truthy else False
        value = truthy[0]
    elif isinstance(atom, _Indicator):
        name, value = atom.name, atom.value
        support = _support_of(name, supports)
    else:
        return None
    code = _encode(value, support)
    if code is True or code is False:
        return code
    encoded, positive = code
    outcome = (name, encoded)
    number = numbers.get(outcome)
    if number is None:
        number = numbers[outcome] = len(numbers) + 1
        used[name] = support
    return number if positive else -number


class _Clauses(NamedTuple):
    """A condition's clauses before the exactly-one clauses are added."""

    clauses: List[Clause]
    #: The CNF variable of every outcome the clauses mention.
    numbers: Dict[Outcome, int]
    #: The support of every variable with an outcome in ``numbers``.
    used: Dict[str, Tuple[Hashable, ...]]
    #: The CNF variables the clauses number, definitions included.
    num_vars: int
    route: str


def _clausify(formula: Formula, supports: Supports) -> Optional[_Clauses]:
    """Clausify a CNF or DNF whose literals each map to one CNF literal.

    Returns ``None`` when a member of :func:`_two_level`'s groups is no
    such literal (:func:`_outcome_literal`).  A literal that folds true
    drops its clause, one that folds false drops out of it; a DNF term
    is complemented member by member into a clause of ¬F.
    """
    groups, complemented = _two_level(formula)
    numbers: Dict[Outcome, int] = {}
    used: Dict[str, Tuple[Hashable, ...]] = {}
    # One entry per distinct source atom, keyed by identity: the
    # formula holds every atom alive until the clauses are built.
    memo: Dict[int, Union[int, bool]] = {}
    clauses: List[Clause] = []
    for group in groups:
        literals: List[int] = []
        for literal in group:
            flip = complemented
            if isinstance(literal, Not):
                literal, flip = literal.child, not flip
            code = memo.get(id(literal))
            if code is None:
                code = _outcome_literal(literal, supports, numbers, used)
                if code is None:
                    return None
                memo[id(literal)] = code
            if code is True or code is False:
                if code is not flip:
                    break  # the literal holds, so the clause does
            else:
                literals.append(-code if flip else code)
        else:
            clauses.append(frozenset(literals))
    route = "complement" if complemented else "direct"
    return _Clauses(clauses, numbers, used, len(numbers), route)


def _tseitin(boolean: Formula, supports: Supports) -> _Clauses:
    """Tseitin-encode a booleanized condition that has no two levels."""
    clauses, atom_map, _root = tseitin_clauses(boolean)
    numbers = {
        (atom.name, atom.value): atom_map.index_of(atom)
        for atom in atom_map.atoms()
        if isinstance(atom, _Indicator)
    }
    used: Dict[str, Tuple[Hashable, ...]] = {}
    for atom in sorted(boolean.atoms(), key=repr):
        if isinstance(atom, _Indicator):
            used[atom.name] = tuple(supports[atom.name])
    return _Clauses(clauses, numbers, used, len(atom_map), "tseitin")


def compile_condition(formula: Formula, supports: Supports) -> CompiledCircuit:
    """Compile a (possibly multi-valued) condition under *supports*.

    The condition is clausified straight from its own literals when it
    can be, and through :func:`booleanize` otherwise (module docstring,
    steps 1–2), extended with exactly-one clauses for every one-hot
    group it uses, and compiled to d-DNNF.  The returned metadata maps
    every outcome variable to its ``(name, value)`` pair, which is all
    :mod:`repro.prob.wmc` needs to weight literals from the
    distributions.
    """
    clausified = _clausify(formula, supports)
    if clausified is None:
        boolean = booleanize(formula, supports)
        clausified = _clausify(boolean, supports)
        if clausified is None:
            clausified = _tseitin(boolean, supports)
    counter(CLAUSIFY_TOTAL, labels={"route": clausified.route})
    clauses, numbers = clausified.clauses, clausified.numbers
    num_vars = clausified.num_vars
    for name, support in clausified.used.items():
        if len(support) <= 2:
            continue
        group = []
        for value in support:
            number = numbers.get((name, value))
            if number is None:
                num_vars += 1
                number = numbers[name, value] = num_vars
            group.append(number)
        clauses.append(frozenset(group))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                clauses.append(frozenset({-group[i], -group[j]}))
    var_atom = {number: outcome for outcome, number in numbers.items()}
    circuit = compile_cnf(clauses, num_vars)
    return CompiledCircuit(
        circuit, var_atom, clausified.used, clausified.route == "complement"
    )
