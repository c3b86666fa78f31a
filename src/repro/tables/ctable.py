"""c-tables: conditional tables (Imieliński–Lipski [20]).

A c-table is a table whose entries are constants or variables and whose
rows carry *conditions* — boolean combinations of equalities over the
variables and constants (Example 2 of the paper).  Three variants share
this module:

- plain c-tables over the infinite domain (``domains=None``),
- **finite-domain c-tables** (Definition 6): each variable ``x`` comes
  with a finite ``dom(x) ⊂ D``,
- **boolean c-tables** (:class:`BooleanCTable`): all variables two-valued
  and appearing only in conditions — the fragment Theorem 3 proves
  finitely complete.

As an implemented extension (flagged as future work in the paper's
Section 9, after Grahne [17]), a table may carry a *global condition*
that every valuation must satisfy; the default ``true`` recovers the
classical semantics.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import TableError, UnsupportedOperationError
from repro.core.domain import Domain
from repro.core.instance import Instance, Row
from repro.core.idatabase import IDatabase
from repro.logic.atoms import BoolVar, Const, Eq, Term, Var, is_boolean_condition
from repro.logic.equality_sat import constants_of, fresh_values
from repro.logic.evaluation import evaluate, partial_evaluate
from repro.logic.models import enumerate_valuations
from repro.logic.syntax import BOTTOM, TOP, Formula, conj, walk
from repro.tables.base import Table


class CRow:
    """One row of a c-table: a tuple of terms plus a condition.

    Rows are immutable by convention: nothing outside this module
    assigns ``values``, ``condition`` or ``_hash``, and the ROW001 lint
    (:mod:`tools.lint.rows`) enforces it.  A runtime guard would cost
    as much as the row itself.  Two rows are equal when they hold equal
    values and an equal condition; the hash is computed once, on first
    use (threads racing on it store equal values).
    """

    __slots__ = ("values", "condition", "_hash")

    def __init__(
        self, values: Tuple[Term, ...], condition: Formula = TOP
    ) -> None:
        self.values = values
        self.condition = condition
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.values != other.values:  # type: ignore[attr-defined]
            return False
        condition = other.condition  # type: ignore[attr-defined]
        return self.condition is condition or self.condition == condition

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.values, self.condition))
        return value

    def tuple_variables(self) -> FrozenSet[str]:
        """Return the variables appearing in the tuple itself."""
        return frozenset(
            term.name for term in self.values if isinstance(term, Var)
        )

    def all_variables(self) -> FrozenSet[str]:
        """Return the variables of the tuple and of its condition."""
        return self.tuple_variables() | self.condition.variables()

    def constants(self) -> FrozenSet[Hashable]:
        """Return constants of the tuple and of the condition."""
        from_values = {
            term.value for term in self.values if isinstance(term, Const)
        }
        return frozenset(from_values) | constants_of(self.condition)

    def apply(self, valuation: Mapping[str, Hashable]) -> Optional[Row]:
        """Return ν(t) when the condition holds under ν, else None."""
        if not evaluate(self.condition, valuation):
            return None
        return tuple(
            term.value if isinstance(term, Const) else valuation[term.name]
            for term in self.values
        )

    def is_variable_free(self) -> bool:
        """True when neither tuple nor condition mentions a variable."""
        return not self.all_variables()

    def __repr__(self) -> str:
        body = ", ".join(repr(term) for term in self.values)
        if self.condition == TOP:
            return f"({body})"
        return f"({body} : {self.condition!r})"


#: ``(exact, residual)`` row positions; see :meth:`CTable.column_index`.
RowIndex = Tuple[Dict[Tuple[Hashable, ...], List[int]], List[int]]


def _coerce_term(value) -> Term:
    if isinstance(value, (Var, Const)):
        return value
    return Const(value)


def make_row(values: Iterable, condition: Formula = TOP) -> CRow:
    """Build a :class:`CRow`, wrapping non-term entries as constants."""
    return CRow(tuple(_coerce_term(value) for value in values), condition)


def coerce_row(row: object) -> CRow:
    """Return *row* as a :class:`CRow`, in any shape :class:`CTable` takes.

    A ``CRow`` passes through; a ``(values, condition)`` pair and a bare
    value tuple go through :func:`make_row`.
    """
    if isinstance(row, CRow):
        return row
    if (
        isinstance(row, tuple)
        and len(row) == 2
        and isinstance(row[1], Formula)
        and isinstance(row[0], (tuple, list))
    ):
        return make_row(row[0], row[1])
    return make_row(row)  # type: ignore[arg-type]


class CTable(Table):
    """A c-table, optionally with finite variable domains.

    Parameters
    ----------
    rows:
        An iterable of :class:`CRow` (or ``(values, condition)`` pairs, or
        bare value tuples for unconditioned rows).
    arity:
        Required when *rows* is empty.
    domains:
        When given, a mapping ``variable name -> finite iterable of
        values``; the table becomes a finite-domain c-table and must
        cover every variable that occurs anywhere in it.
    global_condition:
        Extension: a condition every valuation must satisfy.
    """

    __slots__ = (
        "_rows", "_arity", "_domains", "_global", "_vars_cache", "_index_cache"
    )

    system_name = "c-table"

    def __init__(
        self,
        rows: Iterable = (),
        arity: Optional[int] = None,
        domains: Optional[Mapping[str, Iterable[Hashable]]] = None,
        global_condition: Formula = TOP,
    ) -> None:
        # Rows whose condition is syntactically false can never appear.
        normalized = [
            row for row in map(coerce_row, rows) if row.condition != BOTTOM
        ]
        if normalized:
            arities = {len(row.values) for row in normalized}
            if len(arities) != 1:
                raise TableError(f"mixed row arities: {sorted(arities)}")
            inferred = arities.pop()
            if arity is not None and arity != inferred:
                raise TableError(
                    f"declared arity {arity} does not match rows of arity "
                    f"{inferred}"
                )
            arity = inferred
        elif arity is None:
            raise TableError("an empty c-table needs an explicit arity")
        self._rows: Tuple[CRow, ...] = tuple(normalized)
        self._arity = arity
        self._global = global_condition
        self._vars_cache: Optional[FrozenSet[str]] = None
        self._index_cache: Dict[Tuple[int, ...], RowIndex] = {}
        if domains is not None:
            domains = {name: tuple(values) for name, values in domains.items()}
            missing = self.variables() - set(domains)
            if missing:
                raise TableError(
                    f"finite-domain c-table missing domains for {sorted(missing)}"
                )
            empty = [name for name, values in domains.items() if not values]
            if empty:
                raise TableError(f"empty domains for variables {sorted(empty)}")
        self._domains: Optional[Dict[str, Tuple[Hashable, ...]]] = domains
        self._validate()

    def _validate(self) -> None:
        """Subclasses override to narrow the admissible rows."""

    @classmethod
    def from_normalized_rows(
        cls,
        rows: Iterable[CRow],
        arity: int,
        domains: Optional[Dict[str, Tuple[Hashable, ...]]] = None,
        global_condition: Formula = TOP,
    ) -> "CTable":
        """Fast-path constructor for already-normalized :class:`CRow` rows.

        Skips per-row coercion, arity inference, and domain-coverage
        validation — the caller vouches that every row is a ``CRow`` of
        the declared arity with an interned condition other than
        ``false`` (the rows the constructor would keep), and that
        *domains* (tuple-valued, or ``None``) already covers the
        variables.  Built for hot producers whose row sources are prior
        c-table machinery output: incremental view materialization, and
        :meth:`spliced` for writes.
        """
        table = cls.__new__(cls)
        table._rows = tuple(rows)
        table._arity = arity
        table._global = global_condition
        table._vars_cache = None
        table._index_cache = {}
        table._domains = domains
        return table

    def spliced(self, kept: Sequence[CRow], added: Iterable) -> "CTable":
        """This table's metadata over the rows *kept*, then *added*.

        The write path of :class:`~repro.engine.session.Session`.  A
        write changes rows, never the domains or the global condition
        (Lemma 1: every condition composes per row), so only *added*
        runs through the constructor — coerced, false-condition rows
        dropped, checked for arity, domain coverage and the boolean
        rules — and raises :class:`TableError` if malformed.  *kept*
        must be rows this table holds; they are taken as they are.  The
        added rows are the result's rows from ``len(kept)`` on.

        A boolean c-table stays one; any other table becomes a plain
        :class:`CTable`, so a write may add conditions to a v-table.
        """
        delta = self._delta_table(added)
        return type(delta).from_normalized_rows(
            (*kept, *delta._rows),
            self._arity,
            domains=self._domains,
            global_condition=self._global,
        )

    def _delta_table(self, rows: Iterable) -> "CTable":
        return CTable(
            rows,
            arity=self._arity,
            domains=self._domains,
            global_condition=self._global,
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self._arity

    @property
    def rows(self) -> Tuple[CRow, ...]:
        """Return the rows in their original order."""
        return self._rows

    @property
    def domains(self) -> Optional[Dict[str, Tuple[Hashable, ...]]]:
        """Return the finite variable domains, or None for infinite D."""
        return dict(self._domains) if self._domains is not None else None

    @property
    def global_condition(self) -> Formula:
        """Return the global condition (``true`` unless the extension is used)."""
        return self._global

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CTable):
            return NotImplemented
        return (
            self._arity == other._arity
            and frozenset(self._rows) == frozenset(other._rows)
            and self._domains == other._domains
            and self._global == other._global
        )

    def __hash__(self) -> int:
        frozen_domains = (
            None
            if self._domains is None
            else frozenset((k, v) for k, v in self._domains.items())
        )
        return hash(
            (self._arity, frozenset(self._rows), frozen_domains, self._global)
        )

    def __repr__(self) -> str:
        body = ", ".join(repr(row) for row in self._rows)
        suffix = "" if self._domains is None else " (finite-domain)"
        return f"{type(self).__name__}[{self._arity}]{{{body}}}{suffix}"

    def variables(self) -> FrozenSet[str]:
        """Return every variable in tuples, conditions, and the global.

        Cached: the table is immutable and the set is consulted by world
        enumeration, finite-domain checks, and every lifted operator.
        """
        if self._vars_cache is None:
            names = set(self._global.variables())
            for row in self._rows:
                names |= row.all_variables()
            self._vars_cache = frozenset(names)
        return self._vars_cache

    def column_index(self, columns: Tuple[int, ...]) -> "RowIndex":
        """Row positions by their constants at *columns*.

        Returns ``(exact, residual)``: *exact* maps the key of every row
        whose entries at *columns* are all constants — the tuple of
        those constants' values — to its positions, and *residual* lists
        the positions of the rows with a variable in one of *columns*.
        Keys compare as Python values do, the way :func:`eq` folds two
        constants: ``1``, ``True`` and ``1.0`` share one key.  So a
        constant tuple ``k`` at *columns* can only come from the rows at
        ``exact.get(k)`` and *residual*; every other row has a constant
        there that differs from ``k``, and a predicate pinning *columns*
        to ``k`` instantiates to ``false`` on it.  Both hold positions in
        ascending table order.

        Cached per column tuple: the table is immutable, and point reads
        and symbolic answers look up one key after another.  Callers must
        not mutate the result.  The value is deterministic, so a racing
        rebuild stores an equal one and readers need no lock.
        """
        index = self._index_cache.get(columns)
        if index is None:
            exact: Dict[Tuple[Hashable, ...], List[int]] = {}
            residual: List[int] = []
            for position, row in enumerate(self._rows):
                terms = [row.values[c] for c in columns]
                key = tuple([term.value for term in terms if isinstance(term, Const)])
                if len(key) == len(columns):
                    exact.setdefault(key, []).append(position)
                else:
                    residual.append(position)
            index = self._index_cache[columns] = (exact, residual)
        return index

    def row_index(self) -> "RowIndex":
        """:meth:`column_index` over every column: the constant tuples
        the rows can produce.  Symbolic certain/possible answers look up
        one candidate tuple after another in it."""
        return self.column_index(tuple(range(self._arity)))

    def constants(self) -> FrozenSet[Hashable]:
        """Return every constant in tuples, conditions, and the global condition."""
        values = set(constants_of(self._global))
        for row in self._rows:
            values |= row.constants()
        return frozenset(values)

    def is_v_table(self) -> bool:
        """True when every condition is ``true`` (a v-table)."""
        return self._global == TOP and all(
            row.condition == TOP for row in self._rows
        )

    def is_codd_table(self) -> bool:
        """True when a v-table whose variables are pairwise distinct."""
        if not self.is_v_table():
            return False
        seen = set()
        for row in self._rows:
            for term in row.values:
                if isinstance(term, Var):
                    if term.name in seen:
                        return False
                    seen.add(term.name)
        return True

    def is_boolean(self) -> bool:
        """True when a boolean c-table: constant tuples, BoolVar conditions."""
        conditions_ok = is_boolean_condition(self._global) and all(
            is_boolean_condition(row.condition) for row in self._rows
        )
        tuples_ok = all(
            isinstance(term, Const) for row in self._rows for term in row.values
        )
        return conditions_ok and tuples_ok

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def apply_valuation(self, valuation: Mapping[str, Hashable]) -> Instance:
        """Return the instance ν(T) for a total valuation ν.

        Under the global-condition extension, a valuation violating the
        global condition contributes no instance; callers enumerate only
        admissible valuations, and this method raises if handed one that
        is not.
        """
        if not evaluate(self._global, valuation):
            raise TableError(
                "valuation violates the table's global condition"
            )
        rows = []
        for row in self._rows:
            image = row.apply(valuation)
            if image is not None:
                rows.append(image)
        return Instance(rows, arity=self._arity)

    def _valuation_domains(
        self, domain: Optional[Union[Domain, Sequence]]
    ) -> Dict[str, Tuple[Hashable, ...]]:
        names = self.variables()
        if not names:
            return {}
        if self._domains is not None:
            return {name: self._domains[name] for name in names}
        if domain is None:
            raise UnsupportedOperationError(
                "Mod of a c-table over the infinite domain is infinite; "
                "pass a finite domain (mod_over) or use witness_domain()"
            )
        finite = self._coerce_domain(domain)
        return {name: tuple(finite.values) for name in names}

    def valuations(
        self, domain: Optional[Union[Domain, Sequence]] = None
    ) -> Iterator[Dict[str, Hashable]]:
        """Yield the admissible valuations (respecting the global condition)."""
        domains = self._valuation_domains(domain)
        if not domains:
            if evaluate(self._global, {}):
                yield {}
            return
        for valuation in enumerate_valuations(domains):
            if evaluate(self._global, valuation):
                yield valuation

    def possible_worlds(
        self, domain: Optional[Union[Domain, Sequence]] = None
    ) -> Iterator[Instance]:
        """Yield ν(T) for each admissible valuation (with repetitions)."""
        for valuation in self.valuations(domain):
            yield self.apply_valuation(valuation)

    def is_finitely_representable(self) -> bool:
        return self._domains is not None or not self.variables()

    def mod(self) -> IDatabase:
        if not self.is_finitely_representable():
            raise UnsupportedOperationError(
                "this c-table has variables over the infinite domain; "
                "use mod_over(domain)"
            )
        return IDatabase(self.possible_worlds(), arity=self._arity)

    def mod_over(self, domain: Union[Domain, Sequence]) -> IDatabase:
        return IDatabase(self.possible_worlds(domain), arity=self._arity)

    def witness_domain(self, extra: int = 0) -> Domain:
        """Return a finite domain deciding this table's Mod-level questions.

        Contains the table's constants plus one fresh value per variable
        plus *extra* more — the small-model bound of
        :mod:`repro.logic.equality_sat` lifted to whole tables.
        """
        constants = sorted(self.constants(), key=repr)
        fresh = fresh_values(max(1, len(self.variables()) + extra))
        return Domain(list(constants) + list(fresh))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_domains(
        self, domains: Mapping[str, Iterable[Hashable]]
    ) -> "CTable":
        """Return the finite-domain version of this table."""
        return CTable(
            self._rows,
            arity=self._arity,
            domains=domains,
            global_condition=self._global,
        )

    def without_domains(self) -> "CTable":
        """Return the infinite-domain version (drops ``dom(x)`` info)."""
        return CTable(
            self._rows, arity=self._arity, global_condition=self._global
        )

    def with_global_condition(self, condition: Formula) -> "CTable":
        """Return the table with *condition* conjoined to the global one."""
        return CTable(
            self._rows,
            arity=self._arity,
            domains=self._domains,
            global_condition=conj(self._global, condition),
        )

    def rename_variables(self, mapping: Mapping[str, str]) -> "CTable":
        """Return the table with variables renamed by *mapping*."""
        from repro.logic.evaluation import substitute

        term_mapping = {old: Var(new) for old, new in mapping.items()}

        def rename_term(term: Term) -> Term:
            if isinstance(term, Var) and term.name in term_mapping:
                return term_mapping[term.name]
            return term

        rows = [
            CRow(
                tuple(rename_term(term) for term in row.values),
                substitute(row.condition, term_mapping),
            )
            for row in self._rows
        ]
        domains = None
        if self._domains is not None:
            domains = {
                mapping.get(name, name): values
                for name, values in self._domains.items()
            }
        return CTable(
            rows,
            arity=self._arity,
            domains=domains,
            global_condition=substitute(self._global, term_mapping),
        )

    def simplified(self) -> "CTable":
        """Return the table with every condition simplified.

        Rows whose condition folds to ``false`` disappear; this is the
        normalization pass benchmark E08 ablates.
        """
        from repro.logic.simplify import simplify

        rows = []
        for row in self._rows:
            condition = simplify(row.condition)
            if condition != BOTTOM:
                rows.append(CRow(row.values, condition))
        return CTable(
            rows,
            arity=self._arity,
            domains=self._domains,
            global_condition=simplify(self._global),
        )

    def to_text(self) -> str:
        """Render the table in the paper's two-column layout."""
        lines = []
        for row in self._rows:
            cells = " ".join(repr(term) for term in row.values)
            if row.condition == TOP:
                lines.append(cells)
            else:
                lines.append(f"{cells}  ||  {row.condition!r}")
        if self._global != TOP:
            lines.append(f"global: {self._global!r}")
        if self._domains:
            for name in sorted(self._domains):
                lines.append(f"dom({name}) = {list(self._domains[name])!r}")
        return "\n".join(lines)


class BooleanCTable(CTable):
    """A boolean c-table: constant tuples, conditions over boolean variables.

    The variables implicitly range over ``{false, true}``; ``domains`` is
    fixed accordingly and must not be supplied.
    """

    __slots__ = ()

    system_name = "boolean c-table"

    def __init__(
        self,
        rows: Iterable = (),
        arity: Optional[int] = None,
        global_condition: Formula = TOP,
    ) -> None:
        super().__init__(
            rows, arity=arity, domains=None, global_condition=global_condition
        )

    def _delta_table(self, rows: Iterable) -> "CTable":
        return BooleanCTable(
            rows, arity=self._arity, global_condition=self._global
        )

    def _validate(self) -> None:
        for row in self._rows:
            for term in row.values:
                if not isinstance(term, Const):
                    raise TableError(
                        "boolean c-tables admit only constants in tuples, "
                        f"got {term!r}"
                    )
            if not is_boolean_condition(row.condition):
                raise TableError(
                    f"non-boolean condition in boolean c-table: "
                    f"{row.condition!r}"
                )
        if not is_boolean_condition(self._global):
            raise TableError(
                f"non-boolean global condition: {self._global!r}"
            )

    @property
    def domains(self) -> Dict[str, Tuple[Hashable, ...]]:
        """The implicit two-valued domains of the boolean variables.

        Exposed explicitly so the lifted algebra's results (plain
        ``CTable`` objects) inherit finite domains and stay enumerable.
        """
        return {name: (False, True) for name in self.variables()}

    def _valuation_domains(self, domain=None):
        return {name: (False, True) for name in self.variables()}

    def is_finitely_representable(self) -> bool:
        return True

    def mod(self) -> IDatabase:
        return IDatabase(self.possible_worlds(), arity=self._arity)


def ctable_row_condition_variables(table: CTable) -> FrozenSet[str]:
    """Return variables appearing in conditions but never in tuples.

    These are the "extra" variables Theorem 1's construction binds with
    dedicated product terms.
    """
    in_tuples = set()
    in_conditions = set()
    for row in table.rows:
        in_tuples |= row.tuple_variables()
        in_conditions |= row.condition.variables()
    in_conditions |= table.global_condition.variables()
    return frozenset(in_conditions - in_tuples)
