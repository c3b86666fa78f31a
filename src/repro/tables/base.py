"""The representation-system interface.

Definition 2 of the paper: a representation system is a set of *tables*
with a function ``Mod`` assigning to each table an incomplete database.
Here every table class implements:

- ``arity`` — the relation arity,
- ``mod()`` — the incomplete database as an explicit
  :class:`~repro.core.idatabase.IDatabase`, when it is finite,
- ``mod_over(domain)`` — the restriction of ``Mod`` to valuations into a
  finite domain, for systems with variables over the infinite domain
  (their full ``Mod`` is infinite and cannot be materialized; see
  DESIGN.md's substitution table for why witness slices suffice for
  every theorem checked in this reproduction).

Tables are immutable values, like everything else in the library.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Union

from repro.errors import TableError, UnsupportedOperationError
from repro.core.domain import Domain
from repro.core.idatabase import IDatabase


class Table:
    """Abstract base class for all representation-system tables."""

    __slots__ = ()

    system_name: str = "abstract"

    @property
    def arity(self) -> int:
        """Return the relation arity of this table."""
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        """Return the variable names used (empty for variable-free systems)."""
        return frozenset()

    def is_finitely_representable(self) -> bool:
        """True when ``Mod(T)`` is a finite set of instances.

        Finite for every system of [29] and for finite-domain tables;
        infinite in general for tables with unrestricted variables.
        """
        raise NotImplementedError

    def mod(self) -> IDatabase:
        """Return ``Mod(T)`` as an explicit incomplete database.

        Raises :class:`~repro.errors.UnsupportedOperationError` when the
        model set is infinite; use :meth:`mod_over` with a witness domain
        in that case.
        """
        raise NotImplementedError

    def mod_over(self, domain: Union[Domain, Sequence]) -> IDatabase:
        """Return the restriction of ``Mod(T)`` to valuations into *domain*.

        For variable-free systems this coincides with :meth:`mod` (the
        domain is irrelevant); implementations override as needed.
        """
        if self.is_finitely_representable():
            return self.mod()
        raise UnsupportedOperationError(
            f"{type(self).__name__} cannot enumerate Mod over a domain"
        )

    def _coerce_domain(self, domain: Union[Domain, Sequence]) -> Domain:
        if isinstance(domain, Domain):
            return domain
        return Domain(domain)

    def _require_arity(self, length: int) -> None:
        if length != self.arity:
            raise TableError(
                f"row of length {length} in table of arity {self.arity}"
            )
