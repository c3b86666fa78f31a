"""Custom stdlib-ast source lints for the repository.

Run locally (or in CI) with::

    python -m tools.lint [paths...]

Defaults to linting ``src/``.  Exit status 1 when any finding is
reported.  See the individual modules for the lint rules:

- :mod:`tools.lint.interning` — INT001, raw condition constructors;
- :mod:`tools.lint.locks` — LCK001/LCK002, ``guarded-by`` discipline;
- :mod:`tools.lint.defaults` — MUT001, mutable default arguments;
- :mod:`tools.lint.typed` — TYP001, typed-core signature coverage;
- :mod:`tools.lint.enumeration` — EXP001, world enumeration outside
  the oracle modules;
- :mod:`tools.lint.obs_names` — OBS001, metric/span names outside the
  registered constant table;
- :mod:`tools.lint.rows` — ROW001, assignment to a c-table row's
  ``values``, ``condition`` or ``_hash`` outside its defining module.
"""

from tools.lint.common import Finding, Source, iter_python_files, run_linters
from tools.lint.defaults import lint_mutable_defaults
from tools.lint.enumeration import lint_enumeration
from tools.lint.interning import lint_interning
from tools.lint.locks import lint_locks
from tools.lint.obs_names import lint_obs_names
from tools.lint.rows import lint_rows
from tools.lint.typed import lint_typed_core

ALL_LINTERS = (
    lint_enumeration,
    lint_interning,
    lint_locks,
    lint_mutable_defaults,
    lint_obs_names,
    lint_rows,
    lint_typed_core,
)

__all__ = [
    "ALL_LINTERS",
    "Finding",
    "Source",
    "iter_python_files",
    "lint_enumeration",
    "lint_interning",
    "lint_locks",
    "lint_mutable_defaults",
    "lint_obs_names",
    "lint_rows",
    "lint_typed_core",
    "run_linters",
]
