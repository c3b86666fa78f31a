"""EXP001 — world enumeration outside the oracle modules.

The paper's point — and the repository's performance contract since the
symbolic equivalence engine landed — is that no production path needs to
materialize ``Mod(T)``: certain/possible answers, probabilities,
lineage, plan verification, and table equivalence are all decided
symbolically, with cost bounded by condition size rather than
``|domain|^variables``.  World enumeration is still the *oracle* the
symbolic engines are validated against, so it stays available — but a
new call site silently reintroducing exponential enumeration into an
engine path is a regression this lint makes loud.

Flagged, outside the whitelisted oracle packages:

- calls to the enumeration methods ``.possible_worlds(...)``,
  ``.mod(...)``, ``.mod_over(...)``, ``.valuations(...)``,
  ``.valuation_space(...)``;
- calls to :func:`repro.logic.models.enumerate_valuations` and
  :func:`repro.logic.equality_sat.is_satisfiable_finite` — valuation
  enumeration, the latter the witness-domain oracle of the SAT +
  equality-theory loop that decides every condition in production;
- calls to :func:`repro.logic.counting.probability_enumerate`,
  :func:`repro.logic.counting.probability_shannon` and
  :func:`repro.prob.tuple_prob.tuple_probability_naive` — the
  exponential probability baselines, kept as oracles only (production
  paths count through ``probability(...)``, the compiled d-DNNF
  route);
- ``ctables_equivalent(..., enumerate=True)`` — forcing the enumeration
  engine past the symbolic dispatcher;
- inside ``repro/prob/``: raw product-space iteration via
  ``itertools.product(...)`` — the shape every ``2^variables`` blowup
  in the probability stack takes.

``repro.prob`` is deliberately *not* blanket-exempt: only the modules
whose outputs are world sets by definition (:mod:`repro.prob.space`,
:mod:`repro.prob.pdatabase`) are, and every deliberate enumeration in
the rest of the probability stack carries a waiver.

A deliberate enumeration (e.g. a semantics-defining construction) is
waived with an ``# enumeration-ok: <reason>`` comment on the line.
"""

from __future__ import annotations

import ast
from typing import List, Set

from tools.lint.common import Finding, Source

#: Attribute calls that materialize worlds or valuations.
ENUMERATION_METHODS = frozenset(
    {"possible_worlds", "mod", "mod_over", "valuations", "valuation_space"}
)

#: Module-level enumeration entry points (flagged by imported name or as
#: attribute calls): valuation enumeration, the witness-domain
#: satisfiability oracle, and the exponential probability baselines kept
#: only as differential oracles.
ENUMERATION_FUNCTIONS = frozenset(
    {
        "enumerate_valuations",
        "is_satisfiable_finite",
        "probability_enumerate",
        "probability_shannon",
        "tuple_probability_naive",
    }
)

#: Packages that define or validate the world semantics: the tables'
#: own ``mod`` implementations, the worlds/comparison oracles, the
#: completion modules whose *outputs* are world sets, the logic
#: substrate, and the two probability modules that *are* the enumerated
#: semantic objects.  The rest of ``repro/prob/`` is fenced: its
#: deliberate enumerations carry per-line waivers.
_EXEMPT_FRAGMENTS = (
    "repro/tables/",
    "repro/worlds/",
    "repro/completion/",
    "repro/prob/space",
    "repro/prob/pdatabase",
    "repro/logic/",
)

#: Paths on which raw ``itertools.product`` iteration is flagged — in
#: the probability stack a product call is a product *space*.
_PRODUCT_FENCED_FRAGMENTS = ("repro/prob/",)


def _is_exempt(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in _EXEMPT_FRAGMENTS)


def _is_product_fenced(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(
        fragment in normalized for fragment in _PRODUCT_FENCED_FRAGMENTS
    )


def _is_itertools_product(call: ast.Call, product_aliases: Set[str]) -> bool:
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "product"
        and isinstance(func.value, ast.Name)
        and func.value.id == "itertools"
    ):
        return True
    return isinstance(func, ast.Name) and func.id in product_aliases


def _forces_enumeration(call: ast.Call) -> bool:
    """True for ``ctables_equivalent(..., enumerate=True)``."""
    for keyword in call.keywords:
        if keyword.arg == "enumerate":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def lint_enumeration(source: Source) -> List[Finding]:
    if _is_exempt(source.path):
        return []

    function_aliases: Set[str] = set()
    product_aliases: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("repro"):
                for alias in node.names:
                    if alias.name in ENUMERATION_FUNCTIONS:
                        function_aliases.add(alias.asname or alias.name)
            if node.module == "itertools":
                for alias in node.names:
                    if alias.name == "product":
                        product_aliases.add(alias.asname or alias.name)

    product_fenced = _is_product_fenced(source.path)
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        label = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ENUMERATION_METHODS
        ):
            label = f".{func.attr}(...)"
        elif isinstance(func, ast.Name) and func.id in function_aliases:
            label = f"{func.id}(...)"
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ENUMERATION_FUNCTIONS
        ):
            label = f".{func.attr}(...)"
        elif product_fenced and _is_itertools_product(node, product_aliases):
            label = "itertools.product(...)"
        elif (
            isinstance(func, ast.Name)
            and func.id == "ctables_equivalent"
            and _forces_enumeration(node)
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "ctables_equivalent"
            and _forces_enumeration(node)
        ):
            label = "ctables_equivalent(..., enumerate=True)"
        if label is None:
            continue
        if source.comment_on(node.lineno).startswith("enumeration-ok"):
            continue
        findings.append(
            Finding(
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
                code="EXP001",
                message=(
                    f"{label} enumerates possible worlds "
                    f"(exponential in variables) outside the oracle "
                    f"modules; decide symbolically "
                    f"(ctables_equivalent / repro.logic.equality_sat) or "
                    f"waive with '# enumeration-ok: <reason>'"
                ),
            )
        )
    return findings
