"""TYP001 — fully annotated defs in the typed core packages.

The typed core — :mod:`repro.logic`, :mod:`repro.ctalgebra`,
:mod:`repro.engine`, :mod:`repro.physical`, :mod:`repro.ivm` and
:mod:`repro.prob.wmc` — carries
complete signature annotations so CI's mypy run has real signatures to
check against (and so the next reader does not have to reverse-engineer
parameter types).  This lint enforces the *presence* of annotations
locally, without needing mypy installed: every parameter except
``self``/``cls`` must be annotated and every def must declare a return
type.

Nested functions (closures) are exempt — their types are local
inference territory — as are lambdas.  A deliberate exception can be
waived with ``# untyped-ok: <reason>`` on the ``def`` line.
"""

from __future__ import annotations

import ast
from typing import List, Set, Union

from tools.lint.common import Finding, Source

#: Path fragments selecting the typed-core packages.
CORE_PACKAGES = (
    "repro/logic/",
    "repro/ctalgebra/",
    "repro/engine/",
    "repro/physical/",
    "repro/ivm/",
    "repro/prob/wmc.py",
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _core_file(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in CORE_PACKAGES)


def _missing_annotations(node: _FunctionNode) -> List[str]:
    missing: List[str] = []
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    for index, argument in enumerate(positional):
        if index == 0 and argument.arg in ("self", "cls"):
            continue
        if argument.annotation is None:
            missing.append(argument.arg)
    for argument in arguments.kwonlyargs:
        if argument.annotation is None:
            missing.append(argument.arg)
    if arguments.vararg is not None and arguments.vararg.annotation is None:
        missing.append("*" + arguments.vararg.arg)
    if arguments.kwarg is not None and arguments.kwarg.annotation is None:
        missing.append("**" + arguments.kwarg.arg)
    if node.returns is None:
        missing.append("return")
    return missing


def lint_typed_core(source: Source) -> List[Finding]:
    if not _core_file(source.path):
        return []

    # Top-level functions and class methods only: nested defs are local.
    nested: Set[_FunctionNode] = set()
    for outer in ast.walk(source.tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(inner)

    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node in nested:
            continue
        if source.comment_on(node.lineno).startswith("untyped-ok"):
            continue
        missing = _missing_annotations(node)
        if missing:
            findings.append(
                Finding(
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code="TYP001",
                    message=(
                        f"{node.name}() is missing annotations for "
                        f"{', '.join(missing)} (typed-core package)"
                    ),
                )
            )
    return findings
