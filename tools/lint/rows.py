"""ROW001 — c-table rows are immutable by convention.

:class:`repro.tables.ctable.CRow` is a plain slotted class: its hash is
computed once and cached, and every layer shares row objects (a view
store, a batch and a table may hold the same row).  A row that changed
after it was hashed would sit under a stale hash in every dict and set
that holds it.  A runtime guard (a frozen dataclass, or
``object.__setattr__`` in ``__init__``) costs as much as building the
row, so the guard is this lint instead.

Flagged, outside ``repro/tables/ctable.py``, on any object (the lint
cannot see types, so the names alone decide):

- assignment, augmented assignment, annotated assignment and ``del``
  of an attribute named ``values``, ``condition`` or ``_hash``,
  including loop and ``with`` targets;
- ``setattr(obj, "<name>", ...)`` and ``object.__setattr__(obj,
  "<name>", ...)`` with one of those names as a literal.

Another class's own attribute of the same name is waived with a
``# row-attr-ok: <reason>`` comment on the line.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.lint.common import Finding, Source

#: The slots of ``CRow``.
ROW_ATTRIBUTES = frozenset({"values", "condition", "_hash"})

#: The module that defines ``CRow`` may assign its slots.
_EXEMPT_SUFFIX = "repro/tables/ctable.py"


def _set_name(call: ast.Call) -> Optional[str]:
    """The literal attribute name a ``setattr``-style call writes."""
    func = call.func
    is_setattr = isinstance(func, ast.Name) and func.id == "setattr"
    is_object_setattr = (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    )
    if not (is_setattr or is_object_setattr) or len(call.args) < 2:
        return None
    name = call.args[1]
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value
    return None


def lint_rows(source: Source) -> List[Finding]:
    if source.path.replace("\\", "/").endswith(_EXEMPT_SUFFIX):
        return []
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            name: Optional[str] = node.attr
            label = f"assignment to .{node.attr}"
        elif isinstance(node, ast.Call):
            name = _set_name(node)
            label = f"setattr of {name!r}"
        else:
            continue
        if name not in ROW_ATTRIBUTES:
            continue
        if source.comment_on(node.lineno).startswith("row-attr-ok"):
            continue
        findings.append(
            Finding(
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
                code="ROW001",
                message=(
                    f"{label} mutates a c-table row outside "
                    "repro/tables/ctable.py; rows are immutable and "
                    "cache their hash — build a new CRow, or waive "
                    "another class's attribute with "
                    "'# row-attr-ok: <reason>'"
                ),
            )
        )
    return findings
