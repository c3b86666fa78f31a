"""Documentation that quotes program output stays true to the program.

README's "Physical execution" section shows the physical EXPLAIN of
``examples/physical_explain.py``'s query.  The lowering rules decide
that text (operator labels, ``out=`` list, estimates), so a change to them
must re-render the block; this test runs the example and looks for the
block, verbatim, in what it prints.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _readme_physical_explain() -> str:
    """The output lines of README's fenced ``explain(physical=True)``
    example (the ``>>>`` prompt line dropped)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    (block,) = [b for b in blocks if "explain(physical=True)" in b]
    lines = block.splitlines()
    assert lines[0].startswith(">>> ")
    return "\n".join(lines[1:]) + "\n"


def _example_output() -> str:
    path = ROOT / "examples" / "physical_explain.py"
    spec = importlib.util.spec_from_file_location("physical_explain", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        module.main()
    return captured.getvalue()


def test_readme_physical_explain_matches_the_example():
    expected = _readme_physical_explain()
    assert "HashJoin" in expected
    assert expected in _example_output()
