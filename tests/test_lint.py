"""Self-tests for the custom source lints in ``tools/lint``.

Each lint is a pure function from parsed source to findings, so the
tests feed small fixture snippets through ``Source.parse`` directly and
assert on the codes, lines, and waiver behavior.  The final test runs
the full lint battery over ``src/`` — the same invocation CI uses
(``python -m tools.lint src``) — and demands zero findings.
"""

from pathlib import Path

import pytest

from tools.lint import (
    ALL_LINTERS,
    Source,
    lint_enumeration,
    lint_interning,
    lint_locks,
    lint_mutable_defaults,
    lint_obs_names,
    lint_rows,
    lint_typed_core,
    run_linters,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def parse(text, path="pkg/module.py"):
    return Source.parse(path, text)


def codes(findings):
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# INT001 — interning discipline
# ----------------------------------------------------------------------

class TestInterning:
    def test_raw_constructor_flagged(self):
        source = parse(
            "from repro.logic.syntax import Not\n"
            "bad = Not(x)\n"
        )
        findings = lint_interning(source)
        assert codes(findings) == ["INT001"]
        assert findings[0].line == 2
        assert "Not(...)" in findings[0].message

    def test_aliased_import_flagged(self):
        source = parse(
            "from repro.logic.syntax import And as A\n"
            "bad = A(x, y)\n"
        )
        assert codes(lint_interning(source)) == ["INT001"]

    def test_module_attribute_call_flagged(self):
        source = parse(
            "import repro.logic.syntax as syntax\n"
            "bad = syntax.BoolVar('b')\n"
        )
        findings = lint_interning(source)
        assert codes(findings) == ["INT001"]
        assert "boolvar" in findings[0].message

    def test_smart_constructors_pass(self):
        source = parse(
            "from repro.logic.syntax import conj, disj, neg\n"
            "from repro.logic.atoms import boolvar, eq\n"
            "ok = conj(neg(boolvar('b')), eq(x, y))\n"
        )
        assert lint_interning(source) == []

    def test_unrelated_name_not_flagged(self):
        # A local class that happens to be called Not is not the raw
        # constructor — only names imported from the logic modules count.
        source = parse(
            "class Not:\n"
            "    pass\n"
            "bad = Not()\n"
        )
        assert lint_interning(source) == []

    def test_waiver(self):
        source = parse(
            "from repro.logic.syntax import Not\n"
            "raw = Not(x)  # interned-ok: testing the non-canonical path\n"
        )
        assert lint_interning(source) == []

    def test_defining_modules_exempt(self):
        source = parse(
            "node = Not(child)\n"
            "from repro.logic.syntax import Not\n",
            path="src/repro/logic/syntax.py",
        )
        assert lint_interning(source) == []

    def test_annotation_use_not_flagged(self):
        # Using the class as a type annotation or isinstance target is
        # fine; only *calls* mint nodes.
        source = parse(
            "from repro.logic.syntax import Not\n"
            "def f(x):\n"
            "    return isinstance(x, Not)\n"
        )
        assert lint_interning(source) == []


# ----------------------------------------------------------------------
# LCK001/LCK002 — lock discipline
# ----------------------------------------------------------------------

MODULE_GUARD = (
    "import threading\n"
    "_LOCK = threading.Lock()\n"
    "_TABLE = {}  # guarded-by: _LOCK\n"
)


class TestLockDiscipline:
    def test_unlocked_module_write_flagged(self):
        source = parse(
            MODULE_GUARD
            + "def store(key, value):\n"
            + "    _TABLE[key] = value\n"
        )
        findings = lint_locks(source)
        assert codes(findings) == ["LCK001"]
        assert "_TABLE" in findings[0].message
        assert "_LOCK" in findings[0].message

    def test_locked_module_write_passes(self):
        source = parse(
            MODULE_GUARD
            + "def store(key, value):\n"
            + "    with _LOCK:\n"
            + "        _TABLE[key] = value\n"
        )
        assert lint_locks(source) == []

    def test_unlocked_read_flagged_in_full_mode(self):
        source = parse(
            MODULE_GUARD
            + "def load(key):\n"
            + "    return _TABLE.get(key)\n"
        )
        assert codes(lint_locks(source)) == ["LCK001"]

    def test_writes_only_mode_allows_reads(self):
        source = parse(
            "import threading\n"
            "_LOCK = threading.Lock()\n"
            "_TABLE = {}  # guarded-by: _LOCK [writes]\n"
            "def load(key):\n"
            "    return _TABLE.get(key)\n"
            "def store(key, value):\n"
            "    _TABLE[key] = value\n"
        )
        findings = lint_locks(source)
        assert codes(findings) == ["LCK001"]
        assert findings[0].line == 7  # the write, not the read

    def test_mutator_call_counts_as_write(self):
        source = parse(
            "import threading\n"
            "_LOCK = threading.Lock()\n"
            "_SEEN = set()  # guarded-by: _LOCK [writes]\n"
            "def mark(key):\n"
            "    _SEEN.add(key)\n"
        )
        assert codes(lint_locks(source)) == ["LCK001"]

    def test_module_level_code_not_checked(self):
        # Import-time statements run once, before any concurrency.
        source = parse(MODULE_GUARD + "_TABLE['boot'] = 1\n")
        assert lint_locks(source) == []

    def test_unguarded_ok_waiver_on_line(self):
        source = parse(
            MODULE_GUARD
            + "def peek(key):\n"
            + "    return _TABLE.get(key)  # unguarded-ok: racy read is fine\n"
        )
        assert lint_locks(source) == []

    def test_unguarded_ok_waiver_in_block_above(self):
        source = parse(
            MODULE_GUARD
            + "def peek(key):\n"
            + "    # unguarded-ok: double-checked fast path; the miss\n"
            + "    # path below re-checks under the lock.\n"
            + "    return _TABLE.get(key)\n"
        )
        assert lint_locks(source) == []

    INSTANCE = (
        "import threading\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._entries = {}  # guarded-by: _lock\n"
    )

    def test_instance_attribute_write_flagged(self):
        source = parse(
            self.INSTANCE
            + "    def put(self, key, value):\n"
            + "        self._entries[key] = value\n"
        )
        findings = lint_locks(source)
        assert codes(findings) == ["LCK001"]
        assert "_entries" in findings[0].message

    def test_instance_attribute_locked_passes(self):
        source = parse(
            self.INSTANCE
            + "    def put(self, key, value):\n"
            + "        with self._lock:\n"
            + "            self._entries[key] = value\n"
        )
        assert lint_locks(source) == []

    def test_init_is_exempt(self):
        # __init__ assigns the guarded attribute without the lock —
        # construction is single-threaded by definition.
        source = parse(self.INSTANCE)
        assert lint_locks(source) == []

    def test_requires_lock_assumes_held_in_body(self):
        source = parse(
            self.INSTANCE
            + "    def _evict(self, key):  # requires-lock: _lock\n"
            + "        del self._entries[key]\n"
        )
        assert lint_locks(source) == []

    def test_lck002_unlocked_call_to_requires_lock_method(self):
        source = parse(
            self.INSTANCE
            + "    def _evict(self, key):  # requires-lock: _lock\n"
            + "        del self._entries[key]\n"
            + "    def drop(self, key):\n"
            + "        self._evict(key)\n"
        )
        findings = lint_locks(source)
        assert codes(findings) == ["LCK002"]
        assert "_evict" in findings[0].message

    def test_lck002_locked_call_passes(self):
        source = parse(
            self.INSTANCE
            + "    def _evict(self, key):  # requires-lock: _lock\n"
            + "        del self._entries[key]\n"
            + "    def drop(self, key):\n"
            + "        with self._lock:\n"
            + "            self._evict(key)\n"
        )
        assert lint_locks(source) == []

    def test_nested_def_does_not_inherit_lock(self):
        # A closure defined inside `with lock:` runs later, under
        # whatever locks *its* caller holds.
        source = parse(
            MODULE_GUARD
            + "def make(key):\n"
            + "    with _LOCK:\n"
            + "        def thunk():\n"
            + "            return _TABLE.get(key)\n"
            + "    return thunk\n"
        )
        assert codes(lint_locks(source)) == ["LCK001"]

    def test_unannotated_state_imposes_no_policy(self):
        source = parse(
            "_FREE = {}\n"
            "def store(key, value):\n"
            "    _FREE[key] = value\n"
        )
        assert lint_locks(source) == []


# ----------------------------------------------------------------------
# MUT001 — mutable defaults
# ----------------------------------------------------------------------

class TestMutableDefaults:
    def test_list_display_flagged(self):
        source = parse("def f(x, acc=[]):\n    return acc\n")
        assert codes(lint_mutable_defaults(source)) == ["MUT001"]

    def test_dict_call_flagged(self):
        source = parse("def f(x, options=dict()):\n    return options\n")
        assert codes(lint_mutable_defaults(source)) == ["MUT001"]

    def test_kwonly_default_flagged(self):
        source = parse("def f(*, seen=set()):\n    return seen\n")
        assert codes(lint_mutable_defaults(source)) == ["MUT001"]

    def test_none_default_passes(self):
        source = parse("def f(x, acc=None):\n    return acc\n")
        assert lint_mutable_defaults(source) == []

    def test_populated_call_passes(self):
        # dict(a=1) builds a fresh value but signals intent; only the
        # bare constructors mirror the display forms.
        source = parse("def f(x, options=dict(a=1)):\n    return options\n")
        assert lint_mutable_defaults(source) == []

    def test_waiver(self):
        source = parse(
            "def f(x, acc=[]):  # mutable-default-ok: module-lifetime accumulator\n"
            "    return acc\n"
        )
        assert lint_mutable_defaults(source) == []


# ----------------------------------------------------------------------
# TYP001 — typed-core signature coverage
# ----------------------------------------------------------------------

CORE_PATH = "src/repro/engine/example.py"


class TestTypedCore:
    def test_unannotated_core_def_flagged(self):
        source = parse("def f(x):\n    return x\n", path=CORE_PATH)
        findings = lint_typed_core(source)
        assert codes(findings) == ["TYP001"]
        assert "x" in findings[0].message
        assert "return" in findings[0].message

    def test_fully_annotated_passes(self):
        source = parse(
            "def f(x: int, *args: str, **kw: object) -> int:\n"
            "    return x\n",
            path=CORE_PATH,
        )
        assert lint_typed_core(source) == []

    def test_self_exempt(self):
        source = parse(
            "class C:\n"
            "    def method(self, x: int) -> int:\n"
            "        return x\n",
            path=CORE_PATH,
        )
        assert lint_typed_core(source) == []

    def test_nested_def_exempt(self):
        source = parse(
            "def f(x: int) -> int:\n"
            "    def helper(y):\n"
            "        return y\n"
            "    return helper(x)\n",
            path=CORE_PATH,
        )
        assert lint_typed_core(source) == []

    def test_non_core_file_ignored(self):
        source = parse("def f(x):\n    return x\n", path="src/repro/tables/t.py")
        assert lint_typed_core(source) == []

    def test_waiver(self):
        source = parse(
            "def f(x):  # untyped-ok: dynamic dispatch shim\n"
            "    return x\n",
            path=CORE_PATH,
        )
        assert lint_typed_core(source) == []


# ----------------------------------------------------------------------
# EXP001 — world enumeration outside the oracle modules
# ----------------------------------------------------------------------

class TestEnumeration:
    def test_possible_worlds_call_flagged(self):
        source = parse(
            "def check(table, domain):\n"
            "    return list(table.possible_worlds(domain))\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert ".possible_worlds(...)" in findings[0].message

    def test_mod_and_mod_over_flagged(self):
        source = parse(
            "def check(table, domain):\n"
            "    return table.mod() == table.mod_over(domain)\n"
        )
        assert codes(lint_enumeration(source)) == ["EXP001", "EXP001"]

    def test_valuations_call_flagged(self):
        source = parse(
            "def sweep(table):\n"
            "    for valuation in table.valuations():\n"
            "        pass\n"
        )
        assert codes(lint_enumeration(source)) == ["EXP001"]

    def test_enumerate_valuations_import_flagged(self):
        source = parse(
            "from repro.logic.models import enumerate_valuations\n"
            "def sweep(domains):\n"
            "    return list(enumerate_valuations(domains))\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "enumerate_valuations" in findings[0].message

    def test_forced_enumeration_keyword_flagged(self):
        source = parse(
            "from repro.worlds.compare import ctables_equivalent\n"
            "def check(left, right):\n"
            "    return ctables_equivalent(left, right, enumerate=True)\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "enumerate=True" in findings[0].message

    def test_symbolic_dispatch_passes(self):
        source = parse(
            "from repro.worlds.compare import ctables_equivalent\n"
            "def check(left, right):\n"
            "    return ctables_equivalent(left, right)\n"
        )
        assert lint_enumeration(source) == []

    def test_explicit_symbolic_keyword_passes(self):
        source = parse(
            "from repro.worlds.compare import ctables_equivalent\n"
            "def check(left, right):\n"
            "    return ctables_equivalent(left, right, enumerate=False)\n"
        )
        assert lint_enumeration(source) == []

    def test_unrelated_enumerate_builtin_passes(self):
        source = parse(
            "def number(rows):\n"
            "    return list(enumerate(rows))\n"
        )
        assert lint_enumeration(source) == []

    def test_waiver(self):
        source = parse(
            "def check(table):\n"
            "    return table.mod()  # enumeration-ok: semantics oracle\n"
        )
        assert lint_enumeration(source) == []

    def test_oracle_modules_exempt(self):
        source = parse(
            "def mod_equal(left, right, domain):\n"
            "    return left.mod_over(domain) == right.mod_over(domain)\n",
            path="src/repro/worlds/compare.py",
        )
        assert lint_enumeration(source) == []

    def test_probability_enumerate_import_flagged(self):
        source = parse(
            "from repro.logic.counting import probability_enumerate\n"
            "def p(condition, distributions):\n"
            "    return probability_enumerate(condition, distributions)\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "probability_enumerate" in findings[0].message

    def test_probability_shannon_import_flagged(self):
        source = parse(
            "from repro.logic.counting import probability_shannon\n"
            "def p(condition, distributions):\n"
            "    return probability_shannon(condition, distributions)\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "probability_shannon" in findings[0].message

    def test_is_satisfiable_finite_import_flagged(self):
        source = parse(
            "from repro.logic.equality_sat import is_satisfiable_finite, witness_domain\n"
            "def sat(condition):\n"
            "    return is_satisfiable_finite(condition, witness_domain(condition))\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "is_satisfiable_finite" in findings[0].message

    def test_tuple_probability_naive_attribute_call_flagged(self):
        source = parse(
            "import repro.prob.tuple_prob as tp\n"
            "def p(query, pctable, row):\n"
            "    return tp.tuple_probability_naive(query, pctable, row)\n"
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "tuple_probability_naive" in findings[0].message

    def test_valuation_space_call_flagged(self):
        source = parse(
            "def worlds(pctable):\n"
            "    return list(pctable.valuation_space())\n"
        )
        assert codes(lint_enumeration(source)) == ["EXP001"]

    def test_itertools_product_fenced_in_prob(self):
        source = parse(
            "import itertools\n"
            "def space(pools):\n"
            "    return list(itertools.product(*pools))\n",
            path="src/repro/prob/newmodule.py",
        )
        findings = lint_enumeration(source)
        assert codes(findings) == ["EXP001"]
        assert "itertools.product" in findings[0].message

    def test_imported_product_alias_fenced_in_prob(self):
        source = parse(
            "from itertools import product as cartesian\n"
            "def space(pools):\n"
            "    return list(cartesian(*pools))\n",
            path="src/repro/prob/newmodule.py",
        )
        assert codes(lint_enumeration(source)) == ["EXP001"]

    def test_itertools_product_allowed_outside_prob(self):
        source = parse(
            "import itertools\n"
            "def pairs(rows):\n"
            "    return list(itertools.product(rows, rows))\n",
            path="src/repro/physical/kernels.py",
        )
        assert lint_enumeration(source) == []

    def test_product_waiver_in_prob(self):
        source = parse(
            "import itertools\n"
            "def space(pools):\n"
            "    return list(itertools.product(*pools))"
            "  # enumeration-ok: semantics oracle\n",
            path="src/repro/prob/newmodule.py",
        )
        assert lint_enumeration(source) == []

    def test_prob_space_module_exempt(self):
        source = parse(
            "import itertools\n"
            "def space(pools):\n"
            "    return list(itertools.product(*pools))\n",
            path="src/repro/prob/space.py",
        )
        assert lint_enumeration(source) == []


# ----------------------------------------------------------------------
# OBS001 — metric/span names from the registered constant table
# ----------------------------------------------------------------------

class TestObsNames:
    def test_free_function_literal_flagged(self):
        source = parse(
            "from repro.obs.metrics import counter\n"
            "def record():\n"
            "    counter('queries_total')\n"
        )
        findings = lint_obs_names(source)
        assert codes(findings) == ["OBS001"]
        assert "queries_total" in findings[0].message
        assert findings[0].line == 3

    def test_aliased_free_function_flagged(self):
        source = parse(
            "from repro.obs.metrics import counter as bump\n"
            "def record():\n"
            "    bump('queries_total')\n"
        )
        assert codes(lint_obs_names(source)) == ["OBS001"]

    def test_trace_span_literal_flagged(self):
        source = parse(
            "from repro.obs.trace import trace_span\n"
            "def run():\n"
            "    with trace_span('execute'):\n"
            "        pass\n"
        )
        assert codes(lint_obs_names(source)) == ["OBS001"]

    def test_registry_method_literal_flagged(self):
        source = parse(
            "def record(registry):\n"
            "    registry.histogram('query_seconds', 0.1)\n"
        )
        assert codes(lint_obs_names(source)) == ["OBS001"]

    def test_tracer_span_and_event_literals_flagged(self):
        source = parse(
            "def run(tracer):\n"
            "    with tracer.span('plan'):\n"
            "        tracer.event('parse')\n"
        )
        assert codes(lint_obs_names(source)) == ["OBS001", "OBS001"]

    def test_keyword_name_literal_flagged(self):
        source = parse(
            "def record(registry):\n"
            "    registry.counter(name='queries_total')\n"
        )
        assert codes(lint_obs_names(source)) == ["OBS001"]

    def test_constant_name_passes(self):
        source = parse(
            "from repro.obs.metrics import counter\n"
            "from repro.obs.names import QUERIES_TOTAL\n"
            "def record():\n"
            "    counter(QUERIES_TOTAL)\n"
        )
        assert lint_obs_names(source) == []

    def test_registry_method_constant_passes(self):
        source = parse(
            "from repro.obs.names import QUERY_SECONDS\n"
            "def record(registry):\n"
            "    registry.histogram(QUERY_SECONDS, 0.1)\n"
        )
        assert lint_obs_names(source) == []

    def test_unrelated_counter_call_passes(self):
        # collections.Counter is a constructor call by Name, not an
        # imported repro.obs function — no findings.
        source = parse(
            "from collections import Counter\n"
            "def tally(rows):\n"
            "    return Counter(rows)\n"
        )
        assert lint_obs_names(source) == []

    def test_waiver(self):
        source = parse(
            "from repro.obs.metrics import counter\n"
            "def record():\n"
            "    counter('scratch_total')  # obs-name-ok: test probe\n"
        )
        assert lint_obs_names(source) == []

    def test_names_registry_module_exempt(self):
        source = parse(
            "def build(registry):\n"
            "    registry.counter('bootstrap_total')\n",
            path="src/repro/obs/names.py",
        )
        assert lint_obs_names(source) == []


# ----------------------------------------------------------------------
# ROW001 — c-table rows are immutable
# ----------------------------------------------------------------------

class TestRowImmutability:
    @pytest.mark.parametrize(
        "statement",
        [
            "row.values = ()",
            "row.condition = TOP",
            "row._hash = 0",
            "row.values += (x,)",
            "row.condition: object = TOP",
            "first.values, second = (), 1",
            "del row._hash",
            "setattr(row, 'condition', TOP)",
            "object.__setattr__(row, 'values', ())",
            'object.__setattr__(row, "_hash", None)',
        ],
    )
    def test_each_mutation_form_flagged(self, statement):
        findings = lint_rows(parse(f"def mutate(row):\n    {statement}\n"))
        assert codes(findings) == ["ROW001"]
        assert findings[0].line == 2

    def test_reads_pass(self):
        source = parse(
            "def read(row, other):\n"
            "    first = row.values[0]\n"
            "    same = row.condition is other.condition\n"
            "    key = hash(row), row._hash\n"
            "    items = getattr(row, 'values')\n"
            "    row.values[0].name\n"
            "    other.value = 1\n"
            "    setattr(row, 'name', first)\n"
            "    setattr(row, name, first)\n"
        )
        assert lint_rows(source) == []

    def test_defining_module_exempt(self):
        source = parse(
            "class CRow:\n"
            "    def __init__(self, values, condition):\n"
            "        self.values = values\n"
            "        self.condition = condition\n"
            "        self._hash = None\n",
            path="src/repro/tables/ctable.py",
        )
        assert lint_rows(source) == []

    def test_same_body_elsewhere_flagged(self):
        source = parse(
            "class Copy:\n"
            "    def __init__(self, values):\n"
            "        self.values = values\n",
            path="src/repro/tables/other.py",
        )
        assert codes(lint_rows(source)) == ["ROW001"]

    def test_waiver_comment(self):
        source = parse(
            "def cache(node, value):\n"
            "    object.__setattr__(node, '_hash', value)  # row-attr-ok: not a row\n"
        )
        assert lint_rows(source) == []


# ----------------------------------------------------------------------
# Integration: the tree the CI lint job checks is clean
# ----------------------------------------------------------------------

class TestRepositoryClean:
    def test_src_has_zero_findings(self):
        findings = run_linters([str(REPO_ROOT / "src")], ALL_LINTERS)
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"lint findings on src/:\n{rendered}"

    def test_tools_lint_is_self_clean(self):
        findings = run_linters([str(REPO_ROOT / "tools")], ALL_LINTERS)
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"lint findings on tools/:\n{rendered}"
