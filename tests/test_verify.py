"""Plan-verifier tests: seeded broken rewrites and the check surfaces.

The core battery monkeypatches the optimizer's local rule functions
(resolved through module globals for exactly this purpose — see
``optimize._apply_local_rule``) with deliberately broken variants, runs
real queries through the verified planning pipeline, and demands that
:class:`~repro.ctalgebra.verify.PlanVerifier` rejects the rewrite *and
names the offending rule*.  The verifier runs its structural checks
first, and the battery runs over both layers: ``"syntactic"`` is the
structural checks alone (translation validation stubbed out),
``"semantic"`` the full verifier.  The structural layer has one
documented miss — the column-erasing conjunct keys cannot see a
predicate applied to the wrong join side when the atom shapes survive
— and must catch at least 8 of the 12 seeded mutations.  Translation
validation (symbolic execution on abstract tables plus SAT +
equality-theory condition equivalence) closes exactly that blind spot, so the full
verifier must catch all 12.

The wrong-side query joins on *different* columns than it filters
(``col1 = col3`` join, ``col0 = 1`` filter): under a ``col0 = col2``
join the side swap would be genuinely Mod-preserving (congruence makes
the filter equivalent on either side) and translation validation —
correctly — accepts it.
"""

import pytest

from repro.errors import PlanVerificationError, QueryError
from repro.algebra import (
    col_eq,
    col_eq_const,
    proj,
    prod,
    rel,
    sel,
    union,
)
from repro.ctalgebra import optimize
from repro.ctalgebra.plan import (
    EmptyNode,
    JoinNode,
    ProductNode,
    ProjectNode,
    Scan,
    SelectNode,
    collect_stats,
)
from repro.ctalgebra.translate import plan_for_query
from repro.ctalgebra.verify import PlanVerifier
from repro.engine import Engine
from repro.engine.config import ExecutionConfig, _env_flag
from repro.logic.atoms import Const, Eq, Var, eq
from repro.logic.syntax import Not, TOP, conj, is_interned
from repro.physical import operators
from repro.physical.lower import lower
from repro.tables.ctable import CRow, CTable


R2 = rel("R", 2)
S2 = rel("S", 2)

UNSAT = conj(col_eq_const(0, 1), col_eq_const(0, 2))

# The real rule functions, captured before any monkeypatching: the
# broken variants below delegate to these for the cases they leave
# intact (the patched module globals would recurse into themselves).
REAL_REWRITE_SELECT = optimize._rewrite_select
REAL_REWRITE_JOIN = optimize._rewrite_join
REAL_REWRITE_STRUCTURAL = optimize._rewrite_structural
REAL_BUILD_IN_ORDER = optimize._build_in_order


def non_canonical_not(predicate):
    """A structurally-equal duplicate of an interned ``Not`` node.

    The raw dataclass constructor registers itself best-effort
    (``setdefault``), so whichever node sits in the intern table first —
    our first construction, or a survivor from an earlier test — the
    second construction is never it.  The first node is returned too so
    the caller keeps a strong reference (the intern table is weak).
    """
    canonical = Not(child=predicate)  # interned-ok: probing the raw path
    duplicate = Not(child=predicate)  # interned-ok: probing the raw path
    return canonical, duplicate


def small_tables():
    r = CTable([(1, 2), (2, 3), (1, 1)], arity=2)
    s = CTable([(2, 5), (3, 7)], arity=2)
    return {"R": r, "S": s}


def verified_plan(query, tables=None):
    return plan_for_query(
        query, tables or small_tables(), optimize=True, verify=True
    )


#: The verifier's two layers: the structural checks alone, and the full
#: verifier with translation validation.
VERIFY_LAYERS = ["syntactic", "semantic"]


def use_layer(patcher, layer):
    """Restrict the verifier to *layer* for the rest of the test."""
    if layer == "syntactic":
        patcher.setattr(
            PlanVerifier, "_verify_semantics", lambda self, *args: None
        )


# ----------------------------------------------------------------------
# Seeded broken rewrites
# ----------------------------------------------------------------------

def broken_fusion_drops_outer(node, sat):
    """Select-over-select fusion that forgets the outer predicate."""
    if isinstance(node.child, SelectNode):
        return SelectNode(node.child.child, node.child.predicate)
    return REAL_REWRITE_SELECT(node, sat)


def broken_join_drops_residual(node, sat):
    """Pushdown that silently drops the cross-side residual conjunct."""
    result = REAL_REWRITE_JOIN(node, sat)
    if isinstance(result, JoinNode):
        return ProductNode(result.left, result.right)
    return result


def broken_join_unshifted_pushdown(node, sat):
    """Pushes the whole predicate to the right child without remapping."""
    return ProductNode(node.left, SelectNode(node.right, node.predicate))


def broken_project_truncates(node):
    """Projection rewrite that loses the last output column."""
    return ProjectNode(node.child, node.columns[:-1])


def broken_project_out_of_range(node):
    """Same arity, but every output column indexes past the child."""
    return ProjectNode(node.child, tuple(node.child.arity for _ in node.columns))


def broken_union_absorbs_empty(node):
    """Union-with-empty collapses to empty, forgetting the live side."""
    if hasattr(node, "left") and hasattr(node, "right"):
        for side in (node.left, node.right):
            if isinstance(side, EmptyNode):
                return EmptyNode(node.arity, side.sources)
    return REAL_REWRITE_STRUCTURAL(node)


def broken_select_prunes_satisfiable(node, sat):
    """Treats every selection as unsatisfiable."""
    return optimize._prune_to_empty(node)


def broken_prune_forgets_sources(node):
    """A prune that throws away the EmptyNode's leaf memory."""
    return EmptyNode(node.arity, ())


def broken_select_invents_atom(node, sat):
    """Adds a conjunct the query never asked for."""
    return SelectNode(node.child, conj(node.predicate, col_eq_const(0, 99)))


def broken_join_wrong_side(node, sat):
    """Applies the left-only conjunct to the right child (shape-identical).

    The conjunct keys deliberately erase column indexes (pushdown remaps
    them legitimately), so this side swap survives every structural
    check — the documented blind spot that translation validation
    (the ``"semantics"`` check) closes.
    """
    result = REAL_REWRITE_JOIN(node, sat)
    if (
        isinstance(result, JoinNode)
        and isinstance(result.left, SelectNode)
        and not isinstance(result.right, SelectNode)
    ):
        moved = result.left.predicate
        return JoinNode(
            result.left.child,
            SelectNode(result.right, moved),
            result.predicate,
        )
    return result


def broken_reorder_drops_conjunct(operands, conjuncts, order, total_arity):
    return REAL_BUILD_IN_ORDER(
        operands, list(conjuncts)[:-1], order, total_arity
    )


def broken_reorder_duplicates_operand(operands, conjuncts, order, total_arity):
    cloned = [(operands[0][0], start) for _, start in operands]
    return REAL_BUILD_IN_ORDER(cloned, conjuncts, order, total_arity)


#: (name, optimize attribute to patch, broken fn, query, expected check,
#:  expected rule)
#:
#: The full verifier catches *every* entry.  All but one fail a
#: structural check (those run before translation validation); the
#: documented structural miss carries the ``"semantics"`` check that
#: catches it, and the structural layer alone lets it through.
MUTATIONS = [
    (
        "fusion-drops-outer-predicate",
        "_rewrite_select",
        broken_fusion_drops_outer,
        sel(sel(R2, col_eq_const(0, 1)), col_eq_const(1, 2)),
        "conjunct-conservation",
        "rewrite_select",
    ),
    (
        "join-drops-residual",
        "_rewrite_join",
        broken_join_drops_residual,
        sel(prod(R2, S2), col_eq(0, 2), col_eq_const(0, 1)),
        "conjunct-conservation",
        "rewrite_join",
    ),
    (
        "join-unshifted-pushdown",
        "_rewrite_join",
        broken_join_unshifted_pushdown,
        sel(prod(R2, S2), col_eq_const(2, 5)),
        "arity",
        "rewrite_join",
    ),
    (
        "projection-truncates-columns",
        "_rewrite_project",
        broken_project_truncates,
        proj(R2, (1, 0)),
        "arity",
        "rewrite_project",
    ),
    (
        "projection-columns-out-of-range",
        "_rewrite_project",
        broken_project_out_of_range,
        proj(R2, (1, 0)),
        "arity",
        "rewrite_project",
    ),
    (
        "union-absorbs-empty",
        "_rewrite_structural",
        broken_union_absorbs_empty,
        union(sel(R2, UNSAT), S2),
        "leaf-conservation",
        "rewrite_structural",
    ),
    (
        "reorder-drops-conjunct",
        "_build_in_order",
        broken_reorder_drops_conjunct,
        sel(prod(R2, S2), col_eq(0, 2)),
        "conjunct-conservation",
        "reorder_joins",
    ),
    (
        "reorder-duplicates-operand",
        "_build_in_order",
        broken_reorder_duplicates_operand,
        sel(prod(R2, S2), col_eq(0, 2)),
        "leaf-conservation",
        "reorder_joins",
    ),
    (
        "prunes-satisfiable-predicate",
        "_rewrite_select",
        broken_select_prunes_satisfiable,
        sel(R2, col_eq_const(0, 1)),
        "unsat-prune",
        "rewrite_select",
    ),
    (
        "prune-forgets-leaf-sources",
        "_prune_to_empty",
        broken_prune_forgets_sources,
        sel(R2, UNSAT),
        "leaf-conservation",
        "rewrite_select",
    ),
    (
        "select-invents-atom",
        "_rewrite_select",
        broken_select_invents_atom,
        sel(R2, col_eq_const(0, 1)),
        "conjunct-conservation",
        "rewrite_select",
    ),
    (
        "join-wrong-side-pushdown",
        "_rewrite_join",
        broken_join_wrong_side,
        sel(prod(R2, S2), col_eq(1, 3), col_eq_const(0, 1)),
        "semantics",
        "rewrite_join",
    ),
]

class TestSeededMutations:
    @pytest.mark.parametrize("layer", VERIFY_LAYERS)
    @pytest.mark.parametrize(
        "name,attr,broken,query,check,rule",
        MUTATIONS,
        ids=[entry[0] for entry in MUTATIONS],
    )
    def test_mutation(
        self, monkeypatch, name, attr, broken, query, check, rule, layer
    ):
        monkeypatch.setattr(optimize, attr, broken)
        use_layer(monkeypatch, layer)
        if layer == "syntactic" and check == "semantics":
            # Documented structural miss: shape-preserving side swaps
            # pass the structural checks; translation validation (the
            # semantic layer) catches them.
            verified_plan(query)
            return
        with pytest.raises(PlanVerificationError) as excinfo:
            verified_plan(query)
        assert excinfo.value.check == check
        assert excinfo.value.rule == rule
        assert rule in str(excinfo.value)

    def test_syntactic_catch_rate_meets_the_bar(self):
        """The structural layer alone catches at least 8 of the 12."""
        checks = self._catching_checks("syntactic")
        assert len(checks) == 12
        assert "semantics" not in checks
        caught = [check for check in checks if check is not None]
        assert len(caught) >= 8

    def test_semantic_catch_rate_is_perfect(self):
        """The full verifier catches every seeded mutation — 12/12."""
        checks = self._catching_checks("semantic")
        assert len(checks) == 12
        assert None not in checks

    @staticmethod
    def _catching_checks(layer):
        """Per mutation, the check that rejected it (``None``: missed)."""
        checks = []
        for name, attr, broken, query, _, _ in MUTATIONS:
            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(optimize, attr, broken)
                use_layer(patcher, layer)
                try:
                    verified_plan(query)
                except PlanVerificationError as error:
                    assert error.rule is not None, name
                    checks.append(error.check)
                else:
                    checks.append(None)
        return checks

    @pytest.mark.parametrize("layer", VERIFY_LAYERS)
    def test_clean_pipeline_verifies(self, monkeypatch, layer):
        """Without mutations the verified pipeline accepts the plans."""
        use_layer(monkeypatch, layer)
        for _, _, _, query, _, _ in MUTATIONS:
            verified_plan(query)


# ----------------------------------------------------------------------
# verify_query: schema checks before planning
# ----------------------------------------------------------------------

class TestVerifyQuery:
    def test_unknown_relation_names_nearest_match(self):
        verifier = PlanVerifier()
        with pytest.raises(QueryError) as excinfo:
            verifier.verify_query(rel("peoples", 2), {"people": 2, "pets": 2})
        message = str(excinfo.value)
        assert "peoples" in message
        assert "did you mean 'people'" in message

    def test_arity_mismatch(self):
        verifier = PlanVerifier()
        with pytest.raises(QueryError, match="arity"):
            verifier.verify_query(rel("R", 3), {"R": 2})

    def test_valid_query_passes(self):
        PlanVerifier().verify_query(
            sel(prod(R2, S2), col_eq(0, 2)), {"R": 2, "S": 2}
        )


# ----------------------------------------------------------------------
# verify_plan: node-level invariants
# ----------------------------------------------------------------------

class TestVerifyPlan:
    def test_negative_scan_arity(self):
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_plan(Scan("R", -1))
        assert excinfo.value.check == "arity"

    def test_projection_out_of_range(self):
        plan = ProjectNode(Scan("R", 2), (0, 5))
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_plan(plan)
        assert excinfo.value.check == "arity"

    def test_predicate_column_out_of_range(self):
        plan = SelectNode(Scan("R", 2), col_eq_const(4, 1))
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_plan(plan)
        assert excinfo.value.check == "arity"

    def test_non_column_variable_in_predicate(self):
        plan = SelectNode(Scan("R", 2), eq(Var("x"), Const(1)))
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_plan(plan)
        assert excinfo.value.check == "scope"

    def test_non_canonical_predicate_rejected(self):
        # Keyword construction bypasses the interning smart constructor,
        # producing a structurally-equal but non-canonical node.
        canonical, raw = non_canonical_not(col_eq_const(0, 1))
        assert not is_interned(raw)
        plan = SelectNode(Scan("R", 2), raw)
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_plan(plan)
        assert excinfo.value.check == "interning"

    def test_empty_node_with_non_leaf_source(self):
        plan = EmptyNode(2, (SelectNode(Scan("R", 2), TOP),))
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_plan(plan)
        assert excinfo.value.check == "leaf-conservation"


# ----------------------------------------------------------------------
# verify_rewrite: the conservation laws directly
# ----------------------------------------------------------------------

class TestVerifyRewrite:
    def test_legal_collapse_over_empty_child(self):
        # Select over an already-empty region may fold to the region:
        # the dropped atoms need no independent justification.
        before = SelectNode(
            EmptyNode(2, (Scan("R", 2),)), col_eq_const(0, 1)
        )
        after = EmptyNode(2, (Scan("R", 2),))
        PlanVerifier().verify_rewrite("rewrite_select", before, after)

    def test_unjustified_prune_is_rejected(self):
        before = SelectNode(Scan("R", 2), col_eq_const(0, 1))
        after = EmptyNode(2, (Scan("R", 2),))
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_rewrite("rewrite_select", before, after)
        assert excinfo.value.check == "unsat-prune"

    def test_justified_prune_is_accepted(self):
        before = SelectNode(Scan("R", 2), UNSAT)
        after = EmptyNode(2, (Scan("R", 2),))
        PlanVerifier().verify_rewrite("rewrite_select", before, after)


# ----------------------------------------------------------------------
# verify_ctable: canonicity and domain coverage
# ----------------------------------------------------------------------

class TestVerifyCTable:
    def test_canonical_table_passes(self):
        table = CTable(
            [CRow((Var("x"), Const(1)), col_eq_const(0, 1))], arity=2
        )
        PlanVerifier().verify_ctable("T", table)

    def test_non_canonical_condition_rejected(self):
        canonical, raw = non_canonical_not(col_eq_const(0, 1))
        table = CTable([CRow((Const(1), Const(2)), raw)], arity=2)
        assert not is_interned(raw)
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier().verify_ctable("T", table)
        assert excinfo.value.check == "interning"
        assert "'T'" in str(excinfo.value)


# ----------------------------------------------------------------------
# verify_physical: lowering invariants
# ----------------------------------------------------------------------

class TestVerifyPhysical:
    def lowered_join(self):
        tables = small_tables()
        plan = JoinNode(Scan("R", 2), Scan("S", 2), col_eq(0, 2))
        stats = collect_stats(tables)
        return lower(plan, stats), stats

    def test_clean_lowering_verifies(self):
        op, stats = self.lowered_join()
        PlanVerifier(stats).verify_physical(op)

    def test_negative_physical_estimate(self):
        op, stats = self.lowered_join()
        op.est_rows = -5.0
        with pytest.raises(PlanVerificationError) as excinfo:
            PlanVerifier(stats).verify_physical(op)
        assert excinfo.value.check == "estimates"

    @staticmethod
    def hand_built_join(output):
        """R ⋈ S on R.1 = S.0 with a residual on S.1, built directly."""
        return operators.HashJoinOp(
            operators.ScanOp("R", 2),
            operators.ScanOp("S", 2),
            conj(col_eq(1, 2), ~col_eq_const(3, 7)),
            ~col_eq_const(3, 7),
            (1,),
            (0,),
            output=output,
        )

    def test_narrowed_join_checks_predicates_against_the_pair_arity(self):
        # The predicates address all four pair columns, whatever the
        # output keeps.
        for output in ((0,), (3, 0), ()):
            join = self.hand_built_join(output)
            assert join.arity == len(output)
            PlanVerifier().verify_physical(join)

    def test_join_output_outside_the_pair_arity(self):
        for output in ((0, 4), (-1,)):
            with pytest.raises(PlanVerificationError) as excinfo:
                PlanVerifier().verify_physical(self.hand_built_join(output))
            assert excinfo.value.check == "arity"
            assert "output columns" in str(excinfo.value)

    #: A pin under an ``Or``: rows (1, 1) and (2, 3) satisfy the
    #: predicate, yet neither holds the key (1, 3) such pins would ask
    #: R's column index for.
    EITHER = SelectNode(Scan("R", 2), col_eq_const(0, 1) | col_eq_const(1, 3))

    def test_clean_filter_pins_verify(self):
        tables = small_tables()
        stats = collect_stats(tables)
        for predicate in (
            col_eq_const(0, 1),
            conj(col_eq_const(0, 1), Not(col_eq_const(1, 2))),
            self.EITHER.predicate,
        ):
            plan = SelectNode(Scan("R", 2), predicate)
            lower(plan, stats, verifier=PlanVerifier(stats))

    def test_pin_from_under_an_or_is_rejected(self, monkeypatch):
        def broken_filter_pins(predicate):
            # Seeded mutation: every column = constant atom pins, even
            # one under an Or.
            return tuple(
                atom
                for atom in predicate.atoms()
                if isinstance(atom, Eq)
                and any(isinstance(term, Const) for term in (atom.left, atom.right))
            )

        monkeypatch.setattr(operators, "_filter_pins", broken_filter_pins)
        tables = small_tables()
        stats = collect_stats(tables)
        with pytest.raises(PlanVerificationError) as excinfo:
            lower(self.EITHER, stats, verifier=PlanVerifier(stats))
        assert excinfo.value.check == "lowering"
        assert excinfo.value.rule == "lower"
        assert "top-level conjunct" in str(excinfo.value)
        # Unverified, the mutation silently drops both matching rows.
        from repro.physical import execute_physical

        answered = execute_physical(lower(self.EITHER, stats), tables)
        assert len(answered) == 0


# ----------------------------------------------------------------------
# Config and engine wiring
# ----------------------------------------------------------------------

class TestConfigWiring:
    @pytest.mark.parametrize("value", ["1", "true", "YES", "On"])
    def test_env_flag_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", value)
        assert ExecutionConfig().verify_plans is True

    @pytest.mark.parametrize("value", ["0", "false", "no", "Off", ""])
    def test_env_flag_falsy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", value)
        assert ExecutionConfig().verify_plans is False

    def test_env_flag_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "maybe")
        with pytest.raises(ValueError, match="REPRO_VERIFY_PLANS"):
            _env_flag("REPRO_VERIFY_PLANS", False)

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert ExecutionConfig(verify_plans=False).verify_plans is False

    def test_engine_semantic_mode_catches_wrong_side_pushdown(
        self, monkeypatch
    ):
        # The full engine path: config flag → build_plan → PlanVerifier.
        monkeypatch.setattr(optimize, "_rewrite_join", broken_join_wrong_side)
        query = sel(prod(R2, S2), col_eq(1, 3), col_eq_const(0, 1))
        engine = Engine(verify_plans=True)
        with pytest.raises(PlanVerificationError) as excinfo:
            engine.session(**small_tables()).query(query).collect()
        assert excinfo.value.check == "semantics"
        assert excinfo.value.rule == "rewrite_join"

    def test_engine_verified_query_catches_broken_rule(self, monkeypatch):
        monkeypatch.setattr(
            optimize, "_rewrite_select", broken_select_prunes_satisfiable
        )
        session = Engine(verify_plans=True).session(**small_tables())
        with pytest.raises(PlanVerificationError) as excinfo:
            session.query(sel(rel("R", 2), col_eq_const(0, 1))).collect()
        assert excinfo.value.rule == "rewrite_select"

    def test_engine_without_verification_executes_broken_plan(
        self, monkeypatch
    ):
        # The same mutation slips through when verification is off —
        # the flag is what stands between the bug and the answer.
        monkeypatch.setattr(
            optimize, "_rewrite_select", broken_select_prunes_satisfiable
        )
        session = Engine(verify_plans=False).session(**small_tables())
        result = session.query(sel(rel("R", 2), col_eq_const(0, 1))).collect()
        assert len(result.rows) == 0  # silently wrong: prunes everything

    def test_session_register_rejects_non_canonical_table(self):
        canonical, raw = non_canonical_not(col_eq_const(0, 1))
        bad = CTable([CRow((Const(1), Const(2)), raw)], arity=2)
        assert not is_interned(raw)
        session = Engine(verify_plans=True).session()
        with pytest.raises(PlanVerificationError):
            session.register("T", bad)

    def test_prepare_unknown_relation_hint(self):
        session = Engine(verify_plans=True).session(**small_tables())
        with pytest.raises(QueryError, match="did you mean 'R'"):
            session.prepare(sel(rel("Rs", 2), col_eq_const(0, 1)))
