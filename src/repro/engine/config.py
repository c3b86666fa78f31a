"""The unified execution configuration.

Before the engine existed, every top-level function threaded the same
two booleans — ``simplify_conditions`` and ``optimize`` — through its
signature, and adding a knob meant touching ~90 call sites.
:class:`ExecutionConfig` centralizes them: an :class:`~repro.engine.Engine`
holds one config, sessions and prepared queries inherit it, and a call
site that needs a deviation derives a new config with
:meth:`ExecutionConfig.with_options` instead of growing a parameter.

The config is an immutable value (frozen dataclass): two engines with
equal configs behave identically, and a config can safely participate in
cache keys.

Environment overrides
---------------------

The execution knobs read their *defaults* from the environment so a
whole test run (or deployment) can be flipped without touching code —
CI uses this to run the entire tier-1 suite under several settings:

- ``REPRO_VERIFY_PLANS`` — default for ``verify_plans``
  (truthy values: ``1``, ``true``, ``yes``, ``on``);
- ``REPRO_VERIFY_MODE`` — default for ``verify_mode``
  (``syntactic`` / ``semantic``);
- ``REPRO_PROB_STRATEGY`` — default for ``prob_strategy``
  (``auto`` / ``enumerate`` / ``shannon`` / ``wmc``).  CI's wmc matrix
  entry runs the whole tier-1 suite with every probability terminal on
  the compiled d-DNNF route.
- ``REPRO_TRACE`` — default for ``trace`` (truthy values as above).
  CI's traced matrix entry runs the whole tier-1 suite with per-query
  tracing on, so the instrumented paths stay continuously exercised.
- ``REPRO_MAINTENANCE`` — default for ``maintenance``
  (``rerun`` / ``incremental``).  CI's incremental matrix entry runs
  the whole tier-1 suite with every prepared query served from a
  delta-maintained materialized view.

Explicit constructor arguments always win over the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace


def _env_choice(name: str, default: str, choices: tuple) -> str:
    value = os.environ.get(name)
    if not value:
        return default
    lowered = value.strip().lower()
    if lowered in choices:
        return lowered
    raise ValueError(
        f"environment variable {name}={value!r} is not one of {choices}"
    )


def _env_flag(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if not value:
        return default
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(
        f"environment variable {name}={value!r} is not a boolean flag"
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """Every knob of query planning and execution, in one value.

    - ``optimize`` — run the Theorem-4-sound plan rewrites of
      :mod:`repro.ctalgebra.optimize` (selection/projection pushdown,
      join reordering, SAT dead-branch pruning).  The *engine* default is
      on: plans are Mod-preserving either way, and the planner pays for
      itself once plans are cached.  (The legacy top-level functions
      keep their historical ``optimize=False`` default via explicit
      per-call overrides.)
    - ``simplify_conditions`` — run the condition simplifier after every
      lifted operator; trades execution time for smaller conditions.
    - ``executor`` — ``"vectorized"`` runs plans through the physical
      batch runtime of :mod:`repro.physical` (the default);
      ``"interpreted"`` keeps the recursive lifted-operator evaluation
      as the oracle.  Both produce structurally identical answer
      tables, so the knob is purely about speed.
    - ``plan_cache_size`` — LRU capacity of the engine's prepared-plan
      cache; ``0`` disables plan caching entirely.
    - ``result_cache_size`` — LRU capacity of the engine's answer-table
      cache (memoizes ``q̄(T)`` across datasets for repeated identical
      reads; invalidated per relation on re-``register``); ``0``
      disables result caching.
    - ``max_candidates`` — guard on the candidate pool of symbolic
      certain/possible answers (see
      :mod:`repro.worlds.symbolic_answers`).
    - ``verify_plans`` — run the static plan verifier
      (:class:`repro.ctalgebra.verify.PlanVerifier`) along the whole
      pipeline: registered tables at registration, the verbatim plan,
      every individual optimizer rewrite (violations name the rule),
      and the lowered physical tree.  Off by default (it re-walks plans
      per rewrite); CI flips it on for a full tier-1 run via
      ``REPRO_VERIFY_PLANS=1``.
    - ``verify_mode`` — depth of rewrite verification when
      ``verify_plans`` is on.  ``"syntactic"`` (the default) runs the
      structural conservation checks; ``"semantic"`` additionally
      certifies every individual rewrite by translation validation —
      symbolic execution on abstract tables plus SAT/BDD condition
      equivalence (:mod:`repro.logic.equivalence`) — closing the
      wrong-side-pushdown class of bugs the syntactic keys cannot see.
      CI's verified matrix entry runs ``REPRO_VERIFY_MODE=semantic``.
    - ``prob_strategy`` — how :meth:`repro.engine.session.Dataset.probability`
      (and everything reaching :func:`repro.logic.counting.probability`
      through the engine) counts condition probabilities.  ``"auto"``
      (the default) uses memoized Shannon expansion up to
      :data:`repro.logic.counting.PROB_VARIABLE_BUDGET` condition
      variables and the compiled d-DNNF + weighted-model-counting route
      (:mod:`repro.logic.compile` / :mod:`repro.prob.wmc`) beyond it;
      ``"shannon"``, ``"wmc"`` and ``"enumerate"`` force one route.
      All strategies return identical exact fractions, so the knob is
      purely about speed — documented and env-overridable alongside
      ``REPRO_VERIFY_MODE``.
    - ``circuit_cache_size`` — LRU capacity of the engine's compiled
      condition-circuit cache (d-DNNF circuits + memoized counts keyed
      on the interned lineage and a distribution fingerprint;
      invalidated with the result cache per relation on re-``register``);
      ``0`` disables circuit caching.
    - ``trace`` — record a hierarchical span trace (parse → plan →
      verify → lower → execute, with per-operator actuals) for every
      query executed through a prepared query; read it back via
      ``Engine.last_trace()``.  Off by default: the disabled path costs
      one integer comparison per instrumentation point.  The knob never
      changes answers, so it is excluded from result-cache keys.
    - ``maintenance`` — how a prepared query's answer is kept current as
      registered tables change through the mutation API
      (:meth:`repro.engine.session.Session.insert` /
      :meth:`~repro.engine.session.Session.delete` /
      :meth:`~repro.engine.session.Session.update`).  ``"rerun"`` (the
      default) re-executes from scratch on the next read;
      ``"incremental"`` maintains a materialized view per standing query
      by propagating signed delta batches through the physical operators
      (:mod:`repro.ivm`), and `PreparedQuery.execute()` serves the
      maintained table.  The maintained result is structurally identical
      to a full re-execution of the same plan — rows, interned condition
      objects, and order — so the knob is purely about refresh cost.
    """

    optimize: bool = True
    simplify_conditions: bool = False
    executor: str = "vectorized"
    plan_cache_size: int = 128
    result_cache_size: int = 64
    max_candidates: int = 100_000
    verify_plans: bool = field(
        default_factory=lambda: _env_flag("REPRO_VERIFY_PLANS", False)
    )
    verify_mode: str = field(
        default_factory=lambda: _env_choice(
            "REPRO_VERIFY_MODE", "syntactic", ("syntactic", "semantic")
        )
    )
    prob_strategy: str = field(
        default_factory=lambda: _env_choice(
            "REPRO_PROB_STRATEGY",
            "auto",
            ("auto", "enumerate", "shannon", "wmc"),
        )
    )
    circuit_cache_size: int = 256
    trace: bool = field(
        default_factory=lambda: _env_flag("REPRO_TRACE", False)
    )
    maintenance: str = field(
        default_factory=lambda: _env_choice(
            "REPRO_MAINTENANCE", "rerun", ("rerun", "incremental")
        )
    )

    def __post_init__(self) -> None:
        if self.executor not in ("interpreted", "vectorized"):
            raise ValueError(
                f"executor must be 'interpreted' or 'vectorized', got "
                f"{self.executor!r}"
            )
        if self.plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, got {self.plan_cache_size}"
            )
        if self.result_cache_size < 0:
            raise ValueError(
                f"result_cache_size must be >= 0, got {self.result_cache_size}"
            )
        if self.max_candidates <= 0:
            raise ValueError(
                f"max_candidates must be positive, got {self.max_candidates}"
            )
        if self.verify_mode not in ("syntactic", "semantic"):
            raise ValueError(
                f"verify_mode must be 'syntactic' or 'semantic', got "
                f"{self.verify_mode!r}"
            )
        if self.prob_strategy not in ("auto", "enumerate", "shannon", "wmc"):
            raise ValueError(
                f"prob_strategy must be 'auto', 'enumerate', 'shannon', or "
                f"'wmc', got {self.prob_strategy!r}"
            )
        if self.circuit_cache_size < 0:
            raise ValueError(
                f"circuit_cache_size must be >= 0, got "
                f"{self.circuit_cache_size}"
            )
        if self.maintenance not in ("rerun", "incremental"):
            raise ValueError(
                f"maintenance must be 'rerun' or 'incremental', got "
                f"{self.maintenance!r}"
            )

    def with_options(self, **options: object) -> "ExecutionConfig":
        """Return a copy with the given fields replaced.

        ``None`` values mean "keep the current setting", so per-call
        override parameters can be forwarded verbatim.
        """
        known = {field.name for field in fields(self)}
        unknown = set(options) - known
        if unknown:
            raise TypeError(
                f"unknown execution options {sorted(unknown)}; "
                f"known options are {sorted(known)}"
            )
        effective = {
            name: value for name, value in options.items() if value is not None
        }
        if not effective:
            return self
        return replace(self, **effective)
