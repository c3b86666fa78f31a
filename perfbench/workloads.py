"""The three workloads: inputs made from a seed, ops, and answer checks.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  A workload object makes its inputs and
its op sequence from the seed alone (``setup`` then hands the inputs to
the engine, which is the timed set-up), runs one op at a time, and
checks an op's answer off the clock against an oracle that does not
share the code path being timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import CTable, Engine
from repro.ctalgebra.plan import execute_plan
from repro.engine.config import ExecutionConfig
from repro.logic.atoms import Var, boolvar, eq
from repro.logic.evaluation import clear_evaluation_caches
from repro.logic.syntax import TOP, conj, disj
from repro.prob.pctable import PCTable

import oracles

#: Every execution knob, passed explicitly so that no ``REPRO_*``
#: environment default can change the path being timed.  Knobs the
#: installed ``ExecutionConfig`` no longer has are skipped; knobs it has
#: and this table lacks are reported as unpinned.
PINNED: Dict[str, Any] = {
    "optimize": True,
    "simplify_conditions": False,
    "executor": "vectorized",
    "num_workers": 4,
    "morsel_size": 256,
    "plan_cache_size": 128,
    "result_cache_size": 64,
    "max_candidates": 100_000,
    "verify_plans": False,
    "verify_mode": "syntactic",
    "prob_strategy": "auto",
    "circuit_cache_size": 256,
    "trace": False,
    "maintenance": "rerun",
}


def engine_config(**overrides: Any) -> ExecutionConfig:
    known = {field.name for field in fields(ExecutionConfig)}
    knobs = {
        name: value
        for name, value in {**PINNED, **overrides}.items()
        if name in known
    }
    config = ExecutionConfig(**knobs)
    if config.trace:
        raise ValueError("the engine tracer changes the maintained-read path")
    return config


def describe_config(config: ExecutionConfig) -> Dict[str, Any]:
    resolved = {field.name: getattr(config, field.name) for field in fields(config)}
    return {
        "resolved": resolved,
        "unpinned": sorted(set(resolved) - set(PINNED)),
    }


@dataclass
class Op:
    index: int
    kind: str  # "read" or "write"
    template: str
    payload: Any
    check: bool  # sampled for the off-clock answer check


class Workload:
    """Defaults of the workload interface."""

    def prepare(self, state: Dict[str, Any], op: Op) -> None:
        """Off-clock work before an op starts."""

    def final_check(self, state: Dict[str, Any]) -> Optional[bool]:
        """Off-clock check of the state the run ended in (None: no check)."""
        return None


# ----------------------------------------------------------------------
# Shared relational inputs
# ----------------------------------------------------------------------

ROWS = 2400
LEFT_KEYS = 301  # odd, so every key mixes conditioned and plain rows
JOIN_KEYS = 300  # each join key has ROWS / JOIN_KEYS rows in R


def _condition(index: int):
    """Every fourth L row carries a condition over one of 12 variables."""
    return eq(Var(f"c{index % 12}"), 1) if index % 4 == 0 else TOP


def relational_rows(rng: random.Random) -> Tuple[list, list]:
    """L(key, join) and R(join, payload); string keys, shuffled order."""
    left = [
        ((f"k{i % LEFT_KEYS}", f"j{i % JOIN_KEYS}"), _condition(i))
        for i in range(ROWS)
    ]
    right = [((f"j{i % JOIN_KEYS}", f"r{i}"), TOP) for i in range(ROWS)]
    rng.shuffle(left)
    rng.shuffle(right)
    return left, right


class _Deck:
    """Draws constants without replacement, reshuffling when empty."""

    def __init__(self, rng: random.Random, values: range) -> None:
        self._rng = rng
        self._values = list(values)
        self._left: List[int] = []

    def draw(self) -> int:
        if not self._left:
            self._left = list(self._values)
            self._rng.shuffle(self._left)
        return self._left.pop()


# ----------------------------------------------------------------------
# adhoc_query
# ----------------------------------------------------------------------

class AdhocQuery(Workload):
    """Ad-hoc relational reads over two c-tables.

    Ops come in shuffled blocks of 20 with fixed shares, so no seed
    moves a template across the median or the 90th percentile.  From the
    cheapest up: three repeats of a recent text (15% of ops), three
    ``possible()`` reads on a selection, nine point joins (the median
    falls in the middle of them), four ``certain()`` reads on a point
    join (the 90th percentile falls among them), and one wide join,
    which takes about half of the run's time.
    """

    name = "adhoc_query"
    maintenance = "rerun"
    BLOCK = (
        ("point",) * 9 + ("possible",) * 3 + ("certain",) * 4 + ("wide",)
        + ("repeat_point", "repeat_wide", "repeat_possible")
    )
    TEXTS = {
        "point": "pi[1,4](sigma[1='k{}' & 2=3](L x R))",
        "certain": "pi[1,4](sigma[1='k{}' & 2=3](L x R))",
        "wide": "pi[1,4](sigma[2=3 & 1!='k{}'](L x R))",
        "possible": "sigma[1='k{}'](L)",
    }
    CHECK_EVERY = 16  # on average, one op in sixteen is checked

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.left, self.right = relational_rows(random.Random(seed))
        self.config = engine_config(maintenance=self.maintenance)

    def setup(self) -> Dict[str, Any]:
        engine = Engine(self.config)
        left = CTable(self.left, arity=2)
        right = CTable(self.right, arity=2)
        session = engine.session(L=left, R=right)
        return {"engine": engine, "session": session, "oracle": None}

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        decks = {
            # Point and certain reads draw from disjoint keys, so one never
            # hits the other's cached answer.
            "point": _Deck(rng, range(0, LEFT_KEYS // 2)),
            "certain": _Deck(rng, range(LEFT_KEYS // 2, LEFT_KEYS)),
            "wide": _Deck(rng, range(LEFT_KEYS)),
            "possible": _Deck(rng, range(LEFT_KEYS)),
        }
        recent: Dict[str, List[str]] = {name: [] for name in decks}
        index = 0
        while True:
            block = list(self.BLOCK)
            rng.shuffle(block)
            for template in block:
                base = template.replace("repeat_", "")
                if template.startswith("repeat_") and recent[base]:
                    # A recent text, so it is still in the result cache.
                    text = rng.choice(recent[base][-3:])
                else:
                    text = self.TEXTS[base].format(decks[base].draw())
                    recent[base].append(text)
                check = rng.randrange(self.CHECK_EVERY) == 0
                yield Op(index, "read", base, text, check)
                index += 1

    @staticmethod
    def _answer(session, op: Op):
        dataset = session.query(op.payload)
        if op.template == "certain":
            return dataset.certain()
        if op.template == "possible":
            return dataset.possible()
        return dataset.collect()

    def run(self, state: Dict[str, Any], op: Op):
        return self._answer(state["session"], op)

    def check(self, state: Dict[str, Any], op: Op, answer) -> bool:
        """Compare against the interpreted executor (the lifted-operator
        oracle), with no plan or result cache."""
        if state["oracle"] is None:
            session = state["session"]
            oracle_engine = Engine(engine_config(
                maintenance=self.maintenance,
                executor="interpreted",
                plan_cache_size=0,
                result_cache_size=0,
            ))
            state["oracle"] = oracle_engine.session(
                L=session.table("L"), R=session.table("R")
            )
        expected = self._answer(state["oracle"], op)
        if op.template in ("certain", "possible"):
            return expected == answer
        return oracles.structurally_identical(expected, answer)

    def digest(self, op: Op, answer) -> str:
        if op.template in ("certain", "possible"):
            return oracles.values_digest(answer)
        return oracles.table_digest(answer)


# ----------------------------------------------------------------------
# tuple_probability
# ----------------------------------------------------------------------

def _edges(kind: str, size: int) -> Tuple[int, List[Tuple[int, int]]]:
    """(vertex count, edges) of a chain, ring, or size × size grid."""
    if kind == "chain":
        return size, [(i, i + 1) for i in range(size - 1)]
    if kind == "ring":
        return size, [(i, (i + 1) % size) for i in range(size)]
    edges = []
    for row in range(size):
        for column in range(size):
            vertex = row * size + column
            if column + 1 < size:
                edges.append((vertex, vertex + 1))
            if row + 1 < size:
                edges.append((vertex, vertex + size))
    return size * size, edges


def lineage_probability(kind: str, size: int, weights: List[Fraction]) -> Fraction:
    """The transfer-matrix oracle for one lineage."""
    if kind == "chain":
        return oracles.grid_probability(size, 1, weights)
    if kind == "ring":
        return oracles.ring_probability(weights)
    return oracles.grid_probability(size, size, weights)


class TupleProbability(Workload):
    """Theorem-9 tuple probabilities over one pc-table of tagged tuples.

    Tag ``g<t>`` carries the lineage ``OR (x_u AND x_v)`` over the edges
    of its own chain, ring, or grid, on variables no other tag uses, so
    every op is cold for the circuit cache and the evaluation memo.  A
    block of 12 shapes is shuffled per seed: four of at most 8 variables
    (the Shannon route under ``auto``), five of 16-44 variables, and three
    of 25-100 variables.  Within each group the shapes cost about the
    same, so the median and the 90th percentile each fall inside a group.
    Ops take the tags in order.  A run that uses up the pool clears every
    engine cache and the evaluation memo, off the clock, and starts over,
    so a repeated lineage is as cold as a fresh one.
    """

    name = "tuple_probability"
    maintenance = "rerun"
    BLOCK = (
        ("chain", 6), ("ring", 8), ("grid", 2), ("chain", 8),
        ("chain", 40), ("ring", 30), ("grid", 4), ("chain", 44), ("ring", 34),
        ("chain", 100), ("ring", 70), ("grid", 5),
    )
    BLOCKS = 6
    WEIGHTS = tuple(
        Fraction(n, d) for n, d in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4))
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.tags: List[Tuple[str, int, List[Fraction]]] = []
        self.rows = []
        self.distributions: Dict[str, Dict[bool, Fraction]] = {}
        for _ in range(self.BLOCKS):
            block = list(self.BLOCK)
            rng.shuffle(block)
            for kind, size in block:
                tag = len(self.tags)
                vertices, edges = _edges(kind, size)
                weights = [rng.choice(self.WEIGHTS) for _ in range(vertices)]
                names = [f"x{tag}_{vertex}" for vertex in range(vertices)]
                for name, weight in zip(names, weights):
                    self.distributions[name] = {True: weight, False: 1 - weight}
                flags = [boolvar(name) for name in names]
                lineage = disj(*(conj(flags[u], flags[v]) for u, v in edges))
                self.rows.append(((f"g{tag}",), lineage))
                self.tags.append((kind, size, weights))
        self.config = engine_config(maintenance=self.maintenance)

    def setup(self) -> Dict[str, Any]:
        engine = Engine(self.config)
        session = engine.session(P=PCTable(self.rows, self.distributions, arity=1))
        return {"engine": engine, "session": session}

    def ops(self) -> Iterator[Op]:
        index = 0
        while True:
            for tag, (kind, size, _) in enumerate(self.tags):
                yield Op(index, "read", f"{kind}{size}", tag, True)
                index += 1

    def prepare(self, state: Dict[str, Any], op: Op) -> None:
        if op.payload == 0 and op.index > 0:
            engine = state["engine"]
            engine.clear_plan_cache()
            engine.clear_result_cache()
            engine.clear_circuit_cache()
            clear_evaluation_caches()

    def run(self, state: Dict[str, Any], op: Op):
        tag = op.payload
        return state["session"].query(f"sigma[1='g{tag}'](P)").probability((f"g{tag}",))

    def check(self, state: Dict[str, Any], op: Op, answer) -> bool:
        kind, size, weights = self.tags[op.payload]
        return lineage_probability(kind, size, weights) == answer

    def digest(self, op: Op, answer) -> str:
        return str(answer)


# ----------------------------------------------------------------------
# churn_refresh
# ----------------------------------------------------------------------

class ChurnRefresh(Workload):
    """Writes beside maintained reads under ``maintenance="incremental"``.

    Three standing views over L and R are prepared and built in set-up.
    Each cycle is a write op (delete the oldest 1% of L and insert as
    many fresh rows) followed by a read op (``refresh()`` of every view).
    """

    name = "churn_refresh"
    maintenance = "incremental"
    VIEWS = (
        "pi[1,4](sigma[2=3](L x R))",  # join-project
        "pi[2](sigma[1!='k7'](L))",  # selection-project
        "pi[2](L) - pi[1](R)",  # difference
    )
    CHANGED = ROWS // 100
    CHECK_EVERY = 64  # on average, one cycle in 64 is checked

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.left, self.right = relational_rows(random.Random(seed))
        self.config = engine_config(maintenance=self.maintenance)

    def setup(self) -> Dict[str, Any]:
        engine = Engine(self.config)
        session = engine.session(
            L=CTable(self.left, arity=2), R=CTable(self.right, arity=2)
        )
        views = [session.prepare(text) for text in self.VIEWS]
        for view in views:
            view.refresh()
        # The plan each view was built on; maintenance never re-plans it.
        plans = [view.plan() for view in views]
        return {"engine": engine, "session": session, "views": views, "plans": plans}

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        fresh = ROWS
        cycle = 0
        while True:
            rows = []
            for _ in range(self.CHANGED):
                # About one fresh join value in eleven has no R partner,
                # so the difference view gains and loses rows.
                values = (
                    f"k{rng.randrange(LEFT_KEYS)}",
                    f"j{rng.randrange(JOIN_KEYS + JOIN_KEYS // 10)}",
                )
                rows.append((values, _condition(fresh)))
                fresh += 1
            check = rng.randrange(self.CHECK_EVERY) == 0
            yield Op(2 * cycle, "write", "delete_insert", rows, False)
            yield Op(2 * cycle + 1, "read", "refresh", None, check)
            cycle += 1

    def prepare(self, state: Dict[str, Any], op: Op) -> None:
        """Pick the oldest rows to delete (off the clock)."""
        if op.kind == "write":
            state["victims"] = list(state["session"].table("L").rows[: self.CHANGED])

    def run(self, state: Dict[str, Any], op: Op):
        session = state["session"]
        if op.kind == "write":
            session.delete("L", state["victims"])
            session.insert("L", op.payload)
            return None
        return [view.refresh() for view in state["views"]]

    def _matches_rerun(self, state: Dict[str, Any], answers) -> bool:
        """Maintained ≡ rerun: the frozen plans re-executed by the
        interpreted lifted operators on the current tables."""
        session = state["session"]
        tables = {"L": session.table("L"), "R": session.table("R")}
        return all(
            oracles.structurally_identical(execute_plan(plan, tables), answer)
            for plan, answer in zip(state["plans"], answers)
        )

    def check(self, state: Dict[str, Any], op: Op, answer) -> bool:
        return self._matches_rerun(state, answer)

    def final_check(self, state: Dict[str, Any]) -> bool:
        return self._matches_rerun(
            state, [view.refresh() for view in state["views"]]
        )

    def digest(self, op: Op, answer) -> Optional[str]:
        if answer is None:
            return None
        if op.check:
            return oracles.combined_digest([oracles.table_digest(t) for t in answer])
        return ",".join(str(len(table.rows)) for table in answer)


WORKLOADS = {
    workload.name: workload
    for workload in (AdhocQuery, TupleProbability, ChurnRefresh)
}
