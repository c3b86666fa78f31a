"""Incremental view maintenance: the physical operators run on deltas.

``PreparedQuery.refresh()`` makes a prepared query *standing*: its
first call builds a materialized view of the query.  The mutation API
(:meth:`Session.insert` / :meth:`~Session.delete` /
:meth:`~Session.update`) turns every data change into a signed delta
batch, and each later ``refresh()`` runs each physical operator of the
view's plan over just the rows those deltas reach, instead of
re-executing the plan.  ``execute()`` of a query that was never
refreshed keeps no view and re-executes after every change.  Lemma 1 is
what licenses this — each lifted operator composes conditions locally,
so a delta's conditions compose exactly as a full rerun would — and the
engine's contract is correspondingly strict: the maintained answer is
**structurally identical** (same rows, same interned condition objects,
same order) to a cold re-execution.

This example

1. registers two relations and prepares a standing join over them,
2. runs a mutate→read serving loop twice — ``refresh()`` (incrementally
   maintained) and ``execute()`` (fully re-executed) — timing both and
   asserting the answers are identical after every cycle,
3. shows insert-then-delete cancellation restoring the previous answer
   byte-identically, and
4. reads the ``ivm_*`` counters off ``Engine.metrics_snapshot()``.

Run with ``PYTHONPATH=src python examples/incremental_view.py``.
"""

from __future__ import annotations

import time

from repro import CTable, Engine, Var, col_eq, eq, proj, prod, rel, sel
from repro.logic.syntax import TOP

ROWS = 1200
CYCLES = 8
CHANGED = ROWS // 100  # 1% churn per cycle


def serving_tables(rows: int = ROWS):
    """Join inputs with a symbolic stripe (every fourth left row)."""
    keys = max(1, rows // 8)
    left = CTable(
        [
            (
                (index, index % keys),
                eq(Var(f"c{index % 12}"), 1) if index % 4 == 0 else TOP,
            )
            for index in range(rows)
        ],
        arity=2,
    )
    right = CTable(
        [((index % keys, index), TOP) for index in range(rows)], arity=2
    )
    return left, right


def fresh_batch(cycle: int):
    keys = max(1, ROWS // 8)
    return [
        ((ROWS * 10 + cycle * CHANGED + offset, (cycle * CHANGED + offset) % keys), TOP)
        for offset in range(CHANGED)
    ]


def identical(left: CTable, right: CTable) -> bool:
    return left.rows == right.rows and all(
        mine.condition is theirs.condition
        for mine, theirs in zip(left.rows, right.rows)
    )


def main() -> None:
    query = proj(sel(prod(rel("L", 2), rel("R", 2)), col_eq(1, 2)), (0, 3))

    # -- two engines, one mutation script ------------------------------
    incremental = Engine()
    rerun = Engine()

    views = {}
    for label, engine in (("incremental", incremental), ("rerun", rerun)):
        left, right = serving_tables()
        session = engine.session(L=left, R=right)
        views[label] = (session, session.prepare(query))
    # The first refresh() builds the standing view; execute() warms the
    # plan and result caches of the query that stays a plain read.
    views["incremental"][1].refresh()
    views["rerun"][1].execute()

    seconds = {"incremental": 0.0, "rerun": 0.0}
    for cycle in range(CYCLES):
        answers = {}
        for label, (session, prepared) in views.items():
            session.delete("L", list(session.table("L").rows[:CHANGED]))
            session.insert("L", fresh_batch(cycle))
            read = prepared.refresh if label == "incremental" else prepared.execute
            start = time.perf_counter()
            answers[label] = read()
            seconds[label] += time.perf_counter() - start
        assert identical(answers["incremental"], answers["rerun"])

    print(
        f"{CYCLES} cycles of {CHANGED}-row churn over {ROWS} rows/side "
        f"({len(answers['incremental'])} answer rows, identical each cycle)"
    )
    print(f"  full re-execution : {seconds['rerun'] * 1000:8.1f} ms")
    print(f"  delta refresh     : {seconds['incremental'] * 1000:8.1f} ms")
    print(f"  speedup           : {seconds['rerun'] / seconds['incremental']:8.1f}x")

    # -- cancellation: inserts annihilated by deletes ------------------
    session, prepared = views["incremental"]
    before = prepared.refresh()
    doomed = [((ROWS * 100 + offset, 0), TOP) for offset in range(5)]
    session.insert("L", doomed)
    session.delete("L", doomed)
    after = prepared.refresh()
    assert identical(before, after)
    print("\ninsert-then-delete of 5 rows: answer byte-identical", )

    # -- the ivm_* series off one snapshot -----------------------------
    counters = incremental.metrics_snapshot()["engine"]["counters"]
    print("\nivm counters:")
    for name in ("ivm_mutations_total", "ivm_delta_rows_total", "ivm_refresh_total"):
        for labels, value in counters.get(name, {}).items():
            print(f"  {name}{{{labels}}} = {value:.0f}")


if __name__ == "__main__":
    main()
