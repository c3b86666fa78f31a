"""The physical executor: lowered plans, vectorized batches, result cache.

Run with ``PYTHONPATH=src python examples/physical_explain.py``.

Theorem 4 fixes *what* a query on a c-table must produce; the engine is
free to choose *how*.  Below the logical plan (PR 2) and the prepared
query (PR 3) now sits a physical runtime: ``lower()`` turns the
optimized plan into a tree of vectorized batch operators — hash joins
that build on their right input (a scanned one's cached column index is
the hash table), filters that instantiate their predicate once per
distinct constant signature —
and the engine's result cache serves repeated identical reads without
executing anything at all.
The interpreted lifted operators remain available as the oracle; the two
executors produce *structurally identical* answer tables.
"""

import time

from repro import CTable, Engine, Var, col_eq, col_eq_const, conj, eq, ne
from repro.algebra import proj, prod, rel, sel


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A session over two mid-sized c-tables and a join query.
    # ------------------------------------------------------------------
    x, y = Var("x"), Var("y")
    suppliers = CTable(
        [((i % 13, i % 7), ne(x, i % 3)) for i in range(400)]
        + [((x, 2), eq(x, 1))],
        arity=2,
    )
    shipments = CTable(
        [((i % 7, i % 11), eq(y, i % 4)) for i in range(80)], arity=2
    )
    query = proj(
        sel(
            prod(rel("Sup", 2), rel("Ship", 2)),
            conj(col_eq(1, 2), col_eq_const(0, 3)),
        ),
        [0, 3],
    )

    engine = Engine()  # executor="vectorized", result cache on
    session = engine.session(Sup=suppliers, Ship=shipments)
    dataset = session.query(query)

    # ------------------------------------------------------------------
    # 2. The logical plan — and the physical tree lowered from it.
    # ------------------------------------------------------------------
    print("Logical plan (rule-optimized, with estimates):")
    print(dataset.explain())
    print()
    print("Physical plan (explain(physical=True)):")
    print(dataset.explain(physical=True))
    print()

    # ------------------------------------------------------------------
    # 3. Interpreted oracle vs vectorized runtime: identical answers.
    # ------------------------------------------------------------------
    interpreted = Engine(executor="interpreted", result_cache_size=0)
    prepared_interp = interpreted.session(
        Sup=suppliers, Ship=shipments
    ).prepare(query)
    vectorized = Engine(executor="vectorized", result_cache_size=0)
    prepared_vect = vectorized.session(
        Sup=suppliers, Ship=shipments
    ).prepare(query)

    start = time.perf_counter()
    for _ in range(20):
        answer_interp = prepared_interp.execute()
    interp_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(20):
        answer_vect = prepared_vect.execute()
    vect_seconds = time.perf_counter() - start
    assert answer_vect == answer_interp  # same rows, same conditions
    print(
        f"interpreted: {interp_seconds * 1000:7.1f}ms for 20 runs, "
        f"{len(answer_interp)} answer rows"
    )
    print(
        f"vectorized:  {vect_seconds * 1000:7.1f}ms for 20 runs  "
        f"({interp_seconds / vect_seconds:.1f}x) — structurally identical"
    )
    print()

    # ------------------------------------------------------------------
    # 4. The result cache: a repeated identical read never executes.
    # ------------------------------------------------------------------
    first = session.query(query).collect()
    again = session.query(query).collect()  # a fresh Dataset, same read
    print(
        f"repeated read served from the result cache: {again is first} "
        f"({engine.result_cache_stats()})"
    )
    session.register("Ship", shipments)  # re-register → scoped eviction
    fresh = session.query(query).collect()
    print(f"after re-register the read re-executes: {fresh is not first}")


if __name__ == "__main__":
    main()
