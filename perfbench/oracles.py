"""Independent answer checks and answer digests.

Nothing here calls the probability code of ``repro.logic`` or
``repro.prob``: the lineage probabilities of the ``tuple_probability``
workload are recomputed exactly, in ``Fraction`` arithmetic, by a
transfer-matrix pass over the lineage's graph.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Iterable, List, Sequence


def _no_adjacent(mask: int) -> bool:
    return mask & (mask >> 1) == 0


def _row_weight(mask: int, weights: Sequence[Fraction]) -> Fraction:
    result = Fraction(1)
    for column, p in enumerate(weights):
        result *= p if mask >> column & 1 else 1 - p
    return result


def grid_probability(rows: int, columns: int, weights: Sequence[Fraction]) -> Fraction:
    """``P[some edge of the rows × columns grid has both ends true]``.

    Vertex ``r * columns + c`` is true with probability
    ``weights[r * columns + c]``, independently.  The complement — no
    edge with both ends true, i.e. the true vertices form an independent
    set — is summed row by row over the ``2^columns`` row assignments
    (a chain is the one-column grid).
    """
    states = [mask for mask in range(1 << columns) if _no_adjacent(mask)]
    layer = {
        mask: _row_weight(mask, weights[:columns]) for mask in states
    }
    for row in range(1, rows):
        row_weights = weights[row * columns:(row + 1) * columns]
        own = {mask: _row_weight(mask, row_weights) for mask in states}
        layer = {
            mask: own[mask] * sum(
                (weight for prev, weight in layer.items() if prev & mask == 0),
                Fraction(0),
            )
            for mask in states
        }
    return 1 - sum(layer.values(), Fraction(0))


def ring_probability(weights: Sequence[Fraction]) -> Fraction:
    """``P[some edge of the cycle over len(weights) vertices has both ends true]``."""
    if len(weights) < 3:
        raise ValueError("a ring needs at least three vertices")
    independent = Fraction(0)
    for first in (0, 1):
        # last[b]: weight of the path assignments whose last vertex is b.
        last = {first: weights[0] if first else 1 - weights[0], 1 - first: Fraction(0)}
        for p in weights[1:]:
            last = {0: (last[0] + last[1]) * (1 - p), 1: last[0] * p}
        # The closing edge forbids a true last vertex next to a true first.
        independent += last[0] + (0 if first else last[1])
    return 1 - independent


def structurally_identical(reference, candidate) -> bool:
    """Same rows in the same order, with the same interned conditions."""
    if len(reference.rows) != len(candidate.rows):
        return False
    return all(
        expected.values == actual.values and expected.condition is actual.condition
        for expected, actual in zip(reference.rows, candidate.rows)
    )


def table_digest(table) -> str:
    """A digest of a c-table's rows in order, stable across processes."""
    reprs: dict = {}
    digest = hashlib.sha1()
    for row in table.rows:
        condition = row.condition
        text = reprs.get(id(condition))
        if text is None:
            text = reprs[id(condition)] = repr(condition)
        digest.update(f"{row.values!r}|{text}\n".encode())
    return digest.hexdigest()[:16]


def values_digest(values: Iterable) -> str:
    """A digest of plain values (instances, fractions, row counts)."""
    return hashlib.sha1(repr(sorted(map(repr, values))).encode()).hexdigest()[:16]


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha1("\n".join(digests).encode()).hexdigest()[:16]
