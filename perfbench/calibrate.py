"""A fixed reference task that gauges how fast the host runs right now.

The hosts this benchmark runs on share their cores, and their speed
swings by up to 2x, within seconds and from one minute to the next; the
program's op times follow the swing.  ``reference_s`` times one run of a
fixed pure-Python task that does what the engine does most (builds
dicts keyed by tuples of strings, sorts, and adds fractions).  A phase
takes a sample before every set-up and every op, off the clock, and the
time of the reference task on a steady host, ``NOMINAL_S``, turns a
measured time into the time it would have taken at that nominal speed.
The task never changes with the program, so a faster program still
reads faster.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Tuple

#: Seconds one ``reference_s`` task takes at the nominal host speed.
#: Only the scale of the reported figures depends on it.
NOMINAL_S = 0.001

_KEYS: List[Tuple[str, str]] = [(f"k{i % 97}", f"j{i}") for i in range(1500)]
_FRACTIONS: List[Fraction] = [Fraction(1, 3 + i % 7) for i in range(60)]


def _task() -> int:
    table: Dict[Tuple[str, str], List[int]] = {}
    for index, key in enumerate(_KEYS):
        table.setdefault(key, []).append(index)
    ordered = sorted(table, key=lambda key: (key[1], key[0]))
    total = Fraction(0)
    for fraction in _FRACTIONS:
        total = total * fraction + (1 - fraction)
    return len(ordered) + total.denominator % 7


def reference_s() -> float:
    """Wall seconds of one reference task.  The collector is held off so
    that a collection of the program's heap never lands in the sample."""
    gc.disable()
    try:
        started = perf_counter()
        _task()
        return perf_counter() - started
    finally:
        gc.enable()
