"""The host's speed, sampled by a fixed kernel between pieces of work.

The host the benchmark was built on shares its cores with other tenants.
It runs the same code up to ~1.7x slower in some spells than in others,
spells last seconds, and the share of slow time changes over minutes, so
a 30-s window can fall mostly in either.  CPU time inflates with it too.
So the benchmark runs :func:`tick`, a fixed kernel of interpreted loops,
small NumPy operations and method calls on small objects, next to the
work it times: after every training round, before and after every
cache-served pass, and after every set-up probe.  A tick's time, over :data:`REFERENCE_TICK_S`, is the host's
slowdown at that moment, and a timing divided by the slowdown of the
ticks taken with it is what it would have read on a host running as
fast as the reference.  Ticks are timed apart from the work and taken
off it.

The kernel is the benchmark's own, touches ~25 KB, and is timed with its
caches warm, so a change to the program does not change what a tick costs.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: Host seconds of one tick on the host the benchmark was built on, in
#: a typical spell.  It only sets the scale: adjusted timings read as raw
#: ones would while a tick takes this long.
REFERENCE_TICK_S = 3.5e-4

_MATRIX = np.random.default_rng(0).random((32, 32))


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def scaled(self, x: int) -> int:
        return self.a * x + self.b


def _kernel() -> None:
    total = 0
    for i in range(1500):
        total += i * i
    for _ in range(10):
        np.tanh(_MATRIX @ _MATRIX) + _MATRIX
    table = {}
    for i in range(300):
        point = _Point(i, i + 1)
        table[i % 37] = point.scaled(i)
        [point.a, point.b, str(i)]
    sorted(table.items())


def tick() -> float:
    """Run the fixed kernel twice; return the host seconds of the second
    run.  The first brings the kernel's code and data back into the caches
    the program's work evicted, so what is timed does not depend on how
    much the program touched before it."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def slowdown(ticks: Sequence[float]) -> float:
    """How many times slower than the reference the host ran while
    ``ticks`` were taken."""
    return statistics.fmean(ticks) / REFERENCE_TICK_S
