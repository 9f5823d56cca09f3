"""Host speed, measured between benchmark steps with a fixed pure-Python loop.

On a shared host the same code runs up to 1.6 times slower for tens of
seconds at a time, and a whole run can fall in such a phase. The loop
below is not program code, so no change to the program moves its
speed. Timing it beside the workload, for a tenth of the time, gives
the host's speed over the same stretch of time. Times scaled by it are
in reference-host seconds: they stay put when the host slows down, and
move when the program does.
"""

from __future__ import annotations

import time

#: Loop iterations per second on the reference host: a 2-vCPU x86-64
#: VM with CPython 3.11, in its fast phase. Only ratios to it matter.
REFERENCE_RATE = 4.9e6

#: Calibration time after each step, as a share of the step's time.
SHARE = 0.1

_CHUNK = 2000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _chunk(table: dict, cell: _Cell) -> None:
    # Dict, attribute and integer work, like the interpreter-bound
    # program; no containers are allocated, so the collector never runs.
    for i in range(_CHUNK):
        key = i & 511
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        cell.value = (cell.value + key) & 0xFFFF


class HostSpeed:
    """Accumulates calibration samples over a run."""

    def __init__(self) -> None:
        self.iterations = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run the loop for at least ``seconds``."""
        table: dict = {}
        cell = _Cell()
        start = time.perf_counter()
        while True:
            _chunk(table, cell)
            self.iterations += _CHUNK
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                self.seconds += elapsed
                return

    @property
    def factor(self) -> float:
        """Host speed over the reference host's (above 1 when faster)."""
        return self.iterations / self.seconds / REFERENCE_RATE
