"""Host speed reference: a fixed piece of pure-Python work, timed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, as neighbours come and go.  ``Reference.time_s`` times a
fixed walk through a 4 MB array that holds one long cycle of indices, so
each step is an interpreter dispatch plus a cache miss, the same mix as
relsim's event loop over its packets, tables and heap.  It uses no
relsim code, so a change to relsim cannot move it.  Timed slices of it,
interleaved with the program's own work, tell how fast the host ran at
that moment.  Garbage collection is off during a slice: the walk makes
no cycles, and a full collection of the program's heap would otherwise
land in some slices and not in others.
"""

from __future__ import annotations

import gc
import time
from array import array

SIZE = 1 << 20  # int32 entries: 4 MB, more than a core's private caches
STEPS = 80_000
# i -> (A * i + C) mod SIZE visits every index once per cycle (A = 1 mod 4, C odd)
A, C = 1_103_515_245 % SIZE, 12_345


class Reference:
    def __init__(self):
        self.cycle = array("i", ((A * i + C) % SIZE for i in range(SIZE)))

    def time_s(self) -> float:
        """Host time of one walk of ``STEPS`` steps."""
        cycle = self.cycle
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            i = 0
            for _ in range(STEPS):
                i = cycle[i]
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
