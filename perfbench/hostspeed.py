"""Host speed, measured alongside the program, so that times can be adjusted for it.

On a shared host the same interpreter runs the same code up to 40% faster or
slower from one minute to the next, and at times 1.7 times faster, with no
steal time to show for it (it comes from the other tenants of the physical
cores).  That drift is as large as the bound the benchmark puts on its times.  So between cases a run times a
fixed chunk of work that uses the standard library only -- never `eqposet`,
so no change to the program can move it -- and divides its times by

    factor = median chunk time in this run / CHUNK_S

The result is in *reference seconds*: seconds on a host as fast as the one on
which the chunk takes CHUNK_S.  Raw wall times are printed next to them.  The
correction is partial, because the program does not speed up and slow down
exactly as the chunk does: over ten seeds on a shared 2-core VM it cut the
spread of a time between runs from 0.04-0.20 of its median to 0.03-0.15.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

CHUNK_TERMS = 600   # terms of the harmonic sum one chunk adds up, exactly
CHUNK_S = 2.5e-3    # the chunk's time at the nominal host speed
EVERY_S = 0.2       # a chunk runs between cases at least this often


def chunk() -> Fraction:
    s = Fraction(0)
    for i in range(1, CHUNK_TERMS + 1):
        s += Fraction(1, i)
    return s


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample_if_due(self) -> None:
        """Time one chunk, unless one ended less than EVERY_S ago."""
        if time.perf_counter() - self._last < EVERY_S:
            return
        t0 = time.perf_counter()
        chunk()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def factor(self) -> float:
        """How many times slower than nominal the host ran during this run."""
        if not self.samples:
            self.sample_if_due()
        return statistics.median(self.samples) / CHUNK_S
