"""Machine-speed probe, so that times can be read at one reference speed.

The speed of a shared machine changes from one half-second to the next and
drifts for minutes at a time, differently on each core, and moves every
timing taken meanwhile (see README, "Noise").  The benchmark therefore times
a probe between jobs, on the core that runs them: a fixed exact Gaussian
elimination over `Fraction`s, the kind of arithmetic that dominates
tropcong.  The slowdown is the median probe time over REF_PROBE_S, and each
end-to-end time is divided by the slowdown measured around it, so it reads
as seconds on a machine at the reference speed.

The probe uses the standard library only, so no change to tropcong can move
it; a faster library shows as a smaller time at any machine speed.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# median probe() on the reference machine (2-core VM, Python 3.11.7)
REF_PROBE_S = 0.020

_ROWS, _COLS = 12, 24
_MATRIX = tuple(tuple(Fraction((5 * i + 11 * j) % 23 - 11, 1 + (i * j) % 7)
                      for j in range(_COLS)) for i in range(_ROWS))


def _eliminate() -> list:
    rows = [list(r) for r in _MATRIX]
    for c in range(_ROWS):
        p = next((r for r in range(c, _ROWS) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(_ROWS):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def probe() -> float:
    """Seconds one fixed elimination takes now (about 20 ms)."""
    enabled = gc.isenabled()
    gc.disable()  # the probe's cost must not depend on the size of the heap
    try:
        t0 = time.perf_counter()
        _eliminate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(samples) -> float:
    """How much slower than the reference the machine ran during a run."""
    return statistics.median(samples) / REF_PROBE_S
