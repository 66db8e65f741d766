"""Host-speed probe for the shared sandbox.

The benchmark's host is a share of a machine that other tenants load: each
vCPU flips between a fast and a slow state for seconds to minutes at a
time, and in the slow one covol's ops take 1.3-1.6x as long, with CPU
time equal to wall time, so neither longer runs nor CPU time remove it.  `probe()` times a fixed kernel, written here and calling nothing of
covol, right around every timed op; `scale(before, after)` turns the two
probe times around an op into the factor that maps its wall time to the
time it takes on a host where the kernel takes `REFERENCE_S`.  A change to
covol cannot move the kernel, so the factor cancels host load and nothing
else.

The kernel is the shape of covol's own hot loop: Gauss-Jordan elimination
of sparse dict rows over Fraction, on a fixed matrix.
"""

import gc
import random
import time
from fractions import Fraction

# Kernel time on the reference host, 2 vCPUs of a shared machine with
# Python 3.11.7, in its fast state.  A normalised time equals the wall
# time on that host in that state.
REFERENCE_S = 0.0050


def _matrix(n=18, width=24, nonzeros=6, seed=3):
    rng = random.Random(seed)
    return [{j: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
             for j in rng.sample(range(width), nonzeros)}
            for _ in range(n)]


_ROWS = _matrix()


def kernel():
    """Reduced row echelon form of the fixed matrix; returns its rank."""
    pivots = {}
    for source in _ROWS:
        row = dict(source)
        for p, prow in pivots.items():
            c = row.get(p)
            if c:
                for k, v in prow.items():
                    nv = row.get(k, 0) - c * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        if not row:
            continue
        p = min(row)
        c = row[p]
        row = {k: v / c for k, v in row.items()}
        for prow in pivots.values():
            c = prow.get(p)
            if c:
                for k, v in row.items():
                    nv = prow.get(k, 0) - c * v
                    if nv:
                        prow[k] = nv
                    else:
                        prow.pop(k, None)
        pivots[p] = row
    return len(pivots)


def probe(repeats=1):
    """Best of `repeats` kernel times, in seconds.  The collector is off
    while the kernel runs: the kernel makes no cycles, and a collection
    would cost in proportion to the heap that covol left, not to the host."""
    clock = time.perf_counter
    best = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = clock()
            kernel()
            dt = clock() - t0
            if best is None or dt < best:
                best = dt
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before, after):
    """Factor from wall time to reference-host time for a span bracketed
    by probes `before` and `after`."""
    return 2.0 * REFERENCE_S / (before + after)
