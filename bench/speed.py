"""Host-speed probe: puts wall times measured at different moments on one scale.

The benchmark host is a 2-vCPU KVM guest whose speed swings by 1.3 to 1.5x
in phases that last from seconds to over a minute, from causes outside this
process.  A phase can cover a whole run, so medians over passes cannot remove it: raw pass
medians of one workload spread by 10-35% between runs.

The probe times a fixed kernel before, during and after every measured pass:
Fraction sums over values looked up in random order in a dict of 30 000
Fractions (about 5 MB), which, like the program, misses the core's private
caches.  A kernel that stays in the L1 cache slowed by up to 1.6x where the
program slowed by 1.3x, and over-corrected.  A pass's reference time is its
wall time times ``REFERENCE_S / probe``, where ``probe`` is the median of the
probes taken over the pass: the seconds the pass would have taken at the
host's typical speed.  The kernel does not touch ``detcalc``, so a change to
the program cannot move it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Median probe time over the runs that tuned the benchmark on the reference
# host (Intel Xeon, 2 vCPUs under KVM, CPython 3.11.7).  It fixes the unit
# only; comparisons on one host do not depend on it.
REFERENCE_S = 0.016

TABLE = {i: Fraction(i, 7) for i in range(30_000)}
KEYS = random.Random(1).sample(sorted(TABLE), 5_000)


def probe() -> float:
    """Seconds the kernel takes now."""
    start = perf_counter()
    total = Fraction(0)
    for key in KEYS:
        total += TABLE[key]
    return perf_counter() - start
