"""Wall-clock time rescaled to a fixed reference speed.

On the shared 2-vCPU machine the benchmark was built on, a core switches
every 100-200 ms between two speeds, the slow one taking up to 1.8x as
long, and the share of time at each drifts over minutes, so raw wall time
of a fixed piece of Python work spreads widely between runs.  The
benchmark times a fixed pure-Python reference loop next to the work it
measures and reports wall time multiplied by the loop's nominal time over
its measured time: the time the work would have taken at the speed the
machine had while the loop ran at its nominal time.
"""

from __future__ import annotations

import time

ARITHMETIC_ITERATIONS = 5_000
CONTAINER_ITERATIONS = 750
# Mean of `reference()` on the machine the bounds were set on (2 vCPUs,
# Python 3.11).  Only ratios matter; this keeps the rescaled seconds near
# wall seconds there.
NOMINAL_S = 0.00085


def reference_loop() -> float:
    """Wall time of a fixed loop: half small-integer arithmetic, half tuple
    building and hashing into a dict and a set.  When the machine is busy
    the first half slows by about 1.3x and the second by about 1.5x to
    1.8x; slamlog's operations fall in between (1.3x for Datalog
    evaluation, 1.5x for classification and sweeps)."""
    start = time.perf_counter()
    acc = 0
    for i in range(ARITHMETIC_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    table: dict = {}
    seen = set()
    for i in range(CONTAINER_ITERATIONS):
        key = (i & 31, (i * 7) & 15)
        table[key] = table.get(key, 0) + 1
        seen.add(key[0] ^ key[1])
    return time.perf_counter() - start


def reference() -> float:
    """The fastest of three reference loops, which drops the loops that a
    preemption happened to hit."""
    return min(reference_loop() for _ in range(3))


def scale(loop_s: float) -> float:
    """Factor that turns wall seconds measured next to a reference loop of
    `loop_s` into reference seconds."""
    return NOMINAL_S / loop_s
