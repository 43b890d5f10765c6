"""Machine-speed calibration: a fixed reference loop timed next to the work.

On a shared VM the CPU's speed is not constant.  On the 2-vCPU VM the
bounds were set on, a fixed pure-Python loop ran 1.7x slower in some
phases than in others; a phase lasted from one second to over half a
minute, and the two vCPUs changed speed independently.  Wall times
taken in one run then disagree with those of the next by more than any
regression worth catching.

Each timed piece of work is therefore bracketed by probes: runs of a
fixed reference loop, in the same process, that shares no code with
the program.  The work's time is reported *at reference speed*::

    reported = elapsed * REFERENCE_S / probe time around the work

which is what the work would take on a machine that runs the reference
loop in ``REFERENCE_S``.  A program change does not move the probes, so
a faster program still reports less time; a slow phase of the machine
moves the probes and the work together and cancels out.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence, Tuple

perf_counter = time.perf_counter

#: Seconds one reference loop takes at reference speed: about its median
#: on the VM above (CPython 3.11.7).  Only ratios matter; a constant
#: keeps reported values near wall times on that machine.
REFERENCE_S = 350e-6
_STEPS = 1500


def _reference(steps: int = _STEPS) -> int:
    table = {}
    out = []
    for i in range(steps):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        out.append(key)
    return len(out)


def probe() -> float:
    """Seconds of one reference loop: the faster of two runs, with the
    collector off so a collection of the program's heap never lands in
    it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            _reference()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def warm() -> None:
    """Run the probe until its bytecode and allocator are warm."""
    for _ in range(20):
        probe()


def scale(before: float, after: float) -> float:
    """The factor that turns a wall time bracketed by the probes
    *before* and *after* into a time at reference speed."""
    return 2 * REFERENCE_S / (before + after)


def scale_at(probes: Sequence[Tuple[float, float]], moment: float, reach: float = 0.5) -> float:
    """The factor at *moment* from timestamped ``(when, seconds)``
    probes: the median of those within *reach* seconds, else the
    nearest one."""
    near = [seconds for when, seconds in probes if abs(when - moment) <= reach]
    if not near:
        near = [min(probes, key=lambda p: abs(p[0] - moment))[1]]
    return REFERENCE_S / statistics.median(near)
