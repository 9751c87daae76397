"""Machine speed, so that time metrics can be stated at a reference speed.

The benchmark runs on shared machines whose speed drifts while it runs:
on a 2-core VM a fixed pure-Python loop switched between two speeds about
40% apart every few seconds, which moves every wall-clock metric with it.
So the benchmark times a fixed kernel (pure Python, like the program: small
objects, float and Fraction arithmetic, dict and tuple hashing) every
EVERY_S seconds, between requests, and scales the wall time of each
interval by REFERENCE_S over the interquartile mean of the kernel times
measured within WINDOW_S of it (one kernel time is noisy; the middle of
several is less so).  This removes about half of the drift, not all of
it.  The kernel is benchmark code, so a change to the program cannot
change the scale.  The raw wall times are printed next to the scaled ones.

A request of cli-session is a new interpreter, and its time drifts with
the cost of starting processes and mapping files, which a loop in this
process does not see (at one time the kernel ran 25% slower than its
reference and a `python -c "import slopespectra"` 50% slower).  So that
workload uses spawn_kernel, an interpreter that imports the package's
dependencies but not the package, sampled less often because each sample
costs more.  Over four minutes in which a CLI `verify` drifted between 215
and 333 ms, its ratio to this kernel varied by 3% (coefficient of
variation over 16-second medians), and by 10% against an interpreter
that imports standard modules only.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.006  # the kernel's time at the reference speed
EVERY_S = 0.2
WINDOW_S = 1.0  # kernel samples this close to an interval describe its speed
SIDE = 2  # and at least this many on each side

# the imports of src/slopespectra, fixed here: a change to them must not
# move the scale (numpy is optional, so the kernel outlives dropping it)
SPAWN_CODE = ("import argparse, concurrent.futures, dataclasses, enum, fractions, "
              "hashlib, json, pathlib, re\n"
              "try:\n    import numpy\nexcept ImportError:\n    pass\n")
SPAWN_REFERENCE_S = 0.120  # spawn_kernel's time at the reference speed
SPAWN_EVERY_S = 0.6
SPAWN_WINDOW_S = 10.0


class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def _orient(p, q, r) -> float:
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def kernel() -> int:
    """A fixed amount of interpreter work, about REFERENCE_S long."""
    pts = [_Pt(math.cos(0.1 * i), math.sin(0.1 * i)) for i in range(40)]
    hits = 0
    for i in range(40):
        for j in range(i + 1, 40):
            for k in range(j + 1, 40, 2):
                if abs(_orient(pts[i], pts[j], pts[k])) <= 1e-9:
                    hits += 1
    classes: dict = {}
    for i in range(1, 1500):
        key = (i * 7919 % 211, i % 13)
        classes.setdefault(key, []).append(Fraction(i, 97) + Fraction(1, i))
    return hits + len(classes)


def interquartile_mean(values) -> float:
    """The mean of the middle half.  Robust to spikes, like the median, but
    it moves smoothly where kernel times fall in two modes (on one VM a
    spawn took about 168, 218 or 268 ms), where the median jumps
    from one mode to the other."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def spawn_kernel() -> None:
    """A fresh interpreter that imports the package's dependencies."""
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True, timeout=60)


class Speedometer:
    """Kernel times along the run; scales an interval to reference time."""

    def __init__(self, kernel=kernel, reference_s=REFERENCE_S, every_s=EVERY_S,
                 window_s=WINDOW_S):
        self.kernel, self.reference_s = kernel, reference_s
        self.every_s, self.window_s = every_s, window_s
        self._mids: list[float] = []
        self._took: list[float] = []

    @classmethod
    def for_processes(cls) -> "Speedometer":
        return cls(spawn_kernel, SPAWN_REFERENCE_S, SPAWN_EVERY_S, SPAWN_WINDOW_S)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self._mids.append((t0 + t1) / 2)
        self._took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self._mids or time.perf_counter() - self._mids[-1] >= self.every_s:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The reference time over the interquartile mean of the kernel
        times within the window of the interval, taking at least SIDE
        samples from each side of it."""
        i = bisect.bisect_right(self._mids, start)
        j = bisect.bisect_left(self._mids, end)
        lo = min(bisect.bisect_left(self._mids, start - self.window_s), max(0, i - SIDE))
        hi = max(bisect.bisect_right(self._mids, end + self.window_s), j + SIDE)
        return self.reference_s / interquartile_mean(self._took[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
