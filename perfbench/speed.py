"""Host-speed probe: times measured on a host whose speed drifts, rescaled
to a fixed reference speed.

The machines this benchmark runs on change speed by up to 2x over seconds to
minutes, with no steal time and no load of their own (see NOTES.md).  A
fixed integer loop, timed in the same thread every SAMPLE_EVERY_S while the
work runs, measures the speed the work saw.  Each stretch of work between two
samples is rescaled by REFERENCE_S over the local median of the loop's time,
which turns wall seconds into seconds at the reference speed: the wall time
on a host where the loop takes REFERENCE_S.  The loop's own time is left out.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The loop's time on the machine the benchmark was built on (2 vCPUs, Intel
# Xeon, Python 3.11.7) in an ordinary phase; it fixes the unit, not a gate.
REFERENCE_S = 0.00035
SAMPLE_EVERY_S = 0.05
_WINDOW = 2  # samples on each side in the local median

_TABLE = list(range(1, 257))


def reference_loop() -> float:
    """Seconds for a fixed pure-integer loop; it allocates no tracked objects,
    so the garbage collector never runs inside it."""
    tab, x = _TABLE, 1
    t0 = perf_counter()
    for i in range(2000):
        x = (x * 1103515245 + tab[x & 255] + i) & 0xFFFFFFF
    return perf_counter() - t0


def _median(values: list) -> float:
    # not statistics.median: set-up probes import this module, and importing
    # statistics would add to the set-up time they measure
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def scale(seconds: float, refs: list) -> float:
    """Seconds at the reference speed of work that ran while the reference
    loop took the times `refs`."""
    return seconds * REFERENCE_S / _median(refs)


def rescale(stretches: list, refs: list) -> float:
    """Seconds at the reference speed of work stretches, where stretch j ran
    between samples j and j + 1 of `refs`."""
    return sum(scale(length, refs[max(0, j + 1 - _WINDOW): j + 1 + _WINDOW])
               for j, length in enumerate(stretches))


class SpeedProbe:
    """Samples the reference loop from a SIGALRM timer around a block of work.

    After the block, `wall_s` is its wall time without the samples and
    `ref_s` the same work in seconds at the reference speed.  `on_sample`,
    if given, is called with each sample's start and end.
    """

    def __init__(self, on_sample=None):
        self._on_sample = on_sample

    def __enter__(self):
        self._marks = []  # (sample start, sample end, loop seconds)
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self):
        t0 = perf_counter()
        loop = reference_loop()
        t1 = perf_counter()
        self._marks.append((t0, t1, loop))
        if self._on_sample:
            self._on_sample(t0, t1)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        marks = self._marks
        stretches = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
        self.wall_s = sum(stretches)
        self.ref_s = rescale(stretches, [m[2] for m in marks])
        self.samples = len(marks)
        return False
