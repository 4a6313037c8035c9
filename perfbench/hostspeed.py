"""Host speed, measured beside every timed phase of the benchmark.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes while a run's CPU time stays equal to its wall
time: the neighbours slow the processor down, they do not take it away.
A fixed calibration task, interpreter work plus numpy work over a
working set larger than the core's private caches (the mix the program
itself runs), is timed before a timed phase, after it, and at points
inside it at least every ``SEGMENT_S`` seconds (``Meter``).  Each segment
of the phase between two samples is rescaled to the reference speed::

    reference_s = wall_s * REFERENCE_S / mean(sample before, sample after)

``REFERENCE_S`` is the calibration's typical time on the 2-vCPU host the
benchmark was tuned on, so reference seconds read close to that host's
wall seconds.  The task never calls the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Typical time of one ``sample()`` on the tuning host, in seconds.
REFERENCE_S = 0.07
#: Calibration tasks per sample: about 70 ms of work in all.
REPEATS = 6
#: Longest stretch of a timed phase between two samples, in seconds.
SEGMENT_S = 0.5

_rng = np.random.default_rng(20_040_324)
#: 16 MiB of int64 to gather from, and a sorted array to search.
_TABLE = _rng.integers(0, 1 << 40, 1 << 21)
_GATHER = _rng.integers(0, _TABLE.size, 1 << 18)
_SORTED = np.sort(_rng.integers(0, 1 << 40, 1 << 17))
_WORDS = [f"w{i % 997}:{i}" for i in range(20_000)]


def _task() -> int:
    # Interpreter work: dict and list traffic over small objects.
    counts: dict = {}
    for word in _WORDS:
        head = word[:4]
        counts[head] = counts.get(head, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    # numpy work: a random gather from the table, a sort and a search.
    picked = _TABLE[_GATHER]
    picked.sort()
    where = np.searchsorted(_SORTED, picked[::4])
    return len(ranked) + int(where[-1])


def sample() -> float:
    """Wall seconds of one calibration task."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _task()
    return time.perf_counter() - start


class Meter:
    """Wall and reference seconds of timed phases, sampled inside them.

    ``start()`` samples the host and starts the clock; ``mark()``, called
    by the phase at points where it may pause, closes the current segment
    once it is ``SEGMENT_S`` long and samples the host between segments,
    off the clock; ``stop()`` closes the last segment and returns
    ``(wall_s, reference_s)`` of the phase.  ``mark()`` outside a phase
    does nothing.
    """

    def __init__(self) -> None:
        self._t0 = None

    def start(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._before = sample()
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        if self._t0 is not None and time.perf_counter() - self._t0 >= SEGMENT_S:
            self._close()
            self._t0 = time.perf_counter()

    def stop(self):
        self._close()
        self._t0 = None
        return self.wall_s, self.reference_s

    def _close(self) -> None:
        segment = time.perf_counter() - self._t0
        after = sample()
        self.wall_s += segment
        self.reference_s += segment * REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
