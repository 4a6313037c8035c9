"""Streaming quantile estimation for the SLO layer.

One estimator plus two pure helpers:

- :func:`percentile` — exact linear-interpolation quantile of a sorted
  sample (numpy's default ``percentile`` method, without requiring numpy).
- :func:`bucket_quantile` — quantile interpolated from fixed histogram
  buckets; the coarse fallback when no sample is available.
- :class:`ReservoirSample` — uniform reservoir (Vitter's algorithm R) with
  a deterministic per-name seed.  Exact while the stream fits in the
  reservoir; an unbiased uniform subsample beyond that.  This is what
  :class:`repro.obs.metrics.Histogram` carries so snapshots can answer
  p50/p95/p99 in milliseconds rather than bucket bounds.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

__all__ = [
    "DEFAULT_RESERVOIR_CAP",
    "ReservoirSample",
    "bucket_quantile",
    "percentile",
]

#: Default reservoir capacity: exact quantiles for every smoke/small run,
#: ~1.5% worst-case p99 sampling error at paper scale, 32 KiB per histogram.
DEFAULT_RESERVOIR_CAP = 4096


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending-sorted sample.

    Matches ``numpy.percentile(values, q * 100)`` (the default "linear"
    method).  ``q`` is a fraction in [0, 1].  Returns 0.0 for an empty
    sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(sorted_values[0])
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(sorted_values[lo]) + frac * (
        float(sorted_values[hi]) - float(sorted_values[lo])
    )


def bucket_quantile(
    buckets: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Quantile interpolated from fixed histogram buckets (coarse).

    Assumes observations are uniform within each bucket; the overflow
    bucket reports its lower bound.  Only used when a histogram snapshot
    carries no reservoir sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0.0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= target:
            lo = 0.0 if i == 0 else float(buckets[i - 1])
            if i >= len(buckets):  # overflow bucket: no upper bound
                return lo
            hi = float(buckets[i])
            frac = (target - seen) / count
            return lo + frac * (hi - lo)
        seen += count
    lo = float(buckets[-1]) if buckets else 0.0
    return lo


class ReservoirSample:
    """Uniform fixed-capacity reservoir (algorithm R), deterministic.

    The replacement RNG is seeded from ``name`` so two runs observing the
    same value stream produce the same reservoir — snapshots and the SLO
    tables built from them are reproducible.
    """

    __slots__ = ("cap", "seen", "values", "_rng", "_name")

    def __init__(self, name: str = "", cap: int = DEFAULT_RESERVOIR_CAP) -> None:
        if cap <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {cap}")
        self.cap = cap
        self.seen = 0
        self.values: List[float] = []
        self._name = name
        self._rng: Optional[random.Random] = None

    def _rand(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(f"reservoir:{self._name}:{self.cap}")
        return self._rng

    @property
    def exact(self) -> bool:
        """True while every observation is still retained."""
        return self.seen <= self.cap

    def observe(self, value: float) -> None:
        """Offer one value to the reservoir."""
        self.seen += 1
        if len(self.values) < self.cap:
            self.values.append(float(value))
            return
        j = self._rand().randrange(self.seen)
        if j < self.cap:
            self.values[j] = float(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Offer a batch (equivalent to per-value :meth:`observe`)."""
        free = self.cap - len(self.values)
        head = min(free, len(values))
        if head:
            self.values.extend(float(v) for v in values[:head])
            self.seen += head
        rand = self._rand() if head < len(values) else None
        for v in values[head:]:
            self.seen += 1
            j = rand.randrange(self.seen)
            if j < self.cap:
                self.values[j] = float(v)

    def quantile(self, q: float) -> float:
        """Quantile of the retained sample (exact while ``exact``)."""
        return percentile(sorted(self.values), q)
