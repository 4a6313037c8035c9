"""Observability: tracing, metrics and profiling for the whole stack.

The paper's evaluation is a measurement exercise — hops, latency stretch,
locality, fault isolation — so the reproduction carries a first-class,
zero-dependency observability layer:

- :mod:`repro.obs.trace` — span/event tracing with a context-manager API
  and per-hop route tracing annotated with the hierarchy level and domain
  each hop was taken at (the quantity behind Figures 7-8).  Exports JSONL
  and Chrome ``chrome://tracing`` trace-event files.
- :mod:`repro.obs.metrics` — a process-local registry of counters, gauges
  and fixed-bucket histograms with snapshot/diff/merge and CSV/JSON export.
  Histograms carry a bounded reservoir of raw observations so snapshots
  answer p50/p95/p99 in milliseconds, not bucket bounds.
- :mod:`repro.obs.quantiles` — the deterministic reservoir sampling and
  quantile helpers behind that.
- :mod:`repro.obs.slo` — ``SLOReport``: family x level -> {p50/p95/p99
  lookup ms, stretch vs direct, availability} tables parsed back out of a
  snapshot; ``python -m repro.obs report`` is the CLI.
- :mod:`repro.obs.profile` — phase timers (build vs route vs analysis).

Instrumentation is pay-for-what-you-use: with no tracer or registry
activated, the hot routing loop performs no per-hop work — a single
``is None`` check per *route* (not per hop) is the only overhead.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    active_registry,
    collecting,
)
from .profile import PROFILER, PhaseProfiler
from .quantiles import ReservoirSample, bucket_quantile, percentile
from .slo import SLOReport, SLORow
from .trace import (
    HopAnnotation,
    Tracer,
    active_tracer,
    annotate_hops,
    jsonl_to_chrome,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HopAnnotation",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PROFILER",
    "PhaseProfiler",
    "ReservoirSample",
    "SLOReport",
    "SLORow",
    "Tracer",
    "active_registry",
    "active_tracer",
    "annotate_hops",
    "bucket_quantile",
    "collecting",
    "jsonl_to_chrome",
    "percentile",
    "tracing",
]
