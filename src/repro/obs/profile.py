"""Phase timers: where a run's wall-clock time went.

The experiment harness wants one cheap question answered per figure run:
where did the time go — building networks, routing queries, or analysing
results?  :class:`PhaseProfiler` accumulates wall-clock time per named
phase (two ``perf_counter`` calls per phase entry; phases are coarse, so
the overhead is unmeasurable).  The module-level :data:`PROFILER` is the
default instance the library instruments into
:mod:`repro.experiments.common` and :mod:`repro.analysis.metrics`; the CLI
``--profile`` flag reports it after each run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per named phase."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the ``with`` body under ``name`` (nesting is fine)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def reset(self) -> None:
        """Zero all accumulated phases."""
        self.totals.clear()
        self.calls.clear()

    def absorb(self, phases: Dict[str, Dict[str, float]]) -> None:
        """Fold an :meth:`as_dict` payload (e.g. from a worker process) in."""
        for name, entry in phases.items():
            self.totals[name] = self.totals.get(name, 0.0) + entry["seconds"]
            self.calls[name] = self.calls.get(name, 0) + int(entry["calls"])

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": total, "calls": n}}`` for JSON embedding."""
        return {
            name: {"seconds": self.totals[name], "calls": self.calls[name]}
            for name in sorted(self.totals)
        }

    def report(self) -> str:
        """A small fixed-width table of phases, slowest first."""
        if not self.totals:
            return "no phases recorded"
        width = max(len(name) for name in self.totals)
        lines = [f"{'phase'.ljust(width)}  seconds    calls"]
        for name, secs in sorted(self.totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name.ljust(width)}  {secs:8.3f}  {self.calls[name]:6d}")
        return "\n".join(lines)


#: Default profiler instrumented into the experiment scaffolding.
PROFILER = PhaseProfiler()
