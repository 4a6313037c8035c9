"""Tests for the phase timers (`repro.obs.profile`)."""

from __future__ import annotations

import time

import pytest

from repro.obs.profile import PhaseProfiler


class TestPhaseProfiler:
    def test_accumulates_time_and_calls(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("build"):
                time.sleep(0.001)
        assert prof.calls["build"] == 3
        assert prof.totals["build"] >= 0.003

    def test_phases_accumulate_independently(self):
        prof = PhaseProfiler()
        with prof.phase("build"):
            pass
        with prof.phase("route"):
            pass
        assert set(prof.totals) == {"build", "route"}

    def test_nested_phases_both_recorded(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        assert prof.calls == {"outer": 1, "inner": 1}

    def test_records_on_exception(self):
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with prof.phase("doomed"):
                raise RuntimeError
        assert prof.calls["doomed"] == 1

    def test_reset(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        prof.reset()
        assert prof.totals == {} and prof.calls == {}

    def test_report_and_as_dict(self):
        prof = PhaseProfiler()
        with prof.phase("route"):
            pass
        report = prof.report()
        assert "route" in report and "seconds" in report
        d = prof.as_dict()
        assert d["route"]["calls"] == 1
        assert d["route"]["seconds"] >= 0

    def test_empty_report(self):
        assert PhaseProfiler().report() == "no phases recorded"
