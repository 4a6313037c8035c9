"""Tiny-scale checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
DETERMINISTIC = ("failed_share", "delivered_share", "lookup_p50_ms",
                 "lookup_p999_ms", "mean_hops")

TINY_SERVE = workloads.ServeParams(
    nodes=256, lookups=3000, concurrency=256, join_pool=256,
    gate_sample=200, gate_nodes=128, gate_lookups=100, gate_crashes=8,
)
TINY = {
    "serve_steady": TINY_SERVE,
    "serve_churn": TINY_SERVE,
    "paper_static": workloads.StaticParams(
        nodes=512, pairs=1000, puts=400, gets=400, gate_pairs=20, gate_gets=40,
    ),
}

_cache = {}


def tiny_run(name, seed=0, trace=0):
    key = (name, seed, trace)
    if key not in _cache:
        _cache[key] = run.run_workload(name, seed, 0.0, trace, TINY[name])
    return _cache[key]


def test_benchmark_json_matches_runner():
    assert NAMES == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(name, trace, section):
    result, lines = tiny_run(name, trace=trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, unit in expected.items():
        assert any(line.strip().startswith(f"{key} = ") and line.split()[3] == unit
                   for line in lines), key
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_deterministic_metrics(name):
    first, _ = tiny_run(name)
    again, _ = run.run_workload(name, 0, 0.0, 0, TINY[name])
    for key in DETERMINISTIC:
        assert first["metrics"][key] == again["metrics"][key], key


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_passes_every_gate(name):
    result, lines = tiny_run(name, seed=1)
    assert result["correct"], lines


def test_compare_rows_flags_a_wrong_expected_outcome():
    rows = [(True, 5, 3), (False, 7, 2)]
    assert workloads.compare_rows("t", rows, rows) == []
    assert workloads.compare_rows("t", rows, [(True, 5, 3), (True, 7, 2)])
    assert workloads.compare_rows("t", rows, rows[:1])


def test_meter_rescales_each_segment_by_its_neighbouring_samples(monkeypatch):
    ref = hostspeed.REFERENCE_S
    samples = iter([ref, 2 * ref, 2 * ref])
    clock = iter([0.0, 0.2, 1.0, 1.0, 1.0, 1.5])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    meter = hostspeed.Meter()
    meter.mark()  # outside a phase: no sample, no clock read
    meter.start()  # sample ref, clock 0.0
    meter.mark()  # clock 0.2: segment shorter than SEGMENT_S, kept open
    meter.mark()  # clock 1.0: closes [0, 1.0], sample 2 * ref
    wall_s, reference_s = meter.stop()  # closes [1.0, 1.5], sample 2 * ref
    assert wall_s == pytest.approx(1.5)
    assert reference_s == pytest.approx(1.0 / 1.5 + 0.5 / 2)


def _setup_and_round(name):
    wl = workloads.WORKLOADS[name](0, TINY[name])
    st = wl.setup()
    wl.prepare(st)
    return wl, st, wl.run_round(st)


def test_serve_gate_fails_on_a_wrong_terminal():
    wl, st, result = _setup_and_round("serve_steady")
    assert wl.check(st, result) == []
    report = result.detail["report"]
    served = np.flatnonzero(report.success)
    report.terminals[served] ^= np.uint64(1)
    assert wl.check(st, result)


def test_churn_gate_fails_on_a_duplicate_completion():
    wl, st, result = _setup_and_round("serve_churn")
    assert wl.check(st, result) == []
    report = result.detail["report"]
    report.tickets[1] = report.tickets[0]
    assert wl.check(st, result)


def test_churn_gate_fails_on_a_missing_completion():
    wl, st, result = _setup_and_round("serve_churn")
    result.attempted += 1  # one more ticket submitted than the report holds
    assert wl.check(st, result)


def test_static_gate_fails_on_a_wrong_route():
    wl, st, result = _setup_and_round("paper_static")
    assert wl.check(st, result) == []
    route = result.detail["routes"]["crescendo"]
    route.hops += 1
    assert wl.check(st, result)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

