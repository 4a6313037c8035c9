"""Benchmark regression gate: fresh re-record vs the checked-in baselines.

Re-runs a recorder at the baseline's own workload, then compares every
numeric leaf of the fresh document against the checked-in ``BENCH_*.json``:

- **deterministic** metrics (milliseconds, stretch, counts — everything the
  seeded workloads pin exactly) must match within ``--exact-tol`` relative
  tolerance (default 1e-6; they are bit-reproducible, the tolerance only
  absorbs JSON round-tripping);
- **timing** metrics (``*_seconds``, ``*_per_s``, ``speedup`` — wall-clock,
  machine-dependent) are compared at ``--timing-tol`` relative tolerance
  (default 0.5) and reported, but never fail the gate on their own;
- **memory** metrics split the same way: ``*arena_bytes`` (the exact size
  of a workload's shared-memory arena — a pure function of the network
  and the dtype-minimization rules) must match with tolerance 0 and
  gates like a deterministic metric, while ``*rss_bytes`` (allocator- and
  OS-dependent) reports at the timing tolerance and never gates;
- **count** metrics (``*_count`` — shed/hedge/retry/lost event counts from
  seeded serving workloads) must match with tolerance 0 and gate like
  deterministic metrics.

By default only the latency baseline is re-recorded (it finishes in
seconds); ``--baseline churn`` etc. opt into the slower ones.  Output is a
markdown table on stdout, also appended to ``$GITHUB_STEP_SUMMARY`` when
set (the CI job-summary annotation).  Exit status is 0 unless ``--strict``
is given *and* a deterministic metric regressed; CI's ``benchmark-gate``
job runs the latency, storage and serving checks with ``--strict``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --strict
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = Path(__file__).resolve().parent.parent

#: name -> (baseline file, recorder module, extra recorder argv).
#: Recorder argv beyond --out must reproduce the checked-in workload.
BASELINES = {
    "latency": ("BENCH_latency.json", "record_latency_baseline", []),
    "churn": ("BENCH_churn.json", "record_churn_baseline", []),
    "build": ("BENCH_build.json", "record_build_baseline", []),
    "routing": ("BENCH_routing.json", "record_routing_baseline", []),
    "storage": ("BENCH_storage.json", "record_storage_baseline", []),
    "serving": ("BENCH_serving.json", "record_serving_baseline", []),
}

#: Leaf-key suffixes whose values are wall-clock measurements.
TIMING_MARKERS = ("_seconds", "_per_s", "speedup", "_us")

#: Memory leaves: arena sizes are deterministic (tolerance 0, gating);
#: RSS readings are allocator/OS noise (timing tolerance, never gate).
MEMORY_EXACT_MARKER = "arena_bytes"
MEMORY_NOISY_MARKER = "rss_bytes"

#: Event-count leaves (``*_count``): seeded workloads pin these exactly —
#: tolerance 0, gating (the serving baseline's shed/hedge/retry/lost
#: accounting).
COUNT_MARKER = "_count"


def is_timing(path: str) -> bool:
    leaf = path.rsplit(".", 1)[-1]
    return any(leaf.endswith(marker) or leaf == marker.strip("_") for marker in TIMING_MARKERS)


def metric_kind(path: str) -> str:
    """Classify a dotted leaf path: memory / rss / timing / deterministic."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith(MEMORY_EXACT_MARKER):
        return "memory"
    if leaf.endswith(MEMORY_NOISY_MARKER):
        return "rss"
    if leaf.endswith(COUNT_MARKER):
        return "count"
    if is_timing(path):
        return "timing"
    return "deterministic"


def numeric_leaves(doc, prefix=""):
    """Flatten nested dicts to {dotted.path: float} over numeric leaves."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(numeric_leaves(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


def rel_delta(old: float, new: float) -> float:
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new), 1e-12)
    return abs(new - old) / scale


def compare(name: str, baseline: dict, fresh: dict, exact_tol: float, timing_tol: float):
    """Yield (metric, old, new, delta, kind, ok) rows for mismatched leaves."""
    old_leaves = numeric_leaves(baseline)
    new_leaves = numeric_leaves(fresh)
    rows = []
    for path in sorted(set(old_leaves) | set(new_leaves)):
        old = old_leaves.get(path)
        new = new_leaves.get(path)
        if old is None or new is None:
            rows.append((path, old, new, math.inf, "missing", False))
            continue
        kind = metric_kind(path)
        delta = rel_delta(old, new)
        tol = {
            "timing": timing_tol,
            "rss": timing_tol,
            "memory": 0.0,
            "count": 0.0,
        }.get(kind, exact_tol)
        if delta > tol:
            rows.append((path, old, new, delta, kind, False))
    return rows


def rerecord(name: str) -> dict:
    """Run the recorder for ``name`` into a temp file; return its document."""
    import importlib

    _, recorder, extra = BASELINES[name]
    module = importlib.import_module(recorder)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fresh.json"
        code = module.main(["--out", str(out)] + extra)
        if code not in (0, None):
            raise RuntimeError(f"{recorder} exited with {code}")
        return json.loads(out.read_text())


def render_markdown(results) -> str:
    lines = ["## Benchmark regression check", ""]
    any_rows = False
    for name, rows, gating_failures in results:
        status = "regressed" if gating_failures else "ok"
        lines.append(f"### `{BASELINES[name][0]}` — {status}")
        lines.append("")
        if not rows:
            lines.append("All deterministic metrics match the checked-in baseline; "
                         "timings within tolerance.")
            lines.append("")
            continue
        any_rows = True
        lines.append("| metric | baseline | fresh | rel. delta | kind |")
        lines.append("|---|---|---|---|---|")
        for path, old, new, delta, kind, _ in rows:
            fmt = lambda v: "—" if v is None else f"{v:.6g}"
            lines.append(
                f"| `{path}` | {fmt(old)} | {fmt(new)} | {delta:.3g} | {kind} |"
            )
        lines.append("")
    if not any_rows:
        lines.append("_No drift anywhere — fresh runs reproduce every baseline._")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        action="append",
        choices=sorted(BASELINES),
        help="baseline(s) to check (repeatable; default: latency — the only "
        "one cheap enough for every CI run)",
    )
    parser.add_argument(
        "--exact-tol",
        type=float,
        default=1e-6,
        help="relative tolerance for deterministic metrics (default 1e-6)",
    )
    parser.add_argument(
        "--timing-tol",
        type=float,
        default=0.5,
        help="relative tolerance for wall-clock metrics (default 0.5; "
        "never gates)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a deterministic metric drifts (default: report only)",
    )
    args = parser.parse_args(argv)
    names = args.baseline or ["latency"]

    results = []
    exit_code = 0
    for name in names:
        baseline_path = REPO_ROOT / BASELINES[name][0]
        if not baseline_path.exists():
            print(f"note: {baseline_path.name} not checked in; skipping {name}")
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = rerecord(name)
        rows = compare(name, baseline, fresh, args.exact_tol, args.timing_tol)
        gating = [
            r
            for r in rows
            if r[4] in ("deterministic", "memory", "count", "missing")
        ]
        results.append((name, rows, gating))
        if gating and args.strict:
            exit_code = 1

    markdown = render_markdown(results)
    print(markdown)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(markdown + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
