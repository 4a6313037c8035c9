"""The repository's end-to-end benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload serve_steady --seed 3 --seconds 10
    python3 perfbench/run.py --workload paper_static --trace 1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``serve_steady``: closed-loop ``repro.serve`` lookups on a settled
  4,096-node net (the read path);
- ``serve_churn``: the same loop beside crashes, joins, stabilize rounds
  and view recompiles (the maintenance path);
- ``paper_static``: 16,384-node Chord, Crescendo, their proximity
  variants and Kandy, routed with and without 10% failed nodes, plus
  Crescendo puts and gets (the kernels, builders and data plane).

With ``--workload`` one workload runs in this process: it is set up
``SETUP_REPEATS`` times (``setup_s`` is the median), and after each
set-up it is measured in rounds for a third of ``--seconds``
(``ops_per_s`` is the median round rate).  Both are in reference
seconds: every set-up and round is timed in segments of at most half a
second, each between two samples of a fixed calibration task, and
rescaled to the host speed the benchmark was tuned at (``hostspeed.py``),
because a shared host's speed drifts by more than the bounds within a set
of runs; the human-readable lines also give the plain wall-clock figures.
``failed_share``, ``delivered_share``, the ``lookup_*_ms`` percentiles and
``mean_hops`` come from the outcomes and are pure functions of the seed;
every repeated round must reproduce its part's first round bit for bit.
Correctness gates run on each part's first round, outside the timed rounds.

``--trace 1`` measures once untraced, then sets up and measures again with
every layer entry point wrapped (``spans.py``), and prints the per-layer
metrics plus the tracing overhead; spans go to ``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts measured
operations (served lookups, routed pairs, puts and gets); ``failed``
counts gate violations, each a wrong outcome.  A lookup the workload
loses on purpose, e.g. by crashing its node, is a correct outcome and
shows in ``failed_share`` instead.  The exit code is 0 only when every
gate passes.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("serve_steady", "serve_churn", "paper_static")
SETUP_REPEATS = 3


def metric_units(section: str):
    """name -> unit of a ``BENCHMARK.json`` metric section, in file order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="End-to-end benchmark of the serving, maintenance, "
        "routing and storage layers.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: all, "
                        "each in a fresh process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, rates, firsts, rss_mb: float):
    """(metrics, sample counts) from the first round of every part."""
    import numpy as np

    ms = np.concatenate([r.latency_ms for r in firsts])
    hops = np.concatenate([r.hops for r in firsts])
    attempted = sum(r.attempted for r in firsts)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(rates),
        "failed_share": sum(r.failed for r in firsts) / attempted,
        "delivered_share": sum(r.delivered for r in firsts) / attempted,
        "lookup_p50_ms": float(np.quantile(ms, 0.5)),
        "lookup_p999_ms": float(np.quantile(ms, 0.999)),
        "mean_hops": float(hops.mean()),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        key: (int(ms.size), int(np.count_nonzero(ms > values[key])))
        for key in ("lookup_p50_ms", "lookup_p999_ms")
    }
    return values, samples


class _Run:
    """Rounds, rates and gate results of one workload run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.firsts = {}  # part -> RoundResult of the part's first round
        self.violations = []
        self.attempted = 0
        self.rounds = 0
        self.wall_rates = []  # round rates in plain wall seconds
        self.meter = hostspeed.Meter()

    def phase(self, st, part: int, seconds: float, label: str):
        """Rounds of one part until ``seconds`` of them were measured.

        A part's first round is gated and kept as the reference; later
        rounds must match its digest.  Round details are dropped as soon
        as they are checked, so no round holds another's outcomes alive.
        Returns the round rates in operations per reference second.
        """
        rates = []
        measured = 0.0
        while not rates or measured < seconds:
            # Every round starts from a collected heap, so earlier set-ups'
            # and rounds' cyclic garbage is not collected inside its timing.
            gc.collect()
            result = self.wl.run_round(st, part, self.meter)
            first = self.firsts.get(part)
            if first is None:
                self.violations += self.wl.check(st, result)
                self.firsts[part] = result
            elif result.digest != first.digest:
                self.violations.append(
                    f"{label} part {part} round outcomes differ from its first round"
                )
            result.detail = {}
            measured += result.wall_s
            rates.append(result.attempted / result.reference_s)
            self.wall_rates.append(result.attempted / result.wall_s)
            self.attempted += result.attempted
            self.rounds += 1
        return rates


def run_workload(name: str, seed: int, seconds: float, trace: int, params=None):
    """Run one workload here; returns (result dict, human-readable lines).

    Untraced, each of the ``SETUP_REPEATS`` set-ups is followed by its own
    share of the measured phase, so the rounds sample the host over the
    whole run instead of one stretch of it.  Set-ups rotate through the
    workload's parts.
    """
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(seed) if params is None else cls(seed, params)
    run = _Run(wl)
    setup_times = []  # reference seconds
    setup_walls = []
    if not trace:
        rates = []
        for rep in range(SETUP_REPEATS):
            st = None  # free the previous set-up before building the next,
            gc.collect()  # cycles included, so peak RSS holds one set-up
            run.meter.start()
            st = wl.setup(run.meter)
            wall_s, reference_s = run.meter.stop()
            setup_walls.append(wall_s)
            setup_times.append(reference_s)
            wl.prepare(st)
            rates += run.phase(st, rep % wl.parts, seconds / SETUP_REPEATS, "untraced")
        values, samples = end_to_end(
            setup_times, rates, list(run.firsts.values()), peak_rss_mb()
        )
        result_metrics = {
            k: {"value": values[k], "unit": unit}
            for k, unit in metric_units("end_to_end").items()
        }
    else:
        st = wl.setup()
        wl.prepare(st)
        untraced = [r for part in range(wl.parts)
                    for r in run.phase(st, part, seconds / wl.parts, "untraced")]
        del st
        rec = spans.Recorder()
        with spans.instrument(rec):
            with rec.span("bench.setup"):
                st = wl.setup()
            wl.prepare(st)
            with rec.span("bench.measure"):
                traced = [r for part in range(wl.parts)
                          for r in run.phase(st, part, seconds / wl.parts, "traced")]
        metrics = spans.per_layer_metrics(rec)
        untraced_rate = statistics.median(untraced)
        traced_rate = statistics.median(traced)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead_ops_per_s"] = traced_rate - untraced_rate
        metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(rec.to_records())
        )
        units = metric_units("per_layer")
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        samples = {}

    lines = [
        f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace}",
        f"  {run.rounds} measured round(s), {run.attempted} operations; wall "
        f"clock: median {statistics.median(run.wall_rates):.6g} ops/s, setup "
        f"{', '.join(f'{t:.3f}' for t in setup_walls) or 'not repeated'} s",
    ]
    for key, metric in result_metrics.items():
        note = ""
        if key in samples:
            n, beyond = samples[key]
            note = f"  ({n} delivered samples, {beyond} beyond)"
        lines.append(f"  {key} = {metric['value']:.6g} {metric['unit']}{note}")
    lines += [f"  GATE FAILED: {v}" for v in run.violations]
    result = {
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": len(run.violations),
        "metrics": result_metrics,
    }
    return result, lines


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        failed = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, check=False,
            )
            failed += proc.returncode != 0
        return 1 if failed else 0
    sys.path.insert(0, str(SRC))
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
