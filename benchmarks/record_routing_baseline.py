"""Record the scalar-vs-batch routing baseline into ``BENCH_routing.json``.

Measures, on the same 4000-node / 500-pair workloads the pytest-benchmark
suite uses:

- scalar vs batch ring routing (Crescendo) and xor routing (Kandy),
- cold (uncached) vs warm (on-disk cache hit) Crescendo construction,

taking the best of ``--repeats`` timed runs of each, and writes the
timings plus derived speedups as JSON.  Run from the repo root::

    PYTHONPATH=src python benchmarks/record_routing_baseline.py

The checked-in ``BENCH_routing.json`` is the reference point for the
fast-path layer (see ``docs/performance.md``); CI re-records it on every
push as a non-gating artifact so regressions are visible without flaking
the build on shared-runner noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_routing_throughput import SIZE, setup_ring, setup_xor  # noqa: E402

from repro.core.routing import route_ring, route_xor  # noqa: E402
from repro.experiments.common import build_crescendo, seeded_rng  # noqa: E402
from repro.perf import NetworkCache, caching, compile_network  # noqa: E402


def best_of(fn, repeats):
    """(best seconds, last result) over ``repeats`` timed calls of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_routing(repeats):
    """Scalar vs batch timings for the ring and xor workloads."""
    out = {}
    for label, setup, scalar in (
        ("ring_crescendo", setup_ring, route_ring),
        ("xor_kandy", setup_xor, route_xor),
    ):
        net, pairs = setup()
        compiled = compile_network(net)
        sources = np.asarray([a for a, _ in pairs], dtype=np.uint64)
        dests = np.asarray([b for _, b in pairs], dtype=np.uint64)

        scalar_s, delivered = best_of(
            lambda: sum(scalar(net, a, b).success for a, b in pairs), repeats
        )
        batch_s, batch_result = best_of(
            lambda: compiled.route(sources, dests), repeats
        )
        assert delivered == batch_result.delivered == len(pairs)

        out[label] = {
            "pairs": len(pairs),
            "scalar_seconds": scalar_s,
            "batch_seconds": batch_s,
            "speedup": scalar_s / batch_s,
            "scalar_routes_per_s": len(pairs) / scalar_s,
            "batch_routes_per_s": len(pairs) / batch_s,
        }
    return out


def bench_cache(repeats):
    """Cold-build vs warm-load timings for Crescendo construction."""
    token = ("bench-cache",)
    cold_s, net = best_of(
        lambda: build_crescendo(SIZE, 3, seeded_rng(*token)), repeats
    )
    with tempfile.TemporaryDirectory() as tmp:
        with caching(NetworkCache(Path(tmp) / "networks")):
            build_crescendo(SIZE, 3, seeded_rng(*token), cache_token=token)
            warm_s, warm = best_of(
                lambda: build_crescendo(
                    SIZE, 3, seeded_rng(*token), cache_token=token
                ),
                repeats,
            )
    assert warm.links == net.links
    return {
        "cold_build_seconds": cold_s,
        "warm_load_seconds": warm_s,
        "speedup": cold_s / warm_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_routing.json"),
        help="output path (default: repo-root BENCH_routing.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=15, help="timed runs per measurement (best-of)"
    )
    args = parser.parse_args(argv)

    doc = {
        "workload": {"nodes": SIZE, "hierarchy": "fanout 10, 3 levels"},
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "routing": bench_routing(args.repeats),
        "network_cache": bench_cache(args.repeats),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    ring = doc["routing"]["ring_crescendo"]
    xor = doc["routing"]["xor_kandy"]
    cache = doc["network_cache"]
    print(f"wrote {args.out}")
    print(
        f"ring: scalar {ring['scalar_seconds'] * 1e3:.1f}ms "
        f"batch {ring['batch_seconds'] * 1e3:.1f}ms "
        f"({ring['speedup']:.1f}x)"
    )
    print(
        f"xor:  scalar {xor['scalar_seconds'] * 1e3:.1f}ms "
        f"batch {xor['batch_seconds'] * 1e3:.1f}ms "
        f"({xor['speedup']:.1f}x)"
    )
    print(
        f"cache: cold {cache['cold_build_seconds']:.2f}s "
        f"warm {cache['warm_load_seconds']:.2f}s ({cache['speedup']:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
