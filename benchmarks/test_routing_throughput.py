"""Micro-benchmarks: routing throughput, scalar vs batch, cache cold vs warm.

``benchmarks/record_routing_baseline.py`` runs the same workloads with a
plain ``perf_counter`` harness and checks the results into
``BENCH_routing.json``.
"""

from __future__ import annotations

import random

import numpy as np

from repro import IdSpace, build_uniform_hierarchy
from repro.core.routing import route_ring, route_ring_lookahead, route_xor
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.symphony import SymphonyNetwork
from repro.experiments.common import build_crescendo, seeded_rng
from repro.perf import NetworkCache, caching, compile_network

SIZE = 4000


def setup_ring():
    rng = random.Random(0)
    space = IdSpace(32)
    ids = space.random_ids(SIZE, rng)
    hierarchy = build_uniform_hierarchy(ids, 10, 3, rng)
    net = CrescendoNetwork(space, hierarchy).build()
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(500)]
    return net, pairs


def setup_xor():
    rng = random.Random(2)
    space = IdSpace(32)
    ids = space.random_ids(SIZE, rng)
    hierarchy = build_uniform_hierarchy(ids, 10, 3, rng)
    net = KandyNetwork(space, hierarchy, rng).build()
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(500)]
    return net, pairs


def test_route_crescendo(benchmark):
    net, pairs = setup_ring()

    def run():
        delivered = 0
        for a, b in pairs:
            delivered += route_ring(net, a, b).success
        return delivered

    assert benchmark(run) == len(pairs)


def test_route_lookahead_symphony(benchmark):
    rng = random.Random(1)
    space = IdSpace(32)
    ids = space.random_ids(SIZE, rng)
    hierarchy = build_uniform_hierarchy(ids, 10, 1, rng)
    net = SymphonyNetwork(space, hierarchy, rng).build()
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(200)]

    def run():
        return sum(route_ring_lookahead(net, a, b).success for a, b in pairs)

    assert benchmark(run) == len(pairs)


def test_route_kandy_xor(benchmark):
    net, pairs = setup_xor()

    def run():
        return sum(route_xor(net, a, b).success for a, b in pairs)

    assert benchmark(run) == len(pairs)


def test_route_crescendo_batch(benchmark):
    """Same workload as ``test_route_crescendo`` on the vectorized kernel."""
    net, pairs = setup_ring()
    compiled = compile_network(net)
    sources = np.asarray([a for a, _ in pairs], dtype=np.uint64)
    dests = np.asarray([b for _, b in pairs], dtype=np.uint64)

    def run():
        return compiled.route(sources, dests).delivered

    assert benchmark(run) == len(pairs)


def test_route_kandy_xor_batch(benchmark):
    """Same workload as ``test_route_kandy_xor`` on the vectorized kernel."""
    net, pairs = setup_xor()
    compiled = compile_network(net)
    sources = np.asarray([a for a, _ in pairs], dtype=np.uint64)
    dests = np.asarray([b for _, b in pairs], dtype=np.uint64)

    def run():
        return compiled.route(sources, dests).delivered

    assert benchmark(run) == len(pairs)


def test_build_crescendo_cache_cold(benchmark, tmp_path):
    """Full Crescendo construction, no cache (the warm benchmark's baseline)."""

    def run():
        return build_crescendo(SIZE, 3, seeded_rng("bench-cache"))

    net = benchmark(run)
    assert len(net.node_ids) == SIZE


def test_build_crescendo_cache_warm(benchmark, tmp_path):
    """Crescendo construction served from a pre-primed on-disk cache."""
    token = ("bench-cache",)
    with caching(NetworkCache(tmp_path / "networks")):
        build_crescendo(SIZE, 3, seeded_rng(*token), cache_token=token)  # prime

        def run():
            return build_crescendo(SIZE, 3, seeded_rng(*token), cache_token=token)

        net = benchmark(run)
    assert len(net.node_ids) == SIZE
