"""Batch kernels vs scalar engines: hop-for-hop path identity.

The batch kernels of :mod:`repro.perf.kernels` claim to replicate every
branch of the scalar greedy engines exactly.  These property tests verify
it route-by-route — full path, success flag, terminal and hop count — for
all five flat and all five Canonical DHT families, over multiple seeds,
node-id *and* arbitrary-key destinations, with and without alive filters,
through both entry points: one ``route()`` call and ``frontier_step``
stepped until nothing moves.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.core.routing import MAX_HOPS, LiveSet, route_ring, route_xor
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.can import build_can
from repro.dhts.cancan import build_cancan
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.ndchord import NDChordNetwork, NDCrescendoNetwork
from repro.dhts.symphony import SymphonyNetwork
from repro.perf.kernels import BatchResult, batch_route, compile_network

SIZE = 220
BITS = 16


def _hierarchy(space, rng, levels=3):
    ids = space.random_ids(SIZE, rng)
    return build_uniform_hierarchy(ids, 4, levels, rng)


def _cancan_paths(rng):
    return [
        tuple(str(rng.randrange(4)) for _ in range(2)) for _ in range(SIZE)
    ]


FAMILIES = {
    "chord": lambda s, h, r: ChordNetwork(s, h).build(),
    "crescendo": lambda s, h, r: CrescendoNetwork(s, h).build(),
    "symphony": lambda s, h, r: SymphonyNetwork(s, h, r).build(),
    "cacophony": lambda s, h, r: CacophonyNetwork(s, h, r).build(),
    "ndchord": lambda s, h, r: NDChordNetwork(s, h, r).build(),
    "ndcrescendo": lambda s, h, r: NDCrescendoNetwork(s, h, r).build(),
    "kademlia": lambda s, h, r: KademliaNetwork(s, h, r).build(),
    "kandy": lambda s, h, r: KandyNetwork(s, h, r).build(),
    "can": lambda s, h, r: build_can(s, SIZE, r),
    "cancan": lambda s, h, r: build_cancan(s, SIZE, r, _cancan_paths(r)),
}


def build_family(name, seed):
    rng = random.Random(f"perf-kernels:{name}:{seed}")
    space = IdSpace(BITS)
    hierarchy = _hierarchy(space, rng)
    return FAMILIES[name](space, hierarchy, rng), rng


def workload(network, rng, count=120):
    """Node-to-node pairs plus lookups of arbitrary (non-node) keys."""
    ids = network.node_ids
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(count)]
    pairs += [
        (rng.choice(ids), rng.randrange(network.space.size))
        for _ in range(count // 2)
    ]
    pairs.append((ids[0], ids[0]))  # src == dest
    return pairs


def scalar_router(network):
    return route_ring if network.metric == "ring" else route_xor


def route_entry(network, pairs, alive=None):
    """The batch hop loop: one ``route()`` call."""
    return batch_route(network, pairs, alive=alive, paths=True)


def step_entry(network, pairs, alive=None):
    """``frontier_step`` stepped until nothing moves, as a BatchResult."""
    compiled = compile_network(network)
    alive_arr = None if alive is None else np.asarray(sorted(alive), dtype=np.uint64)
    src = np.asarray([p[0] for p in pairs], dtype=np.uint64)
    dest = np.asarray([p[1] for p in pairs], dtype=np.uint64)
    cur = src.copy()
    hops = np.zeros(src.size, dtype=np.int64)
    success = np.zeros(src.size, dtype=bool)
    paths = [[int(s)] for s in src]
    act = np.arange(src.size)
    for _ in range(MAX_HOPS + 1):
        if act.size == 0:
            break
        nxt, moved, ok, _ = compiled.frontier_step(cur[act], dest[act], alive_arr)
        cur[act] = nxt
        hops[act[moved]] += 1
        for i, node in zip(act[moved].tolist(), nxt[moved].tolist()):
            paths[i].append(node)
        success[act[~moved]] = ok[~moved]
        act = act[moved]
    else:
        pytest.fail("frontier stepping never came to rest")
    return BatchResult(src, dest, hops, cur, success, paths)


ENTRIES = (route_entry, step_entry)


def assert_identical(network, pairs, alive=None, entry=route_entry):
    router = scalar_router(network)
    result = entry(network, pairs, alive=alive)
    for i, (src, dst) in enumerate(pairs):
        expected = router(network, src, dst, alive=alive)
        assert result.paths[i] == expected.path, (i, src, dst)
        assert bool(result.success[i]) == expected.success, (i, src, dst)
        assert int(result.hops[i]) == expected.hops
        assert int(result.terminals[i]) == expected.terminal


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
class TestPathIdentity:
    """Every family through ``route()``; the subclass below steps instead."""

    entry = staticmethod(route_entry)

    def test_all_routes_identical(self, family, seed):
        network, rng = build_family(family, seed)
        assert_identical(network, workload(network, rng), entry=self.entry)

    def test_identical_under_alive_filter(self, family, seed):
        network, rng = build_family(family, seed)
        pairs = workload(network, rng, count=80)
        survivors = LiveSet(rng.sample(network.node_ids, (3 * SIZE) // 4))
        assert_identical(network, pairs, alive=survivors, entry=self.entry)

    def test_identical_under_plain_set_filter(self, family, seed):
        network, rng = build_family(family, seed)
        pairs = workload(network, rng, count=40)
        survivors = set(rng.sample(network.node_ids, SIZE // 2))
        assert_identical(network, pairs, alive=survivors, entry=self.entry)


class TestSteppedPathIdentity(TestPathIdentity):
    """The same families and filters through ``frontier_step``."""

    entry = staticmethod(step_entry)


class TestAliveEdgeCases:
    def test_empty_alive_set_never_delivers(self):
        network, rng = build_family("crescendo", 0)
        pairs = workload(network, rng, count=20)
        for entry in ENTRIES:
            assert_identical(network, pairs, alive=LiveSet(), entry=entry)

    def test_sparse_alive_set(self):
        network, rng = build_family("chord", 0)
        pairs = workload(network, rng, count=40)
        alive = LiveSet(rng.sample(network.node_ids, 5))
        for entry in ENTRIES:
            assert_identical(network, pairs, alive=alive, entry=entry)


class TestCompiledLayout:
    def test_csr_arrays_mirror_link_table(self):
        network, _ = build_family("crescendo", 0)
        compiled = compile_network(network)
        assert compiled.ids.tolist() == network.node_ids
        for i, node in enumerate(network.node_ids):
            start, end = compiled.indptr[i], compiled.indptr[i + 1]
            assert compiled.neighbors[start:end].tolist() == network.links[node]
        # Augmented keys are globally strictly increasing: one searchsorted
        # performs every node's binary search at once.
        assert np.all(np.diff(compiled.aug) > 0)

    def test_compile_is_memoized_per_network(self):
        network, _ = build_family("chord", 0)
        assert compile_network(network) is compile_network(network)
        fresh = compile_network(network, cached=False)
        assert fresh is not compile_network(network)

    def test_unknown_source_rejected(self):
        network, _ = build_family("chord", 0)
        compiled = compile_network(network)
        missing = next(
            i for i in range(network.space.size) if i not in network._id_set
        )
        with pytest.raises(KeyError):
            compiled.route([missing], [network.node_ids[0]])

    def test_too_wide_id_space_rejected(self):
        rng = random.Random(0)
        space = IdSpace(60)
        ids = space.random_ids(64, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        net = ChordNetwork(space, h).build()
        with pytest.raises(ValueError):
            compile_network(net)

    def test_mismatched_batch_lengths_rejected(self):
        network, _ = build_family("chord", 0)
        compiled = compile_network(network)
        with pytest.raises(ValueError):
            compiled.route(network.node_ids[:3], network.node_ids[:2])


class TestBatchResult:
    def test_routes_requires_paths(self):
        network, rng = build_family("crescendo", 0)
        result = batch_route(network, workload(network, rng, count=10))
        with pytest.raises(ValueError):
            next(result.routes())

    def test_delivered_counts_key_hits(self):
        network, rng = build_family("crescendo", 0)
        pairs = [tuple(rng.sample(network.node_ids, 2)) for _ in range(50)]
        result = batch_route(network, pairs)
        assert result.delivered == 50  # node-id lookups always deliver
        assert result.size == 50

    def test_empty_batch(self):
        network, _ = build_family("chord", 0)
        result = batch_route(network, [])
        assert result.size == 0 and result.delivered == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), data=st.data())
def test_property_random_pairs_identical(seed, data):
    """Hypothesis sweep: random Crescendo workloads are path-identical."""
    network, rng = build_family("crescendo", seed % 3)
    n = network.space.size
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(network.node_ids), st.integers(0, n - 1)),
            min_size=1,
            max_size=25,
        )
    )
    for entry in ENTRIES:
        assert_identical(network, pairs, entry=entry)
