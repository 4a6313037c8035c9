"""Tests for CAN: prefix-tree IDs, virtual-node adjacency, bit fixing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace
from repro.dhts.can import (
    CANNetwork,
    PrefixId,
    PrefixTree,
    are_adjacent,
    build_can,
)


class TestPrefixId:
    def test_bit_msb_first(self):
        p = PrefixId(0b101, 3)
        assert [p.bit(i) for i in range(3)] == [1, 0, 1]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            PrefixId(0b1, 1).bit(1)

    def test_padded(self):
        assert PrefixId(0b10, 2).padded(8) == 0b10000000

    def test_interval(self):
        lo, hi = PrefixId(0b10, 2).interval(8)
        assert (lo, hi) == (128, 192)

    def test_contains_key(self):
        p = PrefixId(0b10, 2)
        assert p.contains_key(128, 8)
        assert p.contains_key(191, 8)
        assert not p.contains_key(192, 8)

    def test_children(self):
        p = PrefixId(0b1, 1)
        assert p.child(0) == PrefixId(0b10, 2)
        assert p.child(1) == PrefixId(0b11, 2)

    def test_str(self):
        assert str(PrefixId(0b101, 3)) == "101"
        assert str(PrefixId(0, 0)) == "ε"


class TestPrefixTree:
    def test_grow_to_count(self):
        tree = PrefixTree(8)
        leaves = tree.grow(10, random.Random(0))
        assert len(leaves) == 10
        assert len(tree.leaves) == 10

    def test_leaves_partition_space(self):
        """Leaf intervals tile [0, 2**bits) without overlap."""
        tree = PrefixTree(8)
        leaves = tree.grow(13, random.Random(1))
        intervals = sorted(leaf.interval(8) for leaf in leaves)
        assert intervals[0][0] == 0
        assert intervals[-1][1] == 256
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 == lo2

    def test_leaf_for_key(self):
        tree = PrefixTree(8)
        tree.grow(10, random.Random(2))
        for key in (0, 100, 255):
            assert tree.leaf_for_key(key).contains_key(key, 8)

    def test_split_removes_parent(self):
        tree = PrefixTree(8)
        root = tree.first()
        left, right = tree.split(root)
        assert root not in tree.leaves
        assert {left, right} <= tree.leaves

    def test_split_not_a_leaf(self):
        tree = PrefixTree(8)
        tree.first()
        with pytest.raises(KeyError):
            tree.split(PrefixId(0b0, 1))

    def test_largest_policy_balances(self):
        tree = PrefixTree(16)
        tree.grow(64, random.Random(3), policy="largest")
        assert tree.partition_ratio() == 1.0  # 64 = 2**6: perfectly even

    def test_largest_policy_ratio_bound(self):
        tree = PrefixTree(16)
        tree.grow(100, random.Random(4), policy="largest")
        assert tree.partition_ratio() <= 2.0

    def test_random_policy_worse_than_largest(self):
        t_random = PrefixTree(16)
        t_random.grow(200, random.Random(5), policy="random")
        t_largest = PrefixTree(16)
        t_largest.grow(200, random.Random(5), policy="largest")
        assert t_largest.partition_ratio() <= t_random.partition_ratio()

    @pytest.mark.parametrize("seed", [356, 842])
    def test_random_growth_redraws_full_length_leaves(self, seed):
        """A draw landing in a full-length leaf is re-drawn, not fatal."""
        leaves = PrefixTree(6).grow(12, random.Random(seed))
        assert len(leaves) == 12
        assert all(leaf.length <= 6 for leaf in leaves)

    def test_random_growth_fails_only_when_the_tree_is_full(self):
        tree = PrefixTree(3)
        assert len(tree.grow(8, random.Random(0))) == 8
        with pytest.raises(RuntimeError):
            tree.grow(9, random.Random(0))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            PrefixTree(8).grow(4, random.Random(0), policy="zigzag")


def virtual_adjacent(a: PrefixId, b: PrefixId, bits: int) -> bool:
    """Ground truth: some padding pair differs in exactly one bit."""
    for pa in range(1 << (bits - a.length)):
        va = (a.value << (bits - a.length)) | pa
        for pb in range(1 << (bits - b.length)):
            vb = (b.value << (bits - b.length)) | pb
            if bin(va ^ vb).count("1") == 1:
                return True
    return False


class TestAdjacency:
    def test_paper_example(self):
        """IDs 0, 10, 11: node 0 (virtual 00, 01) neighbors both 10 and 11."""
        zero = PrefixId(0b0, 1)
        ten = PrefixId(0b10, 2)
        eleven = PrefixId(0b11, 2)
        assert are_adjacent(zero, ten)
        assert are_adjacent(zero, eleven)
        assert are_adjacent(ten, eleven)

    def test_not_adjacent(self):
        assert not are_adjacent(PrefixId(0b00, 2), PrefixId(0b11, 2))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_matches_virtual_bruteforce(self, data):
        bits = 6
        tree = PrefixTree(bits)
        seed = data.draw(st.integers(0, 1000))
        leaves = tree.grow(data.draw(st.integers(2, 12)), random.Random(seed))
        a, b = leaves[0], leaves[-1]
        assert are_adjacent(a, b) == virtual_adjacent(a, b, bits)


class TestCANNetwork:
    @pytest.fixture(scope="class")
    def net(self):
        return build_can(IdSpace(16), 300, random.Random(6))

    def test_links_valid(self, net):
        net.check_links_valid()

    def test_adjacency_symmetric(self, net):
        for node in net.node_ids[:50]:
            for link in net.links[node]:
                assert node in net.links[link]

    def test_responsible_node(self, net):
        rng = random.Random(7)
        for _ in range(50):
            key = net.space.random_id(rng)
            owner = net.responsible_node(key)
            assert net.prefixes[owner].contains_key(key, net.space.bits)

    def test_bitfix_routing_total(self, net):
        rng = random.Random(8)
        for _ in range(150):
            src = rng.choice(net.node_ids)
            key = net.space.random_id(rng)
            r = net.route_bitfix(src, key)
            assert r.success
            assert net.prefixes[r.terminal].contains_key(key, net.space.bits)

    def test_bitfix_hops_bounded_by_bits(self, net):
        rng = random.Random(9)
        for _ in range(80):
            src = rng.choice(net.node_ids)
            key = net.space.random_id(rng)
            assert net.route_bitfix(src, key).hops <= net.space.bits

    def test_common_prefix_strictly_grows(self, net):
        from repro.dhts.can import _common_prefix_len

        rng = random.Random(10)
        bits = net.space.bits
        for _ in range(40):
            src = rng.choice(net.node_ids)
            key = net.space.random_id(rng)
            r = net.route_bitfix(src, key)
            lcps = [
                min(
                    _common_prefix_len(net.prefixes[n].padded(bits), key, bits),
                    net.prefixes[n].length,
                )
                for n in r.path
            ]
            assert all(x < y for x, y in zip(lcps, lcps[1:]))

    def test_missing_prefix_rejected(self):
        from repro.core.hierarchy import Hierarchy

        space = IdSpace(8)
        h = Hierarchy()
        h.place(0, ())
        h.place(128, ())
        with pytest.raises(ValueError):
            CANNetwork(space, h, {0: PrefixId(0, 1)})
