"""Property tests for the serving policy layer.

The policy contract (module docstring of ``repro.serve.policy``): on a
static network, deadlines, retry budgets and hedges may change *when* a
lookup completes and what the counters say — never *where* it lands.
Every test here compares per-ticket ``(success, terminal)`` outcomes
against the no-policy run and only lets policy show up in latency and
counters.  Admission control and ACLs are the exception by design: they
complete lookups without serving them, with their own statuses.
"""

from __future__ import annotations

import copy
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import collecting
from repro.obs.slo import SLOReport
from repro.serve import (
    NO_POLICY,
    STATUS_DEADLINE,
    STATUS_DENIED,
    STATUS_FAIL,
    STATUS_OK,
    STATUS_SHED,
    DomainACL,
    DomainBuckets,
    SLOMiddleware,
    ServePolicy,
    ServeRuntime,
    compile_protocol_view,
    run_open_loop,
)
from repro.serve.batcher import FREE
from repro.serve.testbed import build_serving_net, domain_labeler, lookup_workload

SEEDS = (21, 22, 23)


def _serve(net, latency, sources, keys, policy, **kwargs):
    runtime = ServeRuntime(
        *compile_protocol_view(net), policy=policy, latency=latency, **kwargs
    )
    runtime.submit_many(sources, keys)
    runtime.drain()
    return runtime.report()


def _served_outcomes(report):
    """ticket -> (success, terminal) over lookups that got a routing verdict."""
    return {
        ticket: (ok, term)
        for ticket, (ok, term, status) in report.outcome_map().items()
        if status in (0, 1)  # STATUS_OK / STATUS_FAIL
    }


class TestOutcomeInvariance:
    """Seeded property sweep: policy never changes served outcomes."""

    def test_retries_and_hedges_match_no_policy_run(self):
        policies = {
            "retry x3": ServePolicy(max_attempts=3),
            "retry x3 alternates": ServePolicy(
                max_attempts=3, retry_alternates=True
            ),
            "hedge p50": ServePolicy(hedge_quantile=0.5),
            "hedge p50 floor": ServePolicy(hedge_quantile=0.5, hedge_min_ms=2.0),
        }
        for seed in SEEDS:
            net, latency = build_serving_net(160, seed=seed)
            sources, keys = lookup_workload(net, 150, seed=seed)
            baseline = _serve(net, latency, sources, keys, NO_POLICY)
            base_outcomes = _served_outcomes(baseline)
            assert len(base_outcomes) == 150
            for name, policy in policies.items():
                report = _serve(net, latency, sources, keys, policy)
                assert _served_outcomes(report) == base_outcomes, (name, seed)
                assert report.counters["expired"] == 0, (name, seed)

    def test_hedges_actually_fire_and_only_touch_counters(self):
        net, latency = build_serving_net(256, seed=31)
        sources, keys = lookup_workload(net, 400, seed=31)
        baseline = _serve(net, latency, sources, keys, NO_POLICY)
        hedged = _serve(
            net, latency, sources, keys, ServePolicy(hedge_quantile=0.5)
        )
        assert hedged.counters["hedges"] > 0
        # On a static net every spawned hedge pair resolves by exactly one
        # runner winning and the other being cancelled.
        assert hedged.counters["hedge_cancelled"] == hedged.counters["hedges"]
        assert hedged.counters["hedge_wins"] <= hedged.counters["hedges"]
        assert _served_outcomes(hedged) == _served_outcomes(baseline)
        # A winning hedge can only shorten a lookup, never lengthen it.
        assert hedged.quantile_ms(0.99) <= baseline.quantile_ms(0.99) + 1e-9

    def test_deadline_expiry_excludes_but_never_rewrites(self):
        for seed in SEEDS:
            net, latency = build_serving_net(160, seed=seed)
            sources, keys = lookup_workload(net, 150, seed=seed)
            baseline = _serve(net, latency, sources, keys, NO_POLICY)
            base_outcomes = _served_outcomes(baseline)
            cutoff = baseline.quantile_ms(0.5)
            report = _serve(
                net, latency, sources, keys, ServePolicy(deadline_ms=cutoff)
            )
            expired = {
                t
                for t, (_ok, _term, status) in report.outcome_map().items()
                if status == STATUS_DEADLINE
            }
            assert report.counters["expired"] == len(expired) > 0
            served = _served_outcomes(report)
            assert set(served) | expired == set(base_outcomes)
            # Every non-expired ticket keeps the baseline verdict.
            for ticket, outcome in served.items():
                assert outcome == base_outcomes[ticket], seed
            # All lookups the deadline reaped were slower than the cutoff
            # in the baseline run (same static net, same latency fold).
            base_ms = dict(
                zip(baseline.tickets.tolist(), baseline.latency_ms.tolist())
            )
            for ticket in expired:
                assert base_ms[ticket] > cutoff

    def test_retries_recover_lookups_under_churn(self):
        net, _ = build_serving_net(512, seed=33, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        runtime = ServeRuntime(
            compiled, alive, policy=ServePolicy(max_attempts=4)
        )
        sources, keys = lookup_workload(net, 600, seed=33)
        runtime.submit_many(sources, keys)
        rng = random.Random("serve-policy-churn")
        for round_ in range(3):
            runtime.tick()
            victims = rng.sample(sorted(net.live_view()), 25)
            for victim in victims:
                net.crash(victim)
            runtime.set_view(*compile_protocol_view(net))
        runtime.drain()
        report = runtime.report()
        assert report.size == 600
        assert report.counters["retries"] > 0
        # A retry consumes a fresh attempt; the report must show it.
        assert int(report.attempts.max()) > 1


class _ScriptedNet:
    """A compiled-view stand-in whose step outcomes each test scripts.

    A runner on node ``n`` moves to ``n + 1`` unless ``finish`` holds
    ``n``: then it stops there with verdict ``finish[n]``.  Hop costs fall
    back to the policy's ``hop_ms``.
    """

    def __init__(self) -> None:
        self.finish = {}

    def _latency_state(self, latency):
        return None

    def frontier_step(self, cur, dest, alive, lat_state):
        nodes = cur.tolist()
        stop = np.asarray([n in self.finish for n in nodes], dtype=bool)
        success = np.asarray([self.finish.get(n, False) for n in nodes], dtype=bool)
        return np.where(stop, cur, cur + np.uint64(1)), ~stop, success, None


def _scripted(policy, sources):
    """A runtime over a :class:`_ScriptedNet`, one lookup per source."""
    net = _ScriptedNet()
    runtime = ServeRuntime(net, policy=policy)
    runtime.submit_many(sources, [999] * len(sources))
    return net, runtime


def _assert_free_list_sound(runtime):
    free = runtime.batcher._free
    assert len(free) == len(set(free))
    assert np.all(runtime.batcher.state[free] == FREE)


class TestTwinPairs:
    """Hedge-pair resolution when both runners of a ticket act in one tick.

    Every test starts lookups at nodes 10 and 20 (hedges every runner
    after tick 1) and scripts tick 2 and later; originals then stand one
    node past their source, hedges on it.
    """

    HEDGE = ServePolicy(hedge_quantile=0.5)

    def test_hedge_win_does_not_resurrect_a_failing_original(self):
        # The hedges finish OK while their originals fail with attempts
        # left: the originals' slots are already released and must not
        # be retried.
        policy = ServePolicy(hedge_quantile=0.5, max_attempts=2)
        net, runtime = _scripted(policy, [10, 20])
        runtime.tick()
        assert runtime.counters["hedges"] == 2
        net.finish.update({11: False, 21: False, 10: True, 20: True})
        runtime.drain()
        for _ in range(8):  # past any retry backoff
            runtime.tick()
        report = runtime.report()
        assert report.size == 2
        assert sorted(report.tickets.tolist()) == [0, 1]
        assert report.terminals.tolist() == [10, 20]
        c = report.counters
        assert (c["completed"], c["delivered"], c["retries"]) == (2, 2, 0)
        assert (c["hedge_wins"], c["hedge_cancelled"]) == (2, 2)
        assert runtime.in_flight == 0
        _assert_free_list_sound(runtime)

    def test_both_runners_ok_earlier_slot_wins(self):
        # Lookup 0 finishes in tick 1 and frees slot 0, so the hedge of
        # lookup 1 takes slot 0 (before its original's slot 1) while the
        # hedge of lookup 2 takes slot 3 (after its original's slot 2).
        net, runtime = _scripted(self.HEDGE, [100, 10, 20])
        net.finish[100] = True
        runtime.tick()
        assert runtime.counters["hedges"] == 2
        assert runtime.batcher.twin[[1, 2]].tolist() == [0, 3]
        net.finish.update({10: True, 11: True, 20: True, 21: True})
        runtime.tick()
        report = runtime.report()
        assert report.tickets.tolist() == [0, 1, 2]
        # Lookup 1's hedge (slot 0) won standing on its source; lookup
        # 2's original (slot 2) won one hop in.
        assert report.terminals.tolist() == [100, 10, 21]
        assert report.hops.tolist() == [0, 0, 1]
        c = report.counters
        assert (c["completed"], c["hedge_wins"], c["hedge_cancelled"]) == (3, 1, 2)
        assert runtime.in_flight == 0
        # Each cancelled twin is released just before its winner.
        assert runtime.batcher._free[-4:] == [1, 0, 3, 2]
        _assert_free_list_sound(runtime)

    def test_both_runners_fail_first_dropped_second_completes(self):
        net, runtime = _scripted(self.HEDGE, [10, 20])
        runtime.tick()
        b = runtime.batcher
        hedges = b.twin[[0, 1]].tolist()
        assert hedges == [2, 3]
        net.finish.update({10: False, 11: False, 20: False, 21: False})
        runtime.tick()
        report = runtime.report()
        # The originals (earlier slots) were dropped; the hedges completed
        # as plain failures, cancelling nothing more.
        assert report.tickets.tolist() == [0, 1]
        assert report.terminals.tolist() == [10, 20]
        assert report.status.tolist() == [STATUS_FAIL, STATUS_FAIL]
        c = report.counters
        assert (c["failed"], c["hedge_cancelled"], c["hedge_wins"]) == (2, 2, 0)
        assert b._free[-4:] == [0, 1, 2, 3]
        assert runtime.in_flight == 0
        _assert_free_list_sound(runtime)

    def test_completion_without_live_twin_releases_one_slot(self):
        net, runtime = _scripted(self.HEDGE, [10, 20])
        runtime.tick()
        # Tick 2: lookup 0's hedge fails and is dropped (its original
        # races on, untwinned); lookup 1's original wins and cancels its
        # hedge.  Only lookup 0's original is left.
        net.finish.update({10: False, 21: True})
        runtime.tick()
        b = runtime.batcher
        assert runtime.in_flight == 1
        assert b.twin[0] == -1
        free_before = list(b._free)
        net.finish[12] = True
        runtime.tick()
        assert b._free == free_before + [0]
        report = runtime.report()
        assert report.tickets.tolist() == [1, 0]
        assert report.terminals.tolist() == [21, 12]
        c = report.counters
        assert (c["completed"], c["hedge_cancelled"], c["hedge_wins"]) == (2, 2, 0)
        _assert_free_list_sound(runtime)


def _loop_stage_complete(runtime, slots):
    """Reference: complete failed ``slots`` one at a time, in order."""
    b = runtime.batcher
    done = []
    for s in slots.tolist():
        if b.state[s] == FREE:
            continue
        t = int(b.twin[s])
        if t >= 0 and b.state[t] != FREE and b.ticket[t] == b.ticket[s]:
            runtime.counters["hedge_cancelled"] += 1
            if b.is_hedge[s]:
                runtime.counters["hedge_wins"] += 1
            b.release(np.asarray([t]))
        done.append((int(b.ticket[s]), int(b.cur[s]), int(b.hops[s])))
        b.release(np.asarray([s]))
    runtime.counters["failed"] += len(done)
    return done


def _loop_drop_if_twin_alive(runtime, slots):
    """Reference: drop each failing runner whose twin races on, in order."""
    b = runtime.batcher
    keep = []
    for s in slots.tolist():
        t = int(b.twin[s])
        if t >= 0 and b.state[t] != FREE and b.ticket[t] == b.ticket[s]:
            runtime.counters["hedge_cancelled"] += 1
            b.twin[t] = -1
            b.release(np.asarray([s]))
        else:
            keep.append(s)
    return keep


@st.composite
def _runner_states(draw):
    """A runtime holding originals, hedge pairs and stale twin links.

    Stale links come from releasing a runner without unlinking its twin
    and handing its slot to a new ticket, so every ticket still has at
    most two runners in flight, twinned to each other.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    runtime = ServeRuntime(_ScriptedNet())
    b = runtime.batcher
    srcs = np.arange(n, dtype=np.uint64) + np.uint64(10)
    slots = runtime._start(np.arange(n), srcs, srcs, 0.0, np.inf, -1)
    hedged = slots[draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    if hedged.size:
        b.twin[hedged] = runtime._start(
            b.ticket[hedged], b.src[hedged], b.dest[hedged], 1.0, np.inf, hedged
        )
    occupied = np.flatnonzero(b.state != FREE).tolist()
    gone = draw(st.lists(st.sampled_from(occupied), unique=True, max_size=4))
    b.release(np.asarray(gone, dtype=np.int64))
    reused = draw(st.integers(min_value=0, max_value=len(gone)))
    if reused:
        fresh = np.full(reused, 99, dtype=np.uint64)
        runtime._start(np.arange(n, n + reused), fresh, fresh, 0.0, np.inf, -1)
    b.hops[:] = np.arange(b.capacity)
    b.cur[:] = np.arange(b.capacity, dtype=np.uint64) * np.uint64(3)
    return runtime


class TestMasksMatchPerSlotLoops:
    """The masked twin resolution equals the per-slot loops it replaced."""

    @staticmethod
    def _state(runtime):
        b = runtime.batcher
        return (dict(runtime.counters), list(b._free), b.state.tolist(),
                b.ticket.tolist(), b.twin.tolist())

    @settings(max_examples=150, deadline=None)
    @given(state=_runner_states(), data=st.data())
    def test_stage_complete(self, state, data):
        # Any slots in any order, free ones included (at most 20 are used).
        order = data.draw(st.permutations(range(24)))
        slots = np.asarray(order[: data.draw(st.integers(0, 24))], dtype=np.int64)
        masked, loop = state, copy.deepcopy(state)
        stage = []
        masked._stage_complete(stage, slots, STATUS_FAIL, False)
        expected = _loop_stage_complete(loop, slots)
        got = [(int(t), int(c), int(h)) for batch in stage
               for t, c, h in zip(batch.tickets, batch.terminals, batch.hops)]
        assert got == expected
        assert self._state(masked) == self._state(loop)

    @settings(max_examples=150, deadline=None)
    @given(state=_runner_states(), data=st.data())
    def test_drop_if_twin_alive(self, state, data):
        live = np.flatnonzero(state.batcher.state != FREE).tolist()
        slots = np.asarray(data.draw(st.permutations(live)), dtype=np.int64)
        masked, loop = state, copy.deepcopy(state)
        kept = masked._drop_if_twin_alive(slots).tolist()
        assert kept == _loop_drop_if_twin_alive(loop, slots)
        assert self._state(masked) == self._state(loop)


class TestDomainBuckets:
    def test_refill_caps_at_burst(self):
        buckets = DomainBuckets(rate=3.0, burst=5.0, domains=("a",))
        code = buckets.code("a")
        buckets.tokens[code] = 0.0
        buckets.refill()
        assert buckets.tokens[code] == 3.0
        buckets.refill()
        assert buckets.tokens[code] == 5.0  # capped, not 6

    def test_admit_is_fifo_within_batch(self):
        buckets = DomainBuckets(rate=0.0, burst=2.0, domains=("a", "b"))
        a, b = buckets.code("a"), buckets.code("b")
        codes = np.asarray([a, a, b, a, b], dtype=np.int64)
        admitted = buckets.admit(codes)
        # Two tokens per domain: the first two of each domain win, batch order.
        assert admitted.tolist() == [True, True, True, False, True]
        assert buckets.tokens[a] == 0.0 and buckets.tokens[b] == 0.0
        assert not buckets.admit(codes).any()

    def test_new_domains_start_with_full_burst(self):
        buckets = DomainBuckets(rate=1.0, burst=4.0)
        code = buckets.code("late")
        assert buckets.tokens[code] == 4.0
        assert buckets.domains == ("late",)


class TestAdmissionAndACL:
    def test_acl_denies_whole_domain_immediately(self):
        net, _ = build_serving_net(128, seed=41, with_latency=False)
        labeler = domain_labeler(net)
        sources, keys = lookup_workload(net, 120, seed=41)
        blocked = labeler(int(sources[0]))
        runtime = ServeRuntime(
            *compile_protocol_view(net),
            middlewares=[DomainACL(deny_sources=[blocked])],
            domain_of=labeler,
        )
        runtime.submit_many(sources, keys)
        runtime.drain()
        report = runtime.report()
        denied = report.status == STATUS_DENIED
        assert report.counters["denied"] == int(np.count_nonzero(denied)) > 0
        by_ticket = dict(zip(report.tickets.tolist(), report.status.tolist()))
        for ticket, src in enumerate(sources.tolist()):
            if labeler(src) == blocked:
                assert by_ticket[ticket] == STATUS_DENIED
            else:
                assert by_ticket[ticket] != STATUS_DENIED
        # Denied lookups never entered the frontier.
        assert np.all(report.hops[denied] == 0)
        assert not np.any(report.success[denied])

    def test_open_loop_sheds_over_admission_rate(self):
        net, _ = build_serving_net(256, seed=42, with_latency=False)
        sources, keys = lookup_workload(net, 800, seed=42)
        runtime = ServeRuntime(
            *compile_protocol_view(net),
            policy=ServePolicy(admit_rate=8.0, admit_burst=16.0),
            domain_of=domain_labeler(net),
        )
        report = run_open_loop(runtime, sources, keys, per_tick=200)
        c = report.counters
        assert c["shed"] > 0
        assert c["shed"] == int(np.count_nonzero(report.status == STATUS_SHED))
        # Shed or not, every submission completes exactly once.
        assert c["completed"] == c["submitted"] == 800
        assert c["admitted"] + c["shed"] + c["denied"] == 800

    def test_no_admission_control_without_rate(self):
        net, _ = build_serving_net(64, seed=43, with_latency=False)
        runtime = ServeRuntime(*compile_protocol_view(net))
        assert runtime.buckets is None


class TestSLOMiddleware:
    def test_serving_run_lands_in_slo_report(self):
        net, latency = build_serving_net(128, seed=51)
        sources, keys = lookup_workload(net, 90, seed=51)
        with collecting() as registry:
            report = _serve(
                net,
                latency,
                sources,
                keys,
                NO_POLICY,
                middlewares=[SLOMiddleware("serve.test")],
            )
        slo = SLOReport.from_snapshot(registry.snapshot())
        row = slo.row("serve.test")
        assert row is not None
        assert row.samples == 90
        assert row.delivered == report.counters["delivered"]
        assert row.p50_ms > 0
        counters = registry.snapshot().data["counters"]
        assert counters["serve.completed"] == 90
        assert counters["serve.submitted"] == 90
