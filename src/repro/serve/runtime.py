"""The event-loop serving runtime: frontier-at-a-time batched lookups.

:class:`ServeRuntime` owns a :class:`~repro.serve.batcher.FrontierBatcher`
of in-flight lookups over one compiled network view.  Every
:meth:`~ServeRuntime.tick`:

1. waiting (backed-off) slots age and re-enter the frontier;
2. all RUNNING slots are gathered into contiguous arrays and advanced one
   greedy hop through a single fused
   :meth:`~repro.perf.kernels.CompiledNetwork.frontier_step` call — no
   per-message Python callbacks, no per-lookup dispatch;
3. policy is applied *between* hops as vector masks: dead-current-node
   losses, per-attempt hop caps, terminal outcomes with bounded
   exponential-backoff retries against alternate contacts, end-to-end
   deadline expiry, and hedge launches for the slowest p-quantile;
4. each completing pass gathers its slots' columns (hedge twins resolve
   as masks), and the tick's completions are emitted as one batch
   through the middleware chain and the ``serve.*`` metrics.

Outcome contract: on a static view, every lookup that completes with a
routing outcome (OK or FAIL) has the success/terminal verdict of the
scalar engines — policy shifts *when* and *whether* a lookup completes
(latency, shed/expired counters), never *where* it lands.  That is what
the property tests pin and what makes the runtime differentially
checkable against :class:`~repro.simulation.async_lookup.AsyncEngine`
(:func:`repro.verify.oracles.compare_serving`).

Under churn, call :meth:`~ServeRuntime.set_view` with a fresh
:func:`~repro.serve.batcher.compile_protocol_view` snapshot between
ticks: in-flight state is id-based and survives the swap; lookups parked
on nodes that died resolve as LOST exactly like AsyncEngine's in-flight
message losses.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..perf.kernels import CompiledNetwork, _in_sorted
from ..perf.latency import LatencyTable
from .batcher import FREE, RUNNING, WAITING, FrontierBatcher
from .middleware import CompletionBatch, Middleware, SubmitBatch
from .policy import NO_POLICY, DomainBuckets, ServePolicy

__all__ = [
    "STATUS_DEADLINE",
    "STATUS_DENIED",
    "STATUS_FAIL",
    "STATUS_HOPCAP",
    "STATUS_LOST",
    "STATUS_OK",
    "STATUS_SHED",
    "ServeReport",
    "ServeRuntime",
    "run_closed_loop",
    "run_open_loop",
]

#: Completion status codes (``CompletionBatch.status``).
STATUS_OK = 0  # served; ``success`` holds the routing verdict (True)
STATUS_FAIL = 1  # served; stuck short of the key, not responsible
STATUS_LOST = 2  # current node died mid-flight (AsyncEngine's lost message)
STATUS_HOPCAP = 3  # exceeded the per-attempt hop cap
STATUS_DEADLINE = 4  # end-to-end deadline expired
STATUS_SHED = 5  # admission control: no token for the source's domain
STATUS_DENIED = 6  # vetoed by a before-submit middleware (ACL)

#: The ``counters`` key each unsuccessful status is tallied under.
_COUNTER_OF = {
    STATUS_FAIL: "failed",
    STATUS_LOST: "lost",
    STATUS_HOPCAP: "hop_limit",
    STATUS_DEADLINE: "expired",
    STATUS_SHED: "shed",
    STATUS_DENIED: "denied",
}

#: Statuses that carry a routing outcome (the lookup was actually served).
SERVED_STATUSES = (STATUS_OK, STATUS_FAIL)


@dataclass
class ServeReport(CompletionBatch):
    """Everything a finished serving run produced, in completion order."""

    counters: Dict[str, int]

    def quantile_ms(self, q: float) -> float:
        """Latency quantile over delivered lookups (NaN when none)."""
        ms = self.latency_ms[self.delivered]
        return float(np.quantile(ms, q)) if ms.size else float("nan")

    def outcome_map(self) -> Dict[int, Tuple[bool, int, int]]:
        """ticket -> (success, terminal, status) for equivalence checks."""
        return {
            int(t): (bool(s), int(term), int(st))
            for t, s, term, st in zip(
                self.tickets, self.success, self.terminals, self.status
            )
        }

    def summary(self) -> str:
        """One-line human summary of counters and latency quantiles."""
        c = self.counters
        return (
            f"{c['submitted']} submitted / {c['completed']} completed / "
            f"{c['delivered']} delivered  "
            f"(shed {c['shed']}, denied {c['denied']}, expired {c['expired']}, "
            f"lost {c['lost']}, retries {c['retries']}, hedges {c['hedges']}, "
            f"p50 {self.quantile_ms(0.5):.1f} ms, "
            f"p99 {self.quantile_ms(0.99):.1f} ms, {c['ticks']} ticks)"
        )


class ServeRuntime:
    """Batched lookup serving over one compiled network view."""

    def __init__(
        self,
        compiled: CompiledNetwork,
        alive: Optional[np.ndarray] = None,
        *,
        policy: Optional[ServePolicy] = None,
        latency: Optional[LatencyTable] = None,
        middlewares: Sequence[Middleware] = (),
        domain_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        self.compiled = compiled
        self.alive = alive
        self.policy = policy if policy is not None else NO_POLICY
        self.latency = latency
        self._lat_state = compiled._latency_state(latency)
        self.middlewares = list(middlewares)
        self.domain_of = domain_of
        self._domain_cache: Dict[int, str] = {}
        self.batcher = FrontierBatcher()
        self.buckets: Optional[DomainBuckets] = None
        if self.policy.admit_rate is not None:
            self.buckets = DomainBuckets(
                self.policy.admit_rate, self.policy.admit_burst
            )
        self._next_ticket = 0
        self.completed_tickets = 0
        self.counters: Dict[str, int] = {
            key: 0
            for key in (
                "submitted", "admitted", "shed", "denied", "completed",
                "delivered", "failed", "lost", "hop_limit", "expired",
                "retries", "hedges", "hedge_wins", "hedge_cancelled",
                "ticks",
            )
        }
        self._done: List[CompletionBatch] = []

    # ------------------------------------------------------------- views

    def set_view(
        self, compiled: CompiledNetwork, alive: Optional[np.ndarray] = None
    ) -> None:
        """Swap the network snapshot (after churn); in-flight state survives."""
        self.compiled = compiled
        self.alive = alive
        self._lat_state = compiled._latency_state(self.latency)

    @property
    def in_flight(self) -> int:
        """Slots (runners) currently RUNNING or WAITING."""
        return self.batcher.in_flight

    @property
    def outstanding(self) -> int:
        """Tickets admitted but not yet completed."""
        return self._next_ticket - self.completed_tickets

    # ------------------------------------------------------------ submit

    def _domain(self, node_id: int) -> str:
        label = self._domain_cache.get(node_id)
        if label is None:
            label = self.domain_of(node_id) if self.domain_of else ""
            self._domain_cache[node_id] = label
        return label

    def submit_many(
        self,
        sources: Sequence[int],
        keys: Sequence[int],
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Admit a batch of lookups; returns their tickets.

        Every submission gets a ticket and exactly one eventual
        completion: denied and shed lookups complete immediately with
        their status, the rest enter the frontier.
        """
        src = np.ascontiguousarray(np.asarray(sources, dtype=np.uint64))
        dst = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
        if src.shape != dst.shape:
            raise ValueError(f"{src.size} sources vs {dst.size} keys")
        n = int(src.size)
        tickets = np.arange(
            self._next_ticket, self._next_ticket + n, dtype=np.int64
        )
        self._next_ticket += n
        self.counters["submitted"] += n
        self._inc_obs("serve.submitted", n)
        domains = [self._domain(s) for s in src.tolist()]
        batch = SubmitBatch(sources=src, keys=dst, domains=domains)
        deny = np.zeros(n, dtype=bool)
        for mw in self.middlewares:
            mask = mw.before_submit(batch)
            if mask is not None:
                deny |= mask
        stage: List[CompletionBatch] = []
        denied_idx = np.flatnonzero(deny)
        if denied_idx.size:
            stage.append(self._refuse(denied_idx, STATUS_DENIED, tickets, src, dst))
        passed = np.flatnonzero(~deny)
        if self.buckets is not None and passed.size:
            codes = np.asarray(
                [self.buckets.code(domains[i]) for i in passed.tolist()],
                dtype=np.int64,
            )
            admitted = self.buckets.admit(codes)
            shed_idx = passed[~admitted]
            if shed_idx.size:
                stage.append(self._refuse(shed_idx, STATUS_SHED, tickets, src, dst))
            passed = passed[admitted]
        if passed.size:
            self.counters["admitted"] += int(passed.size)
            self._start(
                tickets[passed], src[passed], dst[passed], 0.0,
                self.policy.deadline_ms if deadline_ms is None else deadline_ms,
                -1,
            )
        self._emit(stage)
        return tickets

    def _refuse(
        self,
        idx: np.ndarray,
        status: int,
        tickets: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> CompletionBatch:
        """Submit-time completions: the lookups never enter the frontier."""
        key = _COUNTER_OF[status]
        self.counters[key] += int(idx.size)
        self._inc_obs(f"serve.{key}", int(idx.size))
        none = np.zeros(idx.size, dtype=np.int64)
        return _completions(
            status, False, tickets[idx], src[idx], dst[idx], src[idx],
            none, none.astype(np.float64), none.astype(np.int32),
        )

    # -------------------------------------------------------------- tick

    def tick(self) -> int:
        """One frontier iteration; returns the number of lookups stepped."""
        b = self.batcher
        policy = self.policy
        self.counters["ticks"] += 1
        if self.buckets is not None:
            self.buckets.refill()
        waiting = b.slots_in(WAITING)
        if waiting.size:
            b.elapsed_ms[waiting] += policy.tick_ms
            b.wait[waiting] -= 1
            ready = waiting[b.wait[waiting] <= 0]
            b.state[ready] = RUNNING
        stage: List[CompletionBatch] = []
        act = b.slots_in(RUNNING)
        moved_count = 0
        if act.size:
            if self.alive is not None:
                lost = ~_in_sorted(self.alive, b.cur[act])
                if np.any(lost):
                    self._fail_or_retry(stage, act[lost], STATUS_LOST)
                    act = act[~lost]
            if act.size:
                over = b.hops[act] >= policy.hop_cap
                if np.any(over):
                    self._fail_or_retry(stage, act[over], STATUS_HOPCAP)
                    act = act[~over]
            if act.size:
                next_ids, moved, success, hop_ms = self.compiled.frontier_step(
                    b.cur[act], b.dest[act], self.alive, self._lat_state
                )
                b.cur[act] = next_ids
                mv = act[moved]
                moved_count = int(mv.size)
                b.hops[mv] += 1
                if hop_ms is not None:
                    b.elapsed_ms[mv] += hop_ms[moved]
                else:
                    b.elapsed_ms[mv] += policy.hop_ms
                fin = act[~moved]
                if fin.size:
                    verdict = success[~moved]
                    ok = fin[verdict]
                    if ok.size:
                        self._stage_complete(stage, ok, STATUS_OK, True)
                    bad = fin[~verdict]
                    if bad.size:
                        self._fail_or_retry(stage, bad, STATUS_FAIL)
        # Unbounded (infinite) deadlines never expire.
        open_slots = np.flatnonzero(b.state != FREE)
        expired = open_slots[b.elapsed_ms[open_slots] > b.deadline_ms[open_slots]]
        if expired.size:
            self._stage_complete(stage, expired, STATUS_DEADLINE, False)
        self._maybe_hedge()
        self._emit(stage)
        return moved_count

    def drain(self, max_ticks: int = 1_000_000) -> None:
        """Tick until every admitted lookup has completed."""
        ticks = 0
        while self.in_flight:
            self.tick()
            ticks += 1
            if ticks > max_ticks:
                raise RuntimeError(f"serving did not drain in {max_ticks} ticks")

    def report(self) -> ServeReport:
        """Snapshot of all completions so far (completion order)."""
        parts = self._done or [self._gather(np.zeros(0, np.int64), STATUS_OK, False)]
        return ServeReport(counters=dict(self.counters), **_concat(parts))

    # ------------------------------------------------------------ policy

    def _fail_or_retry(
        self, stage: List[CompletionBatch], slots: np.ndarray, status: int
    ) -> None:
        b = self.batcher
        policy = self.policy
        # A runner whose twin won earlier in this tick is already released.
        slots = slots[b.state[slots] != FREE]
        retryable = (b.attempt[slots] < policy.max_attempts) & ~b.is_hedge[slots]
        retry = slots[retryable]
        done = slots[~retryable]
        if retry.size:
            self.counters["retries"] += int(retry.size)
            self._inc_obs("serve.retries", int(retry.size))
            b.attempt[retry] += 1
            b.hops[retry] = 0
            starts = b.src[retry]
            if policy.retry_alternates:
                starts = self._alternate_contacts(b.src[retry], b.attempt[retry])
            b.cur[retry] = starts
            backoff = policy.retry_backoff_ms * np.power(
                2.0, b.attempt[retry].astype(np.float64) - 2.0
            )
            b.wait[retry] = np.maximum(
                np.ceil(backoff / max(policy.tick_ms, 1e-9)), 1.0
            ).astype(np.int32)
            b.state[retry] = WAITING
        if done.size:
            # A failing runner whose hedge twin is still in flight does not
            # doom the ticket: drop it silently and let the twin race on.
            done = self._drop_if_twin_alive(done)
        if done.size:
            self._stage_complete(stage, done, status, False)

    def _drop_if_twin_alive(self, slots: np.ndarray) -> np.ndarray:
        """Drop failing runners whose twin races on; returns the rest.

        When both runners of a pair fail together, the earlier one in
        ``slots`` is dropped and the later completes with no twin.
        """
        b = self.batcher
        twin = b.twin[slots]
        live = self._live_twin(slots)
        # Position of each slot in ``slots`` (-1 elsewhere): a runner is
        # dropped unless its twin also fails here, earlier in ``slots``.
        at = np.full(b.capacity, -1, dtype=np.int64)
        at[slots] = np.arange(slots.size)
        twin_at = at[np.maximum(twin, 0)]
        drop = live & ((twin_at < 0) | (twin_at > at[slots]))
        if np.any(drop):
            self.counters["hedge_cancelled"] += int(np.count_nonzero(drop))
            b.twin[twin[drop]] = -1
            b.release(slots[drop])
        return slots[~drop]

    def _live_twin(self, slots: np.ndarray) -> np.ndarray:
        """Mask: the slot's twin is still in flight on the same ticket."""
        b = self.batcher
        twin = b.twin[slots]
        t = np.maximum(twin, 0)
        return (twin >= 0) & (b.state[t] != FREE) & (b.ticket[t] == b.ticket[slots])

    def _alternate_contacts(
        self, srcs: np.ndarray, attempts: np.ndarray
    ) -> np.ndarray:
        """Attempt ``k`` restarts at the source's ``(k-2)``-th contact."""
        c = self.compiled
        known = _in_sorted(c.ids, srcs)
        out = srcs.copy()
        if not np.any(known):
            return out
        pos = np.searchsorted(c.ids, srcs[known])
        start = c.indptr[pos].astype(np.int64)
        count = c.indptr[pos + 1].astype(np.int64) - start
        pick = np.where(
            count > 0,
            start + (attempts[known].astype(np.int64) - 2) % np.maximum(count, 1),
            -1,
        )
        alt = np.where(pick >= 0, c.neighbors[np.maximum(pick, 0)], srcs[known])
        out[known] = alt
        return out

    def _maybe_hedge(self) -> None:
        policy = self.policy
        if policy.hedge_quantile is None:
            return
        b = self.batcher
        running = b.slots_in(RUNNING)
        if running.size < 2:
            return
        elapsed = b.elapsed_ms[running]
        threshold = max(
            float(np.quantile(elapsed, policy.hedge_quantile)),
            policy.hedge_min_ms,
        )
        eligible = running[
            (elapsed >= threshold)
            & ~b.is_hedge[running]
            & (b.twin[running] < 0)
            & (b.attempt[running] == 1)
        ]
        if not eligible.size:
            return
        n = int(eligible.size)
        self.counters["hedges"] += n
        self._inc_obs("serve.hedges", n)
        b.twin[eligible] = self._start(
            b.ticket[eligible], b.src[eligible], b.dest[eligible],
            b.elapsed_ms[eligible], b.deadline_ms[eligible], eligible,
        )

    def _start(
        self,
        tickets: np.ndarray,
        src: np.ndarray,
        dest: np.ndarray,
        elapsed_ms,
        deadline_ms,
        twin,
    ) -> np.ndarray:
        """Start first-attempt runners at their sources; returns their slots.

        A runner started with a twin (``twin >= 0``) is that twin's hedge.
        """
        b = self.batcher
        slots = b.alloc(int(tickets.size))
        b.ticket[slots] = tickets
        b.src[slots] = src
        b.cur[slots] = src
        b.dest[slots] = dest
        b.hops[slots] = 0
        b.elapsed_ms[slots] = elapsed_ms
        b.deadline_ms[slots] = deadline_ms
        b.attempt[slots] = 1
        b.wait[slots] = 0
        b.twin[slots] = twin
        b.is_hedge[slots] = np.asarray(twin) >= 0
        b.state[slots] = RUNNING
        return slots

    # ------------------------------------------------------- completions

    def _stage_complete(
        self,
        stage: List[CompletionBatch],
        slots: np.ndarray,
        status: int,
        success: bool,
    ) -> None:
        """Complete tickets (first runner wins; hedge siblings cancelled)."""
        b = self.batcher
        slots = slots[b.state[slots] != FREE]
        _, first = np.unique(b.ticket[slots], return_index=True)
        slots = slots[np.sort(first)]
        if not slots.size:
            return
        if status in _COUNTER_OF:
            self.counters[_COUNTER_OF[status]] += int(slots.size)
        live = self._live_twin(slots)
        self.counters["hedge_cancelled"] += int(np.count_nonzero(live))
        self.counters["hedge_wins"] += int(np.count_nonzero(live & b.is_hedge[slots]))
        stage.append(self._gather(slots, status, success))
        # Release each cancelled twin just before its winner, so the LIFO
        # free list hands slots out in completion order.
        order = np.stack([np.where(live, b.twin[slots], -1), slots], axis=1).ravel()
        b.release(order[order >= 0])

    def _gather(self, slots: np.ndarray, status: int, success: bool) -> CompletionBatch:
        """The completions of ``slots`` (read before they are released)."""
        b = self.batcher
        return _completions(
            status, success, b.ticket[slots], b.src[slots], b.dest[slots],
            b.cur[slots], b.hops[slots], b.elapsed_ms[slots], b.attempt[slots],
        )

    def _emit(self, stage: List[CompletionBatch]) -> None:
        if not stage:
            return
        batch = CompletionBatch(**_concat(stage))
        self.completed_tickets += batch.size
        self.counters["completed"] += batch.size
        delivered = int(np.count_nonzero(batch.delivered))
        self.counters["delivered"] += delivered
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("serve.completed").inc(batch.size)
            registry.counter("serve.delivered").inc(delivered)
            served = np.isin(batch.status, SERVED_STATUSES)
            if np.any(served):
                registry.histogram("serve.latency_ms").observe_many(
                    batch.latency_ms[served].tolist()
                )
                registry.histogram("serve.hops").observe_many(
                    batch.hops[served].tolist()
                )
        for mw in self.middlewares:
            mw.after_complete(batch)
        self._done.append(batch)

    def _inc_obs(self, name: str, n: int) -> None:
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(name).inc(n)


def _completions(
    status: int, success: bool, tickets, sources, keys, terminals, hops,
    latency_ms, attempts,
) -> CompletionBatch:
    """One :class:`CompletionBatch` with a shared status and verdict."""
    n = tickets.size
    return CompletionBatch(
        tickets=tickets, sources=sources, keys=keys, terminals=terminals,
        hops=hops, latency_ms=latency_ms, attempts=attempts,
        success=np.full(n, success, dtype=bool),
        status=np.full(n, status, dtype=np.int16),
    )


def _concat(parts: Sequence[CompletionBatch]) -> Dict[str, np.ndarray]:
    """Every completion column of ``parts``, concatenated in order."""
    return {
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in fields(CompletionBatch)
    }


# ---------------------------------------------------------------- drivers


def _run(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    room: Callable[[ServeRuntime], int],
    on_tick: Optional[Callable[[ServeRuntime, int], None]],
) -> ServeReport:
    """Submit up to ``room(runtime)`` lookups, then tick; until drained."""
    src = np.asarray(sources, dtype=np.uint64)
    dst = np.asarray(keys, dtype=np.uint64)
    total = int(src.size)
    i = 0
    ticks = 0
    while i < total or runtime.in_flight:
        take = min(room(runtime), total - i)
        if take > 0:
            runtime.submit_many(src[i : i + take], dst[i : i + take])
            i += take
        runtime.tick()
        ticks += 1
        if on_tick is not None:
            on_tick(runtime, ticks)
    return runtime.report()


def run_closed_loop(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    concurrency: int = 1024,
    on_tick: Optional[Callable[[ServeRuntime, int], None]] = None,
) -> ServeReport:
    """Fixed-concurrency driver: each completion admits the next lookup.

    ``on_tick(runtime, tick_index)`` runs after every tick — the hook for
    injecting churn and swapping in a recompiled view mid-run.
    """
    return _run(
        runtime, sources, keys, lambda rt: concurrency - rt.outstanding, on_tick
    )


def run_open_loop(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    per_tick: int = 1024,
    on_tick: Optional[Callable[[ServeRuntime, int], None]] = None,
) -> ServeReport:
    """Offered-rate driver: ``per_tick`` lookups submitted every tick,
    regardless of completions (admission control does the protecting)."""
    return _run(runtime, sources, keys, lambda rt: per_tick, on_tick)
