"""The three benchmark workloads: setup, one measured round, and gates.

Every workload builds its inputs from the seed alone, and a round is a
pure function of the set-up state and its part: the same seed gives the
same outcome arrays in every round of a part and in every process.  The
runner repeats rounds for the measured period and demands exactly that
(``digest``).  A workload's inputs are split into ``parts`` rounds; the
deterministic metrics are taken over the first round of every part.

Layers are reached through module attributes (``serve_batcher.compile_
protocol_view``, ``kernels.compile_network``, ``perf_storage.bulk_put``,
``serve_runtime.run_closed_loop``) so the traced run's wrappers see these
calls.  Set-ups and rounds call ``meter.mark()`` between their steps, where
the runner's ``hostspeed.Meter`` may sample the host's speed.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

import hostspeed
from repro.core.routing import LiveSet
from repro.dhts.kandy import KandyNetwork
from repro.experiments.common import build_topology_setup
from repro.obs.metrics import collecting
from repro.perf import kernels
from repro.perf import storage as perf_storage
from repro.perf.latency import LatencyTable
from repro.serve import batcher as serve_batcher
from repro.serve import runtime as serve_runtime
from repro.serve.middleware import SLOMiddleware, TracingMiddleware
from repro.serve.policy import ServePolicy
from repro.serve.testbed import (
    SERVE_TOPOLOGY,
    build_serving_net,
    crash_fraction,
    domain_labeler,
    lookup_workload,
)
from repro.storage.store import HierarchicalStore
from repro.topology.transit_stub import TransitStubTopology
from repro.verify.fuzz import FUZZ_PATHS
from repro.verify.oracles import compare_routing, compare_serving, compare_storage, storage_workload

__all__ = ["WORKLOADS", "RoundResult", "compare_rows"]


@dataclass
class RoundResult:
    """One measured round: its size, time and outcomes."""

    wall_s: float
    #: ``wall_s`` rescaled to the reference host speed (``hostspeed``).
    reference_s: float
    attempted: int
    delivered: int
    failed: int
    #: Virtual transit-stub ms and hop counts of the delivered lookups.
    latency_ms: np.ndarray
    hops: np.ndarray
    #: Hash of every outcome array; equal across rounds of one seed.
    digest: str
    part: int = 0
    detail: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def compare_rows(label: str, actual: Sequence, expected: Sequence,
                 max_reported: int = 5) -> List[str]:
    """Row-by-row equality of two outcome tables; violations as text."""
    out: List[str] = []
    if len(actual) != len(expected):
        return [f"{label}: {len(actual)} rows but {len(expected)} expected"]
    for i, (a, e) in enumerate(zip(actual, expected)):
        if a != e:
            out.append(f"{label}: row {i} is {a!r}, expected {e!r}")
            if len(out) >= max_reported:
                break
    return out


def _fixed_router_topology(node_ids: Sequence[int], seed: int) -> TransitStubTopology:
    """The serving router graph, fixed across seeds; the seed attaches nodes.

    Keeping the 104-router graph constant keeps the virtual-latency
    metrics comparable across seeds (a fresh graph per seed moves the
    median by ~10%); node ids, domains, attachments and lookups still
    come from the seed.
    """
    topology = TransitStubTopology(SERVE_TOPOLOGY, random.Random("perfbench:routers"))
    attach_rng = random.Random(f"perfbench:attach:{seed}")
    for node_id in sorted(node_ids):
        topology.attach_node(node_id, attach_rng)
    return topology


def _completed_once(report, submitted: int, outstanding: int) -> List[str]:
    """Every submitted ticket completed exactly once, none left in flight."""
    out = []
    if report.size != submitted or not np.array_equal(
        np.sort(report.tickets), np.arange(submitted)
    ):
        out.append(f"{submitted} tickets submitted but {report.size} completions, "
                   f"not one per ticket")
    if outstanding:
        out.append(f"{outstanding} tickets still outstanding after the loop")
    return out


# ---------------------------------------------------------------- serving


#: serve_steady: share of nodes crashed after the last stabilization.
DEAD_SHARE = 0.01
#: serve_churn: crash and join ``CHURN_NODES`` nodes every ``CHURN_EVERY``
#: ticks, and run one stabilize round every ``STABILIZE_EVERY`` ticks.
CHURN_EVERY = 10
CHURN_NODES = 8
STABILIZE_EVERY = 50
#: paper_static: share of nodes failed for the alive-filtered routes.
STATIC_DEAD_SHARE = 0.10


@dataclass(frozen=True)
class ServeParams:
    nodes: int = 4096
    #: Lookups per run, split evenly over the workload's parts.
    lookups: int = 120_000
    concurrency: int = 2048
    join_pool: int = 1024
    gate_sample: int = 2000
    gate_nodes: int = 512
    gate_lookups: int = 400
    gate_crashes: int = 30


class ServeSteady:
    """Closed-loop serving on a settled view with a static dead set."""

    name = "serve_steady"
    #: The lookups are served in three rounds of a third each: short
    #: rounds, so a run samples the host's speed many times.
    parts = 3

    def __init__(self, seed: int, params: ServeParams = ServeParams()) -> None:
        self.seed = seed
        self.p = params

    def setup(self, meter=None):
        p = self.p
        meter = meter or hostspeed.Meter()
        net, _ = build_serving_net(p.nodes, self.seed, with_latency=False)
        meter.mark()
        topology = _fixed_router_topology(net.nodes, self.seed)
        latency = LatencyTable.from_topology(topology, sorted(net.nodes))
        meter.mark()
        # Lookups are drawn before the crash: those sourced at a crashed
        # node are lost at their first tick, so failed_share is never 0,
        # and the alive filter has dead contacts to skip.
        sources, keys = lookup_workload(net, p.lookups, self.seed)
        crash_fraction(net, DEAD_SHARE, self.seed)
        compiled, alive = serve_batcher.compile_protocol_view(net)
        return dict(net=net, latency=latency, compiled=compiled, alive=alive,
                    sources=sources, keys=keys)

    def prepare(self, st) -> None:
        """Per-run preparation outside setup_s (none: rounds share the view)."""

    def lookups(self, st, part: int):
        """This part's share of the seeded (source, key) lookups."""
        share = len(st["sources"]) // self.parts
        cut = slice(part * share, (part + 1) * share)
        return st["sources"][cut], st["keys"][cut]

    def run_round(self, st, part: int = 0, meter=None) -> RoundResult:
        net = st["net"]
        meter = meter or hostspeed.Meter()
        sources, keys = self.lookups(st, part)
        rt = serve_runtime.ServeRuntime(
            st["compiled"], st["alive"], latency=st["latency"],
            middlewares=[TracingMiddleware(), SLOMiddleware("perfbench")],
            domain_of=domain_labeler(net),
        )
        meter.start()
        with collecting():
            report = serve_runtime.run_closed_loop(
                rt, sources, keys, concurrency=self.p.concurrency,
                on_tick=lambda runtime, tick: meter.mark(),
            )
        return _serve_result(meter.stop(), report, len(sources), rt.outstanding, part)

    def check(self, st, result: RoundResult) -> List[str]:
        report = result.detail["report"]
        out = _completed_once(report, result.attempted, result.detail["outstanding"])
        alive = st["alive"]
        order = np.argsort(report.tickets)
        src = report.sources[order]
        status = report.status[order]
        dead_src = ~np.isin(src, alive)
        lost = status == serve_runtime.STATUS_LOST
        if not np.array_equal(lost, dead_src):
            out.append(
                f"{int(lost.sum())} lookups lost but {int(dead_src.sum())} "
                f"were sourced at crashed nodes"
            )
        served = np.flatnonzero(np.isin(status, serve_runtime.SERVED_STATUSES))
        rng = np.random.default_rng(self.seed)
        pick = order[np.sort(rng.choice(served, min(self.p.gate_sample, served.size),
                                        replace=False))]
        expected = st["compiled"].route(
            report.sources[pick], report.keys[pick], alive=LiveSet(alive.tolist())
        )
        out += compare_rows(
            "served vs CompiledNetwork.route (success, terminal, hops)",
            list(zip(report.success[pick].tolist(), report.terminals[pick].tolist(),
                     report.hops[pick].tolist())),
            list(zip(expected.success.tolist(), expected.terminals.tolist(),
                     expected.hops.tolist())),
        )
        return out


def _serve_result(times, report, submitted: int, outstanding: int,
                  part: int) -> RoundResult:
    """A serving round; ``submitted`` comes from the inputs, not the report.

    ``times`` is the round's ``(wall_s, reference_s)``.
    """
    delivered = report.success
    return RoundResult(
        *times,
        attempted=submitted,
        delivered=int(delivered.sum()),
        failed=int(submitted - delivered.sum()),
        latency_ms=report.latency_ms[delivered],
        hops=report.hops[delivered],
        digest=_digest(report.tickets, report.status, report.terminals,
                       report.hops, report.latency_ms, report.attempts,
                       repr(sorted(report.counters.items())).encode()),
        part=part,
        detail={"report": report, "outstanding": outstanding},
    )


class ServeChurn(ServeSteady):
    """Closed-loop serving beside crashes, joins, stabilize and recompiles."""

    name = "serve_churn"
    #: Three independent churn episodes of a third of the lookups each,
    #: every one from the same settled net.

    def setup(self, meter=None):
        p = self.p
        meter = meter or hostspeed.Meter()
        net, _ = build_serving_net(p.nodes, self.seed, with_latency=False)
        meter.mark()
        # Joiners must be attached to the topology before the latency table
        # is built: an unattached id raises KeyError in set_view.
        rng = random.Random(f"perfbench:joiners:{self.seed}")
        pool: List[Tuple[int, tuple]] = []
        taken = set(net.nodes)
        while len(pool) < p.join_pool:
            node_id = rng.randrange(net.space.size)
            if node_id not in taken:
                taken.add(node_id)
                pool.append((node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))]))
        topology = _fixed_router_topology(taken, self.seed)
        latency = LatencyTable.from_topology(topology, sorted(taken))
        meter.mark()
        compiled, alive = serve_batcher.compile_protocol_view(net)
        sources, keys = lookup_workload(net, p.lookups, self.seed)
        return dict(net=net, pool=pool, latency=latency, compiled=compiled,
                    alive=alive, sources=sources, keys=keys)

    def prepare(self, st) -> None:
        """Snapshot the settled net once, so every round starts from it."""
        st["snapshot"] = pickle.dumps(st.pop("net"), protocol=pickle.HIGHEST_PROTOCOL)

    def run_round(self, st, part: int = 0, meter=None) -> RoundResult:
        p = self.p
        meter = meter or hostspeed.Meter()
        net = pickle.loads(st["snapshot"])
        pool = iter(st["pool"])
        churn_rng = random.Random(f"perfbench:churn:{self.seed}:{part}")
        sources, keys = self.lookups(st, part)
        policy = ServePolicy(deadline_ms=6000.0, max_attempts=3,
                             retry_alternates=True, hedge_quantile=0.95)
        rt = serve_runtime.ServeRuntime(
            st["compiled"], st["alive"], policy=policy, latency=st["latency"],
            middlewares=[TracingMiddleware(), SLOMiddleware("perfbench")],
            domain_of=domain_labeler(net),
        )

        def on_tick(runtime, tick: int) -> None:
            meter.mark()
            if tick % CHURN_EVERY:
                return
            live = net.live_view()
            for victim in churn_rng.sample(list(live), CHURN_NODES):
                net.crash(victim)
            for _ in range(CHURN_NODES):
                node_id, path = next(pool)
                net.join(node_id, path)
            if tick % STABILIZE_EVERY == 0:
                net.stabilize()
            runtime.set_view(*serve_batcher.compile_protocol_view(net))

        meter.start()
        with collecting():
            report = serve_runtime.run_closed_loop(
                rt, sources, keys, concurrency=p.concurrency, on_tick=on_tick,
            )
        return _serve_result(meter.stop(), report, len(sources), rt.outstanding, part)

    def check(self, st, result: RoundResult) -> List[str]:
        report = result.detail["report"]
        out = _completed_once(report, result.attempted, result.detail["outstanding"])
        if result.part:
            return out  # the serving oracle below runs once per run
        p = self.p

        def factory():
            net, _ = build_serving_net(p.gate_nodes, seed=self.seed, with_latency=False)
            return net

        net = factory()
        rng = random.Random(f"perfbench:serving-gate:{self.seed}")
        live = sorted(net.live_view())
        lookups = [(live[rng.randrange(len(live))], rng.randrange(net.space.size))
                   for _ in range(p.gate_lookups)]
        victims = rng.sample(live, p.gate_crashes)
        half = len(victims) // 2

        def crash_slice(part):
            def fn(target):
                for victim in part:
                    target.crash(victim)
            return fn

        comparison = compare_serving(
            factory, lookups,
            churn=[(2, crash_slice(victims[:half])), (4, crash_slice(victims[half:]))],
        )
        out += [f"compare_serving: {v.message}" for v in comparison.violations[:5]]
        return out


# ----------------------------------------------------------- paper_static


@dataclass(frozen=True)
class StaticParams:
    nodes: int = 16384
    pairs: int = 20_000
    puts: int = 50_000
    gets: int = 50_000
    gate_pairs: int = 150
    gate_gets: int = 300


FAMILIES = ("chord", "crescendo", "chord_prox", "crescendo_prox", "kandy")


class PaperStatic:
    """The paper's four topology systems plus Kandy: route, fail, store."""

    name = "paper_static"
    #: Each round routes a third of the pairs and runs one of three
    #: independent storage episodes (a fresh store, a third of the puts
    #: and gets): short rounds, so a run samples the host's speed often.
    parts = 3

    def __init__(self, seed: int, params: StaticParams = StaticParams()) -> None:
        self.seed = seed
        self.p = params

    def setup(self, meter=None):
        p = self.p
        meter = meter or hostspeed.Meter()
        # The paper's experimental setup is one fixed 16,384-node system (a
        # fresh router graph per seed moves the latency percentiles by
        # 10-20%); the seed picks the routed pairs, the failed nodes and
        # the storage workload.
        topo = build_topology_setup(p.nodes, "perfbench")
        meter.mark()
        kandy = KandyNetwork(topo.space, topo.hierarchy).build()
        meter.mark()
        networks = dict(chord=topo.chord, crescendo=topo.crescendo,
                        chord_prox=topo.chord_prox,
                        crescendo_prox=topo.crescendo_prox, kandy=kandy)
        latency = topo.topology.latency_table(topo.node_ids)
        compiled = {}
        for family, network in networks.items():
            meter.mark()
            compiled[family] = kernels.compile_network(network)
        meter.mark()

        rng = random.Random(f"perfbench:static:{self.seed}")
        ids = topo.node_ids
        size = topo.space.size
        alive_ids = rng.sample(ids, len(ids) - int(len(ids) * STATIC_DEAD_SHARE))
        pairs = ([ids[rng.randrange(len(ids))] for _ in range(p.pairs)],
                 [rng.randrange(size) for _ in range(p.pairs)])
        alive_pairs = ([alive_ids[rng.randrange(len(alive_ids))] for _ in range(p.pairs)],
                       [rng.randrange(size) for _ in range(p.pairs)])
        episodes = []
        for _ in range(self.parts):
            meter.mark()
            episodes.append(_storage_episode(topo.crescendo, rng, p.puts // self.parts,
                                             p.gets // self.parts))
        return dict(networks=networks, latency=latency, compiled=compiled,
                    alive=LiveSet(alive_ids), pairs=pairs, alive_pairs=alive_pairs,
                    episodes=episodes)

    def prepare(self, st) -> None:
        """Per-run preparation outside setup_s (none: rounds rebuild the store)."""

    def _pairs(self, st, part: int):
        """This part's (label, sources, keys, alive) routing batches."""
        share = len(st["pairs"][0]) // self.parts
        cut = slice(part * share, (part + 1) * share)
        for family in st["compiled"]:
            yield family, family, st["pairs"][0][cut], st["pairs"][1][cut], None
            yield (family + "+alive", family, st["alive_pairs"][0][cut],
                   st["alive_pairs"][1][cut], st["alive"])

    def run_round(self, st, part: int = 0, meter=None) -> RoundResult:
        latency = st["latency"]
        meter = meter or hostspeed.Meter()
        episode = st["episodes"][part]
        puts, gets = episode["puts"], episode["gets"]
        meter.start()
        routes = {}
        for label, family, src, keys, alive in self._pairs(st, part):
            routes[label] = st["compiled"][family].route(src, keys, alive=alive,
                                                         latency=latency)
            meter.mark()
        store = HierarchicalStore(st["networks"]["crescendo"])
        placed = 0
        for (storage_domain, access_domain), rows in episode["groups"].items():
            meter.mark()
            plan = perf_storage.bulk_put(
                store, [puts[i][0] for i in rows], [puts[i][1] for i in rows],
                [puts[i][2] for i in rows], storage_domain, access_domain,
            )
            placed += int(plan.homes.size)
        meter.mark()
        compiled_store = perf_storage.CompiledStore(store, st["compiled"]["crescendo"])
        got = compiled_store.batch_get([g[0] for g in gets], [g[1] for g in gets],
                                       latency=latency)
        wall_s, reference_s = meter.stop()

        routed = sum(r.size for r in routes.values())
        delivered_routes = sum(int(r.success.sum()) for r in routes.values())
        found = got.found
        wrong_gets = int(np.count_nonzero(found != episode["visible"]))
        attempted = routed + len(puts) + len(gets)
        return RoundResult(
            wall_s=wall_s,
            reference_s=reference_s,
            attempted=attempted,
            delivered=delivered_routes + placed + int(found.sum()),
            failed=(routed - delivered_routes) + (len(puts) - placed) + wrong_gets,
            latency_ms=np.concatenate([r.latency_ms[r.success] for r in routes.values()]),
            hops=np.concatenate([r.hops[r.success] for r in routes.values()]),
            digest=_digest(
                *[a for r in routes.values()
                  for a in (r.success, r.terminals, r.hops, r.latency_ms)],
                got.found_at, got.content_node, got.pointer_hops, got.latency_ms,
            ),
            part=part,
            detail={"routes": routes, "store": store, "got": got,
                    "wrong_gets": wrong_gets},
        )

    def check(self, st, result: RoundResult) -> List[str]:
        p = self.p
        out: List[str] = []
        rng = np.random.default_rng([self.seed, result.part])
        latency = st["latency"]
        routes = result.detail["routes"]
        for label, family, src, keys, alive in self._pairs(st, result.part):
            idx = np.sort(rng.choice(len(src), min(p.gate_pairs, len(src)), replace=False))
            sample = [(src[i], keys[i]) for i in idx]
            out += [f"compare_routing {label}: {v.message}"
                    for v in compare_routing(st["networks"][family], sample,
                                             alive=alive, latency=latency)[:3]]
            # The measured rows are the rows the oracle just pinned.
            again = st["compiled"][family].route(
                [s for s, _ in sample], [k for _, k in sample], alive=alive,
                latency=latency,
            )
            r = routes[label]
            out += compare_rows(
                f"measured {label} routes",
                list(zip(r.success[idx].tolist(), r.terminals[idx].tolist(),
                         r.hops[idx].tolist(), r.latency_ms[idx].tolist())),
                list(zip(again.success.tolist(), again.terminals.tolist(),
                         again.hops.tolist(), again.latency_ms.tolist())),
            )
        store, got = result.detail["store"], result.detail["got"]
        gets = st["episodes"][result.part]["gets"]
        idx = set(rng.choice(len(gets), min(p.gate_gets, len(gets)), replace=False).tolist())
        fields = ("values", "path", "found_at", "via_pointer", "pointer_hops",
                  "content_node")
        sampled = [(i, fast) for i, fast in enumerate(got.results()) if i in idx]
        out += compare_rows(
            "batch_get vs scalar HierarchicalStore.get",
            [tuple(getattr(fast, f) for f in fields) for _, fast in sampled],
            [tuple(getattr(store.get(*gets[i]), f) for f in fields) for i, _ in sampled],
        )
        if result.part == 0:  # the put-placement oracle runs once per run
            out += [f"compare_storage: {v.message}"
                    for v in compare_storage(st["networks"]["crescendo"], latency=latency,
                                             rng=random.Random(self.seed))[:3]]
        if result.detail["wrong_gets"]:
            out.append(f"{result.detail['wrong_gets']} gets disagree with the "
                       f"put/access-domain expectation")
        return out


def _storage_episode(network, rng: random.Random, puts: int, gets: int) -> dict:
    """One seeded put/get workload plus each get's expected found-ness."""
    put_ops, get_ops = storage_workload(network, rng, puts=puts, gets=gets)
    groups: Dict[tuple, List[int]] = {}
    for i, op in enumerate(put_ops):
        groups.setdefault((op[3], op[4]), []).append(i)
    # A get must find its key exactly when the key was put and the origin
    # lies inside the put's access domain.
    access = {op[1]: op[4] for op in put_ops}
    hierarchy = network.hierarchy
    visible = np.asarray([
        key in access and hierarchy.path_of(origin)[: len(access[key])] == access[key]
        for origin, key in get_ops
    ])
    return dict(puts=put_ops, groups=groups, gets=get_ops, visible=visible)


WORKLOADS = {cls.name: cls for cls in (ServeSteady, ServeChurn, PaperStatic)}
