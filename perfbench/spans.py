"""Private span recorder for the traced benchmark run.

The traced run wraps public entry points of each layer (``perf.dynamic``,
``perf.latency``, ``serve.batcher``, ``perf.kernels``, the family
builders, ``serve.runtime``, ``serve.middleware``, ``obs`` and
``perf.storage``) from this file, records one span per call (name, start,
end, parent) plus counts taken at the same boundary, and folds them into
the ``per_layer`` metrics named in ``BENCHMARK.json``.

It deliberately does not use the process-wide ``repro.obs.trace`` tracer:
activating that one switches on per-event Simulator tracing and the
``TracingMiddleware`` spans, so the traced run would measure a different
program from the untraced one.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

import numpy as np

#: Span-name prefix -> layer.  A span belongs to the layer of its prefix.
LAYERS = (
    "dynamic", "latency", "batcher", "kernels", "build",
    "runtime", "middleware", "obs", "storage",
)

_MISSING = object()


class Recorder:
    """In-memory span and count store; one per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # ---------------------------------------------------------- folding

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def total(self, name: str) -> float:
        dur = self.durations()
        return float(sum(d for n, d in zip(self.names, dur) if n == name))

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self.self_times()):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += float(s)
        return out

    def to_records(self) -> List[dict]:
        """Spans as JSON-ready dicts (for the optional span dump)."""
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def _wrap(fn: Callable, recorder: Recorder, name, on_enter=None, on_exit=None):
    """``fn`` timed as one span; ``name`` may be a function of the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        token = on_enter(args) if on_enter is not None else None
        idx = recorder.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        if on_exit is not None:
            on_exit(recorder, args, kwargs, result, token)
        return result

    return wrapper


def _message_total(net) -> int:
    return sum(net.msgs.stats.counts.values())


def _patch_list(recorder: Recorder):
    """(owner, attribute, span name, on_enter, on_exit) for every wrap."""
    from repro.dhts.chord import ChordNetwork
    from repro.dhts.crescendo import CrescendoNetwork
    from repro.dhts.kandy import KandyNetwork
    from repro.obs.metrics import Histogram
    from repro.perf import kernels, storage
    from repro.perf.dynamic import FastSimulatedCrescendo
    from repro.perf.latency import LatencyTable
    from repro.proximity.groups import ProximityChordNetwork
    from repro.serve import batcher, middleware, runtime

    def msgs_enter(args):
        return _message_total(args[0])

    def msgs_exit(kind):
        def on_exit(rec, args, kwargs, result, before):
            rec.count(kind)
            rec.count("dynamic.messages", _message_total(args[0]) - before)

        return on_exit

    def route_name(args, kwargs):
        alive = kwargs.get("alive", args[3] if len(args) > 3 else None)
        return "kernels.route" if alive is None else "kernels.route_alive"

    def route_exit(rec, args, kwargs, result, _):
        rec.count("kernels.route_hops", int(result.hops.sum()))

    def frontier_exit(rec, args, kwargs, result, _):
        rec.count("kernels.frontier_rows", int(len(args[1])))

    def loop_exit(rec, args, kwargs, report, _):
        for key in ("retries", "hedges", "hedge_wins", "hedge_cancelled",
                    "lost", "expired"):
            rec.count(f"runtime.{key}", int(report.counters[key]))
        rec.count("runtime.delivered_hops", int(report.hops[report.success].sum()))

    def observe_exit(rec, args, kwargs, result, _):
        rec.count("obs.histogram_observes", len(args[1]))

    def put_exit(rec, args, kwargs, result, _):
        rec.count("storage.puts", len(args[2]))

    def get_exit(rec, args, kwargs, result, _):
        rec.count("storage.gets", result.size)
        rec.count("storage.found", int(np.count_nonzero(result.found)))
        rec.count("storage.get_hops", sum(len(p) - 1 for p in result.paths))

    def build_name(args, kwargs):
        return "build." + args[0].family.replace("-", "_")

    patches = [
        (FastSimulatedCrescendo, "join", "dynamic.join", msgs_enter,
         msgs_exit("dynamic.joins")),
        (FastSimulatedCrescendo, "crash", "dynamic.crash", msgs_enter,
         msgs_exit("dynamic.crashes")),
        (FastSimulatedCrescendo, "stabilize", "dynamic.stabilize", msgs_enter,
         msgs_exit("dynamic.stabilize_rounds")),
        (LatencyTable, "from_topology", "latency.table", None, None),
        (batcher, "compile_protocol_view", "batcher.compile_view", None, None),
        (kernels.CompiledNetwork, "frontier_step", "kernels.frontier_step",
         None, frontier_exit),
        (kernels.CompiledNetwork, "route", route_name, None, route_exit),
        (kernels, "compile_network", "kernels.compile", None, None),
        (runtime.ServeRuntime, "tick", "runtime.tick", None, None),
        (runtime.ServeRuntime, "submit_many", "runtime.submit", None, None),
        (runtime, "run_closed_loop", "runtime.closed_loop", None, loop_exit),
        (Histogram, "observe_many", "obs.histogram_observe", None, observe_exit),
        (storage, "bulk_put", "storage.put", None, put_exit),
        (storage.CompiledStore, "__init__", "storage.compile_store", None, None),
        (storage.CompiledStore, "batch_get", "storage.get", None, get_exit),
    ]
    for cls in (middleware.Middleware, middleware.TracingMiddleware,
                middleware.SLOMiddleware):
        for hook in ("before_submit", "after_complete"):
            if hook in cls.__dict__:
                patches.append((cls, hook, f"middleware.{hook}", None, None))
    # ProximityCrescendoNetwork inherits CrescendoNetwork.build; the span
    # name comes from the instance's family, so each family is separate.
    for cls in (ChordNetwork, CrescendoNetwork, ProximityChordNetwork,
                KandyNetwork):
        patches.append((cls, "build", build_name, None, None))
    return patches


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer entry point for the ``with`` body, then restore."""
    saved = []
    try:
        for owner, attr, name, on_enter, on_exit in _patch_list(recorder):
            raw = owner.__dict__.get(attr, _MISSING)
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _wrap(raw.__func__, recorder, name, on_enter, on_exit)
                )
            else:
                wrapped = _wrap(getattr(owner, attr), recorder, name,
                                on_enter, on_exit)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Fold one traced run's spans and counts into the per-layer metrics."""
    c = rec.counts
    dur = rec.durations()
    selfs = rec.self_times()
    tick_idx = [i for i, n in enumerate(rec.names) if n == "runtime.tick"]
    tick_ms = dur[tick_idx] * 1e3 if tick_idx else np.zeros(0)
    layer_self = rec.layer_self()
    out: Dict[str, float] = {
        "dynamic.join_s": rec.total("dynamic.join"),
        "dynamic.joins": c["dynamic.joins"],
        "dynamic.crashes": c["dynamic.crashes"],
        "dynamic.stabilize_s": rec.total("dynamic.stabilize"),
        "dynamic.stabilize_rounds": c["dynamic.stabilize_rounds"],
        "dynamic.messages": c["dynamic.messages"],
        "latency.table_s": rec.total("latency.table"),
        "batcher.compile_view_s": rec.total("batcher.compile_view"),
        "batcher.compile_views": rec.calls("batcher.compile_view"),
        "kernels.frontier_step_s": rec.total("kernels.frontier_step"),
        "kernels.frontier_step_calls": rec.calls("kernels.frontier_step"),
        "kernels.frontier_rows": c["kernels.frontier_rows"],
        "kernels.route_s": rec.total("kernels.route"),
        "kernels.route_alive_s": rec.total("kernels.route_alive"),
        "kernels.route_hops": c["kernels.route_hops"],
        "kernels.compile_s": rec.total("kernels.compile"),
    }
    for family in ("chord", "crescendo", "chord_prox", "crescendo_prox", "kandy"):
        out[f"build.{family}_s"] = rec.total(f"build.{family}")
    out.update({
        "runtime.tick_s": float(tick_ms.sum() / 1e3),
        "runtime.ticks": len(tick_idx),
        "runtime.tick_p50_ms": float(np.quantile(tick_ms, 0.5)) if tick_idx else 0.0,
        "runtime.tick_p95_ms": float(np.quantile(tick_ms, 0.95)) if tick_idx else 0.0,
        # Tick time minus the kernel and middleware spans inside it: the
        # runtime's own bookkeeping.
        "runtime.self_s": float(selfs[tick_idx].sum()) if tick_idx else 0.0,
        "runtime.submit_s": rec.total("runtime.submit"),
    })
    for key in ("retries", "hedges", "hedge_wins", "hedge_cancelled",
                "lost", "expired"):
        out[f"runtime.{key}"] = c[f"runtime.{key}"]
    out["runtime.useful_hop_ratio"] = _ratio(
        c["runtime.delivered_hops"], c["kernels.frontier_rows"]
    )
    out["runtime.hedge_win_ratio"] = _ratio(c["runtime.hedge_wins"], c["runtime.hedges"])
    out.update({
        "middleware.before_submit_s": rec.total("middleware.before_submit"),
        "middleware.after_complete_s": rec.total("middleware.after_complete"),
        "obs.histogram_observe_s": rec.total("obs.histogram_observe"),
        "obs.histogram_observes": c["obs.histogram_observes"],
        "storage.put_s": rec.total("storage.put"),
        "storage.puts": c["storage.puts"],
        "storage.compile_store_s": rec.total("storage.compile_store"),
        "storage.get_s": rec.total("storage.get"),
        "storage.gets": c["storage.gets"],
        "storage.get_hops": c["storage.get_hops"],
        "storage.found_ratio": _ratio(c["storage.found"], c["storage.gets"]),
    })
    for layer in LAYERS:
        if layer != "runtime":
            out[f"{layer}.self_s"] = layer_self[layer]
    return out
