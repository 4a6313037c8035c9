"""Vectorized batch routing kernels over a CSR link-table layout.

:func:`compile_network` flattens a built :class:`~repro.core.network.DHTNetwork`
into numpy arrays — sorted node ids, a flat neighbor array, per-node offsets
into it (CSR style), and the index of every neighbor back into the id array
— plus two per-metric search structures that turn the greedy step of each
scalar engine into a handful of vector ops over the whole active batch:

- ring metric: a per-node matrix of clockwise neighbor distances, sorted
  descending and left-aligned with zero padding pointing back at the node.
  The non-overshooting clockwise candidate of
  :func:`repro.core.routing._best_ring_step` is simply the first column
  ``<= remaining``, found with one ``argmax`` per hop; "no valid step"
  falls out as a zero-distance self-step, so the step has no wrap,
  empty-list or validity fixups at all.
- XOR metric: one *augmented* key array that is globally strictly
  increasing, built as ``(node_index << (bits + 1)) | (neighbor + 1)``
  with two sentinel entries per node (a low key mapping to the node's
  *last* neighbor, a high key to its *first*).  One ``np.searchsorted``
  then yields the successor/predecessor pair bracketing the destination —
  the two candidates of :func:`repro.core.routing._best_xor_step` without
  a filter — with the wrapped cases correct by construction.

Routing is one greedy *step primitive* per metric plus one hop loop.  A step
(:meth:`CompiledNetwork._ring_step`, :meth:`CompiledNetwork._xor_step`)
advances every row of a frontier by one hop: it writes each row's next
compiled position into a buffer the caller owns — its own position when the
route has stopped, at its key or stuck — and keeps its scratch in a
:class:`_Workspace` reused hop after hop.  :meth:`CompiledNetwork.route`
runs the hop loop (``_drive``): it steps the whole batch until nothing
moves, compacts the straggler tail, folds per-hop latency, records paths,
resolves terminals and bumps the ``perf.batch.*`` counters.  :meth:`CompiledNetwork.frontier_step`
(one serving tick) is one step plus terminal resolution, and
:meth:`repro.perf.storage.CompiledStore.batch_get` takes the ring step once
per hop of its walk.

Under an ``alive`` filter the steps take a per-position alive mask:

- ring: the matrix pick is taken as usual and only the rows whose pick is
  dead are rescanned (a segment scan over their neighbor lists,
  :meth:`CompiledNetwork._scan`).  This is exact: when the largest
  non-overshooting neighbor is alive it is also the largest live one.
- XOR: every candidate is scanned.  The scalar reference defines the two
  XOR rules differently — without a filter it takes the best of the
  bracketing pair, with one the XOR-nearest live neighbor — and the
  bracketing pair is not always the XOR-nearest (neighbors {8, 15, 16},
  key 7: the pair is 8 and the wrapped 16, the nearest is 15).  A
  pick-then-rescan would therefore change XOR outcomes.

Every branch replicates the corresponding scalar branch exactly, so batch
results are hop-for-hop identical to :func:`~repro.core.routing.route_ring`
and :func:`~repro.core.routing.route_xor` (property-tested across all ten
DHT families and both entry points in ``tests/test_perf_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.network import DHTNetwork
from ..core.routing import MAX_HOPS, Route, _sorted_live
from ..obs import metrics as obs_metrics
from ..obs.profile import PROFILER

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .latency import LatencyTable

__all__ = [
    "BatchResult",
    "CompiledNetwork",
    "batch_route",
    "compile_network",
]

_U64 = np.uint64
_ZERO = np.uint64(0)
_ONE = np.uint64(1)
#: Sentinel larger than any XOR distance (id spaces are capped below 64 bits
#: by the compile guard, so real distances never reach it).
_FAR = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class BatchResult:
    """Outcome of one batch routing call, aligned index-for-index.

    ``terminals`` holds the node each route stopped at; ``success`` mirrors
    the scalar engines' success flag (so *delivery* of a lookup for key ``k``
    is ``success & (terminals == k)``, same as the sampling harness checks).
    ``paths`` is only populated when requested — hop counting alone never
    materializes paths.  ``latency_ms`` is populated when the route call
    was given a :class:`~repro.perf.latency.LatencyTable`: per-route
    overlay latency in ms, accumulated per hop in hop order (float64 left
    fold), bit-identical to the scalar
    :meth:`~repro.core.routing.Route.latency` total — without ever
    materializing paths.
    """

    sources: np.ndarray
    dest_keys: np.ndarray
    hops: np.ndarray
    terminals: np.ndarray
    success: np.ndarray
    paths: Optional[List[List[int]]] = None
    latency_ms: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return int(self.sources.size)

    @property
    def delivered(self) -> int:
        """Routes that succeeded *and* terminated on their destination key."""
        return int(np.count_nonzero(self.success & (self.terminals == self.dest_keys)))

    def routes(self) -> Iterator[Route]:
        """Reconstruct scalar :class:`Route` objects (requires ``paths=True``)."""
        if self.paths is None:
            raise ValueError("paths were not collected; route with paths=True")
        for path, ok, dest in zip(self.paths, self.success, self.dest_keys):
            yield Route(path, bool(ok), int(dest))



class CompiledNetwork:
    """A built network's link tables in CSR-style numpy form (read-only)."""

    def __init__(self, network: DHTNetwork) -> None:
        network.require_built()
        bits = network.space.bits
        ids = network.node_ids  # sorted ascending by construction
        n = len(ids)
        if n == 0:
            raise ValueError("cannot compile an empty network")
        if bits + 1 + max(n - 1, 1).bit_length() > 64:
            raise ValueError(
                f"augmented keys need {bits} + 1 id bits + "
                f"{max(n - 1, 1).bit_length()} index bits > 64"
            )
        self.network = network
        self.metric = network.metric
        self.bits = bits
        self.n = n
        self.ids = np.asarray(ids, dtype=_U64)
        counts = np.fromiter(
            (len(network.links[node]) for node in ids), dtype=np.int64, count=n
        )
        # Index arrays drop to int32 whenever the population and edge count
        # fit — half the memory traffic in the hot loops, half the arena
        # bytes — with int64 kept as the >= 2**31 escape hatch.
        idx_dt = np.int32 if n < 2**31 and int(counts.sum()) < 2**31 else np.int64
        self.indptr = np.zeros(n + 1, dtype=idx_dt)
        np.cumsum(counts, out=self.indptr[1:])
        flat: List[int] = []
        for node in ids:
            flat.extend(network.links[node])
        self.neighbors = np.asarray(flat, dtype=_U64)
        # One extra key bit so per-node sentinels can sort strictly below
        # (key 0 -> last neighbor) and above (key mask+2 -> first neighbor)
        # every real entry (neighbor + 1).
        self.shift = np.uint64(bits + 1)
        self.mask = np.uint64((1 << bits) - 1)
        if self.neighbors.size:
            pos = np.searchsorted(self.ids, self.neighbors)
            pos = np.minimum(pos, n - 1)
            if np.any(self.ids[pos] != self.neighbors):
                raise ValueError("link table references ids outside the network")
            self.nbr_pos = pos.astype(idx_dt)
        else:
            self.nbr_pos = np.zeros(0, dtype=idx_dt)
        self._aug_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._ring_tables: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _build_augmented(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the sentinel-padded augmented search arrays (lazy).

        Per node, in key order: a low sentinel mapping to the node's last
        neighbor (the wrapped clockwise / predecessor candidate), one entry
        per neighbor at key ``neighbor + 1``, and a high sentinel mapping to
        its first neighbor (the wrapped successor candidate).  ``aug`` is
        globally strictly increasing; ``cand_ids``/``cand_aug`` give each
        entry's candidate neighbor id and that candidate's own augmented
        prefix (``position << shift``), which is exactly the state the
        routing loops carry forward.  Nodes without neighbors get sentinels
        pointing at themselves — distance zero, never a valid step.

        Built on first use of :attr:`aug`/:attr:`cand_ids`/:attr:`cand_aug`
        (the XOR fast path), so ring-metric networks never pay the
        ``E + 2n`` allocations at all.
        """
        counts = np.diff(self.indptr).astype(np.int64)
        n, E = self.n, int(self.neighbors.size)
        idx = np.arange(n, dtype=_U64)
        prefixes = idx << self.shift
        aug = np.empty(E + 2 * n, dtype=_U64)
        cand_ids = np.empty(E + 2 * n, dtype=_U64)
        cand_pos = np.empty(E + 2 * n, dtype=np.int64)
        offsets = 2 * np.arange(n, dtype=np.int64)
        lead = self.indptr[:-1] + offsets
        trail = self.indptr[1:] + offsets + 1
        aug[lead] = prefixes
        aug[trail] = prefixes | np.uint64(int(self.mask) + 2)
        has = counts > 0
        first = np.where(has, self.indptr[:-1], 0)
        last = np.where(has, self.indptr[1:] - 1, 0)
        if E:
            seg = np.repeat(idx, counts)
            real = np.arange(E, dtype=np.int64) + 2 * np.repeat(
                np.arange(n, dtype=np.int64), counts
            ) + 1
            aug[real] = (seg << self.shift) | (self.neighbors + _ONE)
            cand_ids[real] = self.neighbors
            cand_pos[real] = self.nbr_pos
            cand_ids[lead] = np.where(has, self.neighbors[last], self.ids)
            cand_pos[lead] = np.where(has, self.nbr_pos[last], np.arange(n))
            cand_ids[trail] = np.where(has, self.neighbors[first], self.ids)
            cand_pos[trail] = np.where(has, self.nbr_pos[first], np.arange(n))
        else:
            cand_ids[lead] = cand_ids[trail] = self.ids
            cand_pos[lead] = cand_pos[trail] = np.arange(n)
        cand_aug = cand_pos.astype(_U64) << self.shift
        return aug, cand_ids, cand_aug

    @property
    def aug(self) -> np.ndarray:
        """Globally increasing augmented key array (built on first use)."""
        if self._aug_cache is None:
            self._aug_cache = self._build_augmented()
        return self._aug_cache[0]

    @property
    def cand_ids(self) -> np.ndarray:
        """Candidate neighbor id per augmented entry (built on first use)."""
        if self._aug_cache is None:
            self._aug_cache = self._build_augmented()
        return self._aug_cache[1]

    @property
    def cand_aug(self) -> np.ndarray:
        """Candidate augmented prefix per entry (built on first use)."""
        if self._aug_cache is None:
            self._aug_cache = self._build_augmented()
        return self._aug_cache[2]

    def _ring_matrix(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node clockwise distances as a padded sorted matrix (lazy).

        Row ``i`` holds node ``i``'s neighbor distances sorted *descending*
        and left-aligned; the trailing padding slots (at least one per row)
        are zero, with their position entries pointing at the node itself.
        The greedy ring step then needs no validity or wrap handling at
        all: the first column ``<= remaining`` — one ``argmax`` per hop,
        guaranteed to exist by the trailing zero — is the best
        non-overshooting neighbor, and when no neighbor qualifies it is a
        zero-distance self-step, which doubles as the finished/stuck
        signal.

        Returns ``(dist2d, posflat, ids_small)`` where the distance dtype
        is ``uint32`` when the id space fits (half the memory traffic of
        the hot loop) and ``uint64`` otherwise, and ``posflat`` is the
        row-major flattened position matrix — ``int32`` below 2**31 nodes
        (the largest ring table by far; position values always fit), with
        the hot-loop position buffers following its dtype.
        """
        if self._ring_tables is not None:
            return self._ring_tables
        n, E = self.n, int(self.neighbors.size)
        dt = np.uint32 if self.bits <= 32 else _U64
        pos_dt = np.int32 if n < 2**31 else np.intp
        counts = np.diff(self.indptr).astype(np.int64)
        width = int(counts.max()) + 1 if E else 1
        dist2d = np.zeros((n, width), dtype=dt)
        pos2d = np.repeat(np.arange(n, dtype=pos_dt)[:, None], width, axis=1)
        if E:
            seg = np.repeat(np.arange(n, dtype=_U64), counts)
            dists = (self.neighbors - self.ids[seg.astype(np.int64)]) & self.mask
            order = np.argsort((seg << self.shift) | dists, kind="stable")
            # The sorted layout keeps CSR segment boundaries, so target
            # slots enumerate each segment right-to-left from its last
            # column; only the values are permuted by ``order``.
            rows = seg.astype(np.int64)
            rank = np.arange(E, dtype=np.int64) - np.repeat(self.indptr[:-1], counts)
            cols = np.repeat(counts, counts) - 1 - rank
            dist2d[rows, cols] = dists[order].astype(dt)
            pos2d[rows, cols] = self.nbr_pos[order]
        ids_small = self.ids.astype(dt)
        self._ring_tables = (dist2d, pos2d.ravel(), ids_small)
        return self._ring_tables

    # ------------------------------------------------------ arenas / arrays

    @classmethod
    def from_arrays(
        cls,
        *,
        metric: str,
        bits: int,
        ids: np.ndarray,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        nbr_pos: np.ndarray,
        network: Optional[DHTNetwork] = None,
        aug: Optional[np.ndarray] = None,
        cand_ids: Optional[np.ndarray] = None,
        cand_aug: Optional[np.ndarray] = None,
        ring_tables: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> "CompiledNetwork":
        """Wrap pre-built CSR arrays without touching a Python link table.

        This is how shared-memory attachment (:mod:`repro.perf.arena`), the
        ``.npz`` cache sidecar and the streaming builder produce a usable
        compiled network: the arrays are adopted as-is (zero-copy — they
        may be read-only views over a shared segment), the metric search
        structures are taken when given and built lazily otherwise, and
        ``network`` stays ``None`` unless the caller has one.
        """
        self = cls.__new__(cls)
        self.network = network
        self.metric = metric
        self.bits = int(bits)
        self.n = int(ids.shape[0])
        if self.n == 0:
            raise ValueError("cannot compile an empty network")
        self.ids = ids
        self.indptr = indptr
        self.neighbors = neighbors
        self.nbr_pos = nbr_pos
        self.shift = np.uint64(self.bits + 1)
        self.mask = np.uint64((1 << self.bits) - 1)
        self._aug_cache = (
            (aug, cand_ids, cand_aug) if aug is not None else None
        )
        self._ring_tables = tuple(ring_tables) if ring_tables is not None else None
        return self

    def to_arena(
        self,
        latency: Optional["LatencyTable"] = None,
        matrix_arena=None,
        top_domain: Optional[np.ndarray] = None,
        extras=None,
        label: str = "net",
    ):
        """Export this compiled network into one shared-memory arena.

        Returns the owning :class:`repro.perf.arena.Arena`; its picklable
        ``manifest`` is what grid workers rehydrate with :meth:`from_arena`.
        See :func:`repro.perf.arena.export_network` for the options.
        """
        from . import arena as perf_arena

        return perf_arena.export_network(
            self,
            latency=latency,
            matrix_arena=matrix_arena,
            top_domain=top_domain,
            extras=extras,
            label=label,
        )

    @classmethod
    def from_arena(cls, manifest) -> "CompiledNetwork":
        """Attach (zero-copy, read-only) to an exported network by manifest."""
        from . import arena as perf_arena

        return perf_arena.attach_network(manifest).compiled

    # ------------------------------------------------------------- plumbing

    def _positions(self, values: np.ndarray) -> np.ndarray:
        """Index of each value in ``ids`` (raises on unknown node ids)."""
        pos = np.searchsorted(self.ids, values)
        pos = np.minimum(pos, self.n - 1)
        bad = self.ids[pos] != values
        if np.any(bad):
            raise KeyError(f"node {int(values[bad][0])} not in network")
        return pos.astype(np.int64)

    def _alive_array(self, alive: Optional[Set[int]]) -> Optional[np.ndarray]:
        if alive is None:
            return None
        return np.asarray(_sorted_live(alive), dtype=_U64)

    def _latency_state(
        self, latency: Optional["LatencyTable"]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.float64]]:
        """``(router-per-position, matrix, 2*host_ms)`` for per-hop gathers.

        ``aligned_routers`` maps every compiled position straight to its
        router index, so each hop's latency is two int gathers plus one
        float gather — no per-hop id lookups, no Python-level calls.
        """
        if latency is None:
            return None
        return (
            latency.aligned_routers(self.ids),
            latency.matrix,
            latency.hop2_ms,
        )

    # ------------------------------------------------------- terminal checks

    def _responsible(
        self, cur_ids: np.ndarray, keys: np.ndarray, alive_arr: Optional[np.ndarray]
    ) -> np.ndarray:
        """Vectorized ``_is_responsible``: cyclic predecessor-or-equal match."""
        ref = self.ids if alive_arr is None else alive_arr
        if ref.size == 0:
            return np.zeros(cur_ids.shape, dtype=bool)
        pos = np.searchsorted(ref, keys, side="right").astype(np.int64) - 1
        pos = np.where(pos < 0, ref.size - 1, pos)
        return ref[pos] == cur_ids

    def _xor_closest(
        self, cur_ids: np.ndarray, keys: np.ndarray, alive_arr: Optional[np.ndarray]
    ) -> np.ndarray:
        """Vectorized ``_is_xor_closest``: best of the key's two sorted neighbors.

        Like the scalar check, this treats the XOR-nearest element as one
        of the two entries around the key's insertion point, which does not
        hold in general (see the module docstring); it mirrors the
        reference exactly until the reference is fixed.
        """
        ref = self.ids if alive_arr is None else alive_arr
        if ref.size == 0:
            return np.zeros(cur_ids.shape, dtype=bool)
        pos = np.searchsorted(ref, keys, side="left").astype(np.int64)
        succ = ref[pos % ref.size]
        pred = ref[(pos - 1) % ref.size]
        best = np.minimum(succ ^ keys, pred ^ keys)
        return (cur_ids ^ keys) == best

    def _verdict(
        self,
        metric: str,
        cur_ids: np.ndarray,
        dest: np.ndarray,
        alive_arr: Optional[np.ndarray],
    ) -> np.ndarray:
        """The scalar engines' success flag for routes stopped at ``cur_ids``.

        At the key; otherwise (stuck) the node must be responsible for the
        key (ring) or XOR-closest to it (xor) among ``alive_arr``, or among
        all nodes when that is ``None``.
        """
        if metric == "ring":
            ok = ((dest - cur_ids) & self.mask) == _ZERO
            check = self._responsible
        else:
            ok = (cur_ids ^ dest) == _ZERO
            check = self._xor_closest
        stuck = np.flatnonzero(~ok)
        if stuck.size:
            ok[stuck] = check(cur_ids[stuck], dest[stuck], alive_arr)
        return ok

    # ------------------------------------------------------- step primitives

    def _stepper(self, metric: str):
        """The metric's step primitive and the position dtype it writes."""
        if metric == "ring":
            return self._ring_step, self._ring_matrix()[1].dtype
        if metric == "xor":
            return self._xor_step, np.dtype(np.int32 if self.n < 2**31 else np.intp)
        raise ValueError(f"unknown metric {metric!r}")

    def _scan(self, c: np.ndarray, live: np.ndarray, score) -> np.ndarray:
        """Segment scan: each row of ``c`` to its live neighbor of least score.

        ``score(cand, row)`` rates every candidate neighbor id ``cand`` of
        frontier row ``row`` (``_FAR`` where it is no valid step).  The
        frontier's neighbor lists are expanded flat and reduced per row
        with one ``np.minimum.reduceat``.  Scores are distinct within a row
        (ring and XOR distances from one node to distinct neighbors), so a
        row's minimum picks exactly one candidate; a row with no live valid
        candidate keeps its own position.
        """
        out = c.copy()
        start = self.indptr[c]
        counts = self.indptr[c + 1] - start
        nz = np.flatnonzero(counts)
        if nz.size == 0:
            return out
        cnz = counts[nz]
        seg = np.zeros(nz.size, dtype=np.int64)
        np.cumsum(cnz[:-1], out=seg[1:])
        row = np.repeat(nz, cnz)
        flat = (
            np.arange(int(cnz.sum()), dtype=np.int64)
            - np.repeat(seg, cnz)
            + np.repeat(start[nz], cnz)
        )
        s = score(self.neighbors[flat], row)
        s[~live[self.nbr_pos[flat]]] = _FAR
        best = np.minimum.reduceat(s, seg)
        hit = np.flatnonzero((s == np.repeat(best, cnz)) & (s != _FAR))
        out[row[hit]] = self.nbr_pos[flat[hit]]
        return out

    def _ring_step(
        self,
        cur: np.ndarray,
        dest: np.ndarray,
        live: Optional[np.ndarray],
        ws: "_Workspace",
        out: np.ndarray,
    ) -> np.ndarray:
        """One greedy clockwise hop per row; next positions into ``out``.

        Gathers each row of :meth:`_ring_matrix` (distances descending) and
        takes the first column ``<= remaining`` with one ``argmax``: the
        best non-overshooting neighbor, or a zero-distance self-step when
        none exists.  ``out`` must have the matrix's position dtype.  With a
        ``live`` mask only the rows whose pick is dead are rescanned — the
        largest non-overshooting neighbor, when alive, is also the largest
        live one, which is what the scalar filtered step takes.
        """
        dist2d, posflat, ids_small = self._ring_matrix()
        dt = dist2d.dtype
        k, width = cur.size, dist2d.shape[1]
        curid = ws.get("curid", k, dt)
        rem = ws.get("rem", k, dt)
        rows = ws.get("rows", k, dt, width)
        le = ws.get("le", k, bool, width)
        idx = ws.get("idx", k, np.intp)
        ids_small.take(cur, out=curid)
        np.subtract(dest, curid, out=rem)
        if int(self.mask) != np.iinfo(dt).max:
            # Mask only when the id space doesn't fill the dtype (wrap is free).
            np.bitwise_and(rem, dt.type(self.mask), out=rem)
        dist2d.take(cur, axis=0, out=rows)
        np.less_equal(rows, rem[:, None], out=le)
        # dtype= forces the flat index math into intp even when ``cur`` is
        # int32 (row * width can overflow int32 on huge tables).
        np.multiply(cur, width, out=idx, dtype=np.intp)
        np.add(idx, le.argmax(axis=1), out=idx)
        posflat.take(idx, out=out)
        if live is not None:
            dead = np.flatnonzero((out != cur) & ~live[out])
            if dead.size:
                c = cur[dead]
                cur_ids = self.ids[c]
                remaining = (dest[dead] - cur_ids) & self.mask

                def score(cand, row):
                    dist = (cand - cur_ids[row]) & self.mask
                    r = remaining[row]
                    return np.where((dist > _ZERO) & (dist <= r), r - dist, _FAR)

                out[dead] = self._scan(c, live, score)
        return out

    def _xor_step(
        self,
        cur: np.ndarray,
        dest: np.ndarray,
        live: Optional[np.ndarray],
        ws: "_Workspace",
        out: np.ndarray,
    ) -> np.ndarray:
        """One greedy XOR hop per row; next positions into ``out``.

        Without a filter, ``searchsorted(aug, (pos << shift) | (dest + 1))``
        is the first neighbor ``>= dest`` (or the high sentinel, i.e. the
        wrapped successor) and the entry before it is the predecessor (or
        the low sentinel, the wrapped one) — the two candidates of the
        scalar unfiltered step.  The predecessor wins only when strictly
        closer than both the successor and the current node, mirroring the
        scalar scan order.  With a ``live`` mask every neighbor is scanned,
        as the scalar filtered step does.  Rows that make no strict
        progress keep their own position.
        """
        k = cur.size
        cur_dist = ws.get("cur_dist", k, _U64)
        self.ids.take(cur, out=cur_dist)
        np.bitwise_xor(cur_dist, dest, out=cur_dist)
        if live is not None:

            def score(cand, row):
                dist = cand ^ dest[row]
                return np.where(dist < cur_dist[row], dist, _FAR)

            out[:] = self._scan(cur, live, score)
            return out
        q = ws.get("q", k, _U64)
        d1 = ws.get("d1", k, _U64)
        d2 = ws.get("d2", k, _U64)
        pm = ws.get("pm", k, np.intp)
        pick2 = ws.get("pick2", k, bool)
        ok = ws.get("ok", k, bool)
        q[:] = cur
        np.left_shift(q, self.shift, out=q)
        np.add(dest, _ONE, out=d1)
        np.bitwise_or(q, d1, out=q)
        p1 = np.searchsorted(self.aug, q, side="left")
        np.subtract(p1, 1, out=pm)
        self.cand_ids.take(p1, out=d1)
        self.cand_ids.take(pm, out=d2)
        np.bitwise_xor(d1, dest, out=d1)
        np.bitwise_xor(d2, dest, out=d2)
        np.minimum(d1, cur_dist, out=q)
        np.less(d2, q, out=pick2)
        np.less(d1, cur_dist, out=ok)  # a route at its key has cur_dist 0
        np.logical_or(ok, pick2, out=ok)
        np.subtract(p1, pick2, out=p1)  # index of the chosen candidate
        self.cand_aug.take(p1, out=q)
        np.right_shift(q, self.shift, out=q)
        np.copyto(out, cur)
        np.copyto(out, q, where=ok, casting="unsafe")
        return out

    # ------------------------------------------------------------ entry points

    def route(
        self,
        sources: Sequence[int],
        dest_keys: Sequence[int],
        alive: Optional[Set[int]] = None,
        paths: bool = False,
        latency: Optional["LatencyTable"] = None,
    ) -> BatchResult:
        """Batch greedy routing, identical to :func:`repro.core.routing.route`."""
        src, dest = _as_batch(sources, dest_keys)
        return self._drive(
            self.metric,
            src,
            dest,
            self._alive_array(alive),
            paths,
            self._latency_state(latency),
        )

    def _drive(
        self,
        metric: str,
        src: np.ndarray,
        dest: np.ndarray,
        alive_arr: Optional[np.ndarray],
        paths: bool,
        lat_state,
    ) -> BatchResult:
        """The one hop loop: step every route under ``metric`` until rest.

        Steps the whole batch with the metric's step primitive until
        nothing moves.  A stopped route idles as a free self-step, so
        the frontier keeps its size, every per-hop op writes into a
        preallocated buffer and hop counts are just ``hops += moved``.  Each
        time under half of the routes still move, the survivors are
        compacted (the straggler tail otherwise dominates: max hops runs
        well past the mean).  Per-hop latency is added to the full-length
        accumulator in hop order — a strict left fold, bit-identical to the
        scalar per-hop sum.  Success is resolved once, after the loop.
        """
        step, pos_dt = self._stepper(metric)
        live = None if alive_arr is None else _in_sorted(alive_arr, self.ids)
        m = src.size
        path_lists = [[int(s)] for s in src] if paths else None
        lat = np.zeros(m, dtype=np.float64) if lat_state is not None else None
        ws = _Workspace(m)
        cur = self._positions(src).astype(pos_dt)
        keys = dest
        hops = np.zeros(m, dtype=np.int64)
        nxt = np.empty_like(cur)
        moved = np.empty(m, dtype=bool)
        sel: Optional[np.ndarray] = None  # original index of each survivor
        full_cur = full_hops = None
        for _ in range(MAX_HOPS + 1):
            step(cur, keys, live, ws, nxt)
            np.not_equal(nxt, cur, out=moved)
            cnt = np.count_nonzero(moved)
            if not cnt:
                break
            np.add(hops, moved, out=hops)
            cur, nxt = nxt, cur  # ``nxt`` now holds the previous positions
            if lat is not None or path_lists is not None:
                hrows = np.flatnonzero(moved)
                orig = hrows if sel is None else sel[hrows]
                if lat is not None:
                    lat[orig] += _hop_ms(lat_state, nxt[hrows], cur[hrows])
                if path_lists is not None:
                    for oi, nid in zip(orig.tolist(), self.ids[cur[hrows]].tolist()):
                        path_lists[oi].append(nid)
            if cnt * 2 < cur.size:
                # Tail compaction.  Fresh arrays for cur/nxt — the old
                # ping-pong buffers still back ``full_cur``.
                survivors = np.flatnonzero(moved)
                if sel is None:
                    full_cur, full_hops, sel = cur, hops, survivors
                else:
                    full_hops[sel] += hops
                    full_cur[sel] = cur
                    sel = sel[survivors]
                cur, keys = cur[survivors], keys[survivors]
                hops = np.zeros(cur.size, dtype=np.int64)
                nxt = np.empty_like(cur)
                moved = moved[: cur.size]
        else:
            raise RuntimeError(
                f"routing exceeded {MAX_HOPS} hops: likely a broken network"
            )
        if sel is not None:
            full_hops[sel] += hops
            full_cur[sel] = cur
            cur, hops = full_cur, full_hops
        terminals = self.ids[cur]
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("perf.batch.routes").inc(m)
            registry.counter("perf.batch.hops").inc(int(hops.sum()))
        return BatchResult(
            sources=src,
            dest_keys=dest,
            hops=hops,
            terminals=terminals,
            success=self._verdict(metric, terminals, dest, alive_arr),
            paths=path_lists,
            latency_ms=lat,
        )

    def frontier_step(
        self,
        cur_ids: np.ndarray,
        dest: np.ndarray,
        alive_arr: Optional[np.ndarray] = None,
        lat_state=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Advance every lookup exactly one greedy hop (pure, resumable).

        The single-step entry point behind the serving runtime: one call
        is one frontier tick — one call of the step primitive :meth:`route`
        drives, plus terminal resolution — so repeatedly stepping until
        nothing moves yields outcomes identical to :meth:`route`.  State is
        node *ids*, not compiled positions, so a caller may swap in a
        recompiled view between steps.  ``alive_arr`` is a sorted uint64 id
        array (held once per view epoch by the caller).

        Returns ``(next_ids, moved, success, hop_ms)`` aligned with the
        inputs.  Where ``moved`` is False the lookup terminated this step
        and ``success`` holds the scalar engines' verdict (at its key, or
        the responsible/closest check for stuck routes); ``next_ids``
        equals ``cur_ids`` there.  ``hop_ms`` is per-hop overlay latency
        (zero on unmoved rows) when ``lat_state`` is given, else ``None``.
        """
        step, pos_dt = self._stepper(self.metric)
        c = self._positions(cur_ids).astype(pos_dt)
        live = None if alive_arr is None else _in_sorted(alive_arr, self.ids)
        nxt = step(c, dest, live, _Workspace(c.size), np.empty_like(c))
        moved = nxt != c
        success = np.zeros(c.shape, dtype=bool)
        fin = np.flatnonzero(~moved)
        if fin.size:
            success[fin] = self._verdict(
                self.metric, cur_ids[fin], dest[fin], alive_arr
            )
        hop_ms: Optional[np.ndarray] = None
        if lat_state is not None:
            hop_ms = np.zeros(c.shape, dtype=np.float64)
            mv = np.flatnonzero(moved)
            hop_ms[mv] = _hop_ms(lat_state, c[mv], nxt[mv])
        return self.ids[nxt], moved, success, hop_ms


class _Workspace:
    """Scratch buffers of the step primitives, reused hop after hop.

    A buffer is allocated at the batch size on first request and handed
    out as its leading ``rows`` entries, so steps over a compacted
    frontier reuse the same memory and no hop allocates its scratch.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, name: str, rows: int, dtype, width: int = 0) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None:
            shape = (self.capacity, width) if width else (self.capacity,)
            buf = self._bufs[name] = np.empty(shape, dtype=dtype)
        return buf[:rows]


def _hop_ms(lat_state, prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Overlay ms of the hops ``prev -> new`` (compiled positions)."""
    routers, matrix, hop2_ms = lat_state
    return hop2_ms + matrix[routers[prev], routers[new]].astype(np.float64)


def _as_batch(sources: Sequence[int], dest_keys: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    if not hasattr(sources, "__len__"):
        sources = list(sources)
    if not hasattr(dest_keys, "__len__"):
        dest_keys = list(dest_keys)
    src = np.asarray(sources, dtype=_U64)
    dest = np.asarray(dest_keys, dtype=_U64)
    if src.shape != dest.shape:
        raise ValueError(f"{src.size} sources vs {dest.size} destination keys")
    return src, dest


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted array via binary search."""
    if sorted_arr.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_arr, values), sorted_arr.size - 1)
    return sorted_arr[pos] == values


def compile_network(network: DHTNetwork, cached: bool = True) -> CompiledNetwork:
    """Compile (and by default memoize on the network) the CSR layout.

    Link tables are static after :meth:`~repro.core.network.DHTNetwork.build`,
    so the compiled form is cached on the network object; pass
    ``cached=False`` after mutating ``links`` by hand.  Compilation time
    accrues to the ``compile`` phase of :data:`repro.obs.profile.PROFILER`.
    """
    if cached:
        compiled = network.__dict__.get("_perf_compiled")
        if compiled is not None:
            return compiled
    with PROFILER.phase("compile"):
        compiled = CompiledNetwork(network)
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("perf.batch.compiles").inc()
    if cached:
        network.__dict__["_perf_compiled"] = compiled
    return compiled


def batch_route(
    network: DHTNetwork,
    pairs: Sequence[Tuple[int, int]],
    alive: Optional[Set[int]] = None,
    paths: bool = False,
    latency: Optional["LatencyTable"] = None,
) -> BatchResult:
    """Batch :func:`~repro.core.routing.route` over (src, key) pairs."""
    srcs = [p[0] for p in pairs]
    dests = [p[1] for p in pairs]
    return compile_network(network).route(
        srcs, dests, alive=alive, paths=paths, latency=latency
    )
