"""Exact shortest-path structure with path counting and ECMP edge fractions.

Dijkstra runs on the network's integer-scaled costs (``cost_scale`` times the
rational costs), so distances are exact Python ints and two paths are ECMP
ties iff their scaled costs are equal — there is no epsilon anywhere in this
module. Path counts are unbounded integers. A segment's ECMP fraction on an
edge is kept as an integer path count over the segment's path count, with
its correctly rounded float.

``ShortestPathCache.pairs`` holds the all-pairs distances and path counts
as arrays (``pair_arrays``), int64 where they fit and Python ints
otherwise; the centralities rank on them. ``segment_rows`` makes the
fractions of the segments a caller asks for, as CSR rows over the same
arrays, on every network; every tunnel load column is built from them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graph import FlowNetwork

# The all-pairs arrays are int64 while every scaled distance is below
# DIST_LIMIT, so a sum of three fits, and every path count below INT64_END.
# Segment rows test distances on int64 while also every scaled cost is below
# DIST_LIMIT, and hold path counts as int64 while below FLOAT_EXACT, so a
# float holds each exactly and count / sigma rounds once.
DIST_LIMIT = 1 << 61
FLOAT_EXACT = 1 << 53
INT64_END = 1 << 63


class UnreachableSegment(Exception):
    """Segment (u, v) cannot carry flow because v is unreachable from u."""

    def __init__(self, u: int, v: int):
        super().__init__(f"node {v} unreachable from node {u}")
        self.u = u
        self.v = v


@dataclass(frozen=True)
class ShortestPathDag:
    """Single-source shortest-path DAG with exact distances and path counts.

    ``scaled_dist[v]`` is the distance times the network's ``cost_scale``,
    an int, or None for unreachable nodes (sigma 0). An edge (u, v) is on a
    shortest path iff scaled_dist[v] == scaled_dist[u] + its scaled cost
    exactly. ``settled`` lists the reachable nodes in the order Dijkstra
    settled them.
    """

    source: int
    scaled_dist: tuple[Optional[int], ...]
    sigma: tuple[int, ...]
    settled: tuple[int, ...]

    def order(self) -> list[int]:
        """Reachable nodes sorted by increasing distance (index tie-break).

        Public API: ``group_betweenness`` walks it, the reference the tests
        check the successive GSP updates against, and bench/tracer.py counts
        its calls."""
        return list(self.settled)


def _dijkstra_counting(network: FlowNetwork, start: int, reverse: bool):
    """Dijkstra with shortest-path counting; reverse=True walks incoming edges."""
    n = network.node_count
    edges, costs = network.edges, network.scaled_costs
    dist: list[Optional[int]] = [None] * n
    sigma = [0] * n
    dist[start] = 0
    sigma[start] = 1
    done = [False] * n
    # Costs are positive, so popping by (distance, index) settles the nodes
    # in exactly that order.
    settled: list[int] = []
    heap: list[tuple[int, int]] = [(0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        settled.append(u)
        edge_ids = network.in_edges[u] if reverse else network.out_edges[u]
        for eid in edge_ids:
            v = edges[eid].tail if reverse else edges[eid].head
            nd = d + costs[eid]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v]:
                sigma[v] += sigma[u]
    return tuple(dist), tuple(sigma), tuple(settled)


def sp_dag(network: FlowNetwork, source: int) -> ShortestPathDag:
    """Shortest-path DAG from ``source`` with exact distances and counts."""
    return ShortestPathDag(
        source, *_dijkstra_counting(network, source, reverse=False)
    )


def sp_dag_reverse(network: FlowNetwork, sink: int) -> ShortestPathDag:
    """Shortest-path DAG *to* ``sink``: scaled_dist[v] and sigma[v] refer to
    v -> sink."""
    return ShortestPathDag(
        sink, *_dijkstra_counting(network, sink, reverse=True)
    )


@dataclass(frozen=True)
class SegmentFractions:
    """ECMP load fractions for segment (u, v).

    ``counts[e]`` is the number of shortest u-v paths using edge e, for every
    edge on some shortest u-v path, and ``sigma`` the number of shortest u-v
    paths; the fraction of the segment's flow on e is counts[e] / sigma.
    ``loads`` holds these fractions as correctly rounded floats, in the order
    of ``counts``.
    """

    sigma: int
    counts: dict[int, int]
    loads: tuple[float, ...]

    @property
    def fractions(self) -> dict[int, Fraction]:
        """The exact fraction of the segment's flow on each edge."""
        return {eid: Fraction(c, self.sigma) for eid, c in self.counts.items()}


def segment_fractions(
    network: FlowNetwork,
    u: int,
    v: int,
    forward: Optional[ShortestPathDag] = None,
    backward: Optional[ShortestPathDag] = None,
) -> SegmentFractions:
    """Per-edge ECMP fractions for one unit of flow on segment (u, v).

    Raises UnreachableSegment when v is unreachable from u. Precomputed DAGs
    for the endpoints may be passed in to avoid recomputation.
    """
    if u == v:
        raise ValueError("segment endpoints must differ")
    fwd = forward if forward is not None else sp_dag(network, u)
    bwd = backward if backward is not None else sp_dag_reverse(network, v)
    total = fwd.scaled_dist[v]
    if total is None:
        raise UnreachableSegment(u, v)
    fdist, fsigma = fwd.scaled_dist, fwd.sigma
    bdist, bsigma = bwd.scaled_dist, bwd.sigma
    edges, costs = network.edges, network.scaled_costs
    counts: dict[int, int] = {}
    # An edge (a, b) lies on a shortest u-v path iff d(u, a) + cost + d(b, v)
    # equals d(u, v); costs are positive, so a is settled before distance
    # d(u, v) is reached.
    for a in fwd.settled:
        da = fdist[a]
        if da >= total:
            break
        for eid in network.out_edges[a]:
            b = edges[eid].head
            db = bdist[b]
            if db is not None and da + costs[eid] + db == total:
                counts[eid] = fsigma[a] * bsigma[b]
    sigma = fsigma[v]
    return SegmentFractions(
        sigma, counts, tuple(c / sigma for c in counts.values())
    )


def pair_arrays(dags: Sequence[ShortestPathDag]) -> tuple[np.ndarray, np.ndarray]:
    """The all-pairs (dist, sigma) of the forward DAGs of every node, in node
    order, as n x n arrays: dist[u, v] is d(u, v) times the ``cost_scale``,
    or max(DIST_LIMIT, 1 + every distance) where v is unreachable from u,
    and sigma[u, v] the number of shortest u-v paths (0 where unreachable, 1
    from a node to itself). dist is int64 if every distance is below
    DIST_LIMIT, and sigma if every count is below INT64_END; an array that
    does not fit holds Python ints (``dtype=object``)."""
    n = len(dags)
    far = max(DIST_LIMIT, 1 + max(
        (d for dag in dags for d in dag.scaled_dist if d is not None), default=0
    ))
    dist = [[far if d is None else d for d in dag.scaled_dist] for dag in dags]
    sigma = [dag.sigma for dag in dags]
    wide = max(map(max, sigma), default=0) >= INT64_END
    return (
        np.array(dist, dtype=object if far > DIST_LIMIT else np.int64).reshape(n, n),
        np.array(sigma, dtype=object if wide else np.int64).reshape(n, n),
    )


class SegmentRows(NamedTuple):
    """The ECMP loads of some segments as CSR rows (``segment_rows``)."""

    sigma: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    loads: np.ndarray
    masks: np.ndarray


def segment_rows(cache: "ShortestPathCache", segments: np.ndarray) -> SegmentRows:
    """The ECMP loads of the given segments, ascending flat ids u * n + v, as
    CSR rows over the cache's exact all-pairs arrays (``pairs``).

    Row r is segment segments[r], with ``sigma[r]`` shortest paths: entries
    ``starts[r]`` to ``starts[r] + sizes[r]`` of ``edges``, ``counts`` and
    ``loads``, in the order of ``segment_fractions(u, v).counts`` (by the
    settle rank of the edge's tail in u's DAG, then by edge id), each load
    the correctly rounded count / sigma; ``masks[r]`` holds its edges as
    packed bits. A row (t, t) is empty with sigma 1, and one whose end is
    unreachable empty with sigma 0.

    Edge (a, b) is on (u, v) iff D[u, a] + c + D[b, v] equals D[u, v], with
    count Sigma[u, a] * Sigma[b, v], so no backward DAG is needed; each
    source is tested against the targets asked for only. The test runs on
    int64 while every scaled cost and distance is below DIST_LIMIT, and
    ``sigma`` and ``counts`` are int64 while every row's path count is
    below FLOAT_EXACT; each is Python ints (``dtype=object``) otherwise.
    """
    network = cache.network
    n = network.node_count
    dist, sigma = cache.pairs
    tails = np.array([e.tail for e in network.edges], dtype=np.int64)
    heads = np.array([e.head for e in network.edges], dtype=np.int64)
    wide_costs = max(network.scaled_costs, default=0) >= DIST_LIMIT
    costs = np.array(network.scaled_costs, dtype=object if wide_costs else np.int64)
    row_sigma = sigma.ravel()[segments]
    dtype = object if row_sigma.max(initial=0) >= FLOAT_EXACT else np.int64
    row_sigma = row_sigma.astype(dtype)
    sizes = np.zeros(len(segments), dtype=np.int64)
    edges, counts, loads = [np.zeros(0, np.int64)], [np.zeros(0, dtype)], [np.zeros(0)]
    sources, firsts = np.unique(segments // n, return_index=True)
    for u, rows in zip(sources.tolist(), np.split(np.arange(len(segments)), firsts[1:])):
        targets = segments[rows] % n
        settled = cache.forward(u).settled
        rank = np.full(n, n)
        rank[list(settled)] = np.arange(len(settled))
        # The edges by the settle rank of their tails, then by id.
        order = np.argsort(rank[tails], kind="stable")
        tail, head = tails[order], heads[order]
        du = dist[u]
        # No int64 sum reaches 2^63, and one with an unreachable term exceeds
        # every distance.
        on = (
            du[tail] + costs[order] + dist[head[None, :], targets[:, None]]
            == du[targets, None]
        )
        v, k = np.nonzero(on)
        count = (
            np.asarray(sigma[u, tail[k]], dtype=dtype)
            * np.asarray(sigma[head[k], targets[v]], dtype=dtype)
        )
        edges.append(order[k])
        counts.append(count)
        # Python ints divide correctly rounded, as int64 below 2^53 do.
        loads.append(np.asarray(count / row_sigma[rows[v]], dtype=float))
        sizes[rows] = np.count_nonzero(on, axis=1)
    edges = np.concatenate(edges)
    bits = np.zeros((len(segments), network.edge_count), dtype=bool)
    bits[np.repeat(np.arange(len(segments)), sizes), edges] = True
    return SegmentRows(
        row_sigma, np.cumsum(sizes) - sizes, sizes, edges, np.concatenate(counts),
        np.concatenate(loads), np.packbits(bits, axis=1),
    )


class ShortestPathCache:
    """Memoized shortest-path structure of one network: per-source and
    per-sink DAGs, per-segment fractions and the all-pairs ``pairs`` arrays.

    Each is computed on first use and kept for the life of the cache; the
    rows of segments are not kept (``segment_rows`` makes them from
    ``pairs`` on each call). Not for concurrent use.
    """

    def __init__(self, network: FlowNetwork):
        self.network = network
        self._forward: dict[int, ShortestPathDag] = {}
        self._backward: dict[int, ShortestPathDag] = {}
        self._fractions: dict[tuple[int, int], SegmentFractions] = {}

    def forward(self, source: int) -> ShortestPathDag:
        if source not in self._forward:
            self._forward[source] = sp_dag(self.network, source)
        return self._forward[source]

    def backward(self, sink: int) -> ShortestPathDag:
        if sink not in self._backward:
            self._backward[sink] = sp_dag_reverse(self.network, sink)
        return self._backward[sink]

    def fractions(self, u: int, v: int) -> SegmentFractions:
        key = (u, v)
        if key not in self._fractions:
            self._fractions[key] = segment_fractions(
                self.network, u, v, self.forward(u), self.backward(v)
            )
        return self._fractions[key]

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``pair_arrays`` of the network's forward DAGs."""
        pairs = pair_arrays([self.forward(u) for u in range(self.network.node_count)])
        for array in pairs:
            array.setflags(write=False)
        return pairs
