"""Exact shortest-path structure with path counting and ECMP edge fractions.

Dijkstra runs on the network's integer-scaled costs (``cost_scale`` times the
rational costs), so distances are exact Python ints and two paths are ECMP
ties iff their scaled costs are equal — there is no epsilon anywhere in this
module. Path counts are unbounded integers. A segment's ECMP fraction on an
edge is kept as an integer path count over the segment's path count; te.py
turns these into correctly rounded floats when it assembles LP matrices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import FlowNetwork


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


class ShortestPathCache:
    """Memoized per-source/per-sink DAGs and segment fractions for one network.

    Read-only after warm-up; safe to share across threads once populated.
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

    def reachable(self, u: int, v: int) -> bool:
        return self.forward(u).scaled_dist[v] is not None

    def fractions(self, u: int, v: int) -> SegmentFractions:
        key = (u, v)
        if key not in self._fractions:
            self._fractions[key] = segment_fractions(
                self.network, u, v, self.forward(u), self.backward(v)
            )
        return self._fractions[key]
