"""Exact shortest-path structure with path counting and ECMP edge fractions.

All distances are exact rationals and all path counts unbounded integers, so
two paths are ECMP ties iff their costs compare equal — there is no epsilon
anywhere in this module. Fractions are converted to floating point only when
LP matrices are assembled (see te.py).
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

    ``dist[v]`` is None for unreachable nodes (sigma 0, no predecessors).
    ``preds[v]`` lists the indices of edges (u, v) with
    dist[v] == dist[u] + cost(u, v) exactly. ``settled`` lists the reachable
    nodes in the order Dijkstra settled them.
    """

    source: int
    dist: tuple[Optional[Fraction], ...]
    sigma: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    settled: tuple[int, ...]

    def order(self) -> list[int]:
        """Reachable nodes sorted by increasing distance (index tie-break)."""
        return list(self.settled)


def _dijkstra_counting(network: FlowNetwork, start: int, reverse: bool):
    """Dijkstra with shortest-path counting; reverse=True walks incoming edges."""
    n = network.node_count
    dist: list[Optional[Fraction]] = [None] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[start] = Fraction(0)
    sigma[start] = 1
    done = [False] * n
    # Costs are positive, so popping by (distance, index) settles the nodes
    # in exactly that order.
    settled: list[int] = []
    heap: list[tuple[Fraction, int]] = [(Fraction(0), start)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        settled.append(u)
        edge_ids = network.in_edges[u] if reverse else network.out_edges[u]
        for eid in edge_ids:
            e = network.edges[eid]
            v = e.tail if reverse else e.head
            nd = d + e.cost
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [eid]
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v]:
                sigma[v] += sigma[u]
                preds[v].append(eid)
    return (
        tuple(dist),
        tuple(sigma),
        tuple(tuple(p) for p in preds),
        tuple(settled),
    )


def sp_dag(network: FlowNetwork, source: int) -> ShortestPathDag:
    """Shortest-path DAG from ``source`` with exact distances and counts."""
    return ShortestPathDag(
        source, *_dijkstra_counting(network, source, reverse=False)
    )


def sp_dag_reverse(network: FlowNetwork, sink: int) -> ShortestPathDag:
    """Shortest-path DAG *to* ``sink``: dist[v] and sigma[v] refer to v -> sink.

    ``preds[v]`` lists outgoing edges of v on some shortest v -> sink path.
    """
    return ShortestPathDag(
        sink, *_dijkstra_counting(network, sink, reverse=True)
    )


@dataclass(frozen=True)
class SegmentFractions:
    """ECMP load fractions for segment (u, v).

    fraction[e] = (number of shortest u-v paths using e) / sigma_uv, for every
    edge e lying on some shortest u-v path.
    """

    segment: tuple[int, int]
    fractions: dict[int, Fraction]


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
    total = fwd.dist[v]
    if total is None:
        raise UnreachableSegment(u, v)
    sigma_uv = fwd.sigma[v]
    fractions: dict[int, Fraction] = {}
    for eid, e in enumerate(network.edges):
        du = fwd.dist[e.tail]
        dv = bwd.dist[e.head]
        if du is None or dv is None:
            continue
        if du + e.cost + dv == total:
            count = fwd.sigma[e.tail] * bwd.sigma[e.head]
            if count:
                fractions[eid] = Fraction(count, sigma_uv)
    return SegmentFractions((u, v), fractions)


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
        return self.forward(u).dist[v] is not None

    def fractions(self, u: int, v: int) -> SegmentFractions:
        key = (u, v)
        if key not in self._fractions:
            self._fractions[key] = segment_fractions(
                self.network, u, v, self.forward(u), self.backward(v)
            )
        return self._fractions[key]
