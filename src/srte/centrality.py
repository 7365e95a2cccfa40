"""Structural node-importance scores used for middlepoint selection.

All shortest-path work is exact (integer distances over the network's cost
scale, integer counts: int64 arrays where they fit, Python ints where they
do not), so scores compare exactly and orderings are deterministic:
descending score with lowest node index breaking ties. Betweenness and
greedy group betweenness share one array kernel (``_PairKernel``).

Node pairs with no connecting path contribute 0 to every betweenness sum.
For group betweenness, pairs with an endpoint inside the group are excluded
from the sum, mirroring the s != v != t restriction of the individual score.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graph import FlowNetwork
from .paths import INT64_END, ShortestPathCache, ShortestPathDag

# The kernel finds the pairs of a block of candidates at a time: about this
# many (candidate, s, t) entries, and never fewer than one candidate's n^2.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class CentralityScores:
    scores: tuple[Fraction, ...]
    ordering: tuple[int, ...]


def _ranked(scores: Sequence[Fraction]) -> CentralityScores:
    ordering = sorted(range(len(scores)), key=lambda v: (-scores[v], v))
    return CentralityScores(tuple(scores), tuple(ordering))


def _analysis_network(network: FlowNetwork, weighted: bool) -> FlowNetwork:
    return network.inverse_capacity_costs() if weighted else network


class _PairKernel:
    """The pairs every node lies between, over exact all-pairs arrays.

    ``dist`` and ``sigma`` are the analysis network's all-pairs scaled
    distances and path counts (``pair_arrays``, sigma 0 on the diagonal), L
    is the LCM of the nonzero sigma_st (1 if none), and ``weight`` holds
    W[s, t] = L / sigma_st (0 where there is no pair). The entries of ``v``
    (ascending), ``sv``, ``vt`` and ``st`` (flat indices s*n + v, v*n + t
    and s*n + t) list every node v and pair (s, t) with s != v != t and
    d(s, v) + d(v, t) == d(s, t), and ``w`` their W[s, t].

    The distances are int64 wherever they fit (``pair_arrays``). Every score
    is a sum of at most n^2 terms of at most L each (a count of covered
    paths times L / sigma_st), so the counts are int64 while n^2 * L < 2^63,
    and Python ints (``dtype=object``) otherwise: the same code, exact
    either way.
    """

    def __init__(self, net: FlowNetwork, cache: ShortestPathCache | None):
        n = net.node_count
        cache = cache if cache is not None else ShortestPathCache(net)
        dist, sigma = cache.pairs
        sigma = sigma.copy()
        np.fill_diagonal(sigma, 0)  # (s, s) is no pair
        pair = sigma != 0
        self.unit = math.lcm(*np.unique(sigma[pair]).tolist())
        if n * n * self.unit >= INT64_END:
            sigma = sigma.astype(object)
        self.sigma = sigma
        self.weight = np.zeros_like(sigma)
        self.weight[pair] = self.unit // sigma[pair]
        # on[v, s, t] for a block of candidates v at a time. Besides the
        # pairs v lies between, it holds only for v == s and v == t, since an
        # unreachable distance exceeds every reachable one. Those entries
        # would add 0 (sigma's diagonal is 0) but cost memory and time.
        block = max(1, _BLOCK_ENTRIES // max(1, n * n))
        found = [np.zeros(0, dtype=np.int64)]
        for first in range(0, n, block):
            vs = np.arange(first, min(first + block, n))
            on = dist[:, vs].T[:, :, None] + dist[vs][:, None, :] == dist
            rows = np.arange(len(vs))
            on[rows, vs, :] = False
            on[rows, :, vs] = False
            found.append(first * n * n + np.flatnonzero(on))
        self.v, self.st = np.divmod(np.concatenate(found), n * n)
        s, t = np.divmod(self.st, n)
        self.sv, self.vt = s * n + self.v, self.v * n + t
        self.w = self.weight.ravel()[self.st]

    def gains(self, avoid: np.ndarray) -> np.ndarray:
        """Per node v, the sum over its pairs of avoid[s, v] * avoid[v, t] *
        W[s, t]: with avoid = sigma, v's betweenness in units of 1 / L."""
        flat = avoid.ravel()
        sums = np.zeros_like(self.sigma, shape=len(self.sigma))
        np.add.at(sums, self.v, flat[self.sv] * flat[self.vt] * self.w)
        return sums


def betweenness(
    network: FlowNetwork, weighted: bool = False,
    cache: ShortestPathCache | None = None,
) -> CentralityScores:
    """Shortest-path betweenness: sum over pairs of sigma_st(v) / sigma_st,
    summed exactly as sigma_sv * sigma_vt * L / sigma_st in units of 1 / L
    (``_PairKernel.gains``). ``cache``, if given, must hold the DAGs of the
    analysis network."""
    kernel = _PairKernel(_analysis_network(network, weighted), cache)
    gains = kernel.gains(kernel.sigma)
    return _ranked([Fraction(int(g), kernel.unit) for g in gains])


def _avoiding_counts(dag: ShortestPathDag, net: FlowNetwork, group: frozenset[int]):
    """Per-node count of shortest paths from dag.source avoiding all group
    nodes, by one walk of the DAG in distance order (``group_betweenness``);
    an edge (u, v) is on a shortest path iff dist[u] == dist[v] - its cost."""
    dist, costs, edges = dag.scaled_dist, net.scaled_costs, net.edges
    avoid = [0] * net.node_count
    avoid[dag.source] = 0 if dag.source in group else 1
    for v in dag.order():
        if v == dag.source or v in group:
            continue
        for eid in net.in_edges[v]:
            u = edges[eid].tail
            if dist[u] == dist[v] - costs[eid]:  # None for unreachable u
                avoid[v] += avoid[u]
    return avoid


def group_betweenness(
    network: FlowNetwork,
    group: Iterable[int],
    weighted: bool = False,
    cache: ShortestPathCache | None = None,
) -> Fraction:
    """Fraction of shortest paths covered by the group, summed over pairs.

    sigma_st(C) is computed as sigma_st minus the count of shortest paths
    avoiding every node of C; pairs with s or t in C are excluded.

    Public API, computed from scratch for any group: GSP selection uses the
    successive updates of ``greedy_group_scores`` instead, and the tests
    check every prefix score of those against this definition.
    bench/tracer.py counts its calls.
    """
    members = frozenset(group)
    if not members:
        raise ValueError("group must be nonempty")
    net = _analysis_network(network, weighted)
    cache = cache or ShortestPathCache(net)
    n = net.node_count
    total = Fraction(0)
    for s in range(n):
        if s in members:
            continue
        dag = cache.forward(s)
        avoid = _avoiding_counts(dag, net, members)
        for t in range(n):
            if t == s or t in members or dag.sigma[t] == 0:
                continue
            covered = dag.sigma[t] - avoid[t]
            if covered:
                total += Fraction(covered, dag.sigma[t])
    return total


def greedy_group_select(
    network: FlowNetwork, k: int, weighted: bool = False,
    cache: ShortestPathCache | None = None,
) -> list[int]:
    """Greedy group-betweenness selection; prefixes are valid smaller selections.

    Each round adds the node with maximal group score when joined to the
    current set (exact comparison, lowest index on ties). ``cache``, if
    given, must hold the DAGs of the analysis network.
    """
    return greedy_group_scores(network, k, weighted, cache)[0]


def greedy_group_scores(
    network: FlowNetwork, k: int, weighted: bool = False,
    cache: ShortestPathCache | None = None,
) -> tuple[list[int], list[Fraction]]:
    """Greedy picks and the exact group betweenness of every prefix.

    Successive group-betweenness updates (Puzis, Elovici and Dolev 2007):
    avoid[s, t] counts the shortest s-t paths that miss the chosen group, and
    adding v covers avoid[s, v] * avoid[v, t] of them on every pair (s, t)
    that v lies between. Each round scores every live candidate at once:
    its ``_PairKernel.gains``, less what the pairs with v as an endpoint
    held, which leave the sum once v joins; then the first best candidate
    (lowest index on ties) joins and its pairs' avoid counts drop. Scores
    are integers in units of 1 / L, so every comparison is exact.
    """
    n = network.node_count
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    kernel = _PairKernel(_analysis_network(network, weighted), cache)
    sigma, weight = kernel.sigma, kernel.weight
    avoid = sigma.copy()
    flat = avoid.ravel()
    live = np.ones(n, dtype=bool)
    chosen: list[int] = []
    scores: list[Fraction] = []
    score = 0
    for _ in range(k):
        covered = (sigma - avoid) * weight
        lost = covered[:, live].sum(axis=1) + covered[live].sum(axis=0)
        candidates = np.flatnonzero(live)
        best = (score + kernel.gains(avoid) - lost)[candidates]
        i = int(np.argmax(best))
        v, score = int(candidates[i]), best[i]
        pairs = slice(*np.searchsorted(kernel.v, [v, v + 1]))
        flat[kernel.st[pairs]] -= flat[kernel.sv[pairs]] * flat[kernel.vt[pairs]]
        avoid[v] = 0
        avoid[:, v] = 0
        live[v] = False
        chosen.append(v)
        scores.append(Fraction(int(score), kernel.unit))
    return chosen, scores


def degree_centrality(
    network: FlowNetwork, weighted: bool = False
) -> CentralityScores:
    """Average of in- and out-degree; weighted mode sums 1/capacity instead."""
    n = network.node_count
    scores = []
    for v in range(n):
        incident = list(network.out_edges[v]) + list(network.in_edges[v])
        if weighted:
            score = sum(
                (1 / network.edges[eid].capacity for eid in incident),
                Fraction(0),
            )
        else:
            score = Fraction(len(incident), 2)
        scores.append(score)
    return _ranked(scores)


def random_select(network: FlowNetwork, k: int, seed: int) -> list[int]:
    """Uniform sample of k distinct nodes; deterministic per seed."""
    n = network.node_count
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return random.Random(seed).sample(range(n), k)
