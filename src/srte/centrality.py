"""Structural node-importance scores used for middlepoint selection.

All shortest-path work is exact (integer distances over the network's cost
scale, big-integer counts), so scores compare exactly and orderings are
deterministic: descending score with lowest node index breaking ties.

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

from .graph import FlowNetwork
from .paths import ShortestPathCache, ShortestPathDag


@dataclass(frozen=True)
class CentralityScores:
    scores: tuple[Fraction, ...]
    ordering: tuple[int, ...]


def _ranked(scores: Sequence[Fraction]) -> CentralityScores:
    ordering = sorted(range(len(scores)), key=lambda v: (-scores[v], v))
    return CentralityScores(tuple(scores), tuple(ordering))


def _analysis_network(network: FlowNetwork, weighted: bool) -> FlowNetwork:
    return network.inverse_capacity_costs() if weighted else network


def _shortest_path_pairs(net: FlowNetwork, cache: ShortestPathCache | None):
    """(sigma, L, weight, through): sigma[s][t] counts the shortest s-t paths
    (0 for s == t), L is the LCM of all nonzero sigma_st, weight[s][t] is
    L / sigma_st, and through[v] holds (s, [(t, weight[s][t]), ...]) for every
    pair with s != v != t and v on a shortest s-t path (exact int distances).
    """
    n = net.node_count
    cache = cache or ShortestPathCache(net)
    dags = [cache.forward(s) for s in range(n)]
    dist = [g.scaled_dist for g in dags]
    sigma = [list(g.sigma) for g in dags]
    for s in range(n):
        sigma[s][s] = 0  # (s, s) is no pair
    unit = math.lcm(*(c for row in sigma for c in row if c))
    weight = [[unit // c if c else 0 for c in row] for row in sigma]
    through: list[list] = [[] for _ in range(n)]
    for s in range(n):
        ds, ws = dist[s], weight[s]
        for v in dags[s].settled[1:]:  # settled[0] is the source
            dsv, dv = ds[v], dist[v]
            targets = [
                (t, ws[t]) for t in dags[v].settled[1:]
                if t != s and dsv + dv[t] == ds[t]
            ]
            if targets:
                through[v].append((s, targets))
    return sigma, unit, weight, through


def betweenness(
    network: FlowNetwork, weighted: bool = False,
    cache: ShortestPathCache | None = None,
) -> CentralityScores:
    """Shortest-path betweenness: sum over pairs of sigma_st(v) / sigma_st,
    summed exactly as sigma_sv * sigma_vt * weight[s][t] in units of 1 / L."""
    net = _analysis_network(network, weighted)
    sigma, unit, _, through = _shortest_path_pairs(net, cache)
    scores = [
        Fraction(sum(sigma[s][v] * sum(sigma[v][t] * w for t, w in targets)
                     for s, targets in through[v]), unit)
        for v in range(net.node_count)
    ]
    return _ranked(scores)


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
    avoid[s][t] counts the shortest s-t paths that miss the chosen group, and
    adding v covers avoid[s][v] * avoid[v][t] of them on every pair (s, t)
    with d(s, v) + d(v, t) == d(s, t). Scores are integers in units of 1 / L,
    L the LCM of all sigma_st, so every comparison is exact. Setup is O(n^3);
    each candidate then costs O(n^2).
    """
    n = network.node_count
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    net = _analysis_network(network, weighted)
    sigma, unit, weight, through = _shortest_path_pairs(net, cache)
    avoid = [row[:] for row in sigma]
    live = list(range(n))
    chosen: list[int] = []
    scores: list[Fraction] = []
    score = 0
    for _ in range(k):
        best_v = best_score = None
        for v in live:
            av = avoid[v]
            gained = 0
            for s, targets in through[v]:
                a = avoid[s][v]
                if a:
                    gained += a * sum(av[t] * w for t, w in targets)
            # Pairs with v as an endpoint leave the sum once v joins.
            lost = sum(
                (sigma[v][u] - av[u]) * weight[v][u]
                + (sigma[u][v] - avoid[u][v]) * weight[u][v]
                for u in live
            )
            candidate = score + gained - lost
            if best_score is None or candidate > best_score:
                best_v, best_score = v, candidate
        v, score = best_v, best_score
        av = avoid[v]
        for s, targets in through[v]:
            a, row = avoid[s][v], avoid[s]
            if a:
                for t, _ in targets:
                    row[t] -= a * av[t]
        live.remove(v)
        for row in avoid:
            row[v] = 0
        avoid[v] = [0] * n
        chosen.append(v)
        scores.append(Fraction(score, unit))
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
