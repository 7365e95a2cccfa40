"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own shortest-path machinery:
shortest paths come from exhaustive simple-path DFS or Floyd-Warshall with
counting, so agreement with the package is a genuine cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from srte.graph import Commodity, DemandMatrix, Edge, FlowNetwork
from srte.lp import EQ, LE, SparseLp
from srte.paths import sp_dag
from srte.te import MF

# Verdict lines collected by the acceptance tests; echoed after the run so
# they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_net(edge_specs, names=None):
    """Build a FlowNetwork from (tail, head, capacity[, cost]) tuples."""
    max_node = max(max(e[0], e[1]) for e in edge_specs)
    if names is None:
        names = tuple(f"n{i}" for i in range(max_node + 1))
    edges = []
    for spec in edge_specs:
        u, v, cap = spec[0], spec[1], Fraction(spec[2])
        cost = Fraction(spec[3]) if len(spec) > 3 else Fraction(1)
        edges.append(Edge(u, v, cap, cost))
    return FlowNetwork(tuple(names), tuple(edges))


def make_demands(*rows):
    """Build a DemandMatrix from (source, sink, demand) tuples."""
    return DemandMatrix(tuple(Commodity(s, t, float(d)) for s, t, d in rows))


def simple_paths(network, s, t):
    """All simple s-t paths as node tuples (DFS, no library shortest paths)."""
    found = []

    def extend(node, visited, seq):
        if node == t:
            found.append(tuple(seq))
            return
        for eid in network.out_edges[node]:
            head = network.edges[eid].head
            if head not in visited:
                visited.add(head)
                seq.append(head)
                extend(head, visited, seq)
                seq.pop()
                visited.remove(head)

    extend(s, {s}, [s])
    return found


def path_cost(network, nodes):
    """Exact cost of a node-sequence path."""
    by_pair = {(e.tail, e.head): e.cost for e in network.edges}
    return sum(
        (by_pair[(u, v)] for u, v in zip(nodes, nodes[1:])), Fraction(0)
    )


def enumerate_shortest_paths(network, s, t):
    """All minimum-cost simple s-t paths by exhaustive enumeration."""
    paths = simple_paths(network, s, t)
    if not paths:
        return None, []
    costs = [path_cost(network, p) for p in paths]
    best = min(costs)
    return best, [p for p, c in zip(paths, costs) if c == best]


def floyd_warshall_counting(network):
    """All-pairs exact distances and shortest-path counts (independent oracle).

    Returns (dist, count) as dicts keyed by (u, v); dist is None off-diagonal
    when unreachable.
    """
    n = network.node_count
    dist = {(u, v): (Fraction(0) if u == v else None)
            for u in range(n) for v in range(n)}
    count = {(u, v): (1 if u == v else 0) for u in range(n) for v in range(n)}
    for e in network.edges:
        key = (e.tail, e.head)
        if dist[key] is None or e.cost < dist[key]:
            dist[key] = e.cost
            count[key] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[(i, k)]
            if dik is None or i == k:
                continue
            for j in range(n):
                dkj = dist[(k, j)]
                if dkj is None or j == k or i == j:
                    continue
                through = dik + dkj
                cur = dist[(i, j)]
                if cur is None or through < cur:
                    dist[(i, j)] = through
                    count[(i, j)] = count[(i, k)] * count[(k, j)]
                elif through == cur:
                    count[(i, j)] += count[(i, k)] * count[(k, j)]
    return dist, count


def strongly_connected(network):
    """Reachability in both directions from node 0 (plain DFS)."""
    n = network.node_count

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for eid in adj[u]:
                e = network.edges[eid]
                v = e.head if adj is network.out_edges else e.tail
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    return len(reach(network.out_edges)) == n and len(reach(network.in_edges)) == n


def scipy_csr(a):
    """A copy of a CSR matrix (srte's own or scipy's) as scipy's csr_matrix,
    for the reference computations the tests make with scipy.sparse."""
    return csr_matrix((a.data, a.indices, a.indptr), shape=a.shape, copy=True)


def dense_lp(objective, ub=(), eq=(), *, lower=None, upper=None,
             maximize=False):
    """A SparseLp written out densely: ``ub`` and ``eq`` list the <= and the
    = rows as (coefficients, rhs) with one coefficient per column. Bounds
    default to [0, inf)."""
    n = len(objective)

    def block(rows):
        a = np.array([coeffs for coeffs, _ in rows], dtype=float)
        return (csr_matrix(a.reshape(len(rows), n)),
                np.array([rhs for _, rhs in rows], dtype=float))

    (a_ub, b_ub), (a_eq, b_eq) = block(ub), block(eq)
    return SparseLp(
        maximize, np.array(objective, dtype=float),
        np.zeros(n) if lower is None else np.array(lower, dtype=float),
        np.full(n, np.inf) if upper is None else np.array(upper, dtype=float),
        a_ub, b_ub, a_eq, b_eq,
    )


class RowLp:
    """A program written row by row, the form the reference builds of the
    tests keep: columns by ``add_var`` (bounds [0, upper]), rows of
    {column: coefficient} dicts by ``add_row`` ("<=" or "="). ``sparse()``
    assembles its SparseLp from COO entries, block by block in row order."""

    def __init__(self, maximize=False):
        self.maximize = maximize
        self.objective, self.upper, self.rows = [], [], []

    def add_var(self, objective=0.0, upper=math.inf):
        self.objective.append(float(objective))
        self.upper.append(float(upper))
        return len(self.objective) - 1

    def add_row(self, coeffs, relation, rhs):
        assert relation in (LE, EQ)
        self.rows.append((dict(coeffs), relation, float(rhs)))

    def sparse(self):
        n = len(self.objective)
        blocks = []
        for relation in (LE, EQ):
            rows = [(coeffs, rhs) for coeffs, rel, rhs in self.rows if rel == relation]
            data = [a for coeffs, _ in rows for a in coeffs.values()]
            row_ids = [i for i, (coeffs, _) in enumerate(rows) for _ in coeffs]
            cols = [j for coeffs, _ in rows for j in coeffs]
            blocks.append((
                csr_matrix((data, (row_ids, cols)), shape=(len(rows), n)),
                np.array([rhs for _, rhs in rows], dtype=float),
            ))
        (a_ub, b_ub), (a_eq, b_eq) = blocks
        return SparseLp(
            self.maximize, np.array(self.objective, dtype=float), np.zeros(n),
            np.array(self.upper, dtype=float), a_ub, b_ub, a_eq, b_eq,
        )


def diamond_chain(count):
    """``count`` diamonds in a chain, unit capacities and costs: 2^count
    shortest paths from node 0 to node 3 * count."""
    edges = []
    for i in range(count):
        a = 3 * i
        edges += [(a, a + 1, 1), (a, a + 2, 1), (a + 1, a + 3, 1), (a + 2, a + 3, 1)]
    return make_net(edges)


def reference_pairs(net):
    """(sigma, L, weight, through) of the reference centralities, from the
    library's own DAGs (a reference for the array kernel, not an independent
    oracle): sigma[s][t] counts the shortest s-t paths (0 for s == t), L is
    the LCM of all nonzero sigma_st, weight[s][t] is L / sigma_st, and
    through[v] holds (s, [(t, weight[s][t]), ...]) for every pair with
    s != v != t and v on a shortest s-t path (exact int distances)."""
    n = net.node_count
    dags = [sp_dag(net, s) for s in range(n)]
    dist = [g.scaled_dist for g in dags]
    sigma = [list(g.sigma) for g in dags]
    for s in range(n):
        sigma[s][s] = 0  # (s, s) is no pair
    unit = math.lcm(*(c for row in sigma for c in row if c))
    weight = [[unit // c if c else 0 for c in row] for row in sigma]
    through = [[] for _ in range(n)]
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


def reference_betweenness(net):
    """Shortest-path betweenness of ``net``'s own costs, by Python loops over
    big ints: sigma_sv * sigma_vt * weight[s][t] in units of 1 / L, summed
    over the pairs each node lies between."""
    sigma, unit, _, through = reference_pairs(net)
    return [
        Fraction(sum(sigma[s][v] * sum(sigma[v][t] * w for t, w in targets)
                     for s, targets in through[v]), unit)
        for v in range(net.node_count)
    ]


def reference_greedy_group_scores(net, k):
    """Greedy group-betweenness picks and exact prefix scores on ``net``'s
    own costs, by successive updates over Python lists of big ints: the
    loop form of ``srte.centrality.greedy_group_scores``."""
    n = net.node_count
    sigma, unit, weight, through = reference_pairs(net)
    avoid = [row[:] for row in sigma]
    live = list(range(n))
    chosen, scores, score = [], [], 0
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


def segments_share_an_edge(segments):
    """Whether two of the SegmentFractions use the same edge."""
    seen: set[int] = set()
    for seg in segments:
        if not seen.isdisjoint(seg.counts):
            return True
        seen.update(seg.counts)
    return False


def reference_tunnel_loads(cache, tunnels):
    """Each tunnel's nonzero count in the load matrix, then the edge index
    and load of every nonzero, tunnel by tunnel, walked in Python over each
    segment's fractions (``ShortestPathCache.fractions``): the reference
    the segment matrix's load columns are tested against.

    Each load equals float(exact load): a segment's own correctly rounded
    count / sigma where one segment uses the edge, and otherwise the exact
    sum over the segments as one integer numerator over the LCM of their
    sigmas, divided once.
    """
    edges: list[int] = []
    sizes: list[int] = []
    loads: list[float] = []
    for tun in tunnels:
        segments = [cache.fractions(a, b) for a, b in tun.segments]
        if not segments_share_an_edge(segments):
            start = len(edges)
            for seg in segments:
                edges.extend(seg.counts)
                loads.extend(seg.loads)
            sizes.append(len(edges) - start)
            continue
        denominator = math.lcm(*(seg.sigma for seg in segments))
        numerators: dict[int, int] = {}
        for seg in segments:
            factor = denominator // seg.sigma
            for eid, count in seg.counts.items():
                numerators[eid] = numerators.get(eid, 0) + count * factor
        edges.extend(numerators)
        loads.extend(num / denominator for num in numerators.values())
        sizes.append(len(numerators))
    return np.array(sizes, dtype=np.intp), np.array(edges, dtype=np.intp), np.array(loads)


def reference_lu_columns(pool, columns):
    """The given pool columns as LU program columns, in the arrays
    ``LpModel.solve_with`` takes (int32 ``ptr`` and rows, float values),
    filled by boolean masks from their tunnels' ``reference_tunnel_loads``:
    each column's loads, then -1 in its commodity's demand row if the demand
    is positive. Every LU program of the pool has the same rows, one per
    edge, then one per positive demand, whatever its tunnels."""
    tunnels = pool._slice(columns, MF).tunnels
    sizes, edges, loads = reference_tunnel_loads(pool.cache, tunnels)
    positive = pool.demands.volumes > 0
    row_of = np.where(
        positive, pool.cache.network.edge_count + np.cumsum(positive) - 1, -1
    )
    demand_row = row_of[[tun.commodity for tun in tunnels]].astype(np.intp)
    met = demand_row >= 0
    ptr = np.zeros(len(tunnels) + 1, dtype=np.int32)
    np.cumsum(sizes + met, out=ptr[1:])
    demand_at = np.zeros(ptr[-1], dtype=bool)  # each column's last entry
    demand_at[ptr[1:][met] - 1] = True
    rows, values = np.empty(ptr[-1], dtype=np.int32), np.empty(ptr[-1])
    rows[~demand_at] = edges
    values[~demand_at] = loads
    rows[demand_at], values[demand_at] = demand_row[met], -1.0
    return ptr, rows, values


def split_lp():
    """Hand-solved two-route balance LP: theta* = 0.6, f1 = 1.8, f2 = 1.2.

    minimize theta  s.t.  f1 + f2 = 3,  f1 <= 3 theta,  f2 <= 2 theta.
    Returns (program, theta_var, f1_var, f2_var).
    """
    lp = dense_lp(
        [1.0, 0.0, 0.0],
        ub=[([-3.0, 1.0, 0.0], 0.0), ([-2.0, 0.0, 1.0], 0.0)],
        eq=[([0.0, 1.0, 1.0], 3.0)],
    )
    return lp, 0, 1, 2


@pytest.fixture
def middlepoint_fixture():
    """Direct edge cap 3 plus a two-hop detour of cap 2: theta* = 3/5."""
    return make_net(
        [(0, 2, 3), (0, 1, 2), (1, 2, 2)], names=("s", "m", "t")
    )


@pytest.fixture
def chain_fixture():
    """Three-node chain a -> b -> c."""
    return make_net([(0, 1, 2), (1, 2, 1)], names=("a", "b", "c"))
