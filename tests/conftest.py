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
