"""Desk-scale brute-force flow oracles for verification.

Everything here enumerates paths explicitly (a path is a walk with distinct
edges) and solves small LPs over them. These oracles exist to verify the TE
machinery and the flow-theoretic identities on tiny instances; hard size caps
keep them honest about that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix, vstack

from .graph import DemandMatrix, Edge, FlowNetwork
from .lp import EQ, LE, LinearProgram, LpStatus, SparseLp, solve_lp

DEFAULT_NODE_CAP = 12
MAX_PATHS = 40_000

VALUE_TOL = 1e-6


class SizeCapExceededError(Exception):
    """Instance exceeds the configured brute-force size caps."""


class ZeroMaxFlowError(Exception):
    """The flow-centrality ratio is undefined because the max flow is zero."""


def _check_node_cap(network_nodes: int, node_cap: int) -> None:
    if network_nodes > node_cap:
        raise SizeCapExceededError(
            f"{network_nodes} nodes exceed the oracle cap of {node_cap}"
        )


@dataclass(frozen=True)
class Path:
    """Edge-distinct walk, stored as the edge index sequence plus node sequence."""

    edges: tuple[int, ...]
    nodes: tuple[int, ...]

    def visits(self, w: int) -> bool:
        return w in self.nodes


def enumerate_paths(
    network: FlowNetwork,
    s: int,
    t: int,
    max_paths: int = MAX_PATHS,
) -> list[Path]:
    """All s-t paths (distinct edges, nodes may repeat), including ones that
    revisit t. Hard error beyond ``max_paths``."""
    paths: list[Path] = []
    used = [False] * network.edge_count

    def extend(node: int, edge_seq: list[int], node_seq: list[int]) -> None:
        if node == t and edge_seq:
            if len(paths) >= max_paths:
                raise SizeCapExceededError(f"more than {max_paths} paths")
            paths.append(Path(tuple(edge_seq), tuple(node_seq)))
        for eid in network.out_edges[node]:
            if used[eid]:
                continue
            used[eid] = True
            edge_seq.append(eid)
            node_seq.append(network.edges[eid].head)
            extend(network.edges[eid].head, edge_seq, node_seq)
            node_seq.pop()
            edge_seq.pop()
            used[eid] = False

    extend(s, [], [s])
    return paths


def has_swt_path(network: FlowNetwork, s: int, w: int, t: int) -> bool:
    """Whether any edge-distinct s-t path visiting w exists (brute-force DFS)."""
    return _has_swt_path(network, s, w, t, ())


def _has_swt_path(
    network: FlowNetwork, s: int, w: int, t: int, removed: Iterable[int]
) -> bool:
    """``has_swt_path`` on the network without the ``removed`` edges: the walk
    treats them as already used."""
    used = [False] * network.edge_count
    for eid in removed:
        used[eid] = True
    found = False

    def walk(node: int, seen_w: bool) -> None:
        nonlocal found
        if found:
            return
        if node == t and seen_w:
            found = True
            return
        for eid in network.out_edges[node]:
            if used[eid]:
                continue
            used[eid] = True
            head = network.edges[eid].head
            walk(head, seen_w or head == w)
            used[eid] = False
            if found:
                return

    walk(s, s == w)
    return found


def _incidence(paths: Sequence[Path], edge_count: int) -> csr_matrix:
    """Edges × paths matrix: entry (e, j) counts the traversals of e by path j."""
    sizes = [len(p.edges) for p in paths]
    rows = [eid for p in paths for eid in p.edges]
    cols = np.repeat(np.arange(len(paths)), sizes)
    return csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(edge_count, len(paths))
    )


def _path_flow_lp(
    path_groups: Sequence[Sequence[Path]],
    capacities: np.ndarray,
    demand_caps: Optional[Sequence[float]] = None,
) -> SparseLp:
    """Maximize total flow over explicit paths with shared edge capacities.

    Columns are the paths, group by group. Rows: a capacity row for each used
    edge, in edge order, then with ``demand_caps`` a row capping each
    non-empty group's total flow.
    """
    paths = [p for group in path_groups for p in group]
    count = len(paths)
    incidence = _incidence(paths, len(capacities))
    used = np.flatnonzero(np.diff(incidence.indptr))
    blocks, b_ub = [incidence[used]], [capacities[used]]
    if demand_caps is not None:
        sizes = np.array([len(group) for group in path_groups], dtype=np.intp)
        nonempty = sizes > 0
        group_rows = np.repeat(np.cumsum(nonempty) - 1, sizes)
        blocks.append(csr_matrix(
            (np.ones(count), (group_rows, np.arange(count))),
            shape=(int(nonempty.sum()), count),
        ))
        b_ub.append(np.array(demand_caps, dtype=float)[nonempty])
    return SparseLp(
        True, np.ones(count), np.zeros(count), np.full(count, np.inf),
        vstack(blocks, format="csr"), np.concatenate(b_ub),
        csr_matrix((0, count)), np.zeros(0),
        [f"p[{gi}:{pi}]" for gi, group in enumerate(path_groups)
         for pi in range(len(group))],
    )


def _solve_path_flow(
    path_groups: Sequence[Sequence[Path]],
    capacities: np.ndarray,
    demand_caps: Optional[Sequence[float]] = None,
) -> tuple[float, tuple[float, ...]]:
    """The path-flow LP's optimum and the flow on each path, group by group."""
    sol = solve_lp(_path_flow_lp(path_groups, capacities, demand_caps))
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"path-flow LP not optimal: {sol.status}")
    return sol.objective_value, sol.assignment


@dataclass
class SwtFlowResult:
    value: float
    path_flows: dict[Path, float]
    integral: bool


def _integral_packing(
    paths: Sequence[Path], capacities: np.ndarray, target: int
) -> Optional[dict[Path, int]]:
    """Integral path flows of total value ``target``, or None if impossible.

    Solved as a small integer program over the enumerated paths: maximize the
    total packed flow subject to edge capacities, then check the optimum hits
    the target. Paths can share edges, so this is not a plain matching.
    """
    if target == 0:
        return {}
    if not paths:
        return None
    bottleneck = np.array([capacities[list(p.edges)].min() for p in paths])
    result = milp(
        c=-np.ones(len(paths)),
        constraints=LinearConstraint(
            _incidence(paths, len(capacities)), ub=capacities
        ),
        integrality=np.ones(len(paths)),
        bounds=Bounds(0.0, bottleneck),
    )
    if not result.success or round(-result.fun) < target:
        return None
    assignment: dict[Path, int] = {}
    total = 0
    for path, x in zip(paths, result.x):
        amount = round(x)
        if amount > 0 and total < target:
            amount = min(amount, target - total)
            assignment[path] = amount
            total += amount
    return assignment if total == target else None


def max_swt_flow(
    network: FlowNetwork,
    s: int,
    w: int,
    t: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SwtFlowResult:
    """Maximum flow restricted to s-t paths visiting w, by path enumeration.

    For integral capacities an integral optimum is additionally exhibited
    (max-flow/min-cut integrality for the s-w-t flow).
    """
    if len({s, w, t}) != 3:
        raise ValueError("s, w, t must be distinct")
    _check_node_cap(network.node_count, node_cap)
    paths = [p for p in enumerate_paths(network, s, t) if p.visits(w)]
    value, flows = _solve_path_flow([paths], network.float_capacities)
    path_flows = {p: f for p, f in zip(paths, flows) if f > VALUE_TOL}
    # With integral capacities the optimum may still be fractional (the LP
    # dual is a fractional cut cover); when the optimum is integral we try to
    # exhibit an integral optimal flow.
    integral = False
    target = round(value)
    if (
        all(e.capacity.denominator == 1 for e in network.edges)
        and abs(value - target) <= VALUE_TOL
    ):
        packing = _integral_packing(paths, network.float_capacities, target)
        if packing is not None:
            integral = True
            path_flows = {p: float(f) for p, f in packing.items()}
            value = float(target)
    return SwtFlowResult(value, path_flows, integral)


def min_swt_cut(
    network: FlowNetwork,
    s: int,
    w: int,
    t: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[frozenset[int], Fraction]:
    """Cheapest edge set whose removal leaves no s-w-t path (exhaustive).

    Only edges appearing on some s-w-t path matter; subsets of those are
    searched with branch-and-bound pruning by the best cut found so far.
    """
    if len({s, w, t}) != 3:
        raise ValueError("s, w, t must be distinct")
    _check_node_cap(network.node_count, node_cap)
    paths = [p for p in enumerate_paths(network, s, t) if p.visits(w)]
    if not paths:
        return frozenset(), Fraction(0)
    relevant = sorted({eid for p in paths for eid in p.edges})

    best_set: Optional[frozenset[int]] = None
    best_cost: Optional[Fraction] = None

    def search(i: int, removed: set[int], cost: Fraction) -> None:
        nonlocal best_set, best_cost
        if best_cost is not None and cost >= best_cost:
            return
        if not _has_swt_path(network, s, w, t, removed):
            best_set, best_cost = frozenset(removed), cost
            return
        if i == len(relevant):
            return
        eid = relevant[i]
        removed.add(eid)
        search(i + 1, removed, cost + network.edges[eid].capacity)
        removed.remove(eid)
        search(i + 1, removed, cost)

    search(0, set(), Fraction(0))
    assert best_set is not None  # removing every relevant edge always cuts
    return best_set, best_cost


def max_st_flow(
    network: FlowNetwork, s: int, t: int, node_cap: int = DEFAULT_NODE_CAP
) -> float:
    """Unrestricted single-commodity max flow by path enumeration."""
    _check_node_cap(network.node_count, node_cap)
    value, _ = _solve_path_flow(
        [enumerate_paths(network, s, t)], network.float_capacities
    )
    return value


def flow_centrality(
    network: FlowNetwork, w: int, node_cap: int = DEFAULT_NODE_CAP
) -> float:
    """Sum over ordered pairs (s, t) of (max s-w-t flow) / (max s-t flow).

    Pairs with zero max flow contribute 0.
    """
    _check_node_cap(network.node_count, node_cap)
    total = 0.0
    for s in range(network.node_count):
        for t in range(network.node_count):
            if s == t or s == w or t == w:
                continue
            denom = max_st_flow(network, s, t, node_cap)
            if denom <= VALUE_TOL:
                continue
            numer = max_swt_flow(network, s, w, t, node_cap).value
            total += numer / denom
    return total


def _commodity_paths(
    network: FlowNetwork, demands: DemandMatrix
) -> list[list[Path]]:
    return [
        enumerate_paths(network, c.source, c.sink) for c in demands.commodities
    ]


def multicommodity_flow_centrality(
    network: FlowNetwork,
    demands: DemandMatrix,
    w: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> float:
    """Ratio of the w-restricted to the unrestricted multicommodity max flow."""
    _check_node_cap(network.node_count, node_cap)
    caps = [c.demand for c in demands.commodities]
    groups = _commodity_paths(network, demands)
    denom, _ = _solve_path_flow(groups, network.float_capacities, caps)
    if denom <= VALUE_TOL:
        raise ZeroMaxFlowError("maximum multicommodity flow is zero")
    restricted = [[p for p in group if p.visits(w)] for group in groups]
    numer, _ = _solve_path_flow(restricted, network.float_capacities, caps)
    return numer / denom


def group_flow(
    network: FlowNetwork,
    demands: DemandMatrix,
    group: Iterable[int],
    node_cap: int = DEFAULT_NODE_CAP,
) -> float:
    """Maximum multicommodity flow over paths visiting at least one group node."""
    _check_node_cap(network.node_count, node_cap)
    members = set(group)
    if not members:
        return 0.0
    caps = [c.demand for c in demands.commodities]
    groups = [
        [p for p in paths if any(p.visits(v) for v in members)]
        for paths in _commodity_paths(network, demands)
    ]
    value, _ = _solve_path_flow(groups, network.float_capacities, caps)
    return value


def greedy_group_flow_select(
    network: FlowNetwork,
    demands: DemandMatrix,
    n_select: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[list[int], float]:
    """Greedy marginal-gain selection of group-flow nodes over non-endpoints."""
    _check_node_cap(network.node_count, node_cap)
    endpoints = {c.source for c in demands.commodities} | {
        c.sink for c in demands.commodities
    }
    eligible = [v for v in range(network.node_count) if v not in endpoints]
    if n_select > len(eligible):
        raise ValueError(
            f"cannot select {n_select} nodes from {len(eligible)} eligible"
        )
    chosen: list[int] = []
    value = 0.0
    for _ in range(n_select):
        best_v, best_value = None, None
        for v in eligible:
            if v in chosen:
                continue
            candidate = group_flow(network, demands, chosen + [v], node_cap)
            if best_value is None or candidate > best_value + VALUE_TOL:
                best_v, best_value = v, candidate
        chosen.append(best_v)
        value = best_value
    return chosen, value


@dataclass(frozen=True)
class UndirectedEdge:
    u: int
    v: int
    capacity: Fraction

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("self-loop")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class UndirectedNetwork:
    node_names: tuple[str, ...]
    edges: tuple[UndirectedEdge, ...]

    @property
    def node_count(self) -> int:
        return len(self.node_names)


def undirected_max_swt(
    undirected: UndirectedNetwork,
    w: int,
    commodities: Sequence[tuple[int, int]],
) -> float:
    """Maximum w-flow in an undirected network via the directed auxiliary LP.

    Each undirected edge becomes two directed arcs sharing its capacity; each
    commodity gets a dedicated collector node and a super-sink, and the flow
    sent toward the source side must equal the flow sent toward the sink side.
    Returns half the auxiliary optimum.
    """
    n = undirected.node_count
    n_comm = len(commodities)
    for s, t in commodities:
        if len({s, w, t}) != 3:
            raise ValueError("s, w, t must be distinct")

    # Arc list: two per undirected edge, then (s_i, z_i), (t_i, z_i), (z_i, z).
    arcs: list[tuple[int, int, Optional[Fraction]]] = []
    arc_pairs: list[tuple[int, int]] = []  # (forward, backward) per undirected edge
    for e in undirected.edges:
        arcs.append((e.u, e.v, e.capacity))
        arcs.append((e.v, e.u, e.capacity))
        arc_pairs.append((len(arcs) - 2, len(arcs) - 1))
    z_nodes = [n + i for i in range(n_comm)]
    z_super = n + n_comm
    collector_arcs: list[tuple[int, int]] = []  # (s_i arc, t_i arc) per commodity
    for i, (s, t) in enumerate(commodities):
        arcs.append((s, z_nodes[i], None))
        arcs.append((t, z_nodes[i], None))
        collector_arcs.append((len(arcs) - 2, len(arcs) - 1))
        arcs.append((z_nodes[i], z_super, None))

    lp = LinearProgram(maximize=True)
    flow_vars = [
        [lp.add_var(f"f[{i}:a{a}]") for a in range(len(arcs))]
        for i in range(n_comm)
    ]
    # Only commodity i may enter its own collector node.
    for i in range(n_comm):
        for j, (tail, head, _) in enumerate(arcs):
            if head in z_nodes and head != z_nodes[i]:
                lp.upper[flow_vars[i][j]] = 0.0
            if tail in z_nodes and tail != z_nodes[i]:
                lp.upper[flow_vars[i][j]] = 0.0

    # Objective: net flow leaving w across all commodities. Net (not gross)
    # outflow keeps cycles through w from inflating the optimum; any flow
    # actually counted must reach the super-sink.
    for i in range(n_comm):
        for j, (tail, head, _) in enumerate(arcs):
            if tail == w:
                lp.objective[flow_vars[i][j]] += 1.0
            if head == w:
                lp.objective[flow_vars[i][j]] -= 1.0

    # Shared arc capacity over commodities.
    for j, (_, _, cap) in enumerate(arcs):
        if cap is not None:
            lp.add_row(
                {flow_vars[i][j]: 1.0 for i in range(n_comm)}, LE, float(cap)
            )

    # Flow conservation at every node except w and the super-sink.
    for i in range(n_comm):
        for u in range(n + n_comm):
            if u == w:
                continue
            coeffs: dict[int, float] = {}
            for j, (tail, head, _) in enumerate(arcs):
                if tail == u:
                    coeffs[flow_vars[i][j]] = coeffs.get(flow_vars[i][j], 0.0) + 1.0
                if head == u:
                    coeffs[flow_vars[i][j]] = coeffs.get(flow_vars[i][j], 0.0) - 1.0
            if coeffs:
                lp.add_row(coeffs, EQ, 0.0)

    # Per-commodity bidirectional sharing on each undirected edge.
    for i in range(n_comm):
        for (fwd, bwd), e in zip(arc_pairs, undirected.edges):
            lp.add_row(
                {flow_vars[i][fwd]: 1.0, flow_vars[i][bwd]: 1.0},
                LE,
                float(e.capacity),
            )

    # Equal flow into the collector from the source and sink sides.
    for i, (s_arc, t_arc) in enumerate(collector_arcs):
        lp.add_row(
            {flow_vars[i][s_arc]: 1.0, flow_vars[i][t_arc]: -1.0}, EQ, 0.0
        )

    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"auxiliary LP not optimal: {sol.status}")
    return sol.objective_value / 2.0


def undirected_swt_path_oracle(
    undirected: UndirectedNetwork,
    w: int,
    commodities: Sequence[tuple[int, int]],
    max_paths: int = MAX_PATHS,
) -> float:
    """Independent check: enumerate undirected s-w-t walks and solve the LP
    with each undirected edge's capacity shared over both directions.

    A walk may traverse an undirected edge at most once per direction; each
    traversal consumes one unit of the edge's shared capacity, so a walk
    using both directions loads the edge twice per unit of flow. The walks
    are the directed paths over both arcs of each edge (arc 2x is u -> v,
    arc 2x + 1 is v -> u), mapped back to their edges.
    """
    arcs = FlowNetwork(undirected.node_names, tuple(
        Edge(tail, head, e.capacity)
        for e in undirected.edges for tail, head in ((e.u, e.v), (e.v, e.u))
    ))
    groups = [
        [Path(tuple(arc // 2 for arc in p.edges), p.nodes)
         for p in enumerate_paths(arcs, s, t, max_paths) if p.visits(w)]
        for s, t in commodities
    ]
    value, _ = _solve_path_flow(groups, arcs.float_capacities[::2])
    return value
