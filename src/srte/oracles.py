"""Desk-scale brute-force flow oracles for verification.

Everything here enumerates paths explicitly (a path is a walk with distinct
edges) and solves small LPs over them. These oracles exist to verify the TE
machinery and the flow-theoretic identities on tiny instances; hard size caps
keep them honest about that purpose.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix, vstack

from .graph import DemandMatrix, Edge, FlowNetwork
from .lp import LpStatus, SparseLp, solve_lp

NODE_CAP = 12
MAX_PATHS = 40_000

VALUE_TOL = 1e-6


class SizeCapExceededError(Exception):
    """Instance exceeds the configured brute-force size caps."""


class ZeroMaxFlowError(Exception):
    """The flow-centrality ratio is undefined because the max flow is zero."""


def check_node_cap(node_count: int) -> None:
    """Refuse a brute-force instance of more than NODE_CAP nodes."""
    if node_count > NODE_CAP:
        raise SizeCapExceededError(
            f"{node_count} nodes exceed the oracle cap of {NODE_CAP}"
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


@functools.lru_cache(maxsize=1)
def _swt_paths(network: FlowNetwork, s: int, w: int, t: int) -> tuple[Path, ...]:
    """Every s-t path visiting w, for distinct s, w, t within the node cap.

    The last answer is kept: ``has_swt_path``, ``max_swt_flow`` and
    ``min_swt_cut`` of one instance, which the flow = cut checks call in
    turn, enumerate once.
    """
    if len({s, w, t}) != 3:
        raise ValueError("s, w, t must be distinct")
    check_node_cap(network.node_count)
    return tuple(p for p in enumerate_paths(network, s, t) if p.visits(w))


def has_swt_path(network: FlowNetwork, s: int, w: int, t: int) -> bool:
    """Whether an edge-distinct s-t path visits w (distinct s, w, t within
    the node cap); the instance's flow and cut reuse its enumeration."""
    return bool(_swt_paths(network, s, w, t))


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
    )


def _solve_path_flow(
    path_groups: Sequence[Sequence[Path]],
    capacities: np.ndarray,
    demand_caps: Optional[Sequence[float]] = None,
) -> tuple[float, np.ndarray]:
    """The path-flow LP's optimum and the flow on each path, group by group."""
    sol = solve_lp(_path_flow_lp(path_groups, capacities, demand_caps))
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"path-flow LP not optimal: {sol.status}")
    return sol.objective_value, sol.x


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


def max_swt_flow(network: FlowNetwork, s: int, w: int, t: int) -> SwtFlowResult:
    """Maximum flow restricted to s-t paths visiting w, by path enumeration.

    For integral capacities an integral optimum is additionally exhibited
    (max-flow/min-cut integrality for the s-w-t flow).
    """
    paths = _swt_paths(network, s, w, t)
    value, flows = _solve_path_flow([paths], network.float_capacities)
    path_flows = {p: f for p, f in zip(paths, flows.tolist()) if f > VALUE_TOL}
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
    network: FlowNetwork, s: int, w: int, t: int
) -> tuple[frozenset[int], Fraction]:
    """Cheapest edge set whose removal leaves no s-w-t path (exhaustive).

    Only edges appearing on some s-w-t path matter; subsets of those are
    searched with branch-and-bound pruning by the best cut found so far. A
    set cuts exactly when it meets every s-w-t path, which one edge bitmask
    per path tests.
    """
    paths = _swt_paths(network, s, w, t)
    if not paths:
        return frozenset(), Fraction(0)
    relevant = sorted({eid for p in paths for eid in p.edges})
    masks = {sum(1 << eid for eid in p.edges) for p in paths}  # distinct edges

    best_set: Optional[int] = None
    best_cost: Optional[Fraction] = None

    def search(i: int, removed: int, cost: Fraction) -> None:
        nonlocal best_set, best_cost
        if best_cost is not None and cost >= best_cost:
            return
        if all(mask & removed for mask in masks):
            best_set, best_cost = removed, cost
            return
        if i == len(relevant):
            return
        eid = relevant[i]
        search(i + 1, removed | 1 << eid, cost + network.edges[eid].capacity)
        search(i + 1, removed, cost)

    search(0, 0, Fraction(0))
    assert best_set is not None  # removing every relevant edge always cuts
    return frozenset(eid for eid in relevant if best_set >> eid & 1), best_cost


def max_st_flow(network: FlowNetwork, s: int, t: int) -> float:
    """Unrestricted single-commodity max flow by path enumeration."""
    check_node_cap(network.node_count)
    value, _ = _solve_path_flow(
        [enumerate_paths(network, s, t)], network.float_capacities
    )
    return value


def flow_centrality(network: FlowNetwork, w: int) -> float:
    """Sum over ordered pairs (s, t) of (max s-w-t flow) / (max s-t flow).

    Pairs with zero max flow contribute 0.
    """
    check_node_cap(network.node_count)
    total = 0.0
    for s in range(network.node_count):
        for t in range(network.node_count):
            if s == t or s == w or t == w:
                continue
            denom = max_st_flow(network, s, t)
            if denom <= VALUE_TOL:
                continue
            numer = max_swt_flow(network, s, w, t).value
            total += numer / denom
    return total


def _commodity_paths(
    network: FlowNetwork, demands: DemandMatrix
) -> list[list[Path]]:
    return [
        enumerate_paths(network, c.source, c.sink) for c in demands.commodities
    ]


def multicommodity_flow_centrality(
    network: FlowNetwork, demands: DemandMatrix, w: int
) -> float:
    """Ratio of the w-restricted to the unrestricted multicommodity max flow."""
    check_node_cap(network.node_count)
    caps = [c.demand for c in demands.commodities]
    groups = _commodity_paths(network, demands)
    denom, _ = _solve_path_flow(groups, network.float_capacities, caps)
    if denom <= VALUE_TOL:
        raise ZeroMaxFlowError("maximum multicommodity flow is zero")
    restricted = [[p for p in group if p.visits(w)] for group in groups]
    numer, _ = _solve_path_flow(restricted, network.float_capacities, caps)
    return numer / denom


def group_flow(
    network: FlowNetwork, demands: DemandMatrix, group: Iterable[int]
) -> float:
    """Maximum multicommodity flow over paths visiting at least one group node."""
    check_node_cap(network.node_count)
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
    network: FlowNetwork, demands: DemandMatrix, n_select: int
) -> tuple[list[int], float]:
    """Greedy marginal-gain selection of group-flow nodes over non-endpoints."""
    check_node_cap(network.node_count)
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
            candidate = group_flow(network, demands, chosen + [v])
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


def _undirected_aux_lp(
    undirected: UndirectedNetwork, w: int, commodities: Sequence[tuple[int, int]]
) -> SparseLp:
    """The directed auxiliary LP of ``undirected_max_swt``.

    Arcs: u -> v and v -> u per undirected edge, then per commodity i
    s_i -> z_i, t_i -> z_i and z_i -> z, with collector z_i = n + i and
    super-sink z = n + count. Columns: commodity i's flow on arc a is column
    i * arcs + a. Rows: each edge arc's capacity shared over commodities,
    then each commodity's two directions sharing each edge's capacity (<=);
    conservation per commodity at every node with an arc but w and z, then
    each commodity's collector balance (=). Only commodity i may use its own
    collector arcs.
    """
    n, count = undirected.node_count, len(commodities)
    capacity = np.array([float(e.capacity) for e in undirected.edges])
    edge_arcs = 2 * len(capacity)
    forward = np.array([(e.u, e.v) for e in undirected.edges], dtype=np.intp)
    pairs = np.array(commodities, dtype=np.intp).reshape(count, 2)
    collectors = n + np.arange(count)
    tails = np.concatenate((
        forward.ravel(), np.column_stack((pairs, collectors)).ravel()
    ))
    heads = np.concatenate((forward[:, ::-1].ravel(), np.repeat(collectors, 3)))
    heads[edge_arcs + 2::3] = n + count
    arcs = len(tails)
    variables = count * arcs
    index = np.arange(count)
    first = arcs * index  # commodity i's column of arc 0

    # Entry f of the edge-arc flows, commodity-major, is arc f % edge_arcs:
    # it sits in that arc's capacity row and in sharing row f // 2.
    flows = (first[:, None] + np.arange(edge_arcs)).ravel()
    entry = np.arange(len(flows))
    rows = np.concatenate((entry % edge_arcs, edge_arcs + entry // 2))
    a_ub = csr_matrix(
        (np.ones(len(rows)), (rows, np.tile(flows, 2))),
        shape=(edge_arcs + len(flows) // 2, variables),
    )
    b_ub = np.concatenate((np.repeat(capacity, 2), np.tile(capacity, count)))

    # Conservation: out-flow minus in-flow at each kept node, commodity-major.
    ends = np.concatenate((tails, heads))
    kept = np.bincount(ends, minlength=n + count + 1) > 0
    kept[[w, n + count]] = False
    nodes = int(kept.sum())
    on = kept[ends]
    node_rows = (np.cumsum(kept) - 1)[ends[on]]
    arc = np.tile(np.arange(arcs), 2)[on]
    sign = np.repeat([1.0, -1.0], arcs)[on]
    # Collector balance: flow from s_i minus flow from t_i into z_i.
    s_cols = first + edge_arcs + 3 * index
    rows = np.concatenate((
        (nodes * index[:, None] + node_rows).ravel(),
        np.repeat(count * nodes + index, 2),
    ))
    cols = np.concatenate((
        (first[:, None] + arc).ravel(), np.column_stack((s_cols, s_cols + 1)).ravel()
    ))
    data = np.concatenate((np.tile(sign, count), np.tile([1.0, -1.0], count)))
    a_eq = csr_matrix((data, (rows, cols)), shape=(count * (nodes + 1), variables))

    # Each commodity's columns: its edge arcs, then every commodity's three
    # collector arcs, of which only its own are open.
    collector_upper = np.zeros((count, count, 3))
    collector_upper[index, index] = np.inf
    upper = np.column_stack((
        np.full((count, edge_arcs), np.inf),
        collector_upper.reshape(count, 3 * count),
    )).ravel()
    # Net (not gross) outflow at w: cycles through w cannot inflate it.
    objective = np.tile((tails == w).astype(float) - (heads == w), count)
    return SparseLp(
        True, objective, np.zeros(variables), upper, a_ub, b_ub,
        a_eq, np.zeros(a_eq.shape[0]),
    )


def undirected_max_swt(
    undirected: UndirectedNetwork,
    w: int,
    commodities: Sequence[tuple[int, int]],
) -> float:
    """Maximum w-flow in an undirected network via the directed auxiliary LP.

    Each undirected edge becomes two directed arcs sharing its capacity; each
    commodity gets a dedicated collector node and a super-sink, and the flow
    sent toward the source side must equal the flow sent toward the sink side.
    The objective is the net flow leaving w; any flow counted must reach the
    super-sink. Returns half the auxiliary optimum.
    """
    for s, t in commodities:
        if len({s, w, t}) != 3:
            raise ValueError("s, w, t must be distinct")
    sol = solve_lp(_undirected_aux_lp(undirected, w, commodities))
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"auxiliary LP not optimal: {sol.status}")
    return sol.objective_value / 2.0


def undirected_swt_path_oracle(
    undirected: UndirectedNetwork,
    w: int,
    commodities: Sequence[tuple[int, int]],
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
         for p in enumerate_paths(arcs, s, t) if p.visits(w)]
        for s, t in commodities
    ]
    value, _ = _solve_path_flow(groups, arcs.float_capacities[::2])
    return value
