"""Tunnel enumeration, the segment-routing TE programs and the MP baseline.

A tunnel is an ordered waypoint sequence (source, middlepoints..., sink);
flow on each segment splits over the segment's ECMP shortest paths per the
exact path counts from paths.py. Tunnel segments may reuse an edge, in which
case the loads add up on that edge (no acyclicity filtering).

Builders assemble sparse matrices directly from COO arrays into one
TeProgram type: one column per tunnel, whose entries are its per-edge loads
(each the correctly rounded float of its exact rational value), or, for the
unrestricted multipath (MP) baseline, one arc-flow column per commodity and
edge. ``solve_te`` decodes both by one load-matrix mat-vec into utilizations
(and tunnel flows and split ratios) and checks theta against them.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .graph import Commodity, DemandMatrix, FlowNetwork
from .lp import LpStatus, SparseLp, solve_lp
from .paths import SegmentFractions, ShortestPathCache

LU = "lu"
MF = "mf"

UTILIZATION_TOL = 1e-6


class NoTunnelError(Exception):
    """A positive-demand commodity has no usable tunnel."""

    def __init__(self, commodity: Commodity):
        super().__init__(
            f"no tunnel connects commodity {commodity.source} -> {commodity.sink}"
        )
        self.commodity = commodity


@dataclass(frozen=True)
class Tunnel:
    """Ordered waypoint sequence for one commodity."""

    commodity: int
    waypoints: tuple[int, ...]

    @property
    def middlepoints(self) -> tuple[int, ...]:
        return self.waypoints[1:-1]

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.waypoints, self.waypoints[1:]))


def enumerate_tunnels(
    cache: ShortestPathCache,
    commodity: Commodity,
    commodity_index: int,
    middlepoints: Iterable[int],
    max_middlepoints: int,
    single_middlepoint: bool = False,
) -> list[Tunnel]:
    """All tunnels over ordered selections of <= max_middlepoints middlepoints.

    Middlepoints equal to the commodity's endpoints are skipped; every segment
    must be reachable. The direct 0-middlepoint tunnel is included when the
    sink is reachable, unless single_middlepoint forces exactly one.
    Returns tunnels sorted by waypoint tuple; empty list when nothing connects.
    """
    s, t = commodity.source, commodity.sink
    candidates = sorted(
        {m for m in middlepoints if m != s and m != t}
    )
    sizes = (
        (1,) if single_middlepoint
        else tuple(range(0, max_middlepoints + 1))
    )
    tunnels = []
    for j in sizes:
        for perm in itertools.permutations(candidates, j):
            waypoints = (s, *perm, t)
            if all(cache.reachable(a, b) for a, b in zip(waypoints, waypoints[1:])):
                tunnels.append(Tunnel(commodity_index, waypoints))
    tunnels.sort(key=lambda tun: tun.waypoints)
    return tunnels


def tunnels_for_middlepoints(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    middlepoints: Iterable[int],
    max_middlepoints: int,
    single_middlepoint: bool = False,
) -> list[list[Tunnel]]:
    mids = sorted(set(middlepoints))
    return [
        enumerate_tunnels(cache, c, i, mids, max_middlepoints, single_middlepoint)
        for i, c in enumerate(demands.commodities)
    ]


@dataclass
class TeProgram:
    """A built TE LP plus the layout needed to decode its solution.

    Column j of ``loads`` (edges x variables) is the load one unit of variable
    ``first_tunnel_var + j`` puts on each edge: the flows of ``tunnels`` in
    order, or in the MP baseline (no tunnels) each commodity's edge flows (an
    identity block) and, for MF, its delivered amount (a zero column).
    """

    kind: str
    lp: SparseLp
    network: FlowNetwork
    demands: DemandMatrix
    tunnels: list[Tunnel]
    first_tunnel_var: int
    loads: csr_matrix
    capacities: np.ndarray


@dataclass
class TeSolution:
    """Decoded TE result; theta for LU, satisfied totals for MF."""

    kind: str
    status: LpStatus
    theta: Optional[float] = None
    satisfied_total: Optional[float] = None
    satisfaction_ratio: Optional[float] = None
    tunnel_flows: dict[Tunnel, float] = field(default_factory=dict)
    split_ratios: dict[Tunnel, float] = field(default_factory=dict)
    edge_utilization: dict[int, float] = field(default_factory=dict)
    solve_ms: float = 0.0

    @property
    def objective(self) -> Optional[float]:
        return self.theta if self.kind == LU else self.satisfaction_ratio


def _share_an_edge(segments: Sequence[SegmentFractions]) -> bool:
    seen: set[int] = set()
    for seg in segments:
        if not seen.isdisjoint(seg.counts):
            return True
        seen.update(seg.counts)
    return False


def _tunnel_loads(
    cache: ShortestPathCache, tunnels: Sequence[Tunnel]
) -> tuple[list[int], list[int], list[float]]:
    """Edge index, tunnel size and load of every nonzero of the load matrix.

    Each load equals float(exact load): a segment's own correctly rounded
    count / sigma where one segment uses the edge, and otherwise the exact sum
    over the segments as one integer numerator over the LCM of their sigmas,
    divided once. Summing per-segment floats could be an ulp off.
    """
    edges: list[int] = []
    sizes: list[int] = []
    loads: list[float] = []
    fractions = cache.fractions
    for tun in tunnels:
        w = tun.waypoints
        segments = [fractions(a, b) for a, b in zip(w, w[1:])]
        if len(segments) == 1 or not _share_an_edge(segments):
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
    return edges, sizes, loads


def _csr(parts, shape) -> csr_matrix:
    """The CSR matrix of (rows, cols, data) COO parts; duplicates add up."""
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    return csr_matrix((data, (rows, cols)), shape=shape)


def _build_tunnel_program(
    kind: str,
    cache: ShortestPathCache,
    demands: DemandMatrix,
    tunnels_by_commodity: Sequence[Sequence[Tunnel]],
) -> TeProgram:
    network = cache.network
    groups = tunnels_by_commodity
    if kind == LU:
        for commodity, group in zip(demands.commodities, groups):
            if commodity.demand > 0 and not group:
                raise NoTunnelError(commodity)
    tunnels = [tun for group in groups for tun in group]
    edge_list, sizes, load_list = _tunnel_loads(cache, tunnels)
    edge_rows = np.array(edge_list, dtype=np.intp)
    loads = np.array(load_list, dtype=float)
    count, edge_count = len(tunnels), network.edge_count
    first = 1 if kind == LU else 0  # theta comes first in LU
    variables = first + count
    tunnel_cols = np.repeat(np.arange(count), sizes)
    load_matrix = csr_matrix(
        (loads, (edge_rows, tunnel_cols)), shape=(edge_count, count)
    )
    capacities = np.array([float(e.capacity) for e in network.edges])
    volume = np.array([c.demand for c in demands.commodities], dtype=float)
    commodity = np.repeat(np.arange(len(groups)), [len(g) for g in groups])

    if kind == LU:
        # Rows: load on e - theta * c(e) <= 0 for every edge, then
        # -(flow of commodity i) <= -demand(i) for positive demand.
        positive = volume > 0
        row_of = np.cumsum(positive) - 1
        demand_cols = np.flatnonzero(positive[commodity])
        parts = [
            (np.arange(edge_count), np.zeros(edge_count, dtype=np.intp),
             -capacities),
            (edge_rows, first + tunnel_cols, loads),
            (edge_count + row_of[commodity[demand_cols]], first + demand_cols,
             np.full(len(demand_cols), -1.0)),
        ]
        rhs = [np.zeros(edge_count), -volume[positive]]
        objective = np.zeros(variables)
        objective[0] = 1.0
    else:
        # Rows: load on e <= c(e) for every loaded edge, then flow of
        # commodity i <= demand(i) for every commodity with a tunnel.
        loaded = np.flatnonzero(np.diff(load_matrix.indptr))
        served = np.unique(commodity)
        parts = [
            (np.searchsorted(loaded, edge_rows), tunnel_cols, loads),
            (len(loaded) + np.searchsorted(served, commodity),
             np.arange(count), np.ones(count)),
        ]
        rhs = [capacities[loaded], volume[served]]
        objective = np.ones(count)
    b_ub = np.concatenate(rhs)
    lp = SparseLp(
        kind == MF, objective, np.zeros(variables), np.full(variables, np.inf),
        _csr(parts, (len(b_ub), variables)), b_ub,
        csr_matrix((0, variables)), np.zeros(0),
        ["theta"] * first + [
            "f[{}:{}]".format(i, "-".join(network.node_names[w] for w in tun.waypoints))
            for i, group in enumerate(groups)
            for tun in group
        ],
    )
    return TeProgram(
        kind, lp, network, demands, tunnels, first, load_matrix, capacities
    )


def build_te_lu(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    tunnels_by_commodity: Sequence[Sequence[Tunnel]],
) -> TeProgram:
    """Min-max-utilization program over the given tunnels (demands must be met)."""
    return _build_tunnel_program(LU, cache, demands, tunnels_by_commodity)


def build_te_mf(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    tunnels_by_commodity: Sequence[Sequence[Tunnel]],
) -> TeProgram:
    """Max-throughput program over the given tunnels (utilization capped at 1)."""
    return _build_tunnel_program(MF, cache, demands, tunnels_by_commodity)


def solve_te(program: TeProgram) -> TeSolution:
    """Solve a TE program and decode flows, split ratios, and utilizations."""
    start = time.perf_counter()
    sol = solve_lp(program.lp)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    result = TeSolution(program.kind, sol.status, solve_ms=elapsed_ms)
    if sol.status is not LpStatus.OPTIMAL:
        return result

    flows = sol.assignment[program.first_tunnel_var:]
    result.tunnel_flows = dict(zip(program.tunnels, flows))

    totals: dict[int, float] = {}
    for tun, flow in zip(program.tunnels, flows):
        totals[tun.commodity] = totals.get(tun.commodity, 0.0) + flow
    result.split_ratios = {
        tun: (flow / totals[tun.commodity] if totals[tun.commodity] > 0 else 0.0)
        for tun, flow in zip(program.tunnels, flows)
    }

    # Each row of the load matrix lists its tunnels in order, so every edge's
    # load is summed in tunnel order.
    load = program.loads @ np.array(flows, dtype=float)
    utilization = dict(enumerate((load / program.capacities).tolist()))
    result.edge_utilization = utilization

    if program.kind == LU:
        result.theta = sol.objective_value
        max_util = max(utilization.values(), default=0.0)
        if abs(max_util - result.theta) > UTILIZATION_TOL * max(1.0, result.theta):
            raise ArithmeticError(
                f"utilization reconstruction mismatch: {max_util} vs {result.theta}"
            )
    else:
        result.satisfied_total = sol.objective_value
        total_demand = program.demands.total_demand()
        result.satisfaction_ratio = (
            result.satisfied_total / total_demand if total_demand > 0 else 1.0
        )
    return result


def build_mp_baseline(
    network: FlowNetwork, demands: DemandMatrix, kind: str
) -> TeProgram:
    """Arc-flow multicommodity LP: the MP lower bound (LU) / upper bound (MF).

    Columns: theta (LU), then per commodity its edge flows and, for MF, its
    delivered amount d[i]. Rows: per commodity, flow balance at every node
    but the sink, whose row the others imply (nodes without edges only at the
    source), then a capacity row per edge (for MF, only with a commodity).
    """
    if kind not in (LU, MF):
        raise ValueError(f"bad objective kind {kind!r}")
    n, edge_count = network.node_count, network.edge_count
    count = len(demands.commodities)
    first = 1 if kind == LU else 0  # theta comes first in LU
    width = edge_count + (kind == MF)  # columns per commodity
    variables = first + count * width
    tails = [e.tail for e in network.edges]  # ends: the tails, then the heads
    ends = np.array(tails + [e.head for e in network.edges], dtype=np.intp)
    sources = np.array([c.source for c in demands.commodities], dtype=np.intp)
    sinks = np.array([c.sink for c in demands.commodities], dtype=np.intp)
    volume = np.array([c.demand for c in demands.commodities], dtype=float)
    capacities = np.array([float(e.capacity) for e in network.edges])
    index = np.arange(count)
    block = first + width * index  # commodity i's flow on edge e: block[i] + e
    flow_cols = (block[:, None] + np.arange(edge_count)).ravel()
    flow_edges = np.tile(np.arange(edge_count), count)
    ones = np.ones(len(flow_cols))
    flows = (flow_edges, flow_cols, ones)

    # Balance rows, commodity-major: out-flow minus in-flow at each kept node.
    keep = np.tile(np.bincount(ends, minlength=n) > 0, (count, 1))
    keep[index, sources] = True
    keep[index, sinks] = False
    row_of = (np.cumsum(keep) - 1).reshape(count, n)
    commodity, end = np.nonzero(keep[:, ends])  # ends[end] is a kept node
    eq = [(row_of[commodity, ends[end]], block[commodity] + end % edge_count,
           np.where(end < edge_count, 1.0, -1.0))]
    source_rows = row_of[index, sources]
    b_eq = np.zeros(int(keep.sum()))
    objective, upper = np.zeros(variables), np.full(variables, np.inf)
    if kind == LU:
        # The source's balance is its demand; load on e - theta * c(e) <= 0.
        b_eq[source_rows] = volume
        objective[0] = 1.0
        ub = [(np.arange(edge_count), np.zeros(edge_count, dtype=np.intp),
               -capacities), flows]
        b_ub = np.zeros(edge_count)
    else:
        # The source's balance is d[i] <= demand(i); load on e <= c(e).
        delivered = block + edge_count
        eq.append((source_rows, delivered, np.full(count, -1.0)))
        objective[delivered] = 1.0
        upper[delivered] = volume
        ub, b_ub = [flows], capacities if count else np.zeros(0)
    names = network.node_names
    edge_labels = [f"{names[e.tail]}->{names[e.head]}" for e in network.edges]
    labels = ["theta"] * first
    for i in range(count):
        labels += [f"f[{i}:{label}]" for label in edge_labels]
        if kind == MF:
            labels.append(f"d[{i}]")
    lp = SparseLp(
        kind == MF, objective, np.zeros(variables), upper,
        _csr(ub, (len(b_ub), variables)), b_ub,
        _csr(eq, (len(b_eq), variables)), b_eq, labels,
    )
    loads = _csr([(flow_edges, flow_cols - first, ones)],
                 (edge_count, variables - first))
    return TeProgram(kind, lp, network, demands, [], first, loads, capacities)


# The MP baseline solves and decodes like any TE program. The name stays
# because the CLI calls the MP solve by it and bench/tracer.py times it there.
solve_mp = solve_te
