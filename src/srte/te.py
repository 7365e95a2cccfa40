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

A ``TunnelPool`` serves a selection run that solves many middlepoint sets: it
enumerates and loads each tunnel once, and each set's program is a column
slice of it, identical to the program built for that set alone, cut straight
into CSR arrays. A ``WarmStart`` turns the optimal basis of one LU slice into
a start basis for the slices of its supersets, gathered by pool column: the
pool only appends, so a column never moves.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix

from .graph import Commodity, DemandMatrix, FlowNetwork
from .lp import LOWER, Basis, LpStatus, SparseLp, solve_lp
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


def _routable_tunnels(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    sequences: Sequence[tuple[int, ...]],
) -> list[list[Tunnel]]:
    """Each commodity's tunnels through those middlepoint sequences that
    avoid its endpoints and whose segments are all reachable, in sequence
    order."""
    groups = []
    for i, c in enumerate(demands.commodities):
        s, t = c.source, c.sink
        tunnels = []
        for seq in sequences:
            if s in seq or t in seq:
                continue
            waypoints = (s, *seq, t)
            if all(cache.reachable(a, b) for a, b in zip(waypoints, waypoints[1:])):
                tunnels.append(Tunnel(i, waypoints))
        groups.append(tunnels)
    return groups


def tunnels_for_middlepoints(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    middlepoints: Iterable[int],
    max_middlepoints: int,
    single_middlepoint: bool = False,
) -> list[list[Tunnel]]:
    """Each commodity's tunnels over ordered selections of at most
    ``max_middlepoints`` distinct middlepoints, sorted by waypoint tuple.

    Middlepoints equal to the commodity's endpoints are skipped; every segment
    must be reachable. The direct 0-middlepoint tunnel is included when the
    sink is reachable, unless single_middlepoint forces exactly one. A
    commodity that nothing connects gets an empty list.
    """
    mids = sorted(set(middlepoints))
    sizes = (
        (1,) if single_middlepoint
        else range(min(max_middlepoints, len(mids)) + 1)
    )
    groups = _routable_tunnels(cache, demands, [
        seq for size in sizes for seq in itertools.permutations(mids, size)
    ])
    for tunnels in groups:
        tunnels.sort(key=lambda tun: tun.waypoints)
    return groups


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
    commodity: Optional[np.ndarray] = None  # each tunnel's commodity; None in MP
    ids: Optional[np.ndarray] = None  # a pool slice's tunnels' pool columns


@dataclass(eq=False)
class TeSolution:
    """Decoded TE result; theta for LU, satisfied totals for MF.

    Keeps the solved tunnel flows and edge utilizations as read from the LP;
    the dicts keyed by tunnel or edge are built when first read, since
    selection reads only theta of every subproblem but the one it returns.
    """

    kind: str
    status: LpStatus
    theta: Optional[float] = None
    satisfied_total: Optional[float] = None
    satisfaction_ratio: Optional[float] = None
    solve_ms: float = 0.0
    tunnels: Sequence[Tunnel] = ()
    flows: Sequence[float] = ()  # one per tunnel, in the same order
    utilization: np.ndarray = field(default_factory=lambda: np.zeros(0))
    basis: Optional[Basis] = None  # the optimal basis, when asked for

    @property
    def objective(self) -> Optional[float]:
        return self.theta if self.kind == LU else self.satisfaction_ratio

    @cached_property
    def tunnel_flows(self) -> dict[Tunnel, float]:
        return dict(zip(self.tunnels, self.flows))

    @cached_property
    def split_ratios(self) -> dict[Tunnel, float]:
        totals: dict[int, float] = {}
        for tun, flow in zip(self.tunnels, self.flows):
            totals[tun.commodity] = totals.get(tun.commodity, 0.0) + flow
        return {
            tun: (flow / totals[tun.commodity] if totals[tun.commodity] > 0 else 0.0)
            for tun, flow in zip(self.tunnels, self.flows)
        }

    @cached_property
    def edge_utilization(self) -> dict[int, float]:
        return dict(enumerate(self.utilization.tolist()))


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


def _row_major(parts, shape) -> csr_matrix:
    """The CSR matrix of (rows, cols, data) COO parts without duplicates whose
    entries already ascend by column within each row, as entries listed
    column by column do: a stable sort by row, equal to ``_csr`` of them."""
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    # NumPy sorts keys of up to 16 bits by radix, several times faster.
    keys = rows.astype(np.uint16) if shape[0] <= 1 << 16 else rows
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return csr_matrix(
        (data[order], cols[order].astype(np.int32), indptr), shape=shape
    )


@functools.cache
def _no_rows(width: int) -> csr_matrix:
    """The empty = block of every tunnel program with this many columns."""
    return csr_matrix((0, width))


def _build_tunnel_program(
    kind: str,
    cache: ShortestPathCache,
    demands: DemandMatrix,
    tunnels_by_commodity: Sequence[Sequence[Tunnel]],
) -> TeProgram:
    groups = tunnels_by_commodity
    tunnels = [tun for group in groups for tun in group]
    edge_rows, sizes, loads = _tunnel_loads(cache, tunnels)
    commodity = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return _tunnel_program(
        kind, cache.network, demands, tunnels, commodity,
        np.array(edge_rows, dtype=np.intp), sizes, np.array(loads, dtype=float),
    )


def _tunnel_program(
    kind: str,
    network: FlowNetwork,
    demands: DemandMatrix,
    tunnels: list[Tunnel],
    commodity: np.ndarray,
    edge_rows: np.ndarray,
    sizes: Sequence[int],
    loads: np.ndarray,
    ids: Optional[np.ndarray] = None,
) -> TeProgram:
    """Assemble the program over the given tunnels in order.

    ``commodity`` holds each tunnel's commodity; the loads of tunnel j are
    the next ``sizes[j]`` entries of ``edge_rows`` and ``loads``, on distinct
    edges. The entries come column by column, so every matrix is cut
    straight into CSR arrays. ``ids`` are the tunnels' pool columns, if any.
    """
    volume = np.array([c.demand for c in demands.commodities], dtype=float)
    if kind == LU:
        served = np.bincount(commodity, minlength=len(volume))
        missing = np.flatnonzero((volume > 0) & (served == 0))
        if missing.size:
            raise NoTunnelError(demands.commodities[missing[0]])
    count, edge_count = len(tunnels), network.edge_count
    first = 1 if kind == LU else 0  # theta comes first in LU
    variables = first + count
    tunnel_cols = np.repeat(np.arange(count), sizes)
    load_matrix = _row_major(
        [(edge_rows, tunnel_cols, loads)], (edge_count, count)
    )
    capacities = network.float_capacities

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
        _row_major(parts, (len(b_ub), variables)), b_ub,
        _no_rows(variables), np.zeros(0),
    )
    return TeProgram(
        kind, lp, network, demands, tunnels, first, load_matrix, commodity, ids
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


class TunnelPool:
    """The tunnels of many middlepoint sets, each enumerated and loaded once.

    The pool holds every tunnel of each set it has covered, with its load
    column, and only appends: a column's position is its identity for the
    life of the pool. A covered set's program is assembled from the pool
    columns whose middlepoints all lie in the set, in (commodity, waypoints)
    order: array for array the program ``build_te_lu`` or ``build_te_mf``
    builds from ``tunnels_for_middlepoints`` for that set. A selection run
    covers its sets (or each round's) at once, so the pool never holds a
    tunnel no set uses.
    """

    def __init__(
        self, cache: ShortestPathCache, demands: DemandMatrix, max_middlepoints: int
    ):
        self.cache = cache
        self.demands = demands
        self.max_middlepoints = max_middlepoints
        self.tunnels: list[Tunnel] = []
        self._covered: set[tuple[int, ...]] = set()  # sorted middlepoint sets
        self._commodity = np.zeros(0, dtype=np.intp)
        # Each column's middlepoints, padded with node_count, which every set
        # contains when sliced. A tunnel's middlepoints are distinct nodes.
        width = min(max_middlepoints, cache.network.node_count)
        self._middlepoints = np.zeros((0, width), dtype=np.intp)
        # Column j's loads are loads[ptr[j]:ptr[j + 1]] on those edge rows.
        self._ptr = np.zeros(1, dtype=np.intp)
        self._edge_rows = np.zeros(0, dtype=np.intp)
        self._loads = np.zeros(0)
        # The columns in (commodity, waypoints) order.
        self._order = np.zeros(0, dtype=np.intp)

    def cover(self, sets: Iterable[Iterable[int]]) -> None:
        """Append the tunnels of the given middlepoint sets that are missing.

        A tunnel belongs to every set that contains its middlepoints, so the
        pool tracks which sets of <= max_middlepoints middlepoints it holds
        all tunnels of, and enumerates only the tunnels of new ones.
        """
        fresh_sets = set()
        for nodes in sets:
            nodes = sorted(set(nodes))
            for size in range(min(self.max_middlepoints, len(nodes)) + 1):
                fresh_sets.update(itertools.combinations(nodes, size))
        fresh_sets -= self._covered
        if not fresh_sets:
            return
        sequences = [
            perm for mids in fresh_sets for perm in itertools.permutations(mids)
        ]
        fresh = [
            tun for group in _routable_tunnels(self.cache, self.demands, sequences)
            for tun in group
        ]
        edge_rows, sizes, loads = _tunnel_loads(self.cache, fresh)
        node_count, width = self.cache.network.node_count, self._middlepoints.shape[1]
        pad = (node_count,) * width
        self.tunnels += fresh
        self._commodity = _appended(self._commodity, [tun.commodity for tun in fresh])
        self._middlepoints = _appended(
            self._middlepoints, [(tun.middlepoints + pad)[:width] for tun in fresh]
        )
        self._ptr = _appended(self._ptr, self._ptr[-1] + np.cumsum(sizes, dtype=np.intp))
        self._edge_rows = _appended(self._edge_rows, edge_rows)
        self._loads = _appended(self._loads, loads)
        # Padded with its sink, which is never a middlepoint, a column's
        # middlepoints sort as its waypoints do.
        sinks = np.array([c.sink for c in self.demands.commodities], dtype=np.intp)
        key = np.where(
            self._middlepoints == node_count,
            sinks[self._commodity, None], self._middlepoints,
        )
        self._order = np.lexsort((*key.T[::-1], self._commodity))
        self._covered |= fresh_sets

    def _columns(self, middlepoints: Iterable[int]) -> np.ndarray:
        """The pool columns whose middlepoints all lie in the set, in
        (commodity, waypoints) order."""
        inside = np.zeros(self.cache.network.node_count + 1, dtype=bool)
        inside[list(middlepoints)] = True
        inside[-1] = True  # the padding
        return self._order[inside[self._middlepoints].all(axis=1)[self._order]]

    def program(self, middlepoints: Iterable[int], kind: str = LU) -> TeProgram:
        """The TE program (LU or MF) of one middlepoint set, covered first if
        new."""
        middlepoints = set(middlepoints)
        self.cover((middlepoints,))
        keep = self._columns(middlepoints)
        positions, sizes = _gather(self._ptr, keep)
        return _tunnel_program(
            kind, self.cache.network, self.demands,
            [self.tunnels[j] for j in keep], self._commodity[keep],
            self._edge_rows[positions], sizes, self._loads[positions], keep,
        )


class WarmStart:
    """Start bases for the LU slices of a pool that hold every column of one
    solved LU slice (the slices of its middlepoint supersets), taken from its
    optimal basis.

    A column of the solved slice keeps its status, every other tunnel column
    starts nonbasic at its lower bound 0, and the rows keep theirs: an LU
    slice has a row per edge and per positive demand, whatever its tunnels.
    The basis matrix is the solved one, and the new columns are 0, so the
    start is primal feasible; the simplex only prices the new columns in.
    """

    def __init__(self, pool: TunnelPool, middlepoints: Iterable[int], basis: Basis):
        """``basis`` is optimal for the pool's LU slice of ``middlepoints``."""
        columns = pool._columns(middlepoints)  # in the order of the basis
        first = len(basis.cols) - len(columns)
        self._theta, self._rows = basis.cols[:first], basis.rows
        # The status of each column the pool held when this start was made.
        self._by_column = np.full(len(pool.tunnels), LOWER, dtype=np.int8)
        self._by_column[columns] = basis.cols[first:]

    def basis(self, program: TeProgram) -> Basis:
        """The start basis of an LU slice of the pool's columns as they were
        when this warm start was made."""
        return Basis(
            np.concatenate((self._theta, self._by_column[program.ids])), self._rows
        )


def _appended(array: np.ndarray, rows: Sequence) -> np.ndarray:
    """``array`` with ``rows`` appended, in its dtype."""
    rows = np.array(rows, dtype=array.dtype).reshape(len(rows), *array.shape[1:])
    return np.concatenate((array, rows))


def _gather(ptr: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the given columns' entries, column after column, and
    each column's entry count, for columns whose entries are ptr[j]:ptr[j + 1]."""
    sizes = ptr[columns + 1] - ptr[columns]
    starts = np.cumsum(sizes) - sizes
    return np.repeat(ptr[columns] - starts, sizes) + np.arange(sizes.sum()), sizes


def _met_flows(program: TeProgram, x: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """The flow variables of an LU solution, checked against the demands.

    LU demand rows are >=, so a commodity may get more flow than it demands
    where the extra binds no edge at theta; its tunnel flows are scaled down
    to the demand, so the utilizations are those of the routing the split
    ratios describe. HiGHS's absolute tolerance lets a tiny demand go
    unserved, so a positive demand delivered less than (1 - UTILIZATION_TOL)
    of it raises ArithmeticError.
    """
    commodities = program.demands.commodities
    volume = np.array([c.demand for c in commodities], dtype=float)
    if program.commodity is None:
        # MP: the = rows with a right side are the positive demands' source
        # balances, commodity by commodity.
        delivered = np.zeros(len(volume))
        lp = program.lp
        delivered[volume > 0] = (lp.a_eq @ x)[lp.b_eq != 0]
    else:
        delivered = np.bincount(program.commodity, flows, minlength=len(volume))
        over = delivered > volume * (1 + UTILIZATION_TOL)
        if over.any():
            scale = np.ones(len(volume))
            scale[over] = volume[over] / delivered[over]
            flows = flows * scale[program.commodity]
    short = np.flatnonzero(delivered < volume * (1 - UTILIZATION_TOL))
    if short.size:
        c, names = commodities[short[0]], program.network.node_names
        raise ArithmeticError(
            f"demand {names[c.source]} -> {names[c.sink]} of {c.demand:.9g} "
            f"is delivered only {delivered[short[0]]:.9g}"
        )
    return flows


def solve_te(
    program: TeProgram,
    start_basis: Optional[Basis] = None,
    return_basis: bool = False,
) -> TeSolution:
    """Solve a TE program, decode its utilizations and check theta against them.

    ``start_basis`` and ``return_basis`` are passed to ``solve_lp``.
    """
    start = time.perf_counter()
    sol = solve_lp(program.lp, start_basis, return_basis)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    result = TeSolution(
        program.kind, sol.status, solve_ms=elapsed_ms, basis=sol.basis
    )
    if sol.status is not LpStatus.OPTIMAL:
        return result

    flows = sol.x[program.first_tunnel_var:]
    if program.kind == LU:
        flows = _met_flows(program, sol.x, flows)
    result.tunnels = program.tunnels
    result.flows = flows[:len(program.tunnels)].tolist()
    # Each row of the load matrix lists its tunnels in order, so every edge's
    # load is summed in tunnel order.
    result.utilization = (program.loads @ flows) / program.network.float_capacities

    if program.kind == LU:
        result.theta = sol.objective_value
        max_util = max(result.utilization.tolist(), default=0.0)
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
    capacities = network.float_capacities
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

    lp = SparseLp(
        kind == MF, objective, np.zeros(variables), upper,
        _csr(ub, (len(b_ub), variables)), b_ub,
        _csr(eq, (len(b_eq), variables)), b_eq,
    )
    loads = _csr([(flow_edges, flow_cols - first, ones)],
                 (edge_count, variables - first))
    return TeProgram(kind, lp, network, demands, [], first, loads)
