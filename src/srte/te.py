"""Tunnel enumeration, the segment-routing TE programs and the MP baseline.

A tunnel is an ordered waypoint sequence (source, middlepoints..., sink);
flow on each segment splits over the segment's ECMP shortest paths per the
exact path counts from paths.py. Tunnel segments may reuse an edge, in which
case the loads add up on that edge (no acyclicity filtering).

One TeProgram type holds every program's columns in one layout: a
tunnel's LU column (its per-edge loads, each the correctly rounded float of
its exact rational value, then -1 in its commodity's demand row), or, for
the multipath (MP) baseline, an arc-flow column per commodity and edge.
``solve_te`` decodes both by one product of the flows with the columns, and
``_row_major`` assembles every LP matrix from COO entries. A tunnel column
is its commodity and padded middlepoints; ``Tunnel`` values are made from
them only where a solution's split ratios are read.

An LU tunnel program's optimal row duals give every LU tunnel program on the
network a dual solution (``dual_weights``): edge weights w >= 0 with c·w <= 1,
under which a tunnel costs its load·w. By weak duality any tunnel set's
theta is at least the demand-weighted sum of each commodity's least tunnel
cost, and the MP theta at least that of each commodity's least path cost.
``solve_te`` certifies each LU theta it returns by this bound at its own
duals, and ``extension_bounds`` prices, at a set's duals, every set of it
plus one node at once.

A ``TunnelPool`` serves a selection run that solves many middlepoint sets: it
enumerates and loads each tunnel once, and each set's program is a column
slice of it, identical to the program built for that set alone: its columns
are gathered from the pool's. Every tunnel load column, of a pool or of a
program built from given tunnels, comes from one kernel over the exact rows
of the segments those tunnels use (``segment_rows``, called once per build):
each tunnel's column is its segments' rows concatenated, and where two
segments share an edge their loads are summed exactly, as an integer
numerator over the LCM of their path counts: on int64 while no sum can reach
2^53, and on Python ints otherwise. Which tunnels route is read from the
all-pairs path counts (``ShortestPathCache.pairs``). Every LU program of a
pool has the same rows, so the pool keeps each column's LU entries, loads and
demand entry, once, in the layout of every program's ``columns``. A
``PoolModel`` keeps one set's LU slice loaded in HiGHS at its optimal basis
and solves a superset's slice by adding only the pool columns the superset
brings, gathered from those entries: for one solve, as a greedy round ranks
its candidates (each one's columns grouped once per round, with the
bounds, in the set's ``Extensions``), for good at the basis such a solve
returned, as a round's winner joins the model, or for good and solved, as
a sweep's chain of growing sets goes on from each set's optimal basis,
decoding each solution as ``solve_te`` does.

All-nodes enumeration refuses, before enumerating anything, more than
``ALL_NODES_PAIR_CAP`` (commodity, middlepoint sequence) pairs.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .graph import Commodity, DemandMatrix, FlowNetwork
from .lp import CsrMatrix, LpModel, LpSolution, LpStatus, SparseLp, highs, solve_lp
from .paths import FLOAT_EXACT, ShortestPathCache, UnreachableSegment, segment_rows

LU = "lu"
MF = "mf"

UTILIZATION_TOL = 1e-6

# The float error allowed between a dual bound and the LU theta it bounds,
# relative to max(1, theta) (or to max(1, |bound|) where only the bound is
# known). An LU theta further above the bound at its own row duals is
# refused as not optimal (``_certify``): over 1,141 cold LU tunnel solves of
# 80 benchmark-tier greedy and GSP-sweep runs the gap was at most 6.8e-16,
# and over the MP programs of 20 benchmark-tier instances at most 2.5e-16.
# It is the certificate's tolerance only: the greedy screens its candidates'
# ``extension_bounds`` with the far narrower warm tie band.
BOUND_TOL = 1e-9

# The most (commodity, ordered middlepoint sequence) pairs all-nodes tests.
# The largest all-nodes run measured, n=60 with m=2 (100 commodities:
# 336,500 tunnels, 5.2 s to enumerate and build, 36 s to solve on a 2-CPU
# host), is below it. The 10-node tests/data/net10 (5 commodities) exceeds
# it from m=7 (346,405 pairs) on; at m=6 (144,805 pairs) it takes 7.5 s and
# 410 MB.
ALL_NODES_PAIR_CAP = 340_000


class NoTunnelError(Exception):
    """A positive-demand commodity has no usable tunnel."""

    def __init__(self, commodity: Commodity):
        super().__init__(
            f"no tunnel connects commodity {commodity.source} -> {commodity.sink}"
        )
        self.commodity = commodity


class TunnelCapError(ValueError):
    """An all-nodes enumeration would exceed ``ALL_NODES_PAIR_CAP``."""


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
    commodity that nothing connects gets an empty list. More than
    ``ALL_NODES_PAIR_CAP`` (commodity, sequence) pairs to test, counted
    before any is enumerated, raise ``TunnelCapError``.
    """
    mids = sorted(set(middlepoints))
    sizes = (
        (1,) if single_middlepoint
        else range(min(max_middlepoints, len(mids)) + 1)
    )
    # A commodity's sequences avoid those of its endpoints that are in mids.
    inside = set(mids)
    excluded = collections.Counter(
        len({c.source, c.sink} & inside) for c in demands.commodities
    )
    pairs = sum(
        count * math.perm(len(mids) - gone, size)
        for gone, count in excluded.items() for size in sizes
    )
    if pairs > ALL_NODES_PAIR_CAP:
        raise TunnelCapError(
            f"{pairs} (commodity, middlepoint sequence) pairs exceed the "
            f"all-nodes cap of {ALL_NODES_PAIR_CAP}"
        )
    sequences = [seq for size in sizes for seq in itertools.permutations(mids, size)]
    padded = _padded(sequences, cache.network.node_count, max(sizes, default=0))
    routable = _routable(cache, _ends(demands), padded)
    groups: list[list[Tunnel]] = [[] for _ in demands.commodities]
    for i, j in zip(*(a.tolist() for a in np.nonzero(routable))):
        c = demands.commodities[i]
        groups[i].append(Tunnel(i, (c.source, *sequences[j], c.sink)))
    for tunnels in groups:
        tunnels.sort(key=lambda tun: tun.waypoints)
    return groups


@dataclass
class TeProgram:
    """A TE program: the layout needed to decode its solution, and its LP.

    Row j of ``columns`` (variables x LP rows) holds the entries of variable
    ``first_tunnel_var + j``: for the tunnel of commodity ``commodity[j]``
    through ``middlepoints[j]`` (padded with node_count), its LU column as
    the pool keeps it (MF reads only its edge rows); in the MP baseline
    (both None), 1.0 on the edge of each commodity's edge flow, and nothing
    for an MF delivered amount. The LP and the ``tunnels`` are made when
    first read, so a program that only decodes a solution found in another
    model never assembles its LP, and only a printed solution's makes
    tunnels.
    """

    kind: str
    network: FlowNetwork
    demands: DemandMatrix
    first_tunnel_var: int
    columns: CsrMatrix
    commodity: Optional[np.ndarray] = None
    middlepoints: Optional[np.ndarray] = None

    @cached_property
    def lp(self) -> SparseLp:
        return _tunnel_lp(self)

    @cached_property
    def tunnels(self) -> list[Tunnel]:
        """Each column's tunnel, in column order; none in MP."""
        if self.commodity is None:
            return []
        pad = self.network.node_count
        ends = [(c.source, c.sink) for c in self.demands.commodities]
        return [
            Tunnel(i, (ends[i][0], *(v for v in mids if v != pad), ends[i][1]))
            for i, mids in zip(self.commodity.tolist(), self.middlepoints.tolist())
        ]


@dataclass(eq=False)
class TeSolution:
    """Decoded TE result; theta for LU, satisfied totals for MF.

    An optimal solution keeps its program, the flow of each of its load
    columns and the edge utilizations as arrays; the dicts keyed by tunnel or
    edge are built when first read, since selection reads only theta of
    every subproblem but the one it returns.
    """

    kind: str
    status: LpStatus
    theta: Optional[float] = None
    satisfied_total: Optional[float] = None
    satisfaction_ratio: Optional[float] = None
    solve_ms: float = 0.0
    program: Optional[TeProgram] = None
    flows: np.ndarray = field(default_factory=lambda: np.zeros(0))
    utilization: np.ndarray = field(default_factory=lambda: np.zeros(0))
    basis: Optional[highs.HighsBasis] = None  # the optimal basis (LpSolution)
    duals: Optional[np.ndarray] = None  # the optimal row duals (LpSolution)

    @property
    def objective(self) -> Optional[float]:
        return self.theta if self.kind == LU else self.satisfaction_ratio

    @cached_property
    def split_ratios(self) -> dict[Tunnel, float]:
        """Each tunnel's share of its commodity's flow (0.0 where that flow
        is 0), the flows summed in column order; empty in MP."""
        program = self.program
        if program is None or program.commodity is None:
            return {}
        flows, commodity = self.flows, program.commodity
        totals = np.bincount(commodity, flows)[commodity]
        ratios = np.divide(flows, totals, out=np.zeros(len(flows)), where=totals > 0)
        return dict(zip(program.tunnels, ratios.tolist()))

    @cached_property
    def edge_utilization(self) -> dict[int, float]:
        return dict(enumerate(self.utilization.tolist()))


def _indptr(rows: np.ndarray, count: int) -> np.ndarray:
    """The int32 row pointers of entries in these rows, sorted by row."""
    indptr = np.zeros(count + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=count), out=indptr[1:])
    return indptr


def _row_major(parts, shape) -> CsrMatrix:
    """Scipy's canonical CSR matrix of (rows, cols, data) COO parts without
    duplicates whose entries already ascend by column within each row, as
    entries listed column by column do: a stable sort by row."""
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    # NumPy sorts keys of up to 16 bits by radix, several times faster.
    keys = rows.astype(np.uint16) if shape[0] <= 1 << 16 else rows
    order = np.argsort(keys, kind="stable")
    return CsrMatrix(
        _indptr(rows, shape[0]), cols[order].astype(np.int32), data[order], shape
    )


@functools.cache
def _no_rows(width: int) -> CsrMatrix:
    """The empty = block of every tunnel program with this many columns."""
    return CsrMatrix(
        np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
        (0, width),
    )


def _build_tunnel_program(
    kind: str,
    cache: ShortestPathCache,
    demands: DemandMatrix,
    tunnels_by_commodity: Sequence[Sequence[Tunnel]],
) -> TeProgram:
    groups = tunnels_by_commodity
    commodity = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    mids = [tun.middlepoints for group in groups for tun in group]
    middlepoints = _padded(mids, cache.network.node_count, max(map(len, mids), default=0))
    return _tunnel_program(
        kind, cache.network, demands, commodity, middlepoints,
        *_lu_entries(cache, demands, _ends(demands), commodity, middlepoints),
    )


def _lu_entries(
    cache: ShortestPathCache, demands: DemandMatrix, ends: np.ndarray,
    commodity: np.ndarray, middlepoints: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LU columns, in the arrays ``LpModel.solve_with`` takes, of the
    tunnels of ``commodity`` through ``middlepoints``: each one's load column
    (``_tunnel_columns``), then -1 in its commodity's demand row if positive."""
    sizes, edge_rows, loads = _tunnel_columns(cache, ends, commodity, middlepoints)
    positive = demands.volumes > 0
    demand_row = cache.network.edge_count + np.cumsum(positive) - 1
    met = positive[commodity]
    ptr = np.zeros(len(commodity) + 1, dtype=np.int32)
    np.cumsum(sizes + met, out=ptr[1:])
    # A met column's last entry is its demand entry, -1; the others are loads.
    last = ptr[1:][met] - 1
    load = np.ones(ptr[-1], dtype=bool)
    load[last] = False
    rows, values = np.empty(ptr[-1], dtype=np.int32), np.full(ptr[-1], -1.0)
    rows[load], values[load] = edge_rows, loads
    rows[last] = demand_row[commodity[met]]
    return ptr, rows, values


def _tunnel_program(
    kind: str,
    network: FlowNetwork,
    demands: DemandMatrix,
    commodity: np.ndarray,
    middlepoints: np.ndarray,
    ptr: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
) -> TeProgram:
    """The program over the given tunnels in order: tunnel j of commodity
    ``commodity[j]`` through ``middlepoints[j]`` (padded with node_count),
    whose LU column is ``values[ptr[j]:ptr[j + 1]]`` in the rows
    ``rows[ptr[j]:ptr[j + 1]]``."""
    volume = demands.volumes
    positive = volume > 0
    if kind == LU:
        served = np.bincount(commodity, minlength=len(volume))
        missing = np.flatnonzero(positive & (served == 0))
        if missing.size:
            raise NoTunnelError(demands.commodities[missing[0]])
    columns = CsrMatrix(
        ptr, rows, values,
        (len(commodity), network.edge_count + np.count_nonzero(positive)),
    )
    first = 1 if kind == LU else 0  # theta comes first in LU
    return TeProgram(kind, network, demands, first, columns, commodity, middlepoints)


def _tunnel_lp(program: TeProgram) -> SparseLp:
    """The LU or MF LP of a tunnel program, assembled from its columns."""
    kind, network, commodity = program.kind, program.network, program.commodity
    volume = program.demands.volumes
    columns = program.columns
    count, edge_count = columns.shape[0], network.edge_count
    first = program.first_tunnel_var
    variables = first + count
    # The entries column by column, each column's in order of first use,
    # with their LP columns in int32, as the LP's matrix stores them.
    rows, values, ptr = columns.indices, columns.data, columns.indptr
    cols = np.repeat(np.arange(first, variables, dtype=np.int32), np.diff(ptr))
    capacities = network.float_capacities

    if kind == LU:
        # Rows: load on e - theta * c(e) <= 0 for every edge, then
        # -(flow of commodity i) <= -demand(i) for positive demand: theta's
        # column, then the tunnels' LU columns.
        parts = [
            (np.arange(edge_count), np.zeros(edge_count, dtype=np.intp),
             -capacities),
            (rows, cols, values),
        ]
        rhs = [np.zeros(edge_count), -volume[volume > 0]]
        objective = np.zeros(variables)
        objective[0] = 1.0
    else:
        # Rows: load on e <= c(e) for every loaded edge, then flow of
        # commodity i <= demand(i) for every commodity with a tunnel.
        on_edge = rows < edge_count
        edge_rows = rows[on_edge]
        loaded = np.flatnonzero(np.bincount(edge_rows, minlength=edge_count))
        served = np.flatnonzero(np.bincount(commodity, minlength=len(volume)))
        parts = [
            (np.searchsorted(loaded, edge_rows), cols[on_edge], values[on_edge]),
            (len(loaded) + np.searchsorted(served, commodity),
             np.arange(count), np.ones(count)),
        ]
        rhs = [capacities[loaded], volume[served]]
        objective = np.ones(count)
    b_ub = np.concatenate(rhs)
    return SparseLp(
        kind == MF, objective, np.zeros(variables), np.full(variables, np.inf),
        _row_major(parts, (len(b_ub), variables)), b_ub,
        _no_rows(variables), np.zeros(0),
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

    The pool holds every tunnel of each set it has covered, with its column,
    and only appends: a column's position is its identity for the life of
    the pool. A covered set's program is assembled from the pool columns
    whose middlepoints all lie in the set, in (commodity, waypoints) order:
    array for array the program ``build_te_lu`` or ``build_te_mf`` builds
    from ``tunnels_for_middlepoints`` for that set. A selection run covers
    its sets (or each round's) at once, so the pool never holds a tunnel no
    set uses. A column is arrays only: its commodity, padded middlepoints
    and LU entries.

    Every LU program of the pool has the same rows, one per edge, then one
    per positive demand, whatever its tunnels. So a column's LU entries
    never change, and the pool keeps them in the one layout ``LpModel``
    takes: its loads on edge rows, in order of first use, then -1 in its
    commodity's demand row where that demand is positive: the layout of
    every program's ``columns``, which a slice gathers.
    """

    def __init__(
        self, cache: ShortestPathCache, demands: DemandMatrix, max_middlepoints: int
    ):
        self.cache = cache
        self.demands = demands
        self.max_middlepoints = max_middlepoints
        self._covered: set[tuple[int, ...]] = set()  # sorted middlepoint sets
        self._commodity = np.zeros(0, dtype=np.intp)
        # Each column's middlepoints, padded with node_count, which every set
        # contains when sliced. A tunnel's middlepoints are distinct nodes.
        width = min(max_middlepoints, cache.network.node_count)
        self._middlepoints = np.zeros((0, width), dtype=np.intp)
        # Column j's LU entries are values[ptr[j]:ptr[j + 1]] in those rows.
        self._ptr = np.zeros(1, dtype=np.intp)
        self._rows = np.zeros(0, dtype=np.int32)
        self._values = np.zeros(0)
        # The columns in (commodity, waypoints) order.
        self._order = np.zeros(0, dtype=np.intp)
        self._ends = _ends(demands)
        self._last_extensions: Optional[tuple[tuple, Extensions]] = None

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
        node_count = self.cache.network.node_count
        sequences = [
            perm for mids in fresh_sets for perm in itertools.permutations(mids)
        ]
        padded = _padded(sequences, node_count, self._middlepoints.shape[1])
        commodity, which = np.nonzero(_routable(self.cache, self._ends, padded))
        padded = padded[which]
        ptr, rows, values = _lu_entries(
            self.cache, self.demands, self._ends, commodity, padded
        )
        self._commodity = _appended(self._commodity, commodity)
        self._middlepoints = _appended(self._middlepoints, padded)
        self._ptr = _appended(self._ptr, self._ptr[-1] + ptr[1:])
        self._rows = _appended(self._rows, rows)
        self._values = _appended(self._values, values)
        # Padded with its sink, which is never a middlepoint, a column's
        # middlepoints sort as its waypoints do.
        key = np.where(
            self._middlepoints == node_count,
            self._ends[1][self._commodity, None], self._middlepoints,
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

    def _extensions(self, middlepoints: Iterable[int]) -> "Extensions":
        """The ``Extensions`` of a covered set. The last one asked for is
        kept until the pool grows: a greedy round's bounds and its model's
        ranking solves read the same."""
        key = (frozenset(middlepoints), len(self._commodity))
        if self._last_extensions is None or self._last_extensions[0] != key:
            self._last_extensions = key, Extensions.of(self, key[0])
        return self._last_extensions[1]

    def program(self, middlepoints: Iterable[int], kind: str = LU) -> TeProgram:
        """The TE program (LU or MF) of one middlepoint set, covered first if
        new."""
        middlepoints = set(middlepoints)
        self.cover((middlepoints,))
        return self._slice(self._columns(middlepoints), kind)

    def _slice(self, keep: np.ndarray, kind: str) -> TeProgram:
        """The TE program over the given columns, in order: their LU
        columns, gathered."""
        return _tunnel_program(
            kind, self.cache.network, self.demands, self._commodity[keep],
            self._middlepoints[keep], *self._lu_columns(keep),
        )

    def _lu_columns(
        self, columns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given columns' LU entries, in the arrays ``LpModel.solve_with``
        and ``LpModel.extend`` take."""
        starts = self._ptr.take(columns)
        sizes = self._ptr.take(columns + 1) - starts
        ptr = np.zeros(len(columns) + 1, dtype=np.int32)
        np.cumsum(sizes, out=ptr[1:])
        positions = np.repeat(starts - ptr[:-1], sizes) + np.arange(ptr[-1])
        return ptr, self._rows.take(positions), self._values.take(positions)


class Extensions(NamedTuple):
    """A covered set's pool columns, and those each set of it plus one node
    outside it brings, in (commodity, waypoints) order: ``own``, the columns
    whose middlepoints all lie in the set, and ``columns``, grouped by node,
    those with exactly one middlepoint outside the set: node v's are
    ``columns[starts[v]:starts[v + 1]]``, the pool columns of the set plus v
    that the set's lack."""

    own: np.ndarray
    columns: np.ndarray
    nodes: np.ndarray  # the middlepoint outside the set of each of ``columns``
    starts: np.ndarray

    @classmethod
    def of(cls, pool: TunnelPool, middlepoints: Iterable[int]) -> "Extensions":
        node_count = pool.cache.network.node_count
        inside = np.zeros(node_count + 1, dtype=bool)
        inside[[*middlepoints, node_count]] = True  # the set and the padding
        mids = pool._middlepoints[pool._order]
        outside = np.where(inside[mids], -1, mids)
        count = (outside >= 0).sum(axis=1)
        one = np.flatnonzero(count == 1)
        nodes = outside[one].max(axis=1, initial=-1)
        by_node = np.argsort(nodes, kind="stable")  # keeps the order in a group
        nodes = nodes[by_node]
        return cls(
            pool._order[count == 0], pool._order[one[by_node]], nodes,
            np.searchsorted(nodes, np.arange(node_count + 1)),
        )

    def of_node(self, node: int) -> np.ndarray:
        """The columns the set plus ``node`` brings."""
        return self.columns[self.starts[node]:self.starts[node + 1]]


class PoolModel:
    """The TE_LU solutions of supersets of a covered middlepoint set, solved
    in one kept ``LpModel`` of the set's LU slice, started from its optimal
    basis.

    The model holds the pool columns of its set, in the order they came:
    the set's program, then the columns each later set brought. Every LU
    program of the pool has the same rows, so a superset's program is the
    held columns plus the pool columns of the superset the model lacks,
    added from the pool's LU entries: for one solve (``theta``, which ranks
    a greedy round's candidates, each one's columns read from the set's
    ``Extensions``), for good from the solve of least theta since the set
    last changed, at the basis it returned (``join``: a greedy round's
    winner), or for good and solved (``solve``, which grows a sweep's chain
    of sets from each one's optimal basis). The pool only appends, so a
    column never moves.
    """

    def __init__(
        self, pool: TunnelPool, middlepoints: Iterable[int], program: TeProgram,
        basis: highs.HighsBasis,
    ):
        """``program`` is the pool's LU slice of ``middlepoints`` and
        ``basis`` an optimal basis of it, and the pool covers each superset
        asked for."""
        middlepoints = tuple(middlepoints)
        self._pool = pool
        self._program = program
        self._model = LpModel(program.lp, basis)
        self._grown(middlepoints, pool._columns(middlepoints))

    def _grown(self, middlepoints: Iterable[int], columns: np.ndarray) -> None:
        """The model's set is now ``middlepoints``, and ``columns`` the pool
        columns it holds, in model order."""
        self.middlepoints = tuple(middlepoints)
        self._columns = columns
        self._commodity = self._pool._commodity[columns]
        self._kept: Optional[CsrMatrix] = None  # LU entries after the program's
        # The ranking solve of least theta since: (theta, node, the node's
        # columns, their LU entries, the solution, its milliseconds).
        self._best: Optional[tuple] = None

    def close(self) -> None:
        """Free the model's HiGHS solver; the model is not solved again."""
        self._model = None

    def _added(self, middlepoints: Iterable[int]) -> np.ndarray:
        """The pool columns of a superset of the model's set that the model
        lacks, in (commodity, waypoints) order: those whose middlepoints all
        lie in the superset but not all in the set."""
        pool = self._pool
        # Each middlepoint's label: 0 in the set (or padding), 1 in the
        # superset only, 2 outside it; a column's is its largest.
        label = np.full(pool.cache.network.node_count + 1, 2, dtype=np.int8)
        label[list(middlepoints)] = 1
        label[[*self.middlepoints, -1]] = 0
        order = pool._order
        return order[label[pool._middlepoints].max(axis=1, initial=0)[order] == 1]

    def theta(self, node: int) -> float:
        """Theta of the set plus ``node``, a node outside it, solved with the
        columns it brings for that solve only and checked as ``solve_te``
        checks one. A solve without an optimum or a point failing a check
        raises ``ArithmeticError``."""
        pool, program = self._pool, self._program
        new = pool._extensions(self.middlepoints).of_node(node)
        ptr, rows, values = pool._lu_columns(new)
        start = time.perf_counter()
        sol = self._model.solve_with(ptr, rows, values)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if sol.status is not LpStatus.OPTIMAL:
            raise ArithmeticError(f"LP solver failed: program is {sol.status.value}")
        width, height = program.columns.shape
        held = len(self._columns)
        flows = _met_flows(
            program, sol.x, sol.x[program.first_tunnel_var:],
            np.concatenate((self._commodity, pool._commodity[new])),
        )
        added = CsrMatrix(ptr, rows, values, (len(new), height))
        # The demand rows come after the edge rows: their sums are cut off.
        load = flows[:width] @ program.columns + flows[held:] @ added
        if held > width:
            if self._kept is None:
                self._kept = CsrMatrix(
                    *pool._lu_columns(self._columns[width:]), (held - width, height)
                )
            load += flows[width:held] @ self._kept
        network, theta = program.network, sol.objective_value
        _check_theta(load[:network.edge_count] / network.float_capacities, theta)
        if self._best is None or theta < self._best[0]:
            self._best = (theta, node, new, (ptr, rows, values), sol, elapsed_ms)
        return theta

    def join(self, node: int) -> TeSolution:
        """The solution of the set plus ``node``, whose ranking solve
        (``theta``) was the one of least theta since the set last changed,
        decoded and checked as ``solve`` decodes one, certificate included;
        then the set plus ``node`` is the model's set, its columns added for
        good at the optimal basis that solve returned. Any other node, or a
        point failing a check, raises ``ArithmeticError`` and leaves the
        model as it was."""
        if self._best is None or self._best[1] != node:
            raise ArithmeticError(f"node {node} was not ranked least")
        _, _, new, arrays, sol, elapsed_ms = self._best
        middlepoints = (*self.middlepoints, node)
        columns = np.concatenate((self._columns, new))
        solution = self._solution(middlepoints, columns, sol, elapsed_ms)
        self._model.add(*arrays, sol.basis)
        self._grown(middlepoints, columns)
        return solution

    def solve(self, middlepoints: Iterable[int]) -> TeSolution:
        """The solution of a covered superset of the model's set, which
        becomes its set: the columns it brings are kept. The point is mapped
        into the set's program column order, then decoded and checked as
        ``solve_te`` does, certificate included. It keeps no basis: the
        model's is in the model's column order. A solve without an optimum
        or a point failing a check raises ``ArithmeticError``, and the model
        is not solved again."""
        new = self._added(middlepoints)
        start = time.perf_counter()
        sol = self._model.extend(*self._pool._lu_columns(new))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._grown(middlepoints, np.concatenate((self._columns, new)))
        if sol.status is not LpStatus.OPTIMAL:
            raise ArithmeticError(f"LP solver failed: program is {sol.status.value}")
        return self._solution(self.middlepoints, self._columns, sol, elapsed_ms)

    def _solution(
        self, middlepoints: Iterable[int], columns: np.ndarray, sol: LpSolution,
        elapsed_ms: float,
    ) -> TeSolution:
        """An optimal solution over theta and the given pool columns, in
        that order, mapped into the program column order of the set, then
        decoded and checked as ``solve_te`` does."""
        pool = self._pool
        keep = pool._columns(middlepoints)
        # Each pool column's position in the model, theta being first.
        position = np.empty(len(pool._commodity), dtype=np.intp)
        position[columns] = np.arange(1, len(columns) + 1)
        x = sol.x[np.concatenate(([0], position[keep]))]
        return _decoded(
            pool._slice(keep, LU), replace(sol, x=x, basis=None), elapsed_ms
        )


def extension_bounds(
    pool: TunnelPool, middlepoints: Sequence[int], nodes: Sequence[int],
    duals: np.ndarray,
) -> np.ndarray:
    """The dual bound of the LU theta of each set ``middlepoints`` + [v], v
    in ``nodes`` (nodes outside the set, every such set covered), at the row
    duals of an LU program on the pool's network.

    Each set's bound is the demand-weighted sum, over the positive demands,
    of each commodity's least cost among the set's columns: those of
    ``middlepoints`` or of the node's own. All come from one pass over the
    pool's arrays: each column's cost, then the least cost of each
    (node, commodity) pair over the set's ``Extensions``, whose groups a
    round's model reads its candidates' columns from.
    """
    network = pool.cache.network
    volume = pool.demands.volumes
    positive = volume > 0
    # Weighted 0 in the demand rows, each column's last entry, whose -0.0
    # leaves its cost as it was.
    weights = np.concatenate(
        (dual_weights(network, duals), np.zeros(np.count_nonzero(positive)))
    )
    costs = CsrMatrix(
        pool._ptr, pool._rows, pool._values, (len(pool._commodity), len(weights))
    ) @ weights
    extensions = pool._extensions(middlepoints)
    own, columns = extensions.own, extensions.columns
    commodities = len(volume)
    least = _least(costs[own], pool._commodity[own], commodities)
    # Each node's columns come by commodity: the keys ascend.
    keys = extensions.nodes * commodities + pool._commodity[columns]
    cheapest = _least(
        costs[columns], keys, network.node_count * commodities
    ).reshape(network.node_count, commodities)[list(nodes)]
    return np.minimum(cheapest, least)[:, positive] @ volume[positive]


def _padded(seqs: Sequence[tuple[int, ...]], pad: int, width: int) -> np.ndarray:
    """The sequences as rows of ``width`` columns, padded with ``pad``."""
    rows = [(*seq, *(pad,) * (width - len(seq))) for seq in seqs]
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def _appended(array: np.ndarray, rows: Sequence) -> np.ndarray:
    """``array`` with ``rows`` appended, in its dtype."""
    rows = np.asarray(rows, dtype=array.dtype).reshape(len(rows), *array.shape[1:])
    return np.concatenate((array, rows))


def _positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """starts[0]:starts[0] + sizes[0], then the next run, and so on, as one
    array."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _ends(demands: DemandMatrix) -> np.ndarray:
    """Each commodity's source (row 0) and sink (row 1)."""
    return np.array(
        [(c.source, c.sink) for c in demands.commodities], dtype=np.intp
    ).reshape(-1, 2).T


def _segments(
    n: int, ends: np.ndarray, commodity: np.ndarray, middlepoints: np.ndarray
) -> np.ndarray:
    """The segments of the tunnels of ``commodity`` through ``middlepoints``
    (padded with n; the two broadcast), as flat ids u * n + v, each
    tunnel's padded with its sink's (t, t), whose row has no entries and
    sigma 1."""
    sources, sinks = ends[0][commodity, None], ends[1][commodity, None]
    mids = np.where(middlepoints == n, sinks, middlepoints)
    shape = (*mids.shape[:-1], 1)
    waypoints = np.concatenate((
        np.broadcast_to(sources, shape), mids, np.broadcast_to(sinks, shape),
    ), axis=-1)
    return waypoints[..., :-1] * n + waypoints[..., 1:]


def _routable(
    cache: ShortestPathCache, ends: np.ndarray, sequences: np.ndarray
) -> np.ndarray:
    """Which (commodity, sequence) pairs have a tunnel, commodities x
    sequences: those whose sequence (padded with node_count) avoids the
    commodity's endpoints and whose segments are all reachable (a nonzero
    path count in ``pairs``). ``ends`` holds each commodity's source and
    sink."""
    commodity = np.arange(ends.shape[1])[:, None]
    sources, sinks = ends[0][commodity, None], ends[1][commodity, None]
    segments = _segments(cache.network.node_count, ends, commodity, sequences)
    return (
        ~((sequences == sources) | (sequences == sinks)).any(axis=2)
        & (cache.pairs[1].ravel()[segments] != 0).all(axis=2)
    )


def _tunnel_columns(
    cache: ShortestPathCache, ends: np.ndarray, commodity: np.ndarray,
    middlepoints: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The load columns of the tunnels of ``commodity`` through
    ``middlepoints`` (tunnels x width, padded with node_count): each
    column's entry count, then the edge row and load of every entry, column
    after column. ``ends`` holds each commodity's source and sink.

    A column lists its tunnel's edges in order of first use. Each load
    equals float(exact load): a segment's own correctly rounded count /
    sigma where one segment uses the edge, and otherwise the exact sum over
    the segments as one integer numerator over the LCM of their sigmas,
    divided once (summing per-segment floats could be an ulp off). A
    segment whose end is unreachable from its start raises
    ``UnreachableSegment``. The rows of the distinct segments come from one
    ``segment_rows`` call.
    """
    n = cache.network.node_count
    width = middlepoints.shape[1]
    segments = _segments(n, ends, commodity, middlepoints)  # tunnels x (width + 1)
    reach = cache.pairs[1].ravel()[segments] != 0
    if not reach.all():
        raise UnreachableSegment(*divmod(int(segments[~reach][0]), n))
    ids, row = np.unique(segments, return_inverse=True)
    row = row.reshape(segments.shape)  # each segment's row in ``rows``
    rows = segment_rows(cache, ids)
    flat = row.ravel()
    segment_sizes = rows.sizes[flat]
    positions = _positions(rows.starts[flat], segment_sizes)
    sizes = segment_sizes.reshape(segments.shape).sum(axis=1)
    edge_rows, loads = rows.edges[positions], rows.loads[positions]

    # The tunnels two of whose segments share an edge.
    masks = rows.masks[row]
    seen, shared = masks[:, 0], np.zeros(len(segments), dtype=bool)
    for k in range(1, width + 1):
        shared |= (seen & masks[:, k]).any(axis=1)
        seen = seen | masks[:, k]
    if not shared.any():
        return sizes, edge_rows, loads
    # Their loads: an integer numerator over the LCM of their sigmas per
    # edge, in order of first use. Each term is at most the LCM, and there
    # are at most width + 1 per edge: while the LCMs are int64, every sum is
    # below 2^53 and float64 divides it correctly rounded; Python ints do so
    # at any size.
    sigma = rows.sigma[row[shared]]
    lcm = _row_lcms(sigma, (FLOAT_EXACT - 1) // (width + 1))
    # Their entries, tunnel by tunnel: position, tunnel, numerator.
    picked = _positions((np.cumsum(sizes) - sizes)[shared], sizes[shared])
    tunnel = np.repeat(np.arange(len(lcm)), sizes[shared])
    numerators = rows.counts[positions[picked]] * np.repeat(
        (lcm[:, None] // sigma).ravel(),
        segment_sizes.reshape(segments.shape)[shared].ravel(),
    )
    edges = edge_rows[picked]
    order = np.argsort(tunnel * (int(edges.max()) + 1) + edges, kind="stable")
    tunnel, edges = tunnel[order], edges[order]
    starts = np.flatnonzero(np.diff(tunnel, prepend=-1) | np.diff(edges, prepend=-1))
    sums = np.add.reduceat(numerators[order], starts)
    first = picked[order[starts]]  # each (tunnel, edge)'s first entry
    loads[first] = np.asarray(sums / lcm[tunnel[starts]], dtype=float)
    keep = np.ones(len(edge_rows), dtype=bool)
    keep[picked] = False
    keep[first] = True
    sizes[shared] = np.bincount(tunnel[starts], minlength=len(lcm))
    return sizes, edge_rows[keep], loads[keep]


def _row_lcms(values: np.ndarray, limit: int) -> np.ndarray:
    """The LCM of each row of positive integers: int64 for int64 rows whose
    every LCM is at most ``limit`` (below 2^63), and Python ints
    (``dtype=object``) otherwise."""
    lcm = values[:, 0]
    for k in range(1, values.shape[1]):
        step = values[:, k] // np.gcd(lcm, values[:, k])
        if lcm.dtype != object and (lcm > limit // step).any():
            lcm = lcm.astype(object)
        lcm = lcm * step
    return lcm


def _met_flows(
    program: TeProgram,
    x: np.ndarray,
    flows: np.ndarray,
    commodity: Optional[np.ndarray],
) -> np.ndarray:
    """The flow variables of an LU solution, checked against the demands;
    ``commodity`` holds each tunnel flow's commodity (None in MP).

    LU demand rows are >=, so a commodity may get more flow than it demands
    where the extra binds no edge at theta; its tunnel flows are scaled down
    to the demand, so the utilizations are those of the routing the split
    ratios describe. HiGHS's absolute tolerance lets a tiny demand go
    unserved, so a positive demand delivered less than (1 - UTILIZATION_TOL)
    of it raises ArithmeticError.
    """
    commodities = program.demands.commodities
    volume = program.demands.volumes
    if commodity is None:
        # MP: the = rows with a right side are the positive demands' source
        # balances, commodity by commodity.
        delivered = np.zeros(len(volume))
        lp = program.lp
        delivered[volume > 0] = (lp.a_eq @ x)[lp.b_eq != 0]
    else:
        delivered = np.bincount(commodity, flows, minlength=len(volume))
        over = delivered > volume * (1 + UTILIZATION_TOL)
        if over.any():
            scale = np.ones(len(volume))
            scale[over] = volume[over] / delivered[over]
            flows = flows * scale[commodity]
    short = np.flatnonzero(delivered < volume * (1 - UTILIZATION_TOL))
    if short.size:
        c, names = commodities[short[0]], program.network.node_names
        raise ArithmeticError(
            f"demand {names[c.source]} -> {names[c.sink]} of {c.demand:.9g} "
            f"is delivered only {delivered[short[0]]:.9g}"
        )
    return flows


def _check_theta(utilization: np.ndarray, theta: float) -> None:
    """Theta is the largest utilization, within UTILIZATION_TOL."""
    max_util = max(utilization.tolist(), default=0.0)
    if abs(max_util - theta) > UTILIZATION_TOL * max(1.0, theta):
        raise ArithmeticError(
            f"utilization reconstruction mismatch: {max_util} vs {theta}"
        )


def dual_weights(network: FlowNetwork, duals: np.ndarray) -> np.ndarray:
    """The edge weights of a dual solution of every LU program on the
    network, from an LU program's row duals y (the edge rows first): w =
    max(0, -y), scaled down so that c·w <= 1. With each commodity's price
    its least tunnel cost load·w (in MP, its least path cost), w is dual
    feasible whatever the tunnels."""
    weights = np.maximum(0.0, -duals[:network.edge_count])
    total = float(network.float_capacities @ weights)
    return weights / total if total > 1.0 else weights


def _least(costs: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """The least cost of each key in range(size), inf for a key that no
    column has, given each column's cost and its key, keys ascending."""
    least = np.full(size, np.inf)
    if len(keys):
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        least[keys[starts]] = np.minimum.reduceat(costs, starts)
    return least


def _path_costs(
    network: FlowNetwork, demands: DemandMatrix, weights: np.ndarray
) -> np.ndarray:
    """Each commodity's least path cost under the edge weights (inf if its
    sink is unreachable)."""
    # Imported here: only MP runs load scipy.sparse, which takes longer than
    # all of srte's other imports.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = network.node_count
    tails = np.array([e.tail for e in network.edges], dtype=np.intp)
    heads = np.array([e.head for e in network.edges], dtype=np.intp)
    # Built from COO arrays, the matrix keeps its explicit zero weights,
    # which csgraph reads as edges of cost 0 (no edge is parallel).
    graph = csr_matrix((weights, (tails, heads)), shape=(n, n))
    sources = np.array([c.source for c in demands.commodities], dtype=np.intp)
    sinks = np.array([c.sink for c in demands.commodities], dtype=np.intp)
    starts, row = np.unique(sources, return_inverse=True)
    return dijkstra(graph, indices=starts)[row, sinks]


def _certify(program: TeProgram, duals: np.ndarray, theta: float) -> None:
    """Theta of an LU program is within BOUND_TOL of the dual bound at its
    own row duals, which is at most its optimum: each commodity's least
    tunnel cost (its LU column priced at 0 on the demand rows) or, in MP,
    least path cost, weighted by its demand. HiGHS stops once the reduced
    costs are within an absolute tolerance, which lets a program with tiny
    duals (capacities in a large unit) stop far from its optimum at a
    feasible point the other checks accept."""
    volume = program.demands.volumes
    weights = dual_weights(program.network, duals)
    if program.commodity is None:  # MP
        least = _path_costs(program.network, program.demands, weights)
    else:
        priced = np.zeros(program.columns.shape[1])
        priced[:len(weights)] = weights
        # Priced through a new holder of the columns' arrays, so the entry
        # rows the product caches are not kept with the program.
        least = _least(replace(program.columns) @ priced, program.commodity, len(volume))
    positive = volume > 0
    bound = float(volume[positive] @ least[positive])
    if theta - bound > BOUND_TOL * max(1.0, theta):
        raise ArithmeticError(
            f"LP solver failed: theta {theta:.9g} is not optimal, its row "
            f"duals bound the optimum below by {bound:.9g}"
        )


def solve_te(program: TeProgram) -> TeSolution:
    """Solve a TE program cold and decode it (``_decoded``)."""
    start = time.perf_counter()
    sol = solve_lp(program.lp)
    return _decoded(program, sol, (time.perf_counter() - start) * 1000.0)


def _decoded(program: TeProgram, sol: LpSolution, solve_ms: float) -> TeSolution:
    """A solution of the program, whose point is in the program's column
    order, decoded into utilizations with theta checked against them; an LU
    theta is also certified by the row duals. An optimal solution keeps its
    program, basis and duals."""
    result = TeSolution(
        program.kind, sol.status, solve_ms=solve_ms, basis=sol.basis,
        duals=sol.duals,
    )
    if sol.status is not LpStatus.OPTIMAL:
        return result

    flows = sol.x[program.first_tunnel_var:]
    if program.kind == LU:
        flows = _met_flows(program, sol.x, flows, program.commodity)
    result.program, result.flows = program, flows
    # Each edge's load summed in tunnel order; the demand rows' are cut off.
    network = program.network
    load = (flows @ program.columns)[:network.edge_count]
    result.utilization = load / network.float_capacities

    if program.kind == LU:
        result.theta = sol.objective_value
        _check_theta(result.utilization, result.theta)
        _certify(program, sol.duals, result.theta)
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
    # Each edge's tail, then its head, edge by edge.
    ends = np.array([(e.tail, e.head) for e in network.edges], dtype=np.intp).ravel()
    sources = np.array([c.source for c in demands.commodities], dtype=np.intp)
    sinks = np.array([c.sink for c in demands.commodities], dtype=np.intp)
    volume = demands.volumes
    capacities = network.float_capacities
    index = np.arange(count)
    block = first + width * index  # commodity i's flow on edge e: block[i] + e
    flow_cols = (block[:, None] + np.arange(edge_count)).ravel()
    flow_edges = np.tile(np.arange(edge_count), count)
    ones = np.ones(len(flow_cols))
    flows = (flow_edges, flow_cols, ones)

    # Balance rows, commodity-major: out-flow minus in-flow at each kept node.
    # Listed edge by edge, each row's columns ascend.
    keep = np.tile(np.bincount(ends, minlength=n) > 0, (count, 1))
    keep[index, sources] = True
    keep[index, sinks] = False
    row_of = (np.cumsum(keep) - 1).reshape(count, n)
    commodity, end = np.nonzero(keep[:, ends])  # ends[end] is a kept node
    eq = [(row_of[commodity, ends[end]], block[commodity] + end // 2,
           np.where(end % 2, -1.0, 1.0))]
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
        _row_major(ub, (len(b_ub), variables)), b_ub,
        _row_major(eq, (len(b_eq), variables)), b_eq,
    )
    columns = CsrMatrix(
        _indptr(flow_cols - first, variables - first), flow_edges.astype(np.int32),
        ones, (variables - first, edge_count),
    )
    program = TeProgram(kind, network, demands, first, columns)
    program.lp = lp  # the arc-flow LP: not assembled from the columns
    return program
