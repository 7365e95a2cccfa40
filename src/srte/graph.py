"""Directed capacitated networks: parsing, validation, and demand generation.

Topology and demand files are line oriented. ``#`` starts a comment, blank
lines are skipped, and fields are whitespace separated:

    EDGE <u> <v> <capacity> [<cost>]
    DEMAND <s> <t> <volume>

Capacities and costs are kept as exact rationals so that shortest-path tie
detection downstream never depends on floating point. Each network also holds
its costs as integers over one common denominator, for exact and fast
shortest-path arithmetic, and its capacities as floats, for the LPs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np


class TopologyError(ValueError):
    """Raised for malformed or invalid topology input."""


class DemandError(ValueError):
    """Raised for malformed or invalid demand input."""


class UnknownNodeError(ValueError):
    """Raised for a node name the network does not have."""


class SizeCapExceededError(Exception):
    """Instance exceeds the brute-force size caps of ``srte.oracles``; defined
    here so that the CLI catches it without importing the oracles, which
    load SciPy."""


@dataclass(frozen=True)
class Edge:
    """Directed edge with a positive capacity and a positive routing cost."""

    tail: int
    head: int
    capacity: Fraction
    cost: Fraction = Fraction(1)

    def __post_init__(self):
        if self.tail == self.head:
            raise TopologyError(f"self-loop at node index {self.tail}")
        if self.capacity <= 0:
            raise TopologyError(f"capacity must be positive, got {self.capacity}")
        if self.cost <= 0:
            raise TopologyError(f"cost must be positive, got {self.cost}")


@dataclass(frozen=True)
class FlowNetwork:
    """Immutable directed graph with per-edge capacity and routing cost.

    Node names are arbitrary tokens mapped to dense indices in first-appearance
    order. At most one directed edge per ordered node pair. ``scaled_costs``
    are the edge costs times ``cost_scale``, the LCM of their denominators;
    ``float_capacities`` is a read-only array of the capacities as floats.
    """

    node_names: tuple[str, ...]
    edges: tuple[Edge, ...]
    out_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    in_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    cost_scale: int = field(init=False, repr=False)
    scaled_costs: tuple[int, ...] = field(init=False, repr=False)
    float_capacities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.node_names)
        if len(set(self.node_names)) != n:
            raise TopologyError("duplicate node names")
        seen_pairs = set()
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for idx, e in enumerate(self.edges):
            if not (0 <= e.tail < n and 0 <= e.head < n):
                raise TopologyError(f"edge {idx} references node index out of range")
            pair = (e.tail, e.head)
            if pair in seen_pairs:
                raise TopologyError(
                    f"parallel edge {self.node_names[e.tail]} -> {self.node_names[e.head]}"
                )
            seen_pairs.add(pair)
            out[e.tail].append(idx)
            inc[e.head].append(idx)
        object.__setattr__(self, "out_edges", tuple(tuple(x) for x in out))
        object.__setattr__(self, "in_edges", tuple(tuple(x) for x in inc))
        scale = math.lcm(*(e.cost.denominator for e in self.edges))
        object.__setattr__(self, "cost_scale", scale)
        object.__setattr__(self, "scaled_costs", tuple(
            e.cost.numerator * (scale // e.cost.denominator) for e in self.edges
        ))
        capacities = np.array([float(e.capacity) for e in self.edges])
        capacities.setflags(write=False)
        object.__setattr__(self, "float_capacities", capacities)

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def node_index(self, name: str) -> int:
        try:
            return self.node_names.index(name)
        except ValueError:
            raise UnknownNodeError(f"unknown node name {name!r}") from None

    def with_costs(self, costs: Sequence[Fraction]) -> "FlowNetwork":
        """Copy of this network with edge costs replaced (same order)."""
        if len(costs) != len(self.edges):
            raise ValueError("cost list length mismatch")
        new_edges = tuple(
            Edge(e.tail, e.head, e.capacity, c) for e, c in zip(self.edges, costs)
        )
        return FlowNetwork(self.node_names, new_edges)

    def inverse_capacity_costs(self) -> "FlowNetwork":
        """View with each edge cost replaced by 1/capacity (weighted metrics)."""
        return self.with_costs([1 / e.capacity for e in self.edges])


@dataclass(frozen=True)
class Commodity:
    """A (source, sink, demand) triple over node indices."""

    source: int
    sink: int
    demand: float

    def __post_init__(self):
        if self.source == self.sink:
            raise DemandError("commodity source equals sink")
        if not math.isfinite(self.demand):
            raise DemandError(f"non-finite demand {self.demand}")
        if self.demand < 0:
            raise DemandError(f"negative demand {self.demand}")


@dataclass(frozen=True)
class DemandMatrix:
    """Merged commodities; duplicate (source, sink) pairs are not allowed.
    ``volumes`` is a read-only array of their demands."""

    commodities: tuple[Commodity, ...]
    volumes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = [(c.source, c.sink) for c in self.commodities]
        if len(set(pairs)) != len(pairs):
            raise DemandError("duplicate (source, sink) pair")
        volumes = np.array([c.demand for c in self.commodities], dtype=float)
        volumes.setflags(write=False)
        object.__setattr__(self, "volumes", volumes)

    def scaled(self, factor: float) -> "DemandMatrix":
        if not 0 < factor < math.inf:  # also rejects NaN
            raise DemandError(f"scale must be positive and finite, got {factor}")
        return DemandMatrix(
            tuple(
                Commodity(c.source, c.sink, c.demand * factor)
                for c in self.commodities
            )
        )

    def total_demand(self) -> float:
        return sum(c.demand for c in self.commodities)


@dataclass(frozen=True)
class ParsedDemands:
    """Name-based demand rows, merged but not yet bound to a network."""

    rows: tuple[tuple[str, str, float], ...]

    def bind(self, network: FlowNetwork) -> DemandMatrix:
        commodities = []
        for s, t, volume in self.rows:
            si = network.node_index(s)
            ti = network.node_index(t)
            commodities.append(Commodity(si, ti, volume))
        return DemandMatrix(tuple(commodities))


def _iter_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_positive(token: str, lineno: int, what: str) -> Fraction:
    """A positive rational whose float is neither 0 nor inf (LPs use floats)."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise TopologyError(f"line {lineno}: bad {what} {token!r}") from None
    if value <= 0:
        raise TopologyError(f"line {lineno}: {what} must be positive")
    try:
        in_range = 0 < float(value) < math.inf
    except OverflowError:
        in_range = False
    if not in_range:
        raise TopologyError(
            f"line {lineno}: {what} {token!r} is out of floating-point range"
        )
    return value


def parse_topology(text: str) -> FlowNetwork:
    """Parse a TOPOLOGY file into a validated FlowNetwork with at least one
    edge.

    Node indices are assigned in first-appearance order.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    # Each valid capacity or cost token's value: a topology repeats a few
    # numerals. A bad token is parsed, and refused, at each line it is on.
    values: dict[str, Fraction] = {}

    def positive(token: str, lineno: int, what: str) -> Fraction:
        if token not in values:
            values[token] = _parse_positive(token, lineno, what)
        return values[token]

    def intern(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    for lineno, fields in _iter_lines(text):
        if fields[0] != "EDGE":
            raise TopologyError(f"line {lineno}: expected EDGE, got {fields[0]!r}")
        if len(fields) not in (4, 5):
            raise TopologyError(f"line {lineno}: EDGE takes 3 or 4 fields")
        u, v = intern(fields[1]), intern(fields[2])
        if u == v:
            raise TopologyError(f"line {lineno}: self-loop on {fields[1]!r}")
        capacity = positive(fields[3], lineno, "capacity")
        cost = Fraction(1)
        if len(fields) == 5:
            cost = positive(fields[4], lineno, "cost")
        if (u, v) in seen_pairs:
            raise TopologyError(
                f"line {lineno}: duplicate edge {fields[1]} -> {fields[2]}"
            )
        seen_pairs.add((u, v))
        edges.append(Edge(u, v, capacity, cost))

    if not edges:
        raise TopologyError("topology has no edges")
    return FlowNetwork(tuple(names), tuple(edges))


def serialize_topology(network: FlowNetwork) -> str:
    """Serialize a network so that re-parsing yields an identical network."""
    lines = []
    for e in network.edges:
        lines.append(
            f"EDGE {network.node_names[e.tail]} {network.node_names[e.head]} "
            f"{e.capacity} {e.cost}"
        )
    return "\n".join(lines) + "\n"


def parse_demands(text: str) -> ParsedDemands:
    """Parse a DEMANDS file; duplicate (s, t) rows are summed."""
    merged: dict[tuple[str, str], float] = {}
    order: list[tuple[str, str]] = []
    for lineno, fields in _iter_lines(text):
        if fields[0] != "DEMAND":
            raise DemandError(f"line {lineno}: expected DEMAND, got {fields[0]!r}")
        if len(fields) != 4:
            raise DemandError(f"line {lineno}: DEMAND takes 3 fields")
        s, t = fields[1], fields[2]
        try:
            volume = float(fields[3])
        except ValueError:
            raise DemandError(f"line {lineno}: bad volume {fields[3]!r}") from None
        if not math.isfinite(volume):
            raise DemandError(f"line {lineno}: non-finite volume {fields[3]!r}")
        if volume < 0:
            raise DemandError(f"line {lineno}: negative demand")
        if s == t:
            raise DemandError(f"line {lineno}: demand source equals sink")
        key = (s, t)
        if key not in merged:
            merged[key] = 0.0
            order.append(key)
        merged[key] += volume
    rows = tuple((s, t, merged[(s, t)]) for s, t in order)
    return ParsedDemands(rows)


def generate_gravity_demands(
    network: FlowNetwork, flow_count: int, seed: int
) -> DemandMatrix:
    """Synthetic demands from a gravity model with i.i.d. exponential node masses.

    Each node gets mass m_v ~ Exp(1); the demand between a sampled pair (s, t)
    is m_s * m_t. ``flow_count`` distinct ordered pairs are sampled uniformly
    without replacement. Deterministic for a fixed seed.
    """
    n = network.node_count
    max_pairs = n * (n - 1)
    if not (0 < flow_count <= max_pairs):
        raise DemandError(
            f"flow_count must be in [1, {max_pairs}], got {flow_count}"
        )
    rng = random.Random(seed)
    masses = [rng.expovariate(1.0) for _ in range(n)]
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    chosen = sorted(rng.sample(pairs, flow_count))
    commodities = tuple(
        Commodity(s, t, masses[s] * masses[t]) for s, t in chosen
    )
    return DemandMatrix(commodities)


def random_digraph(
    node_count: int, edge_prob: float, seed: int, max_capacity: int = 10
) -> FlowNetwork:
    """Seeded Erdős–Rényi-style random digraph with integer capacities."""
    rng = random.Random(seed)
    names = tuple(f"n{i}" for i in range(node_count))
    edges = []
    for u in range(node_count):
        for v in range(node_count):
            if u != v and rng.random() < edge_prob:
                cap = Fraction(rng.randint(1, max_capacity))
                edges.append(Edge(u, v, cap))
    return FlowNetwork(names, tuple(edges))


def random_connected_digraph(
    node_count: int, edge_count: int, seed: int, max_capacity: int = 10
) -> FlowNetwork:
    """Seeded strongly connected random digraph with roughly ``edge_count`` edges.

    A random Hamiltonian cycle guarantees strong connectivity; the remaining
    edges are drawn uniformly over the unused ordered pairs.
    """
    if edge_count < node_count:
        raise ValueError("need at least node_count edges for a spanning cycle")
    rng = random.Random(seed)
    names = tuple(f"n{i}" for i in range(node_count))
    order = list(range(node_count))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % node_count]) for i in range(node_count)]
    used = set(pairs)
    candidates = [
        (u, v)
        for u in range(node_count)
        for v in range(node_count)
        if u != v and (u, v) not in used
    ]
    extra = min(edge_count - node_count, len(candidates))
    pairs.extend(sorted(rng.sample(candidates, extra)))
    edges = tuple(
        Edge(u, v, Fraction(rng.randint(1, max_capacity))) for u, v in pairs
    )
    return FlowNetwork(names, edges)
