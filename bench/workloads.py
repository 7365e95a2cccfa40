"""The benchmark's workloads and the instance files they run on.

Every instance is the criterion-8 tier of the srte test suite: a seeded
strongly connected digraph with 30 nodes, 120 edges and capacities 1..10,
plus 100 gravity demands. Instance j of workload seed s uses topology seed
``s * 1000 + j`` and demand seed ``s * 1000 + j + 500``, so every workload run
with the same seed shares its first instances with the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

NODES, EDGES, MAX_CAPACITY, DEMANDS = 30, 120, 10, 100


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    fmt: str  # "json" or "csv"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Seconds one instance's command list takes at the seed commit on a quiet
    # 2-CPU host; seconds / unit_s is a run's nominal instance count.
    unit_s: float


WORKLOADS = {
    w.name: w
    for w in (
        # Centrality-bound: the sweep re-runs greedy group betweenness for
        # every K (21 greedy rounds per instance); the LPs are tiny.
        Workload(
            "gsp-sweep",
            (Command("sweep-gsp-k1:6", (
                "sweep", "--method", "gsp", "--sweep-k", "1:6", "--m", "1"),
                "csv"),),
            2.5,
        ),
        # Many small LPs (up to 115 subproblems per instance), no centrality.
        Workload(
            "greedy-select",
            (Command("solve-greedy-k4", (
                "solve", "--method", "greedy", "--k", "4", "--m", "1"), "json"),),
            2.8,
        ),
        # One huge tunnel LP (78,500 columns), the arc-flow MP bound and an
        # MF solve: the te and lp layers used the opposite way to greedy.
        # Run on demand and by selftest.py; BENCHMARK.json leaves it out
        # because with two ~12 s instances a run its spread across seeds on a
        # shared 2-CPU host (IQR/median 0.23) sat at the 0.25 bound.
        Workload(
            "all-nodes-m2",
            (
                Command("solve-all-nodes-m2", (
                    "solve", "--method", "all-nodes", "--m", "2"), "json"),
                Command("solve-mp-baseline", (
                    "solve", "--method", "mp-baseline"), "json"),
                Command("solve-all-nodes-m1-mf", (
                    "solve", "--method", "all-nodes", "--m", "1",
                    "--objective", "mf"), "json"),
            ),
            11.0,
        ),
    )
}


def instance_count(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.unit_s))


def instance_seeds(seed: int, count: int) -> list[tuple[int, int]]:
    return [(seed * 1000 + j, seed * 1000 + j + 500) for j in range(count)]


def instance_key(topology_seed: int, demand_seed: int) -> str:
    return f"n{NODES}m{EDGES}c{MAX_CAPACITY}d{DEMANDS}-t{topology_seed}-d{demand_seed}"


def write_instances(
    directory: Path, seeds: list[tuple[int, int]]
) -> list[dict]:
    """Write one instance per (topology, demand) seed pair; return the manifest."""
    from srte.graph import (
        generate_gravity_demands,
        parse_demands,
        parse_topology,
        random_connected_digraph,
        serialize_topology,
    )

    manifest = []
    for topology_seed, demand_seed in seeds:
        net = random_connected_digraph(
            NODES, EDGES, topology_seed, max_capacity=MAX_CAPACITY
        )
        demands = generate_gravity_demands(net, DEMANDS, demand_seed)
        key = instance_key(topology_seed, demand_seed)
        topology = directory / f"{key}.topo"
        demand_file = directory / f"{key}.dem"
        topology_text = serialize_topology(net)
        # repr round-trips, so parse_demands reads back bit-identical floats.
        demand_text = "".join(
            f"DEMAND {net.node_names[c.source]} {net.node_names[c.sink]} "
            f"{c.demand!r}\n"
            for c in demands.commodities
        )
        parsed = parse_topology(topology_text)
        expected = [
            (net.node_names[c.source], net.node_names[c.sink], c.demand)
            for c in demands.commodities
        ]
        reread = [
            (parsed.node_names[c.source], parsed.node_names[c.sink], c.demand)
            for c in parse_demands(demand_text).bind(parsed).commodities
        ]
        if serialize_topology(parsed) != topology_text or reread != expected:
            raise RuntimeError(f"instance {key} does not survive a round trip")
        topology.write_text(topology_text)
        demand_file.write_text(demand_text)
        manifest.append(
            {"key": key, "topology": str(topology), "demands": str(demand_file)}
        )
    return manifest


def load_reference(path: Path | None) -> dict:
    if path is None or not path.exists():
        return {}
    return json.loads(path.read_text())
