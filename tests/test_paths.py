"""Exact shortest-path DAGs, counting, and ECMP segment fractions."""

from fractions import Fraction

import pytest

from srte.graph import random_digraph
from srte.paths import (
    ShortestPathCache,
    UnreachableSegment,
    segment_fractions,
    sp_dag,
    sp_dag_reverse,
)

from conftest import enumerate_shortest_paths, floyd_warshall_counting, make_net


def dist(net, dag, v):
    """The exact distance of v in the DAG, or None when v is unreachable."""
    scaled = dag.scaled_dist[v]
    return None if scaled is None else Fraction(scaled, net.cost_scale)


@pytest.mark.parametrize("seed", range(6))
def test_dag_matches_enumeration_oracle(seed):
    """Distances and counts equal exhaustive simple-path enumeration (10 nodes)."""
    net = random_digraph(10, 0.25, seed)
    for s in range(net.node_count):
        dag = sp_dag(net, s)
        for t in range(net.node_count):
            if t == s:
                continue
            best, paths = enumerate_shortest_paths(net, s, t)
            if best is None:
                assert dist(net, dag, t) is None
                assert dag.sigma[t] == 0
            else:
                assert dist(net, dag, t) == best
                assert dag.sigma[t] == len(paths)


@pytest.mark.parametrize("seed", range(4))
def test_reverse_dag_agrees_with_forward(seed):
    net = random_digraph(9, 0.3, seed)
    for v in range(net.node_count):
        bwd = sp_dag_reverse(net, v)
        for u in range(net.node_count):
            fwd = sp_dag(net, u)
            assert dist(net, bwd, u) == dist(net, fwd, v)
            assert bwd.sigma[u] == fwd.sigma[v]


@pytest.mark.parametrize("seed", range(4))
def test_order_is_distance_then_index(seed):
    """The stored settle order equals sorting reachable nodes by (dist, index)."""
    net = random_digraph(10, 0.2, seed, max_capacity=3).inverse_capacity_costs()
    for v in range(net.node_count):
        for dag in (sp_dag(net, v), sp_dag_reverse(net, v)):
            reach = [u for u in range(net.node_count) if dist(net, dag, u) is not None]
            assert dag.order() == sorted(reach, key=lambda u: (dist(net, dag, u), u))


def test_source_properties():
    net = make_net([(0, 1, 1), (1, 2, 1)])
    dag = sp_dag(net, 0)
    assert dist(net, dag, 0) == 0
    assert dag.sigma[0] == 1


def test_fractional_cost_tie_detection():
    """1/3 + 1/6 ties 1/2 exactly -- rational arithmetic, no epsilon."""
    net = make_net(
        [
            (0, 1, 1, "1/3"),
            (1, 2, 1, "1/6"),
            (0, 2, 1, "1/2"),
        ]
    )
    dag = sp_dag(net, 0)
    assert dist(net, dag, 2) == Fraction(1, 2)
    assert dag.sigma[2] == 2


@pytest.mark.parametrize("seed", range(5))
def test_segment_fractions_match_path_enumeration(seed):
    """fraction(e) equals (shortest paths using e) / sigma, by enumeration."""
    net = random_digraph(8, 0.3, seed)
    edge_id = {(e.tail, e.head): i for i, e in enumerate(net.edges)}
    for u in range(net.node_count):
        for v in range(net.node_count):
            if u == v:
                continue
            best, paths = enumerate_shortest_paths(net, u, v)
            if best is None:
                with pytest.raises(UnreachableSegment):
                    segment_fractions(net, u, v)
                continue
            expected = {}
            for p in paths:
                for a, b in zip(p, p[1:]):
                    eid = edge_id[(a, b)]
                    expected[eid] = expected.get(eid, 0) + 1
            sigma = len(paths)
            got = segment_fractions(net, u, v).fractions
            assert got == {
                eid: Fraction(cnt, sigma) for eid, cnt in expected.items()
            }


def test_fractions_conserve_unit_flow():
    """Net outflow at the segment source is exactly 1 (ECMP conservation)."""
    net = random_digraph(8, 0.35, 11)
    for u in range(net.node_count):
        for v in range(net.node_count):
            if u == v or sp_dag(net, u).scaled_dist[v] is None:
                continue
            fr = segment_fractions(net, u, v).fractions
            out = sum(
                f for eid, f in fr.items() if net.edges[eid].tail == u
            )
            inc = sum(
                f for eid, f in fr.items() if net.edges[eid].head == u
            )
            assert out - inc == 1
            assert all(0 < f <= 1 for f in fr.values())


def test_segment_endpoints_must_differ():
    net = make_net([(0, 1, 1)])
    with pytest.raises(ValueError):
        segment_fractions(net, 0, 0)


def test_cache_consistency_and_reuse():
    net = random_digraph(7, 0.4, 3)
    cache = ShortestPathCache(net)
    assert cache.forward(0) is cache.forward(0)
    for u in range(net.node_count):
        for v in range(net.node_count):
            if u == v:
                continue
            assert cache.reachable(u, v) == (sp_dag(net, u).scaled_dist[v] is not None)
            if cache.reachable(u, v):
                assert cache.fractions(u, v).fractions == segment_fractions(
                    net, u, v
                ).fractions


@pytest.mark.parametrize("seed", range(3))
def test_scaled_distances_and_segment_loads(seed):
    """scaled_dist is the exact distance times the network's cost scale, an
    int; each segment's float loads are its exact fractions, correctly
    rounded."""
    base = random_digraph(8, 0.35, seed)
    net = base.with_costs(
        [Fraction(1 + i % 4, 1 + i % 3) for i in range(base.edge_count)]
    )
    assert net.cost_scale == 6
    assert all(
        Fraction(c, net.cost_scale) == e.cost
        for c, e in zip(net.scaled_costs, net.edges)
    )
    exact, _ = floyd_warshall_counting(net)
    cache = ShortestPathCache(net)
    for u in range(net.node_count):
        dag = cache.forward(u)
        for v, scaled in enumerate(dag.scaled_dist):
            assert isinstance(scaled, int) or scaled is None
            assert dist(net, dag, v) == exact[u, v]
        for v in range(net.node_count):
            if u == v or not cache.reachable(u, v):
                continue
            seg = cache.fractions(u, v)
            assert seg.sigma == dag.sigma[v]
            assert list(seg.loads) == [float(f) for f in seg.fractions.values()]
