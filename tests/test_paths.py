"""Exact shortest-path DAGs, counting, and ECMP segment fractions."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from srte.graph import parse_topology, random_digraph
from srte.paths import (
    DIST_LIMIT,
    ShortestPathCache,
    UnreachableSegment,
    segment_fractions,
    segment_rows,
    sp_dag,
    sp_dag_reverse,
)

from conftest import (
    diamond_chain,
    enumerate_shortest_paths,
    floyd_warshall_counting,
    make_net,
)

DATA = Path(__file__).parent / "data"


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
            reachable = sp_dag(net, u).scaled_dist[v] is not None
            assert (cache.pairs[1][u, v] != 0) == reachable
            if reachable:
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
            if u == v or dag.scaled_dist[v] is None:
                continue
            seg = cache.fractions(u, v)
            assert seg.sigma == dag.sigma[v]
            assert list(seg.loads) == [float(f) for f in seg.fractions.values()]


def matrix_networks():
    """The desk network, the oracle tests' small networks, random digraphs
    that are not strongly connected, and rational costs with ECMP ties."""
    yield parse_topology((DATA / "net10.topo").read_text())
    yield make_net([(0, 2, 3), (0, 1, 2), (1, 2, 2)])
    yield make_net([(0, 1, 2), (1, 2, 1)])
    yield make_net([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (3, 0, 1)])
    for seed in range(4):
        yield random_digraph(9, 0.25, seed, max_capacity=3)
        base = random_digraph(8, 0.35, seed)
        yield base.with_costs(
            [Fraction(1 + i % 4, 1 + i % 3) for i in range(base.edge_count)]
        )


@pytest.mark.parametrize("net", list(matrix_networks()))
def test_segment_matrix_rows_equal_segment_fractions(net):
    """Every segment's row from ``segment_rows`` is segment_fractions of the
    segment: the same edges in the same order, the same counts and sigma,
    and the same load bits; a row (u, u) or an unreachable segment's is
    empty. The all-pairs distances and path counts are those of the DAGs."""
    assert_rows_are_segment_fractions(net)


def every_segment(n, sources=None):
    """The flat ids u * n + v of every segment from the sources (every node
    by default), ascending."""
    sources = range(n) if sources is None else sorted(sources)
    return np.array([u * n + v for u in sources for v in range(n)], dtype=np.int64)


def assert_rows_are_segment_fractions(net, sources=None):
    """The rows of every segment from the given sources (every node by
    default) are those of segment_fractions; an unreachable node's distance
    is beyond every distance, and at least DIST_LIMIT. Returns the rows."""
    cache = ShortestPathCache(net)
    n = net.node_count
    segments = every_segment(n, sources)
    rows = segment_rows(cache, segments)
    dist, sigma = cache.pairs
    far = max(DIST_LIMIT, 1 + max(
        d for u in range(n) for d in cache.forward(u).scaled_dist if d is not None
    ))
    checked = 0
    for row, segment in enumerate(segments.tolist()):
        u, v = divmod(segment, n)
        dag = cache.forward(u)
        want = dag.scaled_dist[v]
        assert dist[u, v] == (far if want is None else want)
        assert sigma[u, v] == rows.sigma[row] == dag.sigma[v]
        start, size = rows.starts[row], rows.sizes[row]
        entries = slice(start, start + size)
        if u == v or want is None:
            assert size == 0 and not rows.masks[row].any()
            continue
        seg = segment_fractions(net, u, v)
        assert rows.edges[entries].tolist() == list(seg.counts)
        assert rows.counts[entries].tolist() == list(seg.counts.values())
        assert rows.sigma[row] == seg.sigma
        assert rows.loads[entries].view(np.int64).tolist() == np.array(
            seg.loads
        ).view(np.int64).tolist()
        bits = np.unpackbits(rows.masks[row], count=net.edge_count)
        assert np.flatnonzero(bits).tolist() == sorted(seg.counts)
        checked += 1
    # The reachable rows: those checked, and each source's own (u, u).
    assert checked and np.count_nonzero(rows.sigma) == checked + len(segments) // n
    assert rows.starts.tolist() == (np.cumsum(rows.sizes) - rows.sizes).tolist()
    return rows


def assert_same_rows(got, want, picked):
    """``got`` holds the rows ``picked`` of ``want``, in order: the same
    sigma, entries (load bits included) and masks, dtypes too."""
    assert got.sigma.dtype == want.sigma.dtype and got.counts.dtype == want.counts.dtype
    assert got.sigma.tolist() == want.sigma[picked].tolist()
    assert got.sizes.tolist() == want.sizes[picked].tolist()
    assert np.array_equal(got.masks, want.masks[picked])
    for r, w in enumerate(picked):
        mine = slice(got.starts[r], got.starts[r] + got.sizes[r])
        theirs = slice(want.starts[w], want.starts[w] + want.sizes[w])
        assert got.edges[mine].tolist() == want.edges[theirs].tolist()
        assert got.counts[mine].tolist() == want.counts[theirs].tolist()
        assert got.loads[mine].tobytes() == want.loads[theirs].tobytes()


def test_segment_rows_of_any_ascending_subset_are_the_full_rows():
    """The rows of any ascending subset of the segments are those rows of
    every segment's: a row depends on its segment only, whatever else is
    asked for in the same call, the empty subset and a single diagonal pad
    included."""
    rng = np.random.default_rng(7)
    for net in (
        random_digraph(8, 0.35, 5),
        random_digraph(9, 0.25, 2, max_capacity=3),
        parse_topology((DATA / "net10.topo").read_text()),
    ):
        cache = ShortestPathCache(net)
        n = net.node_count
        full = segment_rows(cache, np.arange(n * n, dtype=np.int64))
        subsets = [[], [0], [n * n - 1], [3 * n + 3], list(range(2 * n, 3 * n))]
        subsets += [
            np.flatnonzero(rng.random(n * n) < p).tolist() for p in (0.05, 0.3, 0.8)
        ]
        for subset in subsets:
            picked = np.array(subset, dtype=np.int64)
            assert_same_rows(segment_rows(cache, picked), full, picked)


def test_pairs_are_read_only_and_the_matrix_shares_them():
    """The all-pairs arrays are read-only, and segment rows read them: each
    row's sigma is its path count there, and no backward DAG is built."""
    cache = ShortestPathCache(random_digraph(8, 0.35, 5))
    dist, sigma = cache.pairs
    assert not dist.flags.writeable and not sigma.flags.writeable
    segments = every_segment(8)
    assert segment_rows(cache, segments).sigma.tolist() == sigma.ravel().tolist()
    assert cache.pairs[0] is dist and cache.pairs[1] is sigma
    assert not cache._backward


def test_pairs_refuse_what_int64_cannot_hold():
    """Path counts below 2^63 and distances below 2^61 fit int64; 2^63
    paths, or a distance of 2^61, are held as Python ints."""
    def dtypes(net):
        return tuple(array.dtype for array in ShortestPathCache(net).pairs)

    int64, wide = np.dtype(np.int64), np.dtype(object)
    assert dtypes(diamond_chain(62)) == (int64, int64)
    assert dtypes(diamond_chain(63)) == (int64, wide)
    assert ShortestPathCache(diamond_chain(63)).pairs[1][0, 3 * 63] == 2**63
    assert dtypes(make_net([(0, 1, 1, 2**61 - 1)])) == (int64, int64)
    assert dtypes(make_net([(0, 1, 1, 2**61)])) == (wide, int64)


def test_segment_matrix_refuses_what_int64_cannot_hold():
    """A row's path count of 2^53 or more makes the kernel hold the rows'
    path counts as Python ints, and a scaled cost of 2^61 or more makes it
    test distances on them, and its rows are still segment_fractions."""
    from srte.paths import FLOAT_EXACT

    # 53 diamonds in a chain: 2^53 shortest paths end to end.
    edges = []
    for i in range(53):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b, 1), (a, c, 1), (b, a + 3, 1), (c, a + 3, 1)]
    net = make_net(edges)
    cache = ShortestPathCache(net)
    n = net.node_count
    assert cache.forward(0).sigma[3 * 53] == FLOAT_EXACT
    assert cache.pairs[1].dtype == np.int64
    rows = assert_rows_are_segment_fractions(net, sources=[0, 1, 3 * 26, 3 * 53 - 1])
    assert rows.sigma.dtype == rows.counts.dtype == object
    # The dtype is chosen from the rows asked for: (0, 3) has 2 paths.
    short = segment_rows(cache, np.array([3]))
    assert short.sigma.dtype == short.counts.dtype == np.int64
    assert segment_rows(cache, every_segment(n, [1])).sigma.dtype == np.int64
    rows = assert_rows_are_segment_fractions(make_net(edges[4:]))
    assert rows.sigma.dtype == np.int64
    far = make_net([(0, 1, 1, Fraction(1, 3)), (1, 2, 1, 2**61)])
    assert far.scaled_costs[1] >= DIST_LIMIT
    assert ShortestPathCache(far).pairs[0].dtype == object
    assert_rows_are_segment_fractions(far)
    # A cost past int64 on an edge no shortest path takes: the distances
    # fit, the sums with that cost do not.
    bypassed = make_net([(0, 2, 1), (2, 1, 1), (0, 1, 1, 2**70)])
    assert ShortestPathCache(bypassed).pairs[0].dtype == np.int64
    assert_rows_are_segment_fractions(bypassed).sigma.dtype == np.int64
    # 34 fans of three paths: no float holds 3^34, so dividing a count by
    # it in floats would be an ulp off 1/3.
    fans = []
    for i in range(34):
        a = 4 * i
        fans += [(a, a + j, 1) for j in (1, 2, 3)] + [(a + j, a + 4, 1) for j in (1, 2, 3)]
    assert float(3**33) / float(3**34) != 1 / 3
    rows = assert_rows_are_segment_fractions(make_net(fans), sources=[0])
    assert rows.sigma.dtype == object
