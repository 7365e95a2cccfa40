"""Betweenness, group betweenness, and the selection helpers built on them."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from srte import centrality
from srte.centrality import (
    _PairKernel,
    betweenness,
    degree_centrality,
    greedy_group_scores,
    greedy_group_select,
    group_betweenness,
    random_select,
)
from srte.graph import FlowNetwork, random_connected_digraph, random_digraph
from srte.paths import ShortestPathCache

from conftest import (
    diamond_chain,
    enumerate_shortest_paths,
    floyd_warshall_counting,
    make_net,
    reference_betweenness,
    reference_greedy_group_scores,
    reference_pairs,
)


def betweenness_oracle(net):
    """All-pairs Floyd-Warshall-with-counting betweenness (independent route)."""
    n = net.node_count
    dist, count = floyd_warshall_counting(net)
    scores = [Fraction(0)] * n
    for s in range(n):
        for t in range(n):
            if s == t or count[(s, t)] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                dsv, dvt = dist[(s, v)], dist[(v, t)]
                if dsv is None or dvt is None:
                    continue
                if dsv + dvt == dist[(s, t)]:
                    scores[v] += Fraction(
                        count[(s, v)] * count[(v, t)], count[(s, t)]
                    )
    return scores


def group_betweenness_oracle(net, group):
    """Per-pair covered fraction by exhaustive shortest-path enumeration."""
    members = set(group)
    n = net.node_count
    total = Fraction(0)
    for s in range(n):
        for t in range(n):
            if s == t or s in members or t in members:
                continue
            _, paths = enumerate_shortest_paths(net, s, t)
            if not paths:
                continue
            covered = sum(1 for p in paths if members & set(p))
            if covered:
                total += Fraction(covered, len(paths))
    return total


@pytest.mark.parametrize("seed", range(5))
def test_betweenness_matches_counting_oracle(seed):
    net = random_digraph(10, 0.25, seed)
    assert list(betweenness(net).scores) == betweenness_oracle(net)


@pytest.mark.parametrize("seed", range(3))
def test_weighted_betweenness_matches_oracle_on_inverse_costs(seed):
    net = random_digraph(8, 0.3, seed, max_capacity=5)
    expected = betweenness_oracle(net.inverse_capacity_costs())
    assert list(betweenness(net, weighted=True).scores) == expected


def test_chain_ranks_middle_first():
    net = make_net([(0, 1, 2), (1, 2, 1)], names=("a", "b", "c"))
    scores = betweenness(net)
    assert scores.ordering[0] == 1
    assert scores.scores[1] == 1


def test_ordering_breaks_ties_by_index():
    net = make_net([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    scores = betweenness(net)
    assert len(set(scores.scores)) == 1
    assert scores.ordering == (0, 1, 2, 3)


@pytest.mark.parametrize("seed", range(4))
def test_group_betweenness_matches_enumeration(seed):
    net = random_digraph(9, 0.25, seed)
    for group in [(0,), (2, 5), (1, 4, 7)]:
        assert group_betweenness(net, group) == group_betweenness_oracle(
            net, group
        )


def test_singleton_group_equals_betweenness():
    net = random_digraph(8, 0.3, 9)
    scores = betweenness(net).scores
    for v in range(net.node_count):
        assert group_betweenness(net, [v]) == scores[v]


def test_group_betweenness_rejects_empty_group():
    with pytest.raises(ValueError):
        group_betweenness(make_net([(0, 1, 1)]), [])


class TestGreedyGroupSelect:
    def test_first_pick_is_betweenness_argmax(self):
        net = random_digraph(8, 0.3, 4)
        chosen = greedy_group_select(net, 2)
        assert chosen[0] == betweenness(net).ordering[0]

    def test_pair_within_constant_factor_of_optimum(self):
        """Greedy pair covers at least (1 - 1/e) of the best pair's score."""
        net = random_digraph(8, 0.3, 4)
        greedy_pair = greedy_group_select(net, 2)
        best = max(
            group_betweenness(net, pair)
            for pair in itertools.combinations(range(net.node_count), 2)
        )
        got = group_betweenness(net, greedy_pair)
        assert float(got) >= (1 - 1 / 2.718281828459045) * float(best) - 1e-12

    def test_prefix_property(self):
        net = random_digraph(8, 0.3, 6)
        assert greedy_group_select(net, 3)[:2] == greedy_group_select(net, 2)

    def test_k_bounds(self):
        net = make_net([(0, 1, 1)])
        with pytest.raises(ValueError):
            greedy_group_select(net, 0)
        with pytest.raises(ValueError):
            greedy_group_select(net, 3)


def symmetric_cycle(n):
    """Bidirected n-cycle with unit capacities: every node and pair ties."""
    return make_net(
        [(v, (v + 1) % n, 1) for v in range(n)]
        + [((v + 1) % n, v, 1) for v in range(n)]
    )


GREEDY_CASES = [
    # (network, k, weighted)
    *[(random_digraph(8, 0.2, seed, max_capacity=4), 8, False)
      for seed in range(3)],
    *[(random_digraph(9, 0.3, seed, max_capacity=4), 4, True)
      for seed in range(3)],
    (random_connected_digraph(10, 25, 1, max_capacity=3), 10, True),
    (symmetric_cycle(6), 6, False),
    (symmetric_cycle(7), 4, True),
    (make_net([(0, 1, 1), (2, 3, 1)]), 4, False),
]


@pytest.mark.parametrize("net,k,weighted", GREEDY_CASES)
def test_greedy_matches_from_scratch_definition(net, k, weighted):
    """Each pick is the lowest-index argmax of group_betweenness(chosen + [v])
    and each returned score is the prefix's exact group betweenness."""
    analysis = net.inverse_capacity_costs() if weighted else net
    picks, scores = greedy_group_scores(net, k, weighted)
    assert len(picks) == len(scores) == k
    for i in range(k):
        chosen = picks[:i]
        gains = {
            v: group_betweenness(analysis, chosen + [v])
            for v in range(net.node_count)
            if v not in chosen
        }
        best = max(gains.values())
        assert picks[i] == min(v for v, g in gains.items() if g == best)
        assert isinstance(scores[i], Fraction)
        assert scores[i] == group_betweenness(analysis, picks[: i + 1])


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "n,seed,k",
    # Benchmark-tier instances. At k = n the late rounds run too, where most
    # avoid counts are 0 and candidates tie.
    [(30, seed, 30) for seed in range(4000, 4030)] + [(100, 4000, 6)],
)
def test_kernel_matches_loop_reference(n, seed, k, weighted):
    """The array kernel's picks, exact prefix scores and betweenness equal
    those of the big-int loops it replaced."""
    net = random_connected_digraph(n, 4 * n, seed, max_capacity=10)
    analysis = net.inverse_capacity_costs() if weighted else net
    assert greedy_group_scores(net, k, weighted) == (
        reference_greedy_group_scores(analysis, k)
    )
    assert list(betweenness(net, weighted).scores) == reference_betweenness(analysis)


BENCHMARK_TIER_NET = random_connected_digraph(30, 120, 4000, max_capacity=10)


@pytest.mark.parametrize(
    "net",
    [
        BENCHMARK_TIER_NET,
        BENCHMARK_TIER_NET.inverse_capacity_costs(),
        make_net([(0, 1, 1), (1, 2, 1), (3, 4, 1)]),
    ],
    ids=["unweighted", "weighted", "two-components"],
)
def test_kernel_lists_the_pairs_each_node_lies_between(net):
    """The kernel's entries are the reference's through lists: every (v, s,
    t) with s != v != t and v on a shortest s-t path, once, with its W."""
    kernel, n = _PairKernel(net, None), net.node_count
    _, _, _, through = reference_pairs(net)
    want = sorted(
        (v, s, t, w)
        for v in range(n) for s, targets in through[v] for t, w in targets
    )
    got = zip(kernel.v.tolist(), (kernel.sv // n).tolist(),
              (kernel.vt % n).tolist(), kernel.w.tolist())
    assert sorted(got) == want


@pytest.mark.parametrize("entries", [1, 7 * 30 * 30])
def test_kernel_blocks_leave_the_answer(monkeypatch, entries):
    """Finding the pairs one candidate at a time, or seven at a time with a
    short last block, gives the answer of one block."""
    net = random_connected_digraph(30, 120, 4001, max_capacity=10)
    want = reference_greedy_group_scores(net, 30)
    monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", entries)
    assert greedy_group_scores(net, 30) == want


class TestWideKernel:
    """Where int64 cannot hold the counts or the scores, the kernel runs on
    Python ints and its answers are still the reference's."""

    def test_counts_past_int64(self):
        net = diamond_chain(64)  # 2^64 shortest paths end to end
        assert ShortestPathCache(net).pairs[1].dtype == object
        assert greedy_group_scores(net, 3) == reference_greedy_group_scores(net, 3)
        assert list(betweenness(net).scores) == reference_betweenness(net)

    def test_scores_past_int64(self):
        net = diamond_chain(52)
        n = net.node_count
        kernel = _PairKernel(net, None)
        assert ShortestPathCache(net).pairs[1].dtype == np.int64
        assert n * n * kernel.unit >= 1 << 63
        assert kernel.sigma.dtype == object
        assert greedy_group_scores(net, 3) == reference_greedy_group_scores(net, 3)
        assert list(betweenness(net).scores) == reference_betweenness(net)

    @pytest.mark.parametrize(
        "net",
        [
            make_net([(0, 1, 1)]),
            make_net([(0, 1, 1), (2, 3, 1)]),
            FlowNetwork(("a", "b"), ()),
        ],
        ids=["single-edge", "two-components", "no-pairs"],
    )
    def test_degenerate_networks(self, net):
        n = net.node_count
        assert greedy_group_scores(net, n) == reference_greedy_group_scores(net, n)
        assert list(betweenness(net).scores) == reference_betweenness(net)
        if not net.edges:
            assert _PairKernel(net, None).unit == 1  # the empty LCM


class TestDegreeCentrality:
    def test_unweighted_is_mean_degree(self):
        net = make_net([(0, 1, 4), (1, 2, 4), (2, 1, 4)])
        scores = degree_centrality(net).scores
        assert scores == (Fraction(1, 2), Fraction(3, 2), Fraction(1))

    def test_weighted_sums_inverse_capacity(self):
        net = make_net([(0, 1, 4), (1, 2, 2)])
        scores = degree_centrality(net, weighted=True).scores
        assert scores[1] == Fraction(1, 4) + Fraction(1, 2)

    def test_weighted_matches_unweighted_ranking_on_equal_caps(self):
        net = random_digraph(8, 0.35, 2, max_capacity=1)
        assert (
            degree_centrality(net).ordering
            == degree_centrality(net, weighted=True).ordering
        )


class TestRandomSelect:
    def test_deterministic(self):
        net = random_digraph(6, 0.4, 0)
        assert random_select(net, 3, 7) == random_select(net, 3, 7)

    def test_distinct_nodes(self):
        net = random_digraph(6, 0.4, 0)
        picked = random_select(net, 4, 1)
        assert len(set(picked)) == 4

    def test_frequencies_near_uniform(self):
        """1000 draws of k=1 over 4 nodes: each within 5 sigma of 250."""
        net = random_digraph(4, 0.5, 0)
        counts = [0, 0, 0, 0]
        for seed in range(1000):
            counts[random_select(net, 1, seed)[0]] += 1
        sigma = (1000 * 0.25 * 0.75) ** 0.5
        for c in counts:
            assert abs(c - 250) <= 5 * sigma
