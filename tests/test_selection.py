"""Optimal, greedy, and centrality-based middlepoint selection."""

import itertools
import math

import pytest

from srte.centrality import betweenness, greedy_group_select, group_betweenness
from srte.graph import random_connected_digraph
from srte.selection import (
    BudgetExceededError,
    centrality_select,
    greedy_select,
    optimal_select,
    solve_with_middlepoints,
)
from srte.paths import ShortestPathCache
from srte.te import NoTunnelError

from conftest import make_demands, make_net


def exhaustive_best_theta(network, demands, candidates, k, m):
    """Independent subset enumeration: min theta over all size-k subsets."""
    cache = ShortestPathCache(network)
    best = math.inf
    for subset in itertools.combinations(sorted(candidates), k):
        try:
            sol = solve_with_middlepoints(cache, demands, subset, m)
        except NoTunnelError:
            continue
        if sol.theta is not None:
            best = min(best, sol.theta)
    return best


@pytest.fixture
def asymmetric_fixture():
    """Two candidate detours of different capacity around a thin direct edge."""
    net = make_net(
        [
            (0, 4, 1),            # thin direct edge
            (0, 1, 4), (1, 4, 4),  # wide detour via m1
            (0, 2, 2), (2, 4, 2),  # narrow detour via m2
            (0, 3, 1), (3, 4, 1),  # decoy
        ],
        names=("s", "m1", "m2", "x", "t"),
    )
    return net, make_demands((0, 4, 3))


class TestOptimalSelect:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exhaustive_enumeration(self, seed):
        net = random_connected_digraph(7, 18, seed)
        demands = make_demands((0, 4, 2), (1, 5, 1))
        candidates = [2, 3, 6]
        for k in (1, 2):
            result = optimal_select(net, demands, candidates, k, 1)
            best = exhaustive_best_theta(net, demands, candidates, k, 1)
            assert result.solution.theta == pytest.approx(best, abs=1e-9)
            assert result.subproblems_solved == math.comb(len(candidates), k)

    def test_singleton_pick_on_asymmetric_fixture(self, asymmetric_fixture):
        """k=1 over {m1, m2} picks whichever detour solves to lower theta."""
        net, demands = asymmetric_fixture
        cache = ShortestPathCache(net)
        theta = {
            m: solve_with_middlepoints(cache, demands, [m], 1).theta
            for m in (1, 2)
        }
        result = optimal_select(net, demands, [1, 2], 1, 1)
        assert result.middlepoints == [min(theta, key=theta.get)]
        assert result.solution.theta == pytest.approx(min(theta.values()), abs=1e-9)

    def test_lexicographic_tie_break(self):
        # Symmetric detours: both singletons give the same theta; lowest
        # index wins.
        net = make_net(
            [(0, 3, 1), (0, 1, 2), (1, 3, 2), (0, 2, 2), (2, 3, 2)],
            names=("s", "m1", "m2", "t"),
        )
        demands = make_demands((0, 3, 3))
        result = optimal_select(net, demands, [1, 2], 1, 1)
        assert result.middlepoints == [1]

    def test_budget_guard(self):
        net = random_connected_digraph(8, 20, 1)
        demands = make_demands((0, 4, 1))
        with pytest.raises(BudgetExceededError):
            optimal_select(net, demands, list(range(8)), 4, 1, budget=10)

    def test_k_validation(self):
        net = random_connected_digraph(6, 14, 0)
        demands = make_demands((0, 3, 1))
        with pytest.raises(ValueError):
            optimal_select(net, demands, [1, 2], 0, 1)
        with pytest.raises(ValueError):
            optimal_select(net, demands, [1, 2], 3, 1)


class TestGreedySelect:
    @pytest.mark.parametrize("seed", range(4))
    def test_never_beats_optimal_and_trace_non_increasing(self, seed):
        net = random_connected_digraph(8, 22, seed)
        demands = make_demands((0, 4, 3), (1, 6, 2), (7, 2, 1))
        candidates = list(range(8))
        k = 3
        greedy = greedy_select(net, demands, candidates, k, 1)
        optimal = optimal_select(net, demands, candidates, k, 1)
        assert greedy.solution.theta >= optimal.solution.theta - 1e-9
        assert greedy.used_count <= k
        # Replaying the chosen prefix shows per-round non-increase.
        cache = ShortestPathCache(net)
        thetas = [
            solve_with_middlepoints(
                cache, demands, greedy.middlepoints[:i], 1
            ).theta
            for i in range(len(greedy.middlepoints) + 1)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(thetas, thetas[1:]))

    def test_stops_without_strict_improvement(self):
        # One middlepoint already achieves the MP optimum on this fixture;
        # the second round cannot strictly improve, so only one is used.
        net = make_net(
            [(0, 2, 1), (0, 1, 2), (1, 2, 2), (0, 3, 1), (3, 2, 1)],
            names=("s", "m", "t", "x"),
        )
        demands = make_demands((0, 2, 1))
        result = greedy_select(net, demands, [1, 3], 2, 1)
        assert result.used_count < 2 or result.solution.theta < (
            greedy_select(net, demands, [1, 3], 1, 1).solution.theta - 1e-9
        )

    def test_partial_start_is_respected(self):
        net = random_connected_digraph(7, 18, 2)
        demands = make_demands((0, 4, 2))
        result = greedy_select(net, demands, list(range(7)), 3, 1, initial=[5])
        assert result.middlepoints[0] == 5

    def test_infeasible_everywhere_raises(self):
        net = make_net([(1, 0, 1)], names=("a", "b"))
        demands = make_demands((0, 1, 1))
        with pytest.raises(NoTunnelError):
            greedy_select(net, demands, [0, 1], 1, 1)

    def test_stops_after_a_round_without_any_tunnel_set(self, monkeypatch):
        """c -> d has no tunnel for any set, so every trial's theta is inf.

        The first round cannot improve on an infinite theta and ends the
        search: 1 + 4 subproblems, not the 1 + 4 + 3 + 2 + 1 of all k rounds.
        """
        import srte.selection

        net = make_net(
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (3, 2, 1)],
            names=("a", "b", "c", "d"),
        )
        demands = make_demands((0, 2, 1), (2, 3, 1))
        calls = []
        real = srte.selection.solve_with_middlepoints

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(srte.selection, "solve_with_middlepoints", counted)
        with pytest.raises(NoTunnelError, match=r"commodity 2 -> 3$"):
            greedy_select(net, demands, range(4), 4, 1)
        assert len(calls) == 5


class TestCentralitySelect:
    def test_method_labels(self):
        net = random_connected_digraph(6, 16, 4)
        demands = make_demands((0, 3, 1))
        labels = {
            "sp": "TopK-SP",
            "gsp": "TopK-GSP",
            "degree": "TopK-Degree",
            "random": "Random",
        }
        for method, label in labels.items():
            result = centrality_select(net, demands, method, 2, 1)
            assert result.method == label
            assert result.used_count == 2

    def test_sp_uses_betweenness_ordering(self):
        net = random_connected_digraph(7, 18, 6)
        demands = make_demands((0, 4, 1))
        result = centrality_select(net, demands, "sp", 3, 1)
        assert result.middlepoints == list(betweenness(net).ordering[:3])

    def test_random_deterministic_per_seed(self):
        net = random_connected_digraph(7, 18, 6)
        demands = make_demands((0, 4, 1))
        a = centrality_select(net, demands, "random", 2, 1, seed=9)
        b = centrality_select(net, demands, "random", 2, 1, seed=9)
        assert a.middlepoints == b.middlepoints

    def test_unknown_method(self):
        net = random_connected_digraph(6, 14, 0)
        with pytest.raises(ValueError):
            centrality_select(net, make_demands((0, 3, 1)), "pagerank", 1, 1)


class TestTwinHubDiversification:
    def twin_net(self):
        """a -> h1 -> h2 -> b chain plus a disjoint c -> v -> d chain.

        h1 and h2 sit on the same shortest paths; v covers a separate pair.
        """
        return make_net(
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (4, 5, 1), (5, 6, 1)],
            names=("a", "h1", "h2", "b", "c", "v", "d"),
        )

    def test_sp_picks_both_twins(self):
        net = self.twin_net()
        assert set(betweenness(net).ordering[:2]) == {1, 2}

    def test_gsp_diversifies_away_from_the_twin(self):
        net = self.twin_net()
        chosen = greedy_group_select(net, 2)
        assert chosen[0] in (1, 2)
        assert chosen[1] == 5
        # The twin's marginal gain is non-positive once its sibling is in.
        base = group_betweenness(net, [chosen[0]])
        twin = 2 if chosen[0] == 1 else 1
        assert group_betweenness(net, [chosen[0], twin]) - base <= 0


def test_sp_selection_reuses_the_callers_dags(monkeypatch):
    """Betweenness and the TE solves share one cache: across a K sweep every
    forward DAG is built once."""
    import srte.paths

    net = random_connected_digraph(8, 20, 2)
    demands = make_demands((0, 4, 2), (1, 5, 1), (6, 2, 1))
    built = []
    real = srte.paths.sp_dag

    def counting(network, source):
        built.append(source)
        return real(network, source)

    monkeypatch.setattr(srte.paths, "sp_dag", counting)
    cache = ShortestPathCache(net)
    for k in (1, 2, 3):
        uncached = betweenness(net).ordering[:k]
        result = centrality_select(net, demands, "sp", k, 1, cache=cache)
        assert result.middlepoints == list(uncached)
    sweep_builds = len(built) - 3 * net.node_count  # minus the uncached runs
    assert sweep_builds == net.node_count
