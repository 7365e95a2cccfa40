"""Optimal, greedy, and centrality-based middlepoint selection."""

import itertools
import math
import random

import pytest

from srte.centrality import betweenness, greedy_group_select, group_betweenness
from srte.graph import generate_gravity_demands, random_connected_digraph, random_digraph
from srte.lp import LpStatus
from srte.selection import (
    BudgetExceededError,
    centrality_select,
    greedy_select,
    optimal_select,
    solve_with_middlepoints,
)
from srte.paths import ShortestPathCache
from srte.te import NoTunnelError, tunnels_for_middlepoints

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
        search: 1 + 4 subproblems, not the 1 + 4 + 3 + 2 + 1 of all k rounds,
        and no cold confirmation, since no set has an optimum.
        """
        import srte.selection

        net = make_net(
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (3, 2, 1)],
            names=("a", "b", "c", "d"),
        )
        demands = make_demands((0, 2, 1), (2, 3, 1))
        calls = []
        # Called once per subproblem and once per cold confirmation.
        real = srte.selection._evaluate

        def counted(pool, middlepoints, *args, **kwargs):
            calls.append(middlepoints)
            return real(pool, middlepoints, *args, **kwargs)

        monkeypatch.setattr(srte.selection, "_evaluate", counted)
        with pytest.raises(NoTunnelError, match=r"commodity 2 -> 3$"):
            greedy_select(net, demands, range(4), 4, 1)
        assert len(calls) == 5


def reference_evaluate(cache, demands, subset, m):
    """One subproblem built from scratch: (theta, solution, error)."""
    try:
        solution = solve_with_middlepoints(cache, demands, subset, m)
    except NoTunnelError as exc:
        return math.inf, None, exc
    optimal = solution.status is LpStatus.OPTIMAL and solution.theta is not None
    return (solution.theta if optimal else math.inf), solution, None


def reference_greedy(net, demands, candidates, k, m, initial=()):
    """The greedy loop with one fresh TE build per subproblem:
    (picks, solution, subproblems) or the NoTunnelError it raises."""
    cache = ShortestPathCache(net)
    chosen = list(initial)
    unexplored = [v for v in sorted(set(candidates)) if v not in chosen]
    theta, current, error = reference_evaluate(cache, demands, chosen, m)
    subproblems = 1
    while len(chosen) < k and unexplored:
        best = None
        for v in unexplored:
            trial = (*reference_evaluate(cache, demands, chosen + [v], m), v)
            if best is None or trial[0] < best[0]:
                best = trial
        subproblems += len(unexplored)
        if not best[0] < theta - 1e-9:
            break
        theta, current, error, v = best
        chosen.append(v)
        unexplored.remove(v)
    return error or (chosen, current, subproblems)


def reference_optimal(net, demands, candidates, k, m):
    cache = ShortestPathCache(net)
    best = None
    subsets = list(itertools.combinations(sorted(set(candidates)), k))
    for subset in subsets:
        trial = (*reference_evaluate(cache, demands, subset, m), subset)
        if best is None or trial[0] < best[0]:
            best = trial
    _, solution, error, subset = best
    return error or (list(subset), solution, len(subsets))


def outcome(select, *args, **kwargs):
    """A selection's picks, solution and subproblem count, or its error."""
    try:
        result = select(*args, **kwargs)
    except NoTunnelError as exc:
        return exc
    return result.middlepoints, result.solution, result.subproblems_solved


def assert_same_outcome(got, want):
    if isinstance(want, NoTunnelError):
        assert isinstance(got, NoTunnelError) and str(got) == str(want)
        return
    (picks, solution, count), (ref_picks, ref_solution, ref_count) = got, want
    assert picks == ref_picks and count == ref_count
    assert solution.theta == ref_solution.theta
    assert solution.split_ratios == ref_solution.split_ratios
    assert solution.edge_utilization == ref_solution.edge_utilization


class TestTunnelPoolSelection:
    def test_greedy_and_optimal_equal_fresh_builds(self):
        """Greedy (also from an initial set) and optimal selection over one
        tunnel pool give exactly the picks, theta, split ratios,
        utilizations, subproblem counts and errors of one fresh build per
        subproblem, on digraphs that are not strongly connected."""
        raised = picked = 0
        for seed in range(6):
            rng = random.Random(seed)
            net = random_digraph(7, 0.45, seed, max_capacity=5)
            pairs = rng.sample(
                [(s, t) for s in range(7) for t in range(7) if s != t], 5
            )
            demands = make_demands(
                *((s, t, rng.choice([0, 1, 2.5])) for s, t in pairs)
            )
            for m in (0, 1, 2):
                candidates = rng.sample(range(7), rng.randint(2, 6))
                k = rng.randint(1, len(candidates))
                initial = rng.sample(range(7), 1)
                cases = [
                    (greedy_select, reference_greedy, {}),
                    (greedy_select, reference_greedy, {"initial": initial}),
                    (optimal_select, reference_optimal, {}),
                ]
                for select, reference, kwargs in cases:
                    want = reference(net, demands, candidates, k, m, **kwargs)
                    got = outcome(select, net, demands, candidates, k, m, **kwargs)
                    assert_same_outcome(got, want)
                    if isinstance(want, NoTunnelError):
                        raised += 1
                    else:
                        picked += len(want[0]) > len(kwargs.get("initial", ()))
        assert raised and picked

    def test_greedy_pool_holds_only_the_tunnels_of_evaluated_sets(
        self, monkeypatch
    ):
        """At m=2 the pool grows per round by the tunnels the round's sets
        add, so it stays the union of the tunnels of the sets evaluated or
        skipped by their dual bounds, far below the all-nodes m=2 tunnel
        count.

        Every subproblem but the initial set is evaluated once, warm in the
        chosen set's model, or skipped, and every cold confirmation is
        evaluated once more: the cold evaluations are the initial set and
        the confirmations."""
        import srte.selection

        net = random_connected_digraph(30, 120, 7)
        demands = generate_gravity_demands(net, 20, 507)
        evaluated, pool_sizes, warm = [], [], []
        rounds = []  # each bounded round's chosen set and candidates
        real = srte.selection._evaluate
        real_theta = srte.selection.ExtensionModel.theta
        real_bounds = srte.selection.extension_bounds

        def recording(pool, middlepoints):
            evaluated.append(list(middlepoints))
            warm.append(False)
            result = real(pool, middlepoints)
            pool_sizes.append(len(pool.tunnels))
            return result

        def recording_warm(model, node):
            evaluated.append([*model.middlepoints, node])
            warm.append(True)
            result = real_theta(model, node)
            pool_sizes.append(len(model._pool.tunnels))
            return result

        def bounding(pool, middlepoints, nodes, duals):
            rounds.append((list(middlepoints), list(nodes)))
            return real_bounds(pool, middlepoints, nodes, duals)

        monkeypatch.setattr(srte.selection, "_evaluate", recording)
        monkeypatch.setattr(srte.selection.ExtensionModel, "theta", recording_warm)
        monkeypatch.setattr(srte.selection, "extension_bounds", bounding)
        result = greedy_select(net, demands, range(30), 3, 2)
        confirmations = warm.count(False) - 1
        skipped = [
            [*chosen, v] for chosen, nodes in rounds for v in nodes
            if [*chosen, v] not in evaluated
        ]
        assert sum(warm) + len(skipped) == result.subproblems_solved - 1
        assert (
            len(evaluated) + len(skipped)
            == result.subproblems_solved + confirmations
        )
        assert confirmations >= len(result.middlepoints)  # one per pick at least
        cache = ShortestPathCache(net)
        union = {
            tun for mids in evaluated + skipped
            for group in tunnels_for_middlepoints(cache, demands, mids, 2)
            for tun in group
        }
        all_nodes = sum(
            len(group)
            for group in tunnels_for_middlepoints(cache, demands, range(30), 2)
        )
        assert max(pool_sizes) <= len(union) < all_nodes / 4


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
