"""Acceptance suite: one test per criterion, one printed verdict line each.

Every criterion prints ``PASS``/``FAIL criterion N: ...`` directly to the
real stdout so the verdict survives pytest's capture. Criteria are
property-based plus hand-verifiable instances; seeds are fixed and were not
searched (see the chain/counterexample regression tests in test_oracles for
the known limits of the flow/cut equality).
"""

import itertools
import math
import pathlib
import random
import time

import pytest

from srte.centrality import betweenness, greedy_group_select
from srte.cli import main as cli_main
from srte.graph import (
    Commodity,
    DemandMatrix,
    generate_gravity_demands,
    random_connected_digraph,
    random_digraph,
)
from srte.lp import LpStatus, solve_lp
from srte.oracles import (
    UndirectedEdge,
    UndirectedNetwork,
    group_flow,
    greedy_group_flow_select,
    has_swt_path,
    max_swt_flow,
    min_swt_cut,
    undirected_max_swt,
    undirected_swt_path_oracle,
)
from srte.paths import ShortestPathCache
from srte.selection import (
    greedy_select,
    optimal_select,
    solve_with_middlepoints,
)
from srte.te import LU, MF, build_mp_baseline, build_te_lu, solve_te, tunnels_for_middlepoints

from conftest import ACCEPTANCE_LINES, make_demands, make_net, split_lp
from test_centrality import betweenness_oracle

DATA = pathlib.Path(__file__).parent / "data"


def _verdict(num, name, budget_s, body):
    start = time.perf_counter()
    ok, detail = False, ""
    try:
        detail = body() or ""
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        if ok and elapsed > budget_s:
            ok, detail = False, f"over time budget: {elapsed:.1f}s > {budget_s}s"
        word = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        line = f"{word} criterion {num}: {name} [{elapsed:.2f}s]{tail}"
        print(line, flush=True)
        ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= budget_s


def test_criterion_1_hand_lp_exactness():
    def body():
        lp, theta, f1, f2 = split_lp()
        sol = solve_lp(lp)
        assert sol.x[theta] == pytest.approx(0.6, abs=1e-6)
        assert sol.x[f1] == pytest.approx(1.8, abs=1e-6)
        assert sol.x[f2] == pytest.approx(1.2, abs=1e-6)

        net = make_net([(0, 2, 3), (0, 1, 2), (1, 2, 2)], names=("s", "m", "t"))
        demands = make_demands((0, 2, 3))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [1], 1)
        te = solve_te(build_te_lu(cache, demands, tunnels))
        assert te.theta == pytest.approx(3 / 5, abs=1e-6)
        flows = {t.waypoints: f for t, f in zip(te.program.tunnels, te.flows)}
        assert flows[(0, 2)] == pytest.approx(9 / 5, abs=1e-6)
        assert flows[(0, 1, 2)] == pytest.approx(6 / 5, abs=1e-6)
        return "theta 0.6 and 3/5 with exact flows"

    _verdict(1, "hand-LP exactness", 1.0, body)


def test_criterion_2_betweenness_oracle_equivalence():
    def body():
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.choice([8, 10, 12])
            net = random_digraph(n, 0.3, seed)
            assert list(betweenness(net).scores) == betweenness_oracle(net)
        return "50 digraphs, exact rational equality"

    _verdict(2, "betweenness equals all-pairs counting oracle", 30.0, body)


def test_criterion_3_maxflow_mincut_integrality():
    def body():
        produced = 0
        seed = 0
        while produced < 30:
            rng = random.Random(seed)
            n = rng.choice([6, 7])
            net = random_digraph(n, 0.3, seed, max_capacity=3)
            s, w, t = rng.sample(range(n), 3)
            seed += 1
            if not has_swt_path(net, s, w, t):
                continue
            produced += 1
            flow = max_swt_flow(net, s, w, t)
            _, cut = min_swt_cut(net, s, w, t)
            assert flow.value == pytest.approx(float(cut), abs=1e-6), (
                f"seed {seed - 1}: flow {flow.value} != cut {float(cut)}"
            )
            assert flow.integral, f"seed {seed - 1}: no integral optimum"
        return "30 digraphs, flow = cut with integral optima"

    _verdict(3, "max s-w-t flow equals min cut with integrality", 60.0, body)


def test_criterion_4_saturation_biconditional():
    def body():
        for trial in range(30):
            rng = random.Random(10_000 + trial)
            n = rng.choice([6, 7, 8])
            net = random_digraph(n, 0.35, 10_000 + trial, max_capacity=5)
            commodities = []
            pairs = set()
            for _ in range(rng.randint(1, 3)):
                s, t = rng.sample(range(n), 2)
                if (s, t) not in pairs:
                    pairs.add((s, t))
                    commodities.append(Commodity(s, t, float(rng.randint(1, 4))))
            demands = DemandMatrix(tuple(commodities))
            mf = solve_te(build_mp_baseline(net, demands, MF))
            lu = solve_te(build_mp_baseline(net, demands, LU))
            saturated = (
                abs(mf.satisfied_total - demands.total_demand()) <= 1e-7
            )
            theta_ok = (
                lu.status is LpStatus.OPTIMAL and lu.theta <= 1 + 1e-7
            )
            assert saturated == theta_ok, f"trial {trial}"
        return "30 instances, saturation iff theta <= 1"

    _verdict(4, "max-flow saturation iff multipath theta <= 1", 60.0, body)


def test_criterion_5_selection_optimality():
    def body():
        for seed in range(3):
            net = random_connected_digraph(8, 22, seed)
            demands = make_demands((0, 4, 3), (1, 6, 2), (7, 2, 1))
            candidates = [2, 3, 5, 6]
            for k in (1, 2):
                cache = ShortestPathCache(net)
                best = math.inf
                for subset in itertools.combinations(candidates, k):
                    sol = solve_with_middlepoints(cache, demands, subset, 1)
                    if sol.theta is not None:
                        best = min(best, sol.theta)
                result = optimal_select(net, demands, candidates, k, 1)
                assert abs(result.solution.theta - best) <= 1e-9

            greedy = greedy_select(net, demands, list(range(8)), 3, 1)
            optimal = optimal_select(net, demands, list(range(8)), 3, 1)
            assert greedy.solution.theta >= optimal.solution.theta - 1e-9
            cache = ShortestPathCache(net)
            trace = [
                solve_with_middlepoints(
                    cache, demands, greedy.middlepoints[:i], 1
                ).theta
                for i in range(len(greedy.middlepoints) + 1)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        return "optimal = exhaustive; greedy bounded below by optimal"

    _verdict(5, "selection optimality and greedy dominance", 120.0, body)


def test_criterion_6_group_flow_submodularity():
    def body():
        for trial in range(10):
            net = random_digraph(6, 0.35, 500 + trial, max_capacity=4)
            rng = random.Random(600 + trial)
            s, t = rng.sample(range(6), 2)
            demands = make_demands((s, t, 6))
            eligible = [v for v in range(6) if v not in (s, t)]
            value = {
                frozenset(sub): group_flow(net, demands, sub)
                for size in range(len(eligible) + 1)
                for sub in itertools.combinations(eligible, size)
            }
            for sub, val in value.items():
                for v in eligible:
                    if v not in sub:
                        assert value[sub | {v}] >= val - 1e-6, "monotonicity"
            for a in value:
                for b in value:
                    if a <= b:
                        for v in eligible:
                            if v not in b:
                                assert (
                                    value[a | {v}] - value[a]
                                    >= value[b | {v}] - value[b] - 1e-6
                                ), "submodularity"
            _, greedy_value = greedy_group_flow_select(net, demands, 2)
            best_pair = max(
                value[frozenset(p)]
                for p in itertools.combinations(eligible, 2)
            )
            assert greedy_value >= (1 - 1 / math.e) * best_pair - 1e-6
        return "10 instances, zero violations; greedy >= (1-1/e) opt"

    _verdict(6, "group flow monotone and submodular", 120.0, body)


def test_criterion_7_undirected_equivalence():
    def body():
        checked = 0
        seed = 0
        while checked < 10:
            rng = random.Random(700 + seed)
            seed += 1
            n = rng.choice([5, 6])
            pairs = list(itertools.combinations(range(n), 2))
            # Sparse fixtures keep the walk enumeration tractable.
            count = rng.randint(n - 1, n + 1)
            chosen = rng.sample(pairs, count)
            net = UndirectedNetwork(
                tuple(f"u{i}" for i in range(n)),
                tuple(
                    UndirectedEdge(u, v, rng.randint(1, 3))
                    for u, v in chosen
                ),
            )
            s, w, t = rng.sample(range(n), 3)
            oracle = undirected_swt_path_oracle(net, w, [(s, t)])
            if oracle <= 1e-9:
                continue
            checked += 1
            lp = undirected_max_swt(net, w, [(s, t)])
            assert lp == pytest.approx(oracle, abs=1e-6), f"seed {seed - 1}"
        return "10 fixtures, auxiliary LP = path oracle"

    _verdict(7, "undirected auxiliary LP equivalence", 30.0, body)


def test_criterion_8_qualitative_trends():
    def body():
        gsp_wins = 0
        for topo in range(20):
            net = random_connected_digraph(30, 120, 1000 + topo, max_capacity=10)
            demands = generate_gravity_demands(net, 100, 2000 + topo)
            cache = ShortestPathCache(net)
            order = greedy_group_select(net, 6)
            thetas = [
                solve_with_middlepoints(cache, demands, order[:k], 1).theta
                for k in range(1, 7)
            ]
            # (a) GSP theta non-increasing in K.
            assert all(
                b <= a + 1e-9 for a, b in zip(thetas, thetas[1:])
            ), f"topology {topo}: K-monotonicity"
            # (b) allowing two middlepoints never hurts at K=4.
            theta_m2 = solve_with_middlepoints(
                cache, demands, order[:4], 2
            ).theta
            assert theta_m2 <= thetas[3] + 1e-9, f"topology {topo}: M"
            # (c) GSP vs the random-selection average at K=4.
            random_thetas = []
            for rseed in range(5):
                mids = random.Random(rseed).sample(range(30), 4)
                random_thetas.append(
                    solve_with_middlepoints(cache, demands, mids, 1).theta
                )
            if thetas[3] <= sum(random_thetas) / 5 + 1e-9:
                gsp_wins += 1
            # (d) the multipath baseline lower-bounds every SR solution.
            mp = solve_te(build_mp_baseline(net, demands, LU))
            sr_min = min(thetas + [theta_m2] + random_thetas)
            assert mp.theta <= sr_min + 1e-7, f"topology {topo}: MP bound"
        assert gsp_wins >= 14, f"GSP beat random on only {gsp_wins}/20"
        return f"20 topologies; GSP beat random mean on {gsp_wins}/20"

    _verdict(8, "qualitative selection trends at desk scale", 600.0, body)


def test_criterion_9_cli_determinism(capsys):
    def body():
        commands = [
            ["solve", "--topology", str(DATA / "net10.topo"), "--gravity",
             "10", "--seed", "4", "--method", "gsp", "--k", "3"],
            ["sweep", "--topology", str(DATA / "net10.topo"), "--demands",
             str(DATA / "net10.dem"), "--sweep-methods",
             "random:1,random:2,sp,gsp,degree", "--k", "3"],
            ["centrality", "--topology", str(DATA / "net10.topo"),
             "--method", "gsp", "--k", "4"],
            ["oracle", "lemma1", "--trials", "8"],
        ]
        for argv in commands:
            code_a = cli_main(argv)
            out_a = capsys.readouterr().out
            code_b = cli_main(argv)
            out_b = capsys.readouterr().out
            assert code_a == code_b
            assert out_a == out_b, f"non-deterministic output: {argv[0]}"
            assert out_a
        return "4 commands byte-identical across runs"

    _verdict(9, "CLI determinism for fixed seeds", 60.0, body)
