"""Brute-force flow oracles: path enumeration, cuts, centralities, group flow."""

import itertools
import random
from fractions import Fraction

import pytest

import numpy as np
from scipy.sparse import lil_matrix

import srte.oracles as oracles
from srte.graph import FlowNetwork, TopologyError, random_digraph
from srte.lp import EQ, LE
from srte.oracles import (
    SizeCapExceededError,
    UndirectedEdge,
    UndirectedNetwork,
    ZeroMaxFlowError,
    enumerate_paths,
    flow_centrality,
    greedy_group_flow_select,
    group_flow,
    has_swt_path,
    max_st_flow,
    max_swt_flow,
    min_swt_cut,
    multicommodity_flow_centrality,
    undirected_max_swt,
    undirected_swt_path_oracle,
)

from conftest import RowLp, make_demands, make_net


def counterexample_net():
    """Frozen 6-node instance where max s-w-t flow (8/3) < min cut (3).

    The optimal restricted flow is fractional even though every capacity is
    integral: strong duality with integral edge cuts fails for w-restricted
    flows because edge-distinct paths may revisit nodes and their segments
    cannot be freely recombined around w.
    """
    return make_net(
        [
            (1, 2, 2), (1, 4, 1), (2, 0, 2), (2, 4, 1), (2, 5, 1),
            (3, 1, 2), (3, 2, 1), (3, 4, 3), (4, 0, 1), (4, 1, 1),
            (4, 3, 1), (4, 5, 1), (5, 2, 3), (5, 3, 2), (5, 4, 2),
        ]
    )


def seeded_swt_instances(count, sizes=(6, 7), max_capacity=3, start_seed=0):
    """Deterministic stream of (network, s, w, t) with an s-w-t connection."""
    produced = 0
    seed = start_seed
    while produced < count:
        rng = random.Random(seed)
        n = rng.choice(list(sizes))
        net = random_digraph(n, 0.3, seed, max_capacity=max_capacity)
        s, w, t = rng.sample(range(n), 3)
        seed += 1
        if has_swt_path(net, s, w, t):
            produced += 1
            yield net, s, w, t


class TestPathEnumeration:
    def test_counts_edge_distinct_walks(self):
        # Diamond with a shortcut: 0->1->3, 0->2->3, 0->3.
        net = make_net([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 1)])
        paths = enumerate_paths(net, 0, 3)
        assert sorted(p.nodes for p in paths) == [
            (0, 1, 3), (0, 2, 3), (0, 3)
        ]

    def test_edges_are_distinct_but_nodes_may_repeat(self):
        net = make_net([(0, 1, 1), (1, 2, 1), (2, 1, 1), (1, 3, 1)])
        paths = enumerate_paths(net, 0, 3)
        assert (0, 1, 2, 1, 3) in {p.nodes for p in paths}
        for p in paths:
            assert len(set(p.edges)) == len(p.edges)

    def test_path_cap(self):
        net = make_net([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        with pytest.raises(SizeCapExceededError):
            enumerate_paths(net, 0, 3, max_paths=1)

    def test_has_swt_path(self):
        net = make_net([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert has_swt_path(net, 0, 1, 2)
        assert not has_swt_path(net, 0, 2, 1)


class TestMaxSwtFlowAndMinCut:
    def test_chain_cut(self):
        """s -> w -> t with caps 2, 1: the cut is the w -> t edge."""
        net = make_net([(0, 1, 2), (1, 2, 1)], names=("s", "w", "t"))
        edges, value = min_swt_cut(net, 0, 1, 2)
        assert value == 1
        assert edges == frozenset({1})

    def test_chain_flow(self):
        net = make_net([(0, 1, 2), (1, 2, 1)])
        result = max_swt_flow(net, 0, 1, 2)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.integral

    def test_no_path_means_zero(self):
        net = make_net([(0, 2, 1), (1, 2, 1)])
        assert max_swt_flow(net, 0, 1, 2).value == pytest.approx(0.0)
        _, cut = min_swt_cut(net, 0, 1, 2)
        assert cut == 0

    def test_flow_equals_cut_on_seeded_instances(self):
        for net, s, w, t in seeded_swt_instances(8):
            flow = max_swt_flow(net, s, w, t)
            _, cut = min_swt_cut(net, s, w, t)
            assert flow.value == pytest.approx(float(cut), abs=1e-6)
            assert flow.integral or flow.value == pytest.approx(0.0)

    def test_weak_duality_always_holds(self):
        for net, s, w, t in seeded_swt_instances(10, start_seed=200):
            flow = max_swt_flow(net, s, w, t)
            _, cut = min_swt_cut(net, s, w, t)
            assert flow.value <= float(cut) + 1e-6

    def test_fractional_counterexample_regression(self):
        """Restricted max flow can be strictly below the integral min cut."""
        net = counterexample_net()
        flow = max_swt_flow(net, 1, 3, 0)
        _, cut = min_swt_cut(net, 1, 3, 0)
        assert flow.value == pytest.approx(8.0 / 3.0, abs=1e-6)
        assert cut == 3
        assert not flow.integral
        assert flow.value < float(cut) - 1e-3

    def test_flow_decomposition_respects_capacities(self):
        for net, s, w, t in seeded_swt_instances(5, start_seed=50):
            flow = max_swt_flow(net, s, w, t)
            loads = {}
            for path, amount in flow.path_flows.items():
                assert path.visits(w)
                for eid in path.edges:
                    loads[eid] = loads.get(eid, 0.0) + amount
            for eid, load in loads.items():
                assert load <= float(net.edges[eid].capacity) + 1e-6
            assert sum(flow.path_flows.values()) == pytest.approx(
                flow.value, abs=1e-6
            )

    def test_distinct_endpoints_required(self):
        net = make_net([(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError):
            max_swt_flow(net, 0, 0, 2)
        with pytest.raises(ValueError):
            min_swt_cut(net, 0, 2, 2)

    def test_node_cap_guard(self):
        net = random_digraph(13, 0.2, 0)
        with pytest.raises(SizeCapExceededError):
            max_swt_flow(net, 0, 1, 2)


class TestFlowCentrality:
    def test_isolated_node_scores_zero(self):
        net = make_net([(0, 1, 2), (1, 2, 2), (0, 2, 1), (3, 4, 1)])
        # Node 5 exists only as an endpoint-free index.
        net = make_net(
            [(0, 1, 2), (1, 2, 2), (0, 2, 1)],
            names=("a", "b", "c", "iso"),
        )
        assert flow_centrality(net, 3) == pytest.approx(0.0)

    def test_chain_transit_node(self):
        net = make_net([(0, 1, 2), (1, 2, 2)])
        # Only pair (0, 2); all of its flow passes node 1.
        assert flow_centrality(net, 1) == pytest.approx(1.0)

    def test_matches_reversed_order_recomputation(self):
        net = random_digraph(6, 0.35, 8, max_capacity=3)
        w = 2
        expected = 0.0
        pairs = [
            (s, t)
            for s in range(net.node_count)
            for t in range(net.node_count)
            if s != t and s != w and t != w
        ]
        for s, t in reversed(pairs):
            denom = max_st_flow(net, s, t)
            if denom > 1e-6:
                expected += max_swt_flow(net, s, w, t).value / denom
        assert flow_centrality(net, w) == pytest.approx(expected, abs=1e-6)


class TestMulticommodityFlowCentrality:
    def test_single_commodity_chain(self):
        net = make_net([(0, 1, 2), (1, 2, 2)])
        demands = make_demands((0, 2, 1))
        assert multicommodity_flow_centrality(net, demands, 1) == pytest.approx(
            1.0
        )

    def test_node_off_all_paths(self):
        net = make_net([(0, 1, 2), (2, 3, 1), (3, 2, 1)])
        demands = make_demands((0, 1, 1))
        assert multicommodity_flow_centrality(net, demands, 2) == pytest.approx(
            0.0
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_within_unit_interval_and_deterministic(self, seed):
        net = random_digraph(6, 0.4, seed, max_capacity=3)
        demands = make_demands((0, 3, 2), (1, 4, 1))
        try:
            a = multicommodity_flow_centrality(net, demands, 5)
        except ZeroMaxFlowError:
            return
        b = multicommodity_flow_centrality(net, demands, 5)
        assert 0.0 - 1e-9 <= a <= 1.0 + 1e-9
        assert a == pytest.approx(b, abs=1e-9)

    def test_zero_max_flow_raises(self):
        net = make_net([(1, 0, 1), (2, 1, 1)])
        demands = make_demands((0, 2, 1))
        with pytest.raises(ZeroMaxFlowError):
            multicommodity_flow_centrality(net, demands, 1)


class TestGroupFlow:
    def instance(self, seed):
        net = random_digraph(6, 0.35, seed, max_capacity=4)
        rng = random.Random(seed + 1000)
        s, t = rng.sample(range(6), 2)
        return net, make_demands((s, t, 6)), s, t

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_and_submodular_exhaustively(self, seed):
        net, demands, s, t = self.instance(seed)
        eligible = [v for v in range(6) if v not in (s, t)]
        value = {
            frozenset(sub): group_flow(net, demands, sub)
            for size in range(len(eligible) + 1)
            for sub in itertools.combinations(eligible, size)
        }
        for sub, val in value.items():
            for v in eligible:
                if v not in sub:
                    assert value[sub | {v}] >= val - 1e-6
        for a in value:
            for b in value:
                if a <= b:
                    for v in eligible:
                        if v not in b:
                            gain_a = value[a | {v}] - value[a]
                            gain_b = value[b | {v}] - value[b]
                            assert gain_a >= gain_b - 1e-6

    def test_empty_group_is_zero(self):
        net = make_net([(0, 1, 1), (1, 2, 1)])
        assert group_flow(net, make_demands((0, 2, 1)), []) == 0.0

    def test_greedy_single_pick_on_chain(self):
        net = make_net([(0, 1, 2), (1, 2, 2)])
        demands = make_demands((0, 2, 2))
        chosen, value = greedy_group_flow_select(net, demands, 1)
        assert chosen == [1]
        assert value == pytest.approx(2.0)

    def test_all_eligible_equals_unrestricted(self):
        net = make_net(
            [(0, 1, 2), (1, 3, 2), (0, 2, 1), (2, 3, 1)]
        )
        demands = make_demands((0, 3, 5))
        eligible = [1, 2]
        assert group_flow(net, demands, eligible) == pytest.approx(
            max_st_flow(net, 0, 3), abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_pair_within_constant_factor(self, seed):
        net, demands, s, t = self.instance(seed)
        eligible = [v for v in range(6) if v not in (s, t)]
        chosen, value = greedy_group_flow_select(net, demands, 2)
        best = max(
            group_flow(net, demands, pair)
            for pair in itertools.combinations(eligible, 2)
        )
        assert value >= (1 - 1 / 2.718281828459045) * best - 1e-6

    def test_greedy_rejects_oversized_selection(self):
        net = make_net([(0, 1, 1)])
        with pytest.raises(ValueError):
            greedy_group_flow_select(net, make_demands((0, 1, 1)), 1)


class TestUndirected:
    def fixture_nets(self):
        tri = UndirectedNetwork(
            ("a", "b", "c", "d"),
            (
                UndirectedEdge(0, 1, Fraction(2)),
                UndirectedEdge(1, 2, Fraction(2)),
                UndirectedEdge(2, 3, Fraction(1)),
                UndirectedEdge(0, 3, Fraction(1)),
                UndirectedEdge(1, 3, Fraction(1)),
            ),
        )
        square = UndirectedNetwork(
            ("p", "q", "r", "s", "t", "u"),
            (
                UndirectedEdge(0, 1, Fraction(3)),
                UndirectedEdge(1, 2, Fraction(1)),
                UndirectedEdge(2, 3, Fraction(2)),
                UndirectedEdge(3, 4, Fraction(2)),
                UndirectedEdge(4, 0, Fraction(1)),
                UndirectedEdge(1, 4, Fraction(2)),
                UndirectedEdge(2, 5, Fraction(1)),
                UndirectedEdge(5, 3, Fraction(1)),
            ),
        )
        return tri, square

    def test_matches_path_oracle_single_commodity(self):
        tri, square = self.fixture_nets()
        cases = [
            (tri, 1, [(0, 2)]),
            (tri, 3, [(0, 2)]),
            (tri, 2, [(0, 1)]),
            (square, 2, [(0, 3)]),
            (square, 4, [(1, 3)]),
            (square, 5, [(0, 4)]),
        ]
        for net, w, commodities in cases:
            lp_value = undirected_max_swt(net, w, commodities)
            oracle = undirected_swt_path_oracle(net, w, commodities)
            assert lp_value == pytest.approx(oracle, abs=1e-6)

    def test_matches_path_oracle_two_commodities(self):
        tri, square = self.fixture_nets()
        assert undirected_max_swt(tri, 1, [(0, 2), (3, 2)]) == pytest.approx(
            undirected_swt_path_oracle(tri, 1, [(0, 2), (3, 2)]), abs=1e-6
        )
        assert undirected_max_swt(square, 2, [(0, 3), (1, 5)]) == pytest.approx(
            undirected_swt_path_oracle(square, 2, [(0, 3), (1, 5)]), abs=1e-6
        )

    def test_rejects_degenerate_commodities(self):
        tri, _ = self.fixture_nets()
        with pytest.raises(ValueError):
            undirected_max_swt(tri, 1, [(1, 2)])

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            UndirectedEdge(2, 2, Fraction(1))
        with pytest.raises(ValueError):
            UndirectedEdge(0, 1, Fraction(0))


def _dict_row_path_flow_lp(edge_groups, capacities, demand_caps=None):
    """The path-flow LP as it was built row by row before the shared
    incidence: reference for the array-for-array comparison."""
    lp = RowLp(maximize=True)
    path_vars = []
    per_edge = {}
    for group in edge_groups:
        gvars = []
        for edges in group:
            var = lp.add_var(objective=1.0)
            gvars.append(var)
            for eid in edges:
                per_edge.setdefault(eid, {})[var] = (
                    per_edge.setdefault(eid, {}).get(var, 0.0) + 1.0
                )
        path_vars.append(gvars)
    for eid, coeffs in sorted(per_edge.items()):
        lp.add_row(coeffs, LE, float(capacities[eid]))
    if demand_caps is not None:
        for gvars, cap in zip(path_vars, demand_caps):
            if gvars:
                lp.add_row({v: 1.0 for v in gvars}, LE, cap)
    return lp.sparse()


def _dict_row_undirected_aux_lp(undirected, w, commodities):
    """The undirected auxiliary LP as it was built row by row before the COO
    assembly: reference for the array-for-array comparison."""
    n = undirected.node_count
    n_comm = len(commodities)
    # Arc list: two per undirected edge, then (s_i, z_i), (t_i, z_i), (z_i, z).
    arcs = []
    arc_pairs = []  # (forward, backward) per undirected edge
    for e in undirected.edges:
        arcs.append((e.u, e.v, e.capacity))
        arcs.append((e.v, e.u, e.capacity))
        arc_pairs.append((len(arcs) - 2, len(arcs) - 1))
    z_nodes = [n + i for i in range(n_comm)]
    z_super = n + n_comm
    collector_arcs = []  # (s_i arc, t_i arc) per commodity
    for i, (s, t) in enumerate(commodities):
        arcs.append((s, z_nodes[i], None))
        arcs.append((t, z_nodes[i], None))
        collector_arcs.append((len(arcs) - 2, len(arcs) - 1))
        arcs.append((z_nodes[i], z_super, None))

    lp = RowLp(maximize=True)
    flow_vars = [[lp.add_var() for _ in arcs] for _ in range(n_comm)]
    for i in range(n_comm):
        for j, (tail, head, _) in enumerate(arcs):
            if head in z_nodes and head != z_nodes[i]:
                lp.upper[flow_vars[i][j]] = 0.0
            if tail in z_nodes and tail != z_nodes[i]:
                lp.upper[flow_vars[i][j]] = 0.0
    for i in range(n_comm):
        for j, (tail, head, _) in enumerate(arcs):
            if tail == w:
                lp.objective[flow_vars[i][j]] += 1.0
            if head == w:
                lp.objective[flow_vars[i][j]] -= 1.0
    for j, (_, _, cap) in enumerate(arcs):
        if cap is not None:
            lp.add_row(
                {flow_vars[i][j]: 1.0 for i in range(n_comm)}, LE, float(cap)
            )
    for i in range(n_comm):
        for u in range(n + n_comm):
            if u == w:
                continue
            coeffs = {}
            for j, (tail, head, _) in enumerate(arcs):
                if tail == u:
                    coeffs[flow_vars[i][j]] = coeffs.get(flow_vars[i][j], 0.0) + 1.0
                if head == u:
                    coeffs[flow_vars[i][j]] = coeffs.get(flow_vars[i][j], 0.0) - 1.0
            if coeffs:
                lp.add_row(coeffs, EQ, 0.0)
    for i in range(n_comm):
        for (fwd, bwd), e in zip(arc_pairs, undirected.edges):
            lp.add_row(
                {flow_vars[i][fwd]: 1.0, flow_vars[i][bwd]: 1.0},
                LE,
                float(e.capacity),
            )
    for i, (s_arc, t_arc) in enumerate(collector_arcs):
        lp.add_row(
            {flow_vars[i][s_arc]: 1.0, flow_vars[i][t_arc]: -1.0}, EQ, 0.0
        )
    return lp.sparse()


def _old_undirected_walks(undirected, s, t, w):
    """The undirected oracle's former walker: s-w-t walks as edge-id tuples."""
    found = []

    def extend(node, used, edge_seq, seen_w):
        if node == t and edge_seq and seen_w:
            found.append(tuple(edge_seq))
        for eid, e in enumerate(undirected.edges):
            if e.u == node:
                nxt, key = e.v, (eid, True)
            elif e.v == node:
                nxt, key = e.u, (eid, False)
            else:
                continue
            if key in used:
                continue
            used.add(key)
            edge_seq.append(eid)
            extend(nxt, used, edge_seq, seen_w or nxt == w)
            edge_seq.pop()
            used.remove(key)

    extend(s, set(), [], s == w)
    return found


def _assert_same_matrix(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _assert_same_lp(new, old):
    assert new.maximize == old.maximize
    for name in ("objective", "lower", "upper", "b_ub", "b_eq"):
        x, y = getattr(new, name), getattr(old, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    _assert_same_matrix(new.a_ub, old.a_ub)
    _assert_same_matrix(new.a_eq, old.a_eq)


def _random_undirected(rng):
    n = rng.choice([4, 5, 6])
    pairs = rng.sample(
        list(itertools.combinations(range(n), 2)), rng.randint(n - 1, n + 1)
    )
    edges = tuple(
        UndirectedEdge(*((u, v) if rng.random() < 0.5 else (v, u)),
                       Fraction(rng.randint(1, 3)))
        for u, v in pairs
    )
    return UndirectedNetwork(tuple(f"u{i}" for i in range(n)), edges)


class TestSharedIncidence:
    """Every path program is derived from one paths x edges incidence; each
    equals, array for array, the program the oracles built before it."""

    def test_path_flow_lp_equals_dict_row_build(self):
        built, empty_groups, weak = 0, 0, 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.choice([5, 6])
            net = random_digraph(n, 0.3, 900 + seed, max_capacity=4)
            pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
            weak += any(not enumerate_paths(net, s, t) for s, t in pairs)
            commodities = rng.sample(pairs, 3)
            w = rng.randrange(n)
            groups = [
                [p for p in enumerate_paths(net, s, t) if p.visits(w)]
                for s, t in commodities
            ]
            empty_groups += any(not g for g in groups)
            caps = [float(rng.randint(0, 5)) for _ in commodities]
            for demand_caps in (None, caps):
                _assert_same_lp(
                    oracles._path_flow_lp(
                        groups, net.float_capacities, demand_caps
                    ),
                    _dict_row_path_flow_lp(
                        [[p.edges for p in g] for g in groups],
                        net.float_capacities, demand_caps,
                    ),
                )
                built += 1
        assert built == 80 and empty_groups >= 10 and weak >= 30

    def test_packing_program_equals_lil_build(self, monkeypatch):
        calls = []

        def recording_milp(**kwargs):
            calls.append(kwargs)
            return real_milp(**kwargs)

        real_milp = oracles.milp
        monkeypatch.setattr(oracles, "milp", recording_milp)
        compared = 0
        for net, s, w, t in seeded_swt_instances(30, start_seed=300):
            paths = [p for p in enumerate_paths(net, s, t) if p.visits(w)]
            calls.clear()
            oracles._integral_packing(paths, net.float_capacities, 1)
            # The former build, from the dict of integral capacities.
            capacities = {eid: int(e.capacity) for eid, e in enumerate(net.edges)}
            eids = sorted(capacities)
            row_of = {eid: i for i, eid in enumerate(eids)}
            a = lil_matrix((len(eids), len(paths)))
            for j, path in enumerate(paths):
                for eid in path.edges:
                    a[row_of[eid], j] += 1.0
            caps = np.array([float(capacities[eid]) for eid in eids])
            bottleneck = np.array(
                [float(min(capacities[eid] for eid in p.edges)) for p in paths]
            )
            (call,) = calls
            _assert_same_matrix(call["constraints"].A, a.tocsr())
            assert np.array_equal(call["constraints"].ub, caps)
            assert np.array_equal(call["bounds"].ub, bottleneck)
            assert (call["bounds"].lb == 0.0).all()
            compared += 1
        assert compared == 30

    def test_undirected_walks_equal_former_walker(self, monkeypatch):
        seen = []

        def recording(groups, capacities, demand_caps=None):
            seen.append((groups, capacities))
            return real(groups, capacities, demand_caps)

        real = oracles._solve_path_flow
        monkeypatch.setattr(oracles, "_solve_path_flow", recording)
        rng = random.Random(2024)
        walks = 0
        for _ in range(200):
            net = _random_undirected(rng)
            s, w, t = rng.sample(range(net.node_count), 3)
            commodities = [(s, t), (t, s)]
            seen.clear()
            undirected_swt_path_oracle(net, w, commodities)
            ((groups, capacities),) = seen
            expected = [_old_undirected_walks(net, a, b, w) for a, b in commodities]
            assert [[p.edges for p in g] for g in groups] == expected
            capacity_list = [float(e.capacity) for e in net.edges]
            assert capacities.tolist() == capacity_list
            _assert_same_lp(
                oracles._path_flow_lp(groups, capacities),
                _dict_row_path_flow_lp(expected, capacity_list),
            )
            walks += sum(map(len, expected))
        assert walks > 1000

    def test_undirected_aux_lp_equals_dict_row_build(self):
        """The auxiliary LP of undirected_max_swt, assembled from COO arrays,
        equals the former row-by-row build array for array, so HiGHS gets
        the same program: on the fixture networks (also without commodities)
        and on 40 random ones with one to three commodities, isolated nodes
        and isolated w among them."""
        cases = [
            (net, w, commodities)
            for net in TestUndirected().fixture_nets()
            for w, commodities in ((1, [(0, 2)]), (3, [(0, 2), (1, 2)]),
                                   (2, [(0, 1), (3, 0), (1, 3)]), (0, []))
        ]
        rng = random.Random(11)
        for _ in range(40):
            net = _random_undirected(rng)
            w = rng.randrange(net.node_count)
            others = [v for v in range(net.node_count) if v != w]
            count = rng.randint(1, 3)
            cases.append((net, w, [tuple(rng.sample(others, 2)) for _ in range(count)]))
        isolated = isolated_w = 0
        for net, w, commodities in cases:
            _assert_same_lp(
                oracles._undirected_aux_lp(net, w, commodities),
                _dict_row_undirected_aux_lp(net, w, commodities),
            )
            touched = {x for e in net.edges for x in (e.u, e.v)}
            isolated += len(touched) < net.node_count
            isolated_w += w not in touched
        assert len(cases) == 48 and isolated >= 5 and isolated_w >= 1

    def test_undirected_oracle_rejects_parallel_edges_and_duplicate_names(self):
        parallel = UndirectedNetwork(
            ("a", "b", "c"),
            (UndirectedEdge(0, 1, Fraction(1)), UndirectedEdge(1, 0, Fraction(2)),
             UndirectedEdge(1, 2, Fraction(1))),
        )
        with pytest.raises(TopologyError, match="parallel edge"):
            undirected_swt_path_oracle(parallel, 1, [(0, 2)])
        twins = UndirectedNetwork(
            ("a", "a", "c"),
            (UndirectedEdge(0, 1, Fraction(1)), UndirectedEdge(1, 2, Fraction(1))),
        )
        with pytest.raises(TopologyError, match="duplicate node names"):
            undirected_swt_path_oracle(twins, 1, [(0, 2)])


def dfs_has_swt_path(network, s, w, t, removed):
    """has_swt_path on the network without the ``removed`` edges, by a DFS
    that treats them as already used."""
    used = [False] * network.edge_count
    for eid in removed:
        used[eid] = True

    def walk(node, seen_w):
        if node == t and seen_w:
            return True
        for eid in network.out_edges[node]:
            if not used[eid]:
                used[eid] = True
                head = network.edges[eid].head
                found = walk(head, seen_w or head == w)
                used[eid] = False
                if found:
                    return True
        return False

    return walk(s, s == w)


def dfs_min_swt_cut(network, s, w, t):
    """The min-cut search that tests each removed set by a fresh DFS walk."""
    paths = [p for p in enumerate_paths(network, s, t) if p.visits(w)]
    if not paths:
        return frozenset(), Fraction(0)
    relevant = sorted({eid for p in paths for eid in p.edges})
    best = [None, None]

    def search(i, removed, cost):
        if best[1] is not None and cost >= best[1]:
            return
        if not dfs_has_swt_path(network, s, w, t, removed):
            best[:] = frozenset(removed), cost
            return
        if i == len(relevant):
            return
        eid = relevant[i]
        removed.add(eid)
        search(i + 1, removed, cost + network.edges[eid].capacity)
        removed.remove(eid)
        search(i + 1, removed, cost)

    search(0, set(), Fraction(0))
    return tuple(best)


def test_min_cut_by_path_bitmasks_equals_dfs_search():
    """Testing a removed set against one edge bitmask per s-w-t path finds
    the cut set and cost the DFS walk per set finds: on criterion 3's 30
    instances and on 200 random digraphs, some without an s-w-t path."""
    fixtures = list(seeded_swt_instances(30))
    rng = random.Random(2024)
    while len(fixtures) < 230:
        n = rng.choice([4, 5, 6, 7])
        net = random_digraph(
            n, rng.choice([0.25, 0.3, 0.4]), rng.randrange(10**6),
            max_capacity=rng.choice([1, 3, 5]),
        )
        if net.edge_count:
            fixtures.append((net, *rng.sample(range(n), 3)))
    nonempty = 0
    for net, s, w, t in fixtures:
        got = min_swt_cut(net, s, w, t)
        assert got == dfs_min_swt_cut(net, s, w, t)
        nonempty += bool(got[0])
    assert 30 < nonempty < len(fixtures)


def test_flow_and_cut_of_one_instance_enumerate_its_paths_once(monkeypatch):
    """max_swt_flow and then min_swt_cut of one instance, as the flow = cut
    checks call them, list the s-t paths once between them."""
    calls = []
    real = oracles.enumerate_paths

    def counting(network, s, t, *args):
        calls.append((s, t))
        return real(network, s, t, *args)

    monkeypatch.setattr(oracles, "enumerate_paths", counting)
    oracles._swt_paths.cache_clear()
    instances = list(seeded_swt_instances(6))
    for net, s, w, t in instances:
        flow = max_swt_flow(net, s, w, t)
        _, cut = min_swt_cut(net, s, w, t)
        assert flow.value == pytest.approx(float(cut), abs=1e-6)
    assert calls == [(s, t) for _, s, _, t in instances]


@pytest.mark.parametrize("seed", range(4))
def test_swt_walk_with_removed_edges_equals_rebuilt_network(seed):
    """The reference cut search's walk over a removed-edge set answers as
    has_swt_path does on the network rebuilt without those edges."""
    rng = random.Random(seed)
    for trial in range(40):
        n = rng.choice([5, 6, 7])
        net = random_digraph(n, 0.35, 100 * seed + trial, max_capacity=3)
        s, w, t = rng.sample(range(n), 3)
        removed = {
            eid for eid in range(net.edge_count) if rng.random() < 0.25
        }
        kept = tuple(
            e for eid, e in enumerate(net.edges) if eid not in removed
        )
        rebuilt = FlowNetwork(net.node_names, kept)
        assert dfs_has_swt_path(net, s, w, t, removed) == has_swt_path(
            rebuilt, s, w, t
        )
