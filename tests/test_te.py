"""Tunnel enumeration and the TE_LU / TE_MF / multipath-baseline programs."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from srte.graph import Commodity, DemandMatrix, random_connected_digraph, random_digraph
from srte.lp import EQ, LE, LpStatus, solve_lp
from srte.paths import ShortestPathCache
from srte.te import (
    LU,
    MF,
    NoTunnelError,
    Tunnel,
    TunnelPool,
    build_mp_baseline,
    build_te_lu,
    build_te_mf,
    solve_te,
    tunnels_for_middlepoints,
)

from conftest import RowLp, enumerate_shortest_paths, make_demands, make_net


def solve_lu(network, demands, middlepoints, m, single=False):
    cache = ShortestPathCache(network)
    tunnels = tunnels_for_middlepoints(cache, demands, middlepoints, m, single)
    return solve_te(build_te_lu(cache, demands, tunnels))


class TestTunnelEnumeration:
    def line5(self):
        # Every segment between s, m1, m2, t is reachable.
        return make_net(
            [
                (0, 1, 1), (0, 2, 1), (0, 3, 1),
                (1, 2, 1), (2, 1, 1), (1, 3, 1), (2, 3, 1),
            ],
            names=("s", "m1", "m2", "t"),
        )

    def tunnels(self, net, commodity, middlepoints, m, single=False):
        """The tunnels of a one-commodity demand matrix."""
        (tunnels,) = tunnels_for_middlepoints(
            ShortestPathCache(net), DemandMatrix((commodity,)), middlepoints, m,
            single,
        )
        return tunnels

    def test_two_middlepoints_m2_gives_five_tunnels(self):
        tunnels = self.tunnels(self.line5(), Commodity(0, 3, 1.0), [1, 2], 2)
        seqs = [t.waypoints for t in tunnels]
        assert seqs == [
            (0, 1, 2, 3),
            (0, 1, 3),
            (0, 2, 1, 3),
            (0, 2, 3),
            (0, 3),
        ]

    def test_single_middlepoint_flag_drops_direct_tunnel(self):
        tunnels = self.tunnels(
            self.line5(), Commodity(0, 3, 1.0), [1, 2], 2, single=True
        )
        assert [t.waypoints for t in tunnels] == [(0, 1, 3), (0, 2, 3)]

    def test_endpoint_middlepoints_are_skipped(self):
        tunnels = self.tunnels(self.line5(), Commodity(0, 3, 1.0), [0, 3], 1)
        assert [t.waypoints for t in tunnels] == [(0, 3)]
        # With m above the other middlepoints, no tunnel passes an endpoint.
        tunnels = self.tunnels(self.line5(), Commodity(0, 3, 1.0), [0, 1, 3], 3)
        assert [t.waypoints for t in tunnels] == [(0, 1, 3), (0, 3)]

    def test_unreachable_segments_prune_tunnels(self):
        # m cannot reach t, so (s, m, t) is not a tunnel.
        net = make_net([(0, 1, 1), (0, 2, 1)], names=("s", "m", "t"))
        tunnels = self.tunnels(net, Commodity(0, 2, 1.0), [1], 1)
        assert [t.waypoints for t in tunnels] == [(0, 2)]

    def test_tunnel_segments(self):
        t = Tunnel(0, (5, 1, 2, 7))
        assert t.middlepoints == (1, 2)
        assert t.segments == ((5, 1), (1, 2), (2, 7))


class TestTeLu:
    def test_middlepoint_fixture_exact(self, middlepoint_fixture):
        """Direct cap 3 vs detour cap 2, demand 3: theta* = 3/5, 9/5 / 6/5."""
        demands = make_demands((0, 2, 3))
        sol = solve_lu(middlepoint_fixture, demands, [1], 1)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.theta == pytest.approx(0.6, abs=1e-6)
        flows = {t.waypoints: f for t, f in sol.tunnel_flows.items()}
        assert flows[(0, 2)] == pytest.approx(1.8, abs=1e-6)
        assert flows[(0, 1, 2)] == pytest.approx(1.2, abs=1e-6)

    def test_middlepoint_fixture_grid_search(self, middlepoint_fixture):
        """Split-ratio grid at 1e-4 resolution agrees with the LP."""
        demands = make_demands((0, 2, 3))
        best = min(
            max(3 * x / 3.0, 3 * (1 - x) / 2.0)
            for x in np.arange(0.0, 1.0 + 1e-12, 1e-4)
        )
        sol = solve_lu(middlepoint_fixture, demands, [1], 1)
        assert sol.theta == pytest.approx(best, abs=1e-4)

    def test_split_ratios_sum_to_one(self, middlepoint_fixture):
        sol = solve_lu(middlepoint_fixture, make_demands((0, 2, 3)), [1], 1)
        total = sum(sol.split_ratios.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_max_utilization_equals_theta(self, middlepoint_fixture):
        sol = solve_lu(middlepoint_fixture, make_demands((0, 2, 3)), [1], 1)
        assert max(sol.edge_utilization.values()) == pytest.approx(
            sol.theta, abs=1e-6
        )

    def test_demand_scaling_scales_theta(self):
        net = random_connected_digraph(8, 20, 3)
        demands = make_demands((0, 4, 2), (1, 5, 1))
        a = solve_lu(net, demands, [2, 3], 1)
        b = solve_lu(net, demands.scaled(2.5), [2, 3], 1)
        assert b.theta == pytest.approx(2.5 * a.theta, rel=1e-6)

    def test_more_middlepoints_never_hurt(self):
        net = random_connected_digraph(8, 20, 5)
        demands = make_demands((0, 4, 2), (1, 5, 1), (6, 2, 1))
        prev = solve_lu(net, demands, [], 1).theta
        for mids in ([3], [3, 7], [3, 7, 2]):
            cur = solve_lu(net, demands, mids, 1).theta
            assert cur <= prev + 1e-9
            prev = cur

    def test_larger_m_never_hurts(self):
        net = random_connected_digraph(8, 20, 7)
        demands = make_demands((0, 4, 2), (1, 5, 1))
        theta1 = solve_lu(net, demands, [2, 3], 1).theta
        theta2 = solve_lu(net, demands, [2, 3], 2).theta
        assert theta2 <= theta1 + 1e-9

    def test_no_tunnel_raises(self):
        net = make_net([(0, 1, 1), (2, 1, 1)], names=("s", "t", "x"))
        demands = make_demands((1, 0, 1))  # t cannot reach s
        cache = ShortestPathCache(net)
        with pytest.raises(NoTunnelError):
            tunnels = tunnels_for_middlepoints(cache, demands, [], 1)
            build_te_lu(cache, demands, tunnels)

    def test_zero_demand_commodity_is_unconstrained(self):
        net = make_net([(0, 1, 1)], names=("s", "t"))
        demands = DemandMatrix((Commodity(1, 0, 0.0),))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [], 1)
        sol = solve_te(build_te_lu(cache, demands, tunnels))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.theta == pytest.approx(0.0, abs=1e-9)


class TestIndependentFormulation:
    @pytest.mark.parametrize("seed", range(3))
    def test_lu_matches_enumerated_load_formulation(self, seed):
        """Rebuild the LP with edge loads derived from exhaustive shortest-path
        enumeration (not the counting DAGs) and compare optima."""
        net = random_connected_digraph(8, 22, seed, max_capacity=5)
        demands = make_demands((0, 5, 3), (2, 7, 2), (6, 1, 1))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [3, 4], 2)
        sol = solve_te(build_te_lu(cache, demands, tunnels))

        edge_id = {(e.tail, e.head): i for i, e in enumerate(net.edges)}
        lp = RowLp()
        theta = lp.add_var(objective=1.0)
        per_edge = {}
        per_commodity = [[] for _ in demands.commodities]
        for group in tunnels:
            for tun in group:
                var = lp.add_var()
                per_commodity[tun.commodity].append(var)
                loads = {}
                for a, b in tun.segments:
                    _, paths = enumerate_shortest_paths(net, a, b)
                    for p in paths:
                        for u, v in zip(p, p[1:]):
                            eid = edge_id[(u, v)]
                            loads[eid] = loads.get(eid, Fraction(0)) + Fraction(
                                1, len(paths)
                            )
                for eid, load in loads.items():
                    per_edge.setdefault(eid, {})[var] = float(load)
        for eid in range(net.edge_count):
            coeffs = dict(per_edge.get(eid, {}))
            coeffs[theta] = -float(net.edges[eid].capacity)
            lp.add_row(coeffs, LE, 0.0)
        for i, c in enumerate(demands.commodities):
            lp.add_row({v: -1.0 for v in per_commodity[i]}, LE, -c.demand)
        independent = solve_lp(lp.sparse())
        assert independent.status is LpStatus.OPTIMAL
        assert sol.theta == pytest.approx(independent.objective_value, abs=1e-7)


def exact_tunnel_loads(network, tunnel, paths_of):
    """Exact per-edge load of one unit of flow on the tunnel, from path
    enumeration; also whether two of its segments share an edge."""
    edge_id = {(e.tail, e.head): i for i, e in enumerate(network.edges)}
    loads, seen, shared = {}, set(), False
    for a, b in tunnel.segments:
        if (a, b) not in paths_of:
            paths_of[(a, b)] = enumerate_shortest_paths(network, a, b)[1]
        paths = paths_of[(a, b)]
        used = {}
        for p in paths:
            for u, v in zip(p, p[1:]):
                used[edge_id[(u, v)]] = used.get(edge_id[(u, v)], 0) + 1
        shared = shared or not seen.isdisjoint(used)
        seen.update(used)
        for eid, count in used.items():
            loads[eid] = loads.get(eid, Fraction(0)) + Fraction(count, len(paths))
    return loads, shared


def dict_row_matrices(kind, cache, demands, groups):
    """The tunnel program's <= block built independently, row by row.

    Rows are coefficient dicts as a row-form LP holds them (a >= row is
    negated), assembled into CSR the way the row-form solver front end did.
    """
    network = cache.network
    first = 1 if kind == LU else 0
    per_edge, per_commodity, var = {}, [[] for _ in groups], first
    for i, group in enumerate(groups):
        for tun in group:
            loads = {}
            for a, b in tun.segments:
                for eid, frac in cache.fractions(a, b).fractions.items():
                    loads[eid] = loads.get(eid, Fraction(0)) + frac
            for eid, load in loads.items():
                per_edge.setdefault(eid, {})[var] = float(load)
            per_commodity[i].append(var)
            var += 1
    rows = []
    for eid, edge in enumerate(network.edges):
        coeffs = dict(per_edge.get(eid, {}))
        if kind == LU:
            coeffs[0] = -float(edge.capacity)
            rows.append((coeffs, 0.0))
        elif coeffs:
            rows.append((coeffs, float(edge.capacity)))
    for i, commodity in enumerate(demands.commodities):
        if kind == LU and commodity.demand > 0:
            rows.append(({v: -1.0 for v in per_commodity[i]}, -commodity.demand))
        elif kind == MF and per_commodity[i]:
            rows.append(({v: 1.0 for v in per_commodity[i]}, commodity.demand))
    data, row_idx, col_idx = [], [], []
    for r, (coeffs, _) in enumerate(rows):
        for j, a in coeffs.items():
            row_idx.append(r)
            col_idx.append(j)
            data.append(a)
    a_ub = csr_matrix((data, (row_idx, col_idx)), shape=(len(rows), var))
    return a_ub, np.array([rhs for _, rhs in rows])


class TestSparseAssembly:
    @pytest.mark.parametrize("seed", range(6))
    def test_coefficients_are_rounded_exact_sums(self, seed):
        """Every load (and LP) coefficient is float(exact sum over segments),
        also for tunnels whose segments share an edge. On seeds 2, 4 and 5
        some of those sums differ from the sum of per-segment floats."""
        net = random_connected_digraph(8, 22, seed, max_capacity=5)
        if seed % 2:
            net = net.with_costs(
                [Fraction(1 + i % 3, 1 + i % 2) for i in range(net.edge_count)]
            )
        demands = make_demands((0, 5, 3), (2, 7, 2), (6, 1, 1), (4, 3, 2))
        cache = ShortestPathCache(net)
        groups = tunnels_for_middlepoints(cache, demands, range(8), 2)
        program = build_te_lu(cache, demands, groups)
        loads = program.loads.tocsc()
        capacity_block = program.lp.a_ub[: net.edge_count].tocsc()
        paths_of, shared = {}, 0
        for j, tun in enumerate(program.tunnels):
            exact, overlap = exact_tunnel_loads(net, tun, paths_of)
            shared += overlap
            expected = {eid: float(load) for eid, load in exact.items()}
            column = loads[:, [j]]
            assert dict(zip(column.indices.tolist(), column.data.tolist())) == expected
            lp_column = capacity_block[:, [program.first_tunnel_var + j]]
            assert dict(
                zip(lp_column.indices.tolist(), lp_column.data.tolist())
            ) == expected
        assert shared > 0

    @pytest.mark.parametrize("kind", [LU, MF])
    @pytest.mark.parametrize("seed", range(3))
    def test_matrices_equal_dict_row_build(self, kind, seed):
        if kind == LU:
            net = random_connected_digraph(9, 24, seed, max_capacity=7)
        else:  # not strongly connected: some commodities have no tunnel
            net = random_digraph(9, 0.25, seed, max_capacity=7)
        demands = make_demands((0, 5, 3), (2, 7, 0), (6, 1, 1.5), (8, 3, 2))
        cache = ShortestPathCache(net)
        groups = tunnels_for_middlepoints(cache, demands, [1, 4, 5, 6], 2)
        builder = build_te_lu if kind == LU else build_te_mf
        lp = builder(cache, demands, groups).lp
        a_ub, b_ub = dict_row_matrices(kind, cache, demands, groups)
        assert lp.a_ub.shape == a_ub.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lp.a_ub, name), getattr(a_ub, name))
        assert np.array_equal(lp.b_ub, b_ub)
        assert lp.a_eq.shape[0] == 0
        objective = np.ones(lp.num_vars)
        if kind == LU:
            objective[1:] = 0.0
        assert np.array_equal(lp.objective, objective)
        assert lp.maximize == (kind == MF)
        assert np.all(lp.lower == 0.0) and np.all(lp.upper == np.inf)
        assert len(lp.rows) == a_ub.shape[0]
        assert sum(len(coeffs) for coeffs, _, _ in lp.rows) == a_ub.nnz

    @pytest.mark.parametrize("kind", [LU, MF])
    def test_utilization_equals_loop_decode(self, kind):
        """The mat-vec decode adds each edge's loads in tunnel order, exactly
        as a loop over tunnels does, so the floats are equal, not close."""
        net = random_connected_digraph(9, 24, 4, max_capacity=7)
        demands = make_demands((0, 5, 3), (2, 7, 2), (6, 1, 1.5), (8, 3, 2))
        cache = ShortestPathCache(net)
        groups = tunnels_for_middlepoints(cache, demands, range(9), 2)
        builder = build_te_lu if kind == LU else build_te_mf
        sol = solve_te(builder(cache, demands, groups))
        expected = {eid: 0.0 for eid in range(net.edge_count)}
        for tun, flow in sol.tunnel_flows.items():
            loads = {}
            for a, b in tun.segments:
                for eid, frac in cache.fractions(a, b).fractions.items():
                    loads[eid] = loads.get(eid, Fraction(0)) + frac
            for eid, load in loads.items():
                expected[eid] += flow * float(load)
        for eid, edge in enumerate(net.edges):
            expected[eid] /= float(edge.capacity)
        assert sol.edge_utilization == expected


class TestTeMf:
    def test_disjoint_direct_tunnels_fully_satisfied(self):
        net = make_net([(0, 1, 5), (2, 3, 4)])
        demands = make_demands((0, 1, 5), (2, 3, 4))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [], 1)
        sol = solve_te(build_te_mf(cache, demands, tunnels))
        assert sol.satisfaction_ratio == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_half_satisfied(self):
        net = make_net([(0, 1, 1)])
        demands = make_demands((0, 1, 2))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [], 1)
        sol = solve_te(build_te_mf(cache, demands, tunnels))
        assert sol.satisfaction_ratio == pytest.approx(0.5, abs=1e-9)
        assert sol.satisfied_total == pytest.approx(1.0, abs=1e-9)

    def test_unconnected_commodity_contributes_nothing(self):
        net = make_net([(0, 1, 5), (3, 2, 1)])
        demands = make_demands((0, 1, 5), (2, 3, 1))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [], 1)
        sol = solve_te(build_te_mf(cache, demands, tunnels))
        assert sol.satisfied_total == pytest.approx(5.0, abs=1e-9)


class TestMpBaseline:
    def test_single_path_theta_is_demand_over_capacity(self):
        net = make_net([(0, 1, 4)])
        demands = make_demands((0, 1, 3))
        sol = solve_te(build_mp_baseline(net, demands, LU))
        assert sol.theta == pytest.approx(0.75, abs=1e-9)

    def test_mp_is_lower_bound_for_segment_routing(self):
        net = random_connected_digraph(9, 24, 11)
        demands = make_demands((0, 4, 2), (1, 6, 1), (7, 3, 2))
        mp = solve_te(build_mp_baseline(net, demands, LU))
        sr = solve_lu(net, demands, [2, 5], 2)
        assert mp.theta <= sr.theta + 1e-7

    def test_mp_mf_is_upper_bound_for_segment_routing(self):
        net = make_net([(0, 1, 1)])
        demands = make_demands((0, 1, 2))
        mp = solve_te(build_mp_baseline(net, demands, MF))
        cache = ShortestPathCache(net)
        tunnels = tunnels_for_middlepoints(cache, demands, [], 1)
        sr = solve_te(build_te_mf(cache, demands, tunnels))
        assert mp.satisfied_total >= sr.satisfied_total - 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_mf_value_matches_path_lp_oracle(self, seed):
        """Arc-based MP max flow equals the explicit path-formulation value."""
        from srte import oracles

        net = random_digraph(7, 0.35, seed, max_capacity=4)
        demands = make_demands((0, 4, 3), (2, 6, 2))
        mp = solve_te(build_mp_baseline(net, demands, MF))
        # group_flow over all nodes imposes no path restriction (every path
        # visits its own source), so it is the unrestricted path LP.
        oracle = oracles.group_flow(net, demands, range(net.node_count))
        assert mp.satisfied_total == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_saturation_iff_theta_at_most_one(self, seed):
        """MP max-flow meets all demands exactly when MP TE_LU theta <= 1."""
        net = random_digraph(8, 0.35, seed, max_capacity=5)
        demands = make_demands((0, 4, 3), (2, 6, 2), (5, 1, 4))
        mf = solve_te(build_mp_baseline(net, demands, MF))
        lu = solve_te(build_mp_baseline(net, demands, LU))
        saturated = mf.satisfied_total == pytest.approx(
            demands.total_demand(), abs=1e-7
        )
        theta_ok = lu.status is LpStatus.OPTIMAL and lu.theta <= 1 + 1e-7
        assert saturated == theta_ok

    def test_infeasible_when_source_disconnected(self):
        net = make_net([(1, 0, 1)])
        demands = make_demands((0, 1, 1))
        sol = solve_te(build_mp_baseline(net, demands, LU))
        assert sol.status is LpStatus.INFEASIBLE

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            build_mp_baseline(make_net([(0, 1, 1)]), make_demands((0, 1, 1)), "x")

    def test_theta_disagreeing_with_utilization_raises(self, monkeypatch):
        """The MP decode checks theta against the largest utilization, as the
        tunnel decode does."""
        import srte.te

        real = srte.te.solve_lp

        def inflated_theta(lp, *args):
            sol = real(lp, *args)
            x = sol.x.copy()
            x[0] *= 2
            return dataclasses.replace(
                sol, objective_value=2 * sol.objective_value, x=x
            )

        program = build_mp_baseline(
            make_net([(0, 1, 4)]), make_demands((0, 1, 3)), LU
        )
        assert solve_te(program).theta == pytest.approx(0.75, abs=1e-9)
        monkeypatch.setattr(srte.te, "solve_lp", inflated_theta)
        with pytest.raises(ArithmeticError, match="reconstruction mismatch"):
            solve_te(program)


def dict_row_mp(network, demands, kind):
    """The MP baseline built independently as a row-form LP: per commodity
    its edge flows (and d[i] for MF), balance rows at every node but the sink
    (nodes without edges only at the source), then capacity rows."""
    lp = RowLp(maximize=(kind == MF))
    theta = lp.add_var(objective=1.0) if kind == LU else None
    flow = []
    for i, commodity in enumerate(demands.commodities):
        flow.append([lp.add_var() for _ in network.edges])
        delivered = (
            lp.add_var(objective=1.0, upper=commodity.demand)
            if kind == MF else None
        )
        for u in range(network.node_count):
            if u == commodity.sink:
                continue
            coeffs = {}
            for eid, e in enumerate(network.edges):
                if e.tail == u:
                    coeffs[flow[i][eid]] = coeffs.get(flow[i][eid], 0.0) + 1.0
                if e.head == u:
                    coeffs[flow[i][eid]] = coeffs.get(flow[i][eid], 0.0) - 1.0
            if u == commodity.source:
                if kind == LU:
                    lp.add_row(coeffs, EQ, commodity.demand)
                else:
                    lp.add_row({**coeffs, delivered: -1.0}, EQ, 0.0)
            elif coeffs:
                lp.add_row(coeffs, EQ, 0.0)
    for eid, e in enumerate(network.edges):
        coeffs = {f[eid]: 1.0 for f in flow}
        if kind == LU:
            lp.add_row({**coeffs, theta: -float(e.capacity)}, LE, 0.0)
        elif coeffs:
            lp.add_row(coeffs, LE, float(e.capacity))
    return lp


class TestMpAssembly:
    @pytest.mark.parametrize("kind", [LU, MF])
    @pytest.mark.parametrize(
        "case", ["connected", "sparse", "isolated-node", "no-demands"]
    )
    def test_sparse_lp_equals_dict_row_build(self, kind, case):
        demands = make_demands((0, 5, 3), (2, 7, 0), (6, 1, 1.5), (8, 3, 2))
        if case == "connected":
            net = random_connected_digraph(9, 24, 3, max_capacity=7)
        elif case == "sparse":  # unreachable pairs
            net = random_digraph(9, 0.2, 1, max_capacity=7)
        elif case == "isolated-node":
            # n1 and n4 have no edges: n1 is only a sink, so it has no row;
            # n4 is also a source, so it has one.
            net = make_net(
                [(0, 2, 1), (2, 3, 2), (3, 5, 1), (5, 0, 3), (6, 7, 2),
                 (7, 8, 1), (8, 6, 4), (2, 7, 1), (3, 0, 2)],
                names=tuple(f"n{i}" for i in range(9)),
            )
            assert not net.out_edges[4] and not net.in_edges[4]
            demands = DemandMatrix((*demands.commodities, Commodity(4, 0, 1.0)))
        else:
            net = random_connected_digraph(9, 24, 3, max_capacity=7)
            demands = DemandMatrix(())
        lp = build_mp_baseline(net, demands, kind).lp
        expected = dict_row_mp(net, demands, kind).sparse()
        for block in ("a_ub", "a_eq"):
            got, want = getattr(lp, block), getattr(expected, block)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("b_ub", "b_eq", "objective", "lower", "upper"):
            assert np.array_equal(getattr(lp, name), getattr(expected, name))
        assert lp.maximize == expected.maximize

    @pytest.mark.parametrize("kind", [LU, MF])
    def test_load_columns_follow_the_variables(self, kind):
        """Column j of the load matrix is variable first_tunnel_var + j: an
        identity block per commodity, a zero column for each d[i]."""
        net = random_connected_digraph(6, 14, 2, max_capacity=5)
        demands = make_demands((0, 3, 1), (4, 1, 2))
        program = build_mp_baseline(net, demands, kind)
        assert program.tunnels == []
        assert program.first_tunnel_var == (1 if kind == LU else 0)
        loads = program.loads.toarray()
        width = net.edge_count + (kind == MF)
        assert loads.shape == (net.edge_count, 2 * width)
        for i in range(2):
            block = loads[:, i * width:(i + 1) * width]
            assert np.array_equal(block[:, :net.edge_count], np.eye(net.edge_count))
            assert not block[:, net.edge_count:].any()


def assert_same_program(got, want):
    """Two TE programs are equal array for array, dtypes included."""
    for block in ("a_ub", "a_eq"):
        a, b = getattr(got.lp, block), getattr(want.lp, block)
        assert a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
    for name in ("b_ub", "b_eq", "objective", "lower", "upper"):
        x, y = getattr(got.lp, name), getattr(want.lp, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert got.lp.maximize == want.lp.maximize
    assert got.kind == want.kind and got.first_tunnel_var == want.first_tunnel_var
    assert got.tunnels == want.tunnels
    assert got.loads.shape == want.loads.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got.loads, name), getattr(want.loads, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)


class TestTunnelPool:
    def test_width_is_at_most_the_node_count(self):
        """A tunnel's middlepoints are distinct nodes, so the pool's padded
        middlepoint rows are at most node_count wide whatever m is, and its
        programs equal those of a pool with m = node_count."""
        net = random_connected_digraph(6, 14, 1, max_capacity=4)
        demands = make_demands((0, 5, 2), (3, 1, 1))
        cache = ShortestPathCache(net)
        huge = TunnelPool(cache, demands, 10**9)
        assert huge._middlepoints.shape[1] <= net.node_count
        exact = TunnelPool(cache, demands, net.node_count)
        for mids in ((), (2,), (1, 2, 4), range(6)):
            assert_same_program(huge.program(mids), exact.program(mids))
        assert len(huge.tunnels) == len(exact.tunnels) > 100

    def test_slices_equal_fresh_builds(self):
        """Every set's pool program is build_te_lu over that set's tunnels,
        array for array, or raises the same NoTunnelError, and its MF slice
        is build_te_mf's program; the pool holds exactly the tunnels of the
        sets it covered. The digraphs are not strongly connected, some
        commodities have zero demand or no route, and the sets include
        commodity endpoints."""
        seen = {
            "raised": 0, "built": 0, "mf": 0, "zero": 0, "unroutable": 0,
            "endpoint": 0,
        }
        for seed in range(6):
            rng = random.Random(seed)
            net = random_digraph(8, 0.3, seed, max_capacity=5)
            pairs = rng.sample([(s, t) for s in range(8) for t in range(8) if s != t], 5)
            demands = make_demands(
                *((s, t, rng.choice([0, 1, 2.5])) for s, t in pairs)
            )
            cache = ShortestPathCache(net)
            for c in demands.commodities:
                seen["zero"] += c.demand == 0
                seen["unroutable"] += not cache.reachable(c.source, c.sink)
            for m in (0, 1, 2):
                pool = TunnelPool(cache, demands, m)
                sets = [rng.sample(range(8), rng.randint(0, 4)) for _ in range(8)]
                pool.cover(sets[:3])  # the rest are covered when sliced
                for mids in sets:
                    seen["endpoint"] += any(
                        c.source in mids or c.sink in mids
                        for c in demands.commodities
                    )
                    groups = tunnels_for_middlepoints(cache, demands, mids, m)
                    assert_same_program(
                        pool.program(mids, MF), build_te_mf(cache, demands, groups)
                    )
                    seen["mf"] += 1
                    try:
                        want = build_te_lu(cache, demands, groups)
                    except NoTunnelError as exc:
                        with pytest.raises(NoTunnelError) as got:
                            pool.program(mids)
                        assert str(got.value) == str(exc)
                        seen["raised"] += 1
                        continue
                    assert_same_program(pool.program(mids), want)
                    seen["built"] += 1
                held = {
                    tun for mids in sets
                    for group in tunnels_for_middlepoints(cache, demands, mids, m)
                    for tun in group
                }
                assert len(pool.tunnels) == len(held) and set(pool.tunnels) == held
        assert all(seen.values()), seen

    def test_cover_only_appends(self):
        """A cover leaves the first entries of every pool array as they were,
        and a slice taken before later covers equals the same slice taken
        after them, array for array, its pool columns included."""
        net = random_connected_digraph(9, 24, 11, max_capacity=4)
        demands = make_demands((0, 8, 2), (3, 1, 1), (5, 2, 0), (7, 4, 1.5))
        pool = TunnelPool(ShortestPathCache(net), demands, 2)
        names = ("_commodity", "_middlepoints", "_ptr", "_edge_rows", "_loads")
        slices = []
        for batch in ([(1,)], [(2, 6)], [(1, 4), (0, 3, 6)], [range(9)]):
            held = (list(pool.tunnels), *(getattr(pool, n).copy() for n in names))
            pool.cover(batch)
            assert len(pool.tunnels) > len(held[0])
            assert pool.tunnels[:len(held[0])] == held[0]
            for name, old in zip(names, held[1:]):
                new = getattr(pool, name)
                assert new.dtype == old.dtype and np.array_equal(new[:len(old)], old)
            slices.append((batch[0], pool.program(batch[0])))
        for mids, old in slices:
            new = pool.program(mids)
            assert_same_program(new, old)
            assert np.array_equal(new.ids, old.ids)

    def test_order_is_the_commodity_waypoints_sort(self):
        """The lexsort of the sink-padded middlepoints is the (commodity,
        waypoints) order of the tunnels, whatever order they were appended
        in."""
        net = random_connected_digraph(7, 20, 3, max_capacity=4)
        demands = make_demands((0, 6, 1), (6, 0, 2), (2, 5, 1), (4, 1, 1))
        for m in range(4):
            pool = TunnelPool(ShortestPathCache(net), demands, m)
            for batch in ([(3,)], [(0, 5)], [(1, 2, 4)], [range(7)]):
                pool.cover(batch)
                tunnels = pool.tunnels
                want = sorted(
                    range(len(tunnels)),
                    key=lambda j: (tunnels[j].commodity, tunnels[j].waypoints),
                )
                assert pool._order.tolist() == want
