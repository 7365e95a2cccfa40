"""Tunnel enumeration and the TE_LU / TE_MF / multipath-baseline programs."""

import copy
import dataclasses
import itertools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from srte.graph import (
    Commodity,
    DemandMatrix,
    generate_gravity_demands,
    parse_demands,
    parse_topology,
    random_connected_digraph,
    random_digraph,
)
from srte.lp import EQ, LE, CsrMatrix, LpStatus, solve_lp
from srte.paths import ShortestPathCache, UnreachableSegment
import srte.te
from srte.te import (
    LU,
    MF,
    NoTunnelError,
    PoolModel,
    Tunnel,
    TunnelCapError,
    TunnelPool,
    build_mp_baseline,
    build_te_lu,
    build_te_mf,
    dual_weights,
    extension_bounds,
    solve_te,
    tunnels_for_middlepoints,
)

from conftest import (
    RowLp,
    enumerate_shortest_paths,
    make_demands,
    make_net,
    reference_extension_bounds,
    reference_load_matrix,
    reference_lu_columns,
    reference_lu_entries,
    reference_tunnel_loads,
    scipy_csr,
    segments_share_an_edge,
)


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


class TestEnumerationCap:
    def test_the_cap_counts_the_pairs_the_enumeration_tests(self, monkeypatch):
        """The count checked against ALL_NODES_PAIR_CAP is the number of
        (commodity, ordered middlepoint sequence) pairs the enumeration
        would test: a cap of exactly that passes, one less raises before
        any sequence is enumerated. The sets include commodity endpoints."""
        import itertools

        net = random_digraph(7, 0.3, 2, max_capacity=3)
        demands = make_demands((0, 6, 1), (2, 3, 2), (4, 5, 0))
        cache = ShortestPathCache(net)
        for mids, m, single in (
            (range(7), 2, False), (range(7), 3, False), ((1, 2, 5), 9, False),
            (range(7), 2, True), ((), 1, False),
        ):
            sizes = (1,) if single else range(min(m, len(mids)) + 1)
            pairs = sum(
                1 for c in demands.commodities for size in sizes
                for seq in itertools.permutations(mids, size)
                if c.source not in seq and c.sink not in seq
            )
            monkeypatch.setattr(srte.te, "ALL_NODES_PAIR_CAP", pairs)
            tunnels_for_middlepoints(cache, demands, mids, m, single)
            monkeypatch.setattr(srte.te, "ALL_NODES_PAIR_CAP", pairs - 1)
            monkeypatch.setattr(srte.te, "_routable", None)  # not reached
            with pytest.raises(TunnelCapError, match=f"^{pairs} "):
                tunnels_for_middlepoints(cache, demands, mids, m, single)
            monkeypatch.undo()


class TestDualBound:
    def test_dual_weights_are_feasible(self):
        """w >= 0 and c·w <= 1 (within rounding) from the duals of LU
        programs solved optimally."""
        for seed in range(4):
            net = random_connected_digraph(12, 40, seed, max_capacity=5)
            demands = generate_gravity_demands(net, 15, seed)
            pool = TunnelPool(ShortestPathCache(net), demands, 1)
            sol = solve_te(pool.program([1, 4, 7]))
            weights = dual_weights(net, sol.duals)
            assert (weights >= 0).all()
            assert net.float_capacities @ weights <= 1 + 1e-12

    def test_extension_bounds_price_each_set_over_its_own_program(self):
        """Each bound equals the demand-weighted sum of each commodity's
        least tunnel cost load·w over the program of the set plus that node
        (a loop over its columns), and is at most the set's theta. Sets of m
        0, 1 and 2, zero demands and commodities with endpoints in the set."""
        checked = 0
        for seed in range(4):
            net = random_connected_digraph(9, 26, seed, max_capacity=4)
            demands = make_demands((0, 8, 2), (3, 1, 1), (5, 2, 0), (7, 4, 1.5))
            volume = [c.demand for c in demands.commodities]
            for m in (0, 1, 2):
                pool = TunnelPool(ShortestPathCache(net), demands, m)
                chosen = [3, 6][: 1 + seed % 2]
                nodes = [v for v in range(9) if v not in chosen]
                pool.cover([*chosen, v] for v in nodes)
                parent = solve_te(pool.program(chosen))
                weights = dual_weights(net, parent.duals)
                got = extension_bounds(pool, chosen, nodes, parent.duals)
                assert got.shape == (len(nodes),)
                for v, bound in zip(nodes, got.tolist()):
                    program = pool.program([*chosen, v])
                    columns = scipy_csr(program.columns).toarray()
                    costs = columns[:, :net.edge_count] @ weights
                    least = {}
                    for j, i in enumerate(program.commodity.tolist()):
                        least[i] = min(least.get(i, np.inf), costs[j])
                    want = sum(volume[i] * least[i] for i in least if volume[i] > 0)
                    assert bound == pytest.approx(want, rel=1e-12, abs=1e-15)
                    assert bound <= solve_te(program).theta * (1 + 1e-12)
                    checked += 1
        assert checked == 4 * 3 * 8 - 6  # 4 seeds, 3 m, 7 or 8 nodes each

    @staticmethod
    def unit_and_scaled():
        """The benchmark-tier instance (n=30, seeds 4000/4500), and the same
        with every capacity and demand 10**6 times larger."""
        net = random_connected_digraph(30, 120, 4000, max_capacity=10)
        demands = generate_gravity_demands(net, 100, 4500)
        big = parse_topology("".join(
            f"EDGE {net.node_names[e.tail]} {net.node_names[e.head]} "
            f"{float(e.capacity) * 1e6!r} {e.cost}\n"
            for e in net.edges
        ))
        index = [big.node_index(name) for name in net.node_names]
        scaled = DemandMatrix(tuple(
            Commodity(index[c.source], index[c.sink], c.demand * 1e6)
            for c in demands.commodities
        ))
        return (net, demands), (big, scaled)

    def test_certificate_refuses_a_theta_short_of_optimal(self):
        """In the unit 10**6 times smaller, HiGHS stops at a feasible theta
        of 0.8878 that the other checks accept; its duals bound the optimum
        by 0.4775, so the solve raises. In the unit itself theta is
        certified."""
        (net, demands), (big, scaled) = self.unit_and_scaled()
        middlepoints = range(net.node_count)
        theta = solve_lu(net, demands, middlepoints, 1).theta
        assert theta == pytest.approx(0.720378, abs=1e-6)
        with pytest.raises(ArithmeticError, match=r"theta 0\.887763888 is not optimal"):
            solve_lu(big, scaled, middlepoints, 1)

    def test_mp_certificate_refuses_a_theta_short_of_optimal(self):
        """The MP program of the same instances: in the unit itself theta
        0.716333676 is certified; 10**6 times larger, HiGHS stops at 1.0707,
        which the demand-weighted least path costs at its duals (0.0026)
        refute."""
        (net, demands), (big, scaled) = self.unit_and_scaled()
        theta = solve_te(build_mp_baseline(net, demands, LU)).theta
        assert f"{theta:.9g}" == "0.716333676"
        with pytest.raises(
            ArithmeticError,
            match=r"theta 1\.07071287 is not optimal, its row duals bound the "
            r"optimum below by 0\.0026",
        ):
            solve_te(build_mp_baseline(big, scaled, LU))

    def test_mp_bound_crosses_edges_of_zero_weight(self):
        """The MP bound's least path costs take edges of weight 0, whose
        rows do not bind, as edges of cost 0: here every edge into the sink
        has weight 0, so without them no sink would be reachable, and the
        bound equals theta."""
        net = make_net([
            (0, 1, 1), (1, 3, 100), (0, 2, 1), (2, 3, 100), (1, 2, 100),
        ])
        demands = make_demands((0, 3, 2), (1, 3, 0.5))
        sol = solve_te(build_mp_baseline(net, demands, LU))
        assert sol.theta == pytest.approx(1.0)
        weights = dual_weights(net, sol.duals)
        # The edges of capacity 100, every edge into the sink among them.
        assert np.flatnonzero(weights == 0.0).tolist() == [1, 3, 4]
        costs = srte.te._path_costs(net, demands, weights)
        # Floyd-Warshall over every edge, those of weight 0 included.
        dist = np.full((4, 4), np.inf)
        np.fill_diagonal(dist, 0.0)
        for e, w in zip(net.edges, weights.tolist()):
            dist[e.tail, e.head] = w
        for k in range(4):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        assert costs.tolist() == [dist[0, 3], dist[1, 3]]
        assert 2 * costs[0] + 0.5 * costs[1] == pytest.approx(sol.theta, rel=1e-12)


def loop_split_ratios(sol):
    """The split ratios as a loop over the tunnels and their flows makes
    them: each commodity's total in tunnel order, then flow / total, or 0.0
    where the total is 0."""
    tunnels, flows = sol.program.tunnels, sol.flows.tolist()
    totals = {}
    for tun, flow in zip(tunnels, flows):
        totals[tun.commodity] = totals.get(tun.commodity, 0.0) + flow
    return {
        tun: (flow / totals[tun.commodity] if totals[tun.commodity] > 0 else 0.0)
        for tun, flow in zip(tunnels, flows)
    }


class TestTeLu:
    def test_middlepoint_fixture_exact(self, middlepoint_fixture):
        """Direct cap 3 vs detour cap 2, demand 3: theta* = 3/5, 9/5 / 6/5."""
        demands = make_demands((0, 2, 3))
        sol = solve_lu(middlepoint_fixture, demands, [1], 1)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.theta == pytest.approx(0.6, abs=1e-6)
        flows = {t.waypoints: f for t, f in zip(sol.program.tunnels, sol.flows)}
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
        assert sol.split_ratios == loop_split_ratios(sol)

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

    @pytest.mark.parametrize("build", [build_te_lu, build_te_mf])
    def test_a_given_tunnel_with_an_unreachable_segment_raises(self, build):
        """A tunnel handed to a builder whose middlepoint cannot reach the
        sink is refused, not given an empty load column."""
        net = make_net([(0, 1, 1), (0, 2, 1)], names=("s", "t", "x"))
        demands = make_demands((0, 1, 1))
        with pytest.raises(UnreachableSegment, match="^node 1 unreachable from node 2$"):
            build(ShortestPathCache(net), demands, [[Tunnel(0, (0, 2, 1))]])

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
        columns = program.columns
        capacity_block = scipy_csr(program.lp.a_ub)[: net.edge_count].tocsc()
        paths_of, shared = {}, 0
        for j, tun in enumerate(program.tunnels):
            exact, overlap = exact_tunnel_loads(net, tun, paths_of)
            shared += overlap
            expected = {eid: float(load) for eid, load in exact.items()}
            lo, hi = columns.indptr[j], columns.indptr[j + 1]
            column = dict(zip(columns.indices[lo:hi].tolist(), columns.data[lo:hi].tolist()))
            # Every demand is positive: commodity i's demand row is edge_count + i.
            assert column == {**expected, net.edge_count + tun.commodity: -1.0}
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

    @pytest.mark.parametrize("kind, net, demands", [
        pytest.param(
            LU, random_connected_digraph(9, 24, 4, max_capacity=7),
            make_demands((0, 5, 3), (2, 7, 2), (6, 1, 1.5), (8, 3, 2)), id="lu",
        ),
        pytest.param(
            MF, random_connected_digraph(9, 24, 4, max_capacity=7),
            make_demands((0, 5, 3), (2, 7, 2), (6, 1, 1.5), (8, 3, 2)), id="mf",
        ),
        # Commodity (2, 7) has no demand, so no flow.
        pytest.param(
            LU, random_connected_digraph(9, 24, 4, max_capacity=7),
            make_demands((0, 5, 3), (2, 7, 0), (6, 1, 1.5), (8, 3, 2)),
            id="lu-zero-demand",
        ),
        # Not strongly connected: (3, 0) has no tunnel, and (5, 6) has one
        # but no demand, so neither is served.
        pytest.param(
            MF, random_digraph(9, 0.25, 1, max_capacity=7),
            make_demands((0, 8, 3), (3, 0, 1), (5, 6, 0), (2, 4, 2)),
            id="mf-unserved",
        ),
    ])
    def test_utilization_equals_loop_decode(self, kind, net, demands):
        """The mat-vec decode adds each edge's loads in tunnel order, exactly
        as a loop over tunnels does, so the floats are equal, not close; and
        the split ratios are those of the loop over the tunnels, a commodity
        without flow giving each of its tunnels 0.0."""
        cache = ShortestPathCache(net)
        groups = tunnels_for_middlepoints(cache, demands, range(9), 2)
        builder = build_te_lu if kind == LU else build_te_mf
        sol = solve_te(builder(cache, demands, groups))
        assert isinstance(sol.flows, np.ndarray)
        assert sol.split_ratios == loop_split_ratios(sol)
        expected = {eid: 0.0 for eid in range(net.edge_count)}
        for tun, flow in zip(sol.program.tunnels, sol.flows.tolist()):
            loads = {}
            for a, b in tun.segments:
                for eid, frac in cache.fractions(a, b).fractions.items():
                    loads[eid] = loads.get(eid, Fraction(0)) + frac
            for eid, load in loads.items():
                expected[eid] += flow * float(load)
        for eid, edge in enumerate(net.edges):
            expected[eid] /= float(edge.capacity)
        assert sol.edge_utilization == expected



def same_bits(x, y):
    """Two arrays hold the same dtype, shape and bytes: -0.0 is not 0.0."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_scipy_csr(got, want):
    """srte's CSR arrays are scipy's canonical ones, dtypes included."""
    assert tuple(got.shape) == want.shape and got.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(scipy_csr(got).toarray(), want.toarray())


class TestCsrMatrix:
    @pytest.mark.parametrize("seed", range(20))
    def test_builders_equal_scipys(self, seed):
        """``_row_major`` of COO entries listed column by column builds the
        arrays scipy's csr_matrix does: rows in order, each row's columns
        ascending and distinct, int32 indices. ``_no_rows`` equals scipy's
        too."""
        rng = np.random.default_rng(seed)
        rows, cols = (int(v) for v in rng.integers(1, 30, size=2))
        nnz = int(rng.integers(0, 3 * rows * cols))
        parts = [(
            rng.integers(0, rows, size=n), rng.integers(0, cols, size=n),
            rng.choice([0.0, -1.0, 3.5, -0.25, 0.75], size=n),
        ) for n in (nnz // 3, nnz - nnz // 3)]
        row_ids, col_ids, data = (np.concatenate(p) for p in zip(*parts))
        dense = csr_matrix((data, (row_ids, col_ids)), shape=(rows, cols)).toarray()
        dense[rng.random(dense.shape) < 0.3] = 0.0
        col_ids, row_ids = np.nonzero(dense.T)  # listed column by column
        entries = (row_ids, col_ids, dense[row_ids, col_ids])
        assert_scipy_csr(
            srte.te._row_major([entries], (rows, cols)),
            csr_matrix((entries[2], (row_ids, col_ids)), shape=(rows, cols)),
        )
        assert_scipy_csr(srte.te._no_rows(cols), csr_matrix((0, cols)))

    def test_vector_times_matrix_equals_scipys(self):
        """``x @ m`` (``CsrMatrix.__rmatmul__``) is bit for bit scipy's
        ``x @ csr_matrix`` of the same arrays: on random matrices with empty
        rows and columns, explicit zeros and each row's columns in random
        order (as a program's ``columns`` keep them), and on matrices
        without entries, whose product is float too."""
        empty_rows = empty_cols = explicit_zeros = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rows, cols = (int(v) for v in rng.integers(1, 30, size=2))
            x = rng.normal(size=rows)
            dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
            stored = (dense != 0) | (rng.random((rows, cols)) < 0.05)
            row_ids, col_ids = np.nonzero(stored)
            # Each row's entries in a random order, rows in order.
            order = rng.permutation(len(row_ids))
            order = order[np.argsort(row_ids[order], kind="stable")]
            row_ids, col_ids = row_ids[order], col_ids[order]
            indptr = np.zeros(rows + 1, dtype=np.int32)
            np.cumsum(np.bincount(row_ids, minlength=rows), out=indptr[1:])
            m = CsrMatrix(
                indptr, col_ids.astype(np.int32), dense[row_ids, col_ids], (rows, cols)
            )
            assert same_bits(x @ m, x @ scipy_csr(m))
            none = CsrMatrix(
                np.zeros(rows + 1, dtype=np.int32), np.zeros(0, dtype=np.int32),
                np.zeros(0), (rows, cols),
            )
            assert (x @ none).dtype == np.float64
            assert same_bits(x @ none, x @ csr_matrix((rows, cols)))
            empty_rows += int((~stored.any(axis=1)).sum())
            empty_cols += int((~stored.any(axis=0)).sum())
            explicit_zeros += int((m.data == 0).sum())
        assert empty_rows and empty_cols and explicit_zeros

    def test_matvecs_equal_scipys(self):
        """Every mat-vec srte makes, one np.bincount each, is bit for bit
        scipy's: the utilizations of LU, MF and MP solutions (the product of
        the flows with the program's columns, also against scipy's product
        with the row-major load matrix, ``reference_load_matrix``), both
        blocks of each program at its point, and ``extension_bounds``
        (against one product of the whole pool by scipy,
        ``reference_extension_bounds``), on benchmark-tier instances (30
        nodes, 120 edges, 100 demands)."""
        checked = 0
        for seed in (4100, 4101):
            net = random_connected_digraph(30, 120, seed, max_capacity=10)
            demands = generate_gravity_demands(net, 100, seed + 500)
            pool = TunnelPool(ShortestPathCache(net), demands, 1)
            chosen = [3, 17]
            nodes = [v for v in range(30) if v not in chosen]
            pool.cover([*chosen, v] for v in nodes)
            programs = [pool.program(chosen, kind) for kind in (LU, MF)]
            programs += [build_mp_baseline(net, demands, kind) for kind in (LU, MF)]
            for program in programs:
                sol = solve_te(program)
                loads = reference_load_matrix(pool.cache, program)
                assert same_bits(
                    sol.utilization, (loads @ sol.flows) / net.float_capacities
                )
                assert same_bits(
                    sol.flows @ program.columns, sol.flows @ scipy_csr(program.columns)
                )
                x = solve_lp(program.lp).x
                for block in (program.lp.a_ub, program.lp.a_eq):
                    assert same_bits(block @ x, scipy_csr(block) @ x)
                checked += 1
            duals = solve_te(programs[0]).duals
            assert same_bits(
                extension_bounds(pool, chosen, nodes, duals),
                reference_extension_bounds(pool, chosen, nodes, duals),
            )
        assert checked == 8


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
    def test_blocks_are_scipys_canonical_csr(self, kind):
        """Both blocks, each one ``_row_major`` assembly, are scipy's
        canonical csr_matrix, dtypes included: of their own COO entries
        (rows in order, each row's columns ascending and distinct) and of
        the dict-row build's, on two benchmark-tier instances (30 nodes, 120
        edges, 100 gravity demands)."""
        for seed in (4000, 4001):
            net = random_connected_digraph(30, 120, seed, max_capacity=10)
            demands = generate_gravity_demands(net, 100, seed + 500)
            lp = build_mp_baseline(net, demands, kind).lp
            expected = dict_row_mp(net, demands, kind).sparse()
            for block in ("a_ub", "a_eq"):
                got = getattr(lp, block)
                entries = (got.data, (got.entry_rows, got.indices))
                assert_scipy_csr(got, csr_matrix(entries, shape=got.shape))
                assert_scipy_csr(got, getattr(expected, block))

    @pytest.mark.parametrize("kind", [LU, MF])
    def test_load_columns_follow_the_variables(self, kind):
        """Row j of the columns is variable first_tunnel_var + j: an
        identity block per commodity, no entry for each d[i]."""
        net = random_connected_digraph(6, 14, 2, max_capacity=5)
        demands = make_demands((0, 3, 1), (4, 1, 2))
        program = build_mp_baseline(net, demands, kind)
        assert program.tunnels == []
        assert program.first_tunnel_var == (1 if kind == LU else 0)
        columns = scipy_csr(program.columns).toarray()
        width = net.edge_count + (kind == MF)
        assert columns.shape == (2 * width, net.edge_count)
        assert program.columns.nnz == 2 * net.edge_count
        for i in range(2):
            block = columns[i * width:(i + 1) * width]
            assert np.array_equal(block[:net.edge_count], np.eye(net.edge_count))
            assert not block[net.edge_count:].any()


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
    assert got.columns.shape == want.columns.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got.columns, name), getattr(want.columns, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)


def pool_tunnels(pool):
    """Every pool column's tunnel, in column order: the tunnels of the MF
    program over all columns, made from the pool's arrays."""
    return pool._slice(np.arange(len(pool._commodity)), MF).tunnels


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
        assert len(huge._commodity) == len(exact._commodity) > 100

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
                seen["unroutable"] += cache.forward(c.source).scaled_dist[c.sink] is None
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
                tunnels = pool_tunnels(pool)
                assert len(tunnels) == len(held) and set(tunnels) == held
        assert all(seen.values()), seen

    def test_cover_only_appends(self):
        """A cover leaves the first entries of every pool array as they were,
        and a slice taken before later covers equals the same slice taken
        after them, array for array, its pool columns included."""
        net = random_connected_digraph(9, 24, 11, max_capacity=4)
        demands = make_demands((0, 8, 2), (3, 1, 1), (5, 2, 0), (7, 4, 1.5))
        pool = TunnelPool(ShortestPathCache(net), demands, 2)
        names = ("_commodity", "_middlepoints", "_ptr", "_rows", "_values")
        slices = []
        for batch in ([(1,)], [(2, 6)], [(1, 4), (0, 3, 6)], [range(9)]):
            held = (pool_tunnels(pool), *(getattr(pool, n).copy() for n in names))
            pool.cover(batch)
            tunnels = pool_tunnels(pool)
            assert len(tunnels) > len(held[0])
            assert tunnels[:len(held[0])] == held[0]
            for name, old in zip(names, held[1:]):
                new = getattr(pool, name)
                assert new.dtype == old.dtype and np.array_equal(new[:len(old)], old)
            slices.append((batch[0], pool.program(batch[0]), pool._columns(batch[0])))
        for mids, old, columns in slices:
            new = pool.program(mids)
            assert_same_program(new, old)
            assert np.array_equal(pool._columns(mids), columns)

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
                tunnels = pool_tunnels(pool)
                want = sorted(
                    range(len(tunnels)),
                    key=lambda j: (tunnels[j].commodity, tunnels[j].waypoints),
                )
                assert pool._order.tolist() == want

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_lu_columns_are_the_reference_fill(self, m):
        """Gathering pool columns (``TunnelPool._lu_columns``) gives, dtype
        for dtype, the reference mask fill of their loads and demand entries
        (``reference_lu_columns``): every column, in column order and in
        (commodity, waypoints) order. The pools cover a greedy round's sets
        on benchmark-tier instances (n=30, 120 edges, capacities 1..10, 100
        gravity demands) and every set of net10 with a zero-volume
        commodity, whose columns carry no demand entry."""
        data = pathlib.Path(__file__).parent / "data"
        net10 = parse_topology((data / "net10.topo").read_text())
        zero = (data / "net10.dem").read_text() + "DEMAND n1 n4 0\n"
        runs = [(net10, parse_demands(zero).bind(net10), [range(10)])]
        for seed in (0, 1):
            net = random_connected_digraph(30, 120, 4000 + seed)
            demands = generate_gravity_demands(net, 100, 4500 + seed)
            runs.append((net, demands, [[3, 7, v] for v in range(30)]))
        for net, demands, sets in runs:
            pool = TunnelPool(ShortestPathCache(net), demands, m)
            pool.cover(sets)
            for columns in (np.arange(len(pool._commodity)), pool._order):
                got = pool._lu_columns(columns)
                for a, b in zip(got, reference_lu_columns(pool, columns)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            # Only net10's zero-volume commodity has columns without one.
            met = demands.volumes[pool._commodity] > 0
            assert len(met) and met.all() == (net is not net10)

    @pytest.mark.parametrize("m", [1, 2])
    def test_extension_bounds_are_whole_pool_products_bit_for_bit(self, m):
        """``extension_bounds``, which reads only the entries on edges of
        nonzero weight, gives bit for bit the bounds of one product of the
        whole pool with the weights (``reference_extension_bounds``): at a
        set's own duals and at those of the warm solves of the set plus a
        node, for every node outside the set and for one, from sets of 0 to
        2 nodes, on benchmark-tier instances."""
        checked = 0
        for seed in (0, 1):
            net = random_connected_digraph(30, 120, 4000 + seed, max_capacity=10)
            demands = generate_gravity_demands(net, 100, 4500 + seed)
            pool = TunnelPool(ShortestPathCache(net), demands, m)
            for chosen in ([], [5], [5, 11]):
                nodes = [v for v in range(30) if v not in chosen]
                pool.cover([*chosen, v] for v in nodes)
                parent = solve_te(pool.program(chosen))
                model = PoolModel(pool, chosen, parent.program, parent.basis)
                points = [parent.duals]
                for v in nodes[::9]:
                    model.theta(v)
                    points.append(model.duals)
                for duals in points:
                    for asked in (nodes, nodes[3:4]):
                        assert same_bits(
                            extension_bounds(pool, chosen, asked, duals),
                            reference_extension_bounds(pool, chosen, asked, duals),
                        )
                        checked += 1
        assert checked == 2 * 3 * 5 * 2

    @pytest.mark.parametrize("m", [1, 2])
    def test_extension_bounds_ignore_the_demand_entries(self, m):
        """``extension_bounds`` prices each column's LU entries with zero
        weights on the demand rows, and the -0.0 each demand entry adds
        leaves every bound bit for bit what the columns' loads alone give:
        the same pool with its entries replaced by ``reference_tunnel_loads``
        columns, on benchmark-tier instances."""
        for seed in (0, 1):
            net = random_connected_digraph(30, 120, 4000 + seed)
            demands = generate_gravity_demands(net, 100, 4500 + seed)
            pool = TunnelPool(ShortestPathCache(net), demands, m)
            chosen = [3, 7]
            nodes = [v for v in range(30) if v not in chosen]
            pool.cover([*chosen, v] for v in nodes)
            duals = solve_te(pool.program(chosen)).duals
            loads_only = copy.copy(pool)
            sizes, loads_only._rows, loads_only._values = reference_tunnel_loads(
                pool.cache, pool_tunnels(pool)
            )
            loads_only._ptr = np.concatenate(([0], np.cumsum(sizes)))
            assert len(loads_only._rows) < len(pool._rows)
            assert same_bits(
                extension_bounds(pool, chosen, nodes, duals),
                extension_bounds(loads_only, chosen, nodes, duals),
            )


def reference_tunnels(cache, demands, middlepoints, m):
    """``tunnels_for_middlepoints`` by brute force: each commodity's tunnels
    through every ordered selection of at most m distinct middlepoints that
    avoids its endpoints and whose segments are all reachable, tested one
    segment at a time on its start's DAG, by waypoints."""
    mids = sorted(set(middlepoints))
    groups = []
    for i, c in enumerate(demands.commodities):
        tunnels = []
        for size in range(min(m, len(mids)) + 1):
            for seq in itertools.permutations(mids, size):
                waypoints = (c.source, *seq, c.sink)
                if c.source not in seq and c.sink not in seq and all(
                    cache.forward(a).scaled_dist[b] is not None
                    for a, b in zip(waypoints, waypoints[1:])
                ):
                    tunnels.append(Tunnel(i, waypoints))
        groups.append(sorted(tunnels, key=lambda tun: tun.waypoints))
    return groups


def reference_program(kind, cache, demands, groups):
    """The program over the given tunnels, its LU columns walked over the
    per-segment fractions (``reference_lu_entries``)."""
    tunnels = [tun for group in groups for tun in group]
    commodity = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    mids = [tun.middlepoints for tun in tunnels]
    middlepoints = srte.te._padded(
        mids, cache.network.node_count, max(map(len, mids), default=0)
    )
    return srte.te._tunnel_program(
        kind, cache.network, demands, commodity, middlepoints,
        *reference_lu_entries(cache, demands, tunnels),
    )


def assert_reference_pool(pool, sets):
    """Every pool column's LU entries are its tunnel's
    ``reference_tunnel_loads`` column, then its demand entry
    (``reference_lu_columns``), dtype and bits, as the pool stores them and
    as gathered in (commodity, waypoints) order. Each set's tunnels are the
    brute-force enumeration's, and its pool slices and fresh LU and MF
    builds equal the reference programs (LU where every positive demand has
    a tunnel)."""
    cache, demands, m = pool.cache, pool.demands, pool.max_middlepoints
    ptr, rows, values = reference_lu_columns(pool, np.arange(len(pool._commodity)))
    stored = ((pool._ptr, ptr.astype(np.intp)), (pool._rows, rows),
              (pool._values, values))
    for got, want in stored:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    gathered = pool._lu_columns(pool._order)
    for got, want in zip(gathered, reference_lu_columns(pool, pool._order)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for mids in sets:
        groups = tunnels_for_middlepoints(cache, demands, mids, m)
        assert groups == reference_tunnels(cache, demands, mids, m)
        builds = [(MF, build_te_mf)]
        if all(g or c.demand == 0 for g, c in zip(groups, demands.commodities)):
            builds.append((LU, build_te_lu))
        for kind, build in builds:
            want = reference_program(kind, cache, demands, groups)
            assert_same_program(build(cache, demands, groups), want)
            assert_same_program(pool.program(mids, kind), want)


def spy_lcms(monkeypatch):
    """The dtype of every array of shared-edge LCMs the kernel makes."""
    dtypes, real = [], srte.te._row_lcms

    def spy(values, limit):
        lcm = real(values, limit)
        dtypes.append(lcm.dtype)
        return lcm

    monkeypatch.setattr(srte.te, "_row_lcms", spy)
    return dtypes


def spy_rows(monkeypatch):
    """The segments and rows of every ``segment_rows`` call the kernel makes."""
    calls, real = [], srte.te.segment_rows

    def spy(cache, segments):
        rows = real(cache, segments)
        calls.append((segments, rows))
        return rows

    monkeypatch.setattr(srte.te, "segment_rows", spy)
    return calls


def row_dtypes(calls):
    """The (sigma, counts) dtypes of the rows of the given calls."""
    return {(rows.sigma.dtype, rows.counts.dtype) for _, rows in calls}


def assert_exact_loads(pool):
    """Each column lists its tunnel's edges in order of first use, each load
    float(exact load), the segments' Fraction(count, sigma) summed, and then
    -1 in its commodity's demand row if the demand is positive."""
    positive = pool.demands.volumes > 0
    demand_row = pool.cache.network.edge_count + np.cumsum(positive) - 1
    for j, tun in enumerate(pool_tunnels(pool)):
        exact = {}
        for a, b in tun.segments:
            seg = pool.cache.fractions(a, b)
            for eid, count in seg.counts.items():
                exact[eid] = exact.get(eid, 0) + Fraction(count, seg.sigma)
        rows, values = list(exact), [float(f) for f in exact.values()]
        if positive[tun.commodity]:
            rows.append(int(demand_row[tun.commodity]))
            values.append(-1.0)
        span = slice(pool._ptr[j], pool._ptr[j + 1])
        assert pool._rows[span].tolist() == rows
        assert pool._values[span].tolist() == values


def fan(edges, start, end, width, fresh):
    """Append ``width`` parallel two-hop paths from start to end, taking
    their middle nodes from ``fresh``."""
    for _ in range(width):
        mid = next(fresh)
        edges += [(start, mid, 1), (mid, end, 1)]


def staged(edges, start, stages, width, fresh):
    """Append ``stages`` fans of ``width`` paths in a chain after ``start``,
    taking nodes from ``fresh``; return the last node."""
    for _ in range(stages):
        end = next(fresh)
        fan(edges, start, end, width, fresh)
        start = end
    return start


class TestSegmentMatrixColumns:
    def test_pool_equals_the_exact_cover(self, monkeypatch):
        """Every pool column, every set's tunnels and every LU and MF
        program, sliced or built fresh, equal the per-segment reference, bit
        for bit, cover after cover: m 0 to 3, digraphs that are not strongly
        connected, rational costs, zero demands and sets holding commodity
        endpoints. Some tunnels reuse an edge, so their loads are exact
        sums, here on int64."""
        seen = {"shared": 0, "zero": 0, "columns": 0}
        lcms = spy_lcms(monkeypatch)
        calls = spy_rows(monkeypatch)
        for seed in range(8):
            rng = random.Random(seed)
            net = random_digraph(8, 0.3, seed, max_capacity=5)
            if seed % 2:
                net = net.with_costs(
                    [Fraction(1 + i % 3, 1 + i % 4) for i in range(net.edge_count)]
                )
            pairs = rng.sample([(s, t) for s in range(8) for t in range(8) if s != t], 5)
            demands = make_demands(*((s, t, rng.choice([0, 1, 2.5])) for s, t in pairs))
            seen["zero"] += any(c.demand == 0 for c in demands.commodities)
            cache = ShortestPathCache(net)
            for m in (0, 1, 2, 3):
                pool = TunnelPool(cache, demands, m)
                for _ in range(3):
                    batch = [rng.sample(range(8), rng.randint(0, 4)) for _ in range(3)]
                    pool.cover(batch)
                    assert_reference_pool(pool, batch)
                seen["columns"] += len(pool._commodity)
                seen["shared"] += sum(
                    segments_share_an_edge([cache.fractions(a, b) for a, b in tun.segments])
                    for tun in pool_tunnels(pool)
                )
            assert_exact_loads(pool)
        assert all(seen.values()), seen
        assert lcms and set(lcms) == {np.dtype(np.int64)}
        assert row_dtypes(calls) == {(np.dtype(np.int64),) * 2}

    def test_no_commodities(self):
        """Without commodities every cover appends nothing, at every m."""
        net = random_connected_digraph(6, 14, 2, max_capacity=3)
        for m in (0, 1, 2, 3):
            pool = TunnelPool(ShortestPathCache(net), DemandMatrix(()), m)
            for batch in ([()], [(1, 2, 3)], [range(6)]):
                pool.cover(batch)
                assert_reference_pool(pool, batch)
            assert pool_tunnels(pool) == [] and pool._middlepoints.shape == (0, m)
            assert pool._ptr.tolist() == [0] and pool._order.size == 0

    def assert_exact_wide(self, net, demands, sets, m=1):
        """The pool and every set's programs equal the reference, and each
        load is float(exact load)."""
        cache = ShortestPathCache(net)
        pool = TunnelPool(cache, demands, m)
        pool.cover(sets)
        assert_reference_pool(pool, sets)
        assert_exact_loads(pool)
        return cache, pool

    def test_path_counts_of_2_to_the_54(self, monkeypatch):
        """54 diamonds in a chain: 2^54 shortest paths end to end do not fit
        a float, so the segment rows hold Python ints."""
        edges = []
        end = staged(edges, 0, 54, 2, itertools.count(1))
        net = make_net(edges)
        demands = make_demands((0, end, 1), (3, end - 3, 2), (end - 6, end, 1))
        calls = spy_rows(monkeypatch)
        cache, pool = self.assert_exact_wide(net, demands, [[3 * 27], [1], [end - 1]])
        assert row_dtypes(calls) == {(np.dtype(object),) * 2}
        assert cache.forward(0).sigma[end] == cache.pairs[1][0, end] == 2**54
        assert set(pool._commodity.tolist()) == {0, 1, 2}

    def test_scaled_distances_past_2_to_the_63(self):
        """Costs 1/p over the first 20 primes: the cost scale is their
        product, so every scaled cost exceeds 2^63, the all-pairs distances
        are Python ints and segment rows test distances on them."""
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
        base = random_connected_digraph(9, 30, 4, max_capacity=4)
        net = base.with_costs([Fraction(1, primes[i % 20]) for i in range(base.edge_count)])
        assert min(net.scaled_costs) >= 2**63
        demands = make_demands((0, 8, 1), (3, 1, 0), (5, 2, 2.5), (7, 6, 1))
        cache, pool = self.assert_exact_wide(net, demands, [[1, 4], [2, 6], [0, 7]], m=2)
        assert cache.pairs[0].dtype == object
        assert len(pool._commodity) > 20

    def test_all_nodes_asks_only_for_its_tunnels_segments(self, monkeypatch):
        """All-nodes m=1 on a 300-node network with 5 demands asks the
        kernel, once, for exactly its tunnels' segments (and the direct
        tunnels' pads (t, t)): 2,970 of the 90,000."""
        net = random_connected_digraph(300, 1200, 4000)
        demands = generate_gravity_demands(net, 5, 4500)
        cache = ShortestPathCache(net)
        groups = tunnels_for_middlepoints(cache, demands, range(300), 1)
        calls = spy_rows(monkeypatch)
        build_te_lu(cache, demands, groups)
        want = set()
        for tun in (tun for group in groups for tun in group):
            want.update(a * 300 + b for a, b in tun.segments)
            if not tun.middlepoints:
                want.add(tun.waypoints[-1] * 301)
        assert len(calls) == 1
        assert calls[0][0].tolist() == sorted(want)
        assert sum(map(len, groups)) > 1000 and len(want) < 3000

    def assert_sum_on_python_ints(self, edges, w, t, monkeypatch):
        """Commodities (0, t) and (w, t), and the tunnel (0, w, t): the
        network's path counts fit int64 segment rows, the tunnel's exact sum
        does not fit a float, so its LCM and sums run on Python ints, and
        the pool is exact."""
        net = make_net(edges)
        demands = make_demands((0, t, 1), (w, t, 2))
        sigma = ShortestPathCache(net).pairs[1]
        assert sigma.dtype == np.int64 and sigma.max() < 2**53
        lcms, calls = spy_lcms(monkeypatch), spy_rows(monkeypatch)
        self.assert_exact_wide(net, demands, [[w]])
        assert row_dtypes(calls) == {(np.dtype(np.int64),) * 2}
        assert lcms and set(lcms) == {np.dtype(object)}
        return sigma

    def test_lcm_that_no_float_holds(self, monkeypatch):
        """Segment (s, w) crosses 16 fans of three paths, the last but one
        (last -> x) shared with (w, t), which then crosses 13 fans of five.
        Their path counts 3^16 and 9 * 5^12 have the odd LCM 3^16 * 5^12,
        above 2^53, while no edge carries more than a third of either
        segment, so every summed numerator is below 2^53. A shortcut s -> e
        keeps every pair's count below 2^53."""
        fresh = itertools.count(1)
        edges = []
        last = staged(edges, 0, 14, 3, fresh)
        x, w, e = next(fresh), next(fresh), next(fresh)
        fan(edges, last, x, 3, fresh)  # crossed by both segments
        fan(edges, x, w, 3, fresh)
        fan(edges, w, last, 3, fresh)
        fan(edges, x, e, 5, fresh)
        edges.append((0, e, 1))
        t = staged(edges, e, 11, 5, fresh)
        sigma = self.assert_sum_on_python_ints(edges, w, t, monkeypatch)
        assert (sigma[0, w], sigma[w, t]) == (3**16, 9 * 5**12)
        assert math.lcm(3**16, 9 * 5**12) > 2**53 > 2 * 3**16 * 5**12 // 3

    def test_summed_numerator_that_no_float_holds(self, monkeypatch):
        """Segment (s, w) crosses 17 fans of three paths and a bridge (x, y);
        (w, t) returns through the last fan and the bridge, then crosses 26
        diamonds. The LCM 3^17 * 2^26 of their path counts 3^17 and
        3 * 2^26 is below 2^53, but the numerator summed on the bridge,
        which carries both segments whole, is twice it."""
        fresh = itertools.count(1)
        edges = []
        last = staged(edges, 0, 16, 3, fresh)
        x, y, w, e = (next(fresh) for _ in range(4))
        fan(edges, last, x, 3, fresh)  # crossed by both segments
        fan(edges, w, last, 1, fresh)
        edges += [(x, y, 1), (y, w, 1), (y, e, 1), (0, e, 1)]
        t = staged(edges, e, 26, 2, fresh)
        sigma = self.assert_sum_on_python_ints(edges, w, t, monkeypatch)
        assert (sigma[0, w], sigma[w, t]) == (3**17, 3 * 2**26)
        assert math.lcm(3**17, 3 * 2**26) < 2**53 <= 2 * 3**17 * 2**26
