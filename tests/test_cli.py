"""Command-line interface: output formats, golden files, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srte.cli
import srte.graph
import srte.oracles
from srte.centrality import group_betweenness
from srte.cli import SELECTION_METHODS, main
from srte.graph import (
    Commodity,
    DemandMatrix,
    generate_gravity_demands,
    parse_demands,
    parse_topology,
    random_connected_digraph,
    random_digraph,
    serialize_topology,
)
from srte.oracles import group_flow
from srte.paths import ShortestPathCache

from conftest import diamond_chain, enumerate_shortest_paths

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
    capsys, monkeypatch
):
    """Every call parses with the one parser of the process, and runs the
    command its module binds when the call runs: a patched command runs."""
    assert srte.cli.build_parser() is srte.cli.build_parser()
    argv = ("centrality", "--topology", DATA / "net10.topo")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("node,score,rank\n")
    monkeypatch.setattr(srte.cli, "cmd_centrality", lambda args: 7)
    assert run(capsys, *argv) == (7, "", "")


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_budget_help_says_what_it_caps(capsys, command):
    """--budget caps only --method optimal's subset count, and says so."""
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert (
        "--budget BUDGET refuse --method optimal when its middlepoint subsets "
        "number more than this (default 10000); other methods ignore it"
    ) in " ".join(out.split())


@pytest.fixture
def undeliverable(tmp_path):
    """One edge a -> b and one demand b -> a: nothing can be delivered."""
    topo, dem = tmp_path / "t.topo", tmp_path / "d.dem"
    topo.write_text("EDGE a b 1\n")
    dem.write_text("DEMAND b a 1\n")
    return "--topology", topo, "--demands", dem


def rebuilt_utilization(network, demands, doc, segment_loads):
    """Each edge's utilization rebuilt from a solve's printed split ratios:
    the sum of demand x ratio x the load that one unit sent over each tunnel
    segment (a, b) puts on the edge, ``segment_loads(a, b)[edge id]``."""
    index = {name: v for v, name in enumerate(network.node_names)}
    volume = {(c.source, c.sink): c.demand for c in demands.commodities}
    load = np.zeros(network.edge_count)
    for pair, tunnels in doc["split_ratios"].items():
        commodity = tuple(index[name] for name in pair.split("->"))
        for label, ratio in tunnels.items():
            waypoints = [index[name] for name in label[len("tunnel("):-1].split(",")]
            for a, b in zip(waypoints, waypoints[1:]):
                for eid, share in segment_loads(a, b).items():
                    load[eid] += volume[commodity] * ratio * share
    names = network.node_names
    return {
        f"{names[e.tail]}->{names[e.head]}": load[eid] / float(e.capacity)
        for eid, e in enumerate(network.edges)
    }


def oracle_segment_loads(network):
    """A segment's per-edge loads: the share of its shortest paths, found by
    exhaustive enumeration, that use the edge (no parallel edges)."""
    edge_of = {(e.tail, e.head): eid for eid, e in enumerate(network.edges)}

    def loads(a, b):
        _, paths = enumerate_shortest_paths(network, a, b)
        uses = {}
        for path in paths:
            for u, v in zip(path, path[1:]):
                uses[edge_of[u, v]] = uses.get(edge_of[u, v], 0) + 1
        return {eid: count / len(paths) for eid, count in uses.items()}

    return loads


class TestSolve:
    def test_middlepoint_fixture_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "mid3.topo",
            "--demands", DATA / "mid3.dem", "--method", "all-nodes", "--m", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == "lu"
        assert doc["theta"] == pytest.approx(0.6, abs=1e-6)
        ratios = doc["split_ratios"]["s->t"]
        assert ratios["tunnel(s,t)"] == pytest.approx(0.6, abs=1e-6)
        assert ratios["tunnel(s,m,t)"] == pytest.approx(0.4, abs=1e-6)
        assert doc["solve_ms"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "single.topo",
            "--demands", DATA / "single.dem", "--method", "mp-baseline",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "objective,value,middlepoints,used_count,solve_ms,subproblems"
        fields = row.split(",")
        assert fields[0] == "lu"
        assert float(fields[1]) == pytest.approx(0.75, abs=1e-9)

    def test_mp_max_flow_of_zero_prints_positive_zero(self, capsys, undeliverable):
        """A maximization whose optimum is 0 prints 0, never -0."""
        argv = ("solve", *undeliverable, "--method", "mp-baseline", "--objective", "mf")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert '"satisfaction_ratio": 0.0,' in out
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert (code, out.splitlines()[1]) == (0, "mf,0,,0,,1")

    def test_mp_baseline_theta_is_demand_over_capacity(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "single.topo",
            "--demands", DATA / "single.dem", "--method", "mp-baseline",
        )
        assert code == 0
        assert json.loads(out)["theta"] == pytest.approx(0.75, abs=1e-9)

    def test_golden_gsp_solve(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--method", "gsp",
            "--k", "4", "--m", "1",
        )
        assert code == 0
        assert out == (GOLDEN / "solve_gsp.json").read_text()

    @pytest.mark.parametrize(
        "golden, extra",
        [
            # Tunnels of up to two middlepoints: segments share edges.
            ("solve_greedy_k3_m2.json", ("--method", "greedy", "--k", "3",
                                         "--m", "2")),
            ("solve_all_nodes_m2.json", ("--method", "all-nodes", "--m", "2")),
            # Scaled so that the max-flow program leaves demand unmet.
            ("solve_all_nodes_mf_scale4.json", (
                "--method", "all-nodes", "--m", "1", "--objective", "mf",
                "--scale", "4")),
            # The arc-flow MP baseline, decoded like the tunnel programs.
            ("solve_mp_lu.json", ("--method", "mp-baseline", "--objective", "lu")),
            ("solve_mp_mf_scale4.json", (
                "--method", "mp-baseline", "--objective", "mf", "--scale", "4")),
        ],
    )
    def test_golden_tunnel_programs(self, capsys, golden, extra):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", *extra,
        )
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_golden_all_nodes_on_a_wide_network(self, capsys, tmp_path):
        """54 diamonds in a chain: 2^54 shortest paths end to end, so the
        segment matrix holds its path counts as Python ints."""
        topo, dem = tmp_path / "chain54.topo", tmp_path / "chain54.dem"
        topo.write_text(serialize_topology(diamond_chain(54)))
        dem.write_text("DEMAND n0 n162 1\nDEMAND n3 n159 2\nDEMAND n156 n162 1\n")
        code, out, _ = run(
            capsys, "solve", "--topology", topo, "--demands", dem,
            "--method", "all-nodes", "--m", "1",
        )
        assert code == 0
        assert out == (GOLDEN / "solve_all_nodes_m1_chain54.json").read_text()

    @pytest.mark.parametrize("method", ["gsp", "greedy", "optimal"])
    def test_m_beyond_the_node_count_prints_the_same(self, capsys, method):
        """A tunnel's middlepoints are distinct nodes, so every m from the
        node count up gives the same tunnels: on the 10-node network,
        m = 10**9 prints the bytes m = 10 does, for solve and sweep, without
        allocating anything m wide."""
        inputs = (
            "--topology", DATA / "net10.topo", "--demands", DATA / "net10.dem",
            "--method", method,
        )
        for command, *axis in (("solve", "--k", "2"), ("sweep", "--sweep-k", "1:3")):
            small, huge = (
                run(capsys, command, *inputs, *axis, "--m", m)
                for m in ("10", "1000000000")
            )
            assert small[0] == 0 and small[1]
            assert huge == small

    @pytest.mark.parametrize(
        "method", [("gsp",), ("greedy", "--k", "1"), ("optimal",)]
    )
    def test_no_tunnel_names_the_unroutable_commodity(
        self, capsys, tmp_path, method
    ):
        """a -> c is routable; c -> d is not, since only d -> c exists."""
        topo = tmp_path / "t.topo"
        topo.write_text(
            "EDGE a b 1\nEDGE b a 1\nEDGE b c 1\nEDGE c b 1\nEDGE d c 1\n"
        )
        dem = tmp_path / "d.dem"
        dem.write_text("DEMAND a c 1\nDEMAND c d 1\n")
        code, out, err = run(
            capsys, "solve", "--topology", topo, "--demands", dem,
            "--method", *method,
        )
        assert code == 2
        assert out == ""
        assert err == "error: no tunnel connects commodity 2 -> 3\n"

    def test_single_middlepoint_drops_the_direct_tunnel(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "mid3.topo",
            "--demands", DATA / "mid3.dem", "--method", "all-nodes",
            "--single-middlepoint",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["split_ratios"] == {"s->t": {"tunnel(s,m,t)": 1.0}}
        assert doc["theta"] == pytest.approx(1.5, abs=1e-9)

    def test_timing_flag_populates_solve_ms(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "mid3.topo",
            "--demands", DATA / "mid3.dem", "--method", "all-nodes",
            "--timing",
        )
        assert code == 0
        assert json.loads(out)["solve_ms"] > 0

    def test_infeasible_exits_2(self, capsys, tmp_path):
        topo = tmp_path / "t.topo"
        topo.write_text("EDGE a b 1\nEDGE c a 1\n")
        dem = tmp_path / "d.dem"
        dem.write_text("DEMAND b c 1\n")
        code, out, err = run(
            capsys, "solve", "--topology", topo, "--demands", dem,
            "--method", "all-nodes",
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_infeasible_mp_baseline_exits_2(self, capsys, tmp_path):
        topo = tmp_path / "t.topo"
        topo.write_text("EDGE a b 1\nEDGE c a 1\n")
        dem = tmp_path / "d.dem"
        dem.write_text("DEMAND b c 1\n")
        code, out, err = run(
            capsys, "solve", "--topology", topo, "--demands", dem,
            "--method", "mp-baseline",
        )
        assert code == 2
        assert out == ""
        assert err == "error: program is infeasible\n"

    def test_missing_topology_exits_1(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "solve", "--topology", tmp_path / "nope.topo",
            "--gravity", "3",
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_demands_or_gravity_required(self, capsys):
        code, out, _ = run(capsys, "solve", "--topology", DATA / "mid3.topo")
        assert code == 1
        assert out == ""

    def test_optimal_rejects_mf_objective(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "mid3.topo",
            "--demands", DATA / "mid3.dem", "--method", "optimal",
            "--objective", "mf",
        )
        assert code == 1
        assert out == ""

    def test_gravity_demands(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--gravity", "5", "--seed", "3", "--method", "sp", "--k", "2",
        )
        assert code == 0
        assert json.loads(out)["theta"] > 0

    @pytest.mark.parametrize(
        "method", [("gsp", "--k", "3"), ("greedy", "--k", "4")]
    )
    def test_utilizations_follow_the_split_ratios(self, capsys, tmp_path, method):
        """LU demand rows are >=, and HiGHS over-delivers some commodities of
        this benchmark-tier instance (n=30, topology seed 4000, demand seed
        4500) on edges that do not bind theta; the printed utilizations are
        those of routing each demand by the printed split ratios."""
        net = random_connected_digraph(30, 120, 4000, max_capacity=10)
        demands = generate_gravity_demands(net, 100, 4500)
        topo, dem = tmp_path / "t.topo", tmp_path / "t.dem"
        topo.write_text(serialize_topology(net))
        dem.write_text("".join(
            f"DEMAND {net.node_names[c.source]} {net.node_names[c.sink]} "
            f"{c.demand!r}\n" for c in demands.commodities
        ))
        code, out, _ = run(
            capsys, "solve", "--topology", topo, "--demands", dem,
            "--method", *method,
        )
        assert code == 0
        doc = json.loads(out)
        parsed = parse_topology(topo.read_text())
        cache = ShortestPathCache(parsed)

        def segment_loads(a, b):
            segment = cache.fractions(a, b)
            return dict(zip(segment.counts, segment.loads))

        rebuilt = rebuilt_utilization(
            parsed, parse_demands(dem.read_text()).bind(parsed), doc, segment_loads
        )
        assert doc["edge_utilization"].keys() == rebuilt.keys()
        for edge, util in doc["edge_utilization"].items():
            assert util == pytest.approx(rebuilt[edge], rel=0, abs=1e-9)
        assert max(rebuilt.values()) == pytest.approx(doc["theta"], rel=1e-12)

    @pytest.mark.parametrize("method", ["gsp", "mp-baseline", "greedy"])
    def test_tiny_demands_are_refused(self, capsys, method):
        """HiGHS's absolute tolerance lets zero flow meet demands of 1e-8:
        instead of theta 0 such a solve is one error line and exit 2, and
        demands of 1e-6 still scale theta."""
        inputs = (
            "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--method", method,
        )
        for scale in ("1e-8", "1e-9"):
            code, out, err = run(capsys, *inputs, "--scale", scale)
            assert (code, out) == (2, "")
            assert err.startswith("error: demand ") and len(err.splitlines()) == 1
        code, out, _ = run(capsys, *inputs)
        theta = json.loads(out)["theta"]
        code, out, _ = run(capsys, *inputs, "--scale", "1e-6")
        assert code == 0
        assert json.loads(out)["theta"] == pytest.approx(1e-6 * theta, rel=1e-6)

    @pytest.mark.parametrize("capacity, volume", [("1e16", "1"), ("1", "1e21")])
    @pytest.mark.parametrize("method", ["all-nodes", "mp-baseline"])
    def test_program_highs_rejects_is_not_infeasible(
        self, capsys, tmp_path, capacity, volume, method
    ):
        """A coefficient or bound beyond HiGHS's limits fails the solve with
        exit 2; the program is not reported infeasible. A capacity of 1e14
        is within them."""
        topo, dem = tmp_path / "t.topo", tmp_path / "d.dem"
        dem.write_text(f"DEMAND a c {volume}\n")
        inputs = (
            "solve", "--topology", topo, "--demands", dem, "--method", method,
        )
        topo.write_text(f"EDGE a b {capacity}\nEDGE b c 1\nEDGE a c 1\n")
        code, out, err = run(capsys, *inputs)
        assert (code, out) == (2, "")
        assert err == "error: LP solver failed: HiGHS rejected the model\n"
        code, out, err = run(
            capsys, "sweep", *inputs[1:5], "--sweep-methods", f"{method},gsp",
        )
        assert code == 2
        assert out.splitlines()[1] == f"{method},error,,,0"
        assert err.splitlines()[0] == (
            f"point {method}: LP solver failed: HiGHS rejected the model"
        )
        if volume == "1":
            topo.write_text("EDGE a b 1e14\nEDGE b c 1\nEDGE a c 1\n")
            code, out, _ = run(capsys, *inputs)
            assert (code, json.loads(out)["theta"]) == (0, 0.5)


class TestSweep:
    def test_golden_methods_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--sweep-methods",
            "random:1,random:2,random:3,random:4,random:5,sp,gsp,degree",
            "--k", "4", "--m", "1",
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_methods.csv").read_text()

    def test_k_axis_non_increasing(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--sweep-k", "1:4",
            "--method", "gsp",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        thetas = [float(r.split(",")[2]) for r in rows]
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4"]
        assert all(b <= a + 1e-9 for a, b in zip(thetas, thetas[1:]))

    def test_axis_list_form(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--sweep-m", "1,2",
            "--method", "sp", "--k", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "point,status,objective,solve_ms,subproblems"
        assert len(rows) == 3

    def test_requires_an_axis(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--topology", DATA / "mid3.topo",
            "--demands", DATA / "mid3.dem",
        )
        assert code == 1
        assert out == ""

    def test_failed_point_continues(self, capsys, tmp_path):
        topo = tmp_path / "t.topo"
        topo.write_text("EDGE a b 1\nEDGE c a 1\n")
        dem = tmp_path / "d.dem"
        dem.write_text("DEMAND b c 1\n")
        code, out, _ = run(
            capsys, "sweep", "--topology", topo, "--demands", dem,
            "--sweep-k", "1:2", "--method", "greedy",
        )
        assert code == 2
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(r.split(",")[1] == "error" for r in rows)

    def test_max_flow_of_zero_rows_print_positive_zero(self, capsys, undeliverable):
        code, out, _ = run(
            capsys, "sweep", *undeliverable, "--objective", "mf",
            "--sweep-methods", "mp-baseline,all-nodes",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "mp-baseline,optimal,0,,1", "all-nodes,optimal,0,,1",
        ]

    def test_infeasible_point_is_a_row_and_exits_2(self, capsys, undeliverable):
        """A point whose program is infeasible prints its status and no
        value, and the sweep exits 2 though no point raised."""
        code, out, err = run(
            capsys, "sweep", *undeliverable, "--sweep-methods", "mp-baseline",
        )
        assert (code, err) == (2, "")
        assert out.splitlines()[1:] == ["mp-baseline,infeasible,,,1"]
        code, out, _ = run(
            capsys, "sweep", *undeliverable, "--sweep-methods", "mp-baseline,gsp",
        )
        assert code == 2
        assert out.splitlines()[1:] == ["mp-baseline,infeasible,,,1", "gsp,error,,,0"]

    @pytest.mark.parametrize("axis, labels", [
        (("--method", "gsp", "--sweep-k", "1:3"), ("1", "2", "3")),
        (("--sweep-methods", "gsp,mp-baseline"), ("gsp", "mp-baseline")),
        (("--method", "all-nodes", "--sweep-m", "0:1"), ("0", "1")),
        (("--method", "greedy", "--sweep-k", "1:2"), ("1", "2")),
    ])
    def test_failed_solves_are_error_rows(self, capsys, axis, labels):
        """A point whose solve raises ArithmeticError (demands too small to
        be delivered) is an error row and one stderr line; the sweep goes
        on and exits 2."""
        code, out, err = run(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--scale", "1e-8", *axis,
        )
        assert code == 2
        assert out.splitlines()[1:] == [f"{p},error,,,0" for p in labels]
        assert err.splitlines() == [
            f"point {p}: demand n0 -> n5 of 3e-08 is delivered only 0"
            for p in labels
        ]

    def test_failed_point_among_solved_points(self, capsys, monkeypatch):
        def fails(*args):
            raise ArithmeticError("utilization reconstruction mismatch")

        monkeypatch.setattr(srte.cli, "solve_mp", fails)
        code, out, err = run(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem",
            "--sweep-methods", "gsp,mp-baseline,degree",
        )
        assert code == 2
        gsp, mp, degree = out.splitlines()[1:]
        assert gsp.startswith("gsp,optimal,") and degree.startswith("degree,optimal,")
        assert mp == "mp-baseline,error,,,0"
        assert err == "point mp-baseline: utilization reconstruction mismatch\n"

    @pytest.mark.parametrize(
        "name, axis, solves",
        [
            ("solve_with_middlepoints",
             ("--method", "all-nodes", "--sweep-k", "1:6"), 1),
            ("solve_mp", ("--method", "mp-baseline", "--sweep-m", "0:3"), 1),
            ("centrality_select", ("--sweep-methods", "gsp:1,gsp:2"), 1),
            ("centrality_select",
             ("--sweep-methods", "random:1,random:2,random:1"), 2),
            ("solve_with_middlepoints",
             ("--method", "all-nodes", "--single-middlepoint",
              "--sweep-m", "1:3"), 1),
            # Every M of at least n = 10 selects and solves as M = 10.
            ("centrality_select",
             ("--method", "gsp", "--k", "2", "--sweep-m", "10,12,10000"), 1),
        ],
    )
    def test_points_differing_only_in_what_the_method_ignores_solve_once(
        self, capsys, monkeypatch, name, axis, solves
    ):
        """all-nodes ignores k (and m with --single-middlepoint),
        mp-baseline k and m, and every method but random the seed; each row
        is the row of its point swept alone."""
        calls = []
        real = getattr(srte.cli, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        inputs = (
            "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", *axis[:-1],
        )
        monkeypatch.setattr(srte.cli, name, counted)
        code, out, _ = run(capsys, *inputs, axis[-1])
        assert code == 0 and len(calls) == solves
        monkeypatch.undo()
        header, *rows = out.splitlines()
        for row in rows:
            alone = run(capsys, *inputs, row.split(",")[0])
            assert alone == (0, f"{header}\n{row}\n", "")


class TestCentrality:
    def test_golden_table(self, capsys):
        code, out, _ = run(
            capsys, "centrality", "--topology", DATA / "net10.topo",
            "--method", "sp",
        )
        assert code == 0
        assert out == (GOLDEN / "centrality10.csv").read_text()

    def test_chain_ranks_transit_first(self, capsys, tmp_path):
        topo = tmp_path / "chain.topo"
        topo.write_text("EDGE a b 1\nEDGE b c 1\n")
        code, out, _ = run(capsys, "centrality", "--topology", topo)
        rows = out.strip().splitlines()
        assert rows[0] == "node,score,rank"
        assert rows[1].startswith("b,1,1")

    def test_weighted_matches_unweighted_on_equal_caps(self, capsys, tmp_path):
        topo = tmp_path / "t.topo"
        topo.write_text("EDGE a b 1\nEDGE b c 1\nEDGE c a 1\nEDGE a c 1\n")
        _, plain, _ = run(capsys, "centrality", "--topology", topo)
        _, weighted, _ = run(
            capsys, "centrality", "--topology", topo, "--weighted"
        )
        order = lambda text: [r.split(",")[0] for r in text.splitlines()[1:]]
        assert order(plain) == order(weighted)

    @pytest.mark.parametrize("method", ["sp", "gsp"])
    def test_huge_capacities_rank_exactly(self, capsys, tmp_path, method):
        """Inverse capacities of 1e300 scale to 997-bit costs, far past
        int64: the ranking is still exact."""
        topo = tmp_path / "t.topo"
        topo.write_text("EDGE a b 1e300\nEDGE b c 1e300\nEDGE a c 1\n")
        costs = parse_topology(topo.read_text()).inverse_capacity_costs()
        assert max(costs.scaled_costs).bit_length() == 997
        code, out, _ = run(
            capsys, "centrality", "--topology", topo, "--method", method,
            "--weighted",
        )
        assert code == 0
        assert out == "node,score,rank\nb,1,1\na,0,2\nc,0,3\n"

    def test_gsp_prefix_scores(self, capsys):
        code, out, _ = run(
            capsys, "centrality", "--topology", DATA / "net10.topo",
            "--method", "gsp", "--k", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert [r.split(",")[2] for r in rows] == ["1", "2", "3"]


    @pytest.mark.parametrize("weighted", [False, True])
    def test_gsp_scores_are_exact_prefix_group_betweenness(
        self, capsys, weighted
    ):
        topo = DATA / "net10.topo"
        code, out, _ = run(
            capsys, "centrality", "--topology", topo, "--method", "gsp",
            *(["--weighted"] if weighted else []),
        )
        assert code == 0
        net = parse_topology(topo.read_text())
        analysis = net.inverse_capacity_costs() if weighted else net
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert len(rows) == net.node_count
        for rank in range(1, len(rows) + 1):
            prefix = [net.node_index(name) for name, _, _ in rows[:rank]]
            exact = group_betweenness(analysis, prefix)
            assert rows[rank - 1][1] == f"{float(exact):.9g}"


class TestInputErrors:
    """Bad input exits 1 with one line on stderr and nothing on stdout."""

    def assert_rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_with_gravity(self, capsys, scale):
        err = self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--gravity", "10", "--scale", scale, "--format", "csv",
        )
        assert "scale" in err

    @pytest.mark.parametrize(
        "command", [["solve"], ["sweep", "--sweep-k", "1:2"]], ids=["solve", "sweep"]
    )
    def test_demands_and_gravity_together(self, capsys, command):
        """--gravity next to --demands was silently dropped."""
        err = self.assert_rejected(
            capsys, *command, "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--gravity", "10",
        )
        assert err == "error: give either --demands or --gravity, not both\n"

    def test_unreadable_demands(self, capsys, tmp_path):
        err = self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", tmp_path / "nope.dem",
        )
        assert err.startswith("error: cannot read demands: ")
        assert "nope.dem" in err

    def test_non_finite_scale_with_demand_file(self, capsys):
        err = self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--scale", "nan",
        )
        assert err == "error: scale must be positive and finite, got nan\n"

    def test_non_finite_demand_volume(self, capsys, tmp_path):
        dem = tmp_path / "nan.dem"
        dem.write_text("DEMAND n0 n1 1\nDEMAND n1 n2 nan\n")
        err = self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", dem,
        )
        assert "line 2" in err

    @pytest.mark.parametrize(
        "axis", [("--sweep-k", "3:1"), ("--sweep-m", "2:1")]
    )
    def test_empty_sweep_axis(self, capsys, axis):
        self.assert_rejected(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--method", "degree", *axis,
        )

    @pytest.mark.parametrize("option", ["--sweep-k", "--sweep-m"])
    @pytest.mark.parametrize("spec, bad", [
        ("1:6:2", "'6:2'"), ("1:", "''"), ("1,,2", "''"), ("a", "'a'"),
    ])
    def test_malformed_sweep_axis_is_named(self, capsys, option, spec, bad):
        err = self.assert_rejected(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", option, spec,
        )
        assert err == (
            f"error: bad sweep axis {spec!r}: invalid literal for int() with "
            f"base 10: {bad}\n"
        )

    @pytest.mark.parametrize("token", ["random:x", "gsp:1.5"])
    def test_malformed_sweep_seed_is_named(self, capsys, token):
        err = self.assert_rejected(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--sweep-methods", f"sp,{token}",
        )
        assert err == f"error: bad seed in sweep method {token!r}\n"

    @pytest.mark.parametrize("axes", [
        ("--sweep-k", "1:3", "--sweep-m", "1"),
        ("--sweep-k", "1", "--sweep-methods", "gsp"),
        ("--sweep-m", "1", "--sweep-methods", "gsp"),
    ])
    def test_sweep_axes_are_exclusive(self, capsys, axes):
        """A sweep has one axis: a second one is a usage error, not
        silently ignored."""
        code, out, err = run(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", *axes,
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage: ") and "not allowed with argument" in err

    def test_k_range_is_bounded_before_it_is_expanded(self, capsys):
        """A lo:hi K axis names its first point out of range, as a per-point
        check would, without expanding the range first."""
        err = self.assert_rejected(
            capsys, "sweep", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--method", "gsp",
            "--sweep-k", "1:100000000",
        )
        assert err == "error: k must be in [1, 10], got 11\n"


    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--sweep-k", "0:1"),
            ("sweep", "--sweep-k", "10:11"),
            ("sweep", "--sweep-m=-1,0"),
            ("sweep", "--sweep-methods", "gsp,bogus"),
            ("sweep", "--sweep-methods", "gsp", "--k", "0"),
            ("solve", "--m", "-1"),
            ("solve", "--method", "all-nodes", "--k", "11"),
            # Methods that cannot run the requested objective or option.
            ("sweep", "--method", "greedy", "--objective", "mf",
             "--sweep-k", "1:2"),
            ("sweep", "--sweep-methods", "gsp,optimal", "--objective", "mf"),
            ("solve", "--method", "gsp", "--k", "3", "--m", "2",
             "--single-middlepoint"),
            ("sweep", "--sweep-methods", "all-nodes,gsp",
             "--single-middlepoint"),
            # One middlepoint per tunnel cannot be at most m = 0.
            ("solve", "--method", "all-nodes", "--m", "0",
             "--single-middlepoint"),
            ("sweep", "--method", "all-nodes", "--sweep-m", "0:3",
             "--single-middlepoint"),
            # A negative budget, whatever the method reads it.
            ("solve", "--method", "optimal", "--k", "2", "--budget", "-5"),
            ("solve", "--method", "gsp", "--budget", "-1"),
            ("sweep", "--method", "optimal", "--sweep-k", "1:2",
             "--budget", "-5"),
            ("sweep", "--sweep-methods", "gsp,mp-baseline", "--budget", "-5"),
        ],
    )
    def test_bad_point_rejected_before_output(self, capsys, argv):
        self.assert_rejected(
            capsys, *argv, "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem",
        )

    @pytest.mark.parametrize("method", ["sp", "degree"])
    @pytest.mark.parametrize("k", ["0", "3"])
    def test_centrality_k_only_for_gsp(self, capsys, method, k):
        err = self.assert_rejected(
            capsys, "centrality", "--topology", DATA / "net10.topo",
            "--method", method, "--k", k,
        )
        assert err == f"error: --k applies only to --method gsp, not {method}\n"

    @pytest.mark.parametrize(
        "method", ["all-nodes", "mp-baseline", "optimal", "greedy", "random"]
    )
    def test_weighted_only_for_ranking_methods(self, capsys, method):
        """Only sp, gsp and degree read --weighted; every other method
        rejects it, in solve and at any sweep point."""
        want = (
            f"error: --weighted applies only to --method sp, gsp or degree, "
            f"not {method}\n"
        )
        for argv in (
            ("solve", "--method", method, "--m", "1"),
            ("sweep", "--method", method, "--sweep-k", "1:2"),
            ("sweep", "--sweep-methods", f"gsp,{method}"),
        ):
            err = self.assert_rejected(
                capsys, *argv, "--weighted", "--topology", DATA / "net10.topo",
                "--demands", DATA / "net10.dem",
            )
            assert err == want

    def test_unknown_demand_node_named_without_quotes(self, capsys, tmp_path):
        dem = tmp_path / "zz.dem"
        dem.write_text("DEMAND n0 zz 1\n")
        err = self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo", "--demands", dem,
        )
        assert err == "error: unknown node name 'zz'\n"

    @pytest.mark.parametrize("argv", [
        ("solve", "--gravity", "3"),
        ("sweep", "--gravity", "3", "--sweep-k", "1:2"),
        ("centrality", "--method", "gsp"),
        ("centrality",),
    ], ids=["solve", "sweep", "centrality-gsp", "centrality"])
    def test_topology_without_edges(self, capsys, tmp_path, argv):
        """An empty or comment-only topology was read as a network of no
        nodes: solve and gsp named a k or flow count out of [1, 0], and
        centrality printed an empty table and exited 0."""
        topo = tmp_path / "none.topo"
        topo.write_text("# no edges\n\n")
        err = self.assert_rejected(capsys, *argv, "--topology", topo)
        assert err == "error: topology has no edges\n"

    @pytest.mark.parametrize("k", ["0", "-1", "11"])
    def test_gsp_centrality_k_out_of_range(self, capsys, k):
        err = self.assert_rejected(
            capsys, "centrality", "--topology", DATA / "net10.topo",
            "--method", "gsp", "--k", k,
        )
        assert "k must be in [1, 10]" in err

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("EDGE n0 n1 1e400", "capacity '1e400'"),
            ("EDGE n0 n1 1e-400", "capacity '1e-400'"),
            ("EDGE n0 n1 1 1e400", "cost '1e400'"),
            ("EDGE n0 n1 1 1e-400", "cost '1e-400'"),
        ],
    )
    def test_capacity_or_cost_out_of_float_range(
        self, capsys, tmp_path, line, fragment
    ):
        topo = tmp_path / "range.topo"
        topo.write_text(f"EDGE n1 n0 1\n{line}\n")
        err = self.assert_rejected(
            capsys, "solve", "--topology", topo, "--gravity", "1",
        )
        assert "line 2" in err and fragment in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--topology", DATA / "net10.topo", "--demands",
             DATA / "net10.dem", "--sweep-m", "-1:0"),
            ("solve", "--topology", DATA / "net10.topo", "--demands",
             DATA / "net10.dem", "--k", "notint"),
            ("solve", "--demands", DATA / "net10.dem"),
        ],
    )
    def test_argparse_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: srte ")
        assert err.splitlines()[-1].startswith(f"srte {argv[0]}: error: ")

    def test_single_middlepoint_names_its_method(self, capsys):
        err = self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--method", "greedy",
            "--single-middlepoint",
        )
        assert "--single-middlepoint" in err and "greedy" in err

    def test_oracle_size_cap(self, capsys, monkeypatch):
        """A brute-force suite refuses --nodes above the cap before it
        generates any instance (generation alone grows as n squared)."""
        def generate(*args, **kwargs):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(srte.cli, "random_digraph", generate)
        for suite in ("maxflow-mincut", "submodularity"):
            err = self.assert_rejected(
                capsys, "oracle", suite, "--nodes", "13", "--trials", "1",
            )
            assert err == "error: 13 nodes exceed the oracle cap of 12\n"

    def test_size_cap_error_is_one_class(self):
        """The oracles raise, and the CLI rejects, the one
        SizeCapExceededError, defined in srte.graph so that the CLI names it
        without importing the oracles."""
        assert srte.oracles.SizeCapExceededError is srte.graph.SizeCapExceededError
        assert srte.graph.SizeCapExceededError in srte.cli._REJECTED

    def test_lemma1_is_not_capped(self, capsys):
        """lemma1 solves polynomial MP programs, so the brute-force cap does
        not apply to it."""
        code, out, _ = run(capsys, "oracle", "lemma1", "--nodes", "13", "--trials", "1")
        assert (code, out) == (0, "lemma1,1,0,pass\n")

    def test_lemma1_size_cap(self, capsys, monkeypatch):
        """lemma1 refuses --nodes above its own cap before it generates any
        instance, and runs at the cap."""
        cap = srte.cli.LEMMA1_NODE_CAP
        real = srte.cli.random_digraph

        def generate(*args, **kwargs):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(srte.cli, "random_digraph", generate)
        err = self.assert_rejected(
            capsys, "oracle", "lemma1", "--nodes", cap + 1, "--trials", "1",
        )
        assert err == f"error: {cap + 1} nodes exceed the lemma1 cap of {cap}\n"
        monkeypatch.setattr(srte.cli, "random_digraph", real)
        code, out, _ = run(capsys, "oracle", "lemma1", "--nodes", cap, "--trials", "1")
        assert (code, out) == (0, "lemma1,1,0,pass\n")

    def test_all_nodes_enumeration_cap(self, capsys, monkeypatch):
        """all-nodes refuses more (commodity, middlepoint sequence) pairs
        than the cap before it enumerates any; in a sweep such a point is
        an error row."""
        import srte.te

        cap = srte.te.ALL_NODES_PAIR_CAP
        real = srte.te._routable
        monkeypatch.setattr(srte.te, "_routable", None)  # not reached
        inputs = (
            "--topology", DATA / "net10.topo", "--demands", DATA / "net10.dem",
            "--method", "all-nodes",
        )
        err = self.assert_rejected(capsys, "solve", *inputs, "--m", "7")
        assert err == (
            "error: 346405 (commodity, middlepoint sequence) pairs exceed the "
            f"all-nodes cap of {cap}\n"
        )
        monkeypatch.setattr(srte.te, "_routable", real)
        code, out, err = run(capsys, "sweep", *inputs, "--sweep-m", "1,100")
        first = run(capsys, "sweep", *inputs, "--sweep-m", "1")[1]
        assert code == 2
        assert out == first + "100,error,,,0\n"
        assert err.startswith("point 100: ") and len(err.splitlines()) == 1

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "solve", "--help")
        assert code == 0
        assert out.startswith("usage: srte solve") and err == ""

    def test_solver_arithmetic_error_exits_2(self, capsys, monkeypatch):
        """A point that fails the feasibility re-check is one error line."""
        import srte.lp

        real = srte.lp.linprog

        def corrupted(*args, **kwargs):
            res = real(*args, **kwargs)
            # Half the point now violates the demand rows.
            return dataclasses.replace(res, x=res.x * 0.5)

        monkeypatch.setattr(srte.lp, "linprog", corrupted)
        code, out, err = run(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--method", "all-nodes",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: solver returned an infeasible point")
        assert len(err.splitlines()) == 1


_NAMES = ("a", "b", "c", "d")
_NUMBERS = ("1", "2.5", "3/2", "0", "-1", "nan", "inf", "1e400", "x")
_MALFORMED = (
    "EDGE a", "EDGE a b 1 1 1", "EDGE a a 1", "DEMAND a b", "DEMAND a b 1 1",
    "DEMAND a a 1", "DEMAND a zz 1", "LINK a b 1", "# note",
)


@st.composite
def _stream(draw, keyword, max_numbers):
    """``keyword u v number...`` lines on distinct node pairs, with at most
    one fault: a malformed line, or one number drawn from ``_NUMBERS``."""
    pairs = [(u, v) for u in _NAMES for v in _NAMES if u != v]
    numbers = st.lists(st.sampled_from(_NUMBERS[:2]), min_size=1, max_size=max_numbers)
    rows = [
        [keyword, u, v, *draw(numbers)]
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    ]
    fault = draw(st.sampled_from((None, None, "number", "line")))
    if fault == "number" and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(3, len(row) - 1))] = draw(st.sampled_from(_NUMBERS))
    elif fault == "line":
        malformed = draw(st.sampled_from(_MALFORMED))
        rows.insert(draw(st.integers(0, len(rows))), [malformed])
    return "\n".join(" ".join(row) for row in rows)


@st.composite
def _cli_runs(draw):
    topology = draw(_stream("EDGE", 2))
    demands = draw(_stream("DEMAND", 1))
    command = draw(st.sampled_from(("solve", "sweep", "centrality")))
    k = str(draw(st.integers(0, 5)))
    if command == "centrality":
        method = draw(st.sampled_from(("sp", "gsp", "degree")))
        options = ["--method", method, "--k", k]
    else:
        options = [
            "--method", draw(st.sampled_from(SELECTION_METHODS)),
            "--objective", draw(st.sampled_from(("lu", "mf"))),
            "--k", k, "--m", str(draw(st.integers(0, 2))),
        ]
        if draw(st.booleans()):
            options.append("--single-middlepoint")
        if command == "sweep":
            options += ["--sweep-k", "1:2"]
    if draw(st.booleans()):
        options.append("--weighted")
    return topology, demands, command, options


@settings(max_examples=400, deadline=None)
@given(run_spec=_cli_runs())
def test_every_input_exits_0_1_or_2_and_exit_0_re_verifies(
    tmp_path_factory, run_spec
):
    """Arbitrary EDGE/DEMAND streams never raise out of ``main``; a solve
    that exits 0 prints a solution whose theta or ratio its loads confirm,
    and a tunnel LU solution's utilizations are those of routing each demand
    by its printed split ratios over the shortest paths that exhaustive
    enumeration finds."""
    topology, demands, command, options = run_spec
    work = tmp_path_factory.getbasetemp()
    (work / "prop.topo").write_text(topology)
    argv = [command, "--topology", str(work / "prop.topo")]
    if command != "centrality":
        (work / "prop.dem").write_text(demands)
        argv += ["--demands", str(work / "prop.dem")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + options)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
    if code != 0 or command != "solve":
        return
    doc = json.loads(out.getvalue())
    utilization = doc["edge_utilization"].values()
    if doc["objective"] == "lu":
        assert doc["theta"] == pytest.approx(
            max(utilization, default=0.0), abs=1e-6
        )
        if "mp-baseline" in options:  # the arc-flow MP prints no tunnels
            return
        network = parse_topology(topology)
        rebuilt = rebuilt_utilization(
            network, parse_demands(demands).bind(network), doc,
            oracle_segment_loads(network),
        )
        assert doc["edge_utilization"] == pytest.approx(rebuilt, rel=1e-9, abs=1e-12)
    else:
        assert 0 <= doc["satisfaction_ratio"] <= 1
        assert all(u <= 1 + 1e-6 for u in utilization)


class TestOracleSuites:
    def test_lemma1_passes(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "lemma1", "--trials", "10", "--nodes", "7",
        )
        assert code == 0
        assert out == "lemma1,10,0,pass\n"

    def test_submodularity_passes(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "submodularity", "--trials", "2", "--nodes", "6",
        )
        assert code == 0
        assert out == "submodularity,2,0,pass\n"

    def test_submodularity_names_a_reproducible_counterexample(self, capsys):
        """Group flow is not submodular in general: seed 0 hits a genuine
        6-node violation at trial 8. Each line names s, t, A, B and v and
        the four group flows, which the oracle reproduces."""
        code, out, err = run(capsys, "oracle", "submodularity", "--seed", "0")
        assert code == 2
        assert out == "submodularity,10,2,fail\n"
        assert err.splitlines() == [
            "FAIL trial 8: submodularity violated: s=n1 t=n2 A={n3} B={n0,n3} "
            "v=n4: f(A)=1 f(A+v)=2 f(B)=2 f(B+v)=4",
            "FAIL trial 8: submodularity violated: s=n1 t=n2 A={n3} B={n3,n4} "
            "v=n0: f(A)=1 f(A+v)=2 f(B)=2 f(B+v)=4",
        ]
        net = random_digraph(6, 0.35, 8, max_capacity=4)
        demands = DemandMatrix((Commodity(1, 2, 6.0),))
        flows = [
            group_flow(net, demands, group)
            for group in ({3}, {3, 4}, {0, 3}, {0, 3, 4})
        ]
        assert flows == [1.0, 2.0, 2.0, 4.0]

    def test_monotonicity_lines_name_their_witness(self, capsys, monkeypatch):
        import srte.oracles

        monkeypatch.setattr(
            srte.oracles, "group_flow", lambda net, demands, sub: 1.0 - len(sub)
        )
        code, out, err = run(
            capsys, "oracle", "submodularity", "--trials", "1", "--nodes", "4",
        )
        assert code == 2
        assert err.splitlines()[:3] == [
            "FAIL trial 0: monotonicity violated: s=n3 t=n1 A={} v=n0: "
            "f(A)=1 f(A+v)=0",
            "FAIL trial 0: monotonicity violated: s=n3 t=n1 A={} v=n2: "
            "f(A)=1 f(A+v)=0",
            "FAIL trial 0: monotonicity violated: s=n3 t=n1 A={n0} v=n2: "
            "f(A)=0 f(A+v)=-1",
        ]
        assert out == f"submodularity,1,{len(err.splitlines())},fail\n"

    def test_maxflow_mincut_reports_known_counterexample(self, capsys):
        """Max s-w-t flow / min cut equality is not a theorem; the default
        seeding hits a genuine fractional counterexample at trial 18 and the
        suite must surface it rather than crash or hide it."""
        code, out, err = run(
            capsys, "oracle", "maxflow-mincut", "--nodes", "7",
            "--trials", "30",
        )
        assert code == 2
        assert out == "maxflow-mincut,30,1,fail\n"
        assert "trial 18" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("lemma1", "--trials", "-3"), "--trials must be at least 1, got -3"),
            (("submodularity", "--trials", "0"), "--trials must be at least 1, got 0"),
            (("maxflow-mincut", "--nodes", "2"),
             "--nodes must be at least 3 for maxflow-mincut, got 2"),
            (("submodularity", "--nodes", "1"),
             "--nodes must be at least 2 for submodularity, got 1"),
            (("lemma1", "--nodes", "-4"), "--nodes must be at least 2 for lemma1, got -4"),
        ],
    )
    def test_bad_sizes_are_usage_errors(self, capsys, argv, message):
        assert run(capsys, "oracle", *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "suite, nodes", [("maxflow-mincut", 3), ("submodularity", 2), ("lemma1", 2)]
    )
    def test_least_sizes_run(self, capsys, suite, nodes):
        code, out, _ = run(
            capsys, "oracle", suite, "--nodes", nodes, "--trials", "1",
        )
        assert (code, out) == (0, f"{suite},1,0,pass\n")

    def test_maxflow_mincut_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "maxflow-mincut", "--nodes", "6", "--trials", "3",
        )
        assert code == 0
        assert out == "maxflow-mincut,3,0,pass\n"


def test_tunnels_are_made_only_for_the_printed_solution(
    capsys, tmp_path, monkeypatch
):
    """Sweeps and greedy rankings solve column slices of the tunnel pool as
    arrays: a gsp sweep and a greedy selection make no ``Tunnel``, and
    ``srte solve --method greedy`` makes only the tunnels it prints."""
    import srte.te
    from srte.selection import greedy_select

    net = random_connected_digraph(30, 120, 4001, max_capacity=10)
    demands = generate_gravity_demands(net, 100, 4501)
    topo, dem = tmp_path / "t.topo", tmp_path / "t.dem"
    topo.write_text(serialize_topology(net))
    dem.write_text("".join(
        f"DEMAND {net.node_names[c.source]} {net.node_names[c.sink]} "
        f"{c.demand!r}\n" for c in demands.commodities
    ))
    made, real = [], srte.te.Tunnel
    monkeypatch.setattr(
        srte.te, "Tunnel", lambda *args: made.append(args) or real(*args)
    )
    inputs = ("--topology", topo, "--demands", dem, "--m", "1")
    code, out, _ = run(capsys, "sweep", *inputs, "--method", "gsp", "--sweep-k", "1:6")
    assert code == 0 and len(out.splitlines()) == 7
    assert made == []
    result = greedy_select(net, demands, range(net.node_count), 4, 1)
    assert len(result.middlepoints) == 4 and result.subproblems_solved > 50
    assert made == []
    code, out, _ = run(capsys, "solve", *inputs, "--method", "greedy", "--k", "4")
    assert code == 0
    printed = json.loads(out)["split_ratios"]
    assert len(made) == sum(len(tunnels) for tunnels in printed.values()) > 100


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--topology", DATA / "net10.topo", "--gravity", "8",
             "--seed", "5", "--method", "gsp", "--k", "3"),
            ("sweep", "--topology", DATA / "net10.topo", "--demands",
             DATA / "net10.dem", "--sweep-k", "1:3", "--method", "degree"),
            ("centrality", "--topology", DATA / "net10.topo", "--method",
             "degree"),
            ("oracle", "lemma1", "--trials", "5"),
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b
        assert out_a == out_b


class TestOutputErrors:
    """Output that cannot be written ends the run with exit 1 and at most one
    ``error:`` line, never a traceback; run in a fresh interpreter, since
    what matters is the real stdout and the flush at interpreter exit."""

    NET10 = ("--topology", DATA / "net10.topo", "--demands", DATA / "net10.dem")

    @staticmethod
    def start(*argv, unbuffered="", stdout=subprocess.PIPE):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        return subprocess.Popen(
            [sys.executable, "-m", "srte.cli", *map(str, argv)],
            stdout=stdout, stderr=subprocess.PIPE, env=env, text=True,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_full_device_is_one_error_line(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.start(
                "solve", *self.NET10, "--method", "greedy", "--k", "2",
                unbuffered=unbuffered, stdout=full,
            )
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == "error: cannot write output: No space left on device\n"

    def test_closed_pipe_ends_the_run_silently(self):
        """stdout closed before the first row, as by a reader that left; each
        row is written as it is printed (the buffered case is the next
        test's)."""
        proc = self.start("sweep", *self.NET10, "--sweep-k", "1:6", unbuffered="1")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == ""

    def test_huge_m_range_streams_under_head(self):
        """``--sweep-m 1:100000000 | head -3``: the M range is never
        expanded and every M >= n shares one solve, so the rows stream until
        the reader leaves, within seconds."""
        proc = self.start("sweep", *self.NET10, "--sweep-m", "1:100000000")
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert lines[0] == "point,status,objective,solve_ms,subproblems\n"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
        assert err == ""
