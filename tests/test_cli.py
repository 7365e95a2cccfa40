"""Command-line interface: output formats, golden files, exit codes."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srte.centrality import group_betweenness
from srte.cli import SELECTION_METHODS, main
from srte.graph import parse_topology

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_non_finite_scale_with_demand_file(self, capsys):
        self.assert_rejected(
            capsys, "solve", "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem", "--scale", "nan",
        )

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
        ],
    )
    def test_bad_point_rejected_before_output(self, capsys, argv):
        self.assert_rejected(
            capsys, *argv, "--topology", DATA / "net10.topo",
            "--demands", DATA / "net10.dem",
        )

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

    def test_oracle_size_cap(self, capsys):
        err = self.assert_rejected(
            capsys, "oracle", "maxflow-mincut", "--nodes", "13", "--trials", "1",
        )
        assert "cap of 12" in err

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
            res.x = res.x * 0.5  # now violates the demand rows
            return res

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
    that exits 0 prints a solution whose theta or ratio its loads confirm."""
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

    def test_maxflow_mincut_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "maxflow-mincut", "--nodes", "6", "--trials", "3",
        )
        assert code == 0
        assert out == "maxflow-mincut,3,0,pass\n"


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
