"""K-sweeps through the selection-prefix API against the per-K loop.

``srte sweep --sweep-k`` ranks once, runs the greedy once and slices one
tunnel pool for every point; the reference below is the per-K loop it
replaced, one ``_run_method`` call per point. Both must print the same bytes
and exit alike.
"""

import contextlib
import io
import itertools
import math
import pathlib
import sys

import pytest

import srte.lp
import srte.te
from srte import cli, selection
from srte.centrality import greedy_group_select
from srte.graph import parse_topology, random_connected_digraph, serialize_topology
from srte.lp import LpStatus
from srte.paths import ShortestPathCache
from srte.selection import (
    BudgetExceededError,
    SelectionResult,
    greedy_select,
    select_prefixes,
)
from srte.te import NoTunnelError, PoolModel

from conftest import make_demands

DATA = pathlib.Path(__file__).parent / "data"


def per_k_sweep(args) -> int:
    """``cmd_sweep`` for a K axis as it was: every point selected on its own."""
    network, demands = cli._load_inputs(args)
    ks = cli._parse_axis(args.sweep_k)
    for k in ks:
        cli._check_point(network, args, args.method, k, args.m)
    cache = ShortestPathCache(network)
    print("point,status,objective,solve_ms,subproblems")
    worst = 0
    for k in ks:
        try:
            result = cli._run_method(
                network, demands, args, args.method, k, args.m, args.seed, cache
            )
        except (NoTunnelError, BudgetExceededError, ArithmeticError) as exc:
            print(f"point {k}: {exc}", file=sys.stderr)
            print(f"{k},error,,,0")
            worst = 2
            continue
        solution = result.solution
        optimal = solution.status is LpStatus.OPTIMAL
        if not optimal:
            worst = 2
        value = "" if solution.objective is None else cli._fmt(solution.objective)
        ms = cli._fmt(solution.solve_ms) if args.timing and optimal else ""
        print(
            f"{k},{solution.status.value},{value},{ms},"
            f"{result.subproblems_solved}"
        )
    return worst


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def no_tunnel_inputs(tmp_path):
    """c -> d is unroutable for every middlepoint set."""
    topo, dem = tmp_path / "t.topo", tmp_path / "t.dem"
    topo.write_text("EDGE a b 1\nEDGE b a 1\nEDGE b c 1\nEDGE c b 1\nEDGE d c 1\n")
    dem.write_text("DEMAND a c 1\nDEMAND c d 1\n")
    return ["--topology", topo, "--demands", dem]


NET10 = ["--topology", DATA / "net10.topo", "--demands", DATA / "net10.dem"]
EVERY_POINT = list(itertools.product(("0", "1", "2"), ("1:6", "3,1,2", "2,2")))
# Every m and every axis, in fewer (m, axis) pairs.
FEWER_POINTS = [("0", "1:6"), ("1", "3,1,2"), ("2", "2,2"), ("1", "1:6")]

CASES = [
    *((method, [], EVERY_POINT) for method in ("sp", "gsp", "degree")),
    *((method, options, FEWER_POINTS) for method in ("sp", "gsp", "degree")
      for options in (["--weighted"], ["--objective", "mf"])),
    # random rejects --weighted.
    *(("random", ["--seed", seed, *options], FEWER_POINTS) for seed in ("0", "7")
      for options in ([], ["--objective", "mf"])),
    # net10 greedy stops early: after one pick at m=0 and three at m=1.
    ("greedy", [], FEWER_POINTS),
    # C(10, k) > 50 for every k >= 3: those points are refused.
    ("optimal", ["--budget", "50"], FEWER_POINTS),
]


@pytest.mark.parametrize(
    "method, options, grid", CASES, ids=[f"{m}{''.join(o)}" for m, o, _ in CASES]
)
def test_k_sweep_prints_what_the_per_k_loop_printed(
    monkeypatch, no_tunnel_inputs, method, options, grid
):
    outputs = []
    for inputs, (m, axis) in itertools.product((NET10, no_tunnel_inputs), grid):
        argv = ["sweep", *inputs, "--method", method, "--sweep-k", axis,
                "--m", m, *options]
        got = run_main(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "cmd_sweep", per_k_sweep)
            want = run_main(argv)
        assert got == want, argv
        outputs.append(got)
    codes = {code for code, _, _ in outputs}
    # The four-node topology rejects K=6 and, under LU, fails every point.
    assert 1 in codes and (2 in codes or "mf" in options)
    assert any(out.count("\n") == 7 for _, out, _ in outputs)  # six points
    if method == "optimal":
        assert any("exceed the budget of 50" in err for _, _, err in outputs)


@pytest.mark.parametrize("method", ["sp", "random", "optimal"])
def test_failed_solves_are_the_rows_of_the_per_k_loop(monkeypatch, method):
    """Demands too small to be delivered fail every solve with an
    ArithmeticError: each point is an error row, as when swept alone (gsp
    and greedy: ``test_cli.py``)."""
    argv = ["sweep", *NET10, "--scale", "1e-8", "--method", method,
            "--sweep-k", "1:3"]
    got = run_main(argv)
    monkeypatch.setattr(cli, "cmd_sweep", per_k_sweep)
    assert got == run_main(argv)
    code, out, err = got
    assert code == 2
    assert out.splitlines()[1:] == [f"{k},error,,,0" for k in (1, 2, 3)]
    assert len(err.splitlines()) == 3


def test_greedy_points_past_a_failed_round_fail(monkeypatch):
    """A greedy round whose solve fails ends the expansion: the points it
    decided before keep their rows, every later point fails with its error,
    and the sweep prints what the per-k loop prints."""
    argv = ["sweep", *NET10, "--method", "greedy", "--sweep-k", "1:3"]
    _, healthy, _ = run_main(argv)
    real = selection._greedy_round

    def second_round_fails(pool, chosen, *args):
        if len(chosen) == 1:
            raise ArithmeticError("solver returned an infeasible point")
        return real(pool, chosen, *args)

    monkeypatch.setattr(selection, "_greedy_round", second_round_fails)
    got = run_main(argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_sweep", per_k_sweep)
        assert got == run_main(argv)
    code, out, err = got
    assert code == 2
    assert out.splitlines()[:2] == healthy.splitlines()[:2]
    assert out.splitlines()[2:] == ["2,error,,,0", "3,error,,,0"]
    assert err.splitlines() == [
        f"point {k}: solver returned an infeasible point" for k in (2, 3)
    ]


def test_greedy_point_counts_follow_the_rounds():
    """Point k of one greedy run counts 1 + sum over its rounds r < k of
    (n - r) subproblems, and every point past the early stop repeats the
    stopped result with the stopping round's subproblems counted."""
    net = random_connected_digraph(8, 22, 3)
    demands = make_demands((0, 4, 3), (1, 6, 2), (7, 2, 1))
    n = net.node_count
    ks = list(range(1, n + 1))
    points = list(select_prefixes(net, demands, "greedy", ks, 1))
    picks = max((p.middlepoints for p in points), key=len)
    assert len(picks) < n  # the run stops early
    for k, point in zip(ks, points):
        single = greedy_select(net, demands, range(n), k, 1)
        assert point.middlepoints == single.middlepoints == picks[:k]
        assert point.solution.theta == single.solution.theta
        rounds = min(k, len(picks) + 1)
        assert point.subproblems_solved == single.subproblems_solved == (
            1 + sum(n - r for r in range(rounds))
        )


def test_points_come_in_axis_order_and_errors_are_values():
    net = random_connected_digraph(7, 18, 2)
    demands = make_demands((0, 4, 2), (1, 5, 1))
    points = list(select_prefixes(net, demands, "optimal", [3, 1, 3], 1, budget=30))
    assert isinstance(points[0], BudgetExceededError)
    assert isinstance(points[2], BudgetExceededError)
    assert isinstance(points[1], SelectionResult)
    assert points[1].subproblems_solved == math.comb(7, 1)
    gsp = list(select_prefixes(net, demands, "gsp", [3, 1, 2], 1))
    assert [p.middlepoints for p in gsp] == [
        gsp[0].middlepoints[:k] for k in (3, 1, 2)
    ]
    with pytest.raises(ValueError, match="k must be in"):
        list(select_prefixes(net, demands, "sp", [1, 8], 1))
    with pytest.raises(ValueError, match="supports only"):
        list(select_prefixes(net, demands, "greedy", [1], 1, objective="mf"))


@pytest.mark.parametrize("argv, counted, solves", [
    # C(10, 2) = 45 subsets, solved once for both rows.
    (["--method", "optimal", "--sweep-k", "2,2", "--budget", "50"],
     "_evaluate", 45),
    (["--method", "gsp", "--sweep-k", "2,2"], "solve_te", 1),
    (["--method", "gsp", "--k", "2", "--sweep-m", "1,1"], "solve_te", 1),
    (["--k", "2", "--sweep-methods", "gsp,gsp,gsp:0"], "solve_te", 1),
])
def test_repeated_sweep_point_is_solved_once(monkeypatch, argv, counted, solves):
    """A point repeated on any sweep axis prints its row again without being
    selected or solved again."""
    calls = []
    real = getattr(selection, counted)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, counted, counting)
    code, out, _ = run_main(["sweep", *NET10, *argv])
    assert code == 0
    assert len(calls) == solves
    rows = [row.split(",", 1)[1] for row in out.splitlines()[1:]]
    assert len(rows) > 1 and len(set(rows)) == 1


class ChainTrace:
    """Records, while installed, the sets an LU prefix sweep solves cold
    (``selection.solve_te``), starts a chain from and solves warm (the last
    set and the new one of each ``PoolModel.solve`` call), with each
    theta: cold ones in ``cold``, warm ones in ``warm`` (None where the
    warm solve raised)."""

    def __init__(self, monkeypatch):
        self.cold, self.starts, self.warm = [], [], []
        real_solve = selection.solve_te
        real_init, real_chain = PoolModel.__init__, PoolModel.solve

        def cold(program):
            solution = real_solve(program)
            self.cold.append((middlepoints_of(program), solution.theta))
            return solution

        def start(chain, pool, mids, *args):
            self.starts.append(tuple(mids))
            real_init(chain, pool, mids, *args)

        def warm(chain, mids):
            self.warm.append((tuple(sorted(chain.middlepoints)), tuple(mids), None))
            solution = real_chain(chain, mids)
            self.warm[-1] = (*self.warm[-1][:2], solution.theta)
            return solution

        monkeypatch.setattr(selection, "solve_te", cold)
        monkeypatch.setattr(PoolModel, "__init__", start)
        monkeypatch.setattr(PoolModel, "solve", warm)


def middlepoints_of(program):
    return tuple(sorted({v for tun in program.tunnels for v in tun.middlepoints}))


# Benchmark-tier instances: n=30, m=120, capacities 1..10, 100 gravity
# demands; (topology seed, demand seed).
TIER = [(4000 + i, 4500 + i) for i in range(6)]
TIER_CASES = [
    *((*seeds, method, "1") for seeds in TIER for method in ("sp", "gsp", "degree")),
    (*TIER[0], "gsp", "2"),
]


@pytest.mark.parametrize("topology_seed, demand_seed, method, m", TIER_CASES)
def test_chained_sweep_is_the_per_k_loop_on_benchmark_instances(
    monkeypatch, tmp_path, topology_seed, demand_seed, method, m
):
    """``sweep --sweep-k 1:6`` solves its first point cold and the five
    others warm in one chain, each within 1e-12 (relative) of the per-K
    loop's cold theta of the same program, and prints the loop's bytes."""
    net = random_connected_digraph(30, 120, topology_seed, max_capacity=10)
    topo = tmp_path / "net.topo"
    topo.write_text(serialize_topology(net))
    argv = ["sweep", "--topology", topo, "--gravity", "100", "--seed",
            demand_seed, "--method", method, "--sweep-k", "1:6", "--m", m]
    with monkeypatch.context() as patch:
        chained = ChainTrace(patch)
        got = run_main(argv)
    with monkeypatch.context() as patch:
        loop = ChainTrace(patch)
        patch.setattr(cli, "cmd_sweep", per_k_sweep)
        assert got == run_main(argv)
    assert got[0] == 0
    assert len(chained.cold) == len(chained.starts) == 1
    assert len(chained.warm) == 5 and not loop.warm
    thetas = [chained.cold[0][1]] + [theta for *_, theta in chained.warm]
    for theta, (_, cold) in zip(thetas, loop.cold, strict=True):
        assert abs(theta - cold) <= 1e-12 * max(1.0, abs(cold))


def gsp_picks(k):
    """net10's top-k GSP middlepoints, in pick order."""
    network = parse_topology((DATA / "net10.topo").read_text())
    return tuple(greedy_group_select(network, k))


@pytest.mark.parametrize("axis, cold, warm", [
    ("1:6", [1], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    ("3,1,2", [3, 1], [(1, 2)]),  # 1 does not contain 3: solved cold
    ("2,2", [2], []),
    ("1,3,6", [1], [(1, 3), (3, 6)]),  # a point may bring several nodes
])
def test_each_point_containing_the_last_is_solved_warm(
    monkeypatch, axis, cold, warm
):
    argv = ["sweep", *NET10, "--method", "gsp", "--sweep-k", axis]
    with monkeypatch.context() as patch:
        trace = ChainTrace(patch)
        got = run_main(argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_sweep", per_k_sweep)
        assert got == run_main(argv)
    assert [mids for mids, _ in trace.cold] == [
        tuple(sorted(gsp_picks(k))) for k in cold
    ]
    assert trace.starts == [gsp_picks(k) for k in cold]
    assert [(last, new) for last, new, _ in trace.warm] == [
        (tuple(sorted(gsp_picks(a))), gsp_picks(b)) for a, b in warm
    ]


@pytest.mark.parametrize("module, check", [
    (srte.te, "_certify"), (srte.lp, "_check_rows"),
])
def test_a_warm_point_failing_a_check_is_solved_cold(monkeypatch, module, check):
    """The check raises once, in point 3's warm solve (its third call: one
    per solve, as point 1 is cold and point 2 warm). Point 3 is solved cold,
    prints the per-K loop's row, and point 4 is solved warm from it."""
    argv = ["sweep", *NET10, "--method", "gsp", "--sweep-k", "1:6"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_sweep", per_k_sweep)
        want = run_main(argv)
    calls = []
    real = getattr(module, check)

    def fails_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("solver returned an infeasible point")
        return real(*args)

    with monkeypatch.context() as patch:
        trace = ChainTrace(patch)
        patch.setattr(module, check, fails_third)
        assert run_main(argv) == want
    assert want[0] == 0
    assert [mids for mids, _ in trace.cold] == [
        tuple(sorted(gsp_picks(k))) for k in (1, 3)
    ]
    assert trace.starts == [gsp_picks(1), gsp_picks(3)]
    assert [(last, theta is None) for last, _, theta in trace.warm] == [
        (tuple(sorted(gsp_picks(k))), k == 2) for k in (1, 2, 3, 4, 5)
    ]


def test_an_error_point_restarts_the_chain(monkeypatch):
    """Point 3 fails its certificate warm and cold: it is an error row, as
    in the per-K loop, point 4 is solved cold and point 5 warm from it."""
    argv = ["sweep", *NET10, "--method", "gsp", "--sweep-k", "1:6"]
    real = srte.te._certify

    def refuses_three(program, *args):
        if middlepoints_of(program) == tuple(sorted(gsp_picks(3))):
            raise ArithmeticError("LP solver failed: theta is not optimal")
        return real(program, *args)

    monkeypatch.setattr(srte.te, "_certify", refuses_three)
    with monkeypatch.context() as patch:
        trace = ChainTrace(patch)
        got = run_main(argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_sweep", per_k_sweep)
        assert got == run_main(argv)
    code, out, err = got
    assert code == 2
    assert out.splitlines()[3] == "3,error,,,0"
    assert err == "point 3: LP solver failed: theta is not optimal\n"
    assert trace.starts == [gsp_picks(1), gsp_picks(4)]
    assert [new for _, new, _ in trace.warm] == [gsp_picks(k) for k in (2, 3, 5, 6)]
