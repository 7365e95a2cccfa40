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

from srte import cli, selection
from srte.graph import random_connected_digraph
from srte.lp import LpStatus
from srte.paths import ShortestPathCache
from srte.selection import (
    BudgetExceededError,
    SelectionResult,
    greedy_select,
    select_prefixes,
)
from srte.te import NoTunnelError

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
