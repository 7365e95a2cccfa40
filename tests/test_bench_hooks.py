"""The benchmark's outside-in tracer (bench/tracer.py) against the library.

The tracer wraps public callables where the package binds them and reads the
sizes of every built program from ``program.lp``; these tests pin the names
and attributes it relies on.
"""

import contextlib
import importlib
import io
import json
import pathlib
import sys

import srte.lp
import srte.paths
import srte.selection
import srte.te
from srte.cli import main
from srte.graph import parse_demands, parse_topology
from srte.paths import ShortestPathCache
from srte.te import build_mp_baseline, build_te_lu, tunnels_for_middlepoints

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

sys.path.insert(0, str(ROOT / "bench"))
import tracer  # noqa: E402

ARGV = [
    "solve", "--topology", str(DATA / "net10.topo"),
    "--demands", str(DATA / "net10.dem"), "--method", "all-nodes", "--m", "2",
]


def run_main(argv=ARGV):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_traced_solve_prints_the_same_and_counts_the_lp():
    untraced = run_main()
    def hooks():
        return srte.te.solve_lp, srte.lp.linprog, srte.paths.segment_fractions

    originals = hooks()
    t = tracer.Tracer()
    with t:
        assert hooks() != originals
        traced = run_main()
    assert hooks() == originals
    assert traced == untraced

    network = parse_topology((DATA / "net10.topo").read_text())
    demands = parse_demands((DATA / "net10.dem").read_text()).bind(network)
    cache = ShortestPathCache(network)
    tunnels = tunnels_for_middlepoints(
        cache, demands, range(network.node_count), 2
    )
    lp = build_te_lu(cache, demands, tunnels).lp
    assert t.counts["lp_cols"] == lp.num_vars
    assert t.counts["lp_rows"] == len(lp.rows) == lp.a_ub.shape[0]
    assert t.counts["lp_nnz"] == lp.a_ub.nnz
    assert t.counts["tunnels"] == lp.num_vars - 1
    assert t.calls["lp.solve_lp"] == t.calls["lp.linprog"] == 1
    assert t.counts["highs_iterations"] > 0
    # Every load column comes from the segment matrix, which reads one
    # forward DAG per node, each computed once through the module global;
    # no segment takes the per-segment Python walk.
    assert t.calls["paths.segment_fractions"] == 0
    assert t.calls["paths.sp_dag"] == network.node_count


def bound_sites():
    """What every name the tracer patches is bound to, where it is bound."""
    sites = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracer._FUNCTION_SITES
    }
    for class_name, attr, _ in tracer._METHOD_SITES:
        sites[class_name, attr] = getattr(srte.paths, class_name).__dict__[attr]
    return sites


def test_traced_greedy_prints_the_same_and_restores_every_site(monkeypatch):
    argv = [*ARGV[:5], "--method", "greedy", "--k", "3", "--m", "2"]
    untraced = run_main(argv)
    cold = []  # each cold LP's solution
    real = srte.lp.linprog

    def spy(*args, **kwargs):
        cold.append(real(*args, **kwargs))
        return cold[-1]

    warm = []  # one per ranking solve in a round's model
    real_solve = srte.lp.LpModel.solve_with

    def ranking(model, *args):
        warm.append(args)
        return real_solve(model, *args)

    # Per round: its candidates, and those the round ranked.
    rounds = []
    real_bounds = srte.selection.extension_bounds
    real_theta = srte.te.PoolModel.theta

    def bounding(pool, middlepoints, nodes, duals):
        rounds.append((list(nodes), []))
        return real_bounds(pool, middlepoints, nodes, duals)

    def ranked(model, node):
        rounds[-1][1].append(node)
        return real_theta(model, node)

    joined = []  # each winner that joined its round's model: not solved cold
    real_join = srte.te.PoolModel.join

    def join(model, node):
        solution = real_join(model, node)
        joined.append(node)
        return solution

    monkeypatch.setattr(srte.te.PoolModel, "join", join)
    monkeypatch.setattr(srte.lp, "linprog", spy)  # the tracer wraps the spy
    monkeypatch.setattr(srte.lp.LpModel, "solve_with", ranking)
    monkeypatch.setattr(srte.selection, "extension_bounds", bounding)
    monkeypatch.setattr(srte.te.PoolModel, "theta", ranked)
    originals = bound_sites()
    t = tracer.Tracer()
    with t:
        traced = run_main(argv)
    assert bound_sites() == originals
    assert traced == untraced
    # Every subproblem the output counts is the initial set's cold solve,
    # or one of a round's candidates: solved in the round's model, or
    # skipped by its dual bound. Every cold solve of the initial set or of a
    # round's near-tie (a cold confirmation) returns its basis and duals,
    # which the next round's model and bounds start from, and is one LP
    # more; the tracer sees only the cold solves, the model's are not among
    # its sites. Each round's winner is confirmed cold or joins the model.
    subproblems = json.loads(untraced)["subproblems"]
    confirmations = len(cold) - 1
    screened = sum(len(nodes) - len(solved) for nodes, solved in rounds)
    assert all(len(set(solved)) == len(solved) for _, solved in rounds)
    assert all(sol.basis is not None and sol.duals is not None for sol in cold)
    assert len(warm) + screened == subproblems - 1
    assert confirmations + len(joined) >= 3  # the winner of each of 3 rounds
    assert (
        t.calls["te.solve_te"] == t.calls["lp.linprog"]
        == 1 + confirmations
    )


def test_traced_mp_baseline_counts_both_blocks():
    argv = [*ARGV[:5], "--method", "mp-baseline"]
    untraced = run_main(argv)
    t = tracer.Tracer()
    with t:
        traced = run_main(argv)
    assert traced == untraced

    network = parse_topology((DATA / "net10.topo").read_text())
    demands = parse_demands((DATA / "net10.dem").read_text()).bind(network)
    lp = build_mp_baseline(network, demands, "lu").lp
    assert lp.a_eq.shape[0] > 0
    assert t.counts["lp_cols"] == lp.num_vars
    assert t.counts["lp_rows"] == lp.a_ub.shape[0] + lp.a_eq.shape[0]
    assert t.counts["lp_nnz"] == lp.a_ub.nnz + lp.a_eq.nnz
    assert t.calls["te.build_mp_baseline"] == t.calls["te.solve_mp"] == 1
    assert t.calls["lp.solve_lp"] == 1


def test_traced_gsp_sweep_ranks_once_and_solves_once_per_point():
    """A K-sweep ranks once and solves its first point cold, through the
    names the tracer wraps in ``srte.selection``, so the benchmark's
    centrality and LP layers stay visible on gsp-sweep. Every later point
    contains the one before, and is solved warm in the chain's model, which
    the tracer does not see."""
    argv = ["sweep", *ARGV[1:5], "--method", "gsp", "--sweep-k", "1:4"]
    untraced = run_main(argv)
    originals = bound_sites()
    t = tracer.Tracer()
    with t:
        traced = run_main(argv)
    assert bound_sites() == originals
    assert traced == untraced
    points = len(untraced.splitlines()) - 1
    assert points == 4
    assert t.calls["centrality.greedy_group_select"] == 1
    assert t.calls["te.solve_te"] == t.calls["lp.linprog"] == 1
