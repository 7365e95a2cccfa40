"""The greedy ranks each round's candidates by warm solves in one model of
the chosen set (``PoolModel.theta``, the ranking seam), in ascending
order of their dual bounds (``extension_bounds``, the screening seam), skips
those the bounds show cannot win, and solves only near-ties cold: it must
print exactly what the all-cold loop printed."""

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

import srte.lp
import srte.selection
import srte.te
from srte import cli
from srte.te import PoolModel, TunnelPool
from srte.paths import ShortestPathCache
from srte.graph import (
    generate_gravity_demands,
    parse_topology,
    random_connected_digraph,
    serialize_topology,
)
from srte.selection import (
    IMPROVEMENT_TOL,
    SelectionResult,
    greedy_select,
)

from conftest import reference_lu_columns

# The relative gap within which warm thetas count as tied: a round solves
# cold every candidate within 1e-12 * max(1, |least warm theta|) of it.
TIE = 1e-12


def no_screening(monkeypatch):
    """Bound every candidate by -inf: each round ranks all its candidates."""
    monkeypatch.setattr(
        srte.selection, "extension_bounds",
        lambda pool, middlepoints, nodes, duals: np.full(len(nodes), -np.inf),
    )


def cold_greedy_points(pool, candidates, ks, initial=()):
    """The greedy expansion with every subproblem solved cold, each round's
    winner the first candidate of least theta: the reference loop."""
    evaluate = srte.selection._evaluate
    chosen = list(initial)
    unexplored = [v for v in candidates if v not in chosen]
    theta, current, error = evaluate(pool, chosen)
    subproblems = 1
    states = [(chosen[:], current, error, subproblems)]
    k_max = max(ks)
    while len(chosen) < k_max and unexplored:
        pool.cover(chosen + [v] for v in unexplored)
        best = None
        for v in unexplored:
            trial = (*evaluate(pool, chosen + [v]), v)
            if best is None or trial[0] < best[0]:
                best = trial
        subproblems += len(unexplored)
        improved = best[0] < theta - IMPROVEMENT_TOL
        if improved:
            theta, current, error, v = best
            chosen.append(v)
            unexplored.remove(v)
        states.append((chosen[:], current, error, subproblems))
        if not improved:
            break
    outcomes = []
    for k in ks:
        picks, solution, error, count = next(
            (state for state in states if len(state[0]) >= k), states[-1]
        )
        outcomes.append(error or SelectionResult("Greedy", picks, solution, count))
    return outcomes


def ring(n):
    """Bidirectional ring of equal capacities: many equal-theta candidates."""
    return "".join(
        f"EDGE r{i} r{(i + 1) % n} 1\nEDGE r{(i + 1) % n} r{i} 1\n" for i in range(n)
    )


def grid(rows, cols):
    """Bidirectional rows x cols grid of equal capacities."""
    lines = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < rows and c + dc < cols:
                    a, b = f"g{r}_{c}", f"g{r + dr}_{c + dc}"
                    lines += [f"EDGE {a} {b} 1\n", f"EDGE {b} {a} 1\n"]
    return "".join(lines)


def instances():
    """(topology text, gravity demands, seed, k, m, initial) for 50 runs:
    random strongly connected digraphs with n 8-30 (capacities 1..10, or all
    1), equal-capacity rings and grids, m 1 and 2, some from an initial set."""
    rng = random.Random(11)
    runs = []
    for i in range(18):
        n = [8, 10, 12, 15, 20, 30][i % 6]
        m = 2 if n <= 15 and i % 2 else 1
        net = random_connected_digraph(
            n, 3 * n + rng.randrange(n), 900 + i, max_capacity=(1, 10)[i % 3 != 0]
        )
        runs.append((serialize_topology(net), 20 + rng.randrange(20), i, 3, m, ()))
    for i, n in enumerate((8, 9, 10, 11, 12, 14, 16, 12)):
        runs.append((ring(n), 12 + 2 * i, i, 3, 1 + i % 2, ()))
    for i, (rows, cols) in enumerate(((3, 3), (3, 4), (4, 4), (3, 5), (2, 6), (4, 5), (3, 3), (4, 4))):
        runs.append((grid(rows, cols), 15 + i, i, 3, 1 + i % 2, ()))
    for i, (text, *_) in enumerate(runs[:18:2] + runs[18:22] + runs[26:29]):
        n = parse_topology(text).node_count
        initial = tuple(random.Random(i).sample(range(n), 1 + i % 2))
        runs.append((text, 25, 50 + i, 4, 1 + (n <= 12 and i % 2), initial))
    return runs


def printed(tmp_path, text, gravity, seed, k, m, initial):
    """What ``srte solve --method greedy`` prints for the run; from an
    initial set, the same JSON document of greedy_select's result."""
    if not initial:
        topo = tmp_path / "net.topo"
        topo.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([
                "solve", "--topology", str(topo), "--gravity", str(gravity),
                "--seed", str(seed), "--method", "greedy", "--k", str(k),
                "--m", str(m),
            ])
        assert code == 0
        return out.getvalue()
    net = parse_topology(text)
    demands = generate_gravity_demands(net, gravity, seed)
    result = greedy_select(net, demands, range(net.node_count), k, m, initial=initial)
    return json.dumps(cli._solution_document(net, result, False), indent=2) + "\n"


def test_warm_ranked_greedy_prints_what_the_cold_loop_printed(tmp_path, monkeypatch):
    """Byte-identical greedy JSON on 50 runs, with near-ties that take more
    than one cold confirmation in some rounds (the rings and grids)."""
    runs = instances()
    assert len(runs) >= 40
    cold = []
    real = srte.selection._evaluate

    def counting(pool, middlepoints):
        cold.append(middlepoints)
        return real(pool, middlepoints)

    warm, rounds = [], 0
    with monkeypatch.context() as patch:
        patch.setattr(srte.selection, "_evaluate", counting)
        for run in runs:
            warm.append(printed(tmp_path, *run))
            rounds += 1 + len(json.loads(warm[-1])["middlepoints"]) - len(run[-1])
    monkeypatch.setattr(srte.selection, "_greedy_points", cold_greedy_points)
    for run, got in zip(runs, warm):
        assert got == printed(tmp_path, *run), run[1:]
    # Each run solves cold its initial set and each cold confirmation, one
    # per improving round at least; more means near-ties.
    assert len(cold) > rounds


def test_warm_theta_noise_below_the_tie_tolerance_moves_no_pick(
    tmp_path, monkeypatch
):
    """Every warm theta moved by a quarter of the tie tolerance, down and up
    in turn (then up and down), leaves every printed byte as it was. Every
    candidate is ranked (no screening), so each one is moved."""
    runs = [run for run in instances() if not run[-1]][::2]
    want = [printed(tmp_path, *run) for run in runs]
    no_screening(monkeypatch)
    real = PoolModel.theta
    moved = []

    def noisy(model, node):
        theta = real(model, node)
        if theta < math.inf:
            sign = 1 if (len(moved) + phase) % 2 else -1
            moved.append(sign)
            theta += sign * TIE * max(1.0, abs(theta)) / 4
        return theta

    monkeypatch.setattr(PoolModel, "theta", noisy)
    for phase in (0, 1):
        for run, expected in zip(runs, want):
            moved.clear()
            assert printed(tmp_path, *run) == expected, (phase, run[1:])
            assert len(moved) > 10


def test_failed_warm_solves_are_solved_cold(tmp_path, monkeypatch):
    """A candidate whose warm solve raises ArithmeticError is ranked by its
    cold solve. Every warm solve of the rounds to an even set size failing,
    and every third of the others, leaves every printed byte as the all-cold
    loop printed it."""
    runs = [instances()[i] for i in (0, 12, 18, 19, 26, 43)]
    real = PoolModel.theta
    warm = []

    def failing(model, node):
        middlepoints = [*model.middlepoints, node]
        warm.append(middlepoints)
        if len(middlepoints) % 2 == 0 or len(warm) % 3 == 0:
            raise ArithmeticError("LP solver failed: injected")
        return real(model, node)

    with monkeypatch.context() as patch:
        patch.setattr(PoolModel, "theta", failing)
        got = [printed(tmp_path, *run) for run in runs]
    assert len(warm) >= 30
    monkeypatch.setattr(srte.selection, "_greedy_points", cold_greedy_points)
    for run, out in zip(runs, got):
        assert out == printed(tmp_path, *run), run[1:]


def test_a_cold_winner_that_does_not_improve_ends_the_expansion(
    tmp_path, monkeypatch
):
    """Warm thetas reported 2 * IMPROVEMENT_TOL low make a round that cannot
    improve look as if it could: its cold confirmations find no improvement,
    and the expansion ends where the all-cold loop's ends. Every candidate
    is ranked (no screening): the screen would skip each of these last
    rounds before any solve."""
    runs = [instances()[i] for i in (12, 19, 20, 43, 45)]
    real = srte.selection._evaluate
    real_theta = PoolModel.theta
    real_round = srte.selection._greedy_round
    cold, refuted = [], []

    def evaluate(pool, middlepoints):
        cold.append(middlepoints)
        return real(pool, middlepoints)

    def low(model, node):
        theta = real_theta(model, node)
        if theta < math.inf:
            theta -= 2 * IMPROVEMENT_TOL
        return theta

    def round_(*args):
        before = len(cold)
        winner = real_round(*args)
        if winner is None and len(cold) > before:
            refuted.append(args[1])
        return winner

    with monkeypatch.context() as patch:
        no_screening(patch)
        patch.setattr(srte.selection, "_evaluate", evaluate)
        patch.setattr(PoolModel, "theta", low)
        patch.setattr(srte.selection, "_greedy_round", round_)
        got = [printed(tmp_path, *run) for run in runs]
    assert len(refuted) == len(runs)  # each run's last round
    monkeypatch.setattr(srte.selection, "_greedy_points", cold_greedy_points)
    for run, out in zip(runs, got):
        assert out == printed(tmp_path, *run), run[1:]


def test_a_round_that_cannot_improve_ranks_no_candidate(tmp_path, monkeypatch):
    """Each of these five expansions ends in a round of theta above 1 with
    no winner, where every candidate's dual bound less its tie band cannot
    improve on theta: the round ranks none of its candidates and solves
    none cold, and the expansion ends where the all-cold loop's ends."""
    runs = [instances()[i] for i in (12, 19, 20, 43, 45)]
    real_round = srte.selection._greedy_round
    real_theta = PoolModel.theta
    real_evaluate = srte.selection._evaluate
    rounds, last = [], []

    def round_(pool, chosen, unexplored, theta, parent):
        rounds.append({"theta": theta, "candidates": len(unexplored), "solves": 0})
        return real_round(pool, chosen, unexplored, theta, parent)

    def theta_(model, node):
        rounds[-1]["solves"] += 1
        return real_theta(model, node)

    def evaluate(pool, middlepoints):
        if rounds:
            rounds[-1]["solves"] += 1
        return real_evaluate(pool, middlepoints)

    got = []
    with monkeypatch.context() as patch:
        patch.setattr(srte.selection, "_greedy_round", round_)
        patch.setattr(PoolModel, "theta", theta_)
        patch.setattr(srte.selection, "_evaluate", evaluate)
        for run in runs:
            rounds.clear()
            got.append(printed(tmp_path, *run))
            last.append(rounds[-1])
    for end in last:
        assert end["theta"] > 1
        assert end["candidates"] >= 6
        assert end["solves"] == 0
    monkeypatch.setattr(srte.selection, "_greedy_points", cold_greedy_points)
    for run, out in zip(runs, got):
        assert out == printed(tmp_path, *run), run[1:]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_each_candidate_adds_the_pool_columns_the_model_lacks(m, monkeypatch):
    """For each node, the columns the chosen set's model holds and those its
    solve adds are together exactly the pool columns of the set plus the
    node (``TunnelPool._columns``), and the arrays the solve adds
    (``LpModel.solve_with``) are, dtype for dtype, the reference fill of the
    added columns (``reference_lu_columns``): from the empty set and from
    initial sets, with candidates a strict subset of the nodes (the others
    bring no column), at m = 0, 1 and 2."""
    added, real = [], srte.lp.LpModel.solve_with

    def spy(model, *arrays):
        added.append(arrays)
        return real(model, *arrays)

    monkeypatch.setattr(srte.lp.LpModel, "solve_with", spy)
    models = sliced = 0
    for text, gravity, seed, _, _, initial in instances()[::7]:
        net = parse_topology(text)
        demands = generate_gravity_demands(net, gravity, seed)
        pool = TunnelPool(ShortestPathCache(net), demands, m)
        chosen = list(initial)
        others = [v for v in range(net.node_count) if v not in chosen]
        candidates = others[::2]
        pool.cover(chosen + [v] for v in candidates)
        theta, parent, _ = srte.selection._evaluate(pool, chosen)
        if theta == math.inf:
            continue
        model = PoolModel(pool, chosen, parent.program, parent.basis)
        models += 1
        held = model._columns
        for v in others:
            added.clear()
            with contextlib.suppress(ArithmeticError):
                model.theta(v)
            (arrays,) = added
            columns = pool._columns((*chosen, v))
            new = columns[~np.isin(columns, held)]
            assert np.isin(held, columns).all()
            assert len(held) + len(new) == len(columns)
            for a, b in zip(arrays, reference_lu_columns(pool, new)):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            if m == 0 or v not in candidates:
                assert len(new) == 0
            sliced += len(new) > 0
    assert models >= 6
    assert sliced > 20 if m else sliced == 0


def test_incremental_theta_is_within_the_tie_tolerance_of_the_cold_theta(
    tmp_path, monkeypatch
):
    """On every candidate of the 50 runs, the theta of the chosen set's model
    with the candidate's columns added is within WARM_TIE_TOL of the theta of
    the candidate's set solved cold. Every candidate is ranked (no
    screening), so each one is compared."""
    no_screening(monkeypatch)
    real = PoolModel.theta
    evaluate = srte.selection._evaluate
    gaps = []

    def compared(model, node):
        theta = real(model, node)
        cold, _, _ = evaluate(model._pool, [*model.middlepoints, node])
        gaps.append(abs(theta - cold) / max(1.0, abs(cold)))
        return theta

    monkeypatch.setattr(PoolModel, "theta", compared)
    for run in instances():
        printed(tmp_path, *run)
    assert len(gaps) > 1000
    assert max(gaps) <= srte.selection.WARM_TIE_TOL


def test_each_probe_leaves_the_model_at_the_chosen_set():
    """After each candidate's solve the model holds the chosen set's program
    at its optimal basis again: solved with no column added, it reaches the
    chosen set's cold theta in no simplex iteration."""
    no_columns = (np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))
    probes = 0
    for text, gravity, seed, _, m, initial in instances()[::5]:
        net = parse_topology(text)
        demands = generate_gravity_demands(net, gravity, seed)
        pool = TunnelPool(ShortestPathCache(net), demands, m)
        chosen = list(initial) or [0]
        others = [v for v in range(net.node_count) if v not in chosen]
        pool.cover(chosen + [v] for v in others)
        theta, parent, _ = srte.selection._evaluate(pool, chosen)
        if theta == math.inf:
            continue
        model = PoolModel(pool, chosen, parent.program, parent.basis)
        for v in others:
            model.theta(v)
            again = model._model.solve_with(*no_columns)
            assert again.nit == 0
            assert again.objective_value == theta
            probes += 1
    assert probes > 50


def test_dual_bound_is_at_most_the_cold_theta_of_every_candidate(
    tmp_path, monkeypatch
):
    """On every candidate of every round of the 50 runs, the dual bound at
    the chosen set's duals, less its tie band (the screen's margin), is at
    most the theta of the candidate's set solved cold."""
    real = srte.selection.extension_bounds
    evaluate = srte.selection._evaluate
    checked = []

    def compared(pool, middlepoints, nodes, duals):
        bounds = real(pool, middlepoints, nodes, duals)
        for v, bound in zip(nodes, bounds.tolist()):
            cold, _, _ = evaluate(pool, [*middlepoints, v])
            assert bound - srte.selection.WARM_TIE_TOL * max(1.0, abs(bound)) <= cold, (
                middlepoints, v, bound, cold,
            )
            checked.append(v)
        return bounds

    monkeypatch.setattr(srte.selection, "extension_bounds", compared)
    for run in instances():
        printed(tmp_path, *run)
    assert len(checked) > 1000


def test_screened_candidates_count_as_subproblems_and_cannot_win(monkeypatch):
    """On a benchmark-tier instance (n=30, 120 edges, capacities 1..10, 100
    gravity demands, k=4, m=1) each round ranks a prefix of its candidates
    in ascending bound order and skips the rest. Ranking solves plus skipped
    candidates are the printed subproblems less the initial set, some are
    skipped, and each skipped candidate's cold theta is above the round
    winner's (or, first of least, ties it after it in node order), or cannot
    improve when the round has no winner."""
    net = random_connected_digraph(30, 120, 0, max_capacity=10)
    demands = generate_gravity_demands(net, 100, 500)
    real_round = srte.selection._greedy_round
    real_bounds = srte.selection.extension_bounds
    real_theta = PoolModel.theta
    rounds = []

    def round_(pool, chosen, unexplored, theta, parent):
        rounds.append({
            "pool": pool, "chosen": list(chosen), "candidates": list(unexplored),
            "theta": theta, "bounds": None, "ranked": [],
        })
        rounds[-1]["winner"] = real_round(pool, chosen, unexplored, theta, parent)
        return rounds[-1]["winner"]

    def bounds_(pool, middlepoints, nodes, duals):
        rounds[-1]["bounds"] = real_bounds(pool, middlepoints, nodes, duals)
        return rounds[-1]["bounds"]

    def theta_(model, node):
        rounds[-1]["ranked"].append(node)
        return real_theta(model, node)

    monkeypatch.setattr(srte.selection, "_greedy_round", round_)
    monkeypatch.setattr(srte.selection, "extension_bounds", bounds_)
    monkeypatch.setattr(PoolModel, "theta", theta_)
    result = greedy_select(net, demands, range(30), 4, 1)
    ranked = screened = 0
    for r in rounds:
        assert r["bounds"] is not None  # every round has a parent optimum
        order = [r["candidates"][i] for i in np.argsort(r["bounds"], kind="stable")]
        count = len(r["ranked"])
        assert r["ranked"] == order[:count]
        ranked += count
        screened += len(order) - count
        for v in order[count:]:
            cold, _, _ = srte.selection._evaluate(r["pool"], [*r["chosen"], v])
            if r["winner"] is None:
                assert cold >= r["theta"] - IMPROVEMENT_TOL
            else:
                w, (theta_w, _, _) = r["winner"]
                assert (cold, v) > (theta_w, w)
    assert ranked + screened == result.subproblems_solved - 1
    assert screened > 0


def test_a_round_reuses_the_chosen_sets_assembled_lp(monkeypatch):
    """A greedy k=3 run assembles one LP per cold solve and no more: each
    round's ``PoolModel`` loads the LP of the chosen set's solution
    instead of slicing and assembling it again."""
    net = random_connected_digraph(30, 120, 4000)
    demands = generate_gravity_demands(net, 100, 4500)
    counts = {"assembled": 0, "cold": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(srte.te, "_tunnel_lp", counted("assembled", srte.te._tunnel_lp))
    monkeypatch.setattr(srte.te, "solve_lp", counted("cold", srte.te.solve_lp))
    result = greedy_select(net, demands, range(30), 3, 1)
    assert len(result.middlepoints) == 3
    assert counts["assembled"] == counts["cold"] >= 4
