"""The greedy ranks each round's candidates by warm-started solves and solves
only near-ties cold: it must print exactly what the all-cold loop printed."""

import contextlib
import io
import json
import math
import random

import pytest

import srte.selection
from srte import cli
from srte.graph import (
    generate_gravity_demands,
    parse_topology,
    random_connected_digraph,
    serialize_topology,
)
from srte.selection import IMPROVEMENT_TOL, SelectionResult, greedy_select

# The relative gap within which warm thetas count as tied: a round solves
# cold every candidate within 1e-12 * max(1, |least warm theta|) of it.
TIE = 1e-12


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
    asked = []
    real = srte.selection._evaluate

    def counting(pool, middlepoints, start=None, return_basis=False):
        asked.append(return_basis)
        return real(pool, middlepoints, start, return_basis)

    warm, rounds = [], 0
    with monkeypatch.context() as patch:
        patch.setattr(srte.selection, "_evaluate", counting)
        for run in runs:
            warm.append(printed(tmp_path, *run))
            rounds += 1 + len(json.loads(warm[-1])["middlepoints"]) - len(run[-1])
    monkeypatch.setattr(srte.selection, "_greedy_points", cold_greedy_points)
    for run, got in zip(runs, warm):
        assert got == printed(tmp_path, *run), run[1:]
    # Each run asks for the basis of its initial set and of each cold
    # confirmation, one per improving round at least; more means near-ties.
    assert sum(asked) > rounds


def test_warm_theta_noise_below_the_tie_tolerance_moves_no_pick(
    tmp_path, monkeypatch
):
    """Every warm theta moved by a quarter of the tie tolerance, down and up
    in turn (then up and down), leaves every printed byte as it was."""
    runs = [run for run in instances() if not run[-1]][::2]
    want = [printed(tmp_path, *run) for run in runs]
    real = srte.selection._evaluate
    moved = []

    def noisy(pool, middlepoints, start=None, return_basis=False):
        theta, solution, error = real(pool, middlepoints, start, return_basis)
        if start is not None and theta < math.inf:
            sign = 1 if (len(moved) + phase) % 2 else -1
            moved.append(sign)
            theta += sign * TIE * max(1.0, abs(theta)) / 4
        return theta, solution, error

    monkeypatch.setattr(srte.selection, "_evaluate", noisy)
    for phase in (0, 1):
        for run, expected in zip(runs, want):
            moved.clear()
            assert printed(tmp_path, *run) == expected, (phase, run[1:])
            assert len(moved) > 10
