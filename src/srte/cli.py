"""Command-line front end.

Subcommands: ``solve`` (one TE run), ``sweep`` (K / M / method sweeps as CSV),
``centrality`` (ranked node table), ``oracle`` (brute-force property suites).

stdout carries exactly one JSON document or one CSV table; every diagnostic
goes to stderr. Exit codes: 0 optimal / all-pass, 2 infeasible / suite
failure, 1 usage or IO error. Output that cannot be written is an IO error:
one ``error:`` line, or none when stdout is a pipe its reader has closed (as
under ``| head``). With a fixed seed all output is byte-identical
across runs; measured solve times are reported only under ``--timing`` since
they would break that guarantee (the field is null otherwise).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from typing import Iterable, Iterator, Optional, Sequence

from . import centrality as centrality_mod
from .graph import (
    Commodity,
    DemandMatrix,
    FlowNetwork,
    SizeCapExceededError,
    generate_gravity_demands,
    parse_demands,
    parse_topology,
    random_digraph,
)
from .lp import LpStatus
from .paths import ShortestPathCache
from .selection import (
    BudgetExceededError,
    DEFAULT_SUBPROBLEM_BUDGET,
    PREFIX_METHODS,
    Outcome,
    SelectionResult,
    centrality_select,
    greedy_select,
    optimal_select,
    select_prefixes,
    solve_with_middlepoints,
)
from .te import LU, MF, NoTunnelError, TunnelCapError, build_mp_baseline
# The MP baseline solves like any TE program; bench/tracer.py times its
# solves apart from the tunnel solves by this name.
from .te import solve_te as solve_mp

SELECTION_METHODS = (
    "sp", "gsp", "degree", "random", "optimal", "greedy", "mp-baseline",
    "all-nodes",
)


class UsageError(Exception):
    pass


class NotOptimalError(Exception):
    """A solve's program is infeasible or unbounded."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _read_topology(args) -> FlowNetwork:
    try:
        with open(args.topology) as fh:
            return parse_topology(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read topology: {exc}") from exc


def _load_inputs(args) -> tuple[FlowNetwork, DemandMatrix]:
    network = _read_topology(args)
    if args.demands is not None and args.gravity is not None:
        raise UsageError("give either --demands or --gravity, not both")
    if args.demands is not None:
        try:
            with open(args.demands) as fh:
                parsed = parse_demands(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read demands: {exc}") from exc
        demands = parsed.bind(network)
    elif args.gravity is not None:
        demands = generate_gravity_demands(network, args.gravity, args.seed)
    else:
        raise UsageError("either --demands or --gravity is required")
    if args.scale != 1.0:
        demands = demands.scaled(args.scale)
    return network, demands


def _check_point(network: FlowNetwork, args, method: str, k: int, m: int) -> None:
    """Reject a run's method, K, M or method options before anything is printed."""
    if method not in SELECTION_METHODS:
        raise UsageError(f"unknown method {method!r}")
    if not 1 <= k <= network.node_count:
        raise UsageError(f"k must be in [1, {network.node_count}], got {k}")
    if m < 0:
        raise UsageError(f"m must be non-negative, got {m}")
    if args.budget < 0:
        raise UsageError(f"--budget must be non-negative, got {args.budget}")
    if method in ("optimal", "greedy") and args.objective != LU:
        raise UsageError(f"--method {method} supports only --objective lu")
    if args.single_middlepoint and method != "all-nodes":
        raise UsageError(
            f"--single-middlepoint applies only to --method all-nodes, not {method}"
        )
    if args.single_middlepoint and m == 0:
        raise UsageError("--single-middlepoint needs --m of at least 1")
    if args.weighted and method not in ("sp", "gsp", "degree"):
        raise UsageError(
            f"--weighted applies only to --method sp, gsp or degree, not {method}"
        )


def _run_method(
    network: FlowNetwork,
    demands: DemandMatrix,
    args,
    method: str,
    k: int,
    m: int,
    seed: int,
    cache: ShortestPathCache,
) -> SelectionResult:
    """Select middlepoints by ``method`` and solve TE on them."""
    if method == "mp-baseline":
        solution = solve_mp(build_mp_baseline(network, demands, args.objective))
        return SelectionResult("MP-Baseline", [], solution)
    candidates = list(range(network.node_count))
    if method == "all-nodes":
        solution = solve_with_middlepoints(
            cache, demands, candidates, m, args.objective, args.single_middlepoint
        )
        return SelectionResult("All-Nodes", candidates, solution)
    if method == "optimal":
        return optimal_select(
            network, demands, candidates, k, m, budget=args.budget, cache=cache
        )
    if method == "greedy":
        return greedy_select(network, demands, candidates, k, m, cache=cache)
    return centrality_select(
        network, demands, method, k, m,
        weighted=args.weighted, seed=seed, objective=args.objective, cache=cache,
    )


def _point_key(
    method: str, k: int, m: int, seed: int, single_middlepoint: bool,
    node_count: int,
) -> tuple:
    """The part of a run that its method reads: runs with one key select and
    solve the same. A tunnel has at most n - 2 middlepoints, so every M of
    at least n is keyed as n."""
    m = min(m, node_count)
    if method == "mp-baseline":
        return (method,)
    if method == "all-nodes":
        # A single middlepoint per tunnel whatever m is.
        return (method,) if single_middlepoint else (method, m)
    if method == "random":
        return (method, k, m, seed)
    return (method, k, m)


def _each_point(
    network, demands, args, runs: Iterable[tuple], cache
) -> Iterator[tuple[tuple, Outcome]]:
    """Each sweep run with its outcome, every distinct run selected on its
    own, the outcome of a run that differs from an earlier one only in what
    its method ignores yielded again; a point's selection or solve error is
    its outcome. The runs are read one at a time."""
    outcomes: dict[tuple, Outcome] = {}
    for run in runs:
        _, *point = run
        key = _point_key(*point, args.single_middlepoint, network.node_count)
        if key not in outcomes:
            try:
                outcomes[key] = _run_method(
                    network, demands, args, *point, cache
                )
            except (
                NoTunnelError, BudgetExceededError, TunnelCapError, ArithmeticError
            ) as exc:
                outcomes[key] = exc
        yield run, outcomes[key]


def _solution_document(
    network: FlowNetwork, result: SelectionResult, timing: bool
) -> dict:
    solution = result.solution
    doc: dict = {"objective": solution.kind}
    if solution.kind == LU:
        doc["theta"] = solution.theta
    else:
        doc["satisfaction_ratio"] = solution.satisfaction_ratio
    doc["middlepoints"] = [network.node_names[v] for v in result.middlepoints]
    doc["used_count"] = result.used_count
    split: dict[str, dict[str, float]] = {}
    for tun, ratio in sorted(
        solution.split_ratios.items(), key=lambda kv: kv[0].waypoints
    ):
        names = [network.node_names[w] for w in tun.waypoints]
        pair = f"{names[0]}->{names[-1]}"
        split.setdefault(pair, {})[f"tunnel({','.join(names)})"] = ratio
    doc["split_ratios"] = split
    doc["edge_utilization"] = {
        f"{network.node_names[network.edges[eid].tail]}->"
        f"{network.node_names[network.edges[eid].head]}": util
        for eid, util in sorted(solution.edge_utilization.items())
    }
    doc["solve_ms"] = solution.solve_ms if timing else None
    doc["subproblems"] = result.subproblems_solved
    return doc


def cmd_solve(args) -> int:
    network, demands = _load_inputs(args)
    _check_point(network, args, args.method, args.k, args.m)
    result = _run_method(
        network, demands, args, args.method, args.k, args.m, args.seed,
        ShortestPathCache(network),
    )
    solution = result.solution
    if solution.status is not LpStatus.OPTIMAL:
        raise NotOptimalError(f"program is {solution.status.value}")
    doc = _solution_document(network, result, args.timing)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("objective,value,middlepoints,used_count,solve_ms,subproblems")
        ms = _fmt(solution.solve_ms) if args.timing else ""
        print(
            f"{solution.kind},{_fmt(solution.objective)},"
            f"{';'.join(doc['middlepoints'])},{result.used_count},{ms},"
            f"{result.subproblems_solved}"
        )
    return 0


def _parse_axis(spec: str) -> Sequence[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad sweep axis {spec!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty sweep axis {spec!r}")
    return values


def cmd_sweep(args) -> int:
    network, demands = _load_inputs(args)
    if args.sweep_k is not None:
        ks = _parse_axis(args.sweep_k)
        # A range is checked before it is expanded: lo, then the least K
        # above the node count, if the range reaches it.
        checked = (
            (ks[0], min(ks[-1], network.node_count + 1))
            if isinstance(ks, range) else ks
        )
        for k in checked:
            _check_point(network, args, args.method, k, args.m)
        runs: Iterable[tuple] = [
            (str(k), args.method, k, args.m, args.seed) for k in ks
        ]
    elif args.sweep_m is not None:
        ms = _parse_axis(args.sweep_m)
        # A range is checked at its ends and never expanded: its runs are
        # read one at a time.
        for m in (ms[0], ms[-1]) if isinstance(ms, range) else ms:
            _check_point(network, args, args.method, args.k, m)
        runs = ((str(m), args.method, args.k, m, args.seed) for m in ms)
    else:
        runs = []
        for token in args.sweep_methods.split(","):
            method, _, seed = token.partition(":")
            try:
                seed = int(seed) if seed else args.seed
            except ValueError as exc:
                raise UsageError(f"bad seed in sweep method {token!r}") from exc
            runs.append((token, method, args.k, args.m, seed))
            _check_point(network, args, method, args.k, args.m)

    cache = ShortestPathCache(network)
    if args.sweep_k is not None and args.method in PREFIX_METHODS:
        outcomes = zip(runs, select_prefixes(
            network, demands, args.method, list(ks), args.m,
            weighted=args.weighted, seed=args.seed, objective=args.objective,
            budget=args.budget, cache=cache,
        ))
    else:
        outcomes = _each_point(network, demands, args, runs, cache)
    print("point,status,objective,solve_ms,subproblems")
    worst = 0
    for (label, *_), result in outcomes:
        if isinstance(result, Exception):
            print(f"point {label}: {result}", file=sys.stderr)
            print(f"{label},error,,,0")
            worst = 2
            continue
        solution = result.solution
        optimal = solution.status is LpStatus.OPTIMAL
        if not optimal:
            worst = 2
        value = "" if solution.objective is None else _fmt(solution.objective)
        ms = _fmt(solution.solve_ms) if args.timing and optimal else ""
        print(
            f"{label},{solution.status.value},{value},{ms},"
            f"{result.subproblems_solved}"
        )
    return worst


def cmd_centrality(args) -> int:
    if args.k is not None and args.method != "gsp":
        raise UsageError(f"--k applies only to --method gsp, not {args.method}")
    network = _read_topology(args)
    if args.method == "gsp":
        k = network.node_count if args.k is None else args.k
        order, scores = centrality_mod.greedy_group_scores(
            network, k, args.weighted
        )
    else:
        if args.method == "sp":
            ranked = centrality_mod.betweenness(network, args.weighted)
        else:
            ranked = centrality_mod.degree_centrality(network, args.weighted)
        order = ranked.ordering
        scores = [ranked.scores[v] for v in order]
    print("node,score,rank")
    for rank, (v, score) in enumerate(zip(order, scores), start=1):
        print(f"{network.node_names[v]},{_fmt(float(score))},{rank}")
    return 0


def _random_swt(rng: random.Random, n: int) -> tuple[int, int, int]:
    s, w, t = rng.sample(range(n), 3)
    return s, w, t


def _suite_maxflow_mincut(args) -> list[str]:
    from . import oracles

    failures = []
    for trial in range(args.trials):
        net = random_digraph(args.nodes, 0.3, args.seed + trial, max_capacity=3)
        rng = random.Random(args.seed * 1000 + trial)
        s, w, t = _random_swt(rng, args.nodes)
        flow = oracles.max_swt_flow(net, s, w, t)
        _, cut_value = oracles.min_swt_cut(net, s, w, t)
        if abs(flow.value - float(cut_value)) > 1e-6:
            failures.append(
                f"trial {trial}: flow {flow.value} != cut {float(cut_value)}"
            )
        elif flow.value > 0 and not flow.integral:
            failures.append(f"trial {trial}: no integral optimum exhibited")
    return failures


def _suite_submodularity(args) -> list[str]:
    from . import oracles

    failures = []
    for trial in range(args.trials):
        net = random_digraph(args.nodes, 0.35, args.seed + trial, max_capacity=4)
        rng = random.Random(args.seed * 7919 + trial)
        s, t = rng.sample(range(args.nodes), 2)
        demands = DemandMatrix((Commodity(s, t, float(args.nodes)),))
        eligible = [v for v in range(args.nodes) if v not in (s, t)]
        values = {
            frozenset(sub): oracles.group_flow(net, demands, sub)
            for size in range(len(eligible) + 1)
            for sub in itertools.combinations(eligible, size)
        }
        names = net.node_names

        def witness(v: int, *groups: frozenset) -> str:
            """The nodes and group flows that reproduce a violation."""
            sets = " ".join(
                f"{label}={{{','.join(names[u] for u in sorted(group))}}}"
                for label, group in zip("AB", groups)
            )
            flows = " ".join(
                f"f({label})={_fmt(values[group])} "
                f"f({label}+v)={_fmt(values[group | {v}])}"
                for label, group in zip("AB", groups)
            )
            return f"s={names[s]} t={names[t]} {sets} v={names[v]}: {flows}"

        for sub, value in values.items():
            for v in eligible:
                if v in sub:
                    continue
                if values[sub | {v}] < value - 1e-6:
                    failures.append(
                        f"trial {trial}: monotonicity violated: {witness(v, sub)}"
                    )
        for a in values:
            for b in values:
                if a <= b:
                    for v in eligible:
                        if v in b:
                            continue
                        gain_small = values[a | {v}] - values[a]
                        gain_big = values[b | {v}] - values[b]
                        if gain_small < gain_big - 1e-6:
                            failures.append(
                                f"trial {trial}: submodularity violated: "
                                f"{witness(v, a, b)}"
                            )
    return failures


def _suite_lemma1(args) -> list[str]:
    failures = []
    for trial in range(args.trials):
        net = random_digraph(args.nodes, 0.35, args.seed + trial, max_capacity=5)
        rng = random.Random(args.seed * 104729 + trial)
        commodities = []
        pairs = set()
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(range(args.nodes), 2)
            if (s, t) in pairs:
                continue
            pairs.add((s, t))
            commodities.append(Commodity(s, t, float(rng.randint(1, 4))))
        demands = DemandMatrix(tuple(commodities))
        mf = solve_mp(build_mp_baseline(net, demands, MF))
        lu = solve_mp(build_mp_baseline(net, demands, LU))
        saturated = abs(mf.satisfied_total - demands.total_demand()) <= 1e-7
        lu_ok = (
            lu.status is LpStatus.OPTIMAL and lu.theta is not None
            and lu.theta <= 1 + 1e-7
        )
        if saturated != lu_ok:
            failures.append(
                f"trial {trial}: max-flow saturation {saturated} but "
                f"TE_LU theta<=1 is {lu_ok}"
            )
    return failures


# lemma1 solves polynomial MP programs, but they grow as n squared (one
# trial of 300 nodes took 3.7 s and 176 MB), so it has a cap of its own,
# above the brute-force suites' oracles.NODE_CAP.
LEMMA1_NODE_CAP = 100

_SUITES = {
    "maxflow-mincut": _suite_maxflow_mincut,
    "submodularity": _suite_submodularity,
    "lemma1": _suite_lemma1,
}


def cmd_oracle(args) -> int:
    # Imported here: the oracles load scipy.optimize and scipy.sparse, which
    # no other command needs.
    from . import oracles

    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    # maxflow-mincut samples three distinct nodes (s, w, t), the others two.
    least = 3 if args.suite == "maxflow-mincut" else 2
    if args.nodes < least:
        raise UsageError(
            f"--nodes must be at least {least} for {args.suite}, got {args.nodes}"
        )
    # Capped before any instance is generated.
    if args.suite != "lemma1":  # path enumeration
        oracles.check_node_cap(args.nodes)
    elif args.nodes > LEMMA1_NODE_CAP:
        raise UsageError(
            f"{args.nodes} nodes exceed the lemma1 cap of {LEMMA1_NODE_CAP}"
        )
    failures = _SUITES[args.suite](args)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    verdict = "pass" if not failures else "fail"
    print(f"{args.suite},{args.trials},{len(failures)},{verdict}")
    return 0 if not failures else 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True)
    parser.add_argument("--demands")
    parser.add_argument("--gravity", type=int, help="generate N gravity demands")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--objective", choices=(LU, MF), default=LU)
    parser.add_argument("--method", choices=SELECTION_METHODS, default="gsp")
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument(
        "--weighted", action="store_true",
        help="rank sp, gsp or degree with 1/capacity edge weights",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_SUBPROBLEM_BUDGET,
        help="refuse --method optimal when its middlepoint subsets number "
        "more than this (default %(default)s); other methods ignore it",
    )
    parser.add_argument(
        "--single-middlepoint", action="store_true",
        help="exclude the direct tunnel and force exactly one middlepoint",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="report measured solve times (breaks byte-for-byte determinism)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs more than most
    commands take to parse."""
    parser = argparse.ArgumentParser(
        prog="srte",
        description="Traffic engineering with shortest-path segment routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one TE solve")
    _add_common(p_solve)
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")

    p_sweep = sub.add_parser("sweep", help="sweep K, M, or methods; CSV output")
    _add_common(p_sweep)
    axis = p_sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--sweep-k", help="K axis, e.g. 1:6 or 1,2,4")
    axis.add_argument("--sweep-m", help="M axis, e.g. 1,2")
    axis.add_argument(
        "--sweep-methods",
        help="comma-separated methods; random may carry a seed as random:7",
    )

    p_cent = sub.add_parser("centrality", help="ranked node table")
    p_cent.add_argument("--topology", required=True)
    p_cent.add_argument("--method", choices=("sp", "gsp", "degree"), default="sp")
    p_cent.add_argument("--weighted", action="store_true")
    p_cent.add_argument("--k", type=int, help="GSP selection length")

    p_oracle = sub.add_parser("oracle", help="brute-force property suites")
    p_oracle.add_argument("suite", choices=sorted(_SUITES))
    p_oracle.add_argument("--nodes", type=int, default=6)
    p_oracle.add_argument("--trials", type=int, default=10)
    p_oracle.add_argument("--seed", type=int, default=0)

    return parser


# Every library error ends in one stderr line and exit 2 (the run failed) or
# exit 1 (the input was rejected).
_FAILED = (NoTunnelError, BudgetExceededError, NotOptimalError, ArithmeticError)
_REJECTED = (UsageError, ValueError, KeyError, SizeCapExceededError)


def _drop_stdout() -> None:
    """Point the stdout file descriptor at devnull, so that the flush at
    interpreter exit writes what is left of the output nowhere."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file: nothing to flush
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 1 if exc.code else 0
    # Looked up as each command runs, not bound when the parser was built.
    command = {
        "solve": cmd_solve, "sweep": cmd_sweep, "centrality": cmd_centrality,
        "oracle": cmd_oracle,
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a write error surfaces here, not at exit
        return code
    except _FAILED + _REJECTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _FAILED) else 1
    except OSError as exc:  # writing the output: reading input raises UsageError
        _drop_stdout()
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is no error
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
