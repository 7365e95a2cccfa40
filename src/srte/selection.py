"""Middlepoint-set selection strategies.

Optimal enumeration solves one TE subproblem per candidate subset; the greedy
heuristic expands the set one middlepoint at a time while a strict utilization
reduction exists. Both work on the min-max-utilization objective. Centrality
and random selection pick a global middlepoint set up front and solve once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .centrality import (
    betweenness,
    degree_centrality,
    greedy_group_select,
    random_select,
)
from .graph import DemandMatrix, FlowNetwork
from .lp import LpStatus
from .paths import ShortestPathCache
from .te import (
    LU,
    NoTunnelError,
    TeSolution,
    build_te_lu,
    build_te_mf,
    solve_te,
    tunnels_for_middlepoints,
)

DEFAULT_SUBPROBLEM_BUDGET = 10_000

# LP noise below this threshold never counts as an improvement.
IMPROVEMENT_TOL = 1e-9


class BudgetExceededError(Exception):
    """The requested enumeration exceeds the configured subproblem budget."""


@dataclass
class SelectionResult:
    method: str
    middlepoints: list[int]
    solution: TeSolution
    subproblems_solved: int = 1

    @property
    def used_count(self) -> int:
        return len(self.middlepoints)


def solve_with_middlepoints(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    middlepoints: Iterable[int],
    max_middlepoints: int,
    objective: str = LU,
    single_middlepoint: bool = False,
) -> TeSolution:
    """Build and solve one TE program for a fixed global middlepoint set."""
    tunnels = tunnels_for_middlepoints(
        cache, demands, middlepoints, max_middlepoints, single_middlepoint
    )
    builder = build_te_lu if objective == LU else build_te_mf
    return solve_te(builder(cache, demands, tunnels))


def _evaluate(
    cache: ShortestPathCache,
    demands: DemandMatrix,
    middlepoints: Sequence[int],
    max_middlepoints: int,
) -> tuple[float, Optional[TeSolution], Optional[NoTunnelError]]:
    """(theta, solution, error) of TE_LU on one set; theta is inf when a
    commodity has no tunnel (no solution) or the program has no optimum."""
    try:
        solution = solve_with_middlepoints(
            cache, demands, middlepoints, max_middlepoints
        )
    except NoTunnelError as exc:
        return math.inf, None, exc
    optimal = solution.status is LpStatus.OPTIMAL and solution.theta is not None
    return (solution.theta if optimal else math.inf), solution, None


def optimal_select(
    network: FlowNetwork,
    demands: DemandMatrix,
    candidates: Sequence[int],
    k: int,
    max_middlepoints: int,
    budget: int = DEFAULT_SUBPROBLEM_BUDGET,
    cache: ShortestPathCache | None = None,
) -> SelectionResult:
    """Exhaustive search over all size-k candidate subsets, minimizing theta.

    Ties break lexicographically by sorted node indices (the enumeration
    order). Refuses upfront when the subset count exceeds the budget.
    """
    candidates = sorted(set(candidates))
    if not (1 <= k <= len(candidates)):
        raise ValueError(f"k must be in [1, {len(candidates)}], got {k}")
    count = math.comb(len(candidates), k)
    if count > budget:
        raise BudgetExceededError(
            f"{count} subproblems exceed the budget of {budget}"
        )
    cache = cache or ShortestPathCache(network)
    best = None  # the first subset of least theta: (theta, solution, error, subset)
    for subset in itertools.combinations(candidates, k):
        trial = (*_evaluate(cache, demands, subset, max_middlepoints), subset)
        if best is None or trial[0] < best[0]:
            best = trial
    _, solution, error, subset = best
    if error is not None:
        raise error
    return SelectionResult("Optimal", list(subset), solution, count)


def greedy_select(
    network: FlowNetwork,
    demands: DemandMatrix,
    candidates: Sequence[int],
    k: int,
    max_middlepoints: int,
    initial: Sequence[int] = (),
    cache: ShortestPathCache | None = None,
) -> SelectionResult:
    """Greedy expansion: add the middlepoint with the biggest utilization drop.

    Starts from an empty (or supplied partial) set and stops when k middle-
    points are used or no candidate lowers theta by more than IMPROVEMENT_TOL.
    A set without a tunnel or an optimum counts as theta +inf, so any
    feasible expansion wins.
    """
    candidates = sorted(set(candidates))
    if not (1 <= k <= len(candidates)):
        raise ValueError(f"k must be in [1, {len(candidates)}], got {k}")
    cache = cache or ShortestPathCache(network)
    chosen = list(initial)
    unexplored = [v for v in candidates if v not in chosen]
    theta, current, error = _evaluate(cache, demands, chosen, max_middlepoints)
    subproblems = 1
    while len(chosen) < k and unexplored:
        best = None  # only the round's running best trial is kept alive
        for v in unexplored:
            trial = (*_evaluate(cache, demands, chosen + [v], max_middlepoints), v)
            if best is None or trial[0] < best[0]:
                best = trial
        subproblems += len(unexplored)
        if not best[0] < theta - IMPROVEMENT_TOL:
            break
        theta, current, error, v = best
        chosen.append(v)
        unexplored.remove(v)

    if error is not None:
        raise error
    return SelectionResult("Greedy", chosen, current, subproblems)


_CENTRALITY_METHODS = ("sp", "gsp", "degree", "random")


def centrality_select(
    network: FlowNetwork,
    demands: DemandMatrix,
    method: str,
    k: int,
    max_middlepoints: int,
    weighted: bool = False,
    seed: int = 0,
    objective: str = LU,
    cache: ShortestPathCache | None = None,
) -> SelectionResult:
    """Top-k selection by a structural centrality, then one TE solve."""
    if method not in _CENTRALITY_METHODS:
        raise ValueError(f"unknown centrality method {method!r}")
    cache = cache or ShortestPathCache(network)
    # The cache holds DAGs of the given costs; weighted SP and GSP use
    # 1/capacity costs instead.
    analysis_cache = None if weighted else cache
    if method == "sp":
        mids = list(betweenness(network, weighted, analysis_cache).ordering[:k])
        label = "TopK-SP"
    elif method == "gsp":
        mids = greedy_group_select(network, k, weighted, cache=analysis_cache)
        label = "TopK-GSP"
    elif method == "degree":
        mids = list(degree_centrality(network, weighted).ordering[:k])
        label = "TopK-Degree"
    else:
        mids = random_select(network, k, seed)
        label = "Random"
    solution = solve_with_middlepoints(
        cache, demands, mids, max_middlepoints, objective
    )
    return SelectionResult(label, mids, solution)
