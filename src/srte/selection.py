"""Middlepoint-set selection strategies.

Optimal enumeration solves one TE subproblem per candidate subset; the greedy
heuristic expands the set one middlepoint at a time while a strict utilization
reduction exists. Both work on the min-max-utilization objective. Centrality
and random selection pick a global middlepoint set up front and solve once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
    MF,
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
    used_count: int
    solution: TeSolution
    subproblems_solved: int = 1


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


def _theta_or_inf(solution: TeSolution) -> float:
    if solution.status is not LpStatus.OPTIMAL or solution.theta is None:
        return math.inf
    return solution.theta


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
    best: Optional[SelectionResult] = None
    for subset in itertools.combinations(candidates, k):
        try:
            solution = solve_with_middlepoints(
                cache, demands, subset, max_middlepoints
            )
        except NoTunnelError:
            continue
        theta = _theta_or_inf(solution)
        if best is None or theta < _theta_or_inf(best.solution):
            best = SelectionResult(
                "Optimal", list(subset), len(subset), solution
            )
    if best is None:
        raise NoTunnelError(demands.commodities[0])
    best.subproblems_solved = count
    return best


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
    points are used or no candidate gives a strict reduction. An infeasible
    current set counts as utilization +inf, so any feasible expansion wins.
    """
    candidates = sorted(set(candidates))
    if not (1 <= k <= len(candidates)):
        raise ValueError(f"k must be in [1, {len(candidates)}], got {k}")
    cache = cache or ShortestPathCache(network)
    chosen = list(initial)
    unexplored = [v for v in candidates if v not in chosen]
    subproblems = 0

    def attempt(mids: Sequence[int]) -> TeSolution:
        nonlocal subproblems
        subproblems += 1
        try:
            return solve_with_middlepoints(cache, demands, mids, max_middlepoints)
        except NoTunnelError:
            return TeSolution(LU, LpStatus.INFEASIBLE)

    current = attempt(chosen)
    while len(chosen) < k and unexplored:
        best_v = None
        best_solution = None
        for v in unexplored:
            candidate_solution = attempt(chosen + [v])
            if best_solution is None or (
                _theta_or_inf(candidate_solution) < _theta_or_inf(best_solution)
            ):
                best_v, best_solution = v, candidate_solution
        if _theta_or_inf(current) - _theta_or_inf(best_solution) <= IMPROVEMENT_TOL:
            break
        chosen.append(best_v)
        unexplored.remove(best_v)
        current = best_solution

    if current.status is not LpStatus.OPTIMAL:
        raise NoTunnelError(demands.commodities[0])
    return SelectionResult("Greedy", chosen, len(chosen), current, subproblems)


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
    return SelectionResult(label, mids, len(mids), solution)
