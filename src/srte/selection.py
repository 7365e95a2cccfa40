"""Middlepoint-set selection strategies.

Optimal enumeration solves one TE subproblem per candidate subset; the greedy
heuristic expands the set one middlepoint at a time while a strict utilization
reduction exists. Both work on the min-max-utilization objective. Centrality
and random selection pick a global middlepoint set up front and solve once.

``select_prefixes`` selects for every k of a sweep axis at once and does what
does not depend on k once: one centrality ranking whose top k each point
takes, one greedy expansion read at every k. Each run enumerates and loads
its tunnels once, in one ``TunnelPool``, of which every subproblem's program
is a column slice. A greedy round ranks its candidates by solves warm-started
from the chosen set's optimal basis and solves only the near-ties cold, so it
picks and prints what solving every candidate cold would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

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
    TunnelPool,
    WarmStart,
    build_te_lu,
    build_te_mf,
    solve_te,
    tunnels_for_middlepoints,
)

DEFAULT_SUBPROBLEM_BUDGET = 10_000

# LP noise below this threshold never counts as an improvement.
IMPROVEMENT_TOL = 1e-9

# Relative to max(1, |theta|): a TE_LU program solved warm, from a subset's
# optimal basis, and cold gives thetas far closer than this (at most 7.3e-15
# apart over 1,004 warm solves of ten benchmark-tier greedy runs), so warm
# thetas within it of the least are near-ties that a cold solve decides.
WARM_TIE_TOL = 1e-12


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


# One point of a selection sweep: its result or the error it fails with.
Outcome = Union[SelectionResult, NoTunnelError, BudgetExceededError]


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
    pool: TunnelPool,
    middlepoints: Sequence[int],
    start: Optional[WarmStart] = None,
    return_basis: bool = False,
) -> tuple[float, Optional[TeSolution], Optional[NoTunnelError]]:
    """(theta, solution, error) of TE_LU on one set; theta is inf when a
    commodity has no tunnel (no solution) or the program has no optimum.

    The solve starts from ``start``'s basis if given; with ``return_basis``
    an optimal solution keeps its basis.
    """
    try:
        program = pool.program(middlepoints)
    except NoTunnelError as exc:
        return math.inf, None, exc
    solution = solve_te(program, start and start.basis(program), return_basis)
    optimal = solution.status is LpStatus.OPTIMAL and solution.theta is not None
    return (solution.theta if optimal else math.inf), solution, None


def _raised(outcome: Outcome) -> SelectionResult:
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _check_k(k: int, count: int) -> None:
    if not (1 <= k <= count):
        raise ValueError(f"k must be in [1, {count}], got {k}")


def _optimal_points(
    pool: TunnelPool, candidates: Sequence[int], ks: Sequence[int], budget: int
) -> Iterator[Outcome]:
    """Exhaustive search over the size-k candidate subsets of each k.

    Ties break lexicographically by sorted node indices (the enumeration
    order). A k whose subset count exceeds the budget is refused without a
    solve; the subsets of every other k are covered at once.
    """
    counts = {k: math.comb(len(candidates), k) for k in ks}
    pool.cover(
        subset for k in counts if counts[k] <= budget
        for subset in itertools.combinations(candidates, k)
    )
    for k in ks:
        if counts[k] > budget:
            yield BudgetExceededError(
                f"{counts[k]} subproblems exceed the budget of {budget}"
            )
            continue
        best = None  # the first subset of least theta: (theta, solution, error, subset)
        for subset in itertools.combinations(candidates, k):
            trial = (*_evaluate(pool, subset), subset)
            if best is None or trial[0] < best[0]:
                best = trial
        _, solution, error, subset = best
        yield error or SelectionResult("Optimal", list(subset), solution, counts[k])


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

    Refuses upfront when the subset count exceeds the budget. Every subset's
    program is a column slice of one tunnel pool.
    """
    candidates = sorted(set(candidates))
    _check_k(k, len(candidates))
    pool = TunnelPool(cache or ShortestPathCache(network), demands, max_middlepoints)
    return _raised(next(_optimal_points(pool, candidates, [k], budget)))


def _warm_theta(
    pool: TunnelPool, middlepoints: Sequence[int], start: Optional[WarmStart]
) -> Optional[float]:
    """TE_LU theta of one set solved from ``start``'s basis (cold without
    one): inf without a tunnel, None when the solve finds no optimum or
    fails."""
    try:
        theta, solution, _ = _evaluate(pool, middlepoints, start)
    except ArithmeticError:
        return None
    return None if solution is not None and theta == math.inf else theta


def _greedy_round(
    pool: TunnelPool,
    chosen: list[int],
    unexplored: list[int],
    theta: float,
    start: Optional[WarmStart],
) -> Optional[tuple]:
    """The round's winner, (v, ``_evaluate`` of chosen + [v] solved cold), if
    it lowers theta by more than IMPROVEMENT_TOL, else None.

    The winner is the first candidate of least cold theta, as if every
    candidate were solved cold. Each is solved warm, from the basis of the
    chosen set's optimum, in a fraction of the simplex iterations, and
    ranked by that theta, which is within WARM_TIE_TOL of its cold theta.
    Then only the candidates within WARM_TIE_TOL of the least warm theta,
    and those whose warm solve failed, are solved cold and decide. A round
    whose least warm theta cannot improve needs no cold solve.
    """
    ranks = [_warm_theta(pool, chosen + [v], start) for v in unexplored]
    cold = {}
    for i, rank in enumerate(ranks):
        if rank is None:  # only a cold solve tells
            cold[i] = _evaluate(pool, chosen + [unexplored[i]], return_basis=True)
            ranks[i] = cold[i][0]
    least = min(ranks)
    if least == math.inf:
        return None
    tie = WARM_TIE_TOL * max(1.0, abs(least))
    if least >= theta - IMPROVEMENT_TOL + tie:
        return None
    for i, rank in enumerate(ranks):
        if rank <= least + tie and i not in cold:
            cold[i] = _evaluate(pool, chosen + [unexplored[i]], return_basis=True)
    best = min(sorted(cold), key=lambda i: cold[i][0])  # the first of least
    if not cold[best][0] < theta - IMPROVEMENT_TOL:
        return None
    return unexplored[best], cold[best]


def _greedy_points(
    pool: TunnelPool,
    candidates: Sequence[int],
    ks: Sequence[int],
    initial: Sequence[int] = (),
) -> list[Outcome]:
    """One greedy expansion to the largest k, read at every k.

    A run to k makes the same rounds as the run to the largest k until it
    holds k middlepoints or a round does not improve, so its outcome is the
    first state with k middlepoints, or else the state the expansion ended
    in. A state keeps only its round winner's solution, always a cold solve.
    """
    chosen = list(initial)
    unexplored = [v for v in candidates if v not in chosen]
    theta, current, error = _evaluate(pool, chosen, return_basis=True)
    subproblems = 1
    states = [(chosen[:], current, error, subproblems)]
    k_max = max(ks)
    while len(chosen) < k_max and unexplored:
        pool.cover(chosen + [v] for v in unexplored)
        start = WarmStart(pool, chosen, current.basis) if theta < math.inf else None
        winner = _greedy_round(pool, chosen, unexplored, theta, start)
        subproblems += len(unexplored)
        if winner is not None:
            v, (theta, current, error) = winner
            chosen.append(v)
            unexplored.remove(v)
        states.append((chosen[:], current, error, subproblems))
        if winner is None:
            break
    outcomes = []
    for k in ks:
        picks, solution, error, count = next(
            (state for state in states if len(state[0]) >= k), states[-1]
        )
        outcomes.append(error or SelectionResult("Greedy", picks, solution, count))
    return outcomes


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
    feasible expansion wins. Every set's program is a column slice of one
    tunnel pool, which each round extends by the tunnels its sets add.
    """
    candidates = sorted(set(candidates))
    _check_k(k, len(candidates))
    pool = TunnelPool(cache or ShortestPathCache(network), demands, max_middlepoints)
    return _raised(_greedy_points(pool, candidates, [k], initial)[0])


_CENTRALITY_LABELS = {
    "sp": "TopK-SP", "gsp": "TopK-GSP", "degree": "TopK-Degree", "random": "Random",
}
PREFIX_METHODS = (*_CENTRALITY_LABELS, "optimal", "greedy")


def _centrality_picks(
    network: FlowNetwork,
    method: str,
    ks: Sequence[int],
    weighted: bool,
    seed: int,
    cache: ShortestPathCache,
) -> list[list[int]]:
    """Each k's middlepoints: the top k of one ranking, or a sample per k for
    random (a k-sample is not a prefix of a larger one)."""
    if method == "random":
        return [random_select(network, k, seed) for k in ks]
    # The cache holds DAGs of the given costs; weighted SP and GSP use
    # 1/capacity costs instead, in one analysis cache of their own.
    analysis_cache = None if weighted else cache
    if method == "sp":
        ranking = betweenness(network, weighted, analysis_cache).ordering
    elif method == "gsp":
        # Greedy picks: the first k for the largest k are the picks for k.
        ranking = greedy_group_select(network, max(ks), weighted, cache=analysis_cache)
    else:
        ranking = degree_centrality(network, weighted).ordering
    return [list(ranking[:k]) for k in ks]


def _solved(pool: TunnelPool, method: str, mids: list[int], objective: str) -> Outcome:
    try:
        solution = solve_te(pool.program(mids, objective))
    except NoTunnelError as exc:
        return exc
    return SelectionResult(_CENTRALITY_LABELS[method], mids, solution)


def select_prefixes(
    network: FlowNetwork,
    demands: DemandMatrix,
    method: str,
    ks: Sequence[int],
    max_middlepoints: int,
    *,
    weighted: bool = False,
    seed: int = 0,
    objective: str = LU,
    budget: int = DEFAULT_SUBPROBLEM_BUDGET,
    cache: ShortestPathCache | None = None,
) -> Iterator[Outcome]:
    """The selection of each k of ``ks`` over all nodes, in order, as a result
    or the ``NoTunnelError``/``BudgetExceededError`` it fails with.

    What does not depend on k is done once: sp, gsp and degree rank the nodes
    once and each k takes the top k, greedy expands once to the largest k,
    and every k's programs are column slices of one tunnel pool, identical to
    fresh builds. Each distinct k is solved once, when first read; a repeated
    k yields its outcome again.
    """
    if method not in PREFIX_METHODS:
        raise ValueError(f"unknown prefix selection method {method!r}")
    if method in ("optimal", "greedy") and objective != LU:
        raise ValueError(f"{method} selection supports only objective {LU!r}")
    candidates = range(network.node_count)
    for k in ks:
        _check_k(k, len(candidates))
    if not ks:
        return
    distinct = list(dict.fromkeys(ks))
    pool = TunnelPool(cache or ShortestPathCache(network), demands, max_middlepoints)
    if method == "optimal":
        points = _optimal_points(pool, candidates, distinct, budget)
    elif method == "greedy":
        points = iter(_greedy_points(pool, candidates, distinct))
    else:
        picks = _centrality_picks(network, method, distinct, weighted, seed, pool.cache)
        pool.cover(picks)
        points = (_solved(pool, method, mids, objective) for mids in picks)
    outcomes: dict[int, Outcome] = {}
    for k in ks:
        if k not in outcomes:
            outcomes[k] = next(points)
        yield outcomes[k]


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
    if method not in _CENTRALITY_LABELS:
        raise ValueError(f"unknown centrality method {method!r}")
    return _raised(next(select_prefixes(
        network, demands, method, [k], max_middlepoints,
        weighted=weighted, seed=seed, objective=objective, cache=cache,
    )))
