"""Middlepoint-set selection strategies.

Optimal enumeration solves one TE subproblem per candidate subset; the greedy
heuristic expands the set one middlepoint at a time while a strict utilization
reduction exists. Both work on the min-max-utilization objective. Centrality
and random selection pick a global middlepoint set up front and solve once.

``select_prefixes`` selects for every k of a sweep axis at once and does what
does not depend on k once: one centrality ranking whose top k each point
takes, one greedy expansion read at every k. Each run enumerates and loads
its tunnels once, in one ``TunnelPool``, of which every subproblem's program
is a column slice. Warm solves run in one kind of HiGHS model, a
``PoolModel`` of a set's program kept at its optimal basis, to which a
superset adds only the pool columns it brings. A greedy round ranks its
candidates in one such model of the chosen set, each candidate's columns
added for one solve. It ranks them in ascending order of a lower bound on
their theta from the chosen set's duals and skips those whose bound shows
they cannot win. It then solves only the near-ties cold, so it picks and
prints what solving every candidate cold would; every candidate still
counts as one subproblem. A winner without a near-tie whose state the run
does not return skips its cold solve: it joins the round's model, which
the next round ranks in from its basis. The cold solves left, of near-ties
and of every state a run returns, wait until the model is freed, so one
HiGHS model at most is alive at a time. The LU points of a sp, gsp or
degree sweep are solved as one chain: the first cold, and each point whose
picks contain the last solved point's in one growing model, to which it
adds for good the columns its new middlepoints bring, from the last point's
optimal basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

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
    PoolModel,
    TeSolution,
    TunnelPool,
    build_te_lu,
    build_te_mf,
    extension_bounds,
    solve_te,
    tunnels_for_middlepoints,
)

DEFAULT_SUBPROBLEM_BUDGET = 10_000

# LP noise below this threshold never counts as an improvement.
IMPROVEMENT_TOL = 1e-9

# Relative to max(1, |theta|): a TE_LU program solved warm, in a subset's
# model from its optimal basis, and cold gives thetas far closer than this
# (at most 1.7e-15 apart over 1,003 warm solves of ten benchmark-tier greedy
# runs), so warm thetas within it of the least are near-ties that a cold
# solve decides.
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
Outcome = Union[SelectionResult, NoTunnelError, BudgetExceededError, ArithmeticError]


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
    pool: TunnelPool, middlepoints: Sequence[int]
) -> tuple[float, Optional[TeSolution], Optional[NoTunnelError]]:
    """(theta, solution, error) of TE_LU on one set, solved cold; theta is
    inf when a commodity has no tunnel (no solution) or the program has no
    optimum."""
    try:
        program = pool.program(middlepoints)
    except NoTunnelError as exc:
        return math.inf, None, exc
    solution = solve_te(program)
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
    solve; the subsets of every other k are covered at once. A k one of
    whose solves fails yields the ``ArithmeticError``.
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
        try:
            for subset in itertools.combinations(candidates, k):
                trial = (*_evaluate(pool, subset), subset)
                if best is None or trial[0] < best[0]:
                    best = trial
        except ArithmeticError as exc:
            yield exc
            continue
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


def _tie(theta: float) -> float:
    """The band within which a warm theta ties with ``theta``."""
    return WARM_TIE_TOL * max(1.0, abs(theta))


def _greedy_round(
    pool: TunnelPool,
    chosen: list[int],
    unexplored: list[int],
    theta: float,
    parent: Optional[TeSolution],
    model: Optional[PoolModel] = None,
    join: bool = False,
) -> Optional[tuple]:
    """The round's winner, if it lowers theta by more than IMPROVEMENT_TOL,
    else None: (v, ``_evaluate`` of chosen + [v] solved cold, None), or, if
    ``join`` and the winner joined the round's model, (v, (its theta, its
    solution, None), the model).

    The winner is the first candidate of least cold theta, as if every
    candidate were solved cold. Given ``parent``, the chosen set's optimal
    solution, each candidate is solved warm in one ``PoolModel`` of the
    chosen set from its optimal basis (``PoolModel.theta``: the pool columns
    the candidate brings, added for that solve only), in a fraction of the
    simplex iterations, and ranked by that theta, which is within
    WARM_TIE_TOL of its cold theta. Then only the candidates within
    WARM_TIE_TOL of the least warm theta, and those whose warm solve failed
    (all of them without a parent), are solved cold and decide. A round
    whose least warm theta cannot improve needs no cold solve.

    The winner's cold solve is skipped when ``join`` (its state is not one
    the run returns), no warm solve failed, its warm theta is the only one
    within the tie band of the least, and it clears the improvement
    threshold by more than its tie band: it is the winner and improves, as
    solved cold. It then joins the model (``PoolModel.join``: its point
    decoded and certified as a cold one is, its columns added for good at
    the basis of its ranking solve), and the next round ranks in that model
    from its duals. Such a state's theta is warm, within its tie band of
    the cold one: ``model`` is given, and that round widens each threshold
    theta sets by the band, so a decision either way holds for the cold
    theta too, or solves the chosen set cold to decide. A winner that fails
    a check of the join is solved cold. The model is freed before any cold
    solve, so one HiGHS model at most is alive at a time.

    The candidates are ranked in ascending order of their dual bounds at
    the parent's duals (``extension_bounds``; a stable sort), and the first
    whose bound less its tie band (``_tie``) is above the least theta so far
    plus its tie band, or is at least theta - IMPROVEMENT_TOL, ends the
    ranking: the candidates from it on are never solved. This changes no
    outcome. Each skipped candidate's cold theta is at least its bound less
    its tie band (the bound exceeded the cold theta by at most 8.5e-16,
    relative, over 3,275 candidates of 34 benchmark-tier m=1 and m=2 runs),
    so it either cannot improve on theta, or is above the cold theta of the
    candidate of least warm theta so far (whose cold theta is within the tie
    band of its warm one). Either way it is not the winner, and its warm
    theta would not have been the least, so the least warm theta, the
    near-ties solved cold, the first-of-least winner and the improvement
    test are those of ranking every candidate; the winner's cold solve is
    the same solve. Only a skipped candidate whose solves would have raised,
    or a joined winner whose cold solve would have, no longer ends the
    expansion.

    The margin is the tie band, not ``BOUND_TOL``, the certificate's
    tolerance: BOUND_TOL * theta exceeds IMPROVEMENT_TOL once theta > 1, so
    a bound equal to theta, the usual bound of a candidate that cannot
    help, would pass the improvement test and be ranked for nothing.
    """
    # The band a warm theta lies within of the cold one.
    slack = 0.0 if model is None else _tie(theta)

    def clears(rank: float) -> bool:
        """A warm rank improves on theta, whatever the cold thetas."""
        return rank + _tie(rank) < theta - slack - IMPROVEMENT_TOL

    ranks: dict[int, float] = {}  # candidate position -> theta it ranks by
    unranked = range(len(unexplored))  # ranked by a cold solve
    if parent is not None:
        bounds = extension_bounds(pool, chosen, unexplored, parent.duals)
        least, unranked = math.inf, []
        for i in np.argsort(bounds, kind="stable").tolist():
            bound = bounds[i] - _tie(bounds[i])
            if bound >= theta + slack - IMPROVEMENT_TOL or bound > least + _tie(least):
                break  # the bounds ascend: no candidate from here on can win
            if model is None:  # made only for a round that ranks
                model = PoolModel(pool, chosen, parent.program, parent.basis)
            try:
                ranks[i] = model.theta(unexplored[i])
            except ArithmeticError:  # only a cold solve tells
                unranked.append(i)
                continue
            least = min(least, ranks[i])
        near = [i for i, rank in ranks.items() if rank <= least + _tie(least)]
        if join and not unranked and len(near) == 1 and clears(least):
            v = unexplored[near[0]]
            try:  # the joined state's theta is its ranking solve's, least
                solution = model.join(v)
            except ArithmeticError:
                pass  # solved cold below
            else:
                return v, (solution.theta, solution, None), model
    if model is not None:
        model.close()  # two models at once raise peak RSS
    cold = {i: _evaluate(pool, chosen + [unexplored[i]]) for i in unranked}
    ranks.update((i, trial[0]) for i, trial in cold.items())
    least = min(ranks.values(), default=math.inf)
    if least == math.inf or least >= theta + slack - IMPROVEMENT_TOL + _tie(least):
        return None
    for i, rank in ranks.items():
        if rank <= least + _tie(least) and i not in cold:
            cold[i] = _evaluate(pool, chosen + [unexplored[i]])
    best = min(sorted(cold), key=lambda i: cold[i][0])  # the first of least
    if slack and abs(cold[best][0] - (theta - IMPROVEMENT_TOL)) <= slack:
        theta = _evaluate(pool, chosen)[0]  # a warm theta cannot decide
    if not cold[best][0] < theta - IMPROVEMENT_TOL:
        return None
    return unexplored[best], cold[best], None


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
    in. A state keeps only its round winner's solution. Every state a run
    returns is a cold solve: a winner joins its round's model only if its
    set's size is no k and candidates remain after it, and if the expansion
    ends in a joined set, that set is solved cold then. A solve that fails
    ends the expansion, and every k it had not reached yet fails with its
    ``ArithmeticError``.
    """
    chosen = list(initial)
    unexplored = [v for v in candidates if v not in chosen]

    def state() -> tuple[int, Outcome]:
        """The size and outcome of the current set."""
        return len(chosen), error or SelectionResult(
            "Greedy", chosen[:], current, subproblems
        )

    states = []
    model = None  # the chosen set's model, once the set joined it
    try:
        theta, current, error = _evaluate(pool, chosen)
        subproblems = 1
        states.append(state())
        k_max = max(ks)
        while len(chosen) < k_max and unexplored:
            pool.cover(chosen + [v] for v in unexplored)
            parent = current if theta < math.inf else None
            join = len(chosen) + 1 not in ks and len(unexplored) > 1
            winner = _greedy_round(pool, chosen, unexplored, theta, parent, model, join)
            subproblems += len(unexplored)
            if winner is not None:
                v, (theta, current, error), model = winner
                chosen.append(v)
                unexplored.remove(v)
            elif model is not None:  # the round freed it: solve the state cold
                model = None
                theta, current, error = _evaluate(pool, chosen)
            states.append(state())
            if winner is None:
                break
        end = states[-1][1]
    except ArithmeticError as exc:
        end = exc
    return [next((out for size, out in states if size >= k), end) for k in ks]


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
    random (one seed's samples are not always prefixes of larger ones)."""
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
    except (NoTunnelError, ArithmeticError) as exc:
        return exc
    return SelectionResult(_CENTRALITY_LABELS[method], mids, solution)


def _chained_points(
    pool: TunnelPool, method: str, picks: Sequence[list[int]]
) -> Iterator[Outcome]:
    """The TE_LU outcome of each set of covered picks, in order: a set that
    contains the last one solved is solved warm in one ``PoolModel``
    (``PoolModel.solve``: the pool columns its new middlepoints bring, added
    for good).

    A set is solved cold when there is no chain to extend, or when its warm
    solve has no optimum or fails a check, and the chain restarts from that
    cold solution. Warm and cold thetas agree far below the nine digits
    printed (at most 6.9e-15 apart, relative, over the 2,340 warm points of
    sp, gsp and degree sweeps of K 1 to 6 at m=1 and 2 on 78 benchmark-tier
    instances), and each point is decoded and certified as a cold solve is.
    """
    chain = None
    for mids in picks:
        solution = None
        if chain is not None and set(chain.middlepoints) <= set(mids):
            try:
                solution = chain.solve(mids)
            except ArithmeticError:
                pass  # solved cold below
        if solution is None:
            chain = None  # free its solver first: two at once raise peak RSS
            try:
                program = pool.program(mids)
                solution = solve_te(program)
            except (NoTunnelError, ArithmeticError) as exc:
                yield exc
                continue
            if solution.status is LpStatus.OPTIMAL:
                chain = PoolModel(pool, mids, program, solution.basis)
        yield SelectionResult(_CENTRALITY_LABELS[method], mids, solution)


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
    or the ``NoTunnelError``/``BudgetExceededError``/``ArithmeticError`` it
    fails with.

    What does not depend on k is done once: sp, gsp and degree rank the nodes
    once and each k takes the top k, greedy expands once to the largest k,
    and every k's programs are column slices of one tunnel pool, identical to
    fresh builds. Each distinct k is solved once, when first read; a repeated
    k yields its outcome again. The LU points of sp, gsp and degree are
    solved as one chain (``_chained_points``).
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
        if method == "random" or objective != LU:
            points = (_solved(pool, method, mids, objective) for mids in picks)
        else:
            points = _chained_points(pool, method, picks)
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
