"""Generic linear programs and a solver front end shared by all TE modules.

A program is either built row by row (``LinearProgram``: coefficient dicts,
relation, rhs) or assembled directly in the solver's sparse matrix form
(``SparseLp``); a row-form program is converted once when solved. Every
program goes straight to the HiGHS solver vendored in scipy, with the options
and the input and result checks of scipy's ``linprog(method="highs")`` but none
of its conversions. HiGHS is deterministic for identical input and handles the
degenerate, equal-capacity instances common in TE without cycling. Every
returned point is re-checked against the rows.

A solve can also start from a given simplex ``Basis`` (one HiGHS status code
per column and row), which skips presolve and runs the primal simplex, and
can hand back its optimal basis. Selection starts a superset's program from a
subset's optimal basis: on a benchmark-tier greedy run that takes about an
eighth of a cold solve's simplex iterations (18 against 149). Only scipy 1.17.1's bindings are
tested; ``tests/test_lp.py`` names every private binding used here.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csr_matrix, vstack

FEASIBILITY_TOL = 1e-7

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """LP in row form. Variables default to bounds [0, +inf)."""

    maximize: bool = False
    objective: list[float] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[Optional[float]] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    rows: list[tuple[dict[int, float], str, float]] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def add_var(
        self,
        label: str,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: Optional[float] = None,
    ) -> int:
        self.objective.append(float(objective))
        self.lower.append(float(lower))
        self.upper.append(None if upper is None else float(upper))
        self.labels.append(label)
        return len(self.objective) - 1

    def add_row(self, coeffs: dict[int, float], relation: str, rhs: float) -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"bad relation {relation!r}")
        rhs = float(rhs)
        if not np.isfinite(rhs):
            raise ValueError("rhs must be finite")
        for j in coeffs:
            if not (0 <= j < self.num_vars):
                raise ValueError(f"coefficient references unknown variable {j}")
        self.rows.append((dict(coeffs), relation, rhs))

    def to_sparse(self) -> SparseLp:
        """The same program in matrix form; GE rows become negated LE rows."""
        # Per block: coefficients, their row and column indices, right sides.
        blocks = {LE: ([], [], [], []), EQ: ([], [], [], [])}
        for coeffs, relation, rhs in self.rows:
            sign = -1.0 if relation == GE else 1.0
            data, rows, cols, b = blocks[EQ if relation == EQ else LE]
            data.extend(sign * a for a in coeffs.values())
            rows.extend([len(b)] * len(coeffs))
            cols.extend(coeffs)
            b.append(sign * rhs)
        (a_ub, b_ub), (a_eq, b_eq) = [
            (
                csr_matrix((data, (rows, cols)), shape=(len(b), self.num_vars)),
                np.array(b, dtype=float),
            )
            for data, rows, cols, b in blocks.values()
        ]
        upper = [np.inf if u is None else u for u in self.upper]
        return SparseLp(
            self.maximize, np.array(self.objective, dtype=float),
            np.array(self.lower, dtype=float), np.array(upper, dtype=float),
            a_ub, b_ub, a_eq, b_eq, self.labels,
        )


@dataclass(frozen=True, eq=False)
class SparseLp:
    """LP in the matrix form the solver takes.

    Optimize ``objective @ x`` subject to ``a_ub @ x <= b_ub``,
    ``a_eq @ x == b_eq`` and ``lower <= x <= upper`` (upper may be inf).
    Either block may have no rows.
    """

    maximize: bool
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_ub: csr_matrix
    b_ub: np.ndarray
    a_eq: csr_matrix
    b_eq: np.ndarray
    labels: Sequence[str]

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def rows(self) -> "_MatrixRows":
        """The constraints as (coefficients, relation, rhs): the <= rows, then
        the = rows. A view: the rows are read from the matrix when iterated."""
        return _MatrixRows(self)


class _MatrixRows:
    def __init__(self, lp: SparseLp):
        self._blocks = ((lp.a_ub, LE, lp.b_ub), (lp.a_eq, EQ, lp.b_eq))

    def __len__(self) -> int:
        return sum(a.shape[0] for a, _, _ in self._blocks)

    def __iter__(self) -> Iterator[tuple[dict[int, float], str, float]]:
        for a, relation, b in self._blocks:
            indptr, cols, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
            for i, rhs in enumerate(b.tolist()):
                lo, hi = indptr[i], indptr[i + 1]
                yield dict(zip(cols[lo:hi], data[lo:hi])), relation, rhs


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis: the HiGHS basis status code (``HighsBasisStatus``:
    ``LOWER``, ``BASIC``, ...) of every column and of every row."""

    cols: np.ndarray
    rows: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    objective_value: float
    assignment: tuple[float, ...]
    basis: Optional[Basis] = None  # the optimal basis, when asked for

    def __getitem__(self, var: int) -> float:
        return self.assignment[var]


def _row_norms(a: csr_matrix) -> np.ndarray:
    """Each row's max |coefficient|, read from the arrays of a CSR matrix
    without duplicate entries (as built from COO); 0 for a row without any."""
    norms = np.zeros(a.shape[0])
    rows = np.flatnonzero(np.diff(a.indptr))
    if rows.size:
        entries = np.abs(a.data[:a.indptr[-1]])
        norms[rows] = np.maximum.reduceat(entries, a.indptr[rows])
    return norms


def _check_feasibility(lp: SparseLp, x: np.ndarray) -> None:
    """Each row's residual over max(1, max |coefficient|) is within tolerance."""
    for a, b, equality in ((lp.a_ub, lp.b_ub, False), (lp.a_eq, lp.b_eq, True)):
        if not a.shape[0]:
            continue
        norm = np.maximum(1.0, _row_norms(a))
        resid = (a @ x - b) / norm
        ok = np.abs(resid) <= FEASIBILITY_TOL if equality else resid <= FEASIBILITY_TOL
        if not ok.all():  # NaN residuals fail too
            raise ArithmeticError(
                "solver returned an infeasible point: row residual "
                f"{resid[~ok][0]:g}"
            )


# The options scipy's linprog(method="highs") sets; all others keep their
# HiGHS defaults. passOptions copies them into each fresh solver.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = _OPTIONS.log_to_console = False
# A solve from a start basis runs the primal simplex: a basis extended by
# columns at 0 stays primal feasible, and only their prices are off.
_WARM_OPTIONS = highs.HighsOptions()
_WARM_OPTIONS.simplex_strategy = (
    highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal
)
_WARM_OPTIONS.highs_debug_level = _OPTIONS.highs_debug_level
_WARM_OPTIONS.output_flag = _WARM_OPTIONS.log_to_console = False

_INF = highs.kHighsInf
# linprog's status codes: 0 optimal, 2 infeasible, 3 unbounded, 4 failed.
_STATUS = {
    highs.HighsModelStatus.kOptimal: 0,
    highs.HighsModelStatus.kInfeasible: 2,
    highs.HighsModelStatus.kModelError: 2,
    highs.HighsModelStatus.kUnbounded: 3,
}
# linprog's result check tolerance: 10 * sqrt of its default tol of 1e-9.
_RESULT_TOL = 10 * np.sqrt(1e-9)

# Basis status codes; _BASIS_STATUS[code] is the HiGHS enum member.
_BASIS_STATUS = np.array(
    sorted(highs.HighsBasisStatus.__members__.values(), key=int), dtype=object
)
LOWER = int(highs.HighsBasisStatus.kLower)
BASIC = int(highs.HighsBasisStatus.kBasic)


def _to_highs(basis: Basis) -> highs.HighsBasis:
    out = highs.HighsBasis()
    out.col_status = _BASIS_STATUS[basis.cols].tolist()
    out.row_status = _BASIS_STATUS[basis.rows].tolist()
    out.alien = False  # complete: HiGHS checks it and starts from it as is
    out.valid = True
    return out


def _from_highs(basis: highs.HighsBasis) -> Basis:
    return Basis(
        np.fromiter(map(int, basis.col_status), dtype=np.int8),
        np.fromiter(map(int, basis.row_status), dtype=np.int8),
    )


def linprog(
    c: np.ndarray,
    A_ub: csr_matrix,
    b_ub: np.ndarray,
    A_eq: csr_matrix,
    b_eq: np.ndarray,
    bounds: np.ndarray,
    start_basis: Optional[Basis] = None,
    return_basis: bool = False,
) -> OptimizeResult:
    """Minimize ``c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``
    and ``bounds[:, 0] <= x <= bounds[:, 1]`` in one fresh HiGHS solver.

    Takes the arguments of scipy's ``linprog`` (CSR blocks, either may have no
    rows; an (n, 2) bounds array) and returns its ``status``, ``message``,
    ``x``, ``fun`` and ``nit``, after its input checks and its result check.
    The rows are passed row-wise as they are; only a program with both blocks
    is stacked (rows: the ``<=`` rows, then the ``=`` rows).

    With a ``start_basis`` (one status per column and row, as many basic as
    there are rows) the simplex starts from it, without presolve; HiGHS
    rejecting it raises ``ValueError``. With ``return_basis`` an optimal
    result also holds its final ``basis``, read only then since reading it
    costs about as much as setting one.
    """
    for name, values in (
        ("c", c), ("A_ub", A_ub.data), ("b_ub", b_ub),
        ("A_eq", A_eq.data), ("b_eq", b_eq),
    ):
        if not np.isfinite(values).all():
            raise ValueError(
                f"Invalid input for linprog: {name} must not contain values "
                "inf, nan, or None"
            )
    if not A_eq.shape[0]:
        a = A_ub
    elif not A_ub.shape[0]:
        a = A_eq
    else:
        a = vstack((A_ub, A_eq), format="csr")
    row_lower = np.concatenate((np.full(len(b_ub), -_INF), b_eq))
    row_upper = np.concatenate((b_ub, b_eq))
    lower = np.nan_to_num(bounds[:, 0], nan=-_INF, posinf=_INF, neginf=-_INF)
    upper = np.nan_to_num(bounds[:, 1], nan=_INF, posinf=_INF, neginf=-_INF)

    solver = highs._Highs()
    solver.passOptions(_OPTIONS if start_basis is None else _WARM_OPTIONS)
    loaded = solver.passModel(
        len(c), len(row_upper), int(a.indptr[-1]),
        int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize), 0.0,
        c, lower, upper, row_lower, row_upper, a.indptr, a.indices, a.data,
        np.zeros(len(c), dtype=np.int32),  # every column continuous
    )
    if loaded == highs.HighsStatus.kError:
        model_status = highs.HighsModelStatus.kModelError
        status, nit = 2, 0
    else:
        if start_basis is not None and (
            solver.setBasis(_to_highs(start_basis)) == highs.HighsStatus.kError
        ):
            raise ValueError("HiGHS rejected the start basis")
        ran = solver.run() != highs.HighsStatus.kError
        model_status = solver.getModelStatus()
        status = _STATUS.get(model_status, 4) if ran else 4
        info = solver.getInfo()
        nit = info.simplex_iteration_count or info.ipm_iteration_count
    message = solver.modelStatusToString(model_status)
    if status != 0:
        return OptimizeResult(status=status, message=message, x=None, fun=None, nit=nit)

    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    # Each <= row's slack and each = row's residual.
    residual = row_upper - np.array(solution.row_value)
    slack, con = residual[:len(b_ub)], residual[len(b_ub):]
    tol = _RESULT_TOL
    if not (  # a NaN anywhere fails a comparison
        fun == fun
        and (x >= lower - tol).all() and (x <= upper + tol).all()
        and (slack >= -tol).all() and (np.abs(con) <= tol).all()
    ):
        status = 4
        message = (
            "The solution does not satisfy the constraints within the "
            f"required tolerance of {tol:.2E}"
        )
    res = OptimizeResult(status=status, message=message, x=x, fun=fun, nit=nit)
    if return_basis and status == 0:
        res.basis = _from_highs(solver.getBasis())
    return res


def solve_lp(
    lp: LinearProgram | SparseLp,
    start_basis: Optional[Basis] = None,
    return_basis: bool = False,
) -> LpSolution:
    """Solve the program; Infeasible/Unbounded are statuses, not failures.

    ``start_basis`` and ``return_basis`` are passed to ``linprog``: the
    simplex starts from the given basis, and the optimum keeps its basis.
    """
    if lp.num_vars == 0:
        return LpSolution(LpStatus.OPTIMAL, 0.0, ())
    if isinstance(lp, LinearProgram):
        lp = lp.to_sparse()
    res = linprog(
        -lp.objective if lp.maximize else lp.objective,
        A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
        bounds=np.column_stack((lp.lower, lp.upper)),
        start_basis=start_basis, return_basis=return_basis,
    )
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE, float("nan"), ())
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED, float("nan"), ())
    if res.status != 0:
        raise ArithmeticError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    _check_feasibility(lp, x)
    value = float(res.fun)
    if lp.maximize:
        value = -value
    return LpSolution(
        LpStatus.OPTIMAL, value, tuple(x.tolist()), res.get("basis")
    )


def dump_lp(lp: LinearProgram | SparseLp) -> str:
    """Human-readable LP-text dump for external cross-checks.

    Grammar: one objective line, a ``subject to`` block with one row per line,
    and a ``bounds`` block; variables are referenced by their labels.
    """
    def term(a: float, j: int) -> str:
        return f"{a:+g} {lp.labels[j]}"

    lines = []
    sense = "maximize" if lp.maximize else "minimize"
    obj = " ".join(
        term(a, j) for j, a in enumerate(lp.objective) if a != 0.0
    ) or "0"
    lines.append(f"{sense}: {obj}")
    lines.append("subject to:")
    for coeffs, relation, rhs in lp.rows:
        lhs = " ".join(term(a, j) for j, a in sorted(coeffs.items())) or "0"
        lines.append(f"  {lhs} {relation} {rhs:g}")
    lines.append("bounds:")
    for j in range(lp.num_vars):
        upper = lp.upper[j]
        hi = "+inf" if upper is None or upper == np.inf else f"{upper:g}"
        lines.append(f"  {lp.lower[j]:g} <= {lp.labels[j]} <= {hi}")
    return "\n".join(lines) + "\n"
