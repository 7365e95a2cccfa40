"""Linear programs in sparse matrix form and the solver front end shared by
all TE modules.

Every program is one ``SparseLp``: an objective, column bounds and a ``<=``
and an ``=`` block of CSR rows, which each builder assembles from COO arrays.
``linprog`` hands it as it is to the HiGHS solver vendored in scipy, with the
options and the input and result checks of scipy's ``linprog(method="highs")``,
and returns srte's own ``LpSolution``. HiGHS is deterministic for identical
input and handles the degenerate, equal-capacity instances common in TE
without cycling. Every returned point is re-checked against the rows.

A solve can also start from a given simplex ``Basis`` (one HiGHS status code
per column and row), which skips presolve and runs the primal simplex, and
can hand back its optimal basis. Selection starts a superset's program from a
subset's optimal basis: on a benchmark-tier greedy run that takes about an
eighth of a cold solve's simplex iterations (18 against 149). Only scipy 1.17.1's bindings are
tested; ``tests/test_lp.py`` names every private binding used here.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csr_matrix, vstack

FEASIBILITY_TOL = 1e-7

LE = "<="
EQ = "="


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


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


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A solve's status, its iteration count and, when optimal, its objective
    value in the program's own sense and point ``x`` (else NaN and empty)."""

    status: LpStatus
    objective_value: float
    x: np.ndarray
    basis: Optional[Basis] = None  # the optimal basis, when asked for
    nit: int = 0

    def __getitem__(self, var: int) -> float:
        return float(self.x[var])


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

# The model statuses that are a solve's result; any other fails.
_STATUS = {
    highs.HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
    highs.HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED,
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
    lp: SparseLp,
    start_basis: Optional[Basis] = None,
    return_basis: bool = False,
) -> LpSolution:
    """Solve the program in one fresh HiGHS solver, as scipy's
    ``linprog(method="highs")`` does: the same options, input and result
    checks (NaN bounds are rejected too), and a maximization solved as the
    minimization of the negated objective. A model HiGHS rejects (say, with
    a coefficient of 1e16), a solve it does not finish, or a point failing
    the result check raises ``ArithmeticError``: none reads as infeasible.
    The rows are passed row-wise as they are; only a program with both blocks
    is stacked (rows: the ``<=`` rows, then the ``=`` rows).

    With a ``start_basis`` (one status per column and row, as many basic as
    there are rows) the simplex starts from it, without presolve; HiGHS
    rejecting it raises ``ValueError``. With ``return_basis`` an optimal
    solution also holds its final ``basis``, read only then since reading it
    costs about as much as setting one.
    """
    for name, values in (
        ("objective", lp.objective), ("a_ub", lp.a_ub.data), ("b_ub", lp.b_ub),
        ("a_eq", lp.a_eq.data), ("b_eq", lp.b_eq),
    ):
        if not np.isfinite(values).all():
            raise ValueError(
                f"Invalid input for linprog: {name} must not contain values "
                "inf, nan, or None"
            )
    if np.isnan(lp.lower).any() or np.isnan(lp.upper).any():
        raise ValueError("Invalid input for linprog: bounds must not contain nan")
    if not lp.a_eq.shape[0]:
        a = lp.a_ub
    elif not lp.a_ub.shape[0]:
        a = lp.a_eq
    else:
        a = vstack((lp.a_ub, lp.a_eq), format="csr")
    row_lower = np.concatenate((np.full(len(lp.b_ub), -highs.kHighsInf), lp.b_eq))
    row_upper = np.concatenate((lp.b_ub, lp.b_eq))
    c = -lp.objective if lp.maximize else lp.objective

    solver = highs._Highs()
    solver.passOptions(_OPTIONS if start_basis is None else _WARM_OPTIONS)
    loaded = solver.passModel(
        len(c), len(row_upper), int(a.indptr[-1]),
        int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize), 0.0,
        c, lp.lower, lp.upper, row_lower, row_upper, a.indptr, a.indices, a.data,
        np.zeros(len(c), dtype=np.int32),  # every column continuous
    )
    if loaded == highs.HighsStatus.kError:
        raise ArithmeticError("LP solver failed: HiGHS rejected the model")
    if start_basis is not None and (
        solver.setBasis(_to_highs(start_basis)) == highs.HighsStatus.kError
    ):
        raise ValueError("HiGHS rejected the start basis")
    ran = solver.run() != highs.HighsStatus.kError
    model_status = solver.getModelStatus()
    status = _STATUS.get(model_status) if ran else None
    if status is None:
        message = solver.modelStatusToString(model_status)
        raise ArithmeticError(f"LP solver failed: {message}")
    info = solver.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status, np.nan, np.zeros(0), nit=nit)

    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    # Each <= row's slack and each = row's residual.
    residual = row_upper - np.array(solution.row_value)
    slack, con = residual[:len(lp.b_ub)], residual[len(lp.b_ub):]
    tol = _RESULT_TOL
    if not (  # a NaN anywhere fails a comparison
        fun == fun
        and (x >= lp.lower - tol).all() and (x <= lp.upper + tol).all()
        and (slack >= -tol).all() and (np.abs(con) <= tol).all()
    ):
        raise ArithmeticError(
            "LP solver failed: The solution does not satisfy the constraints "
            f"within the required tolerance of {tol:.2E}"
        )
    basis = _from_highs(solver.getBasis()) if return_basis else None
    # 0.0 - fun, not -fun: a maximum of zero is +0.0.
    return LpSolution(status, 0.0 - fun if lp.maximize else fun, x, basis, nit)


def solve_lp(
    lp: SparseLp,
    start_basis: Optional[Basis] = None,
    return_basis: bool = False,
) -> LpSolution:
    """Solve the program by ``linprog`` and re-check an optimal point against
    the rows; Infeasible/Unbounded are statuses, not failures."""
    if lp.num_vars == 0:
        return LpSolution(LpStatus.OPTIMAL, 0.0, np.zeros(0))
    sol = linprog(lp, start_basis=start_basis, return_basis=return_basis)
    if sol.status is LpStatus.OPTIMAL:
        _check_feasibility(lp, sol.x)
    return sol


def dump_lp(lp: SparseLp) -> str:
    """Human-readable LP-text dump for external cross-checks.

    Grammar: one objective line, a ``subject to`` block with one row per line,
    and a ``bounds`` block; column j is named ``x<j>``.
    """
    def term(a: float, j: int) -> str:
        return f"{a:+g} x{j}"

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
        hi = "+inf" if lp.upper[j] == np.inf else f"{lp.upper[j]:g}"
        lines.append(f"  {lp.lower[j]:g} <= x{j} <= {hi}")
    return "\n".join(lines) + "\n"
