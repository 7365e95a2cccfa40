"""Linear programs in sparse matrix form and the solver front end shared by
all TE modules.

Every program is one ``SparseLp``: an objective, column bounds and a ``<=``
and an ``=`` block of CSR rows, which each builder assembles from COO arrays.
``linprog`` hands it as it is to the HiGHS solver vendored in scipy, with the
options and the input and result checks of scipy's ``linprog(method="highs")``,
and returns srte's own ``LpSolution``. HiGHS is deterministic for identical
input and handles the degenerate, equal-capacity instances common in TE
without cycling. Every returned point is re-checked against the rows.

Every optimal solve hands back its row duals and its optimal simplex basis,
the ``HighsBasis`` HiGHS returns: a copy of one status per column and row
that outlives its solver. An ``LpModel`` keeps one program loaded at such a
basis and solves it with a few columns added, whose prices alone the primal
simplex has to fix: for one solve at a time, after which the model drops
them and restores the basis, or for good, the model then going on from the
new optimal basis, or for good without a solve, at the basis a one-shot
solve of the same columns returned. Greedy selection ranks each round's
candidates the first way, prices the candidates it need not solve at the
chosen set's duals, and lets a round's untied winner join the model the
third way, for the next round to rank in; a top-K sweep grows one model
the second way, one point after the other. Only scipy 1.17.1's bindings
are tested;
``tests/test_lp.py`` names every private binding used here.

The matrices are ``CsrMatrix`` values, not scipy.sparse ones: HiGHS takes
their CSR arrays as they are, and each product with a vector, on either
side, is one ``np.bincount`` that adds in stored order: bit for bit scipy's.

The bindings, ``scipy.optimize._highspy._core``, are loaded by themselves from
their file (``_load_highs``) and registered under their own name, without
running ``scipy.optimize``'s ``__init__``, which imports scipy.sparse and most
of SciPy's solvers and takes longer than all of srte's other imports. A later
``import scipy.optimize`` reuses the registered module; after an earlier one,
srte reuses scipy's. One limitation: when srte loads the module first, the
attribute path ``scipy.optimize._highspy._core`` raises ``AttributeError``,
because the package ``_highspy`` is imported after its submodule and so never
gets the attribute; ``from scipy.optimize._highspy import _core`` finds the
module in either order.
"""

from __future__ import annotations

import enum
import importlib.util
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType
from typing import Optional

import numpy as np
import scipy

_HIGHS = "scipy.optimize._highspy._core"


def _load_highs(folder: Path) -> ModuleType:
    """The HiGHS extension module: the one already imported under its name,
    else the one ``_core`` extension file in ``folder``, registered under its
    name in ``sys.modules`` before it runs. No such file, or more than one,
    raises ``ImportError``."""
    module = sys.modules.get(_HIGHS)
    if module is not None:
        return module
    found = [
        path for path in (folder / f"_core{suffix}" for suffix in EXTENSION_SUFFIXES)
        if path.is_file()
    ]
    if len(found) != 1:
        raise ImportError(
            f"expected one HiGHS extension file _core{{{','.join(EXTENSION_SUFFIXES)}}} "
            f"in {folder} (scipy {scipy.__version__}), found {len(found)}"
        )
    spec = importlib.util.spec_from_file_location(_HIGHS, found[0])
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs(Path(scipy.__file__).parent / "optimize" / "_highspy")

FEASIBILITY_TOL = 1e-7

LE = "<="
EQ = "="


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in the compressed sparse row arrays HiGHS takes: row
    i's entries are ``data[indptr[i]:indptr[i + 1]]``, in the columns
    ``indices[indptr[i]:indptr[i + 1]]`` (int32, distinct: ascending in the
    LP blocks, as in scipy's canonical form, and in order of first use in a
    TE program's ``columns``)."""

    __array_ufunc__ = None  # so NumPy defers x @ m to __rmatmul__

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """Each entry's row."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``m @ x``: each row's entries times ``x`` at their columns, added
        from 0.0 in stored order, as scipy's ``csr_matvec`` adds them (float
        even without entries, where bincount counts in int). ``take`` gathers
        by the int32 indices in a third of the time of ``x[indices]``."""
        return np.bincount(
            self.entry_rows, self.data * x.take(self.indices),
            minlength=self.shape[0],
        ).astype(float, copy=False)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        """``x @ m``: each entry times ``x`` at its row, added into its column
        from 0.0 in stored order, as scipy's transposed product adds them."""
        return np.bincount(
            self.indices, self.data * np.repeat(x, np.diff(self.indptr)),
            minlength=self.shape[1],
        ).astype(float, copy=False)


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
    a_ub: CsrMatrix
    b_ub: np.ndarray
    a_eq: CsrMatrix
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
class LpSolution:
    """A solve's status, its iteration count and, when optimal, its objective
    value in the program's own sense, point ``x``, optimal ``basis`` and row
    ``duals`` (else NaN, empty and None).

    ``duals`` holds the row duals (the ``<=`` rows, then the ``=`` rows) as
    HiGHS reports them for the minimization it solves: a binding ``<=``
    row's dual is at most 0.
    """

    status: LpStatus
    objective_value: float
    x: np.ndarray
    basis: Optional[highs.HighsBasis] = None
    nit: int = 0
    duals: Optional[np.ndarray] = None


def _row_norms(a: CsrMatrix) -> np.ndarray:
    """Each row's max |coefficient|, read from the arrays of a CSR matrix
    without duplicate entries (as built from COO); 0 for a row without any."""
    norms = np.zeros(a.shape[0])
    rows = np.flatnonzero(np.diff(a.indptr))
    if rows.size:
        entries = np.abs(a.data[:a.indptr[-1]])
        norms[rows] = np.maximum.reduceat(entries, a.indptr[rows])
    return norms


def _check_rows(lp: SparseLp, lhs: np.ndarray, norms: np.ndarray) -> None:
    """Each row's residual over max(1, max |coefficient|) is within tolerance,
    given each row's left side and max |coefficient| (the ``<=`` rows, then
    the ``=`` rows)."""
    resid = (lhs - np.concatenate((lp.b_ub, lp.b_eq))) / np.maximum(1.0, norms)
    ub = len(lp.b_ub)
    ok = np.concatenate(
        (resid[:ub] <= FEASIBILITY_TOL, np.abs(resid[ub:]) <= FEASIBILITY_TOL)
    )
    if not ok.all():  # NaN residuals fail too
        raise ArithmeticError(
            "solver returned an infeasible point: row residual "
            f"{resid[~ok][0]:g}"
        )


def _holder(a: CsrMatrix) -> CsrMatrix:
    """A new holder of a CSR matrix's arrays, so the entry rows its products
    cache are not kept with ``a`` (and the program holding it)."""
    return CsrMatrix(a.indptr, a.indices, a.data, a.shape)


def _check_feasibility(lp: SparseLp, x: np.ndarray) -> None:
    """Each row's residual over max(1, max |coefficient|) is within tolerance."""
    _check_rows(
        lp, np.concatenate((_holder(lp.a_ub) @ x, _holder(lp.a_eq) @ x)),
        np.concatenate((_row_norms(lp.a_ub), _row_norms(lp.a_eq))),
    )


# The options scipy's linprog(method="highs") sets; all others keep their
# HiGHS defaults. passOptions copies them into each fresh solver.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = _OPTIONS.log_to_console = False
# A model solved from a basis runs the primal simplex: a basis extended by
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


def _loaded(
    lp: SparseLp, options: highs.HighsOptions
) -> tuple[highs._Highs, CsrMatrix, np.ndarray]:
    """A fresh solver holding the program after linprog's input checks, the
    rows as passed (the ``<=`` rows, then the ``=`` rows) and their upper
    bounds."""
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
        a = CsrMatrix(
            np.concatenate((lp.a_ub.indptr, lp.a_ub.nnz + lp.a_eq.indptr[1:])),
            np.concatenate((lp.a_ub.indices, lp.a_eq.indices)),
            np.concatenate((lp.a_ub.data, lp.a_eq.data)),
            (lp.a_ub.shape[0] + lp.a_eq.shape[0], lp.num_vars),
        )
    row_lower = np.concatenate((np.full(len(lp.b_ub), -highs.kHighsInf), lp.b_eq))
    row_upper = np.concatenate((lp.b_ub, lp.b_eq))
    c = -lp.objective if lp.maximize else lp.objective

    solver = highs._Highs()
    solver.passOptions(options)
    loaded = solver.passModel(
        len(c), len(row_upper), int(a.indptr[-1]),
        int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize), 0.0,
        c, lp.lower, lp.upper, row_lower, row_upper, a.indptr, a.indices, a.data,
        np.zeros(len(c), dtype=np.int32),  # every column continuous
    )
    if loaded == highs.HighsStatus.kError:
        raise ArithmeticError("LP solver failed: HiGHS rejected the model")
    return solver, a, row_upper


def _solved(
    solver: highs._Highs, lp: SparseLp, row_upper: np.ndarray
) -> LpSolution:
    """Run the loaded program and check its result as linprog does: the
    program's columns within their bounds, and any the solver holds after
    them (an ``LpModel``'s added columns) within [0, inf)."""
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
    tol, own = _RESULT_TOL, x[:lp.num_vars]
    if not (  # a NaN anywhere fails a comparison
        fun == fun
        and (own >= lp.lower - tol).all() and (own <= lp.upper + tol).all()
        and (x[lp.num_vars:] >= -tol).all()
        and (slack >= -tol).all() and (np.abs(con) <= tol).all()
    ):
        raise ArithmeticError(
            "LP solver failed: The solution does not satisfy the constraints "
            f"within the required tolerance of {tol:.2E}"
        )
    # 0.0 - fun, not -fun: a maximum of zero is +0.0.
    return LpSolution(
        status, 0.0 - fun if lp.maximize else fun, x, solver.getBasis(), nit,
        np.array(solution.row_dual),
    )


def linprog(lp: SparseLp) -> LpSolution:
    """Solve the program in one fresh HiGHS solver, as scipy's
    ``linprog(method="highs")`` does: the same options, input and result
    checks (NaN bounds are rejected too), and a maximization solved as the
    minimization of the negated objective. A model HiGHS rejects (say, with
    a coefficient of 1e16), a solve it does not finish, or a point failing
    the result check raises ``ArithmeticError``: none reads as infeasible.
    The rows are passed row-wise as they are; only a program with both blocks
    is stacked (rows: the ``<=`` rows, then the ``=`` rows).
    """
    solver, _, row_upper = _loaded(lp, _OPTIONS)
    return _solved(solver, lp, row_upper)


class LpModel:
    """A program kept loaded in one HiGHS solver at a simplex basis and
    solved with columns added: for good (``extend``), for one solve only
    (``solve_with``), or added for good unsolved, at a basis a one-shot
    solve of them returned (``add``).

    Added columns are 0 in the objective and bounded by [0, inf), and
    ``addCols`` starts them nonbasic at 0: a primal feasible basis stays
    primal feasible, so the primal simplex (``_WARM_OPTIONS``; a valid basis
    skips presolve) only prices them in. ``extend`` keeps its columns and its
    optimal basis, so each solve of a growing program starts from the last
    one's optimum. After each ``solve_with``, ``deleteCols`` removes its
    columns and ``setBasis`` restores the basis, so each such solve starts
    from the same model and basis.
    """

    def __init__(self, lp: SparseLp, basis: highs.HighsBasis):
        """``basis`` holds one status per column and row, as many basic as
        there are rows (an optimal solve's ``basis``); HiGHS rejecting it
        raises ``ValueError``."""
        self._lp = lp
        self._solver, a, self._row_upper = _loaded(lp, _WARM_OPTIONS)
        self._basis = basis
        if self._solver.setBasis(basis) == highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the start basis")
        # The rows as passed, in a holder of the model's own (the entry rows
        # its products cache live as long as the model); each row's max
        # |coefficient| over the program's and the kept columns; and the
        # kept columns' entries, as ``solve_with`` takes them.
        self._a = _holder(a)
        self._norms = _row_norms(a)
        self._ptr = np.zeros(1, dtype=np.int32)
        self._rows, self._values = np.zeros(0, dtype=np.int32), np.zeros(0)

    def _kept_and(
        self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept columns, then these, in the arrays ``solve_with`` takes."""
        return (
            np.concatenate((self._ptr, self._ptr[-1] + ptr[1:])),
            np.concatenate((self._rows, rows)),
            np.concatenate((self._values, values)),
        )

    def _add(self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """Add the columns after the held ones, after linprog's input check."""
        if not np.isfinite(values).all():
            raise ValueError(
                "Invalid input for linprog: a_ub must not contain values inf, "
                "nan, or None"
            )
        count = len(ptr) - 1
        zeros = np.zeros(count)
        added = self._solver.addCols(
            count, zeros, zeros, np.full(count, np.inf), len(values), ptr[:-1],
            rows, values,
        )
        if added == highs.HighsStatus.kError:
            raise ArithmeticError("LP solver failed: HiGHS rejected the columns")

    def _solve(
        self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> LpSolution:
        """Add the columns after the held ones and solve; the result is
        checked as ``linprog`` and ``solve_lp`` check theirs."""
        self._add(ptr, rows, values)
        lp = self._lp
        sol = _solved(self._solver, lp, self._row_upper)
        if sol.status is LpStatus.OPTIMAL:
            norms = self._norms.copy()
            np.maximum.at(norms, rows, np.abs(values))
            x, first = sol.x, lp.num_vars
            columns = CsrMatrix(
                *self._kept_and(ptr, rows, values), (len(x) - first, len(norms))
            )
            _check_rows(lp, self._a @ x[:first] + x[first:] @ columns, norms)
        return sol

    def _keep(self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """Hold the columns just added for good."""
        self._ptr, self._rows, self._values = self._kept_and(ptr, rows, values)
        np.maximum.at(self._norms, rows, np.abs(values))

    def solve_with(
        self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> LpSolution:
        """Solve the program with columns added for this solve only: column
        j's entries are ``values[ptr[j]:ptr[j + 1]]`` in the rows
        ``rows[ptr[j]:ptr[j + 1]]`` (int32, distinct within a column, counted
        as ``linprog`` passes the rows). ``x`` holds the program's columns,
        the kept ones, then the added ones.
        """
        first = self._lp.num_vars + len(self._ptr) - 1
        try:
            return self._solve(ptr, rows, values)
        finally:
            count = len(ptr) - 1
            self._solver.deleteCols(
                count, np.arange(first, first + count, dtype=np.int32)
            )
            self._solver.setBasis(self._basis)

    def extend(
        self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> LpSolution:
        """Add columns, in the arrays ``solve_with`` takes, for good, and
        solve from the current basis, which an optimal solve's basis
        replaces. ``x`` holds the program's columns, then the kept ones. A
        model whose ``extend`` raised or was not optimal is not solved
        again."""
        sol = self._solve(ptr, rows, values)
        self._keep(ptr, rows, values)
        if sol.status is LpStatus.OPTIMAL:
            self._basis = sol.basis
        return sol

    def add(
        self, ptr: np.ndarray, rows: np.ndarray, values: np.ndarray,
        basis: highs.HighsBasis,
    ) -> None:
        """Add columns, in the arrays ``solve_with`` takes, for good without
        a solve, and go on from ``basis``: one status per column and row of
        the grown program, such as the optimal basis a ``solve_with`` of the
        same columns returned. HiGHS rejecting the columns raises
        ``ArithmeticError``, rejecting the basis ``ValueError``; either way
        the model is not solved again."""
        self._add(ptr, rows, values)
        if self._solver.setBasis(basis) == highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the start basis")
        self._keep(ptr, rows, values)
        self._basis = basis


def solve_lp(lp: SparseLp) -> LpSolution:
    """Solve the program by ``linprog`` and re-check an optimal point against
    the rows; Infeasible/Unbounded are statuses, not failures. A program
    without columns is optimal at 0 unsolved, with no basis or duals."""
    if lp.num_vars == 0:
        return LpSolution(LpStatus.OPTIMAL, 0.0, np.zeros(0))
    sol = linprog(lp)
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
