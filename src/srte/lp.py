"""Generic linear programs and a solver front end shared by all TE modules.

A program is either built row by row (``LinearProgram``: coefficient dicts,
relation, rhs) or assembled directly in the solver's sparse matrix form
(``SparseLp``); a row-form program is converted once when solved. Solving is
delegated to scipy's HiGHS backend, which is deterministic for identical input
and handles the degenerate, equal-capacity instances common in TE without
cycling. Every returned point is re-checked against the rows.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

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


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    objective_value: float
    assignment: tuple[float, ...]

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


def solve_lp(lp: LinearProgram | SparseLp) -> LpSolution:
    """Solve the program; Infeasible/Unbounded are statuses, not failures."""
    if lp.num_vars == 0:
        return LpSolution(LpStatus.OPTIMAL, 0.0, ())
    if isinstance(lp, LinearProgram):
        lp = lp.to_sparse()
    c = -lp.objective if lp.maximize else lp.objective
    has_ub, has_eq = lp.a_ub.shape[0] > 0, lp.a_eq.shape[0] > 0
    res = linprog(
        c,
        A_ub=lp.a_ub if has_ub else None, b_ub=lp.b_ub if has_ub else None,
        A_eq=lp.a_eq if has_eq else None, b_eq=lp.b_eq if has_eq else None,
        bounds=np.column_stack((lp.lower, lp.upper)), method="highs",
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
    return LpSolution(LpStatus.OPTIMAL, value, tuple(x.tolist()))


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
