"""Generic LP layer: statuses, exact fixtures, feasibility, and the dump."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import srte.lp
import srte.te
from srte.graph import generate_gravity_demands, random_connected_digraph
from srte.paths import ShortestPathCache
from srte.lp import EQ, LE, LpStatus, dump_lp, solve_lp

from conftest import dense_lp, split_lp


def test_trivially_infeasible():
    """minimize 0 subject to x <= -1, x >= 0."""
    lp = dense_lp([0.0], ub=[([1.0], -1.0)])
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    """maximize x subject to x >= 1, written -x <= -1."""
    lp = dense_lp([1.0], ub=[([-1.0], -1.0)], maximize=True)
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_empty_program():
    sol = solve_lp(dense_lp([]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == 0.0


def test_hand_balance_lp():
    """Two-route balance: theta* = 0.6 with f1 = 1.8, f2 = 1.2."""
    lp, theta, f1, f2 = split_lp()
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.6, abs=1e-9)
    assert sol[theta] == pytest.approx(0.6, abs=1e-9)
    assert sol[f1] == pytest.approx(1.8, abs=1e-9)
    assert sol[f2] == pytest.approx(1.2, abs=1e-9)


def test_hand_balance_grid_search_cross_check():
    """Brute force over f1 at 1e-3 resolution confirms the LP optimum."""
    lp, *_ = split_lp()
    best = min(
        max(f1 / 3.0, (3.0 - f1) / 2.0)
        for f1 in np.arange(0.0, 3.0 + 1e-12, 1e-3)
    )
    assert solve_lp(lp).objective_value == pytest.approx(best, abs=1e-3)


def test_maximize_sign_handling():
    lp = dense_lp([2.0], upper=[5.0], maximize=True)
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(10.0)
    assert sol[0] == pytest.approx(5.0)


def test_ge_and_eq_rows():
    """minimize x + y subject to x >= 2 (as -x <= -2) and x + y = 5."""
    lp = dense_lp([1.0, 1.0], ub=[([-1.0, 0.0], -2.0)], eq=[([1.0, 1.0], 5.0)])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0)
    assert sol[0] >= 2.0 - 1e-9


def test_dump_format():
    lp, theta, f1, f2 = split_lp()
    text = dump_lp(lp)
    lines = text.splitlines()
    assert lines[0] == "minimize: +1 x0"
    assert "subject to:" in lines
    assert "bounds:" in lines
    assert any("<=" in ln or "=" in ln for ln in lines[2:])
    assert text.endswith("\n")


def test_solution_indexing():
    sol = solve_lp(dense_lp([1.0], lower=[2.5]))
    assert sol[0] == pytest.approx(2.5)


def test_solution_point_is_the_array_highs_returned():
    """``x`` is the float array of the point; indexing reads a float."""
    lp, theta, f1, f2 = split_lp()
    sol = solve_lp(lp)
    assert isinstance(sol.x, np.ndarray)
    assert sol.x.dtype == np.float64 and sol.x.shape == (lp.num_vars,)
    assert type(sol[f1]) is float and sol[f1] == sol.x[f1]
    assert sol.nit > 0
    infeasible = solve_lp(dense_lp([0.0], ub=[([1.0], -1.0)]))
    assert infeasible.x.shape == (0,) and math.isnan(infeasible.objective_value)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_solver_soundness_on_random_feasible_programs(data):
    """Minimization never exceeds the value of a known feasible point, and
    the returned point satisfies every row (the solver's own feasibility
    re-check runs internally on each solve)."""
    rng_vals = st.integers(-4, 4)
    n = data.draw(st.integers(1, 4))
    objective = [data.draw(rng_vals) for _ in range(n)]
    witness = [data.draw(st.integers(0, 5)) for _ in range(n)]
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = [float(data.draw(rng_vals)) for _ in range(n)]
        activity = sum(coeffs[j] * witness[j] for j in range(n))
        slack = data.draw(st.integers(0, 3))
        rows.append((coeffs, activity + slack))
    lp = dense_lp(objective, ub=rows, upper=[10.0] * n)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    witness_value = sum(lp.objective[j] * witness[j] for j in range(n))
    assert sol.objective_value <= witness_value + 1e-7


def three_row_program():
    """minimize x + y subject to 100 x + y <= 203, x >= 2 (as -x <= -2),
    x + y = 5 and y <= 4."""
    return dense_lp(
        [1.0, 1.0],
        ub=[([100.0, 1.0], 203.0), ([-1.0, 0.0], -2.0)],
        eq=[([1.0, 1.0], 5.0)],
        upper=[np.inf, 4.0],
    )


def test_sparse_form_of_rows():
    """The rows view reads the <= block, then the = block, from the matrix;
    the dump prints them and the bounds, column j named x<j>."""
    sparse = three_row_program()
    assert sparse.num_vars == 2
    assert len(sparse.rows) == 3
    assert list(sparse.rows) == [
        ({0: 100.0, 1: 1.0}, LE, 203.0),
        ({0: -1.0}, LE, -2.0),
        ({0: 1.0, 1: 1.0}, EQ, 5.0),
    ]
    text = dump_lp(sparse)
    assert text.splitlines()[0] == "minimize: +1 x0 +1 x1"
    assert "  +100 x0 +1 x1 <= 203" in text
    assert "  -1 x0 <= -2" in text and "  +1 x0 +1 x1 = 5" in text
    assert "  0 <= x0 <= +inf" in text and "  0 <= x1 <= 4" in text
    assert solve_lp(sparse).objective_value == pytest.approx(5.0)


@pytest.mark.parametrize(
    "point, ok",
    [
        ((2.0, 3.0), True),
        # Row 0 is 4.95e-6 over its rhs: 4.95e-8 after dividing by 100.
        ((2.0 + 5e-8, 3.0 - 5e-8), True),
        ((2.0 + 2e-7, 3.0 - 2e-7), False),
        ((1.9999, 3.0001), False),  # the >= row
        ((2.0, 2.999), False),  # the = row, from below
        ((float("nan"), 3.0), False),
    ],
)
def test_feasibility_recheck(monkeypatch, point, ok):
    """The returned point is re-checked row by row against the tolerance,
    scaled by max(1, max |coefficient|) of the row."""
    real = srte.lp.linprog

    def returns_point(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), x=np.array(point))

    monkeypatch.setattr(srte.lp, "linprog", returns_point)
    if ok:
        assert solve_lp(three_row_program()).status is LpStatus.OPTIMAL
    else:
        with pytest.raises(ArithmeticError, match="infeasible point"):
            solve_lp(three_row_program())


def scipy_row_norms(a):
    return abs(a).max(axis=1).toarray().ravel()


def test_row_norms_equal_scipys():
    """The feasibility re-check's row norms, read from the CSR arrays, equal
    scipy's row maxima of |a| on matrices with empty rows, explicit zeros
    and negative entries, from COO parts and random dense fills."""
    rng = np.random.default_rng(0)
    matrices = [
        csr_matrix((3, 4)),
        csr_matrix(np.array([[0.0, -2.5], [0.0, 0.0], [1e-9, -1e9]])),
        three_row_program().a_ub,
    ]
    for _ in range(40):
        rows, cols = rng.integers(1, 12, size=2)
        nnz = int(rng.integers(0, rows * cols + 1))
        parts = [(
            rng.integers(0, rows, size=nnz), rng.integers(0, cols, size=nnz),
            rng.choice([0.0, -1.0, 3.5, -0.25, 1e-12], size=nnz),
        )]
        matrices.append(srte.te._csr(parts, (rows, cols)))
        dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
        matrices.append(csr_matrix(dense))
    empty = explicit_zero = 0
    for a in matrices:
        got = srte.lp._row_norms(a)
        assert got.dtype == np.float64
        assert np.array_equal(got, scipy_row_norms(a))
        empty += int((np.diff(a.indptr) == 0).sum())
        explicit_zero += int((a.data == 0).sum())
    assert empty and explicit_zero


def _direct_call_corpus():
    """Programs that reach srte.lp.linprog through solve_lp: tunnel-pool
    slices (LU and MF) of two benchmark-tier instances, an MP LU program with
    its = block, and hand-written edge cases."""
    programs = []
    for seed, kind in ((4000, srte.te.LU), (4001, srte.te.MF)):
        net = random_connected_digraph(30, 120, seed, max_capacity=10)
        demands = generate_gravity_demands(net, 100, seed + 500)
        pool = srte.te.TunnelPool(ShortestPathCache(net), demands, 1)
        for mids in ((), (3,), (7, 20), (1, 5, 9, 13), (0, 11, 22, 25, 29)):
            programs.append(pool.program(mids, kind).lp)
    net = random_connected_digraph(30, 120, 4002, max_capacity=10)
    programs.append(srte.te.build_mp_baseline(
        net, generate_gravity_demands(net, 100, 4502), srte.te.LU
    ).lp)

    maximize = dense_lp(
        [2.0, 1.0], ub=[([1.0, 1.0], 4.0), ([1.0, -1.0], 1.0)], maximize=True
    )
    no_rows = dense_lp([1.0, -1.0], lower=[1.5, 0.0], upper=[3.0, 2.0])
    infeasible = dense_lp([0.0], ub=[([1.0], -1.0)])
    unbounded = dense_lp([1.0], ub=[([-1.0], -1.0)], maximize=True)
    programs += [maximize, no_rows, infeasible, unbounded, three_row_program()]
    return programs


def scipy_arguments(lp):
    """The arguments scipy's linprog takes for the program: the objective to
    minimize, both blocks and an (n, 2) bounds array."""
    return {
        "c": -lp.objective if lp.maximize else lp.objective,
        "A_ub": lp.a_ub, "b_ub": lp.b_ub, "A_eq": lp.a_eq, "b_eq": lp.b_eq,
        "bounds": np.column_stack((lp.lower, lp.upper)),
    }


# scipy's linprog status codes of the statuses srte.lp.linprog returns.
_SCIPY_STATUS = {
    LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 2, LpStatus.UNBOUNDED: 3,
}


def _recorded_corpus(monkeypatch):
    """Each program of the corpus as solve_lp passes it to linprog, with the
    keywords of the call."""
    calls = []
    real = srte.lp.linprog

    def recorded(lp, **kwargs):
        calls.append((lp, kwargs))
        return real(lp, **kwargs)

    monkeypatch.setattr(srte.lp, "linprog", recorded)
    programs = _direct_call_corpus()
    for lp in programs:
        solve_lp(lp)
    monkeypatch.undo()
    assert len(calls) == len(programs)
    return calls


def test_direct_highs_call_equals_scipy_linprog(monkeypatch):
    """srte.lp.linprog passes each program straight to HiGHS and returns what
    scipy's linprog(method="highs") returns for the same program: the same
    status, iteration count, objective and bit for bit the same point."""
    calls = _recorded_corpus(monkeypatch)
    # One LP per program, each solved cold without reading its basis back:
    # then scipy's linprog solves exactly the same program.
    statuses = set()
    for lp, kwargs in calls:
        assert kwargs == {"start_basis": None, "return_basis": False}
        ours = srte.lp.linprog(lp)
        theirs = scipy.optimize.linprog(**scipy_arguments(lp), method="highs")
        assert _SCIPY_STATUS[ours.status] == theirs.status
        assert ours.nit == theirs.nit
        if theirs.status == 0:
            fun = -theirs.fun if lp.maximize else theirs.fun
            assert ours.objective_value == fun
            assert np.array_equal(ours.x, theirs.x)
        else:
            assert theirs.fun is None and theirs.x is None
            assert math.isnan(ours.objective_value) and ours.x.size == 0
        statuses.add(ours.status)
    assert statuses == set(_SCIPY_STATUS)


def _no_solver():
    raise AssertionError("HiGHS was called")


@pytest.mark.parametrize("scipy_name, value", [
    ("c", np.array([np.nan, 1.0])),
    ("A_ub", csr_matrix([[1.0, np.inf]])),
    ("b_eq", np.array([np.inf])),
])
def test_direct_highs_call_rejects_nonfinite_input(monkeypatch, scipy_name, value):
    """A NaN or inf objective, matrix entry or right-hand side raises
    linprog's ValueError before HiGHS is called, as scipy's linprog does."""
    field = {"c": "objective", "A_ub": "a_ub", "b_eq": "b_eq"}[scipy_name]
    lp = dataclasses.replace(
        dense_lp([1.0, 1.0], ub=[([1.0, 1.0], 4.0)], eq=[([1.0, -1.0], 0.0)]),
        **{field: value},
    )
    message = "must not contain values inf, nan, or None"
    with pytest.raises(ValueError, match=f"{scipy_name} {message}"):
        scipy.optimize.linprog(**scipy_arguments(lp), method="highs")
    monkeypatch.setattr(srte.lp.highs, "_Highs", _no_solver)
    with pytest.raises(ValueError, match=f"{field} {message}"):
        srte.lp.linprog(lp)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_nan_bound_is_rejected_before_highs_is_called(monkeypatch, side):
    lp = three_row_program()
    bounds = getattr(lp, side).copy()
    bounds[1] = np.nan
    monkeypatch.setattr(srte.lp.highs, "_Highs", _no_solver)
    with pytest.raises(ValueError, match="bounds must not contain nan"):
        solve_lp(dataclasses.replace(lp, **{side: bounds}))


def test_unfinished_solve_raises(monkeypatch):
    """A model status other than optimal, infeasible or unbounded (here the
    iteration limit) is a failed solve."""
    options = srte.lp.highs.HighsOptions()
    options.presolve = "off"
    options.simplex_iteration_limit = 0
    options.output_flag = options.log_to_console = False
    monkeypatch.setattr(srte.lp, "_OPTIONS", options)
    lp, *_ = split_lp()
    with pytest.raises(ArithmeticError, match="LP solver failed: .*limit"):
        solve_lp(lp)


@pytest.mark.parametrize("lp", [
    dense_lp([1.0], ub=[([1e16], 1.0)], maximize=True),  # a coefficient
    dense_lp([1.0], ub=[([-1.0], -1e21)]),  # a right-hand side
])
def test_rejected_model_raises(lp):
    """A program HiGHS refuses to load is a failed solve, not an
    infeasible one."""
    with pytest.raises(ArithmeticError, match="HiGHS rejected the model"):
        solve_lp(lp)


def test_warm_start_gives_the_cold_status_and_theta(monkeypatch):
    """From a start basis, linprog returns the status of the cold solve, and
    an objective within a hundredth of the tie tolerance the greedy ranks
    warm solves by (1e-12 relative). The starts: every program's slack basis
    (all columns nonbasic at 0, all rows basic), and for each LU pool slice
    the extension of the empty set's optimal basis, as the greedy builds it;
    those take fewer iterations in all than the cold solves."""
    def assert_same(warm, cold):
        assert warm.status is cold.status
        if cold.status is LpStatus.OPTIMAL:
            tie = 1e-12 * max(1.0, abs(cold.objective_value))
            assert abs(warm.objective_value - cold.objective_value) <= tie / 100

    statuses = set()
    for lp, _ in _recorded_corpus(monkeypatch):
        cold = srte.lp.linprog(lp)
        slack = srte.lp.Basis(
            np.full(lp.num_vars, srte.lp.LOWER, dtype=np.int8),
            np.full(len(lp.rows), srte.lp.BASIC, dtype=np.int8),
        )
        assert_same(srte.lp.linprog(lp, start_basis=slack), cold)
        statuses.add(cold.status)
    assert statuses == set(_SCIPY_STATUS)

    warm_nit = cold_nit = 0
    net = random_connected_digraph(30, 120, 4000, max_capacity=10)
    pool = srte.te.TunnelPool(
        ShortestPathCache(net), generate_gravity_demands(net, 100, 4500), 1
    )
    sets = ((3,), (7, 20), (1, 5, 9, 13), (0, 11, 22, 25, 29))
    pool.cover(sets)
    empty = srte.te.solve_te(pool.program(()), return_basis=True)
    start = srte.te.WarmStart(pool, (), empty.basis)
    for mids in sets:
        program = pool.program(mids)
        cold = srte.te.solve_te(program)
        warm = srte.te.solve_te(program, start.basis(program))
        assert warm.status is cold.status is LpStatus.OPTIMAL
        assert abs(warm.theta - cold.theta) <= 1e-14 * max(1.0, cold.theta)
        warm_nit += _iterations(program, start.basis(program))
        cold_nit += _iterations(program, None)
    assert warm_nit < cold_nit


def _iterations(program, start_basis):
    return srte.lp.linprog(program.lp, start_basis=start_basis).nit


def test_start_basis_of_the_wrong_size_is_rejected():
    sparse, *_ = split_lp()
    wrong = srte.lp.Basis(
        np.full(2, srte.lp.LOWER, dtype=np.int8),
        np.full(3, srte.lp.BASIC, dtype=np.int8),
    )
    with pytest.raises(ValueError, match="rejected the start basis"):
        solve_lp(sparse, wrong)


def test_returned_basis_restarts_in_no_iterations():
    """The optimal basis a solve returns is a complete basis of the program:
    a solve started from it needs no simplex iteration."""
    sparse, *_ = split_lp()
    sol = solve_lp(sparse, return_basis=True)
    assert sol.basis.cols.dtype == sol.basis.rows.dtype == np.int8
    assert len(sol.basis.cols) == sparse.num_vars
    assert len(sol.basis.rows) == len(sparse.rows)
    assert (sol.basis.cols == srte.lp.BASIC).sum() + (
        sol.basis.rows == srte.lp.BASIC
    ).sum() == len(sparse.rows)
    assert solve_lp(sparse).basis is None
    again = srte.lp.linprog(sparse, start_basis=sol.basis)
    assert again.nit == 0 and again.objective_value == pytest.approx(0.6)


def test_private_highs_bindings_exist():
    """Every name srte.lp uses from scipy's private HiGHS bindings. A scipy
    release that drops or renames one fails here, by name; only scipy 1.17.1
    is tested."""
    from scipy.optimize._highspy import _core

    for name in (
        "passModel", "passOptions", "setBasis", "getBasis", "run",
        "getModelStatus", "getInfo", "getSolution", "modelStatusToString",
    ):
        assert callable(getattr(_core._Highs, name, None)), name
    for name in (
        "HighsBasis", "HighsBasisStatus", "HighsOptions", "HighsStatus",
        "HighsModelStatus", "HighsDebugLevel", "MatrixFormat", "ObjSense",
        "kHighsInf",
    ):
        assert hasattr(_core, name), name
    for name in ("col_status", "row_status", "alien", "valid"):
        assert hasattr(_core.HighsBasis(), name), name
    for name in ("kLower", "kBasic", "kUpper", "kZero", "kNonbasic"):
        assert hasattr(_core.HighsBasisStatus, name), name
    strategy = _core.simplex_constants.SimplexStrategy
    assert hasattr(strategy, "kSimplexStrategyDual")
    assert hasattr(strategy, "kSimplexStrategyPrimal")
