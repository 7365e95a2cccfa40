"""Generic LP layer: statuses, exact fixtures, feasibility, and the dump."""

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
from srte.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    dump_lp,
    solve_lp,
)

from conftest import split_lp


def test_trivially_infeasible():
    """minimize 0 subject to x <= -1, x >= 0."""
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_row({x: 1.0}, LE, -1.0)
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(maximize=True)
    x = lp.add_var("x", objective=1.0)
    lp.add_row({x: 1.0}, GE, 1.0)
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_empty_program():
    sol = solve_lp(LinearProgram())
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
    lp = LinearProgram(maximize=True)
    x = lp.add_var("x", objective=2.0, upper=5.0)
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(10.0)
    assert sol[x] == pytest.approx(5.0)


def test_ge_and_eq_rows():
    lp = LinearProgram()
    x = lp.add_var("x", objective=1.0)
    y = lp.add_var("y", objective=1.0)
    lp.add_row({x: 1.0}, GE, 2.0)
    lp.add_row({x: 1.0, y: 1.0}, EQ, 5.0)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0)
    assert sol[x] >= 2.0 - 1e-9


def test_add_row_validation():
    lp = LinearProgram()
    lp.add_var("x")
    with pytest.raises(ValueError):
        lp.add_row({0: 1.0}, "<", 0.0)
    with pytest.raises(ValueError):
        lp.add_row({1: 1.0}, LE, 0.0)
    with pytest.raises(ValueError):
        lp.add_row({0: 1.0}, LE, float("inf"))


def test_dump_format():
    lp, theta, f1, f2 = split_lp()
    text = dump_lp(lp)
    lines = text.splitlines()
    assert lines[0].startswith("minimize:")
    assert "theta" in lines[0]
    assert "subject to:" in lines
    assert "bounds:" in lines
    assert any("<=" in ln or "=" in ln for ln in lines[2:])
    assert text.endswith("\n")


def test_solution_indexing():
    lp = LinearProgram()
    x = lp.add_var("x", objective=1.0, lower=2.5)
    sol = solve_lp(lp)
    assert sol[x] == pytest.approx(2.5)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_solver_soundness_on_random_feasible_programs(data):
    """Minimization never exceeds the value of a known feasible point, and
    the returned point satisfies every row (the solver's own feasibility
    re-check runs internally on each solve)."""
    rng_vals = st.integers(-4, 4)
    n = data.draw(st.integers(1, 4))
    lp = LinearProgram()
    for j in range(n):
        lp.add_var(f"x{j}", objective=data.draw(rng_vals), upper=10.0)
    witness = [data.draw(st.integers(0, 5)) for _ in range(n)]
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = {j: float(data.draw(rng_vals)) for j in range(n)}
        activity = sum(coeffs[j] * witness[j] for j in range(n))
        slack = data.draw(st.integers(0, 3))
        lp.add_row(coeffs, LE, activity + slack)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    witness_value = sum(lp.objective[j] * witness[j] for j in range(n))
    assert sol.objective_value <= witness_value + 1e-7


def three_row_program():
    lp = LinearProgram()
    x = lp.add_var("x", objective=1.0)
    y = lp.add_var("y", objective=1.0, upper=4.0)
    lp.add_row({x: 100.0, y: 1.0}, LE, 203.0)
    lp.add_row({x: 1.0}, GE, 2.0)
    lp.add_row({x: 1.0, y: 1.0}, EQ, 5.0)
    return lp


def test_sparse_form_of_rows():
    """>= rows become negated <= rows; = rows form their own block."""
    sparse = three_row_program().to_sparse()
    assert sparse.num_vars == 2
    assert sparse.a_ub.toarray().tolist() == [[100.0, 1.0], [-1.0, 0.0]]
    assert sparse.b_ub.tolist() == [203.0, -2.0]
    assert sparse.a_eq.toarray().tolist() == [[1.0, 1.0]]
    assert sparse.b_eq.tolist() == [5.0]
    assert sparse.upper.tolist() == [np.inf, 4.0]
    assert list(sparse.rows) == [
        ({0: 100.0, 1: 1.0}, LE, 203.0),
        ({0: -1.0}, LE, -2.0),
        ({0: 1.0, 1: 1.0}, EQ, 5.0),
    ]
    text = dump_lp(sparse)
    assert "  -1 x <= -2" in text
    assert "  0 <= x <= +inf" in text and "  0 <= y <= 4" in text


def test_row_and_sparse_programs_solve_alike():
    lp = three_row_program()
    a, b = solve_lp(lp), solve_lp(lp.to_sparse())
    assert a == b
    assert a.objective_value == pytest.approx(5.0)


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
        res = real(*args, **kwargs)
        res.x = np.array(point)
        return res

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
    and negative entries, from COO parts, dict rows and random fills."""
    rng = np.random.default_rng(0)
    matrices = [
        csr_matrix((3, 4)),
        csr_matrix(np.array([[0.0, -2.5], [0.0, 0.0], [1e-9, -1e9]])),
        three_row_program().to_sparse().a_ub,
    ]
    for _ in range(40):
        rows, cols = rng.integers(1, 12, size=2)
        nnz = int(rng.integers(0, rows * cols + 1))
        parts = [(
            rng.integers(0, rows, size=nnz), rng.integers(0, cols, size=nnz),
            rng.choice([0.0, -1.0, 3.5, -0.25, 1e-12], size=nnz),
        )]
        matrices.append(srte.te._csr(parts, (rows, cols)))
        lp = LinearProgram()
        for j in range(cols):
            lp.add_var(f"x{j}")
        for r in range(rows):
            lp.add_row(
                {j: float(rng.normal()) for j in range(cols) if rng.random() < 0.3},
                LE if r % 3 else GE, 0.0,
            )
        matrices.append(lp.to_sparse().a_ub)
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

    maximize = LinearProgram(maximize=True)
    x = maximize.add_var("x", objective=2.0)
    y = maximize.add_var("y", objective=1.0)
    maximize.add_row({x: 1.0, y: 1.0}, LE, 4.0)
    maximize.add_row({x: 1.0, y: -1.0}, LE, 1.0)
    no_rows = LinearProgram()
    no_rows.add_var("x", objective=1.0, lower=1.5, upper=3.0)
    no_rows.add_var("y", objective=-1.0, upper=2.0)
    infeasible = LinearProgram()
    x = infeasible.add_var("x")
    infeasible.add_row({x: 1.0}, LE, -1.0)
    unbounded = LinearProgram(maximize=True)
    x = unbounded.add_var("x", objective=1.0)
    unbounded.add_row({x: 1.0}, GE, 1.0)
    programs += [maximize, no_rows, infeasible, unbounded, three_row_program()]
    return programs


def test_direct_highs_call_equals_scipy_linprog(monkeypatch):
    """srte.lp.linprog passes each program straight to HiGHS and returns what
    scipy's linprog(method="highs") returns for the same arguments: the same
    status, iteration count, objective and bit for bit the same point."""
    calls = []
    real = srte.lp.linprog

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(srte.lp, "linprog", recorded)
    programs = _direct_call_corpus()
    for lp in programs:
        solve_lp(lp)
    # One LP per program, each solved cold without reading its basis back:
    # then scipy's linprog takes exactly the remaining arguments.
    assert len(calls) == len(programs)
    for _, kwargs in calls:
        assert kwargs.pop("start_basis") is None
        assert kwargs.pop("return_basis") is False
    statuses = set()
    for args, kwargs in calls:
        ours = real(*args, **kwargs)
        theirs = scipy.optimize.linprog(*args, **kwargs, method="highs")
        assert ours.status == theirs.status
        assert ours.nit == theirs.nit
        assert ours.fun == theirs.fun
        assert np.array_equal(ours.x, theirs.x)
        statuses.add(ours.status)
    assert statuses == {0, 2, 3}


@pytest.mark.parametrize("field, value", [
    ("c", np.array([np.nan, 1.0])),
    ("A_ub", csr_matrix([[1.0, np.inf]])),
    ("b_eq", np.array([np.inf])),
])
def test_direct_highs_call_rejects_nonfinite_input(field, value):
    """A NaN or inf objective, matrix entry or right-hand side raises
    linprog's ValueError before HiGHS is called."""
    kwargs = {
        "c": np.array([1.0, 1.0]),
        "A_ub": csr_matrix([[1.0, 1.0]]), "b_ub": np.array([4.0]),
        "A_eq": csr_matrix([[1.0, -1.0]]), "b_eq": np.array([0.0]),
        "bounds": np.array([[0.0, np.inf], [0.0, np.inf]]),
        field: value,
    }
    message = f"{field} must not contain values inf, nan, or None"
    with pytest.raises(ValueError, match=message):
        srte.lp.linprog(**kwargs)
    with pytest.raises(ValueError, match=message):
        scipy.optimize.linprog(**kwargs, method="highs")


def test_warm_start_gives_the_cold_status_and_theta(monkeypatch):
    """From a start basis, linprog returns the status of the cold solve, and
    an objective within a hundredth of the tie tolerance the greedy ranks
    warm solves by (1e-12 relative). The starts: every program's slack basis
    (all columns nonbasic at 0, all rows basic), and for each LU pool slice
    the extension of the empty set's optimal basis, as the greedy builds it;
    those take fewer iterations in all than the cold solves."""
    calls = []
    real = srte.lp.linprog

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(srte.lp, "linprog", recorded)
    for lp in _direct_call_corpus():
        solve_lp(lp)
    monkeypatch.undo()

    def assert_same(warm, cold):
        assert warm.status == cold.status
        if cold.status == 0:
            tie = 1e-12 * max(1.0, abs(cold.fun))
            assert abs(warm.fun - cold.fun) <= tie / 100

    statuses = set()
    for args, kwargs in calls:
        kwargs = {**kwargs, "start_basis": None, "return_basis": False}
        cold = real(*args, **kwargs)
        rows = len(kwargs["b_ub"]) + len(kwargs["b_eq"])
        slack = srte.lp.Basis(
            np.full(len(args[0]), srte.lp.LOWER, dtype=np.int8),
            np.full(rows, srte.lp.BASIC, dtype=np.int8),
        )
        assert_same(real(*args, **{**kwargs, "start_basis": slack}), cold)
        statuses.add(cold.status)
    assert statuses == {0, 2, 3}

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
    lp = program.lp
    return srte.lp.linprog(
        lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq,
        np.column_stack((lp.lower, lp.upper)), start_basis,
    ).nit


def test_start_basis_of_the_wrong_size_is_rejected():
    lp, *_ = split_lp()
    sparse = lp.to_sparse()
    wrong = srte.lp.Basis(
        np.full(2, srte.lp.LOWER, dtype=np.int8),
        np.full(3, srte.lp.BASIC, dtype=np.int8),
    )
    with pytest.raises(ValueError, match="rejected the start basis"):
        solve_lp(sparse, wrong)


def test_returned_basis_restarts_in_no_iterations():
    """The optimal basis a solve returns is a complete basis of the program:
    a solve started from it needs no simplex iteration."""
    lp, theta, *_ = split_lp()
    sparse = lp.to_sparse()
    sol = solve_lp(sparse, return_basis=True)
    assert sol.basis.cols.dtype == sol.basis.rows.dtype == np.int8
    assert len(sol.basis.cols) == sparse.num_vars
    assert len(sol.basis.rows) == len(sparse.rows)
    assert (sol.basis.cols == srte.lp.BASIC).sum() + (
        sol.basis.rows == srte.lp.BASIC
    ).sum() == len(sparse.rows)
    assert solve_lp(sparse).basis is None
    args = (
        sparse.objective, sparse.a_ub, sparse.b_ub, sparse.a_eq, sparse.b_eq,
        np.column_stack((sparse.lower, sparse.upper)),
    )
    again = srte.lp.linprog(*args, start_basis=sol.basis)
    assert again.nit == 0 and again.fun == pytest.approx(0.6)


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
