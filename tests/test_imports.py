"""What importing srte and running its LU commands load, each in a fresh
interpreter: srte loads scipy's HiGHS extension by itself, and only MP's
Dijkstra and the oracles load scipy.optimize or scipy.sparse."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
NET10 = ["--topology", str(DATA / "net10.topo"), "--demands", str(DATA / "net10.dem")]


def python(code: str):
    """Run ``code`` in a fresh interpreter that imports srte from this
    checkout; the JSON document its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
        text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# Runs srte.cli.main on each argv after ``import srte.cli`` and prints, for
# the import and for each run: its exit code, its stdout and the modules of
# ``heavy`` then in sys.modules.
SCIPY = ("scipy.optimize", "scipy.sparse")
RUNS = """
    import contextlib, io, json, sys
    heavy = {heavy!r}
    loaded = lambda: [name for name in heavy if name in sys.modules]
    import srte.cli
    record = [(0, "", loaded())]
    for argv in {runs!r}:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = srte.cli.main(argv)
        record.append((code, out.getvalue(), loaded()))
    print(json.dumps(record))
"""


def test_import_and_lu_runs_load_neither_scipy_optimize_nor_scipy_sparse():
    """``import srte.cli``, then solve (gsp and greedy), a GSP sweep and a
    centrality table on net10, one after the other, leave scipy.optimize and
    scipy.sparse unloaded; every run succeeds."""
    runs = [
        ["solve", *NET10, "--method", "gsp", "--k", "4", "--m", "1"],
        ["solve", *NET10, "--method", "greedy", "--k", "3", "--m", "2"],
        ["sweep", *NET10, "--method", "gsp", "--sweep-k", "1:6", "--m", "1"],
        ["centrality", "--topology", NET10[1]],
    ]
    record = python(RUNS.format(runs=runs, heavy=SCIPY))
    assert [(code, loaded) for code, _, loaded in record] == [(0, [])] * 5
    assert record[1][1] == (GOLDEN / "solve_gsp.json").read_text()
    assert record[2][1] == (GOLDEN / "solve_greedy_k3_m2.json").read_text()


def test_tunnel_runs_never_load_numpy_ma():
    """solve (gsp, greedy and MF), a GSP sweep and a GSP centrality table on
    net10 leave numpy.ma unloaded: a plain ``np.unique`` call imports it,
    about 10 ms once per process."""
    runs = [
        ["solve", *NET10, "--method", "gsp", "--k", "4", "--m", "1"],
        ["solve", *NET10, "--method", "greedy", "--k", "3", "--m", "2"],
        ["sweep", *NET10, "--method", "gsp", "--sweep-k", "1:6", "--m", "1"],
        ["centrality", "--topology", NET10[1], "--method", "gsp"],
        ["solve", *NET10, "--method", "gsp", "--k", "3", "--objective", "mf"],
    ]
    record = python(RUNS.format(runs=runs, heavy=("numpy.ma",)))
    assert [(code, loaded) for code, _, loaded in record] == [(0, [])] * 6


def test_mp_baseline_and_oracle_load_scipy_themselves():
    """The MP baseline (its certificate's Dijkstra) and the oracle suites
    (their MILPs) load what they use of SciPy after srte loaded the HiGHS
    extension, and print what they print in-process."""
    runs = [
        ["solve", *NET10, "--method", "mp-baseline", "--objective", "lu"],
        ["oracle", "maxflow-mincut", "--nodes", "6", "--trials", "3"],
    ]
    record = python(RUNS.format(runs=runs, heavy=SCIPY))
    assert record[0] == [0, "", []]
    assert record[1] == [
        0, (GOLDEN / "solve_mp_lu.json").read_text(), ["scipy.sparse"],
    ]
    assert record[2] == [
        0, "maxflow-mincut,3,0,pass\n", ["scipy.optimize", "scipy.sparse"],
    ]


# One small LP, max x + 2y subject to x + y <= 4, x - y <= 1 and y <= 3,
# whose one optimum is (1, 3), solved by srte.lp.linprog, by scipy's linprog
# and by scipy's milp, with scipy.optimize imported before or after srte.lp.
ORDER = """
    import json
    import numpy as np
    {first}
    {second}
    from scipy.optimize._highspy import _core
    from srte.lp import CsrMatrix, SparseLp, highs, linprog

    c = np.array([-1.0, -2.0])
    a = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
    b = np.array([4.0, 1.0, 3.0])
    a_ub = CsrMatrix(
        np.array([0, 2, 4, 5], dtype=np.int32),
        np.array([0, 1, 0, 1, 1], dtype=np.int32), a[a != 0], (3, 2),
    )
    no_rows = CsrMatrix(
        np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
        (0, 2),
    )
    ours = linprog(SparseLp(
        False, c, np.zeros(2), np.full(2, np.inf), a_ub, b, no_rows, np.zeros(0),
    ))
    theirs = scipy.optimize.linprog(c, A_ub=a, b_ub=b, method="highs")
    mixed = scipy.optimize.milp(
        c, constraints=scipy.optimize.LinearConstraint(a, -np.inf, b)
    )
    print(json.dumps({{
        "same module": _core is highs,
        "objectives": [ours.objective_value, theirs.fun, mixed.fun],
        "points": [ours.x.tolist(), theirs.x.tolist(), mixed.x.tolist()],
    }}))
"""


@pytest.mark.parametrize("scipy_first", [True, False])
def test_highs_extension_is_one_module_in_either_import_order(scipy_first):
    """Whichever of scipy.optimize and srte.lp is imported first, both use
    the one HiGHS extension module, and srte's linprog, scipy's linprog and
    scipy's milp solve the same LP to the same optimum."""
    imports = ["import scipy.optimize", "import srte.lp"]
    first, second = imports if scipy_first else imports[::-1]
    got = python(ORDER.format(first=first, second=second))
    assert got == {
        "same module": True,
        "objectives": [-7.0] * 3,
        "points": [[1.0, 3.0]] * 3,
    }
