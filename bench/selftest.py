"""Self-tests of the benchmark itself (not collected by pytest; about 3 min).

    python3 bench/selftest.py

1. A reference answer perturbed by 1e-6 makes its command count as failed.
2. On every workload, a traced pass prints the same bytes as an untraced
   pass, and the tracer sees each workload's layers. Each workload's layer
   shares of the traced wall time are printed.
3. The traced all-nodes m=2 solve on the criterion-8 instance (topology seed
   1000, demand seed 2000, where the roadmap reports θ=3.695521) reproduces
   the build and HiGHS times of the roadmap's baseline table, within the
   bound the benchmark sets on subproblem_ms_scaled.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from run import BENCH, ROOT, SRC, WORK, run_instances
from workloads import WORKLOADS, instance_key, instance_seeds, load_reference

SELFTEST = WORK / "selftest"
PERTURBATION = 1e-6
# Roadmap baseline row "TE_LU all-nodes, m=2: build / solve 3.95 s / 2.81 s".
BASELINE_BUILD_S, BASELINE_HIGHS_S = 3.95, 2.81
BASELINE_SEEDS = (1000, 2000)
BASELINE_THETA = 3.695521
BASELINE_REPEATS = 3


def _bench(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {out.returncode}: "
                             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_perturbed_reference() -> list[str]:
    seed, workload = 1, "greedy-select"
    key = instance_key(*instance_seeds(seed, 1)[0])
    reference = load_reference(BENCH / "reference.json")
    if key not in reference:
        return [f"reference.json lacks {key}; record seed {seed} first"]
    common = ("--workload", workload, "--seed", str(seed), "--seconds", "1")
    problems = []
    clean = _bench(*common)
    if not (clean["correct"] and clean["failed"] == 0):
        problems.append(f"unperturbed run failed: {clean}")
    label = WORKLOADS[workload].commands[0].label
    reference[key][label]["value"] *= 1 + PERTURBATION
    SELFTEST.mkdir(parents=True, exist_ok=True)
    perturbed_path = SELFTEST / "perturbed-reference.json"
    perturbed_path.write_text(json.dumps(reference))
    perturbed = _bench(*common, "--reference", str(perturbed_path))
    if perturbed["correct"] or perturbed["failed"] != 1:
        problems.append(f"perturbed θ was not a failed command: {perturbed}")
    return problems


def _shares(metrics: dict) -> str:
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.wall_s"]
    te = sum(value[n] for n in ("te.enumerate_s", "te.build_s", "te.decode_s"))
    lp = value["lp.solve_s"] + value["lp.highs_s"]
    centrality = value["centrality.self_s"] + value["paths.order_s"]
    return (f"centrality+paths.order {centrality / wall:.0%}, "
            f"te+lp {(te + lp) / wall:.0%} of traced wall {wall:.2f} s")


def test_trace_identity() -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        report = _bench("--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", "1")
        commands = len(workload.commands)
        if report["failed"] or report["attempted"] != 2 * commands:
            problems.append(f"{name}: traced stdout differs or fails: "
                            f"attempted {report['attempted']}, "
                            f"failed {report['failed']}")
        if report["metrics"]["lp.solves"]["value"] < commands:
            problems.append(f"{name}: the tracer saw no LP solves")
        print(f"  {name}: {_shares(report['metrics'])}")
    return problems


def _m2_times(spans_path: Path) -> tuple[list[float], list[float]]:
    """te.build_s and lp.highs_s of each TE_LU solve, from the written spans."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)

    def subtree(span):
        yield span
        for child in children[span["id"]]:
            yield from subtree(child)

    builds, highs = [], []
    for span in spans:
        if span["name"] != "selection.solve_with_middlepoints":
            continue
        below = list(subtree(span))
        build = [s for s in below if s["name"] == "te.build_te_lu"]
        if build:  # self time, as te.build_s counts it
            builds.append(sum(s["end"] - s["start"] - s["child_s"] for s in build))
            highs.append(sum(
                s["end"] - s["start"] for s in below if s["name"] == "lp.linprog"
            ))
    return builds, highs


def test_baseline_row() -> list[str]:
    bound = next(
        m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if m["name"] == "subproblem_ms_scaled"
    )
    workdir = SELFTEST / "baseline"
    result = run_instances(
        "all-nodes-m2", [BASELINE_SEEDS] * BASELINE_REPEATS, 1.0, True,
        None, time.monotonic() + 600.0, workdir,
    )
    problems = list(result["failures"])
    theta = result["answers"][instance_key(*BASELINE_SEEDS)]["solve-all-nodes-m2"]
    if round(theta["value"], 6) != BASELINE_THETA:
        problems.append(f"θ {theta['value']} is not the roadmap's {BASELINE_THETA}")
    builds, highs = _m2_times(workdir / "spans.jsonl")
    for what, samples, baseline in (
        ("te.build_s", builds, BASELINE_BUILD_S),
        ("lp.highs_s", highs, BASELINE_HIGHS_S),
    ):
        median = statistics.median(samples)
        print(f"  {what}: median {median:.2f} s over "
              f"{[round(s, 2) for s in samples]}, roadmap {baseline} s")
        if abs(median - baseline) > bound * baseline:
            problems.append(
                f"{what} median {median:.2f} s is not within {bound:.0%} "
                f"of the roadmap's {baseline} s"
            )
    return problems


def main() -> int:
    if not (SRC / "srte" / "__init__.py").is_file():
        print(f"no srte sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    failed = False
    for test in (test_perturbed_reference, test_trace_identity, test_baseline_row):
        print(f"{test.__name__}:")
        problems = test()
        for problem in problems:
            print(f"  FAIL {problem}")
        print(f"  {'FAIL' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
