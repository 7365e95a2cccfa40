"""Benchmark of the srte CLI at the criterion-8 tier (n=30, m=120, 100 demands).

    python3 bench/run.py --workload gsp-sweep --seed 1 --seconds 45 --trace 0

Writes the workload's instances from --seed under ``.bench_work/``, times
``import srte.cli`` in several fresh processes (setup_s), then runs the
workload in one more fresh process (see worker.py) and checks every answer.
Both timings are scaled to a reference host speed by a fixed probe that runs
no srte code (worker.host_probe), because the shared host's speed drifts by
tens of percent within minutes; the raw timings are in the metadata line.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced pass with --trace 1. The line before it holds
the run's metadata (host, library versions, source revision).

    python3 bench/run.py --record-reference 0-19 --seconds 30

records every workload's answers for those seeds in bench/reference.json;
later runs on those seeds compare against them. The committed file was
recorded this way at the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 5
# The whole run must end within 180 s; the worker gets what is left of this.
RUN_DEADLINE_S = 170.0



class BenchError(Exception):
    pass


def _subprocess(argv: list[str], deadline: float) -> str:
    """Run argv to completion before the deadline; return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[1:3]))
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:3])} timed out") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(argv[1:3])} exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return out


def _setup_seconds(deadline: float) -> tuple[float, float]:
    """Median import time of srte.cli over fresh processes: scaled, raw.

    Each process also runs the host probe after the import; the scaled time
    is the import time at the probe's reference speed, as for the workload.
    """
    import srte.cli  # noqa: F401  fills the bytecode cache of a fresh checkout
    from worker import PROBE_REFERENCE_S

    probe = [sys.executable, str(BENCH / "worker.py"), "probe"]
    samples = [json.loads(_subprocess(probe, deadline)) for _ in range(SETUP_PROBES)]
    return (
        statistics.median(
            s["import_s"] * PROBE_REFERENCE_S / s["probe_s"] for s in samples
        ),
        statistics.median(s["import_s"] for s in samples),
    )


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "srte").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _metadata(load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, reference: Path | None,
    deadline: float, time_setup: bool,
) -> dict:
    from workloads import WORKLOADS, instance_count, instance_seeds

    # A traced run makes an untraced and a traced pass over a fixed set, so
    # its counts repeat exactly; half the nominal count keeps it about as long
    # as an untraced run, which may get further than the nominal count.
    count = instance_count(WORKLOADS[name], seconds)
    seeds = instance_seeds(seed, max(1, count // 2) if trace else 2 * count)
    return run_instances(
        name, seeds, seconds, trace, reference, deadline,
        WORK / f"{name}-s{seed}-t{int(trace)}", time_setup,
    )


def run_instances(
    name: str, seeds: list[tuple[int, int]], seconds: float, trace: bool,
    reference: Path | None, deadline: float, workdir: Path,
    time_setup: bool = False,
) -> dict:
    """Write the instances into workdir, then time set-up and the workload."""
    from workloads import write_instances

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instances = write_instances(workdir, seeds)
    manifest = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "reference": None if reference is None else str(reference),
        "instances": instances,
        "result": str(workdir / "result.json"),
        "spans": str(workdir / "spans.jsonl"),
    }
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    setup_s, raw_setup_s = _setup_seconds(deadline) if time_setup else (None, None)
    _subprocess(
        [sys.executable, str(BENCH / "worker.py"), "run", str(manifest_path)],
        deadline,
    )
    result = json.loads((workdir / "result.json").read_text())
    result["setup_s"] = setup_s
    result["raw_setup_s"] = raw_setup_s
    return result


def _report(result: dict, trace: bool) -> dict:
    """The result line, with the metrics and units BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    attempted = result["attempted"]
    failed = len(result["failures"])
    if trace:
        kind, values = "per_layer", result["layers"]
    else:
        kind, values = "end_to_end", {
            "subproblem_ms_scaled": result["subproblem_ms_scaled"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "verified_ratio": (attempted - failed) / attempted,
        }
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if units.keys() != values.keys():
        raise BenchError(f"measured {sorted(values)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def _parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def record_reference(seeds: list[int], seconds: float) -> int:
    from workloads import WORKLOADS, load_reference

    reference = load_reference(REFERENCE)
    for seed in seeds:
        for name in WORKLOADS:
            deadline = time.monotonic() + 3600.0
            result = run_workload(
                name, seed, seconds, False, None, deadline, time_setup=False,
            )
            if result["failures"]:
                print("\n".join(result["failures"]), file=sys.stderr)
                return 1
            for key, answers in result["answers"].items():
                reference.setdefault(key, {}).update(answers)
            print(f"seed {seed} {name}: {len(result['answers'])} instances",
                  file=sys.stderr)
        REFERENCE.write_text("{\n" + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
            for key in sorted(reference)
        ) + "\n}\n")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path, default=REFERENCE,
        help="recorded answers to compare against (default: bench/reference.json)",
    )
    parser.add_argument(
        "--record-reference", metavar="SEEDS",
        help="record answers for seeds such as 0-15 or 1,2,3 and exit",
    )
    args = parser.parse_args(argv)
    start = time.monotonic()
    load_at_start = os.getloadavg()

    if not (SRC / "srte" / "__init__.py").is_file():
        print(f"error: no srte sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.record_reference:
            return record_reference(_parse_seeds(args.record_reference), args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.reference, start + RUN_DEADLINE_S, time_setup=not args.trace,
        )
        report = _report(result, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    meta = _metadata(load_at_start)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, instances=len(result["unit_s"]),
                units_run=result["units_run"], unit_s=result["unit_s"],
                subproblems=result["subproblems"],
                raw_setup_s=result["raw_setup_s"],
                raw_subproblem_ms=result["subproblem_ms"],
                probe_ms=result["probe_ms"])
    print(json.dumps({"meta": meta}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
