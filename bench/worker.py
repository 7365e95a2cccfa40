"""One benchmark run in a fresh Python process.

    python3 bench/worker.py probe            # time `import srte.cli` and the host probe
    python3 bench/worker.py run MANIFEST     # run a workload, write its result

``run`` imports srte from the checkout's ``src`` directory, then calls
``srte.cli.main([...])`` in this process, on this thread, for every command of
the workload on every instance listed in the manifest, with stdout and stderr
captured. It generates no input: the instance files were written beforehand.

Untraced, it runs the instances in order, from the first again when all are
done, until the run's seconds are up; the instance under way is finished.
Traced, it makes one untraced pass over the instances and then one pass under
the outside-in tracer, and requires the two passes to print the same bytes.
Each command's answers are checked (see checks.py) outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import (
    check_command,
    check_mp_bound,
    check_reference,
    extract_answers,
    reference_view,
)
from tracer import Tracer
from workloads import WORKLOADS, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import srte.cli

    elapsed = time.perf_counter() - start
    if not Path(srte.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"srte imported from {srte.cli.__file__}, not {SRC}")
    return srte.cli, elapsed


def probe() -> int:
    _, elapsed = _import_cli()
    print(json.dumps({"import_s": elapsed, "probe_s": host_probe()}))
    return 0


# The host probe's time on a quiet 2-CPU Xeon host; scaled times read as if
# the host ran at that speed.
PROBE_REFERENCE_S = 0.020
PROBE_REPEATS = 5


def _probe_once() -> float:
    import numpy  # not at module level: probe mode times a cold srte import

    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    values = numpy.arange(20_000.0)
    for _ in range(60):
        values = numpy.sort(values[::-1])
    return time.perf_counter() - start


def host_probe() -> float:
    """Seconds a fixed computation that runs no srte code takes right now.

    Interpreted arithmetic and NumPy sorts, the two kinds of work the
    workloads do; the median of a few repeats, so one preemption is ignored.
    A change to srte cannot move it, so dividing by it removes the host's
    drift from a timing without hiding any change to the program.
    """
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Runner:
    def __init__(self, cli, workload, instances, reference):
        self.cli = cli
        self.workload = workload
        self.instances = instances
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple[str, str], str] = {}
        self.answers: dict[str, dict] = {}

    def _call(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.top_level("cli.main", self.cli.main, argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a traceback is a failed command, not a crash
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def _fail(self, where: str, problems: list[str]) -> None:
        self.failures.append(f"{where}: {'; '.join(problems)}")

    def instance_unit(self, instance: dict, tracer=None) -> tuple[float, int, int]:
        """Run the command list on one instance.

        Returns the seconds it took, the bytes it printed and the number of TE
        subproblems its commands report having solved.
        """
        key = instance["key"]
        files = ["--topology", instance["topology"], "--demands", instance["demands"]]
        total, stdout_bytes = 0.0, 0
        results = {}
        for command in self.workload.commands:
            seconds, code, stdout, stderr = self._call(
                list(command.argv) + files, tracer
            )
            total += seconds
            stdout_bytes += len(stdout.encode())
            self.attempted += 1
            where = f"{key} {command.label}"
            if code != 0:
                self._fail(where, [f"exit {code!r}", stderr.strip()[-300:]])
                continue
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            first = self.digests.setdefault((key, command.label), digest)
            if digest != first:
                self._fail(where, ["stdout differs from the first pass"])
                continue
            try:
                answers = extract_answers(stdout, command.fmt)
            except (ValueError, KeyError, TypeError) as exc:
                self._fail(where, [f"unparsable output: {exc!r}"])
                continue
            problems = check_command(answers)
            expected = self.reference.get(key, {}).get(command.label)
            if expected is not None:
                problems += check_reference(answers, expected)
            if problems:
                self._fail(where, problems)
                continue
            results[command.label] = answers
            self.answers.setdefault(key, {})[command.label] = reference_view(answers)
        mp = results.get("solve-mp-baseline")
        if mp is not None:
            sr = [
                a for label, a in results.items()
                if label != "solve-mp-baseline" and a["objective_kind"] == "lu"
            ]
            problems = check_mp_bound(mp, sr)
            if problems:
                self._fail(f"{key} solve-mp-baseline", problems)
        subproblems = sum(a["subproblems"] for a in results.values())
        return total, stdout_bytes, subproblems

    def traced_pass(self, tracer) -> tuple[list[float], int]:
        units, stdout_bytes = [], 0
        for instance in self.instances:
            seconds, nbytes, _ = self.instance_unit(instance, tracer)
            units.append(seconds)
            stdout_bytes += nbytes
        return units, stdout_bytes


def run(manifest_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    cli, _ = _import_cli()
    workload = WORKLOADS[manifest["workload"]]
    runner = Runner(
        cli, workload, manifest["instances"],
        load_reference(manifest["reference"] and Path(manifest["reference"])),
    )
    seconds = manifest["seconds"]
    result: dict = {}

    times: dict[int, list[float]] = defaultdict(list)
    solved: dict[int, int] = {}
    count = len(runner.instances)
    loop_start = time.perf_counter()
    units_run, total_s, scaled_s, total_subproblems = 0, 0.0, 0.0, 0
    probes = [host_probe()]
    while True:
        index = units_run % count
        unit, _, solved[index] = runner.instance_unit(runner.instances[index])
        probes.append(host_probe())
        times[index].append(unit)
        total_s += unit
        scaled_s += unit * PROBE_REFERENCE_S / statistics.fmean(probes[-2:])
        total_subproblems += solved[index]
        units_run += 1
        if manifest["trace"]:
            if units_run == count:
                break
        elif time.perf_counter() - loop_start >= seconds:
            break
    # Greedy selection stops early on some instances, so instance times are
    # bimodal; time per solved subproblem is not. The shared host's speed
    # drifts by tens of percent over tens of seconds, which moves every
    # instance of a run alike; scaling each instance's time by the host probes
    # on either side of it takes that drift out (see host_probe).
    per_instance = [statistics.median(times[i]) for i in sorted(times)]
    result["units_run"] = units_run
    result["unit_s"] = per_instance
    result["subproblems"] = [solved[i] for i in sorted(times)]
    result["probe_ms"] = [1000.0 * p for p in probes]
    result["subproblem_ms"] = 1000.0 * total_s / max(total_subproblems, 1)
    result["subproblem_ms_scaled"] = 1000.0 * scaled_s / max(total_subproblems, 1)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if manifest["trace"]:
        tracer = Tracer()
        with tracer:
            traced_units, stdout_bytes = runner.traced_pass(tracer)
        tracer.write_spans(manifest["spans"])
        layers = tracer.layer_metrics(count)
        layers["cli.stdout_bytes"] = stdout_bytes / count
        layers["trace.wall_s"] = sum(traced_units) / count
        layers["trace.overhead_s"] = (sum(traced_units) - sum(per_instance)) / count
        result["layers"] = layers

    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    result["answers"] = runner.answers
    Path(manifest["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "probe":
        sys.exit(probe())
    if mode == "run" and len(sys.argv) == 3:
        sys.exit(run(sys.argv[2]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
