"""Correctness gate for the benchmark's srte commands.

Every command's captured stdout is reduced to its answers: the objective (θ or
the satisfaction ratio), the middlepoint picks and the subproblem count for a
JSON solve, and the per-K objectives for a CSV sweep. The answers are checked
against invariants that hold for any instance and, when the reference file
has the instance, against the answers the reference recorded.
"""

from __future__ import annotations

import json
import math

# θ and satisfaction ratios agree with the reference to this relative error.
REFERENCE_REL_TOL = 1e-9
# The decoded maximum edge utilization equals θ within this tolerance
# (relative above 1), the same slack srte's own decode check allows.
UTILIZATION_TOL = 1e-6
# The multipath bound may exceed a segment-routing θ by LP noise only.
MP_BOUND_TOL = 1e-7
# Sweep objectives are printed with 9 significant digits, so a tie between
# nested GSP prefixes can differ in the last printed digit.
SWEEP_MONOTONE_TOL = 1e-9
SWEEP_PRINT_REL = 1e-8


def extract_answers(stdout: str, fmt: str) -> dict:
    """Answers of one command; raises ValueError on unparsable output."""
    if fmt == "csv":
        lines = stdout.strip().splitlines()
        if not lines or lines[0] != "point,status,objective,solve_ms,subproblems":
            raise ValueError("sweep output lacks the CSV header")
        points, statuses, objective, subproblems = [], [], [], 0
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"bad sweep row {line!r}")
            points.append(fields[0])
            statuses.append(fields[1])
            objective.append(float(fields[2]) if fields[2] else None)
            subproblems += int(fields[4])
        return {
            "points": points, "status": statuses, "objective": objective,
            "subproblems": subproblems,
        }
    doc = json.loads(stdout)
    kind = doc["objective"]
    value = doc["theta"] if kind == "lu" else doc["satisfaction_ratio"]
    utilization = doc["edge_utilization"].values()
    return {
        "objective_kind": kind,
        "value": value,
        "middlepoints": doc["middlepoints"],
        "subproblems": doc["subproblems"],
        "max_utilization": max(utilization, default=0.0),
    }


def reference_view(answers: dict) -> dict:
    """The part of the answers the reference file records."""
    if "points" in answers:
        return {"objective": answers["objective"]}
    return {
        "value": answers["value"],
        "middlepoints": answers["middlepoints"],
        "subproblems": answers["subproblems"],
    }


def check_command(answers: dict) -> list[str]:
    """Invariants of one command's answers, for any instance."""
    problems = []
    if "points" in answers:
        if not answers["points"]:
            problems.append("sweep printed no points")
        if any(s != "optimal" for s in answers["status"]):
            problems.append(f"sweep statuses {answers['status']}")
            return problems
        values = answers["objective"]
        for k, (a, b) in enumerate(zip(values, values[1:]), start=1):
            slack = SWEEP_MONOTONE_TOL + SWEEP_PRINT_REL * abs(a)
            if b > a + slack:
                problems.append(f"sweep θ rises from K={k} ({a}) to K={k + 1} ({b})")
        return problems
    value, max_util = answers["value"], answers["max_utilization"]
    if not (isinstance(value, float) and math.isfinite(value) and value >= 0):
        return [f"objective {value!r} is not a finite non-negative number"]
    if answers["objective_kind"] == "lu":
        if abs(max_util - value) > UTILIZATION_TOL * max(1.0, value):
            problems.append(f"θ {value} != max edge utilization {max_util}")
    else:
        if value > 1.0 + REFERENCE_REL_TOL:
            problems.append(f"satisfaction ratio {value} exceeds 1")
        if max_util > 1.0 + UTILIZATION_TOL:
            problems.append(f"MF utilization {max_util} exceeds 1")
    return problems


def check_mp_bound(mp_answers: dict, sr_answers: list[dict]) -> list[str]:
    """The arc-flow multipath θ lower-bounds every segment-routing θ."""
    problems = []
    for sr in sr_answers:
        if mp_answers["value"] > sr["value"] + MP_BOUND_TOL:
            problems.append(
                f"MP θ {mp_answers['value']} exceeds SR θ {sr['value']}"
            )
    return problems


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REFERENCE_REL_TOL, abs_tol=0.0)


def check_reference(answers: dict, expected: dict) -> list[str]:
    """Compare with recorded answers: objectives to 1e-9, the rest exactly."""
    got = reference_view(answers)
    problems = []
    if "objective" in expected:
        a, b = got["objective"], expected["objective"]
        if len(a) != len(b) or not all(_close(x, y) for x, y in zip(a, b)):
            problems.append(f"sweep θ {a} != reference {b}")
        return problems
    if not _close(got["value"], expected["value"]):
        problems.append(f"objective {got['value']!r} != reference {expected['value']!r}")
    for key in ("middlepoints", "subproblems"):
        if got[key] != expected[key]:
            problems.append(f"{key} {got[key]} != reference {expected[key]}")
    return problems
