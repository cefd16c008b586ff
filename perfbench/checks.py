"""Output checks applied to every benchmark child.

Each check returns a list of problems; an empty list means the run is
correct. The frozen values in expected.json were taken from the program at
the commit that introduced the benchmark. Floats are compared with the
tolerances the repository's own tests apply: absolute 1e-10 on the gap-route
sines (theta_n is compared through its sine) and relative 1e-9 on norms.
The oblique-projector route evaluates sqrt(1 - 1/||I - Q_n||^2), whose
roundoff floor is about sqrt(eps) ~ 1e-8, so it is held, as in the tests and
the eq37 suite, to agree with the gap route within 1e-6. best-lpa's rows
depend on the seed, so its floats are held to the family's closed forms:
sin theta_n <= 1e-8 (qn route <= 1e-6), ||T_n^+ T|| = 1 and bound factor 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

CSV_HEADER = ("n,m,theta_n,sin_theta_gap,sin_theta_qn,norm_tn_dag_t,"
              "kernel_core_dim,kernel_dim,kernel_gap,bound_factor")
INT_FIELDS = ("n", "m", "kernel_core_dim", "kernel_dim")
SINE_FIELDS = ("sin_theta_gap", "kernel_gap")
NORM_FIELDS = ("norm_tn_dag_t", "bound_factor")
SINE_ABS = 1e-10
NORM_REL = 1e-9
ROUTE_AGREEMENT = 1e-6
CLOSED_FORM_ABS = 1e-8

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def expected(workload: str) -> dict:
    """The frozen seed-commit values for one workload."""
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[workload]


def check_scan(workload: str, code: int, stdout: str, out_dir: str) -> list[str]:
    """Exit code, CSV header, CSV against JSON, frozen values, verdicts."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        with open(os.path.join(out_dir, "rows.csv"), newline="") as fh:
            csv_text = fh.read()
        with open(os.path.join(out_dir, "rows.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if not isinstance(report, dict):
        return ["JSON output is not an object"]
    if csv_text.split("\n", 1)[0] != CSV_HEADER:
        return ["CSV header differs"]
    try:
        rows = [{k: (int(v) if k in INT_FIELDS else float(v)) for k, v in r.items()}
                for r in csv.DictReader(io.StringIO(csv_text), strict=True)]
    except (ValueError, TypeError, csv.Error) as exc:
        return [f"malformed CSV: {exc}"]
    problems = []
    if csv_text not in stdout:
        problems.append("CSV on stdout differs from the CSV file")
    if rows != report.get("rows"):
        problems.append("JSON rows differ from CSV rows")
    frozen = expected(workload)
    if report.get("verdicts") != frozen["verdicts"]:
        problems.append(f"verdicts {report.get('verdicts')} != {frozen['verdicts']}")
    if len(rows) != len(frozen["rows"]):
        return problems + [f"{len(rows)} rows, expected {len(frozen['rows'])}"]
    closed_form = workload.startswith("bestlpa")
    for got, want in zip(rows, frozen["rows"]):
        where = f"n={got['n']}"
        for f in INT_FIELDS:
            if got[f] != want[f]:
                problems.append(f"{where}: {f} = {got[f]}, expected {want[f]}")
        if closed_form:
            problems += _closed_form_problems(got, where)
            continue
        if abs(math.sin(got["theta_n"]) - want["sin_theta_gap"]) > SINE_ABS:
            problems.append(f"{where}: theta_n = {got['theta_n']!r} off")
        if not abs(got["sin_theta_qn"] - got["sin_theta_gap"]) <= ROUTE_AGREEMENT:
            problems.append(f"{where}: routes disagree, sin_theta_qn = {got['sin_theta_qn']!r}")
        for f in SINE_FIELDS:
            if abs(got[f] - want[f]) > SINE_ABS:
                problems.append(f"{where}: {f} = {got[f]!r}, expected {want[f]!r}")
        for f in NORM_FIELDS:
            if not math.isclose(got[f], want[f], rel_tol=NORM_REL, abs_tol=0.0):
                problems.append(f"{where}: {f} = {got[f]!r}, expected {want[f]!r}")
    return problems


def _closed_form_problems(row: dict, where: str) -> list[str]:
    problems = []
    for f, tol in (("sin_theta_gap", CLOSED_FORM_ABS), ("sin_theta_qn", ROUTE_AGREEMENT)):
        if not abs(row[f]) <= tol:
            problems.append(f"{where}: {f} = {row[f]!r}, expected 0")
    for f in NORM_FIELDS:
        if not abs(row[f] - 1.0) <= CLOSED_FORM_ABS:
            problems.append(f"{where}: {f} = {row[f]!r}, expected 1")
    return problems


def check_verify_all(code: int, stdout: str) -> list[str]:
    """Every check of every suite passes, and none is missing."""
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = sum(line.startswith("FAIL ") for line in lines)
    want = expected("verify-all")["checks"]
    problems = [] if code == 0 else [f"exit code {code}"]
    if passed != want or failed:
        problems.append(f"{passed} PASS and {failed} FAIL lines, expected {want} PASS")
    return problems
