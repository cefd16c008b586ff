"""Tests of the benchmark itself: output checks, trace determinism, and
refusal to run without the program.

    python3 -m pytest perfbench -q

The determinism test runs every scan workload traced twice, about a minute
on one core.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans


def _write_scan_outputs(out_dir, rows, verdicts, header=checks.CSV_HEADER) -> str:
    fields = checks.CSV_HEADER.split(",")
    lines = [header] + [",".join(
        str(r[f]) if f in checks.INT_FIELDS else "%.17g" % r[f] for f in fields) for r in rows]
    text = "\n".join(lines) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.csv"), "w") as fh:
        fh.write(text)
    with open(os.path.join(out_dir, "rows.json"), "w") as fh:
        json.dump({"rows": rows, "verdicts": verdicts}, fh)
    return text


def _frozen_rows(workload: str) -> list[dict]:
    rows = []
    for want in checks.expected(workload)["rows"]:
        row = dict(want)
        row["theta_n"] = math.asin(want["sin_theta_gap"])
        rows.append(row)
    return rows


def test_scan_check_accepts_frozen_rows_and_rejects_each_kind_of_drift(tmp_path):
    workload = "seidman-fixed768"
    verdicts = checks.expected(workload)["verdicts"]
    good = _frozen_rows(workload)
    text = _write_scan_outputs(tmp_path / "ok", good, verdicts)
    assert checks.check_scan(workload, 0, text, str(tmp_path / "ok")) == []

    def drifted(**change):
        rows = [dict(r) for r in good]
        rows[1].update(change)
        return rows

    cases = {
        "int": (drifted(kernel_dim=1), verdicts, checks.CSV_HEADER),
        "sine": (drifted(sin_theta_gap=good[1]["sin_theta_gap"] + 1e-9), verdicts,
                 checks.CSV_HEADER),
        "norm": (drifted(norm_tn_dag_t=good[1]["norm_tn_dag_t"] * (1 + 1e-8)), verdicts,
                 checks.CSV_HEADER),
        "routes": (drifted(sin_theta_qn=good[1]["sin_theta_gap"] - 1e-5), verdicts,
                   checks.CSV_HEADER),
        "verdict": (good, {**verdicts, "bound_checks_passed": "2/3"}, checks.CSV_HEADER),
        "header": (good, verdicts, checks.CSV_HEADER.replace("theta_n", "theta")),
    }
    for name, (rows, v, header) in cases.items():
        out = tmp_path / name
        text = _write_scan_outputs(out, rows, v, header)
        assert checks.check_scan(workload, 0, text, str(out)), name
    assert checks.check_scan(workload, 3, "", str(tmp_path / "ok")) == ["exit code 3"]


def test_scan_check_compares_json_to_csv(tmp_path):
    workload = "du-factor48"
    verdicts = checks.expected(workload)["verdicts"]
    rows = _frozen_rows(workload)
    text = _write_scan_outputs(tmp_path, rows, verdicts)
    with open(tmp_path / "rows.json", "w") as fh:
        json.dump({"rows": rows[:-1], "verdicts": verdicts}, fh)
    assert "JSON rows differ from CSV rows" in checks.check_scan(workload, 0, text, str(tmp_path))


def test_best_lpa_closed_forms(tmp_path):
    workload = "bestlpa-wide512"
    verdicts = checks.expected(workload)["verdicts"]
    exact = [dict(r, theta_n=0.0, sin_theta_gap=1e-15, sin_theta_qn=6e-8,
                  norm_tn_dag_t=1.0, kernel_gap=1e-14, bound_factor=1.0)
             for r in checks.expected(workload)["rows"]]
    text = _write_scan_outputs(tmp_path / "ok", exact, verdicts)
    assert checks.check_scan(workload, 0, text, str(tmp_path / "ok")) == []
    off = [dict(r) for r in exact]
    off[0]["norm_tn_dag_t"] = 1.0 + 1e-7
    text = _write_scan_outputs(tmp_path / "off", off, verdicts)
    assert checks.check_scan(workload, 0, text, str(tmp_path / "off"))


def test_verify_all_check():
    want = checks.expected("verify-all")["checks"]
    ok = "".join(f"PASS s.c{i}: fine\n" for i in range(want))
    assert checks.check_verify_all(0, ok) == []
    assert checks.check_verify_all(0, ok.replace("PASS", "FAIL", 1))
    assert checks.check_verify_all(0, ok.split("\n", 1)[1])
    assert checks.check_verify_all(1, ok)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    bench = run.Bench(workload, 5, str(tmp_path))
    traces = []
    for k in range(2):
        path = str(tmp_path / f"spans{k}.json")
        bench.measured(path)
        with open(path) as fh:
            traces.append(json.load(fh))
    assert [problems for _, problems in bench.runs] == [[], []]
    first, second = traces
    assert first["counts"] == second["counts"]
    assert [(s[0], s[3], s[4]) for s in first["spans"]] == \
        [(s[0], s[3], s[4]) for s in second["spans"]]
    layer = spans.summarize(first["spans"])
    counts = {k: v for k, v in layer.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in spans.summarize(second["spans"]).items()
                      if not k.endswith("_s")}
    # peak RSS is per child: a fresh import-only child reads far below a scan
    if workload != "verify-all":
        setup = bench.setup()
        assert setup.code == 0
        assert setup.peak_rss_mb < 0.6 * bench.runs[-1][0].peak_rss_mb


def test_lapack_shim_sees_norm_internal_svd(tmp_path):
    """np.linalg.norm(ord=2) reaches LAPACK through numpy's internal svd."""
    script = (
        "import sys, json\n"
        f"sys.path[:0] = [{run.HERE!r}, {os.path.join(run.ROOT, 'src')!r}]\n"
        "import spans, numpy as np\n"
        "t = spans.Tracer(); t.install()\n"
        "np.linalg.norm(np.eye(3), 2); np.linalg.svd(np.eye(2), compute_uv=False)\n"
        "print(json.dumps(t.spans))\n")
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env=run.CHILD_ENV, cwd=str(tmp_path)).stdout
    svds = [s for s in json.loads(out) if s[0] == "lapack.svd"]
    assert [s[4]["shape"] for s in svds] == [[3, 3], [2, 2]]
    assert not any(s[4]["compute_uv"] for s in svds)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(k, unit, better) for k, (unit, better) in spans.LAYER_METRICS.items()]
