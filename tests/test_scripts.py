"""Smoke tests for the example scripts under scripts/, run as a user would."""

import json
import os
import subprocess
import sys
from pathlib import Path

from lpakit.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_summary_table_prints_the_three_verdicts():
    rows = {line.split()[0]: line.split()[1:]
            for line in run_script("summary_table.py").splitlines()[2:5]}
    assert rows == {
        "seidman": ["holds", "degrading", "4/4"],
        "du": ["violated", "bounded", "0/0"],
        "best-lpa": ["holds", "bounded", "4/4"],
    }


def test_divergence_profile_passes():
    assert "profile check passed" in run_script("divergence_profile.py").splitlines()


def test_src_lines_splits_every_line_of_every_module():
    lines = run_script("src_lines.py").splitlines()
    modules = sorted((ROOT / "src" / "lpakit").glob("*.py"))
    assert lines[0].split() == ["module", "code", "doc", "other", "total"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == [path.name for path in modules] + ["total"]
    for path, row in zip(modules, rows):
        code, doc, other, total = map(int, row[1:])
        assert code + doc + other == total == len(path.read_text().splitlines())
    sums = [sum(int(row[i]) for row in rows[:-1]) for i in range(1, 5)]
    assert sums == [int(c) for c in rows[-1][1:]]


def test_output_digest_prints_one_line_per_output():
    # stdout and exit code of every command, then the files it wrote, by name
    def outputs(files):
        return [":stdout", ":exit", *(f":{name}" for name in sorted(files))]

    want = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        files = [out["path"] for out in json.loads(path.read_text())["outputs"]]
        want += [f"configs/{path.name}{o}" for o in outputs(files)]
    for workload in ("seidman-fixed768", "du-factor48", "bestlpa-wide512"):
        for seed in (0, 7):
            want += [f"perfbench/{workload}/seed{seed}{o}"
                     for o in outputs(["rows.csv", "rows.json"])]
    for suite in SUITE_NAMES:
        want += [f"verify/{suite}{o}" for o in outputs([])]
    want += [f"gallery{o}" for o in outputs([])]
    lines = [line.split() for line in run_script("output_digest.py").splitlines()]
    assert [name for _, name in lines] == want
    assert all(len(digest) == 64 and set(digest) <= set("0123456789abcdef") for digest, _ in lines)


def test_row_moves_against_its_own_checkout_moves_nothing():
    # one heading per CSV of the nine analyze commands, then one line per
    # float field, each with a largest |change| of 0
    lines = run_script("row_moves.py", str(ROOT)).splitlines()
    heads = [line for line in lines if not line.startswith("    ")]
    fields = [line.split() for line in lines if line.startswith("    ")]
    assert heads[-1] == "0 of 9 CSVs moved"
    assert len(heads) == 10 and all(line.endswith(", integers equal, verdicts equal")
                                    for line in heads[:-1])
    assert len(fields) == 9 * 6 and all(field[-1] == "0" for field in fields)
