"""Smoke tests for the example scripts under scripts/, run as a user would."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
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
