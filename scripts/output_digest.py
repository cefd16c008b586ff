"""Print a SHA-256 digest of each output lpakit writes on its shipped inputs.

    python3 scripts/output_digest.py

Run it on two checkouts and diff what they print: equal lines mean
byte-identical outputs. Each line is ``sha256 name``, one per output of

* ``lpakit analyze`` on each configs/*.json: every file the config writes,
  stdout and the exit code;
* each scan workload of perfbench/run.py (its WORKLOADS, imported from
  perfbench/) at seeds 0 and 7, likewise;
* ``lpakit verify`` on each suite: stdout and the exit code;
* ``lpakit gallery``: stdout and the exit code.

Each command runs as ``python -m lpakit`` on this checkout's src/, with
BLAS pinned to one thread, as perfbench runs it: the thread count moves
roundoff. Outputs go to a fresh temporary directory, whose path is
replaced by <tmp> in stdout.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from lpakit.suites import SUITE_NAMES  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEEDS = (0, 7)
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def show(data: bytes, name: str) -> None:
    print(hashlib.sha256(data).hexdigest(), name)


def lpakit(name: str, *args: str, config: dict | None = None) -> None:
    """Run ``lpakit args``, with ``--out-dir`` and, when given, a config
    file written from `config` in a temporary directory, and show its
    stdout, its exit code and each file it wrote, in name order."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config))
            args = (*args, str(Path(tmp, "config.json")))
        if args[0] == "analyze":
            args = (*args, "--out-dir", str(out))
        proc = subprocess.run([sys.executable, "-m", "lpakit", *args], cwd=ROOT, env=ENV,
                              capture_output=True)
        show(proc.stdout.replace(tmp.encode(), b"<tmp>"), f"{name}:stdout")
        show(str(proc.returncode).encode(), f"{name}:exit")
        for path in sorted(out.iterdir()) if out.exists() else ():
            show(path.read_bytes(), f"{name}:{path.name}")


def main() -> None:
    for path in sorted((ROOT / "configs").glob("*.json")):
        lpakit(f"configs/{path.name}", "analyze", str(path))
    for workload, config in WORKLOADS.items():
        for seed in SEEDS if config else ():
            lpakit(f"perfbench/{workload}/seed{seed}", "analyze", config=config(seed))
    for suite in SUITE_NAMES:
        lpakit(f"verify/{suite}", "verify", suite)
    lpakit("gallery", "gallery")


if __name__ == "__main__":
    main()
