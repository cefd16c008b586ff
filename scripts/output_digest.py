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
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def show(data: bytes, name: str) -> None:
    print(hashlib.sha256(data).hexdigest(), name)


def commands():
    """(name, args, config) of each command whose outputs are shown, in
    order; config, when not None, is written to a file passed last."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield f"configs/{path.name}", ("analyze", str(path)), None
    for workload, config in WORKLOADS.items():
        for seed in SEEDS if config else ():
            yield f"perfbench/{workload}/seed{seed}", ("analyze",), config(seed)
    for suite in SUITE_NAMES:
        yield f"verify/{suite}", ("verify", suite), None
    yield "gallery", ("gallery",), None


def lpakit(root: Path, args: tuple, config: dict | None = None):
    """Run ``lpakit args`` on root's src/, with ``--out-dir`` and, when
    given, a config file written from `config` in a temporary directory.
    Returns its stdout, its exit code and {name: bytes} of each file it
    wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config))
            args = (*args, str(Path(tmp, "config.json")))
        if args[0] == "analyze":
            args = (*args, "--out-dir", str(out))
        env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, "-m", "lpakit", *args], cwd=root, env=env,
                              capture_output=True)
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
        return proc.stdout.replace(tmp.encode(), b"<tmp>"), proc.returncode, files


def main() -> None:
    for name, args, config in commands():
        stdout, code, files = lpakit(ROOT, args, config)
        show(stdout, f"{name}:stdout")
        show(str(code).encode(), f"{name}:exit")
        for file in sorted(files):
            show(files[file], f"{name}:{file}")


if __name__ == "__main__":
    main()
