"""What it costs to start lpakit's command line, module by module.

    python3 scripts/import_cost.py [N]

Runs N (default 10) fresh interpreters that `import lpakit.cli` under
`-X importtime`, with this checkout's src/ first on PYTHONPATH and the rest
of the caller's environment as it is (so bytecode is cached or compiled
as PYTHONDONTWRITEBYTECODE and any __pycache__ decide), and prints the
median self and cumulative import time in microseconds of numpy and of
each lpakit module, in the order their imports finish. Then it runs one
`lpakit analyze configs/du.json` child and one `lpakit verify penrose`
child and names the lpakit.* modules each loaded.
"""

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}


def python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.exit(proc.stderr)
    return proc


def import_times() -> dict[str, tuple[int, int]]:
    """(self, cumulative) microseconds of numpy and each lpakit module, from
    one child's `-X importtime` lines, in the order their imports finish."""
    times = {}
    for line in python("-X", "importtime", "-c", "import lpakit.cli").stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "numpy" or name.split(".")[0] == "lpakit":
                times[name] = (int(self_us), int(cumulative_us))
    return times


def loaded_by(argv: list[str]) -> str:
    """The lpakit.* modules a child running lpakit.cli.main(argv) loaded."""
    code = ("import sys\n"
            "from lpakit.cli import main\n"
            f"main({argv!r})\n"
            "print(*sorted(m for m in sys.modules if m.startswith('lpakit.')), file=sys.stderr)\n")
    return python("-c", code).stderr.splitlines()[-1]


def main(argv: list[str]) -> None:
    count = argv[1] if len(argv) == 2 else "10"
    if len(argv) > 2 or not count.isdigit() or int(count) < 1:
        sys.exit(__doc__)
    runs = [import_times() for _ in range(int(count))]
    print(f"{'module':<18}{'self_us':>10}{'cumulative_us':>15}   median of {len(runs)}")
    for name in runs[0]:
        self_us = statistics.median(run[name][0] for run in runs)
        cumulative_us = statistics.median(run[name][1] for run in runs)
        print(f"{name:<18}{self_us:>10g}{cumulative_us:>15g}")
    with tempfile.TemporaryDirectory() as out_dir:
        config = str(ROOT / "configs" / "du.json")
        print("analyze loads:", loaded_by(["analyze", config, "--out-dir", out_dir]))
    print("verify loads:", loaded_by(["verify", "penrose"]))


if __name__ == "__main__":
    main(sys.argv)
