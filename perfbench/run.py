"""Benchmark for lpakit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measured run of the program is a
fresh child process (child.py) that calls the public command line,
lpakit.cli.main, from the checkout's src/ tree, with OpenBLAS and OpenMP
pinned to one thread. CPU time and peak RSS come from os.wait4 on that
child alone (RUSAGE_CHILDREN would report a running maximum over every
child reaped so far). The workload seed only shapes the generated config;
the program sees nothing else of it.

--trace 0 runs rounds for about S seconds; a round is one run of the
workload and one setup child, which imports lpakit.cli and loads the
config. It reports wall_s, cpu_s and setup_s as the fastest sample of the
run, and peak_rss_mb as the median; the median, a tail percentile and every
sample are printed above the result. On the 2-vCPU host this was tuned on,
each vCPU switches between a fast state and one about 1.4x slower, in
stretches from under a second to over a minute. Interference only ever adds
time, so the fastest sample is the one that tracks the program; it still
moves with the host's load, by 2 to 20% between runs, which is why the
time bounds in BENCHMARK.json are wide.

--trace 1 runs the workload once untraced and once traced (spans.py) and
reports the per-layer metrics, including the tracing overhead in CPU
seconds. Every run's outputs are checked (checks.py); a run that fails its
check counts in `failed`, so failed / attempted is the failure ratio. The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import count

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

MIN_SETUPS = 3
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
             "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
CHILD_ENV.pop("LPAKIT_TOL", None)  # it would change the checked outputs


def _scan(operator: str, n_list: list[int], m_rule: str, seeded_params: bool = False):
    """Config builder: the workload seed becomes the config's `seed` (the
    bound-check right-hand sides) and, for seeded families, params.seed."""
    def config(seed: int) -> dict:
        op = {"name": operator, **({"params": {"seed": seed}} if seeded_params else {})}
        return {"operator": op, "n_list": n_list, "m_rule": m_rule, "seed": seed,
                "outputs": [{"path": "rows.csv", "format": "csv"},
                            {"path": "rows.json", "format": "json"}]}
    return config


# Why each workload exists is recorded in BENCHMARK.json. In short: seidman
# at one fixed m factors the same T once per row and runs every bound check;
# du at m = 48 n gives every row its own m and never captures the kernel,
# so it bypasses T sharing and the second offset angle; best-lpa has dim X_n
# close to m, so thin algebra cannot help, and it rebuilds its singular
# system per call; verify-all is thousands of small calls, where Python
# per-call overhead dominates. seidman's n stops at 80 because from n = 96
# at m = 768 the T^*T image loses rank at its cutoff, and rows there move
# with any change to the rank decision. The scans are sized so that LAPACK
# dominates a run (79 to 89% of it) and m x m temporaries show in peak RSS.
WORKLOADS = {
    "seidman-fixed768": _scan("seidman", [32, 64, 80], "fixed:768"),
    "du-factor48": _scan("du", [4, 8, 16], "factor:48"),
    "bestlpa-wide512": _scan("best-lpa", [2, 4, 8, 12], "fixed:512", seeded_params=True),
    "verify-all": None,
}


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


_CHILD_IDS = count()


def run_child(args: list[str], workdir: str) -> ChildRun:
    """Run child.py with `args`; resources come from wait4 on this child."""
    stem = os.path.join(workdir, f"child{next(_CHILD_IDS)}")
    out_path, err_path = stem + ".out", stem + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                                env=CHILD_ENV, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return ChildRun(code=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
                    stdout=stdout, stderr=stderr)


class Bench:
    """One benchmark invocation: one workload, one seed."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.config_path = None
        config = WORKLOADS[workload]
        if config is not None:
            self.config_path = os.path.join(workdir, "config.json")
            with open(self.config_path, "w") as fh:
                json.dump(config(seed), fh)
        self.runs: list[tuple[ChildRun, list[str]]] = []

    def setup(self) -> ChildRun:
        return run_child(["setup", *([self.config_path] if self.config_path else [])],
                         self.workdir)

    def measured(self, trace_out: str | None = None) -> ChildRun:
        """One checked run of the workload; the result joins self.runs."""
        trace = ["--trace-out", trace_out] if trace_out else []
        if self.config_path is None:
            calls = [["verify", name] for name in spans.SUITE_NAMES]
            child = run_child(["run", *trace, json.dumps(calls)], self.workdir)
            problems = checks.check_verify_all(child.code, child.stdout)
        else:
            out_dir = tempfile.mkdtemp(dir=self.workdir)
            calls = [["analyze", self.config_path, "--out-dir", out_dir]]
            child = run_child(["run", *trace, json.dumps(calls)], self.workdir)
            problems = checks.check_scan(self.workload, child.code, child.stdout, out_dir)
            shutil.rmtree(out_dir)
        if problems and child.stderr:
            problems.append("stderr: " + child.stderr.strip().splitlines()[-1])
        self.runs.append((child, problems))
        return child


def machine_facts(child_facts: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, **child_facts}


def spread_line(name: str, values: list[float], unit: str) -> str:
    """Fastest sample, median, the highest percentile with at least ten
    samples above it (nearest rank) or else the maximum, and every sample."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        pct = (100 * (n - 10)) // n
        tail = f"p{pct} {ordered[max(0, -(-pct * n // 100) - 1)]:.6g}"
    else:
        tail = f"max {ordered[-1]:.6g} (under 20 samples)"
    each = " ".join(f"{v:.4g}" for v in values)
    return (f"{name}: min {ordered[0]:.6g} {unit}, median {statistics.median(ordered):.6g}, "
            f"{tail}, n={n} [{each}]")


def bench(args, workdir: str) -> int:
    facts_run = run_child(["facts"], workdir)
    if facts_run.code != 0:
        print(f"error: lpakit does not start:\n{facts_run.stderr}", file=sys.stderr)
        return 1
    facts = machine_facts(json.loads(facts_run.stdout.splitlines()[-1]))
    b = Bench(args.workload, args.seed, workdir)
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
             "machine " + json.dumps(facts, sort_keys=True)]
    if args.trace:
        trace_path = os.path.join(workdir, "spans.json")
        plain = b.measured()
        traced = b.measured(trace_path)
        if not os.path.exists(trace_path):
            print(f"error: traced run wrote no spans:\n{traced.stderr}", file=sys.stderr)
            return 1
        with open(trace_path) as fh:
            span_list = json.load(fh)["spans"]
        layer = spans.summarize(span_list)
        layer["trace.overhead_cpu_s"] = traced.cpu_s - plain.cpu_s
        metrics = {k: {"value": v, "unit": spans.LAYER_METRICS[k][0]} for k, v in layer.items()}
        lines.append(f"cpu_s untraced {plain.cpu_s:.4f}, traced {traced.cpu_s:.4f}")
        lines.append("top self time (calls, total s, self s):")
        table = spans.SpanTable(span_list).self_times()
        for name, (calls, total, self_s) in sorted(
                table.items(), key=lambda kv: -kv[1][2])[:15]:
            lines.append(f"  {name:45s} {calls:7d} {total:9.4f} {self_s:9.4f}")
    else:
        start = time.perf_counter()
        setups = [b.setup() for _ in range(MIN_SETUPS)]
        rounds = []
        while True:
            round_start = time.perf_counter()
            b.measured()
            setups.append(b.setup())
            rounds.append(time.perf_counter() - round_start)
            # start another round only if at least half of it fits the budget
            if time.perf_counter() - start + 0.5 * statistics.median(rounds) > args.seconds:
                break
        if any(r.code != 0 for r in setups):
            print(f"error: setup failed:\n{setups[-1].stderr}", file=sys.stderr)
            return 1
        samples = {
            "wall_s": ("s", [r.wall_s for r, _ in b.runs], min),
            "cpu_s": ("s", [r.cpu_s for r, _ in b.runs], min),
            "peak_rss_mb": ("MB", [r.peak_rss_mb for r, _ in b.runs], statistics.median),
            "setup_s": ("s", [r.wall_s for r in setups], min),
        }
        metrics = {k: {"value": stat(v), "unit": u} for k, (u, v, stat) in samples.items()}
        lines += [spread_line(k, v, u) for k, (u, v, _) in samples.items()]

    failed = sum(1 for _, problems in b.runs if problems)
    lines.append(f"failed_ratio: {failed}/{len(b.runs)}")
    for i, (_, problems) in enumerate(b.runs):
        lines += [f"run {i} FAILED: {p}" for p in problems]
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(b.runs),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "lpakit", "__init__.py")):
        print(f"error: no lpakit source tree under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another invocation is still using it


if __name__ == "__main__":
    sys.exit(main())
