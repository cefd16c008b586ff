"""Command line front end.

Three subcommands: `analyze` runs a convergence scan from a config file and
writes CSV/JSON outputs, plus one stderr warning naming every n where the
two offset-angle routes disagree beyond tolerances.route_warn; `verify`
runs a named check suite; `gallery` lists the built-in operator families.
Exit codes: 0 success, 1 a verify check failed, 2 usage or config error
(an unknown suite name and an output that cannot be written included; the
outputs written before it are still named), 3 numerical failure inside a
scan or an error that stops a suite.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_scan_config
from .operators import FAMILY_NAMES, get_family
from .scan import OutputError, ScanNumericalError, render_csv, run_scan, write_outputs
from .suites import SUITE_NAMES, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpakit",
        description="Finite-truncation diagnostics for least-squares "
                    "projection approximations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="run a convergence scan described by a JSON config")
    p_analyze.add_argument("config", help="path to the scan config file")
    p_analyze.add_argument(
        "--out-dir", default=None,
        help="directory prepended to relative output paths from the config")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES))

    sub.add_parser("gallery", help="list the built-in operator families")
    return parser


def _cmd_analyze(config_path: str, out_dir: str | None) -> int:
    config = load_scan_config(config_path)
    try:
        report = run_scan(config)
    except ScanNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    flagged = [str(row.n) for row in report.rows if row.route_disagreement]
    if flagged:
        print(f"warning: the two offset-angle routes differ by more than route_warn = "
              f"{config.tolerances.route_warn:g} at n = {', '.join(flagged)}", file=sys.stderr)
    print(f"operator: {config.operator_name}")
    sys.stdout.write(render_csv(report))
    print("verdicts:")
    for key, value in report.verdicts.items():
        print(f"  {key}: {value}")
    try:
        written, failure = write_outputs(report, out_dir), None
    except OutputError as exc:
        written, failure = exc.written, exc
    for path in written:
        print(f"wrote {path}")
    if failure is not None:
        print(f"error: cannot write an output: {failure}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(suite: str) -> int:
    if suite not in SUITE_NAMES:
        print(f"error: unknown suite {suite!r}; valid suites: {', '.join(SUITE_NAMES)}",
              file=sys.stderr)
        return 2
    try:
        results = run_suite(suite)
    except (ValueError, ArithmeticError, ScanNumericalError) as exc:
        print(f"error: suite {suite!r} stopped: {exc}", file=sys.stderr)
        return 3
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {suite}.{res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_gallery() -> int:
    for name in FAMILY_NAMES:
        family = get_family(name)
        print(name)
        if family.params:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(family.params.items()))
            print(f"  defaults: {pairs}")
        if family.kernel_dim_hint is not None:
            print(f"  kernel dim: {family.kernel_dim_hint}")
        print(f"  {family.notes}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args.config, args.out_dir)
        if args.command == "verify":
            return _cmd_verify(args.suite)
        return _cmd_gallery()
    except ConfigError as exc:
        # from load_scan_config, and from run_scan, which rejects an unknown
        # family, an n beyond the family's limits and a tolerances.rank too
        # coarse for a row, which the config's own validation does not know
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
