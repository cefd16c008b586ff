"""One benchmark child process: the lpakit command line, run from this
checkout's own src/ tree.

    child.py facts             print the interpreter, numpy and BLAS build as JSON
    child.py setup [CONFIG]    import lpakit.cli, then load CONFIG if given
    child.py run [--trace-out FILE] ARGV_JSON

ARGV_JSON is a JSON list of argument lists; lpakit.cli.main runs on each in
turn, and the exit code is the first nonzero one. With --trace-out, the
lpakit layers and numpy's LAPACK entry points are wrapped in spans (see
spans.py) and the spans are written to FILE when the last call returns.

An lpakit found anywhere but ./src is an error, so a checkout without the
program fails instead of measuring some installed copy.
"""

from __future__ import annotations

import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_cli():
    import lpakit.cli

    if not os.path.abspath(lpakit.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lpakit was imported from {lpakit.cli.__file__}, not from {SRC}")
    return lpakit.cli


def _facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    sys.path.insert(0, SRC)
    if mode == "facts":
        _import_cli()
        print(json.dumps(_facts()))
        return 0
    if mode == "setup":
        _import_cli()
        if rest:
            from lpakit.config import load_scan_config

            load_scan_config(rest[0])
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    trace_out = None
    if rest[0] == "--trace-out":
        trace_out, rest = rest[1], rest[2:]
    tracer = None
    if trace_out is not None:
        import spans  # this script's own directory is on sys.path

        tracer = spans.Tracer()
        tracer.install()
    cli = _import_cli()
    code = 0
    for args in json.loads(rest[0]):
        rc = cli.main(args)
        code = code or rc
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
