"""Run diagnostics across a list of subspace indices and render the results.

A scan takes one operator family and a strictly ascending n_list, computes
the full diagnostics row at every n, and condenses the rows into three
verdicts:

* kernel_approximability: whether the subspaces capture the kernel by the
  largest tested n,
* sup_theta_bounded: whether sqrt(1 + tan^2 theta_n) looks bounded across
  the tested range or grows with the angles,
* bound_checks_passed: how many per-instance error bound checks passed, over
  the instances where the bound's kernel-containment precondition held.

Verdicts are finite-evidence judgments, so each has an inconclusive value
for scans whose rows support neither answer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (LpaDiagnostics, RankToleranceError, diagnose, error_bound_check,
                       kernel_captured, kernel_verdict, make_lpa, shared_factors)
from .config import ConfigError, ScanConfig
from .operators import get_family

__all__ = [
    "ScanNumericalError",
    "OutputError",
    "ScanReport",
    "run_scan",
    "CSV_HEADER",
    "render_csv",
    "report_to_dict",
    "render_json",
    "write_outputs",
]

CSV_HEADER = ("n,m,theta_n,sin_theta_gap,sin_theta_qn,norm_tn_dag_t,"
              "kernel_core_dim,kernel_dim,kernel_gap,bound_factor")

# attribute order must match CSV_HEADER
_CSV_FIELDS = CSV_HEADER.split(",")
_INT_FIELDS = {"n", "m", "kernel_core_dim", "kernel_dim"}


class ScanNumericalError(RuntimeError):
    """Linear algebra failed irrecoverably at one grid point."""

    def __init__(self, operator: str, n: int, detail: str):
        self.operator = operator
        self.n = n
        super().__init__(
            f"numerical failure for operator {operator!r} at n={n}: {detail}")


class OutputError(OSError):
    """An output that could not be written; written names the outputs
    written before it, in config order."""

    def __init__(self, message: str, written: list[str]):
        super().__init__(message)
        self.written = written


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    rows: tuple[LpaDiagnostics, ...]
    verdicts: dict


def _theta_verdict(rows) -> str:
    """The sup_theta_bounded verdict: "degrading" when the last bound factor
    is at least twice the first and the sines never fall, "bounded" when it
    is at most 1.1 times the first and no factor is infinite, "inconclusive"
    otherwise."""
    factors = [r.bound_factor for r in rows]
    sins = [r.sin_theta_gap for r in rows]
    ratio = math.inf if math.isinf(factors[-1]) else factors[-1] / factors[0]
    nondecreasing = all(b >= a - 1e-6 for a, b in zip(sins, sins[1:]))
    if ratio >= 2.0 and nondecreasing:
        return "degrading"
    if ratio <= 1.1 and not any(map(math.isinf, factors)):
        return "bounded"
    return "inconclusive"


def _scan_row(config: ScanConfig, family, factor, n: int) -> tuple[LpaDiagnostics, bool | None]:
    """Row at n and its bound check's verdict, None where the row does not
    capture the kernel (kernel_captured), the bound's precondition. Only an
    eligible row draws its right-hand side, from default_rng([seed, n]), so y
    depends on (seed, n) alone and a scan with no eligible row draws none.
    The instance is freed on return, so once the next row moves to a new m
    nothing holds the old factor."""
    m = config.m_for(n)
    inst = make_lpa(family, n, m, factor(m))
    row = diagnose(inst, config.tolerances)
    if not kernel_captured(row, config.tolerances.check):
        return row, None
    y = np.random.default_rng([config.seed, n]).standard_normal(inst.m)
    return row, error_bound_check(inst, y, config.tolerances).passed


def run_scan(config: ScanConfig) -> ScanReport:
    """Full diagnostics over config.n_list, plus verdicts.

    The bound checks draw one right-hand side per eligible n from a generator
    seeded by (config.seed, n), so reruns of the same config are bitwise
    reproducible. T is factored once per run of consecutive rows at one m.

    The family and every (n, m) are checked before anything is factored; a
    rejection there, or a row refused only by tolerances.rank
    (RankToleranceError), is a ConfigError. Any other failure, a ValueError
    included (a Subspace orthonormality check, say), raises ScanNumericalError.
    """
    try:
        family = get_family(config.operator_name, **config.operator_params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for n in config.n_list:
        try:
            family.check(n, config.m_for(n))
        except ValueError as exc:
            raise ConfigError(
                f"operator {config.operator_name!r} rejects n={n}: {exc}") from exc
    factor = shared_factors(family, config.tolerances.rank)
    rows: list[LpaDiagnostics] = []
    checks: list[bool] = []
    for n in config.n_list:
        try:
            row, passed = _scan_row(config, family, factor, n)
        except RankToleranceError as exc:
            raise ConfigError(f"tolerances.rank {config.tolerances.rank:g} is too "
                              f"coarse at n={n}: {exc}") from exc
        except (np.linalg.LinAlgError, ArithmeticError, ValueError) as exc:
            raise ScanNumericalError(config.operator_name, n, str(exc)) from exc
        rows.append(row)
        if passed is not None:
            checks.append(passed)
    verdicts = {
        "kernel_approximability": kernel_verdict(rows, config.tolerances.check),
        "sup_theta_bounded": _theta_verdict(rows),
        "bound_checks_passed": f"{sum(checks)}/{len(checks)}",
    }
    return ScanReport(config=config, rows=tuple(rows), verdicts=verdicts)


def _format_cell(row: LpaDiagnostics, field: str) -> str:
    value = getattr(row, field)
    if field in _INT_FIELDS:
        return str(value)
    return "%.17g" % value


def _json_safe(value):
    """value with every non-finite float replaced by its CSV cell text, since
    JSON has no literal for inf or nan."""
    if isinstance(value, float) and not math.isfinite(value):
        return "%.17g" % value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def render_csv(report: ScanReport) -> str:
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(",".join(_format_cell(row, f) for f in _CSV_FIELDS))
    return "\n".join(lines) + "\n"


def report_to_dict(report: ScanReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "operator": {"name": cfg.operator_name, "params": dict(cfg.operator_params)},
            "n_list": list(cfg.n_list),
            "m_rule": cfg.m_rule,
            "seed": cfg.seed,
            "tolerances": asdict(cfg.tolerances),
        },
        "rows": [{f: getattr(row, f) for f in _CSV_FIELDS} for row in report.rows],
        "verdicts": dict(report.verdicts),
    }


def render_json(report: ScanReport) -> str:
    return json.dumps(_json_safe(report_to_dict(report)), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_outputs(report: ScanReport, out_dir: str | None = None) -> list[str]:
    """Write every configured output, prefixing relative paths with out_dir,
    and return their paths. The first output that cannot be written stops
    the run with OutputError, which names the outputs written before it."""
    written = []
    for spec in report.config.outputs:
        path = spec.path
        if out_dir is not None and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        text = render_csv(report) if spec.format == "csv" else render_json(report)
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(str(exc), written) from exc
        written.append(path)
    return written
