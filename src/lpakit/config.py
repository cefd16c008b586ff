"""Tolerance record and scan configuration.

Every numerical slack used by the diagnostics lives in one Tolerances value,
so a run's tolerances are auditable in one place. Scan configurations are
plain JSON files; see load_scan_config for the schema.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

TOL_ENV_VAR = "LPAKIT_TOL"

VALID_OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """A scan configuration that does not validate."""


@dataclass(frozen=True)
class Tolerances:
    """All numerical slacks in one record.

    rank: relative cutoff factor for rank decisions; None means m * eps
        against sigma_max(T) for T's own rank, and 10 * max(m, dim X_n) * eps
        against the factor's sigma_anchor for the rank of T X_n.
    check: decision tolerance for the yes/no diagnostics (offset angle zero,
        kernel containment, kernel gap verdicts).
    route_warn: the two offset-angle routes disagreeing beyond this raises a
        warning flag on the result (suspected truncation trouble);
        `lpakit analyze` names the flagged n in one line on stderr.
    identity_rel: agreement tolerance for the two sides of the error identity,
        scaled by 1 + the solution norm.
    bound_rel / bound_abs: slack for the error bound test,
        lhs <= rhs * (1 + bound_rel) + bound_abs.
    """

    rank: float | None = None
    check: float = 1e-8
    route_warn: float = 1e-4
    identity_rel: float = 1e-7
    bound_rel: float = 1e-6
    bound_abs: float = 1e-9

    @staticmethod
    def default() -> "Tolerances":
        """Defaults, with the check tolerance overridable via LPAKIT_TOL."""
        tol = Tolerances()
        env = os.environ.get(TOL_ENV_VAR)
        if env is not None:
            try:
                value = float(env)
            except ValueError as exc:
                raise ConfigError(f"{TOL_ENV_VAR} must be a float, got {env!r}") from exc
            tol = replace(tol, check=_require_tolerance("check", value, TOL_ENV_VAR))
        return tol


_TOLERANCE_RANGES = {  # allowed values of each field, as text and as a test
    "rank": ("in (0, 1) or null", lambda v: 0 < v < 1),
    "check": ("in (0, 1)", lambda v: 0 < v < 1),
    **dict.fromkeys(("route_warn", "identity_rel"), ("> 0", lambda v: v > 0)),
    **dict.fromkeys(("bound_rel", "bound_abs"), (">= 0", lambda v: v >= 0)),
}


def _require_tolerance(name: str, value, source: str):
    """value if tolerance field `name` allows it, else ConfigError naming source."""
    rule, allowed = _TOLERANCE_RANGES[name]
    try:
        valid = (name == "rank" and value is None) or (
            not isinstance(value, bool) and math.isfinite(value) and allowed(value))
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        valid = False
    if not valid:
        raise ConfigError(f"{source} must be a finite number {rule}, got {value!r}")
    return value


def resolve_m(m_rule: str | None, n: int) -> int:
    """Ambient truncation size for subspace index n.

    Rules: "factor:k" gives m = k*n, "fixed:m" gives the constant m, and None
    (no rule configured) gives max(4n, n + 32). The default keeps truncation
    tails far below the diagnostic tolerances while also leaving enough
    ambient room at small n for slowly-resolving kernels.
    """
    if m_rule is None:
        return max(4 * n, n + 32)
    kind, _, arg = m_rule.partition(":")
    try:
        value = int(arg)
    except ValueError:
        raise ConfigError(f"m_rule argument must be an integer: {m_rule!r}") from None
    if kind == "factor":
        if value < 1:
            raise ConfigError(f"m_rule factor must be >= 1, got {value}")
        return value * n
    if kind == "fixed":
        return value
    raise ConfigError(f"m_rule must be 'factor:k' or 'fixed:m', got {m_rule!r}")


@dataclass(frozen=True)
class OutputSpec:
    path: str
    format: str


@dataclass(frozen=True)
class ScanConfig:
    operator_name: str
    operator_params: dict
    n_list: tuple[int, ...]
    m_rule: str | None
    tolerances: Tolerances
    seed: int = 0
    outputs: tuple[OutputSpec, ...] = field(default_factory=tuple)

    def m_for(self, n: int) -> int:
        return resolve_m(self.m_rule, n)


def _build_tolerances(raw: dict) -> Tolerances:
    base = Tolerances.default()
    unknown = set(raw) - set(_TOLERANCE_RANGES)
    if unknown:
        raise ConfigError(f"unknown tolerance fields: {sorted(unknown)}")
    return replace(base, **{name: _require_tolerance(name, value, f"tolerance '{name}'")
                            for name, value in raw.items()})


def scan_config_from_dict(data: dict) -> ScanConfig:
    """Validate a parsed configuration dictionary."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    op = data.get("operator")
    if not isinstance(op, dict) or "name" not in op:
        raise ConfigError("field 'operator' must be an object with a 'name'")
    params = op.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'operator.params' must be an object")
    unknown_op = set(op) - {"name", "params"}
    if unknown_op:
        raise ConfigError(f"unknown operator fields: {sorted(unknown_op)}")
    n_list = data.get("n_list")
    if (not isinstance(n_list, list) or not n_list
            or any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in n_list)):
        raise ConfigError("field 'n_list' must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("field 'n_list' must be strictly ascending")
    m_rule = data.get("m_rule")
    if m_rule is not None:
        if not isinstance(m_rule, str):
            raise ConfigError("field 'm_rule' must be a string")
        resolve_m(m_rule, n_list[0])  # syntax check
        if m_rule.startswith("fixed:") and resolve_m(m_rule, n_list[0]) < max(n_list):
            raise ConfigError(
                f"field 'm_rule': fixed size {resolve_m(m_rule, n_list[0])} "
                f"is below max(n_list) = {max(n_list)}")
    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("field 'tolerances' must be an object")
    tolerances = _build_tolerances(tol_raw)
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("field 'seed' must be a nonnegative integer")
    raw_outputs = data.get("outputs", [])
    if not isinstance(raw_outputs, list):
        raise ConfigError("field 'outputs' must be a list of objects")
    outputs = []
    for i, out in enumerate(raw_outputs):
        if not isinstance(out, dict) or set(out) != {"path", "format"}:
            raise ConfigError(
                f"field 'outputs[{i}]' must be an object with only 'path' and 'format'")
        if not isinstance(out["path"], str) or not out["path"]:
            raise ConfigError(f"field 'outputs[{i}].path' must be a nonempty string")
        if out["format"] not in VALID_OUTPUT_FORMATS:
            raise ConfigError(
                f"field 'outputs[{i}].format' must be one of {VALID_OUTPUT_FORMATS}")
        outputs.append(OutputSpec(**out))
    unknown = set(data) - {"operator", "n_list", "m_rule", "tolerances", "seed", "outputs"}
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    return ScanConfig(
        operator_name=str(op["name"]),
        operator_params=params,
        n_list=tuple(n_list),
        m_rule=m_rule,
        tolerances=tolerances,
        seed=seed,
        outputs=tuple(outputs),
    )


def load_scan_config(path: str) -> ScanConfig:
    """Parse and validate a JSON scan configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return scan_config_from_dict(data)
