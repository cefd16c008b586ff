"""Named verification suites behind the command line's `verify`.

Each suite is a batch of identity and reproduction checks at fixed seeds and
fixed tolerances; suite names are part of the CLI surface and stay stable.
Checks return structured results instead of asserting so the CLI can print
one line per check and exit nonzero only at the end.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    LpaInstance,
    TruncationFactor,
    coercive_bound_check,
    diagnose,
    du_divergence_check,
    error_bound_check,
    error_identity_check,
    kernel_core,
    make_lpa,
    offset_angle,
)
from .config import ScanConfig, Tolerances
from .linalg import (
    Subspace,
    canonical_angles,
    gap,
    kernel_basis,
    oblique_projector_norm_identity,
    orthonormal_range,
    projector,
    pseudo_inverse,
)
from .operators import get_family, random_finite_kernel
from .scan import run_scan

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "random_oblique_projector"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, worst: float, tol: float, unit: str = "") -> CheckResult:
    return CheckResult(name=name, passed=worst <= tol,
                       detail=f"worst {worst:.3e}{unit} (tol {tol:.0e})")


def random_oblique_projector(rng: np.random.Generator,
                             dim: int | None = None) -> np.ndarray:
    """Random idempotent matrix S = A (B^T A)^{-1} B^T with 1 <= rank < dim.

    Pairs with an ill-conditioned B^T A are rejected so the construction
    stays idempotent to far better than the identity-check tolerance.
    """
    if dim is None:
        dim = int(rng.integers(6, 13))
    rank = int(rng.integers(1, dim))
    while True:
        a = rng.standard_normal((dim, rank))
        b = rng.standard_normal((dim, rank))
        if np.linalg.cond(b.T @ a) < 1e3:
            return a @ np.linalg.solve(b.T @ a, b.T)


def _suite_penrose() -> list[CheckResult]:
    """The four pseudoinverse axioms on 50 seeded matrices up to 20 x 20.

    Half the matrices are exactly rank-deficient products.
    """
    worst = [0.0, 0.0, 0.0, 0.0]
    for seed in range(50):
        rng = np.random.default_rng([101, seed])
        rows, cols = rng.integers(1, 21, 2)
        if seed % 2:
            inner = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
        else:
            a = rng.standard_normal((rows, cols))
        x = pseudo_inverse(a)
        na, nx = np.linalg.norm(a, 2), np.linalg.norm(x, 2)
        worst[0] = max(worst[0], np.linalg.norm(a @ x @ a - a, 2) / (1 + na))
        worst[1] = max(worst[1], np.linalg.norm(x @ a @ x - x, 2) / (1 + nx))
        worst[2] = max(worst[2], np.linalg.norm((a @ x).T - a @ x, 2))
        worst[3] = max(worst[3], np.linalg.norm((x @ a).T - x @ a, 2))
    return [
        _check("pinv_axiom_a_x_a_equals_a", worst[0], 1e-9),
        _check("pinv_axiom_x_a_x_equals_x", worst[1], 1e-9),
        _check("pinv_axiom_a_x_symmetric", worst[2], 1e-9),
        _check("pinv_axiom_x_a_symmetric", worst[3], 1e-9),
    ]


def _random_subspace(rng: np.random.Generator, ambient: int, dim: int) -> Subspace:
    return orthonormal_range(rng.standard_normal((ambient, dim)))


def _suite_projectors() -> list[CheckResult]:
    """Projector algebra and the two expressions of the gap metric."""
    worst_idem = worst_sym = 0.0
    worst_maxdef = worst_pairnorm = worst_singap = 0.0
    for seed in range(30):
        rng = np.random.default_rng([202, seed])
        ambient = int(rng.integers(4, 21))
        m = _random_subspace(rng, ambient, int(rng.integers(1, ambient)))
        n = _random_subspace(rng, ambient, int(rng.integers(1, ambient)))
        p, q = projector(m), projector(n)
        worst_idem = max(worst_idem, np.linalg.norm(p @ p - p, 2))
        worst_sym = max(worst_sym, np.linalg.norm(p - p.T, 2))
        # gap on bases against the dense projector forms of ||P - Q||
        pair = np.linalg.norm(p - q, 2)
        viaproj = max(np.linalg.norm((np.eye(ambient) - q) @ p, 2),
                      np.linalg.norm((np.eye(ambient) - p) @ q, 2))
        worst_maxdef = max(worst_maxdef, abs(gap(m, n) - viaproj))
        worst_pairnorm = max(worst_pairnorm, abs(pair - viaproj))
    for seed in range(30):
        rng = np.random.default_rng([203, seed])
        dim = int(rng.integers(1, 20))
        m = _random_subspace(rng, 20, dim)
        n = _random_subspace(rng, 20, dim)
        sin_max = float(np.sin(canonical_angles(m, n)[-1]))
        worst_singap = max(worst_singap, abs(sin_max - gap(m, n)))
    return [
        _check("projector_idempotent", worst_idem, 1e-12),
        _check("projector_symmetric", worst_sym, 1e-12),
        _check("gap_equals_max_deficiency", worst_maxdef, 1e-10),
        _check("projector_pair_norm_identity", worst_pairnorm, 1e-10),
        _check("sin_max_angle_equals_gap", worst_singap, 1e-8),
    ]


def _suite_lemma30() -> list[CheckResult]:
    """Norm identity for 50 seeded oblique projectors in dimensions 6 to 12."""
    worst_rhs = worst_pdiff = 0.0
    for seed in range(50):
        rng = np.random.default_rng([303, seed])
        res = oblique_projector_norm_identity(random_oblique_projector(rng))
        worst_rhs = max(worst_rhs, abs(res.lhs - res.rhs))
        worst_pdiff = max(worst_pdiff, abs(res.lhs - res.projector_diff))
    return [
        _check("oblique_norm_equals_sqrt_form", worst_rhs, 1e-8),
        _check("oblique_norm_equals_range_gap", worst_pdiff, 1e-8),
    ]


def _route_disagreement(family, n_values, m_of_n) -> float:
    worst = 0.0
    for n in n_values:
        ang = offset_angle(make_lpa(family, n, m_of_n(n)))
        worst = max(worst, abs(ang.sin_gap_route - ang.sin_qn_route))
    return worst


def _suite_eq37() -> list[CheckResult]:
    """Agreement of the two offset-angle routes on the standard grid."""
    grid = (2, 4, 8, 16)

    def m4(n: int) -> int:
        return 4 * n

    worst_rand = 0.0
    for seed in range(20):
        fam = get_family("random", kernel_dim=1 + seed % 4, seed=seed)
        worst_rand = max(worst_rand, _route_disagreement(fam, grid, m4))
    return [
        _check("route_agreement_seidman",
               _route_disagreement(get_family("seidman"), grid, m4), 1e-6),
        _check("route_agreement_du",
               _route_disagreement(get_family("du"), grid, m4), 1e-6),
        _check("route_agreement_random_20_seeds", worst_rand, 1e-6),
    ]


def _suite_eq20() -> list[CheckResult]:
    """Error identity and the kernel splitting of the approximating operator."""
    worst_identity = 0.0
    worst_split = 0.0
    instances = []
    for seed in range(10):
        fam = get_family("random", kernel_dim=seed % 4, seed=seed)
        for n in (4, 8):
            instances.append((make_lpa(fam, n, 20), [404, seed, n]))
    instances.append((make_lpa(get_family("du"), 8, 40), [404, 90]))
    instances.append((make_lpa(get_family("seidman"), 8, 40), [404, 91]))
    instances.append((make_lpa(get_family("best-lpa"), 8, 20), [404, 92]))
    for inst, seed in instances:
        y = np.random.default_rng(seed).standard_normal(inst.m)
        rep = error_identity_check(inst, y)
        worst_identity = max(worst_identity, rep.diff / rep.tol)
        p_kernel_tn = projector(kernel_basis(inst.tn(), inst.factor.cutoff))
        split = projector(kernel_core(inst)) + np.eye(inst.m) - projector(inst.x_n)
        worst_split = max(worst_split, float(np.linalg.norm(p_kernel_tn - split, 2)))
    return [
        _check("error_identity_two_sides_agree", worst_identity, 1.0, " of tol"),
        _check("kernel_splitting_projector_identity", worst_split, 1e-8),
    ]


def _suite_bounds() -> list[CheckResult]:
    """Error bound on seeded solvable instances, plus the coercive cap."""
    failures = 0
    total = 0
    for seed in range(10):
        t = TruncationFactor(random_finite_kernel(24, 1 + seed % 4, seed))
        for n in (4, 6, 8):
            inst = LpaInstance(t, n)
            y = np.random.default_rng([505, seed, n]).standard_normal(24)
            total += 1
            if not error_bound_check(inst, y).passed:
                failures += 1
    coercive_ok = True
    worst_excess = 0.0
    for seed in range(3):
        rng = np.random.default_rng([606, seed])
        skew = rng.standard_normal((16, 16))
        t = np.eye(16) + 0.25 * (skew - skew.T)
        beta = float(np.linalg.norm(t, 2))
        rep = coercive_bound_check(t, 1.0, beta, [2, 4, 8])
        coercive_ok = coercive_ok and rep.passed
        worst_excess = max(worst_excess,
                           max(r.bound_factor for r in rep.rows) - rep.limit)
    return [
        CheckResult("bound_holds_on_seeded_instances", failures == 0,
                    f"{total - failures}/{total} passed"),
        CheckResult("coercive_factor_capped_by_beta_over_alpha", coercive_ok,
                    f"worst factor excess over cap {worst_excess:.3e}"),
    ]


def _suite_du() -> list[CheckResult]:
    """The bounded-but-divergent reproduction case."""
    rep = du_divergence_check(20)
    cfg = ScanConfig(operator_name="du", operator_params={},
                     n_list=(2, 4, 8, 16), m_rule=None,
                     tolerances=Tolerances())
    report = run_scan(cfg)
    worst_sin = max(r.sin_theta_gap for r in report.rows)
    return [
        CheckResult("divergence_profile_reproduced", rep.passed,
                    f"limit mismatch {rep.limit_mismatch:.6f}, "
                    f"floor {min(r.divergence_gap for r in rep.rows[7:]):.4f}"),
        CheckResult("kernel_never_captured", report.verdicts[
            "kernel_approximability"] == "violated",
            f"verdict {report.verdicts['kernel_approximability']}"),
        _check("offset_angle_stays_zero", worst_sin, 1e-8),
        CheckResult("bound_checks_vacuous", report.verdicts[
            "bound_checks_passed"] == "0/0",
            f"eligible {report.verdicts['bound_checks_passed']}"),
    ]


def _suite_seidman() -> list[CheckResult]:
    """Injective compact truncations with angles climbing toward a right angle."""
    fam = get_family("seidman")
    rows = [diagnose(make_lpa(fam, n, 4 * n)) for n in (2, 4, 8, 16)]
    mono = all(b.sin_theta_gap >= a.sin_theta_gap - 1e-6
               for a, b in zip(rows, rows[1:]))
    profile = max((1.0 - r.sin_theta_gap**2) * r.n for r in rows)
    injective = all(r.kernel_dim == 0 and r.kernel_core_dim == 0 for r in rows)
    return [
        CheckResult("truncations_injective", injective,
                    f"kernel dims {[r.kernel_dim for r in rows]}"),
        CheckResult("sin_theta_nondecreasing", mono,
                    "sines " + ", ".join(f"{r.sin_theta_gap:.6f}" for r in rows)),
        _check("cos_squared_times_n_bounded", profile, 10.0),
    ]


def _suite_best() -> list[CheckResult]:
    """Zero-offset subspaces built from a singular system: the exact regime.

    T is factored by LAPACK, not read off the singular system that X_n is
    built from, so the checks hold the model to an independent factor."""
    fam = get_family("best-lpa")
    factor = TruncationFactor(fam.truncate(20))
    worst_sin = worst_proj = worst_eq = worst_norm = 0.0
    for n in (4, 8, 12):
        inst = make_lpa(fam, n, 20, factor)
        d = diagnose(inst)
        worst_sin = max(worst_sin, d.sin_theta_gap)
        worst_norm = max(worst_norm, abs(d.norm_tn_dag_t - 1.0))
        y = np.random.default_rng([707, n]).standard_normal(20)
        x = inst.tn_pinv @ y
        worst_proj = max(worst_proj, float(np.linalg.norm(
            x - inst.x_n.project(inst.t_pinv @ y))))
        bc = error_bound_check(inst, y)
        worst_eq = max(worst_eq, abs(bc.lhs - bc.rhs))
    return [
        _check("offset_angle_zero", worst_sin, 1e-8),
        _check("pinv_equals_projected_pinv", worst_proj, 1e-8),
        _check("bound_attains_equality", worst_eq, 1e-8),
        _check("norm_tn_dag_t_equals_one", worst_norm, 1e-8),
    ]


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "penrose": _suite_penrose,
    "projectors": _suite_projectors,
    "lemma30": _suite_lemma30,
    "eq37": _suite_eq37,
    "eq20": _suite_eq20,
    "bounds": _suite_bounds,
    "du": _suite_du,
    "seidman": _suite_seidman,
    "best": _suite_best,
}

SUITE_NAMES = tuple(sorted(SUITES))


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; valid suites: {', '.join(SUITE_NAMES)}")
    return SUITES[name]()
