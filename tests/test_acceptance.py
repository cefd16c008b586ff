"""Acceptance gate: one test per claim the package is built to demonstrate.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
claim. Two tests assert more than the mathematics delivers and are expected
to fail; their docstrings say why, and the failure messages carry the
measured values.
"""

import time

import numpy as np

from lpakit import (
    SUITE_NAMES,
    LpaInstance,
    coercive_bound_check,
    du_bad_y,
    du_divergence_check,
    du_vector_e,
    error_bound_check,
    get_family,
    kernel_core,
    make_lpa,
    norm_tn_dag_t,
    offset_angle,
    oblique_projector_norm_identity,
    random_finite_kernel,
    resolve_m,
    run_suite,
    tn_pinv_apply,
    zero_offset_characterization,
)
from lpakit.suites import random_oblique_projector


def test_01_offset_angle_routes_agree_everywhere():
    """Both evaluations of sin(theta_n) match to 1e-6 on every instance.

    The gap of the orthonormalized image subspaces and the norm route
    through I - Q_n are computed from unrelated decompositions, so their
    agreement is a genuine cross-check, not a tautology.
    """
    start = time.perf_counter()
    worst = 0.0
    for name in ("seidman", "du"):
        family = get_family(name)
        for n in (2, 4, 8, 16):
            ang = offset_angle(make_lpa(family, n, 4 * n))
            worst = max(worst, abs(ang.sin_gap_route - ang.sin_qn_route))
    for seed in range(20):
        for n in (2, 4, 8, 16):
            t = random_finite_kernel(4 * n, 1 + seed % 4, seed)
            ang = offset_angle(LpaInstance(t, n))
            worst = max(worst, abs(ang.sin_gap_route - ang.sin_qn_route))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"route disagreement {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_oblique_projector_norm_identities():
    """50 seeded oblique projectors in dimensions 6 through 12.

    ||P_ker(S) P_ran(S)|| equals sqrt(1 - 1/||S||^2) and equals
    ||P_ran(S) - P_ran(S^T)||, each to 1e-8.
    """
    rng = np.random.default_rng(2026)
    for k in range(50):
        s = random_oblique_projector(rng)
        chk = oblique_projector_norm_identity(s, tol=1e-8)
        assert abs(chk.lhs - chk.rhs) <= 1e-8, f"case {k}: norm identity"
        assert abs(chk.lhs - chk.projector_diff) <= 1e-8, \
            f"case {k}: projector difference"


def test_03_bounded_yet_divergent_family():
    """The near-projector family solves stably but never converges.

    theta_n vanishes, yet the kernel is never captured by the coordinate
    subspaces: the solutions T_n^+ y stay bounded by 2 while keeping a
    fixed distance >= 0.3 from the true minimum-norm solution. The
    expansion coefficient along the kernel direction follows
    1 - (3/7) 2^(-n), and the computed solution matches the closed form
    P_n y - c_n P_n e to 1e-6 relative through n = 12.
    """
    family = get_family("du")
    for n in range(1, 21):
        m = resolve_m(None, n)
        inst = make_lpa(family, n, m)
        assert offset_angle(inst).sin_gap_route <= 1e-8, f"n={n}"
        assert kernel_core(inst).dim == 0, f"n={n}"
        assert inst.kernel.dim == 1, f"n={n}"
        if n <= 12:
            y = du_bad_y(m)
            e = du_vector_e(m)
            coef = float(np.exp2(2.0 * n) * np.dot(y[n:], e[n:]))
            closed = np.concatenate([y[:n] - coef * e[:n], np.zeros(m - n)])
            rel = (np.linalg.norm(tn_pinv_apply(inst, y) - closed)
                   / np.linalg.norm(closed))
            assert rel <= 1e-6, f"n={n}: closed-form mismatch {rel:.3e}"
    rep = du_divergence_check(20)
    for row in rep.rows:
        assert abs(row.coefficient - row.coefficient_closed) <= 1e-9, \
            f"n={row.n}: coefficient {row.coefficient!r}"
        assert row.solution_norm <= 2.0, f"n={row.n}"
        if row.n >= 8:
            assert row.divergence_gap >= 0.3, f"n={row.n}"


def test_04_degrading_angles_with_unsaturated_norm():
    """Injective family whose offset angle climbs toward a right angle.

    The green clauses hold: no kernel at any truncation, sin(theta_n)
    nondecreasing over n = 8, 16, 32, 64 at m = 4n, and the product
    (1 - sin^2 theta_n) * n stays below 10. The final clause asks the
    norms ||T_n^+ T|| to grow tenfold across the same window. They
    cannot: the norm tracks 1/cos(theta_n), which the bounded product
    pins near sqrt(n) growth, so four octaves of n deliver roughly a
    5x rise. The assertion is kept as stated and fails.
    """
    start = time.perf_counter()
    family = get_family("seidman")
    n_values = (8, 16, 32, 64)
    sines, norms = [], []
    for n in n_values:
        inst = make_lpa(family, n, 4 * n)
        assert inst.kernel.dim == 0, f"n={n}"
        assert kernel_core(inst).dim == 0, f"n={n}"
        sines.append(offset_angle(inst).sin_gap_route)
        norms.append(norm_tn_dag_t(inst))
    assert all(b >= a - 1e-12 for a, b in zip(sines, sines[1:])), \
        f"sines not nondecreasing: {sines}"
    worst_product = max((1.0 - s * s) * n for s, n in zip(sines, n_values))
    assert worst_product <= 10.0, f"(1 - sin^2) * n reached {worst_product:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert norms[-1] > 10.0 * norms[0], (
        f"norm grew {norms[-1] / norms[0]:.2f}x across n = 8..64 "
        f"({norms[0]:.4f} -> {norms[-1]:.4f}); sqrt(n)-paced growth "
        f"needs a far wider window to reach 10x")


def test_05_aligned_subspaces_give_projected_solutions():
    """Subspaces built from the operator's own singular directions.

    When X_n holds the whole kernel plus leading right singular vectors,
    theta_n vanishes, T_n^+ y equals P_{X_n} T^+ y to 1e-8, and the error
    bound is attained with equality to 1e-8.
    """
    family = get_family("best-lpa")
    m = 20
    for n in range(1, 13):
        inst = make_lpa(family, n, m)
        assert offset_angle(inst).sin_gap_route <= 1e-8, f"n={n}"
        y = np.random.default_rng([707, n]).standard_normal(m)
        diff = np.linalg.norm(tn_pinv_apply(inst, y)
                              - inst.x_n.project(inst.t_pinv @ y))
        assert diff <= 1e-8, f"n={n}: projected-inverse gap {diff:.3e}"
        chk = error_bound_check(inst, y)
        assert chk.passed, f"n={n}"
        assert abs(chk.lhs - chk.rhs) <= 1e-8, \
            f"n={n}: slack {abs(chk.lhs - chk.rhs):.3e}"


def test_06_error_bound_on_captured_kernels():
    """100 seeded operators with kernels inside the first four coordinates.

    At n = 4, 6, 8 the coordinate subspaces contain every kernel, so the
    bound lhs <= rhs * (1 + 1e-6) + 1e-9 must hold on every pair.
    """
    for seed in range(100):
        t = random_finite_kernel(24, 1 + seed % 4, seed)
        y = np.random.default_rng([808, seed]).standard_normal(24)
        for n in (4, 6, 8):
            chk = error_bound_check(LpaInstance(t, n), y)
            assert chk.passed, (
                f"seed={seed} n={n}: lhs {chk.lhs:.6e} rhs {chk.rhs:.6e}")


def test_07_zero_offset_three_way_equivalence():
    """Three faces of the zero-offset condition, evaluated independently.

    theta_n = 0, T_n^+ = P_{X_n} T^+, and invariance of X_n under the
    kernel and T^*T images are equivalent when the kernel sits inside
    X_n. The aligned family shows all three true; the injective family
    with climbing angles shows all three false, witnessed by T^*T e^1
    leaving X_n. The near-projector family is asserted here to land in
    the all-true class as well, but its kernel is never inside X_n and
    the equivalence has no footing: the angle vanishes while the other
    two faces fail, so the final block fails.
    """
    best = get_family("best-lpa")
    for n in (2, 4, 8):
        rep = zero_offset_characterization(make_lpa(best, n, 20))
        assert rep.theta_zero and rep.pinv_is_projected_pinv \
            and rep.invariance_holds, f"best-lpa n={n}"
        assert rep.consistent and rep.kernel_inside, f"best-lpa n={n}"

    seidman = get_family("seidman")
    for n in (2, 4, 8):
        m = resolve_m(None, n)
        inst = make_lpa(seidman, n, m)
        rep = zero_offset_characterization(inst)
        assert not rep.theta_zero, f"seidman n={n}"
        assert not rep.pinv_is_projected_pinv, f"seidman n={n}"
        assert not rep.invariance_holds, f"seidman n={n}"
        assert rep.consistent, f"seidman n={n}"
        w = inst.t.T @ (inst.t @ np.eye(m)[:, 0])
        tail = np.linalg.norm(w - inst.x_n.project(w))
        assert tail > 1e-6, f"seidman n={n}: T^*T e^1 stayed inside X_n"

    du = get_family("du")
    for n in (2, 4, 8):
        rep = zero_offset_characterization(make_lpa(du, n, resolve_m(None, n)))
        assert rep.theta_zero, f"du n={n}"
        assert rep.pinv_is_projected_pinv and rep.invariance_holds \
            and rep.consistent, (
            f"du n={n}: theta_zero={rep.theta_zero}, "
            f"pinv_is_projected_pinv={rep.pinv_is_projected_pinv} "
            f"(diff {rep.pinv_diff:.3e}), "
            f"invariance_holds={rep.invariance_holds} "
            f"(deficiency {rep.sum_deficiency:.3f}); the kernel is outside "
            f"X_n (kernel_inside={rep.kernel_inside}), so the three faces "
            f"are not equivalent and the measured ones disagree")


def test_08_verification_suites_all_pass():
    """Every named check suite passes under its fixed seeds."""
    for name in SUITE_NAMES:
        results = run_suite(name)
        failed = [r.name for r in results if not r.passed]
        assert not failed, f"{name}: {failed}"


def test_09_coercive_operators_keep_factor_bounded():
    """10 seeded T = I + 0.5 * skew at m = 16.

    Coercivity pins alpha = 1 since the symmetric part is the identity;
    sqrt(1 + tan^2 theta_n) <= beta/alpha + 1e-8 for n = 2, 4, 8.
    """
    for seed in range(10):
        rng = np.random.default_rng([909, seed])
        a = rng.standard_normal((16, 16))
        t = np.eye(16) + 0.5 * (0.5 * (a - a.T))
        beta = float(np.linalg.norm(t, 2))
        rep = coercive_bound_check(t, 1.0, beta, [2, 4, 8], tol=1e-8)
        assert rep.passed, f"seed={seed}"
        for row in rep.rows:
            assert row.bound_factor <= rep.limit + 1e-8, \
                f"seed={seed} n={row.n}: factor {row.bound_factor:.6f}"
