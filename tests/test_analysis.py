"""Tests for the convergence diagnostics.

The reference numbers quoted here were produced by independent oracle
scripts (dense SVD plus closed-form series sums) and frozen; the tests
assert the package reproduces them, not the other way round.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpakit.analysis import (
    LpaInstance,
    PreconditionError,
    coercive_bound_check,
    diagnose,
    du_divergence_check,
    error_bound_check,
    error_identity_check,
    kernel_approximability_scan,
    kernel_core,
    make_lpa,
    norm_tn_dag_t,
    offset_angle,
    qn_matrix,
    tn_pinv_apply,
    zero_offset_characterization,
)
from lpakit.config import resolve_m
from lpakit.linalg import (
    Subspace,
    gap,
    kernel_basis,
    orthonormal_range,
    projector,
    pseudo_inverse,
)
from lpakit.operators import du_bad_y, du_vector_e, get_family, random_finite_kernel

# sin theta_n for the compact injective example on the m = 4n grid,
# computed by an independent dense-SVD oracle and frozen
SEIDMAN_SINES_4N = {
    8: 0.773725035329,
    16: 0.914471658138,
    32: 0.974195315860,
    64: 0.993018532310,
}

# same quantity at the default truncation rule m = max(4n, n + 32)
SEIDMAN_SINES_DEFAULT_M = {2: 0.34357379, 4: 0.55612908, 8: 0.77322493}


def coordinate_instance(seed: int, m: int, n: int, kernel_dim: int) -> LpaInstance:
    return LpaInstance(random_finite_kernel(m, kernel_dim, seed), n)


# ------------------------------------------------------------- construction


def test_instance_requires_square_matrix():
    with pytest.raises(ValueError):
        LpaInstance(np.ones((3, 4)), 2)


def test_instance_requires_valid_n():
    with pytest.raises(ValueError):
        LpaInstance(np.eye(3), 0)
    with pytest.raises(ValueError):
        LpaInstance(np.eye(3), 4)


def test_instance_rejects_mismatched_basis():
    with pytest.raises(ValueError):
        LpaInstance(np.eye(3), 1, x_basis=np.eye(4)[:, :1])


def test_make_lpa_rejects_n_above_m():
    with pytest.raises(ValueError):
        make_lpa(get_family("identity"), 5, 4)


def test_instance_caches_consistent_factorization():
    inst = coordinate_instance(0, 10, 4, 2)
    assert inst.rank == 8
    assert inst.kernel.dim == 2
    assert inst.rowspace.dim == 8
    # the pseudoinverse agrees with the reference implementation
    assert np.allclose(inst.t_pinv, np.linalg.pinv(inst.t), atol=1e-10)


@pytest.mark.parametrize("name, n, m", [("seidman", 8, 32), ("best-lpa", 8, 20),
                                        ("du", 4, 36)])
def test_instance_factors_each_matrix_once(monkeypatch, name, n, m):
    # T, T X_n and the two offset-angle images; singular values alone
    # (compute_uv=False, spectral norms) are not factorizations
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    inst = make_lpa(get_family(name), n, m)
    diagnose(inst)
    with contextlib.suppress(PreconditionError):  # du never captures its kernel
        error_bound_check(inst, np.ones(m))
    assert len(shapes) == 4, shapes
    assert shapes.count((m, m)) == 1, shapes


@pytest.mark.parametrize("name, n, m, want", [("seidman", 8, 32, 1), ("best-lpa", 8, 20, 1),
                                              ("du", 4, 36, 1)])
def test_instance_takes_few_m_by_m_spectral_norms(monkeypatch, name, n, m, want):
    # norm(ord=2) takes singular values through numpy's internal svd binding.
    # The one m x m norm every instance takes is ||I - Q_n||, the
    # oblique-projector route, dense on purpose. The Subspace orthonormality
    # check takes none, even on seidman's m-column row-space basis.
    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    real_svd = internal.svd
    shapes = []

    def counting_svd(a, *args, **kwargs):
        if not kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(internal, "svd", counting_svd)
    inst = make_lpa(get_family(name), n, m)
    diagnose(inst)
    with contextlib.suppress(PreconditionError):  # du never captures its kernel
        error_bound_check(inst, np.ones(m))
    assert shapes.count((m, m)) == want, shapes


@pytest.mark.parametrize("build", [
    lambda: make_lpa(get_family("seidman"), 8, 32),
    lambda: make_lpa(get_family("du"), 4, 36),
    lambda: make_lpa(get_family("best-lpa"), 8, 20),
    lambda: make_lpa(get_family("random", kernel_dim=3, seed=0), 6, 12),
    lambda: LpaInstance(random_finite_kernel(12, 3, 0), 5, x_basis=np.linalg.qr(
        np.random.default_rng(0).standard_normal((12, 5)))[0]),
    lambda: make_lpa(get_family("identity"), 3, 6),
    lambda: LpaInstance(np.zeros((5, 5)), 2),
], ids=["seidman", "du", "best-lpa", "random-kernel-inside", "random-kernel-outside",
        "identity", "zero"])
def test_tn_pinv_matches_dense_oracle(build):
    # X_n (T X_n)^+ against the SVD of the m x m matrix T_n = T P_{X_n}
    inst = build()
    dense = pseudo_inverse(inst.tn(), inst.rank_tol)
    diff = np.linalg.norm(inst.tn_pinv - dense, 2)
    assert diff <= 1e-10 * np.linalg.norm(dense, 2)
    # rank(A^+) = trace(A^+ A), A^+ A being an orthogonal projector
    assert round(np.trace(inst.tn_pinv @ inst.tn())) == round(np.trace(dense @ inst.tn()))


# ------------------------------------------------------------ solution route


def test_tn_pinv_apply_identity_family_truncates():
    inst = make_lpa(get_family("identity"), 3, 6)
    y = np.arange(1.0, 7.0)
    x = tn_pinv_apply(inst, y)
    assert np.allclose(x, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_tn_pinv_apply_dimension_check():
    inst = make_lpa(get_family("identity"), 2, 4)
    with pytest.raises(ValueError):
        tn_pinv_apply(inst, np.ones(5))


def test_tn_pinv_apply_matches_least_squares_reference():
    inst = coordinate_instance(3, 12, 5, 2)
    y = np.random.default_rng(4).standard_normal(12)
    x = tn_pinv_apply(inst, y)
    ref = np.linalg.lstsq(inst.tn(), y, rcond=None)[0]
    assert np.allclose(x, ref, atol=1e-8)
    # normal equations and minimum-norm side conditions
    tn = inst.tn()
    assert np.linalg.norm(tn.T @ (tn @ x - y)) <= 1e-10
    assert np.linalg.norm(x - inst.x_n.project(x)) <= 1e-9 * (1 + np.linalg.norm(x))


def test_tn_pinv_apply_du_closed_form_strict_regime():
    # T_n^+ y = P_n y - 4^n <(I-P_n)y, e> P_n e, checked against an
    # independent evaluation of the right-hand side
    fam = get_family("du")
    for n in (2, 4, 8, 12):
        m = resolve_m(None, n)
        inst = make_lpa(fam, n, m)
        y, e = du_bad_y(m), du_vector_e(m)
        coef = 4.0**n * float(np.dot(y[n:], e[n:]))
        closed = np.concatenate([y[:n] - coef * e[:n], np.zeros(m - n)])
        rel = np.linalg.norm(tn_pinv_apply(inst, y) - closed) / np.linalg.norm(closed)
        assert rel <= 1e-6


def test_tn_pinv_apply_du_closed_form_conditioned_regime():
    # beyond n = 13 the solve amplifies roundoff by about 4^n, so the
    # comparison tolerance has to carry that factor
    fam = get_family("du")
    for n in (13, 16, 20):
        m = resolve_m(None, n)
        inst = make_lpa(fam, n, m)
        y, e = du_bad_y(m), du_vector_e(m)
        coef = 4.0**n * float(np.dot(y[n:], e[n:]))
        closed = np.concatenate([y[:n] - coef * e[:n], np.zeros(m - n)])
        rel = np.linalg.norm(tn_pinv_apply(inst, y) - closed) / np.linalg.norm(closed)
        assert rel <= max(1e-6, 4.0**n * 1e-15)


# ------------------------------------------------------------- oblique route


def test_qn_matrix_idempotent_and_characterized():
    inst = make_lpa(get_family("seidman"), 8, 32)
    qn = qn_matrix(inst)
    nq = np.linalg.norm(qn, 2)
    assert np.linalg.norm(qn @ qn - qn, 2) <= 1e-8 * (1 + nq**2)
    # range is the pinv image of T(X_n), kernel is orthogonal to T*T(X_n)
    ran = orthonormal_range(qn)
    want_ran = orthonormal_range(inst.t_pinv @ (inst.t @ inst.x_n.basis), scale=1.0)
    assert gap(ran, want_ran) <= 1e-8
    ker = kernel_basis(qn)
    image = orthonormal_range(inst.t.T @ (inst.t @ inst.x_n.basis),
                              scale=inst.sigma_max**2)
    assert np.linalg.norm(image.basis.T @ ker.basis, 2) <= 1e-8


def test_qn_matrix_idempotency_defect_at_depth():
    inst = make_lpa(get_family("seidman"), 64, 256)
    qn = qn_matrix(inst)
    assert np.linalg.norm(qn @ qn - qn, 2) <= 1e-8 * (1 + np.linalg.norm(qn, 2) ** 2)


def test_qn_matrix_zero_operator():
    inst = LpaInstance(np.zeros((5, 5)), 2)
    assert np.array_equal(qn_matrix(inst), np.zeros((5, 5)))


def test_qn_factors_through_kernel_complement():
    # Q_n equals P_{N(T) complement} T_n^+ T on finite-kernel operators
    for seed in (0, 1, 2):
        inst = coordinate_instance(seed, 14, 6, 1 + seed)
        lhs = qn_matrix(inst)
        rhs = projector(inst.rowspace) @ inst.tn_pinv @ inst.t
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-7


# -------------------------------------------------------------- offset angle


def test_offset_angle_identity_family_is_zero():
    inst = make_lpa(get_family("identity"), 3, 8)
    ang = offset_angle(inst)
    assert ang.theta == 0.0
    assert ang.sin_gap_route <= 1e-12
    assert ang.sin_qn_route <= 1e-7
    assert not ang.rank_mismatch


def test_offset_angle_zero_operator():
    inst = LpaInstance(np.zeros((6, 6)), 3)
    ang = offset_angle(inst)
    assert ang.theta == 0.0 and ang.sin_gap_route == 0.0 and ang.sin_qn_route == 0.0


def test_offset_angle_seidman_frozen_values():
    fam = get_family("seidman")
    for n, want in SEIDMAN_SINES_4N.items():
        ang = offset_angle(make_lpa(fam, n, 4 * n))
        assert ang.sin_gap_route == pytest.approx(want, abs=1e-10)
        assert abs(ang.sin_gap_route - ang.sin_qn_route) <= 1e-6
        assert not ang.route_disagreement
    for n, want in SEIDMAN_SINES_DEFAULT_M.items():
        ang = offset_angle(make_lpa(fam, n, resolve_m(None, n)))
        assert ang.sin_gap_route == pytest.approx(want, abs=1e-8)


def test_offset_angle_du_is_zero():
    fam = get_family("du")
    for n in (2, 4, 8, 16, 20):
        ang = offset_angle(make_lpa(fam, n, resolve_m(None, n)))
        assert ang.theta <= 1e-8
        assert ang.sin_qn_route <= 1e-6


def test_offset_angle_subspace_entirely_inside_kernel():
    # X_n inside N(T): both image subspaces are zero, angle zero by convention
    inst = coordinate_instance(5, 8, 2, 3)
    ang = offset_angle(inst)
    assert ang.sin_gap_route == 0.0 and ang.sin_qn_route == 0.0
    assert not ang.rank_mismatch


def test_offset_angle_route_agreement_across_families():
    for name in ("seidman", "du", "best-lpa", "random"):
        fam = get_family(name)
        for n in (2, 4, 8):
            m = 20 if name == "best-lpa" else 4 * n
            ang = offset_angle(make_lpa(fam, n, m))
            assert abs(ang.sin_gap_route - ang.sin_qn_route) <= 1e-6


# --------------------------------------------------------------- kernel core


def test_kernel_core_du_stays_empty():
    fam = get_family("du")
    for n in (2, 8, 16, 20):
        inst = make_lpa(fam, n, resolve_m(None, n))
        assert kernel_core(inst).dim == 0
        assert inst.kernel.dim == 1


def test_kernel_core_zero_operator_is_whole_subspace():
    inst = LpaInstance(np.zeros((7, 7)), 3)
    core = kernel_core(inst)
    assert core.dim == 3
    assert gap(core, inst.x_n) <= 1e-12


def test_kernel_core_planted_coordinates():
    for n, kdim in ((2, 3), (4, 3), (6, 3)):
        inst = coordinate_instance(8, 12, n, kdim)
        core = kernel_core(inst)
        want = min(n, kdim)
        assert core.dim == want
        assert gap(core, Subspace.coordinate(12, want)) <= 1e-10


def test_kernel_approximability_scan_verdicts():
    rep = kernel_approximability_scan(get_family("du"), [2, 4, 8, 16])
    assert not rep.holds
    assert "violated" in rep.message
    assert [r.kernel_core_dim for r in rep.rows] == [0, 0, 0, 0]
    assert [r.kernel_dim for r in rep.rows] == [1, 1, 1, 1]

    rep = kernel_approximability_scan(get_family("random", kernel_dim=2, seed=1),
                                      [2, 4, 8])
    assert rep.holds
    assert "n=2" in rep.message


def test_kernel_approximability_scan_validates_n_list():
    with pytest.raises(ValueError):
        kernel_approximability_scan(get_family("du"), [4, 2])
    with pytest.raises(ValueError):
        kernel_approximability_scan(get_family("du"), [])


# ------------------------------------------------------------ norm diagnostic


def test_norm_tn_dag_t_identity():
    inst = make_lpa(get_family("identity"), 3, 6)
    assert norm_tn_dag_t(inst) == pytest.approx(1.0, abs=1e-12)


def test_norm_tn_dag_t_du_doubles_per_level():
    fam = get_family("du")
    for n in (2, 4, 8, 16):
        inst = make_lpa(fam, n, resolve_m(None, n))
        assert norm_tn_dag_t(inst) == pytest.approx(2.0**n, rel=1e-9)


def test_norm_tn_dag_t_best_lpa_is_one():
    fam = get_family("best-lpa")
    for n in (4, 8, 12):
        assert norm_tn_dag_t(make_lpa(fam, n, 20)) == pytest.approx(1.0, abs=1e-8)


def test_norm_tn_dag_t_seidman_frozen_value():
    inst = make_lpa(get_family("seidman"), 8, 32)
    assert norm_tn_dag_t(inst) == pytest.approx(1.5784782393363985, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["seidman", "du", "best-lpa", "random", "identity"]),
       m=st.integers(20, 39), n=st.integers(1, 12))
def test_norm_tn_dag_t_matches_dense_oracle(name, m, n):
    # the k x m thin form against ||T_n^+ T|| with T_n^+ from the m x m T_n;
    # m from 20 to 39 crosses du's rank cliff
    inst = make_lpa(get_family(name), n, m)
    dense = np.linalg.norm(pseudo_inverse(inst.tn(), inst.rank_tol) @ inst.t, 2)
    assert norm_tn_dag_t(inst) == pytest.approx(dense, rel=1e-10)


# ------------------------------------------------------------- error identity


def test_error_identity_trivial_case():
    inst = make_lpa(get_family("identity"), 3, 6)
    rep = error_identity_check(inst, np.arange(1.0, 7.0))
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_error_identity_holds_without_kernel_containment():
    # the identity requires nothing of the kernel, so it must hold even
    # where the bound precondition fails
    inst = make_lpa(get_family("du"), 8, 40)
    y = du_bad_y(40)
    assert error_identity_check(inst, y).passed


def test_error_identity_random_trials():
    for seed in range(100):
        rng = np.random.default_rng([11, seed])
        m = int(rng.integers(6, 20))
        kdim = int(rng.integers(0, 4))
        n = int(rng.integers(1, m - kdim + 1)) if kdim < m else 1
        inst = LpaInstance(random_finite_kernel(m, kdim, seed), n)
        rep = error_identity_check(inst, rng.standard_normal(m))
        assert rep.passed, (seed, rep.diff, rep.tol)


def test_kernel_splitting_of_approximation_kernel():
    # P over N(T_n) equals P over the core plus the complement of X_n
    for inst in (make_lpa(get_family("du"), 8, 40),
                 make_lpa(get_family("best-lpa"), 8, 20),
                 coordinate_instance(2, 12, 5, 2)):
        lhs = projector(kernel_basis(inst.tn(), scale=inst.sigma_max))
        rhs = projector(kernel_core(inst)) + np.eye(inst.m) - projector(inst.x_n)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8


# ---------------------------------------------------------------- error bound


def test_error_bound_trivial_equality():
    inst = make_lpa(get_family("identity"), 3, 6)
    rep = error_bound_check(inst, np.arange(1.0, 7.0))
    assert rep.passed
    assert rep.bound_factor == pytest.approx(1.0, abs=1e-10)


def test_error_bound_refuses_when_kernel_escapes():
    inst = make_lpa(get_family("du"), 8, 40)
    with pytest.raises(PreconditionError, match="kernel not contained"):
        error_bound_check(inst, du_bad_y(40))


def test_error_bound_equality_for_zero_offset_subspaces():
    fam = get_family("best-lpa")
    for n in (4, 8, 12):
        inst = make_lpa(fam, n, 20)
        y = np.random.default_rng([21, n]).standard_normal(20)
        rep = error_bound_check(inst, y)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 1e-8


def test_error_bound_random_instances():
    for seed in range(20):
        kdim = 1 + seed % 4
        inst = coordinate_instance(seed, 24, 4 + 2 * (seed % 3), kdim)
        y = np.random.default_rng([22, seed]).standard_normal(24)
        rep = error_bound_check(inst, y)
        assert rep.passed, (seed, rep.lhs, rep.rhs)


def test_error_bound_subspace_equals_kernel_degenerate_case():
    # X_n equal to the kernel: T_n = 0, both sides reduce to the norm of
    # the reference solution and the bound holds with equality
    inst = coordinate_instance(9, 10, 2, 2)
    y = np.random.default_rng(1).standard_normal(10)
    rep = error_bound_check(inst, y)
    assert rep.passed
    tp_y = np.linalg.pinv(inst.t) @ y
    assert rep.lhs == pytest.approx(np.linalg.norm(tp_y), rel=1e-10)


# ----------------------------------------------------- zero-offset trichotomy


def test_zero_offset_all_true_for_zero_angle_with_kernel_inside():
    fam = get_family("best-lpa")
    for n in (4, 8, 12):
        z = zero_offset_characterization(make_lpa(fam, n, 20))
        assert z.theta_zero and z.pinv_is_projected_pinv and z.invariance_holds
        assert z.consistent
        assert z.kernel_inside


def test_zero_offset_all_false_for_wide_angle():
    fam = get_family("seidman")
    for n in (2, 4, 8):
        inst = make_lpa(fam, n, resolve_m(None, n))
        z = zero_offset_characterization(inst)
        assert not z.theta_zero and not z.pinv_is_projected_pinv
        assert not z.invariance_holds
        assert z.consistent
        assert z.kernel_inside  # trivially: the kernel is {0}


def test_zero_offset_witness_direction_for_wide_angle():
    # the image of the first coordinate vector under T*T sticks out of X_n
    fam = get_family("seidman")
    tails = {2: 0.121201178, 4: 0.048264420, 8: 0.017699490}
    for n, want in tails.items():
        inst = make_lpa(fam, n, resolve_m(None, n))
        w = inst.t.T @ (inst.t @ np.eye(inst.m)[:, 0])
        tail = float(np.linalg.norm(w - inst.x_n.project(w)))
        assert tail == pytest.approx(want, abs=1e-8)


def test_zero_offset_disagreement_when_kernel_escapes():
    # zero angle, yet the pseudoinverse is not the projected pseudoinverse:
    # the three-way equivalence needs the kernel inside the subspace, and
    # this operator never grants that
    inst = make_lpa(get_family("du"), 16, 64)
    z = zero_offset_characterization(inst)
    assert z.theta_zero
    assert not z.pinv_is_projected_pinv
    assert not z.invariance_holds
    assert not z.consistent
    assert not z.kernel_inside
    assert z.pinv_diff > 1e4  # the two matrices differ at the 2^n scale
    assert z.sum_deficiency == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ du reproduction


def test_du_divergence_check_profile():
    rep = du_divergence_check(20)
    assert rep.passed
    assert len(rep.rows) == 20
    row12 = rep.rows[11]
    assert row12.coefficient_closed == pytest.approx(1.0 - (3.0 / 7.0) / 4096.0)
    assert row12.coefficient == pytest.approx(row12.coefficient_closed, abs=1e-9)
    assert rep.inner_ye == pytest.approx(4.0 / 7.0, abs=1e-12)
    assert rep.limit_mismatch == pytest.approx(3.0 / 7.0, abs=1e-3)
    for row in rep.rows[7:]:
        assert row.divergence_gap >= 0.3
    for row in rep.rows:
        assert row.solution_norm <= 2.0


def test_du_divergence_check_validates_depth():
    with pytest.raises(ValueError):
        du_divergence_check(0)
    with pytest.raises(ValueError):
        du_divergence_check(21)


# ------------------------------------------------------------- coercive bound


def skew_instance(seed: int, m: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return np.eye(m) + 0.25 * (a - a.T)


def test_coercive_bound_skew_perturbation():
    t = skew_instance(0)
    beta = float(np.linalg.norm(t, 2))
    rep = coercive_bound_check(t, 1.0, beta, [2, 4, 8])
    assert rep.passed
    assert all(r.bound_factor <= rep.limit + 1e-8 for r in rep.rows)


def test_coercive_bound_diagonal_operator():
    t = np.diag(np.linspace(1.0, 3.0, 12))
    rep = coercive_bound_check(t, 1.0, 3.0, [2, 4, 8])
    assert rep.passed
    # diagonal operators have coordinate-invariant subspaces: factor 1
    assert all(r.bound_factor == pytest.approx(1.0, abs=1e-10) for r in rep.rows)


def test_coercive_bound_nilpotent_shift():
    m = 16
    shift = np.eye(m, k=1)
    t = np.eye(m) + 0.5 * shift
    alpha = float(np.linalg.eigvalsh(0.5 * (t + t.T))[0])
    beta = float(np.linalg.norm(t, 2))
    rep = coercive_bound_check(t, alpha, beta, [2, 4, 8])
    assert rep.passed


def test_coercive_bound_rejects_indefinite_operator():
    with pytest.raises(PreconditionError):
        coercive_bound_check(np.diag([1.0, -1.0, 1.0, 1.0]), 0.5, 2.0, [2])


def test_coercive_bound_rejects_wrong_beta():
    with pytest.raises(PreconditionError, match="exceeds beta"):
        coercive_bound_check(np.eye(4) * 2.0, 1.0, 1.5, [2])


# ----------------------------------------------------------------- diagnose


def test_diagnose_collects_consistent_row():
    inst = make_lpa(get_family("seidman"), 8, 32)
    row = diagnose(inst)
    assert row.n == 8 and row.m == 32
    assert row.theta_n == pytest.approx(math.asin(row.sin_theta_gap))
    assert row.bound_factor == pytest.approx(
        1.0 / math.cos(row.theta_n), rel=1e-10)
    assert row.kernel_core_dim == 0 and row.kernel_dim == 0
    assert row.kernel_gap == 0.0


def test_diagnose_bound_factor_at_right_angle():
    # a subspace orthogonal to the whole row space: the angle is flat and
    # the bound factor degenerates
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    inst = LpaInstance(t, 1, x_basis=np.eye(4)[:, 1:2])
    row = diagnose(inst)
    assert row.sin_theta_gap == 0.0  # image subspaces are both zero
    assert row.bound_factor == 1.0


def test_diagnose_du_row_matches_table():
    row = diagnose(make_lpa(get_family("du"), 16, 64))
    assert row.theta_n <= 1e-8
    assert row.kernel_core_dim == 0
    assert row.kernel_dim == 1
    assert row.kernel_gap == pytest.approx(1.0, abs=1e-10)
    assert row.norm_tn_dag_t == pytest.approx(65536.0, rel=1e-9)
    assert row.bound_factor == pytest.approx(1.0, abs=1e-10)
