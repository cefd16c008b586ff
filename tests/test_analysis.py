"""Tests for the convergence diagnostics.

The reference numbers quoted here were produced by independent oracle
scripts (dense SVD plus closed-form series sums) and frozen; the tests
assert the package reproduces them, not the other way round.
"""

import contextlib
import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpakit.analysis
from lpakit.analysis import (
    LpaInstance,
    TruncationFactor,
    _tan_theta_qn,
    PreconditionError,
    coercive_bound_check,
    diagnose,
    du_divergence_check,
    error_bound_check,
    error_identity_check,
    kernel_captured,
    kernel_core,
    kernel_verdict,
    make_lpa,
    norm_tn_dag_t,
    offset_angle,
    shared_factors,
    tn_pinv_apply,
    zero_offset_characterization,
)
from lpakit.config import Tolerances, resolve_m, scan_config_from_dict
from lpakit.linalg import (
    EPS,
    Subspace,
    deficiency,
    gap,
    kernel_basis,
    orthonormal_range,
    pinv_from_svd,
    projector,
    pseudo_inverse,
    rank_cutoff,
    svd,
)
from lpakit.operators import Reflector, du_bad_y, du_vector_e, get_family, random_finite_kernel
from lpakit.scan import run_scan

try:
    import mpmath
except ImportError:  # declared in the test extra
    mpmath = None

_needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath>=1.3 (the test extra)")

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


def _default_tol(m: int) -> float:
    # the rank rule's default tol for an m x m truncation
    return rank_cutoff((), (m, m), anchor=1.0)[1]


def qn_matrix(inst: LpaInstance) -> np.ndarray:
    # the oblique projector Q_n = T^+ P_{T(X_n)} T as a dense m x m matrix,
    # A B^T from the route's own factors (A = T^+ U_r, B = T^T U_r, the
    # instance's tt_ur): its range is T^+T(X_n), its kernel the complement
    # of T^*T(X_n). The diagnostics take tan theta_n = ||Q_n - P_{ran Q_n}||
    # without forming it; this is their oracle
    res, r = inst.txn_svd
    return inst.factor.pinv_apply(res.u[:, :r]) @ inst.tt_ur.T


def sqrt_form_sine(qn: np.ndarray) -> float:
    # the Q_n route's former form, sqrt(1 - 1/||I - Q_n||^2), on the dense
    # Q_n. At a zero angle ||I - Q_n|| = 1 + O(theta^2), so a roundoff of eps
    # in the norm reads as sin theta ~ sqrt(eps): this form cannot tell a
    # zero angle from 2e-8
    nrm = float(np.linalg.norm(np.eye(len(qn)) - qn, 2))
    return math.sqrt(max(0.0, 1.0 - 1.0 / nrm**2)) if nrm > 1.0 else 0.0


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


def test_instance_shares_a_truncation_factor():
    # instances built from one factor read its arrays, not copies
    factor = TruncationFactor(random_finite_kernel(12, 3, 0), 1e-10)
    a, b = LpaInstance(factor, 4), LpaInstance(factor, 8)
    assert "t_pinv" not in vars(factor)  # the m x m T^+ is formed on first read
    assert a.t_pinv is b.t_pinv is factor.t_pinv and a.kernel is factor.kernel
    assert (a.rank, a.factor.rank_tol) == (9, 1e-10)
    with pytest.raises(ValueError, match="m=12"):
        make_lpa(get_family("random", kernel_dim=3), 4, 10, factor=factor)


def test_instance_caches_consistent_factorization():
    inst = coordinate_instance(0, 10, 4, 2)
    assert inst.rank == 8
    assert inst.kernel.dim == 2
    assert inst.factor.rowspace.dim == 8
    # the pseudoinverse agrees with the reference implementation, as a matrix
    # and applied through the factor
    assert np.allclose(inst.t_pinv, np.linalg.pinv(inst.t), atol=1e-10)
    v = np.random.default_rng(1).standard_normal((10, 3))
    assert np.allclose(inst.factor.pinv_apply(v), inst.t_pinv @ v, atol=1e-12)
    assert np.allclose(inst.factor.pinv_apply(v[:, 0]), inst.t_pinv @ v[:, 0], atol=1e-12)


def _assert_sized_by_rank(inst, shapes):
    # no SVD in shapes has more entries than rho x dim X_n when rho < dim X_n,
    # nor than m x dim X_n otherwise (the kernel core lies in X_n, so
    # rho x dim core is no larger)
    k = inst.x_n.dim
    bound = (inst.rank if inst.rank < k else inst.m) * k
    assert all(p * q <= bound for p, q in shapes), (bound, shapes)


# best-lpa at m = 64 has a kernel of dimension m - 12 = 52 and dim X_n = 60:
# the regime where T X_n and the kernel tests were m x ~m before they were
# read off T's rank-12 factor
_WIDE_KERNEL = ("best-lpa", 8, 64)


def _count_full_svds(monkeypatch) -> list:
    # shapes of every np.linalg.svd call that computes singular vectors
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return shapes


def _count_svd_calls(monkeypatch, refuse=None) -> list:
    # (shape, compute_uv) of every SVD, through np.linalg.svd or numpy's
    # internal binding, which norm(ord=2) calls; an SVD of an input of shape
    # refuse raises instead
    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    calls = []

    def counting(real_svd):
        def counting_svd(a, *args, **kwargs):
            if np.shape(a) == refuse:
                raise AssertionError(f"an SVD of a {refuse} input")
            calls.append((np.shape(a), kwargs.get("compute_uv",
                                                  args[1] if len(args) > 1 else True)))
            return real_svd(a, *args, **kwargs)
        return counting_svd

    monkeypatch.setattr(internal, "svd", counting(internal.svd))
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    return calls


@pytest.mark.parametrize("name, n, m, svds_of_t", [
    ("seidman", 8, 32, 0), ("best-lpa", 8, 20, 0), ("du", 4, 36, 0), (*_WIDE_KERNEL, 0),
], ids=["seidman-8-32", "best-lpa-8-20", "du-4-36", "best-lpa-8-64"])
def test_instance_factors_each_matrix_once(monkeypatch, name, n, m, svds_of_t):
    # T and T X_n, the latter as T X_n itself (m x dim X_n) where
    # rho >= dim X_n (seidman, du) and as the rho x dim X_n matrix
    # U_rho^T T X_n where rho < dim X_n (best-lpa, rho = 12); the two
    # offset-angle images are QRs of T X_n's r singular vectors, and
    # singular values alone (compute_uv=False, spectral norms) are not
    # factorizations. seidman declares N(T) = {0}: its T is inverted and
    # takes no SVD. best-lpa's factor is read off the singular system it
    # was built from, du's off its closed form (singular_triplets): no SVD
    # of T either. For all three, the one SVD with vectors is that of T X_n.
    shapes = _count_full_svds(monkeypatch)
    inst = make_lpa(get_family(name), n, m)
    diagnose(inst)
    with contextlib.suppress(PreconditionError):  # du never captures its kernel
        error_bound_check(inst, np.ones(m))
    assert len(shapes) == 1 + svds_of_t, shapes
    assert shapes.count((m, m)) == svds_of_t, shapes
    _assert_sized_by_rank(inst, [shape for shape in shapes if shape != (m, m)])


@pytest.mark.parametrize("name, n, m, want", [("seidman", 8, 32, 0), ("best-lpa", 8, 20, 0),
                                              ("du", 4, 36, 0), (*_WIDE_KERNEL, 0)])
def test_instance_takes_few_m_by_m_spectral_norms(monkeypatch, name, n, m, want):
    # norm(ord=2) takes singular values through numpy's internal svd binding,
    # np.linalg.svd(compute_uv=False) through the public one; both are
    # counted. An instance takes none on m x m matrices: tan theta_n is an
    # r x r norm, ||T_n^+ T|| an r x m one, the kernel gap
    # rho x dim core, and the Subspace orthonormality check takes none.
    # Containment is read off the core, so no row takes the singular values
    # of the rho x dim X_n matrix R^T X_n. The factor is built before
    # counting starts. seidman's inverted factor takes none either: its
    # sigma_max came with T^{-1}.
    inst = make_lpa(get_family(name), n, m)
    calls = _count_svd_calls(monkeypatch)
    diagnose(inst)
    with contextlib.suppress(PreconditionError):  # du never captures its kernel
        error_bound_check(inst, np.ones(m))
    shapes = [shape for shape, vectors in calls if not vectors]
    assert shapes.count((m, m)) == want, shapes
    if name == "du":  # rho = m - 1, and the core is empty
        assert (inst.rank, inst.x_n.dim) not in shapes, shapes
    if (name, n, m) == _WIDE_KERNEL:
        _assert_sized_by_rank(inst, shapes)


@pytest.mark.parametrize("name", ["seidman", "du", "best-lpa", "random"])
def test_shared_factors_frees_the_dropped_factor_without_a_gc_pass(name):
    # one factor alive at a time: moving to the next m drops the last one,
    # and reference counting alone frees it, so no factor reaches its own
    # arrays through a cycle (a bound method stored on it would)
    factor = shared_factors(get_family(name))
    gc.disable()
    try:
        dropped = weakref.ref(factor(40))
        factor(48)
        assert dropped() is None
    finally:
        gc.enable()


def test_scan_row_allocates_less_than_one_m_by_m_array():
    # one seidman row on a shared factor, from diagnose through the bound
    # check: the kernel core's dimension and gap are read off T X_n's SVD and
    # T_n^+ is applied through its factors, so the row's allocations peak
    # below one m x m array (8 m^2 bytes)
    m = 768
    family = get_family("seidman")
    inst = make_lpa(family, 32, m, factor=shared_factors(family)(m))
    y = np.random.default_rng([0, 32]).standard_normal(m)
    tracemalloc.start()
    try:
        diagnose(inst)
        assert error_bound_check(inst, y).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m, peak


# ------------------------------------------------- T factored by LAPACK's SVD


_LAPACK_INPUTS = {
    "du-511": lambda: get_family("du").truncate(511),
    "du-768": lambda: get_family("du").truncate(768),
    "du-1100": lambda: get_family("du").truncate(1100),
    "seidman": lambda: get_family("seidman").truncate(32),
    "seidman-64": lambda: get_family("seidman").truncate(64),
    "best-lpa-40": lambda: get_family("best-lpa").truncate(40),
    "random-20": lambda: random_finite_kernel(20, 3, 0),
    "identity": lambda: np.eye(8),
    "zero": lambda: np.zeros((6, 6)),
    "diagonal": lambda: np.diag([3.0, -1.0, 0.0, 2.0, -1.0]),
}


@functools.cache
def _lapack_factor(name):
    # TruncationFactor(t) alone for _LAPACK_INPUTS[name], and the shapes of
    # the full SVDs its construction took. Cached, so that the reference
    # factors of du(768) and du(1100), an SVD of the whole T each (0.47 and
    # 1.09 s of CPU), are taken once per session, whichever test asks first
    t = _LAPACK_INPUTS[name]()
    with pytest.MonkeyPatch.context() as mp:
        shapes = _count_full_svds(mp)
        factor = TruncationFactor(t)
    return factor, shapes


@pytest.mark.parametrize("name", ["du-768", "du-1100", "seidman", "identity", "zero", "diagonal"])
def test_factor_runs_one_lapack_svd_of_the_whole_t(name):
    # given neither a known SVD nor an inverse, the factor is one full SVD of
    # T, whatever T's pattern: du's block diagonal truncation, identity, zero
    # and diagonal T included
    factor, shapes = _lapack_factor(name)
    assert shapes == [factor.t.shape]


def test_factor_is_bitwise_lapacks_svd_of_the_whole_t():
    # TruncationFactor(t) alone: rank, cutoff, singular values, U_rho, row
    # space and kernel are svd(t)'s, split at the rank rule's cutoff
    for name in _LAPACK_INPUTS:
        factor = _lapack_factor(name)[0]
        t, dense = factor.t, svd(factor.t)
        s, rho = dense.singular_values, factor.rank
        assert (rho, factor.cutoff) == rank_cutoff(s, t.shape)
        assert factor.sigma_max == s[0]
        for got, want in ((factor.s_rho, s[:rho]), (factor.u_rho.basis, dense.u[:, :rho]),
                          (factor.rowspace.basis, dense.vt[:rho].T),
                          (factor.kernel.basis, dense.vt[rho:].T)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name, n, m", [("du", 16, 768), ("identity", 3, 8)])
def test_diagnose_takes_no_m_by_m_svd_on_decoupled_truncations(monkeypatch, name, n, m):
    # identity's factor is its inverse in closed form (a copy); du's is read
    # off its closed form (singular_triplets), so neither T nor du's leading
    # 511 x 511 block, where its coupling ends, is factored
    shapes = _count_full_svds(monkeypatch)
    diagnose(make_lpa(get_family(name), n, m))
    assert (m, m) not in shapes and (511, 511) not in shapes


@pytest.mark.parametrize("n, m", [(16, 768), (8, 1100)])
def test_du_diagnostics_match_dense_factor(n, m):
    # du's closed-form factor (make_lpa's, through shared_factors) against
    # LAPACK's SVD of the whole formed T. Within perfbench's tolerances, and
    # the two routes within check of each other.
    check = Tolerances().check
    fam = get_family("du")
    got = diagnose(make_lpa(fam, n, m))
    want = diagnose(make_lpa(fam, n, m, _lapack_factor(f"du-{m}")[0]))
    assert abs(got.sin_theta_qn - got.sin_theta_gap) <= check
    assert (got.kernel_dim, got.kernel_core_dim) == (want.kernel_dim, want.kernel_core_dim)
    assert kernel_verdict([got], check) == kernel_verdict([want], check)
    for field in ("sin_theta_gap", "sin_theta_qn", "kernel_gap"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=1e-10)
    for field in ("norm_tn_dag_t", "bound_factor"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=0)


def _dense_tn_pinv(inst) -> np.ndarray:
    # T_n^+ from the SVD of the m x m T_n, ranked at the factor's cutoff as
    # txn_svd is
    res = svd(inst.tn())
    return pinv_from_svd(res, int(np.sum(res.singular_values > inst.factor.cutoff)))


@pytest.mark.parametrize("build", [
    lambda: make_lpa(get_family("seidman"), 8, 32),
    lambda: make_lpa(get_family("du"), 4, 36),
    lambda: make_lpa(get_family("best-lpa"), 8, 20),
    lambda: make_lpa(get_family("random", kernel_dim=3, seed=0), 6, 12),
    lambda: LpaInstance(random_finite_kernel(12, 3, 0), 5, x_basis=np.linalg.qr(
        np.random.default_rng(0).standard_normal((12, 5)))[0]),
    lambda: make_lpa(get_family("identity"), 3, 6),
    lambda: LpaInstance(np.zeros((5, 5)), 2),
    lambda: make_lpa(get_family("du"), 42, 168),
], ids=["seidman", "du", "best-lpa", "random-kernel-inside", "random-kernel-outside",
        "identity", "zero", "du-kernel-at-the-cutoff"])
def test_tn_pinv_matches_dense_oracle(build):
    # X_n (T X_n)^+ against the SVD of the m x m matrix T_n = T P_{X_n}, cut
    # where txn_svd cuts. du at n = 42: its 2^-n direction (2.3e-13) is under
    # that cutoff (3.7e-13) but 6x over m eps sigma_max(T X_n), so T_n^+ must
    # drop it, as the kernel core does
    inst = build()
    dense = _dense_tn_pinv(inst)
    diff = np.linalg.norm(inst.tn_pinv - dense, 2)
    assert diff <= 1e-10 * np.linalg.norm(dense, 2)
    # rank(A^+) = trace(A^+ A), A^+ A being an orthogonal projector
    assert round(np.trace(inst.tn_pinv @ inst.tn())) == round(np.trace(dense @ inst.tn()))
    # tn_pinv_apply, through the factors of T X_n, against the dense T_n^+
    y = np.random.default_rng(1).standard_normal(inst.m)
    assert np.linalg.norm(tn_pinv_apply(inst, y) - inst.tn_pinv @ y) <= \
        1e-12 * np.linalg.norm(inst.tn_pinv, 2) * np.linalg.norm(y)


# ------------------------------------------------ T inverted through its inverse


def _lu_inverse(t):
    # T^{-1} by one LAPACK inverse (LU with partial pivoting), handed to the
    # factor in OperatorFamily.inverse's form: (apply, sigma_max), the value
    # from LAPACK's values-only SVD of T
    return np.linalg.inv(t).__matmul__, np.linalg.svd(t, compute_uv=False)[0]


def _inverse_50_digits(t):
    # T^{-1} by a 50-digit LU, rounded to doubles
    with mpmath.workdps(50):
        return np.array((mpmath.matrix(t.tolist()) ** -1).tolist(), dtype=float)


def _assert_factors_agree(inverted, dense, reference=None):
    # an inverted factor against the SVD route's on the same T: full rank,
    # sigma_max to 1e-13 relative, and T^+ as a matrix and applied,
    # within m eps cond(T) ||T^+||, the order of either route's forward error
    # (the routes differed by 1e-7 of it on seidman(768)). T^+ is compared
    # with reference when given, else with the SVD route's
    m = dense.m
    assert inverted.u_rho is None and inverted.rank == dense.rank == m
    assert inverted.kernel.dim == 0
    assert inverted.sigma_max == pytest.approx(dense.sigma_max, rel=1e-13, abs=0)
    scale = np.linalg.norm(dense.t_pinv, 2)
    tol = m * EPS * (dense.sigma_max / dense.s_rho[-1]) * scale
    want = dense.t_pinv if reference is None else reference
    assert np.linalg.norm(inverted.t_pinv - want, 2) <= tol
    apply = dense.pinv_apply if reference is None else reference.__matmul__
    v = np.random.default_rng(m).standard_normal((m, 3))
    for w in (v, v[:, 0]):
        assert np.linalg.norm(inverted.pinv_apply(w) - apply(w)) <= tol * np.linalg.norm(w)


def _assert_diagnoses_agree(a, b, sine_abs=1e-10, norm_rel=1e-9):
    # every diagnose field of two instances on one (T, X_n): sines to
    # sine_abs absolute (theta_n through its sine), norms to norm_rel
    got, want = diagnose(a), diagnose(b)
    for field in ("n", "m", "kernel_core_dim", "kernel_dim"):
        assert getattr(got, field) == getattr(want, field), field
    assert abs(math.sin(got.theta_n) - math.sin(want.theta_n)) <= sine_abs
    for field in ("sin_theta_gap", "sin_theta_qn", "kernel_gap"):
        assert abs(getattr(got, field) - getattr(want, field)) <= sine_abs, field
    for field in ("norm_tn_dag_t", "bound_factor"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=norm_rel, abs=0), field


def _assert_rows_agree(inverted, dense, n, x_basis=None):
    # every diagnose field and the bound check's verdict, with the inverted
    # factor and with the SVD route's
    a, b = (LpaInstance(f, n, x_basis) for f in (inverted, dense))
    _assert_diagnoses_agree(a, b)
    y = np.random.default_rng(n).standard_normal(dense.m)
    assert error_bound_check(a, y).passed == error_bound_check(b, y).passed


def _known_and_lapack_factors(fam, m, subspace_tol, want=None):
    # shared_factors reads the factor off the SVD the family knows
    # (singular_triplets: best-lpa's model, du's closed form);
    # TruncationFactor(t), or want when given, takes LAPACK's SVD of the
    # formed T. Same rank,
    # cutoffs within 10 m eps relative, row spaces and kernels within
    # subspace_tol, and T^+ applied within m eps cond(T) ||T^+||
    # (_assert_factors_agree's bound). du's row space, held as its
    # reflector's columns, is formed here to take the gap
    got, want = shared_factors(fam)(m), want or TruncationFactor(fam.truncate(m))
    assert "t_pinv" not in vars(got)
    assert got.rank == want.rank
    assert got.cutoff == pytest.approx(want.cutoff, rel=10 * m * EPS, abs=0)
    assert got.u_rho.shape == (m, got.rank)
    assert gap(got.rowspace, want.rowspace) <= subspace_tol
    assert gap(got.kernel, want.kernel) <= subspace_tol
    v = np.random.default_rng(m).standard_normal((m, 3))
    tol = m * EPS * (want.sigma_max / want.s_rho[-1]) * np.linalg.norm(want.t_pinv, 2)
    for w in (v, v[:, 0]):
        assert np.linalg.norm(got.pinv_apply(w) - want.pinv_apply(w)) <= tol * np.linalg.norm(w)
    return got, want


@pytest.mark.parametrize("m", [20, 64, 512])
def test_best_lpa_factor_from_its_singular_system_matches_lapack(m):
    # and every row agrees, bound check included (cond(T) = 144)
    fam = get_family("best-lpa")
    got, want = _known_and_lapack_factors(fam, m, 1e-12)
    assert got.rank == len(fam.params["sigmas"])
    for n in range(1, fam.max_n + 1):
        _assert_rows_agree(got, want, n, fam.xn_basis(n, m))


def test_best_lpa_kernel_below_the_prescribed_rank_matches_lapack():
    # sigma = 1e-14 lies under the cutoff 10 m eps at m = 20, so T's rank is
    # 2 < r = 3: the model's kernel is its V's columns 2..m-1, the third
    # right singular vector among them, within 1e-12 in gap of LAPACK's
    fam, m = get_family("best-lpa", sigmas=[1, 0.5, 1e-14]), 20
    got, want = shared_factors(fam)(m), TruncationFactor(fam.truncate(m))
    assert got.rank == want.rank == 2
    assert isinstance(got.kernel, Reflector) and list(got.kernel.keep) == list(range(2, m))
    assert gap(got.kernel, want.kernel) <= 1e-12


def test_du_row_at_n_equal_m_caches_no_reflector_basis():
    # at n = m du's rho = m - 1 < dim X_n, so the row reads U_rho^T T,
    # rho x m, off the factor; U_rho's columns are applied in blocks, not
    # formed as a basis that stays on the factor beside it. What the factor
    # holds after the row is under 1.1 x 8 m^2
    fam, m = get_family("du"), 768
    np.random.default_rng  # numpy imports numpy.random on first use: not in the trace
    tracemalloc.start()
    try:
        factor = shared_factors(fam)(m)
        diagnose(make_lpa(fam, m, m, factor))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "ut_rho" in vars(factor) and "basis" not in vars(factor.u_rho)
    assert held < 1.1 * 8 * m * m, held / (8 * m * m)


def test_graded_best_lpa_factor_from_its_singular_system_matches_lapack():
    # sigmas down to 1e-9 leave the formed T's singular subspaces determined
    # only to about eps ||T|| / 1e-9 (Wedin), so the factors' row spaces and
    # kernels are held to m eps cond(T) = 4.4e-6 (they differ by 2.6e-8).
    # The rows' sines, 0 in exact arithmetic, are held to 1e-6 across the
    # factors, perfbench's bound on the Q_n route (checks.ROUTE_AGREEMENT),
    # and their norms, 1, to 1e-8, its bound on best-lpa's closed forms. They
    # differ by up to 2.8e-8 and 1.5e-9: the Q_n route applies T^+ to U_r
    # and reads up to 2.8e-8 off the model's T^+, 3.1e-8 off LAPACK's;
    # kernel_gap reads 4e-16 to 9e-16 on the model's factor (X_n holds its
    # kernel exactly) and 1.4e-8 to 1.6e-8 on LAPACK's. Below n = 4 the gap
    # route's sines agree to 1e-10; at n = 4, X_n = R^m and T_n = T, where
    # each route's sine is roundoff at cond(T) = 1e9. So the kernel verdict
    # differs at every n: only the model's factor reads kernel_gap <= check,
    # captures the kernel and runs the bound check, which passes. At n = 4,
    # X_n = R^m contains N(T) exactly, and the model's factor reads
    # kernel_gap 9e-16 there
    fam = get_family("best-lpa", sigmas=[1, 1e-3, 1e-6, 1e-9], kernel_dim=2)
    m, check = 20, Tolerances().check
    got, want = _known_and_lapack_factors(fam, m, m * EPS * 1e9)
    assert got.rank == len(fam.params["sigmas"])
    captured = {}
    for n in range(1, fam.max_n + 1):
        a, b = (LpaInstance(f, n, fam.xn_basis(n, m)) for f in (got, want))
        _assert_diagnoses_agree(a, b, 1e-6, 1e-8)
        if n < fam.max_n:
            assert abs(diagnose(a).sin_theta_gap - diagnose(b).sin_theta_gap) <= 1e-10
        captured[n] = (kernel_captured(a, check), kernel_captured(b, check))
        if captured[n][0]:
            assert error_bound_check(a, np.random.default_rng(n).standard_normal(m)).passed
    assert captured == {1: (True, False), 2: (True, False), 3: (True, False), 4: (True, False)}


@pytest.mark.parametrize("m", [1, 2, 12, 22, 23, 30, 192, 256, 257, 511, 512, 513, 768, 1100])
def test_du_factor_in_closed_form_matches_lapack(m):
    # du's factor, its reflector applied and never formed, against LAPACK's
    # SVD of the whole formed T. rho = m below the rank cliff (m <= 22),
    # m - 1 above; the factor keeps the kernel H e_1 alone.
    # From m = 257 on, T drops entries below sqrt(tiny) that the closed
    # form, the SVD of I - 3 w w^T, keeps; their norm is under 2^-500, so
    # the closed form still reproduces T to m eps entrywise: as the formed
    # vectors (the oracles' arrays) and as U_rho Sigma_rho V_rho^T through
    # the factor's maps (u_rho.apply of Sigma_rho R^T), which omits
    # sigma_{rho+1} too, 4^-23 at m = 23, the one m here where that is
    # above m eps. The formed V stores no nonzero below sqrt(tiny), so no
    # product of two of its entries is subnormal
    fam = get_family("du")
    cached = _lapack_factor(f"du-{m}")[0] if f"du-{m}" in _LAPACK_INPUTS else None
    got, want = _known_and_lapack_factors(fam, m, 1e-12, cached)
    assert isinstance(got.u_rho, Reflector) and got.kernel.dim == m - got.rank <= 1
    t, (s, vectors) = fam.truncate(m), fam.singular_triplets(m)
    u, row, kernel = vectors(m)
    vt = np.hstack([row.basis, kernel.basis]).T
    assert np.abs((u.basis * s) @ vt - t).max() <= m * EPS
    dropped = s[got.rank] if got.rank < m else 0.0
    rho_part = got.u_rho.apply((got.rowspace.coords(np.eye(m)).T * got.s_rho).T)
    assert np.abs(rho_part - t).max() <= m * EPS + dropped
    stored = np.abs(vt[vt != 0])
    assert stored.min() >= math.sqrt(np.finfo(float).tiny)


def test_du_factor_certifies_its_reflector():
    # du's reflector hands over H's columns unformed, with no Gram check;
    # it certifies instead that H = I - S_11 y y^T is a reflector,
    # S_11 y^T y = 2, when the factor takes them
    fam, m = get_family("du"), 30
    s, h = fam.singular_triplets(m)
    TruncationFactor(fam.products(m), singular_triplets=(s, h))
    h.s[0, 0] *= 1.0 + 1e-10
    with pytest.raises(ValueError, match="reflector"):
        TruncationFactor(fam.products(m), singular_triplets=(s, h))


@pytest.mark.parametrize("n", [8, 16, 20, 30, 40])
def test_du_closed_form_reads_a_zero_offset_to_roundoff(n):
    # with the factor read off the graded reflector (singular_triplets), the
    # gap route's sine at m = 4n is 4.4e-16 to 1.7e-15; LAPACK's factor
    # read up to 1.5e-11 on these rows
    assert diagnose(make_lpa(get_family("du"), n, 4 * n)).sin_theta_gap <= 1e-14


@functools.cache
def _seidman_factors(m):
    # T inverted in closed form (shared_factors, through the family's
    # inverse), then the SVD route's factor
    fam = get_family("seidman")
    return shared_factors(fam)(m), TruncationFactor(fam.truncate(m))


@settings(max_examples=15, deadline=None)
@given(m=st.sampled_from([32, 256, 768]), fraction=st.floats(0.0, 0.5))
def test_inverted_seidman_matches_svd_route(m, fraction):
    # n up to m / 2 (the shipped configs use m = 4n); near n = m,
    # ||T_n^+ T|| = 1 is read as ||Sigma^{-1} U^T T|| at cond(T) ~ 6e8 and
    # both routes sit 5e-9 to 2e-8 off it at m = 768
    *inverted, dense = _seidman_factors(m)
    for factor in inverted:
        _assert_factors_agree(factor, dense)
        _assert_rows_agree(factor, dense, max(1, int(fraction * m)))


def _largest_root_50_digits(poles, z, lam):
    # the largest root of 1 + sum z_k^2 / (poles_k - lambda) at 50 digits,
    # by Newton's method from lam; poles and z are mpmath numbers
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        for _ in range(8):
            terms = [zk * zk / (p - lam) for zk, p in zip(z, poles)]
            lam -= (1 + mpmath.fsum(terms)) / mpmath.fsum(q / (p - lam) for q, p in zip(terms, poles))
        return lam


def _seidman_sigma_max_50_digits(t, sigma_max):
    # the largest singular value of the formed seidman T, at 50 digits:
    # T = z e_1^T + diag(0, d_2, ...), z = T e_1, so sigma_max^2 is the
    # largest root of the secular equation of diag(0, d_2^2, ...) + z z^T,
    # refined from the value given
    with mpmath.workdps(50):
        d = [mpmath.mpf(float(x)) for x in np.diag(t)]
        z = [mpmath.mpf(float(x)) for x in t[:, 0]]
        big = _largest_root_50_digits([0] + [dk * dk for dk in d[1:]], z, mpmath.mpf(sigma_max) ** 2)
        return float(mpmath.sqrt(big))


@pytest.mark.parametrize("m", [1, 2, 3, 64, 65, 768, 2048])
def test_seidman_inverse_in_closed_form_matches_lapack(m):
    # T^{-1} = D^{-1} - (c/d) e_1^T: apply(I) against LAPACK's inverse of the
    # formed T entrywise, within m eps max|T^{-1}_ij| <= m eps ||T^{-1}||
    # (they differ by 2.6e-19 of it at m = 768). sigma_max against LAPACK's
    # values-only SVD within 4 eps relative, then within 2 eps of a 50-digit
    # root of the secular equation (m = 1 is a single pole). At m <= 72 a
    # 50-digit inverse is the oracle of apply(I): each entry is one rounded
    # quotient, so within eps of it
    fam = get_family("seidman")
    t = fam.truncate(m)
    apply, sigma_max = fam.inverse(m)
    got, want = apply(np.eye(m)), np.linalg.inv(t)
    assert np.abs(got - want).max() <= m * EPS * np.abs(want).max()
    s = np.linalg.svd(t, compute_uv=False)
    v = np.random.default_rng(m).standard_normal((m, 3))
    for w in (v, v[:, 0]):  # and applied, within m eps ||T^{-1}|| ||w||
        assert np.linalg.norm(apply(w) - want @ w) <= m * EPS / s[-1] * np.linalg.norm(w)
    assert sigma_max == pytest.approx(s[0], rel=4 * EPS, abs=0)
    if mpmath is None:
        pytest.skip("the 50-digit oracles need mpmath>=1.3 (the test extra)")
    assert sigma_max == pytest.approx(_seidman_sigma_max_50_digits(t, s[0]), rel=2 * EPS, abs=0)
    if m <= 72:
        exact = _inverse_50_digits(t)
        assert np.all(np.abs(got - exact) <= EPS * np.abs(exact))


def _spectrum(rng, m, ratio):
    # s log-uniform from sigma_max = 1 down to sigma_min = ratio, descending
    s = np.sort(np.exp(rng.uniform(math.log(ratio), 0.0, m)))[::-1]
    s[0], s[-1] = 1.0, ratio
    return s


def _graded(rng, m, ratio):
    # Q1 diag(s) Q2^T, s = _spectrum's
    s = _spectrum(rng, m, ratio)
    q1, q2 = (np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in "12")
    return (q1 * s) @ q2.T


def _graded_of_kind(rng, m, ratio, kind):
    # R^T, R the triangular factor of _graded's QR, with the same singular
    # values ("lower"); or diag(s) with a first column below it, lower
    # triangular like seidman ("arrow")
    if kind == "arrow":
        t = np.diag(_spectrum(rng, m, ratio))
        t[1:, 0] = rng.standard_normal(m - 1) / np.arange(2, m + 1)
        return t
    return np.ascontiguousarray(np.linalg.qr(_graded(rng, m, ratio))[1].T)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.sampled_from([5, 8, 13, 21, 34]),
       log2_k=st.floats(-2.0, 6.0), data=st.data())
def test_inverted_factor_proves_the_rank_of_every_txn(seed, m, log2_k, data):
    # T = Q1 diag(s) Q2^T with sigma_min / sigma_max = k 10 m eps, the cutoff
    # txn_svd applies at rank_tol None, k in [1/4, 64], log-uniform, handed
    # its LAPACK inverse: T is inverted at every k, with rank m. Where
    # sigma_min clears the cutoff by m eps sigma_max, LAPACK's error on the
    # values of T X_n, every row has r = dim X_n, the SVD route's r; elsewhere
    # a row has r = dim X_n or raises, and never reads a kernel core that
    # N(T) = {0} cannot hold. r is the rank at LAPACK's sigma_max, and
    # diagnose takes no m x m SVD, with or without vectors (2 dim X_n < m, so
    # no row-sized matrix is m x m either)
    rng = np.random.default_rng(seed)
    t = _graded(rng, m, 2.0**log2_k * _default_tol(m))
    factor = TruncationFactor(t, inverse=_lu_inverse(t))
    assert factor.u_rho is None and (factor.rank, factor.kernel.dim) == (m, 0)
    n = data.draw(st.integers(1, (m - 1) // 2))
    basis = np.linalg.qr(rng.standard_normal((m, n)))[0] if data.draw(st.booleans()) else None
    inst = LpaInstance(factor, n, basis)
    s = np.linalg.svd(t, compute_uv=False)
    clears = s[-1] - factor.cutoff > m * EPS * s[0]
    refused = None
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        try:
            diagnose(inst)
        except ArithmeticError as exc:
            refused = exc
    assert [c for c in calls if c[0] == (m, m)] == [], calls
    if refused is not None:
        assert not clears and "dim N(T) = 0" in str(refused)
        return
    res, r = inst.txn_svd
    assert r == n == rank_cutoff(res.singular_values, (m, n), anchor=s[0])[0]
    if clears:
        assert r == LpaInstance(TruncationFactor(t), n, basis).txn_svd[1]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.sampled_from([5, 8, 13, 21]),
       log2_k=st.floats(-2.0, 6.0))
def test_t_and_t_xn_share_one_rank_at_xn_the_whole_space(seed, m, log2_k):
    # T = Q1 diag(s) Q2^T with sigma_min / sigma_max = k 10 m eps, k in
    # [1/4, 64], log-uniform, so sigma_min falls on either side of the
    # default cutoff. At X_n = R^m, T X_n is T: its rank r is T's, and the
    # kernel core N(T) & R^m is no larger than N(T)
    t = _graded(np.random.default_rng(seed), m, 2.0**log2_k * _default_tol(m))
    inst = LpaInstance(TruncationFactor(t), m)
    assert inst.txn_svd[1] == inst.rank
    assert inst.kernel_core_dim <= inst.kernel_dim


def test_seidman_scan_at_768_takes_no_m_by_m_svd(monkeypatch):
    # seidman's truncation is inverted, its rank decided on the extreme
    # singular values handed with the inverse: no SVD of T, with or without
    # vectors
    calls = _count_svd_calls(monkeypatch)
    rows = run_scan(scan_config_from_dict({"operator": {"name": "seidman"},
                                           "n_list": [32, 64], "m_rule": "fixed:768"})).rows
    assert [row.n for row in rows] == [32, 64] and calls
    assert [c for c in calls if c[0] == (768, 768)] == []


def test_seidman_factor_keeps_nothing_m_by_m_beyond_t():
    # seidman's factor, through the family's closed-form inverse, keeps
    # vectors of length m and no m x m array; T is read through its
    # products and never formed (a T built outside the trace is handed to
    # truncate, which the factor does not call). Its temporaries are
    # vectors of length m too: sigma_max is the root of an O(m) secular
    # equation
    m = 768
    fam = get_family("seidman")
    t = fam.truncate(m)
    fam = dataclasses.replace(fam, truncate=lambda k: t)
    tracemalloc.start()
    try:
        factor = shared_factors(fam)(m)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.u_rho is None and factor.rank == m
    assert "t_pinv" not in vars(factor) and "t" not in vars(factor)  # formed only when read
    assert not hasattr(factor, "rowspace") and not hasattr(factor, "s_rho")
    assert kept < 0.05 * 8 * m * m, kept / (8 * m * m)
    assert peak < 0.03 * 8 * m * m, peak / (8 * m * m)


def _assert_seidman_inverted(m):
    # T is inverted in closed form, with no SVD of T and no inverse of an
    # m x m input
    inverses = []
    real_inv = np.linalg.inv
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        mp.setattr(np.linalg, "inv", lambda a: inverses.append(np.shape(a)) or real_inv(a))
        factor = shared_factors(get_family("seidman"))(m)
    assert factor.u_rho is None and factor.rank == m
    assert calls == [] and inverses == []


def test_seidman_at_2048_is_inverted():
    _assert_seidman_inverted(2048)


def test_seidman_at_3072_is_inverted():
    # T is inverted, with no O(m^3) step
    _assert_seidman_inverted(3072)


def test_seidman_past_4223_is_inverted_with_no_kernel():
    # from m = 4224 seidman's sigma_min sits under the cutoff 10 m eps
    # sigma_max, with no gap in the spectrum; its closed-form inverse still
    # certifies N(T) = {0}.
    # So T is inverted with rank m and no m x m SVD, and the rows at
    # m = 5000 read no kernel. At n = 64 the sine and ||T_n^+ T|| are the
    # values LAPACK's SVD of the whole T gave, on seidman's c/m curve
    fam = get_family("seidman")
    factor = shared_factors(fam)
    with pytest.MonkeyPatch.context() as mp:
        _count_svd_calls(mp, refuse=(4224, 4224))
        f = factor(4224)
        assert (f.rank, f.kernel.dim) == (4224, 0)
        del f  # so that factor(5000) frees it first
    m = 5000
    with pytest.MonkeyPatch.context() as mp:
        _count_svd_calls(mp, refuse=(m, m))
        f = factor(m)
        assert (f.rank, f.kernel.dim) == (m, 0)
        rows = {n: diagnose(make_lpa(fam, n, m, f)) for n in (8, 64)}
    assert [(row.kernel_dim, row.kernel_core_dim) for row in rows.values()] == [(0, 0), (0, 0)]
    assert f"{rows[64].sin_theta_gap:.8f}" == "0.99307670"
    assert f"{rows[64].norm_tn_dag_t:.7f}" == "8.5129754"


def test_inverted_factor_refuses_a_row_whose_core_exceeds_its_kernel():
    # T = diag(1, 1e-15), handed its exact inverse, is certified injective:
    # rank 2 and K = {0}. Its second singular value is under the cutoff,
    # 10 m eps = 4.4e-15, so at X_n = R^2, T X_n = T has r = 1: a kernel
    # core of dimension 1, which N(T) = {0} cannot hold
    t = np.diag([1.0, 1e-15])
    factor = TruncationFactor(t, inverse=(np.diag([1.0, 1e15]).__matmul__, 1.0))
    assert (factor.rank, factor.kernel.dim) == (2, 0)
    with pytest.raises(ArithmeticError, match=r"1 singular values at or under the cutoff "
                                              r"4\.441e-15, more than dim N\(T\) = 0"):
        LpaInstance(factor, 2).txn_svd


@_needs_mpmath
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(65, 72), log2_ratio=st.floats(-16.0, 0.0),
       kind=st.sampled_from(["lower", "arrow"]), data=st.data())
def test_triangular_inverse_matches_a_50_digit_inverse(seed, m, log2_ratio, kind, data):
    # a lower triangular T (sigma_min / sigma_max = 2^log2_ratio, near it for
    # an arrow T, seidman's pattern) handed its LAPACK inverse (_lu_inverse):
    # T^{-1} within m eps cond(T) ||T^{-1}|| of a 50-digit inverse, and every
    # row as the SVD route's
    t = _graded_of_kind(np.random.default_rng(seed), m, 2.0**log2_ratio, kind)
    inverted = TruncationFactor(t, inverse=_lu_inverse(t))
    dense = TruncationFactor(t)
    _assert_factors_agree(inverted, dense, _inverse_50_digits(t))
    _assert_rows_agree(inverted, dense, data.draw(st.integers(1, m // 2)))


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
    want_ran = orthonormal_range(inst.t_pinv @ (inst.t @ inst.x_n.basis))
    assert gap(ran, want_ran) <= 1e-8
    ker = kernel_basis(qn)
    image = orthonormal_range(inst.t.T @ (inst.t @ inst.x_n.basis))
    assert np.linalg.norm(image.basis.T @ ker.basis, 2) <= 1e-8


def test_qn_matrix_idempotency_defect_at_depth():
    inst = make_lpa(get_family("seidman"), 64, 256)
    qn = qn_matrix(inst)
    assert np.linalg.norm(qn @ qn - qn, 2) <= 1e-8 * (1 + np.linalg.norm(qn, 2) ** 2)


def test_qn_matrix_zero_operator():
    inst = LpaInstance(np.zeros((5, 5)), 2)
    assert np.array_equal(qn_matrix(inst), np.zeros((5, 5)))


_QN_FAMILIES = {
    "seidman": ("seidman", {}),
    "du": ("du", {}),
    "best-lpa": ("best-lpa", {}),
    "best-lpa-graded": ("best-lpa", {"sigmas": [1, 1e-3, 1e-6, 1e-9], "kernel_dim": 2}),
    "random": ("random", {}),
    "identity": ("identity", {}),
}


def _assert_thin_qn_sine_matches_dense(inst) -> None:
    # The thin tan against the dense ||Q_n - P_R||, R = ran Q_n from the SVD
    # of the m x m oracle, to 1e-12 plus the oracle's idempotency defect
    # ||Q_n^2 - Q_n|| = ||A (B^T A - I) B^T||: the route reads only B's part
    # off ran A, so it takes the tan of A B'^T, B'^T A = I exactly, and the
    # dense A B^T differs from that by Q_A R_A (B^T A - I) R_A^{-1} Q_A^T,
    # to first order no larger. The defect is T^+'s roundoff in A = T^+ U_r
    # (4e-8 on the graded best-lpa edge). The sine against the dense sqrt
    # form, to 1e-12 above that form's sqrt(eps) floor.
    qn = qn_matrix(inst)
    dense_tan = float(np.linalg.norm(qn - projector(orthonormal_range(qn)), 2))
    defect = float(np.linalg.norm(qn @ qn - qn, 2))
    assert _tan_theta_qn(inst) == pytest.approx(dense_tan, rel=1e-12, abs=1e-12 + defect)
    dense, thin = sqrt_form_sine(qn), inst.offset_sines[1]
    if dense > 1e-6:
        assert thin == pytest.approx(dense, abs=1e-12)
    else:
        assert thin <= 1e-6


@settings(max_examples=80, deadline=None)
@given(label=st.sampled_from(sorted(_QN_FAMILIES)), data=st.data())
def test_thin_qn_sine_matches_dense_oracle(label, data):
    name, params = _QN_FAMILIES[label]
    fam = get_family(name, **params)
    n = data.draw(st.integers(1, min(fam.max_n or 16, 16)), label="n")
    m = data.draw(st.integers(max(n, fam.min_m), 40), label="m")
    _assert_thin_qn_sine_matches_dense(make_lpa(fam, n, m))


@pytest.mark.parametrize("build", [
    lambda: LpaInstance(np.zeros((5, 5)), 2),
    lambda: make_lpa(get_family("seidman"), 12, 12),
    lambda: make_lpa(get_family("seidman"), 6, 10),
    lambda: make_lpa(get_family("du"), 6, 6),
    lambda: make_lpa(get_family("random", kernel_dim=2, seed=3), 9, 9),
    lambda: make_lpa(get_family("identity"), 7, 7),
    lambda: make_lpa(get_family("best-lpa", **_QN_FAMILIES["best-lpa-graded"][1]), 4, 6),
], ids=["r-0", "seidman-n-eq-m", "seidman-2r-above-m", "du-n-eq-m", "random-n-eq-m",
        "identity-n-eq-m", "best-lpa-graded-n-eq-r-m-eq-min"])
def test_thin_qn_sine_matches_dense_oracle_at_edges(build):
    # r = 0, where A and B have no columns and the route reads 0; n = m with
    # T invertible, where Q_n = I = P_R and the tan is roundoff; 2r > m; and
    # a graded spectrum at its least m
    _assert_thin_qn_sine_matches_dense(build())


def test_qn_factors_through_kernel_complement():
    # Q_n equals P_{N(T) complement} T_n^+ T on finite-kernel operators
    for seed in (0, 1, 2):
        inst = coordinate_instance(seed, 14, 6, 1 + seed)
        lhs = qn_matrix(inst)
        rhs = projector(inst.factor.rowspace) @ inst.tn_pinv @ inst.t
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-7


# ------------------------------------------------- reads off T's rank-rho factor


def _rank_is_clear(s, delta, shape, rank_tol, anchor=None) -> bool:
    # no singular value lies within delta of the rank rule's cutoff: shifting
    # all of them by -delta or +delta moves none across it
    lo = rank_cutoff(np.maximum(s - delta, 0.0), shape, rank_tol, anchor)[0]
    return lo == rank_cutoff(s + delta, shape, rank_tol, anchor)[0]


def _assert_factor_reads_match_dense(inst) -> None:
    # txn_svd (the SVD of U_rho^T T X_n) against the SVD of the m x dim X_n
    # product, the kernel gap and the containment decision against
    # linalg.gap on the dense core, and, where N(T) is captured, the second
    # route linalg.deficiency(N(T), X_n), which the core's gap bounds since
    # the core lies in X_n. What the thin form drops,
    # (I - U_rho U_rho^T) T X_n, has norm at most sigma_{rho+1}(T); delta
    # adds roundoff headroom.
    k, shape = inst.x_n.dim, (inst.m, inst.x_n.dim)
    txn = inst.t @ inst.x_n.basis
    dense = svd(txn, full_matrices=False)
    res, r = inst.txn_svd
    s, s_dense = res.singular_values, dense.singular_values
    tail = np.linalg.svd(inst.t, compute_uv=False)[inst.rank:]
    delta = (tail[0] if tail.size else 0.0) + 1e-13 * inst.factor.sigma_max
    assert s.size == min(inst.rank, k)
    assert np.all(np.abs(s - s_dense[:s.size]) <= delta)
    assert np.all(s_dense[s.size:] <= delta)
    if not txn.any():  # X_n inside a planted kernel: exact zeros stay exact
        assert not s.any() and r == 0
    want_r = rank_cutoff(s_dense, shape, inst.factor.rank_tol, inst.factor.sigma_max)[0]
    if _rank_is_clear(s_dense, delta, shape, inst.factor.rank_tol, inst.factor.sigma_max):
        assert r == want_r
    if r == want_r:
        # U_r and the kernel core move by at most delta over the singular
        # value separation at r (Wedin), a bound of 1 being no bound
        sep = s_dense[r - 1] - (s_dense[r] if r < s_dense.size else 0.0) if r else 1.0
        bound = min(1.0, 4.0 * delta / sep)
        assert gap(Subspace(res.u[:, :r]), Subspace(dense.u[:, :r])) <= bound
        dense_core = Subspace(inst.x_n.basis @ dense.vt[r:].T)
        assert gap(kernel_core(inst), dense_core) <= bound
    core = kernel_core(inst)
    assert inst.kernel_core_dim == core.dim
    assert inst.kernel_gap == pytest.approx(gap(core, inst.kernel), abs=1e-13)
    check = Tolerances().check
    captured = kernel_captured(inst, check)
    assert captured == (core.dim == inst.kernel.dim and gap(core, inst.kernel) <= check)
    if captured:
        assert deficiency(inst.kernel, inst.x_n) <= inst.kernel_gap + 1e-13


def _perturbed_kernel_instance(m, kernel_dim, n, eps, seed) -> LpaInstance:
    # T's kernel is span{e^1, ..., e^kernel_dim}; X_n holds it perturbed by
    # eps, plus n - kernel_dim random directions
    rng = np.random.default_rng(seed)
    b = np.eye(m, n) + eps * rng.standard_normal((m, n))
    b[:, kernel_dim:] = rng.standard_normal((m, n - kernel_dim))
    return LpaInstance(random_finite_kernel(m, kernel_dim, seed), n,
                       x_basis=np.linalg.qr(b)[0])


def _kernel_within_check_instance() -> LpaInstance:
    # X_n holds N(T) perturbed by 1e-10: deficiency(N(T), X_n) = 4.1e-10 is
    # within check, yet T X_n keeps every direction (core 0 < dim N(T) = 2),
    # so N(T) is not captured
    inst = _perturbed_kernel_instance(20, 2, 6, 1e-10, 3)
    assert deficiency(inst.kernel, inst.x_n) <= Tolerances().check
    assert inst.kernel_core_dim == 0 < inst.kernel_dim == 2
    return inst


@settings(max_examples=150, deadline=None)
@given(label=st.sampled_from([*sorted(_QN_FAMILIES), "zero", "x-is-kernel",
                              "kernel-wider", "perturbed-containment"]),
       data=st.data())
def test_factor_reads_match_dense_oracles(label, data):
    m = data.draw(st.integers(3, 40), label="m")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    if label in _QN_FAMILIES:
        name, params = _QN_FAMILIES[label]
        fam = get_family(name, **params)
        n = data.draw(st.integers(1, min(fam.max_n or 16, 16)), label="n")
        inst = make_lpa(fam, n, max(m, n, fam.min_m))
    elif label == "zero":  # rho = 0
        inst = LpaInstance(np.zeros((m, m)), data.draw(st.integers(1, m), label="n"))
    elif label == "x-is-kernel":  # T X_n is exactly 0
        kd = data.draw(st.integers(1, m - 1), label="kernel_dim")
        inst = LpaInstance(random_finite_kernel(m, kd, seed), kd)
    elif label == "kernel-wider":  # dim N(T) > dim X_n: containment fails
        kd = data.draw(st.integers(2, m - 1), label="kernel_dim")
        inst = LpaInstance(random_finite_kernel(m, kd, seed),
                           data.draw(st.integers(1, kd - 1), label="n"))
        assert not kernel_captured(inst, Tolerances().check)
    else:
        kd = data.draw(st.integers(1, m - 1), label="kernel_dim")
        inst = _perturbed_kernel_instance(
            m, kd, data.draw(st.integers(kd, m), label="n"),
            10.0 ** data.draw(st.integers(-14, -2), label="log10_eps"), seed)
    _assert_factor_reads_match_dense(inst)


def _graded_best_lpa_thin_v() -> LpaInstance:
    # r = 3 < rho = 4 < dim X_n = 5: txn_svd factors the 4 x 5 Z thin, so
    # kernel_gap projects V_r out and kernel_core completes V_r itself
    fam = get_family("best-lpa", **_QN_FAMILIES["best-lpa-graded"][1])
    inst = make_lpa(fam, 3, 6)
    res, r = inst.txn_svd
    assert (r, inst.rank, inst.x_n.dim, res.vt.shape) == (3, 4, 5, (4, 5))
    return inst


@pytest.mark.parametrize("build", [
    lambda: LpaInstance(np.zeros((5, 5)), 2),
    lambda: LpaInstance(np.zeros((5, 5)), 5),
    lambda: LpaInstance(random_finite_kernel(10, 3, 0), 3),
    lambda: LpaInstance(random_finite_kernel(10, 3, 0), 2),
    lambda: make_lpa(get_family("seidman"), 12, 12),
    lambda: make_lpa(get_family("du"), 6, 6),
    # 4^-23 = 1.42e-14 lies between m eps (5.1e-15) and the cutoff 10 m eps
    # (5.1e-14): rank T = r = 22, and the core is N(T) = span{e}
    lambda: make_lpa(get_family("du"), 23, 23),
    lambda: make_lpa(get_family("best-lpa"), 12, 20),
    lambda: make_lpa(get_family("random", kernel_dim=2, seed=3), 9, 9),
    *[lambda e=e: _perturbed_kernel_instance(20, 3, 6, e, 7) for e in (1e-14, 1e-8, 1e-2)],
    _kernel_within_check_instance,
    _graded_best_lpa_thin_v,
], ids=["rho-0", "rho-0-n-eq-m", "x-is-kernel", "kernel-wider", "seidman-n-eq-m",
        "du-n-eq-m", "du-23-n-eq-m", "best-lpa-n-eq-m", "random-n-eq-m",
        "perturbed-1e-14", "perturbed-1e-8", "perturbed-1e-2", "kernel-within-check",
        "graded-best-lpa-thin-v"])
def test_factor_reads_match_dense_oracles_at_edges(build):
    inst = build()
    _assert_factor_reads_match_dense(inst)
    r = inst.txn_svd[1]
    assert r == rank_cutoff(svd(inst.t @ inst.x_n.basis).singular_values,
                            (inst.m, inst.x_n.dim), inst.factor.rank_tol,
                            inst.factor.sigma_max)[0]
    if inst.x_n.dim == inst.m:  # T X_n is T in another basis: one rank, one kernel
        assert r == inst.rank and inst.kernel_core_dim == inst.kernel_dim
    # the bound check and the zero-offset report read the one decision
    captured = kernel_captured(inst, Tolerances().check)
    assert zero_offset_characterization(inst).kernel_inside == captured
    if not captured:
        with pytest.raises(PreconditionError, match="kernel not contained"):
            error_bound_check(inst, np.ones(inst.m))


# -------------------------------------------------------------- offset angle


def test_offset_angle_identity_family_is_zero():
    inst = make_lpa(get_family("identity"), 3, 8)
    ang = offset_angle(inst)
    assert ang.theta == 0.0
    assert ang.sin_gap_route <= 1e-12
    assert ang.sin_qn_route <= 1e-12


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
        assert ang.sin_qn_route <= Tolerances().check


@pytest.mark.parametrize("n", [20, 30, 40])
def test_du_gap_route_reads_a_zero_offset_at_depth(n):
    # du's offset angle is 0 up to its 4^-m defect. Its T X_n is factored as
    # itself (rho = m - 1 >= n): projected onto U_rho, its roundoff grew like
    # 2^n, to sin 6.5e-6 at n = 40
    m = resolve_m(None, n)
    assert diagnose(make_lpa(get_family("du"), n, m)).sin_theta_gap <= 1e-10


_ZERO_ANGLE_ROWS = [
    *[("du", {}, n, None) for n in (2, 4, 16, 24, 40)],
    *[("best-lpa", {}, n, 20) for n in (2, 4, 6, 8, 12)],
    ("random", {"kernel_dim": 3, "seed": 2}, 10, 10),
]


@pytest.mark.parametrize("name, params, n, m", _ZERO_ANGLE_ROWS,
                         ids=[f"{name}-{n}-{m or 'default'}" for name, _, n, m in _ZERO_ANGLE_ROWS])
def test_offset_angle_qn_route_decides_a_zero_angle(name, params, n, m):
    # nothing cancels in the tan form at theta = 0, so the Q_n route reads a
    # zero angle below check, as the gap route does, on rows where
    # sqrt_form_sine mostly reads 2.1e-8 to 3.0e-8
    row = diagnose(make_lpa(get_family(name, **params), n, m or resolve_m(None, n)))
    check = Tolerances().check
    assert row.sin_theta_gap <= check
    assert row.sin_theta_qn <= check


def test_offset_angle_subspace_entirely_inside_kernel():
    # X_n inside N(T): both image subspaces are zero, angle zero by convention
    inst = coordinate_instance(5, 8, 2, 3)
    ang = offset_angle(inst)
    assert ang.sin_gap_route == 0.0 and ang.sin_qn_route == 0.0


def test_offset_angle_route_agreement_across_families():
    for name in ("seidman", "du", "best-lpa", "random"):
        fam = get_family(name)
        for n in (2, 4, 8):
            m = 20 if name == "best-lpa" else 4 * n
            ang = offset_angle(make_lpa(fam, n, m))
            assert abs(ang.sin_gap_route - ang.sin_qn_route) <= 1e-6


_GRADED = {"sigmas": [1, 1e-3, 1e-6, 1e-9], "kernel_dim": 2}


@pytest.mark.parametrize("name, params, n, m", [
    ("seidman", {}, 128, 512),
    *[("best-lpa", _GRADED, n, 20) for n in range(1, 5)],
], ids=["seidman-128-512", *[f"best-lpa-graded-{n}-20" for n in range(1, 5)]])
def test_offset_angle_images_keep_txn_rank(name, params, n, m):
    # T^T (T X_n) squares T X_n's singular values (seidman's smallest is
    # 4.8e-7 at m = 512) below the anchored cutoff; the images come from
    # T X_n's r singular vectors instead, so neither loses rank and the gap
    # route keeps agreeing with the Q_n route. The graded family's angle is
    # exactly zero.
    inst = make_lpa(get_family(name, **params), n, m)
    r = inst.txn_svd[1]
    assert [image.dim for image in inst.images()] == [r, r]
    row = diagnose(inst)
    assert abs(row.sin_theta_gap - row.sin_theta_qn) <= 1e-6
    assert math.isfinite(row.bound_factor)


# du's smallest singular value is 4^-m and sigma_max is 1, so the cliff is
# the first m with 4^-m below the cutoff: rank_tol, or 10 m eps by default
_DU_CLIFFS = {None: 23, 1e-14: 24, 1e-12: 20, 1e-10: 17, 1e-8: 14}


_CLIFF_CASES = [(n, tol) for n in (2, 4, 8) for tol in _DU_CLIFFS]


@pytest.mark.parametrize("n, rank_tol", _CLIFF_CASES,
                         ids=[str(n) if tol is None else f"{n}-{tol:g}" for n, tol in _CLIFF_CASES])
def test_du_rank_cliff_flips_everything_together(n, rank_tol):
    # Below the cliff T is invertible, T^+T = I and the angle is near a right
    # angle; above it the kernel (the direction e, never inside X_n) appears
    # and the angle vanishes. The kernel dimension, the kernel verdict and
    # both routes' sines must all switch at the same m, with the routes
    # agreeing throughout and both images of dimension r.
    check = Tolerances().check
    fam = get_family("du")
    factor = shared_factors(fam, rank_tol)
    ms = range(12, 41)
    kernel_dims, verdicts, gap_wide, qn_wide = [], [], [], []
    for m in ms:
        inst = make_lpa(fam, n, m, factor(m))
        row = diagnose(inst)
        r = inst.txn_svd[1]
        assert [image.dim for image in inst.images()] == [r, r]
        assert not offset_angle(inst).route_disagreement
        kernel_dims.append(row.kernel_dim)
        verdicts.append(kernel_verdict([row], check))
        gap_wide.append(row.sin_theta_gap > 0.5)
        qn_wide.append(row.sin_theta_qn > 0.5)
    cliff = ms.index(_DU_CLIFFS[rank_tol])
    after = len(ms) - cliff
    assert kernel_dims == [0] * cliff + [1] * after
    assert verdicts == ["holds"] * cliff + ["violated"] * after
    assert gap_wide == qn_wide == [True] * cliff + [False] * after


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
    rep = run_scan(scan_config_from_dict({"operator": {"name": "du"},
                                          "n_list": [2, 4, 8, 16]}))
    assert rep.verdicts["kernel_approximability"] == "violated"
    assert [r.kernel_core_dim for r in rep.rows] == [0, 0, 0, 0]
    assert [r.kernel_dim for r in rep.rows] == [1, 1, 1, 1]

    rep = run_scan(scan_config_from_dict({
        "operator": {"name": "random", "params": {"kernel_dim": 2, "seed": 1}},
        "n_list": [2, 4, 8]}))
    assert rep.verdicts["kernel_approximability"] == "holds"
    # captured from n=2
    assert rep.rows[0].n == 2
    assert kernel_verdict([rep.rows[0]], rep.config.tolerances.check) == "holds"


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
    dense = np.linalg.norm(_dense_tn_pinv(inst) @ inst.t, 2)
    assert norm_tn_dag_t(inst) == pytest.approx(dense, rel=1e-10)


def _kernel_captured_instances():
    fam = get_family("seidman")
    for n in range(2, 65):
        yield make_lpa(fam, n, 4 * n)
    yield make_lpa(fam, 128, 512)
    for kernel_dim in range(1, 5):
        for seed in range(4):
            fam = get_family("random", kernel_dim=kernel_dim, seed=seed)
            for n in (kernel_dim, kernel_dim + 1, 6):
                yield make_lpa(fam, n, 12)
    for m in (20, 40):
        for n in (2, 4, 8, 12):
            yield make_lpa(get_family("best-lpa"), n, m)


def test_norm_tn_dag_t_equals_bound_factor_when_kernel_captured():
    # with N(T) inside X_n, T_n^+ T is an oblique projector of norm
    # 1/cos theta_n: a third route to the offset angle, through T_n^+, which
    # neither the gap nor the Q_n route uses. For r = 0 (X_n inside N(T))
    # T_n^+ = 0, so the norm is 0 while the factor is 1.
    check = Tolerances().check
    compared = 0
    for inst in _kernel_captured_instances():
        assert deficiency(inst.kernel, inst.x_n) <= check
        row = diagnose(inst)
        if inst.txn_svd[1] == 0:
            assert row.norm_tn_dag_t == 0.0 and row.bound_factor == 1.0
            continue
        assert row.norm_tn_dag_t == pytest.approx(row.bound_factor, rel=1e-9), (inst.n, inst.m)
        compared += 1
    assert compared == 104


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


@pytest.mark.parametrize("n", [27, 32, 41])
def test_du_bound_check_refuses_where_the_core_misses_the_kernel(n):
    # N(T) = span{e} leaves X_n by its tail, 2^-n, under check, but T X_n
    # keeps that direction (core 0 < 1): the bound's hypothesis fails
    m = resolve_m(None, n)
    inst = make_lpa(get_family("du"), n, m)
    assert not kernel_captured(inst, Tolerances().check)
    y = np.random.default_rng([0, n]).standard_normal(m)
    with pytest.raises(PreconditionError, match="kernel not contained"):
        error_bound_check(inst, y)


def test_du_scan_checks_the_bound_only_where_the_kernel_is_captured():
    # rows 27..41 are ineligible, rows 42..47 capture the kernel and pass
    rep = run_scan(scan_config_from_dict({"operator": {"name": "du"},
                                          "n_list": list(range(24, 48))}))
    assert rep.verdicts["bound_checks_passed"] == "6/6"
    assert rep.verdicts["kernel_approximability"] == "holds"
    check = rep.config.tolerances.check
    assert [r.n for r in rep.rows if kernel_captured(r, check)] == list(range(42, 48))


@pytest.mark.parametrize("n", [42, 43, 44])
def test_du_tn_pinv_drops_the_directions_the_core_counts_as_kernel(n):
    # at default m the 2^-n direction is kernel to txn_svd's cutoff; T_n^+
    # drops it too, so the identity and the bound hold (with equality, the
    # offset being zero) instead of T_n^+ inverting it at ~2^n
    m = resolve_m(None, n)
    inst = make_lpa(get_family("du"), n, m)
    y = np.random.default_rng([0, n]).standard_normal(m)
    assert error_identity_check(inst, y).passed
    assert error_bound_check(inst, y).passed
    assert round(np.trace(inst.tn_pinv @ inst.tn())) == inst.x_n.dim - inst.kernel_core_dim


def test_kernel_splitting_of_approximation_kernel():
    # P over N(T_n) equals P over the core plus the complement of X_n
    for inst in (make_lpa(get_family("du"), 8, 40),
                 make_lpa(get_family("best-lpa"), 8, 20),
                 coordinate_instance(2, 12, 5, 2)):
        lhs = projector(kernel_basis(inst.tn(), inst.factor.cutoff))
        rhs = projector(kernel_core(inst)) + np.eye(inst.m) - projector(inst.x_n)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8


_ONE_RULE_CASES = {
    **{f"du-{m}": (lambda m=m: get_family("du").truncate(m)) for m in range(12, 41)},
    **{f"random-{m}-{k}-{seed}": (lambda m=m, k=k, seed=seed: random_finite_kernel(m, k, seed))
       for m, k, seed in ((6, 1, 0), (12, 3, 1), (20, 2, 2), (24, 4, 3), (40, 5, 4))},
}


@pytest.mark.parametrize("build", _ONE_RULE_CASES.values(), ids=_ONE_RULE_CASES.keys())
def test_dense_helpers_decide_the_factors_rank(build):
    # one rank rule for the package: the dense helpers, at their defaults,
    # decide T's rank as its TruncationFactor does; no singular value of
    # these T sits within roundoff of the cutoff. du crosses its rank cliff
    # at m = 23, where 4^-23 lies between m eps and 10 m eps
    t = build()
    factor = TruncationFactor(t)
    s = svd(t).singular_values
    assert _rank_is_clear(s, t.shape[0] * EPS * s[0], t.shape, None)
    assert kernel_basis(t).dim == factor.kernel.dim
    assert orthonormal_range(t).dim == factor.rank
    want = factor.t_pinv
    assert np.linalg.norm(pseudo_inverse(t) - want, 2) <= 1e-10 * np.linalg.norm(want, 2)


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


def test_error_bound_at_the_whole_space_allows_the_solves_roundoff(monkeypatch):
    # at X_n = R^m (seidman, n = m = 256) rhs is 0 and lhs is the roundoff of
    # the two solves, 1.0e-5 here, far above bound_abs = 1e-9: the check
    # passes by its derived term 2 m eps s_1 ||y|| / s_r^2 (6.2e2), and a
    # lhs of twice that term fails
    m = 256
    inst = make_lpa(get_family("seidman"), m, m)
    y = np.random.default_rng([0, m]).standard_normal(m)
    rep = error_bound_check(inst, y)
    assert rep.rhs == 0.0 and 1e-9 < rep.lhs < 1e-4 and rep.passed
    res, r = inst.txn_svd
    s = res.singular_values
    term = 2 * m * EPS * s[0] * np.linalg.norm(y) / s[r - 1] ** 2
    real = lpakit.analysis.tn_pinv_apply
    monkeypatch.setattr(lpakit.analysis, "tn_pinv_apply",
                        lambda inst, y: real(inst, y) + 2 * term / math.sqrt(m))
    assert not error_bound_check(inst, y).passed


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


@pytest.mark.parametrize("drift", ["along-e", "across-e"])
def test_du_divergence_check_reads_the_coefficient_off_the_solver(monkeypatch, drift):
    # c_n is recovered from x = T_n^+ y: a solver drifting by 1e-6 along
    # P_n e moves c_n by 1e-6, and one drifting within X_n across P_n e
    # leaves c_n but not the residual; either fails the check
    real = lpakit.analysis.tn_pinv_apply

    def drifting(inst, y):
        p_e = inst.x_n.project(du_vector_e(inst.m))
        if drift == "along-e":
            return real(inst, y) - 1e-6 * p_e
        v = inst.x_n.project(np.eye(inst.m)[1])
        return real(inst, y) + 1e-6 * (v - (v @ p_e) / (p_e @ p_e) * p_e)

    assert du_divergence_check(4).passed
    monkeypatch.setattr(lpakit.analysis, "tn_pinv_apply", drifting)
    rep = du_divergence_check(4)
    assert not rep.passed
    shift = rep.rows[-1].coefficient - rep.rows[-1].coefficient_closed
    assert shift == pytest.approx(1e-6 if drift == "along-e" else 0.0, rel=0, abs=1e-12)


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


@pytest.mark.parametrize("alpha", [0.0, -0.5])
def test_coercive_bound_rejects_nonpositive_alpha(monkeypatch, alpha):
    # refused before any factorization: alpha = 0 divided by zero, and
    # alpha < 0 gave a report with a negative limit
    shapes = _count_full_svds(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(np.shape(a)))
    with pytest.raises(ValueError, match="alpha must be positive"):
        coercive_bound_check(np.eye(4), alpha, 1.0, [2])
    assert shapes == []


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
