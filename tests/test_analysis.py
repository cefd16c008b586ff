"""Tests for the convergence diagnostics.

The reference numbers quoted here were produced by independent oracle
scripts (dense SVD plus closed-form series sums) and frozen; the tests
assert the package reproduces them, not the other way round.
"""

import contextlib
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpakit.analysis
from lpakit.analysis import (
    LpaInstance,
    TruncationFactor,
    _coupled,
    _factor_svd,
    _sigma_max_bound,
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
from lpakit.operators import du_bad_y, du_vector_e, get_family, random_finite_kernel
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
    # A B^T from the route's own factors (A = T^+ U_r, B = T^T U_r): its
    # range is T^+T(X_n), its kernel the complement of T^*T(X_n). The
    # diagnostics take tan theta_n = ||Q_n - P_{ran Q_n}|| without forming
    # it; this is their oracle
    a, b = lpakit.analysis._qn_factors(inst)
    return a @ b.T


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
    assert inst.rowspace.dim == 8
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


def _count_svd_calls(monkeypatch) -> list:
    # (shape, compute_uv) of every SVD, through np.linalg.svd or numpy's
    # internal binding, which norm(ord=2) calls
    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    calls = []

    def counting(real_svd):
        def counting_svd(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv",
                                                  args[1] if len(args) > 1 else True)))
            return real_svd(a, *args, **kwargs)
        return counting_svd

    monkeypatch.setattr(internal, "svd", counting(internal.svd))
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    return calls


@pytest.mark.parametrize("name, n, m, svds_of_t", [
    ("seidman", 8, 32, 0), ("best-lpa", 8, 20, 1), ("du", 4, 36, 1), (*_WIDE_KERNEL, 1),
], ids=["seidman-8-32", "best-lpa-8-20", "du-4-36", "best-lpa-8-64"])
def test_instance_factors_each_matrix_once(monkeypatch, name, n, m, svds_of_t):
    # T and T X_n, the latter as T X_n itself (m x dim X_n) where
    # rho >= dim X_n (seidman, du) and as the rho x dim X_n matrix
    # U_rho^T T X_n where rho < dim X_n (best-lpa, rho = 12); the two
    # offset-angle images are QRs of T X_n's r singular vectors, and
    # singular values alone (compute_uv=False, spectral norms) are not
    # factorizations. seidman declares N(T) = {0}: its T is inverted and
    # takes no SVD, so the one SVD with vectors is that of T X_n.
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
    # counting starts. seidman's inverted factor takes none either, and no
    # row reads its sigma_max, which would take T's singular values (m x m)
    # on first read.
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


def test_scan_row_allocates_less_than_one_m_by_m_array():
    # one seidman row on a shared factor, from diagnose through the bound
    # check: the kernel core's dimension and gap are read off T X_n's SVD and
    # T_n^+ is applied through its factors, so the row's allocations peak
    # below one m x m array (8 m^2 bytes)
    m = 768
    family = get_family("seidman")
    inst = make_lpa(family, 32, m, factor=TruncationFactor(family.truncate(m)))
    y = np.random.default_rng([0, 32]).standard_normal(m)
    tracemalloc.start()
    try:
        diagnose(inst)
        assert error_bound_check(inst, y).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m, peak


# ------------------------------------------------- T factored on its coupled block


def _assert_factor_matches_dense(t, rank_tol=None) -> bool:
    # _factor_svd against LAPACK's SVD of the whole matrix: U S V^T rebuilds
    # T, U and V are orthogonal, the singular values agree to 1e-13 sigma_max,
    # and the factor's rank, row space and kernel agree with the dense ones,
    # the subspaces within Wedin's bound delta / (sigma_rho - sigma_{rho+1}).
    # Returns whether the rank was clear enough to compare.
    m = t.shape[0]
    (s, vectors), dense = _factor_svd(t), svd(t)
    (u, vt), s_dense = vectors(m), dense.singular_values
    delta = 1e-13 * s_dense[0]
    assert np.all(np.diff(s) <= 0)
    assert np.linalg.norm((u * s) @ vt - t, 2) <= delta
    assert all(np.array_equal(vectors(r)[0], u[:, :r]) for r in (0, m // 2, m - 1))
    for q in (u, vt):
        assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-12 * m
    assert np.all(np.abs(s - s_dense) <= delta)
    # the rank cutoff uses T's full shape, not the block's; the ranks must
    # agree unless the two sets of singular values straddle the cutoff
    factor = TruncationFactor(t, rank_tol)
    rho = rank_cutoff(s_dense, t.shape, rank_tol)[0]
    if not _rank_is_clear(s_dense, float(np.max(np.abs(s - s_dense))), t.shape, rank_tol):
        return False
    assert factor.rank == rho
    sep = s_dense[rho - 1] - (s_dense[rho] if rho < m else 0.0) if rho else 1.0
    bound = min(1.0, 4.0 * delta / sep)
    assert gap(factor.rowspace, Subspace(dense.vt[:rho].T)) <= bound
    assert gap(factor.kernel, Subspace(dense.vt[rho:].T)) <= bound
    return True


@pytest.mark.parametrize("build", [
    *[lambda m=m: get_family("du").truncate(m) for m in (511, 512, 513, 768, 1100)],
    lambda: np.eye(9),
    lambda: np.zeros((6, 6)),
], ids=["du-511", "du-512", "du-513", "du-768", "du-1100", "identity", "zero"])
def test_factor_svd_matches_dense_oracle(build):
    assert _assert_factor_matches_dense(build())


def _embedded_block(seed, m_block, diag, planted):
    # a k x k block among len(diag) decoupled coordinates, all permuted; the
    # block is dense, or Q_1 diag(planted) Q_2^T, which ties its singular
    # values with the diagonal's and can make it singular
    rng = np.random.default_rng(seed)
    if planted is None:
        block = rng.standard_normal((m_block, m_block))
    else:
        q1, q2 = (np.linalg.qr(rng.standard_normal((m_block, m_block)))[0] for _ in "12")
        block = (q1 * planted[:m_block]) @ q2.T
    m = m_block + len(diag)
    perm = rng.permutation(m)
    t = np.zeros((m, m))
    t[np.ix_(perm[:m_block], perm[:m_block])] = block
    t[perm[m_block:], perm[m_block:]] = diag
    return t


_DIAGONALS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), m_block=st.sampled_from([0, 2, 3, 5, 8, 13]),
       diag=st.lists(_DIAGONALS, min_size=1, max_size=12),
       planted=st.one_of(st.none(), st.lists(_DIAGONALS.map(abs), min_size=13, max_size=13)),
       rank_tol=st.sampled_from([None, 1e-10]))
def test_factor_svd_with_decoupled_coordinates_matches_dense_oracle(
        seed, m_block, diag, planted, rank_tol):
    t = _embedded_block(seed, m_block, diag, planted)
    m = t.shape[0]
    # the detection against its definition, entry by entry
    assert list(_coupled(t)) == [any(t[i, j] != 0 or t[j, i] != 0 for i in range(m) if i != j)
                                 for j in range(m)]
    _assert_factor_matches_dense(t, rank_tol)


def test_factor_svd_is_bitwise_lapack_when_every_coordinate_is_coupled():
    for t in (get_family("seidman").truncate(64), get_family("du").truncate(511),
              get_family("best-lpa").truncate(40), random_finite_kernel(20, 3, 0)):
        assert _coupled(t).all()
        (s, vectors), dense = _factor_svd(t), svd(t)
        assert all(np.array_equal(a, b) for a, b in
                   zip((*vectors(len(t)), s), (dense.u, dense.vt, dense.singular_values)))


@pytest.mark.parametrize("build, want", [
    (lambda: get_family("du").truncate(768), [(511, 511)]),
    (lambda: get_family("du").truncate(1100), [(511, 511)]),
    (lambda: get_family("seidman").truncate(32), [(32, 32)]),
    (lambda: np.eye(8), []),
    (lambda: np.zeros((6, 6)), []),
    (lambda: np.diag([3.0, -1.0, 0.0, 2.0, -1.0]), []),
], ids=["du-768", "du-1100", "seidman", "identity", "zero", "diagonal"])
def test_factor_runs_lapack_on_the_coupled_block_only(monkeypatch, build, want):
    t = build()
    shapes = _count_full_svds(monkeypatch)
    TruncationFactor(t)
    assert shapes == want


@pytest.mark.parametrize("name, n, m", [("du", 16, 768), ("identity", 3, 8)])
def test_diagnose_takes_no_m_by_m_svd_on_decoupled_truncations(monkeypatch, name, n, m):
    shapes = _count_full_svds(monkeypatch)
    diagnose(make_lpa(get_family(name), n, m))
    assert (m, m) not in shapes
    assert shapes.count((511, 511)) == (name == "du")


@pytest.mark.parametrize("n, m", [(16, 768), (8, 1100)])
def test_du_diagnostics_match_dense_factor(monkeypatch, n, m):
    # the block-wise factor against LAPACK's SVD of the whole truncation
    # (every coordinate declared coupled), within perfbench's tolerances, and
    # the two routes within check of each other.
    check = Tolerances().check
    got = diagnose(make_lpa(get_family("du"), n, m))
    monkeypatch.setattr(lpakit.analysis, "_coupled", lambda t: np.ones(len(t), dtype=bool))
    want = diagnose(make_lpa(get_family("du"), n, m))
    assert (got.kernel_dim, got.kernel_core_dim) == (want.kernel_dim, want.kernel_core_dim)
    assert kernel_verdict([got], check) == kernel_verdict([want], check)
    for field in ("sin_theta_gap", "sin_theta_qn", "kernel_gap"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=1e-10)
    assert abs(got.sin_theta_qn - got.sin_theta_gap) <= check
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


# ------------------------------------------------ T inverted when N(T) = {0}


def _inverse_50_digits(t):
    # T^{-1} by a 50-digit LU, rounded to doubles
    with mpmath.workdps(50):
        return np.array((mpmath.matrix(t.tolist()) ** -1).tolist(), dtype=float)


def _assert_factors_agree(inverted, dense, reference=None):
    # an inverted factor against the SVD route's on the same T: full rank,
    # singular values to 1e-13 sigma_max, and T^+ as a matrix and applied,
    # within m eps cond(T) ||T^+||, the order of either route's forward error
    # (the routes differed by 1e-7 of it on seidman(768)). T^+ is compared
    # with reference when given, else with the SVD route's
    m = dense.m
    assert inverted.u_rho is None and inverted.rank == dense.rank == m
    assert inverted.kernel.dim == 0 and gap(inverted.rowspace, dense.rowspace) <= 1e-13
    assert np.all(np.abs(inverted.s_rho - dense.s_rho) <= 1e-13 * dense.sigma_max)
    assert inverted.sigma_max == pytest.approx(dense.sigma_max, rel=1e-13, abs=0)
    scale = np.linalg.norm(dense.t_pinv, 2)
    tol = m * EPS * (dense.sigma_max / dense.s_rho[-1]) * scale
    want = dense.t_pinv if reference is None else reference
    assert np.linalg.norm(inverted.t_pinv - want, 2) <= tol
    apply = dense.pinv_apply if reference is None else reference.__matmul__
    v = np.random.default_rng(m).standard_normal((m, 3))
    for w in (v, v[:, 0]):
        assert np.linalg.norm(inverted.pinv_apply(w) - apply(w)) <= tol * np.linalg.norm(w)


def _assert_rows_agree(inverted, dense, n, x_basis=None):
    # every diagnose field and the bound check's verdict, with the inverted
    # factor and with the SVD route's: sines to 1e-10 absolute (theta_n
    # through its sine), norms to 1e-9 relative
    a, b = (LpaInstance(f, n, x_basis) for f in (inverted, dense))
    got, want = diagnose(a), diagnose(b)
    for field in ("n", "m", "kernel_core_dim", "kernel_dim"):
        assert getattr(got, field) == getattr(want, field), field
    assert abs(math.sin(got.theta_n) - math.sin(want.theta_n)) <= 1e-10
    for field in ("sin_theta_gap", "sin_theta_qn", "kernel_gap"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-10, field
    for field in ("norm_tn_dag_t", "bound_factor"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=0), field
    y = np.random.default_rng(n).standard_normal(dense.m)
    assert error_bound_check(a, y).passed == error_bound_check(b, y).passed


@functools.cache
def _seidman_factors(m):
    t = get_family("seidman").truncate(m)
    return TruncationFactor(t, injective=True), TruncationFactor(t)


@settings(max_examples=15, deadline=None)
@given(m=st.sampled_from([32, 256, 768]), fraction=st.floats(0.0, 0.5))
def test_inverted_seidman_matches_svd_route(m, fraction):
    # n up to m / 2 (the shipped configs use m = 4n); near n = m,
    # ||T_n^+ T|| = 1 is read as ||Sigma^{-1} U^T T|| at cond(T) ~ 6e8 and
    # both routes sit 5e-9 to 2e-8 off it at m = 768
    inverted, dense = _seidman_factors(m)
    _assert_factors_agree(inverted, dense)
    _assert_rows_agree(inverted, dense, max(1, int(fraction * m)))


def _assert_same_factor(got, want):
    assert (got.rank, got.sigma_max) == (want.rank, want.sigma_max)
    for name in ("u_rho", "s_rho", "t_pinv"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("rowspace", "kernel"):
        assert np.array_equal(getattr(got, name).basis, getattr(want, name).basis), name


def _assert_inverted_block_agrees(t, n, basis):
    # the inverted factor's T^+ against a 50-digit inverse, since at tiny m
    # the SVD route's own roundoff can exceed the limit, and its rows
    # against the SVD route's. A block that falls below full numerical rank
    # takes the SVD route, bit for bit.
    inverted, dense = TruncationFactor(t, injective=True), TruncationFactor(t)
    if inverted.u_rho is not None:
        _assert_same_factor(inverted, dense)
        return
    _assert_factors_agree(inverted, dense, _inverse_50_digits(t))
    _assert_rows_agree(inverted, dense, n, basis)


@_needs_mpmath
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), m_block=st.sampled_from([0, 2, 3, 5, 8, 13]),
       diag=st.lists(_DIAGONALS.filter(bool), min_size=1, max_size=12),
       data=st.data())
def test_inverted_block_with_decoupled_coordinates_matches_svd_route(
        seed, m_block, diag, data):
    # a Gaussian block among nonzero decoupled diagonal entries, inverted
    # by one LAPACK inverse of the whole T
    t = _embedded_block(seed, m_block, diag, None)
    n = data.draw(st.integers(1, len(t)))
    basis = None
    if data.draw(st.booleans()):  # a random X_n instead of the coordinate one
        basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(t), n)))[0]
    _assert_inverted_block_agrees(t, n, basis)


@_needs_mpmath
def test_inverted_block_at_tiny_m_matches_a_50_digit_inverse():
    # m = 4, cond(T) 2.36, limit 2.5e-15: LU's T^{-1} is 5.7e-17 off the
    # 50-digit inverse, the SVD route's V Sigma^{-1} U^T 7.2e-15
    t = _embedded_block(179, 3, [-2.0], None)
    assert TruncationFactor(t, injective=True).u_rho is None
    for n in range(1, len(t) + 1):
        _assert_inverted_block_agrees(t, n, None)


def _exactly_singular_block():
    # LU meets an exact zero pivot in the coupled block, so np.linalg.inv
    # raises; the decoupled coordinates are nonzero
    t = np.diag([1.0, 1.0, 3.0, -2.0])
    t[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
    return t


@pytest.mark.parametrize("build", [
    lambda: get_family("du").truncate(32),
    lambda: random_finite_kernel(12, 3, 0),
    lambda: _embedded_block(3, 5, [1.0, 2.0, -1.0], [1.0, 0.5, 0.0, 2.0, 1.0]),
    lambda: np.diag([2.0, 0.0, 1.0]),
    lambda: np.zeros((4, 4)),
    _exactly_singular_block,
    lambda: np.diag([1e-310, 1.0]),
], ids=["du-32", "random-kernel", "singular-block", "diagonal-zero", "zero",
        "exactly-singular-block", "subnormal-diagonal"])
def test_injective_factor_of_a_singular_t_is_the_svd_route(build):
    # injective=True on a T below full numerical rank falls back to the SVD
    # route and gives bitwise its factor, with no warning (the suite turns
    # warnings into errors) and no values-only SVD: where T^{-1} exists in
    # floating point (du's 4^-32, a planted zero singular value) its norm
    # proves nothing, and where it does not (an exact zero pivot, an entry
    # of T^{-1} overflowing) there is nothing to prove with
    t = build()
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        got = TruncationFactor(t, injective=True)
    want = TruncationFactor(t)
    assert got.rank < got.m
    assert [vectors for _, vectors in calls].count(False) == 0, calls
    _assert_same_factor(got, want)
    assert got.cutoff == want.cutoff


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 40),
       kind=st.sampled_from(["rank-one", "diagonal", "orthogonal-scaled", "dense"]))
def test_sigma_bounds_bracket_lapacks_sigma_max(seed, m, kind):
    # rank-one T meets ||T||_F = sigma_max and diagonal T
    # sqrt(||T||_1 ||T||_inf) = sigma_max; LAPACK's sigma_max must still lie
    # below hi, and hi is never above sqrt(m) sigma_max (hi <= ||T||_F)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-150, 150)
    if kind == "rank-one":
        t = np.outer(rng.standard_normal(m), rng.standard_normal(m))
    elif kind == "diagonal":
        t = np.diag(rng.standard_normal(m))
    elif kind == "orthogonal-scaled":
        t = np.linalg.qr(rng.standard_normal((m, m)))[0] * rng.uniform(0.0, 1.0, m)
    else:
        t = rng.standard_normal((m, m))
    hi = _sigma_max_bound(scale * t)
    sigma_max = np.linalg.svd(scale * t, compute_uv=False)[0]
    assert sigma_max <= hi <= math.sqrt(m) * sigma_max * (1 + 16 * m * EPS)


def _proof_holds(t, rank_tol):
    # TruncationFactor's full-rank proof, from its documented rule:
    # 1/N(T^{-1}) > 4 tol hi for N = ||.||_F or N = sqrt(||.||_1 ||.||_inf),
    # tol hi = the rank rule's cutoff at rank_tol and anchor hi, floored at
    # m eps hi, hi = min(||T||_F, sqrt(||T||_1 ||T||_inf)) widened by 4 m eps;
    # T^{-1} is the factor's own (by halves for a triangular T above 64)
    m = len(t)
    hi = min(np.linalg.norm(t), math.sqrt(np.linalg.norm(t, 1) * np.linalg.norm(t, np.inf)))
    hi *= 1 + 4 * m * EPS
    cutoff = max(rank_cutoff((), t.shape, rank_tol, hi)[1], m * EPS * hi)
    inv = lpakit.analysis._inverse(t)
    norm = min(np.linalg.norm(inv), math.sqrt(np.linalg.norm(inv, 1) * np.linalg.norm(inv, np.inf)))
    return 1.0 / norm > 4 * cutoff


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
    # _graded ("dense"); its QR's triangular factor R ("upper") or R^T
    # ("lower"), with the same singular values; or diag(s) with a first
    # column below it, lower triangular like seidman ("arrow"), whose
    # inverse's mass sits on few rows and columns, so that
    # sqrt(||T^{-1}||_1 ||T^{-1}||_inf) is near ||T^{-1}||_2 and can prove
    # what ||T^{-1}||_F cannot
    if kind == "arrow":
        t = np.diag(_spectrum(rng, m, ratio))
        t[1:, 0] = rng.standard_normal(m - 1) / np.arange(2, m + 1)
        return t
    t = _graded(rng, m, ratio)
    if kind == "dense":
        return t
    r = np.linalg.qr(t)[1]
    return r if kind == "upper" else np.ascontiguousarray(r.T)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.sampled_from([2, 3, 5, 8, 13, 21, 65, 100]),
       log2_k=st.floats(-2.0, 6.0), rank_tol=st.sampled_from([None, 1e-12, 1e-8]),
       kind=st.sampled_from(["dense", "lower", "upper", "arrow"]))
@example(seed=1, m=100, log2_k=2.8, rank_tol=None, kind="arrow")
def test_inverted_rank_decision_at_the_cutoff_is_the_svd_routes(seed, m, log2_k, rank_tol, kind):
    # T graded with sigma_min / sigma_max = k tol (exactly for dense and
    # triangular T), tol the proof's (rank_tol, the rule's default when None)
    # and k in [1/4, 64], log-uniform; lower triangular T above order 64
    # are inverted by halves, upper ones by LU. The inverted factor's rank
    # is the SVD route's.
    # Wherever neither norm of the inverse proves full rank the factor is
    # the SVD route's bit for bit; where one does, T is inverted with no
    # SVD, and its values-only SVD is taken on the first read of s_rho or
    # sigma_max, once, with the values it gives for T. The example is an
    # arrow T that only sqrt(||T^{-1}||_1 ||T^{-1}||_inf) proves
    tol = rank_cutoff((), (m, m), rank_tol, 1.0)[1]
    t = _graded_of_kind(np.random.default_rng(seed), m, 2.0**log2_k * tol, kind)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        got = TruncationFactor(t, rank_tol, injective=True)
        built = list(calls)
        want = TruncationFactor(t, rank_tol)
        assert got.rank == want.rank
        if not _proof_holds(t, rank_tol):
            assert built == [((m, m), True)]
            _assert_same_factor(got, want)
            assert got.cutoff == want.cutoff
            return
        assert got.rank == m and got.u_rho is None and built == []
        before = len(calls)
        s_rho, sigma_max = got.s_rho, got.sigma_max
        assert calls[before:] == [((m, m), False)]
    assert np.array_equal(s_rho, np.linalg.svd(t, compute_uv=False))
    assert sigma_max == s_rho[0] and tol * sigma_max <= got.cutoff


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.sampled_from([5, 8, 13, 21, 34]),
       log2_k=st.floats(-2.0, 6.0), data=st.data())
def test_inverted_factor_proves_the_rank_of_every_txn(seed, m, log2_k, data):
    # T = Q1 diag(s) Q2^T with sigma_min / sigma_max = k 10 m eps, the cutoff
    # txn_svd applies at rank_tol None, k in [1/4, 64], log-uniform. Wherever
    # T is inverted, its proof covers every row: r = dim X_n, the rank at
    # LAPACK's exact sigma_max and the SVD route's r, and diagnose takes no
    # m x m SVD, with or without vectors (2 dim X_n < m, so no row-sized
    # matrix is m x m either)
    rng = np.random.default_rng(seed)
    t = _graded(rng, m, 2.0**log2_k * _default_tol(m))
    factor = TruncationFactor(t, injective=True)
    if factor.u_rho is not None:
        return
    n = data.draw(st.integers(1, (m - 1) // 2))
    basis = np.linalg.qr(rng.standard_normal((m, n)))[0] if data.draw(st.booleans()) else None
    inst = LpaInstance(factor, n, basis)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        diagnose(inst)
    assert [c for c in calls if c[0] == (m, m)] == [], calls
    res, r = inst.txn_svd
    sigma_max = np.linalg.svd(t, compute_uv=False)[0]
    assert r == n == rank_cutoff(res.singular_values, (m, n), anchor=sigma_max)[0]
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


@pytest.mark.parametrize("seed", range(5))
def test_txn_rank_between_the_anchored_cutoffs_takes_the_svd_route(seed):
    # T = Q diag(s*, 1, ..., 1), Q random orthogonal: sigma_max = 1 and hi
    # near 0.8 sqrt(m). With coordinate X_n, T X_n has singular values 1
    # and s* = 10 m eps g, g strictly between 1 and hi, so its rank is n at
    # sigma_max's cutoff (10 m eps, rank_tol None) and n - 1 at hi's. Since
    # sigma_min(T) = s* < 40 m eps hi, the inverse proves nothing: the
    # factor is the SVD route's, and r = n, the rank at sigma_max itself
    m, n = 32, 4
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
    t = q.copy()
    t[:, 0] *= _default_tol(m) * 0.5 * (1.0 + _sigma_max_bound(q))
    factor = TruncationFactor(t, injective=True)
    assert factor.u_rho is not None and not _proof_holds(t, None)
    _assert_same_factor(factor, TruncationFactor(t))
    assert factor.cutoff == _default_tol(m) * factor.sigma_max
    assert factor.sigma_max == pytest.approx(1.0, rel=1e-13)
    res, r = LpaInstance(factor, n).txn_svd
    assert r == rank_cutoff(res.singular_values, (m, n), anchor=factor.sigma_max)[0] == n
    assert rank_cutoff(res.singular_values, (m, n), anchor=_sigma_max_bound(t))[0] == n - 1


def test_seidman_scan_at_768_takes_no_m_by_m_svd(monkeypatch):
    # seidman's truncation is inverted and its full rank proved from the
    # inverse: no SVD of T, with or without vectors, and no row reads
    # sigma_max
    calls = _count_svd_calls(monkeypatch)
    rows = run_scan(scan_config_from_dict({"operator": {"name": "seidman"},
                                           "n_list": [32, 64], "m_rule": "fixed:768"})).rows
    assert [row.n for row in rows] == [32, 64] and calls
    assert [c for c in calls if c[0] == (768, 768)] == []


def test_injective_factor_keeps_one_m_by_m_array():
    # the inverted factor of seidman(768) keeps T^{-1} and vectors of length
    # m: one m x m array besides T, where the SVD route keeps U_rho and V
    m = 768
    t = get_family("seidman").truncate(m)
    tracemalloc.start()
    try:
        factor = TruncationFactor(t, injective=True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.u_rho is None and "rowspace" not in vars(factor)
    assert 8 * m * m <= kept < 1.1 * 8 * m * m, kept
    # T^{-1} is written in place, half by half, and the largest temporary
    # is the substitution's (m/2) x (m/4) product (1.153 x 8 m^2 measured)
    assert peak < 1.16 * 8 * m * m, peak / (8 * m * m)


def test_seidman_at_2048_is_inverted():
    # 1/||T^{-1}||_F = 9.6e-12 is below the proof's 4 tol hi = 2.5e-11, but
    # 1/sqrt(||T^{-1}||_1 ||T^{-1}||_inf) = 1.16e-10, sigma_min itself,
    # clears it: T is inverted by halves, with no SVD of T
    m = 2048
    t = get_family("seidman").truncate(m)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        blocked = _blocked_inverse_calls(mp)
        factor = TruncationFactor(t, injective=True)
    assert factor.u_rho is None and factor.rank == m
    assert calls == [] and blocked[0] == (m, m)


def _blocked_inverse_calls(monkeypatch) -> list:
    # the shape of every T the triangular inverse by halves is asked for:
    # the whole T first, then its halves
    calls = []
    real = lpakit.analysis._invert_lower

    def spy(t, out):
        calls.append(t.shape)
        real(t, out)

    monkeypatch.setattr(lpakit.analysis, "_invert_lower", spy)
    return calls


@_needs_mpmath
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(65, 72), log2_ratio=st.floats(-16.0, 0.0),
       kind=st.sampled_from(["lower", "arrow"]), data=st.data())
def test_triangular_inverse_by_halves_matches_a_50_digit_inverse(seed, m, log2_ratio, kind,
                                                                 data):
    # a lower triangular T above order 64 (sigma_min / sigma_max = 2^log2_ratio,
    # near it for an arrow T) is inverted by halves, not by an LU of the
    # whole T: T^{-1} within m eps cond(T) ||T^{-1}|| of a 50-digit
    # inverse, and every row as the SVD route's
    t = _graded_of_kind(np.random.default_rng(seed), m, 2.0**log2_ratio, kind)
    with pytest.MonkeyPatch.context() as mp:
        blocked = _blocked_inverse_calls(mp)
        inverted = TruncationFactor(t, injective=True)
    assert blocked[0] == (m, m)
    dense = TruncationFactor(t)
    _assert_factors_agree(inverted, dense, _inverse_50_digits(t))
    _assert_rows_agree(inverted, dense, data.draw(st.integers(1, m // 2)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.sampled_from([65, 100, 130]), at=st.floats(0.0, 1.0),
       pivot=st.sampled_from([0.0, 1e-310, -1e-310]),
       kind=st.sampled_from(["lower", "arrow"]))
def test_triangular_t_with_a_zero_or_subnormal_pivot_is_the_svd_route(seed, m, at, pivot, kind):
    # a lower triangular T above order 64 with one diagonal entry 0 or subnormal
    # is singular to working precision (sigma_min <= |t_jj|): its inverse by
    # halves meets an exact zero pivot or a reciprocal that overflows, and
    # the factor is the SVD route's bit for bit, with no warning (the suite
    # turns warnings into errors) and no values-only SVD
    t = _graded_of_kind(np.random.default_rng(seed), m, 1e-3, kind)
    j = min(int(at * m), m - 1)
    t[j, j] = pivot
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd_calls(mp)
        blocked = _blocked_inverse_calls(mp)
        got = TruncationFactor(t, injective=True)
    want = TruncationFactor(t)
    assert blocked[0] == (m, m) and got.rank < m
    assert [vectors for _, vectors in calls].count(False) == 0, calls
    _assert_same_factor(got, want)
    assert got.cutoff == want.cutoff


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
        rhs = projector(inst.rowspace) @ inst.tn_pinv @ inst.t
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
    delta = (tail[0] if tail.size else 0.0) + 1e-13 * inst.sigma_max
    assert s.size == min(inst.rank, k)
    assert np.all(np.abs(s - s_dense[:s.size]) <= delta)
    assert np.all(s_dense[s.size:] <= delta)
    if not txn.any():  # X_n inside a planted kernel: exact zeros stay exact
        assert not s.any() and r == 0
    want_r = rank_cutoff(s_dense, shape, inst.factor.rank_tol, inst.sigma_max)[0]
    if _rank_is_clear(s_dense, delta, shape, inst.factor.rank_tol, inst.sigma_max):
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
], ids=["rho-0", "rho-0-n-eq-m", "x-is-kernel", "kernel-wider", "seidman-n-eq-m",
        "du-n-eq-m", "du-23-n-eq-m", "best-lpa-n-eq-m", "random-n-eq-m",
        "perturbed-1e-14", "perturbed-1e-8", "perturbed-1e-2", "kernel-within-check"])
def test_factor_reads_match_dense_oracles_at_edges(build):
    inst = build()
    _assert_factor_reads_match_dense(inst)
    r = inst.txn_svd[1]
    assert r == rank_cutoff(svd(inst.t @ inst.x_n.basis).singular_values,
                            (inst.m, inst.x_n.dim), inst.factor.rank_tol, inst.sigma_max)[0]
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
    assert [image.dim for image in inst.images] == [r, r]
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
        assert [image.dim for image in inst.images] == [r, r]
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
