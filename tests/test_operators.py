"""Tests for the built-in operator families and their truncations."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import lpakit.operators
from lpakit.analysis import LpaInstance, diagnose, kernel_verdict, make_lpa, shared_factors
from lpakit.config import Tolerances
from lpakit.linalg import EPS, Subspace, gap, kernel_basis, rank_cutoff, svd
from lpakit.operators import (
    FAMILY_NAMES,
    Reflector,
    SingularSystem,
    du,
    du_bad_y,
    du_vector_e,
    from_singular_system,
    get_family,
    random_finite_kernel,
    seidman,
)

# ---------------------------------------------------------------- seidman


def test_seidman_smallest_truncation():
    assert np.array_equal(seidman(1), np.array([[1.0]]))


def test_seidman_entry_values():
    a = seidman(4)
    assert a[0, 0] == 1.0          # alpha_1 = 1
    assert a[1, 1] == 0.125        # alpha_2 = 2^-3 (even index)
    assert a[2, 2] == pytest.approx(1.0 / 3.0)  # alpha_3 = 1/3 (odd index)
    assert a[1, 0] == 0.5          # coupling beta_2 = 1/2 into column 1
    assert a[2, 0] == pytest.approx(1.0 / 3.0)
    assert a[0, 1] == 0.0          # coupling only in the first column


def test_seidman_nested_truncations():
    assert np.array_equal(seidman(4), seidman(8)[:4, :4])
    assert np.array_equal(seidman(8), seidman(32)[:8, :8])


def test_seidman_numerically_injective():
    s = svd(seidman(64)).singular_values
    assert s[-1] > 1e-7  # smallest singular value ~ 64^-3


# --------------------------------------------------------------------- du


def test_du_entry_values():
    a = du(3)
    assert a[0, 0] == 0.25                    # 1 - 3/4
    assert a[0, 1] == pytest.approx(-0.375)   # -3/8
    assert a[1, 0] == pytest.approx(-0.375)
    assert a[1, 1] == pytest.approx(1.0 - 3.0 / 16.0)


def test_du_nested_truncations():
    assert np.array_equal(du(4), du(8)[:4, :4])
    assert np.array_equal(du(8), du(32)[:8, :8])
    assert np.array_equal(du(512), du(1024)[:512, :512])  # across the entry cutoff


def test_du_symmetric():
    a = du(10)
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_du_nearly_projector(m):
    a = du(m)
    assert np.linalg.norm(a @ a - a, 2) <= 3.0 * 4.0 ** (-m)


def test_du_large_truncation_is_silent():
    # du stores 3/2^(i+j) only up to i + j = 512 and 0 beyond, so it neither
    # overflows nor underflows. The right-hand sides take negative powers,
    # which underflow to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = du(512)
        y, e = du_bad_y(1100), du_vector_e(1100)
    assert np.all(np.isfinite(a))
    assert a[-1, -1] == 1.0  # i = j = 512 is past the cutoff: delta_ij only
    assert np.array_equal(a[:256, :256], du(256))
    # closed forms (2^k - 1) sqrt(3)/4^k and sqrt(3)/2^k, rounded once from exact
    k = range(1, 1101)
    np.testing.assert_allclose(
        y, [math.sqrt(3.0) * float(Fraction(2**i - 1, 4**i)) for i in k], rtol=1e-15, atol=0)
    np.testing.assert_allclose(
        e, [math.sqrt(3.0) * float(Fraction(1, 2**i)) for i in k], rtol=1e-15, atol=0)


def _du_unfloored(m):
    # the entries before the sqrt(tiny) cutoff: 3/2^(i+j) down to 3 * 2^-1023,
    # 0 only where 2^(i+j) overflows
    idx = np.arange(1, m + 1)
    with np.errstate(over="ignore"):
        return np.eye(m) - 3.0 / np.exp2(np.add.outer(idx, idx))


@pytest.mark.parametrize("m", [1, 256, 257, 512, 768, 1100])
def test_du_against_unfloored_oracle(m):
    a, old = du(m), _du_unfloored(m)
    idx = np.arange(1, m + 1)
    dropped = np.add.outer(idx, idx) > 512
    if m <= 256:
        assert not dropped.any()
        assert np.array_equal(a, old)
    # identical up to i + j = 512; beyond it only delta_ij is left
    assert np.array_equal(a[~dropped], old[~dropped])
    assert np.array_equal(a[dropped], np.eye(m)[dropped])


def _du_w(m):
    w = np.zeros(m)
    k = min(m, 511)
    w[:k] = np.ldexp(1.0, -np.arange(1, k + 1))
    return w


def _du_add_outer(m):
    # du as first written: the i + j > 512 entries masked through an m x m
    # index sum
    idx = np.arange(1, m + 1)
    w = _du_w(m)
    a = np.multiply.outer(w, -3.0 * w)
    a[np.add.outer(idx, idx) > 512] = 0.0
    a.flat[:: m + 1] += 1.0
    return a


def _du_vectors_abs(m):
    # the closed-form factor's vectors as first written: entries below
    # sqrt(tiny) zeroed through an m x m |v|
    w = _du_w(m)
    c = w / np.linalg.norm(w)
    h = c.copy()
    h[0] += 1.0
    order = np.r_[1:m, 0]
    v = np.multiply.outer(h, (-2.0 / (h @ h)) * h[order])
    v[np.abs(v) < math.sqrt(np.finfo(float).tiny)] = 0.0
    v[order, np.arange(m)] += 1.0
    return v


def _du_vectors(m):
    _, vectors = get_family("du").singular_triplets(m)
    return vectors(m)[0].basis


@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 300, 511, 512, 513, 768, 1100])
def test_du_and_its_factor_bitwise_match_mask_oracles(m):
    # zeroing by slices and row blocks stores exactly the old bytes, signed
    # zeros included
    assert du(m).tobytes() == _du_add_outer(m).tobytes()
    assert _du_vectors(m).tobytes() == _du_vectors_abs(m).tobytes()


@pytest.mark.parametrize("build", [du, _du_vectors], ids=["du", "vectors"])
def test_du_builds_hold_one_m_by_m_array(build):
    # the result is the only m x m array: no index sum, mask or |v| beside it
    m = 768
    tracemalloc.start()
    try:
        kept = build(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept.shape == (m, m)
    assert peak < 1.1 * 8 * m * m, peak


@pytest.mark.parametrize("m", [1, 2, 23, 768])
def test_du_reflector_columns_are_maps_of_h(m):
    # the kept columns H[:, order[:rho]] that du's factor reads as U_rho and
    # as its row space, held as maps: orthonormal through them to m eps, or
    # to 4 eps at small m (3 eps at m = 2: H applied twice, whatever m),
    # the formed basis (formed only when read) is apply(I) with entries
    # below sqrt(tiny) stored as 0, and project is H Z H in place, Z zeroing
    # the dropped coordinates, with H v = v - beta h (h^T v)
    s, reflector = get_family("du").singular_triplets(m)
    rho = rank_cutoff(s, (m, m))[0]
    kept = reflector(rho)[0]
    assert isinstance(kept, Reflector) and "basis" not in vars(kept) and kept.shape == (m, rho)
    eye = np.eye(rho)
    a = kept.apply(eye)
    assert np.abs(kept.coords(a) - eye).max() <= max(m, 4) * EPS
    small = np.abs(a) < math.sqrt(np.finfo(float).tiny)
    assert np.array_equal(a[~small], kept.basis[~small]) and not kept.basis[small].any()
    h, beta = reflector.y[:, 0], reflector.s[0, 0]
    v = np.random.default_rng(m).standard_normal((m, 3))
    for w in (v, v[:, 0]):
        z = w - np.multiply.outer(h, beta * (h @ w))
        z[reflector.order[rho:]] = 0.0
        assert kept.project(w).tobytes() == (z - np.multiply.outer(h, beta * (h @ z))).tobytes()


def test_du_reflector_repr_and_equality_form_no_basis():
    # repr names m and k, and == and hash are by identity: none reads the
    # m x k basis, which at m = 768 would be H's 767 kept columns (4.7 MB)
    rowspace = shared_factors(get_family("du"))(768).rowspace
    assert repr(rowspace) == "Reflector(m=768, k=767)"
    assert rowspace == rowspace and hash(rowspace) == hash(rowspace)
    assert rowspace != Reflector(rowspace.y, rowspace.s, rowspace.order, 767)
    assert "basis" not in vars(rowspace)


@pytest.mark.parametrize("m, r", [(14, 12), (65, 12), (512, 12), (1100, 12), (6, 6)])
def test_reflector_from_raw_qr_is_numpys_complete_q(m, r):
    # H = I - Y S Y^T from the r Householder vectors of a raw QR is the
    # complete Q of the same QR: H's columns within m eps of numpy's, and
    # split at k, each part's coords(apply(I)) is I and its project is
    # Q_k Q_k^T, within m eps. At m = r LAPACK's last reflector is I
    # (tau = 0), which split certifies as well
    g = np.random.default_rng(m).standard_normal((m, r))
    q = np.linalg.qr(g, mode="complete")[0]
    h = Reflector.from_raw_qr(*np.linalg.qr(g, mode="raw"))
    assert h.y.shape == (m, r) and h.s.shape == (r, r) and not np.tril(h.s, -1).any()
    assert np.abs(h.basis - q).max() <= m * EPS
    v = np.random.default_rng(r).standard_normal((m, 3))
    k = r // 2
    for part, cols in zip(h.split(k), (q[:, :k], q[:, k:])):
        assert "basis" not in vars(part) and part.shape == cols.shape
        eye = np.eye(part.dim)
        assert np.abs(part.coords(part.apply(eye)) - eye).max() <= m * EPS
        assert np.abs(part.project(v) - cols @ (cols.T @ v)).max() <= m * EPS * np.abs(v).max()
        assert np.abs(part.basis - cols).max() <= m * EPS


_PRODUCT_MS = [1, 2, 22, 23, 256, 257, 511, 512, 513, 768, 1100]
_PRODUCT_CASES = [
    *[(m, name) for name in ("seidman", "du") for m in _PRODUCT_MS],
    *[(m, "best-lpa") for m in (14, 20, 64, 65, 512, 513, 1100)],
    *[(m, "identity") for m in (1, 2, 65, 512)],
]


@pytest.mark.parametrize("m, name", _PRODUCT_CASES,
                         ids=[f"{m}-{name}" for m, name in _PRODUCT_CASES])
def test_structured_products_match_the_dense_truncation(name, m):
    # T's first n columns bytewise the formed T's, signed zeros included,
    # at n = 1, 16 and m (du zeroes its entries past i + j = 512 by row
    # slices, so n = m > 512 included; the formed T is the products' own
    # columns(m), held to an independent oracle by
    # test_du_and_its_factor_bitwise_match_mask_oracles); T V and T^T U
    # within m eps ||T|| ||U|| of the dense products. du's products keep
    # the entries below sqrt(tiny) that its T drops, under 2^-500 in norm.
    # m spans du's zeroing boundaries (256, 511, 512) and its rank cliff
    # (22, 23), and best-lpa's einsum columns, whose sum must not depend on
    # n; best-lpa's least m is 14
    fam = get_family(name)
    t, prods = fam.truncate(m), fam.products(m)
    assert prods.m == m
    for n in sorted({1, min(16, m), m}):
        cols = prods.columns(n)
        assert cols.shape == (m, n) and cols.tobytes() == t[:, :n].tobytes()
    norm_t = shared_factors(fam)(m).sigma_max
    u = np.random.default_rng(m).standard_normal((m, 3))
    for got, want in ((prods.times(u), t @ u), (prods.t_times(u), t.T @ u),
                      (prods.times(u[:, 0]), t @ u[:, 0]),
                      (prods.t_times(u[:, 0]), t.T @ u[:, 0])):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= m * EPS * norm_t * np.linalg.norm(u)


def test_du_diagnostics_match_unfloored_oracle():
    # perfbench's tolerances. n stops at 16: from n = 32 on, T X_n has
    # condition number about 4^n and the sine's roundoff floor is near 1e-7
    # on both matrices.
    check = Tolerances().check
    rows, oracle_rows = [], []
    for n, m in [(4, 192), (8, 384), (16, 768)]:
        got = diagnose(make_lpa(get_family("du"), n, m))
        want = diagnose(LpaInstance(_du_unfloored(m), n))
        assert (got.kernel_dim, got.kernel_core_dim) == (want.kernel_dim, want.kernel_core_dim)
        assert kernel_verdict([got], check) == kernel_verdict([want], check)
        assert got.sin_theta_gap == pytest.approx(want.sin_theta_gap, rel=0, abs=1e-10)
        assert got.kernel_gap == pytest.approx(want.kernel_gap, rel=0, abs=1e-10)
        assert got.norm_tn_dag_t == pytest.approx(want.norm_tn_dag_t, rel=1e-9, abs=0)
        assert got.bound_factor == pytest.approx(want.bound_factor, rel=1e-9, abs=0)
        rows.append(got)
        oracle_rows.append(want)
    assert kernel_verdict(rows, check) == kernel_verdict(oracle_rows, check) == "violated"


def test_du_kernel_direction_appears_with_depth():
    # the almost-kernel direction sits 4^-m from zero, so it crosses the
    # rank cutoff only once the truncation is deep enough
    assert kernel_basis(du(8)).dim == 0
    assert kernel_basis(du(16)).dim == 0
    assert kernel_basis(du(30)).dim == 1
    assert kernel_basis(du(64)).dim == 1


def test_du_kernel_aligns_with_unit_direction():
    ker = kernel_basis(du(40))
    e = du_vector_e(40)
    e = e / np.linalg.norm(e)
    assert abs(abs(float(ker.basis[:, 0] @ e)) - 1.0) <= 1e-10


def test_du_vector_e_entries_and_norm():
    e = du_vector_e(5)
    assert e[0] == pytest.approx(np.sqrt(3.0) / 2.0)
    assert e[3] == pytest.approx(np.sqrt(3.0) / 16.0)
    for m in (5, 10, 30):
        want = 1.0 - 4.0 ** (-m)  # geometric tail of the unit vector
        assert np.dot(du_vector_e(m), du_vector_e(m)) == pytest.approx(want, abs=1e-15)


def test_du_bad_y_entries_and_pairing():
    y = du_bad_y(4)
    assert y[0] == pytest.approx(np.sqrt(3.0) / 4.0)       # (2-1)sqrt(3)/4
    assert y[2] == pytest.approx(7.0 * np.sqrt(3.0) / 64.0)
    for m in (6, 20, 40):
        want = 4.0 / 7.0 - 3.0 * (4.0 ** (-m) / 3.0 - 8.0 ** (-m) / 7.0)
        got = float(np.dot(du_bad_y(m), du_vector_e(m)))
        assert got == pytest.approx(want, abs=1e-15)


# ------------------------------------------------------------ every family


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_entries_stay_above_sqrt_tiny(name):
    # the OperatorFamily contract: no nonzero entry below sqrt(tiny) * max|a|,
    # so no product of two entries is subnormal; du is checked past its cutoff
    a = np.abs(get_family(name).truncate(1024 if name == "du" else 64))
    nonzero = a[a != 0.0]
    assert nonzero.size
    assert nonzero.min() >= math.sqrt(np.finfo(float).tiny) * a.max()


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_a_family_with_an_inverse_declares_no_kernel(name):
    # a closed-form inverse certifies that T is injective at every m
    # (analysis.TruncationFactor inverts T through it), so the gallery must
    # not print a kernel for the family
    fam = get_family(name)
    assert fam.inverse is None or fam.kernel_dim_hint == 0


# ------------------------------------------------------------ singular systems


def test_singular_system_validation():
    with pytest.raises(ValueError):
        SingularSystem(sigmas=(1.0, 2.0))   # not nonincreasing
    with pytest.raises(ValueError):
        SingularSystem(sigmas=(1.0, 0.0))   # not positive
    with pytest.raises(ValueError):
        SingularSystem(sigmas=(1.0,), kernel_dim=-1)
    with pytest.raises(ValueError, match="finite reciprocals"):
        SingularSystem(sigmas=(1.0, 1e-320))   # 1 / 1e-320 overflows
    SingularSystem(sigmas=(1.0, 1e-300))


def test_from_singular_system_round_trip():
    sys = SingularSystem(sigmas=(2.0, 1.0, 0.25), kernel_dim=2)
    for m in (8, 65, 512):
        model = from_singular_system(sys, m, seed=3)
        s = svd(model.products().columns(m)).singular_values
        assert np.allclose(s[:3], [2.0, 1.0, 0.25], atol=1e-12)
        assert np.all(s[3:] <= 1e-13)
        assert model.u_basis.shape == (m, 3) and model.v.basis.shape == (m, m)


def test_from_singular_system_factors():
    sys = SingularSystem(sigmas=(1.0, 0.5), kernel_dim=1)
    for m in (6, 65, 512):
        model = from_singular_system(sys, m, seed=11)
        t, v = model.products().columns(m), model.v.basis
        # v's first `rank` columns are the right singular vectors, its last
        # m - rank span the kernel of T
        planted = Subspace(v[:, 2:])
        computed = kernel_basis(t)
        assert computed.dim == m - 2
        assert gap(planted, computed) <= 1e-10
        for k, sigma in enumerate(sys.sigmas):
            assert np.allclose(t @ v[:, k], sigma * model.u_basis[:, k], atol=1e-12)


def test_from_singular_system_needs_room():
    sys = SingularSystem(sigmas=(1.0, 0.5), kernel_dim=2)
    with pytest.raises(ValueError):
        from_singular_system(sys, 3, seed=0)


def _sign_fixed_qr(g):
    # Q of g's reduced QR with R's diagonal made positive
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _drawn_factors(m, r, seed):
    # best-lpa's draw contract, from two m x r normal draws: U_r, the first's
    # sign-fixed Q times the signs of the second's R diagonal, and the
    # second's raw QR (h, tau), whose Q is V
    rng = np.random.default_rng(seed)
    q = _sign_fixed_qr(rng.standard_normal((m, r)))
    h, tau = np.linalg.qr(rng.standard_normal((m, r)), mode="raw")
    return q * np.sign(h.diagonal()), h, tau


_DEFAULT_SIGMAS = tuple(1.0 / k**2 for k in range(1, 13))


@pytest.mark.parametrize("sigmas, m, seed", [
    ((2.0, 1.0, 0.25), 8, 3),
    (_DEFAULT_SIGMAS, 65, 5),
    (_DEFAULT_SIGMAS, 512, 7),
], ids=["rank-3-m-8", "default-m-65", "default-m-512"])
def test_seeded_families_factor_m_by_r_draws(sigmas, m, seed):
    # best-lpa's U_r and V's reflectors, and random's U and W, come from the
    # QRs of m x r standard normal draws from default_rng(seed), bitwise:
    # no family draws the m x m matrix whose columns it would drop.
    # best-lpa's Y is the second draw's raw QR, unit lower trapezoidal, and
    # its T the fixed-order sum U_r (Sigma V_r^T), bitwise
    r = len(sigmas)
    model = from_singular_system(SingularSystem(sigmas=sigmas, kernel_dim=2), m, seed)
    u, h, tau = _drawn_factors(m, r, seed)
    assert model.u_basis.tobytes() == u.tobytes()
    y = np.tril(h.T, -1) + np.eye(m, r)
    assert model.v.y.tobytes() == y.tobytes() and np.array_equal(np.diag(model.v.s), tau)
    sv = np.ascontiguousarray(np.asarray(sigmas)[:, None] * model.v.split(r)[0].basis.T)
    assert model.products().columns(m).tobytes() == np.einsum("ik,kj->ij", u, sv).tobytes()
    rng = np.random.default_rng(seed)
    u = _sign_fixed_qr(rng.standard_normal((m, m - 2)))
    w = _sign_fixed_qr(rng.standard_normal((m - 2, m - 2)))
    sig = np.sort(rng.uniform(0.1, 2.0, size=m - 2))[::-1]
    a = random_finite_kernel(m, 2, seed)
    assert not a[:, :2].any()
    assert a[:, 2:].tobytes() == (u @ (sig[:, None] * w.T)).tobytes()


@pytest.mark.parametrize("m", [14, 65, 512])
def test_best_lpa_xn_basis_is_a_view_of_v(monkeypatch, m):
    # X_n is V's kernel columns and its n leading right singular vectors,
    # within m eps of those columns of numpy's complete Q of the second
    # draw; X_n and the factor's row space and kernel share the model's
    # reflectors, Y and S
    models = []
    real = lpakit.operators.from_singular_system
    monkeypatch.setattr(lpakit.operators, "from_singular_system",
                        lambda *a: models.append(real(*a)) or models[-1])
    fam, r = get_family("best-lpa", seed=3), len(_DEFAULT_SIGMAS)
    rng = np.random.default_rng(3)
    rng.standard_normal((m, r))
    q = np.linalg.qr(rng.standard_normal((m, r)), mode="complete")[0]
    for n in (1, 6, r):
        x_n = fam.xn_basis(n, m)
        (model,) = models
        assert x_n.y is model.v.y and x_n.s is model.v.s
        assert np.abs(x_n.basis - np.hstack([q[:, r:], q[:, :n]])).max() <= m * EPS
    factor = shared_factors(fam)(m)
    assert factor.rank == r and len(models) == 1
    for sub in (factor.rowspace, factor.kernel):
        assert sub.y is model.v.y and sub.s is model.v.s


def test_best_lpa_factor_holds_reflectors_not_v():
    # the model holds U_r and V's r reflectors, O(m r) numbers, and the
    # factor reads U_rho^T T through them: building both at m = 2048 peaks
    # under 16 x 8 m r bytes, where an m x m V alone would be m / r = 171
    # times 8 m r
    fam, m = get_family("best-lpa"), 2048
    r = len(fam.params["sigmas"])
    np.random.default_rng  # numpy imports numpy.random on first use: not in the trace
    tracemalloc.start()
    try:
        factor = shared_factors(fam)(m)
        assert factor.ut_rho.shape == (r, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * m * r, peak / (8 * m * r)


def test_from_singular_system_deterministic():
    sys = SingularSystem(sigmas=(1.0,), kernel_dim=0)
    a = from_singular_system(sys, 5, seed=9).products().columns(5)
    b = from_singular_system(sys, 5, seed=9).products().columns(5)
    assert np.array_equal(a, b)


# -------------------------------------------------------- random finite kernel


def test_random_finite_kernel_plants_coordinates():
    for seed in range(5):
        kdim = 1 + seed % 4
        a = random_finite_kernel(12, kdim, seed)
        assert np.array_equal(a[:, :kdim], np.zeros((12, kdim)))
        ker = kernel_basis(a)
        assert ker.dim == kdim
        assert gap(ker, Subspace.coordinate(12, kdim)) <= 1e-12
        s = svd(a).singular_values
        assert s[0] <= 2.0 + 1e-12
        assert s[12 - kdim - 1] >= 0.1 - 1e-12


def test_random_finite_kernel_zero_dim_is_injective():
    a = random_finite_kernel(6, 0, 4)
    assert kernel_basis(a).dim == 0


def test_random_finite_kernel_validates():
    with pytest.raises(ValueError):
        random_finite_kernel(4, 4, 0)


# -------------------------------------------------------------------- registry


def test_family_names():
    assert set(FAMILY_NAMES) >= {"seidman", "du", "best-lpa", "random", "identity"}
    assert list(FAMILY_NAMES) == sorted(FAMILY_NAMES)


def test_get_family_unknown_name():
    with pytest.raises(ValueError, match="seidman"):
        get_family("not-a-family")


def test_static_families_reject_params():
    with pytest.raises(ValueError):
        get_family("seidman", kernel_dim=1)


def test_parametric_families_reject_unknown_params():
    with pytest.raises(ValueError):
        get_family("random", bogus=3)


def test_random_family_respects_params():
    fam = get_family("random", kernel_dim=3, seed=5)
    assert fam.kernel_dim_hint == 3
    assert kernel_basis(fam.truncate(10)).dim == 3


def test_best_lpa_family_subspaces():
    fam = get_family("best-lpa")
    basis = fam.xn_basis(3, 20).basis
    assert basis.shape == (20, 8 + 3)  # ambient kernel dim 8 plus three
    q = basis.T @ basis
    assert np.allclose(q, np.eye(11), atol=1e-12)
    with pytest.raises(ValueError):
        fam.xn_basis(13, 20)  # only 12 singular directions prescribed


@pytest.mark.parametrize("name, params, n, m, fragment", [
    ("seidman", {}, 5, 4, "n <= m"),
    ("identity", {}, 0, 4, "n <= m"),
    ("best-lpa", {}, 13, 20, "limit 12"),
    ("best-lpa", {"kernel_dim": 3}, 2, 14, "minimum 15"),
    ("random", {"kernel_dim": 4}, 2, 4, "minimum 5"),
], ids=["seidman-n-above-m", "identity-n-0", "best-lpa-n-above-rank", "best-lpa-m-below-min",
        "random-m-below-min"])
def test_family_check_rejects_pairs_it_cannot_build(name, params, n, m, fragment):
    fam = get_family(name, **params)
    with pytest.raises(ValueError, match=fragment):
        fam.check(n, m)


def test_family_check_accepts_the_limits():
    for name, params, n, m in [("best-lpa", {}, 12, 14), ("random", {"kernel_dim": 4}, 5, 5),
                               ("du", {}, 7, 7)]:
        fam = get_family(name, **params)
        fam.check(n, m)
        if fam.xn_basis is not None:
            assert fam.xn_basis(n, m).shape[0] == m
        assert fam.truncate(m).shape == (m, m)


@pytest.mark.parametrize("name, params", [
    ("random", {"seed": -1}),
    ("random", {"kernel_dim": -1}),
    ("random", {"seed": 1.5}),
    ("best-lpa", {"seed": -2}),
    ("best-lpa", {"seed": True}),
    ("best-lpa", {"kernel_dim": 1.5}),
], ids=["random-seed-negative", "random-kernel-dim-negative", "random-seed-float",
        "best-lpa-seed-negative", "best-lpa-seed-bool", "best-lpa-kernel-dim-float"])
def test_parametric_families_reject_bad_integers(name, params):
    with pytest.raises(ValueError, match="nonnegative integer"):
        get_family(name, **params)


def test_identity_family():
    fam = get_family("identity")
    assert np.array_equal(fam.truncate(4), np.eye(4))
