"""Tests for the built-in operator families and their truncations."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lpakit.linalg import Subspace, gap, kernel_basis, svd
from lpakit.operators import (
    FAMILY_NAMES,
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


def test_du_symmetric():
    a = du(10)
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_du_nearly_projector(m):
    a = du(m)
    assert np.linalg.norm(a @ a - a, 2) <= 3.0 * 4.0 ** (-m)


def test_du_large_truncation_is_silent():
    # 2^(i+j) overflows to inf once i + j > 1023; 3/inf = 0 is the entry.
    # The right-hand sides take negative powers, which underflow to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = du(512)
        y, e = du_bad_y(1100), du_vector_e(1100)
    assert np.all(np.isfinite(a))
    assert a[-1, -1] == 1.0  # the one overflowing entry, i = j = 512
    assert np.array_equal(a[:256, :256], du(256))
    # closed forms (2^k - 1) sqrt(3)/4^k and sqrt(3)/2^k, rounded once from exact
    k = range(1, 1101)
    np.testing.assert_allclose(
        y, [math.sqrt(3.0) * float(Fraction(2**i - 1, 4**i)) for i in k], rtol=1e-15, atol=0)
    np.testing.assert_allclose(
        e, [math.sqrt(3.0) * float(Fraction(1, 2**i)) for i in k], rtol=1e-15, atol=0)


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


# ------------------------------------------------------------ singular systems


def test_singular_system_validation():
    with pytest.raises(ValueError):
        SingularSystem(sigmas=(1.0, 2.0))   # not nonincreasing
    with pytest.raises(ValueError):
        SingularSystem(sigmas=(1.0, 0.0))   # not positive
    with pytest.raises(ValueError):
        SingularSystem(sigmas=(1.0,), kernel_dim=-1)


def test_from_singular_system_round_trip():
    sys = SingularSystem(sigmas=(2.0, 1.0, 0.25), kernel_dim=2)
    model = from_singular_system(sys, 8, seed=3)
    s = svd(model.matrix).singular_values
    assert np.allclose(s[:3], [2.0, 1.0, 0.25], atol=1e-12)
    assert np.all(s[3:] <= 1e-13)
    assert model.rank == 3
    assert model.planted_kernel_dim == 2


def test_from_singular_system_factors():
    sys = SingularSystem(sigmas=(1.0, 0.5), kernel_dim=1)
    model = from_singular_system(sys, 6, seed=11)
    # v_basis columns beyond the rank span the kernel of the matrix
    planted = Subspace(model.v_basis[:, 2:])
    computed = kernel_basis(model.matrix)
    assert computed.dim == 4
    assert gap(planted, computed) <= 1e-10
    for k, sigma in enumerate(sys.sigmas):
        assert np.allclose(model.matrix @ model.v_basis[:, k],
                           sigma * model.u_basis[:, k], atol=1e-12)


def test_from_singular_system_needs_room():
    sys = SingularSystem(sigmas=(1.0, 0.5), kernel_dim=2)
    with pytest.raises(ValueError):
        from_singular_system(sys, 3, seed=0)


def test_from_singular_system_deterministic():
    sys = SingularSystem(sigmas=(1.0,), kernel_dim=0)
    a = from_singular_system(sys, 5, seed=9).matrix
    b = from_singular_system(sys, 5, seed=9).matrix
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
    basis = fam.xn_basis(3, 20)
    assert basis.shape == (20, 8 + 3)  # ambient kernel dim 8 plus three
    q = basis.T @ basis
    assert np.allclose(q, np.eye(11), atol=1e-12)
    with pytest.raises(ValueError):
        fam.xn_basis(13, 20)  # only 12 singular directions prescribed


def test_identity_family():
    fam = get_family("identity")
    assert np.array_equal(fam.truncate(4), np.eye(4))
