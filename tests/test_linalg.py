"""Unit and property tests for the dense linear algebra layer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpakit.linalg import (
    _GRAM_BLOCK,
    EPS,
    STRIP,
    _gram_defect,
    Subspace,
    as_matrix,
    as_vector,
    canonical_angles,
    deficiency,
    gap,
    kernel_basis,
    oblique_projector_norm_identity,
    orthonormal_range,
    projector,
    pseudo_inverse,
    rank_cutoff,
    svd,
)

seeds = st.integers(0, 2**32 - 1)


def random_matrix(seed: int, max_dim: int = 20) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, max_dim + 1, 2)
    if seed % 2:
        # exactly rank-deficient whenever inner < min(rows, cols)
        inner = int(rng.integers(1, min(rows, cols) + 1))
        return rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
    return rng.standard_normal((rows, cols))


def random_subspace(rng: np.random.Generator, ambient: int, dim: int) -> Subspace:
    return orthonormal_range(rng.standard_normal((ambient, dim)))


def rotation_pair(alpha: float):
    """Two lines in the plane at angle alpha to each other."""
    a = Subspace(np.array([[1.0], [0.0]]))
    b = Subspace(np.array([[np.cos(alpha)], [np.sin(alpha)]]))
    return a, b


# ---------------------------------------------------------------- svd, rank


def test_svd_reconstructs_and_factors_are_orthogonal():
    a = random_matrix(7)
    res = svd(a)
    k = min(a.shape)
    recon = res.u[:, :k] @ (res.singular_values[:, None] * res.vt[:k])
    assert np.linalg.norm(recon - a, 2) <= 1e-12 * (1 + np.linalg.norm(a, 2))
    assert np.allclose(res.u.T @ res.u, np.eye(a.shape[0]), atol=1e-12)
    assert np.allclose(res.vt @ res.vt.T, np.eye(a.shape[1]), atol=1e-12)


def test_numerical_rank_of_exact_cases():
    # the rule's defaults: tol 10 max(shape) eps against sigma_max
    s = np.array([3.0, 1.0, 1e-20])
    assert rank_cutoff(s, (3, 3)) == (2, 10 * 3 * EPS * 3.0)
    assert rank_cutoff(np.array([0.0, 0.0]), (2, 2)) == (0, 0.0)
    assert rank_cutoff(np.array([]), (0, 3)) == (0, 0.0)
    assert rank_cutoff(np.array([1.0]), (1, 1))[0] == 1
    assert rank_cutoff(s, (3, 3), tol=0.5, anchor=4.0) == (1, 2.0)


def test_numerical_rank_with_scale_anchor_collapses_noise():
    # images of kernel vectors: tiny values that are full-rank relative to
    # each other but pure noise against the producing map's norm
    s = np.array([3e-15, 2e-15, 1e-15])
    assert rank_cutoff(s, (20, 3))[0] == 3
    assert rank_cutoff(s, (20, 3), anchor=1.0)[0] == 0


def test_numerical_rank_scale_anchor_keeps_honest_values():
    s = np.array([1.0, 1e-3, 1e-9])
    assert rank_cutoff(s, (20, 3), anchor=1.0)[0] == 3


def test_pseudo_inverse_known_diagonal():
    a = np.diag([2.0, 0.0])
    assert np.allclose(pseudo_inverse(a), np.diag([0.5, 0.0]), atol=1e-15)


def test_pseudo_inverse_matches_reference_on_rectangular():
    a = random_matrix(12)
    assert np.allclose(pseudo_inverse(a), np.linalg.pinv(a), atol=1e-10)


def test_pseudo_inverse_of_zero_matrix():
    assert np.array_equal(pseudo_inverse(np.zeros((3, 5))), np.zeros((5, 3)))


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_pseudo_inverse_axioms(seed):
    a = random_matrix(seed)
    x = pseudo_inverse(a)
    na, nx = np.linalg.norm(a, 2), np.linalg.norm(x, 2)
    assert np.linalg.norm(a @ x @ a - a, 2) <= 1e-9 * (1 + na)
    assert np.linalg.norm(x @ a @ x - x, 2) <= 1e-9 * (1 + nx)
    assert np.linalg.norm((a @ x).T - a @ x, 2) <= 1e-9
    assert np.linalg.norm((x @ a).T - x @ a, 2) <= 1e-9


# ------------------------------------------------------ subspaces, projectors


def test_subspace_validates_orthonormality():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError, match="basis must be a 2-d array"):
        Subspace(np.ones(4))


def test_subspace_equality_hash_and_repr_read_no_basis():
    # == and hash are by identity, and repr names m and k: none compares,
    # hashes or prints the m x k basis
    a = Subspace(np.eye(4, 2))
    assert a == a and a != Subspace(a.basis.copy())
    assert hash(a) == hash(a)
    assert repr(a) == "Subspace(m=4, k=2)"


def test_subspace_constructors():
    z = Subspace.zero(4)
    assert z.dim == 0 and z.ambient_dim == 4
    c = Subspace.coordinate(5, 2)
    assert c.dim == 2
    assert np.array_equal(c.basis, np.eye(5)[:, :2])
    with pytest.raises(ValueError, match="more columns than ambient dimension"):
        Subspace.coordinate(3, 4)


@pytest.mark.parametrize("k", [64, 10])
def test_subspace_check_calls_no_lapack_svd(monkeypatch, k):
    # the check is a Frobenius norm, so even a square basis takes no SVD
    basis = np.linalg.qr(np.random.default_rng(k).standard_normal((64, k)))[0]
    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    real_svd = internal.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(internal, "svd", counting_svd)
    assert Subspace(basis).dim == k
    assert calls == []


def test_as_matrix_checks_finiteness_without_an_m_by_m_mask():
    # the entries are read in strips of STRIP rows: no m x m bool array
    m = 768
    a = np.ones((m, m))
    tracemalloc.start()
    try:
        as_matrix(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * m * m, peak / (8 * m * m)


def test_as_matrix_and_as_vector_reject_the_wrong_ndim():
    with pytest.raises(ValueError, match="expected a matrix, got ndim=1"):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError, match="expected a vector, got ndim=2"):
        as_vector(np.ones((3, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows, row", [
    (768, 0), (768, 767), (3 * STRIP + 5, 3 * STRIP + 4), (STRIP - 1, STRIP - 2),
], ids=["first-row", "last-row", "partial-last-strip", "one-partial-strip"])
def test_as_matrix_and_as_vector_reject_a_nonfinite_entry_in_any_strip(rows, row, bad):
    a = np.ones((rows, 7))
    a[row, 6] = bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        as_matrix(a)
    y = np.ones(rows)
    y[row] = bad
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        as_vector(y)


def test_subspace_check_allocates_no_gram_matrix():
    # B^T B - I is summed over column blocks: at k = 768 the check's largest
    # array is one block against the columns to its right, not k x k
    k = 768
    basis = np.eye(k)
    tracemalloc.start()
    try:
        Subspace(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * k * k, peak


@pytest.mark.parametrize("k", [0, 1, 7])
def test_subspace_maps_are_its_basis_products(k):
    # apply and coords are B p and B^T v, and project is B (B^T v), bytewise,
    # for a vector and for a matrix's columns
    rng = np.random.default_rng(k)
    s = Subspace(np.linalg.qr(rng.standard_normal((12, k)))[0])
    b = s.basis
    for p, v in ((rng.standard_normal(k), rng.standard_normal(12)),
                 (rng.standard_normal((k, 3)), rng.standard_normal((12, 3)))):
        assert s.apply(p).tobytes() == (b @ p).tobytes()
        assert s.coords(v).tobytes() == (b.T @ v).tobytes()
        assert s.project(v).tobytes() == (b @ (b.T @ v)).tobytes()


def test_subspace_unchecked_takes_the_basis_as_it_is(monkeypatch):
    checked = []
    monkeypatch.setattr("lpakit.linalg._gram_defect", lambda b: checked.append(b.shape))
    b = np.ones((6, 2))
    view = Subspace(b, check=False)
    assert checked == [] and view.basis is b and view.shape == (6, 2)


@pytest.mark.parametrize("k", [0, 1, _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                               3 * _GRAM_BLOCK + 5])
def test_blocked_gram_defect_matches_dense(k):
    # an orthonormal basis with every column's length off by up to 1e-6 and
    # one column tilted toward the first, so both diagonal and off-diagonal
    # blocks carry defect
    m = k + 20
    rng = np.random.default_rng([17, k])
    b = np.linalg.qr(rng.standard_normal((m, k)))[0] * (1.0 + 1e-6 * rng.random(k))
    if k > 1:
        b[:, -1] += 1e-6 * b[:, 0]
    dense = float(np.linalg.norm(b.T @ b - np.eye(k)))
    assert (dense > 0) == (k > 0)
    # each entry of B^T B - I carries roundoff of order m eps, whatever its size
    assert abs(_gram_defect(b) - dense) <= 10 * EPS * m


@pytest.mark.parametrize("tilt, accepted", [(0.9, False), (0.6, True)])
def test_subspace_counts_off_diagonal_blocks_twice(tilt, accepted):
    # the last column tilted toward the first by tilt * bound: B^T B - I holds
    # tilt * bound at (0, k-1) and at (k-1, 0), so its norm is about
    # sqrt(2) tilt * bound, over the bound at 0.9 and under it at 0.6; the two
    # entries sit in different column blocks
    k = 3 * _GRAM_BLOCK + 5
    bound = 1e-12 * k
    basis = np.eye(k)
    basis[0, -1] = tilt * bound
    if accepted:
        Subspace(basis)
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(basis)


def test_subspace_rejects_spectral_defect_twice_the_bound():
    # ||B^T B - I||_2 = 2 * 1e-12 * m, carried by one column's length
    m = 8
    basis = np.eye(m, 3)
    basis[:, 0] *= np.sqrt(1.0 + 2e-12 * m)
    assert np.linalg.norm(basis.T @ basis - np.eye(3), 2) == pytest.approx(2e-12 * m, rel=1e-3)
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(basis)


def test_orthonormal_range_and_kernel_are_complementary():
    a = random_matrix(31)
    ran = orthonormal_range(a)
    ker = kernel_basis(a)
    assert ran.dim + ker.dim == a.shape[1] or ran.dim == np.linalg.matrix_rank(a)
    assert np.linalg.norm(a @ ker.basis, 2) <= 1e-10 * (1 + np.linalg.norm(a, 2))


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_projector_idempotent_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(1, 21))
    s = random_subspace(rng, ambient, int(rng.integers(1, ambient + 1)))
    p = projector(s)
    assert np.linalg.norm(p @ p - p, 2) <= 1e-12
    assert np.linalg.norm(p - p.T, 2) <= 1e-12


# ----------------------------------------------------------------- gap metric


def test_gap_of_rotated_lines_is_sine():
    for alpha in (0.1, 0.7, 1.2):
        a, b = rotation_pair(alpha)
        assert abs(gap(a, b) - np.sin(alpha)) <= 1e-12


def test_gap_extremes():
    a = Subspace.coordinate(3, 1)
    b = Subspace(np.eye(3)[:, 1:2])
    assert abs(gap(a, b) - 1.0) <= 1e-12
    assert gap(a, a) <= 1e-15
    assert gap(Subspace.zero(3), Subspace.zero(3)) == 0.0


def test_gap_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        gap(Subspace.zero(3), Subspace.zero(4))


def test_deficiency_directed():
    line = Subspace.coordinate(3, 1)
    plane = Subspace.coordinate(3, 2)
    assert deficiency(line, plane) <= 1e-15
    assert abs(deficiency(plane, line) - 1.0) <= 1e-12
    assert deficiency(Subspace.zero(3), line) == 0.0


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_gap_equals_max_deficiency(seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 21))
    m = random_subspace(rng, ambient, int(rng.integers(1, ambient)))
    n = random_subspace(rng, ambient, int(rng.integers(1, ambient)))
    g = gap(m, n)
    assert abs(g - max(deficiency(m, n), deficiency(n, m))) <= 1e-10
    assert -1e-12 <= g <= 1 + 1e-12
    assert abs(g - gap(n, m)) <= 1e-12


def dense_gap(m: Subspace, n: Subspace) -> float:
    """Oracle: the projector form ||P_M - P_N||."""
    return float(np.linalg.norm(projector(m) - projector(n), 2))


def dense_deficiency(m: Subspace, n: Subspace) -> float:
    """Oracle: the projector form ||(I - P_N) P_M||."""
    pm = projector(m)
    return float(np.linalg.norm(pm - projector(n) @ pm, 2))


@settings(max_examples=40, deadline=None)
@given(seeds)
@pytest.mark.parametrize("kind", ["equal", "unequal", "zero", "nearly-equal"])
def test_gap_and_deficiency_match_dense_oracle(kind, seed):
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 41))
    dim = int(rng.integers(1, ambient))
    m = random_subspace(rng, ambient, dim)
    if kind == "equal":
        n = random_subspace(rng, ambient, dim)
    elif kind == "unequal":
        n = random_subspace(rng, ambient, int(rng.choice(
            [k for k in range(ambient + 1) if k != dim])))
    elif kind == "zero":
        n = Subspace.zero(ambient)
    else:
        tilt = 10.0 ** -rng.uniform(4, 12)
        n = orthonormal_range(m.basis + tilt * rng.standard_normal((ambient, dim)))
    for a, b in ((m, n), (n, m)):
        assert abs(deficiency(a, b) - dense_deficiency(a, b)) <= 1e-12
        assert abs(gap(a, b) - dense_gap(a, b)) <= 1e-12
        if a.dim != b.dim:
            assert gap(a, b) == 1.0
    if kind == "nearly-equal":
        assert gap(m, n) <= 1e-3


def test_gap_of_unequal_dimensions_is_exactly_one():
    rng = np.random.default_rng(41)
    for ambient, dim_m, dim_n in ((40, 7, 8), (40, 0, 1), (5, 4, 1), (3, 3, 2)):
        m = random_subspace(rng, ambient, dim_m) if dim_m else Subspace.zero(ambient)
        n = random_subspace(rng, ambient, dim_n)
        assert gap(m, n) == 1.0 and gap(n, m) == 1.0
    assert gap(Subspace.zero(40), Subspace.zero(40)) == 0.0
    assert dense_gap(Subspace.zero(40), Subspace.zero(40)) == 0.0


# ----------------------------------------------------------- canonical angles


def test_canonical_angles_of_rotated_lines():
    a, b = rotation_pair(0.5)
    angles = canonical_angles(a, b)
    assert angles.shape == (1,)
    assert abs(angles[0] - 0.5) <= 1e-12


def test_canonical_angles_requires_dim_order():
    plane = Subspace.coordinate(4, 2)
    line = Subspace.coordinate(4, 1)
    with pytest.raises(ValueError, match="swap"):
        canonical_angles(plane, line)
    assert canonical_angles(line, plane).shape == (1,)
    assert canonical_angles(Subspace.zero(4), line).shape == (0,)


def test_canonical_angles_sorted_and_clamped():
    rng = np.random.default_rng(5)
    m = random_subspace(rng, 10, 3)
    angles = canonical_angles(m, m)
    assert np.all(angles >= 0) and np.all(angles <= 1e-7)
    n = random_subspace(rng, 10, 4)
    a = canonical_angles(m, n)
    assert np.all(np.diff(a) >= 0)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_sin_max_canonical_angle_equals_gap_for_equal_dims(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 20))
    m = random_subspace(rng, 20, dim)
    n = random_subspace(rng, 20, dim)
    sin_max = float(np.sin(canonical_angles(m, n)[-1]))
    assert abs(sin_max - gap(m, n)) <= 1e-8


# ------------------------------------------------------- oblique norm identity


def oblique_from_seed(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(6, 13))
    rank = int(rng.integers(1, dim))
    while True:
        a = rng.standard_normal((dim, rank))
        b = rng.standard_normal((dim, rank))
        if np.linalg.cond(b.T @ a) < 1e3:
            return a @ np.linalg.solve(b.T @ a, b.T)


def test_oblique_identity_on_plane_example():
    # projection onto span{(1,0)} along span{(1,1)}: norm sqrt(2)
    s = np.array([[1.0, -1.0], [0.0, 0.0]])
    res = oblique_projector_norm_identity(s)
    expected = np.sqrt(1.0 - 0.5)  # ||S|| = sqrt(2)
    assert abs(res.lhs - expected) <= 1e-12
    assert abs(res.rhs - expected) <= 1e-12
    assert abs(res.projector_diff - expected) <= 1e-12
    assert res.passed


def test_oblique_identity_zero_matrix():
    res = oblique_projector_norm_identity(np.zeros((3, 3)))
    assert res.lhs == 0.0 and res.rhs == 0.0
    assert res.passed


def test_oblique_identity_orthogonal_projector():
    p = projector(Subspace.coordinate(4, 2))
    res = oblique_projector_norm_identity(p)
    assert res.lhs <= 1e-12 and res.rhs <= 1e-7 and res.projector_diff <= 1e-12


def test_oblique_identity_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        oblique_projector_norm_identity(np.diag([2.0, 1.0]))


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_oblique_identity_property(seed):
    res = oblique_projector_norm_identity(oblique_from_seed(seed))
    assert abs(res.lhs - res.rhs) <= 1e-8
    assert abs(res.lhs - res.projector_diff) <= 1e-8
    assert res.passed


def test_eps_is_double_precision():
    assert EPS == pytest.approx(2.220446049250313e-16)
