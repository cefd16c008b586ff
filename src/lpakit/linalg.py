"""Dense linear algebra used everywhere else in the package.

Everything is built on one deterministic SVD backend. Rank decisions are
centralized in :func:`numerical_rank` so that the pseudoinverse, range and
kernel extraction all agree on what counts as zero. Subspaces are held only as
orthonormal bases (see :class:`Subspace`), each checked once, a caller's or
LAPACK's alike, by ``||B^T B - I||_F <= 1e-12 max(1, m)``: O(m k^2), no LAPACK
call. gap and deficiency work on bases; :func:`projector` builds the m x m
matrix only for checks that need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)

__all__ = [
    "EPS",
    "SvdResult",
    "Subspace",
    "ObliqueNormCheck",
    "as_matrix",
    "as_vector",
    "svd",
    "numerical_rank",
    "pseudo_inverse",
    "pinv_from_svd",
    "orthonormal_range",
    "kernel_basis",
    "projector",
    "gap",
    "deficiency",
    "canonical_angles",
    "oblique_projector_norm_identity",
]


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-d float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(y) -> np.ndarray:
    """Validate and return `y` as a 1-d float array with finite entries."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={y.ndim}")
    if not np.all(np.isfinite(y)):
        raise ValueError("vector entries must be finite")
    return y


@dataclass(frozen=True)
class SvdResult:
    """SVD ``a = u[:, :k] @ diag(singular_values) @ vt[:k]``, k = len(singular_values)."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^m held as an m x k matrix with orthonormal columns.

    k = 0 is allowed and represents the zero subspace. Construction requires
    ``||B^T B - I||_F <= 1e-12 * max(1, m)``: at least as strict as the
    spectral norm it bounds, O(m k^2), and no LAPACK call.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = self.basis
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        if b.shape[1] > b.shape[0]:
            raise ValueError(f"more columns than ambient dimension: {b.shape}")
        g = b.T @ b
        np.fill_diagonal(g, g.diagonal() - 1.0)  # B^T B - I with one k x k array
        defect = np.linalg.norm(g)
        if not defect <= 1e-12 * max(1, b.shape[0]):
            raise ValueError(f"columns are not orthonormal (defect {defect:.3e})")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v) -> np.ndarray:
        """Orthogonal projection B (B^T v) of a vector or of a matrix's columns."""
        return self.basis @ (self.basis.T @ v)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((ambient_dim, 0)))

    @staticmethod
    def coordinate(ambient_dim: int, k: int) -> "Subspace":
        """span{e^1, ..., e^k} inside R^ambient_dim."""
        return Subspace(np.eye(ambient_dim, k))


def svd(a, full_matrices: bool = True) -> SvdResult:
    """SVD with nonincreasing singular values.

    Backed by LAPACK through numpy; deterministic for a fixed input. A
    non-converging iteration raises ``numpy.linalg.LinAlgError`` rather than
    returning garbage. full_matrices=False gives the thin u of a tall input.
    """
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=full_matrices)
    return SvdResult(u=u, singular_values=s, vt=vt)


def numerical_rank(singular_values: np.ndarray, shape, rank_tol: float | None = None,
                   scale: float | None = None) -> int:
    """Number of singular values above the cutoff ``rank_tol * anchor``.

    The anchor is the largest singular value unless `scale` is given. Pass
    the producing map's norm as `scale` when the matrix holds images of unit
    vectors under that map: a numerically zero image then collapses to rank 0
    instead of promoting roundoff noise to full rank.

    rank_tol defaults to ``max(shape) * eps`` against the largest singular
    value, and to ten times that against an explicit scale anchor: anchored
    decisions judge matrix products whose roundoff floor sits near
    ``max(shape) * eps * scale``, so the cutoff needs headroom above the
    floor rather than above exact-arithmetic zero.
    """
    s = np.asarray(singular_values)
    if s.size == 0:
        return 0
    if rank_tol is None:
        rank_tol = max(shape) * EPS * (1.0 if scale is None else 10.0)
    anchor = float(s[0]) if scale is None else float(scale)
    return int(np.sum(s > rank_tol * anchor))


def pseudo_inverse(a, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse via SVD with singular values below
    ``rank_tol * sigma_max`` treated as zero."""
    a = as_matrix(a)
    res = svd(a)
    return pinv_from_svd(res, numerical_rank(res.singular_values, a.shape, rank_tol))


def pinv_from_svd(res: SvdResult, rank: int) -> np.ndarray:
    """Moore-Penrose inverse from SVD factors and the rank to keep."""
    if rank == 0:
        return np.zeros((res.vt.shape[1], res.u.shape[0]))
    return (res.vt[:rank].T / res.singular_values[:rank]) @ res.u[:, :rank].T


def orthonormal_range(a, rank_tol: float | None = None) -> Subspace:
    """Orthonormal basis of the numerical column space of `a`, its rank
    judged against its own largest singular value."""
    a = as_matrix(a)
    res = svd(a, full_matrices=False)
    r = numerical_rank(res.singular_values, a.shape, rank_tol)
    return Subspace(res.u[:, :r].copy())


def kernel_basis(a, rank_tol: float | None = None,
                 scale: float | None = None) -> Subspace:
    """Orthonormal basis of the numerical null space of `a`.

    dim = cols - numerical rank. `scale` overrides the rank anchor, see
    :func:`numerical_rank`.
    """
    a = as_matrix(a)
    res = svd(a)
    r = numerical_rank(res.singular_values, a.shape, rank_tol, scale)
    return Subspace(res.vt[r:].T.copy())


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector B @ B.T onto the subspace, m x m."""
    return s.basis @ s.basis.T


def _require_same_ambient(m: Subspace, n: Subspace) -> None:
    if m.ambient_dim != n.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}")


def gap(m: Subspace, n: Subspace) -> float:
    """Gap ``||P_M - P_N||`` in [0, 1], for any pair with the same ambient
    dimension: exactly 1 when the dimensions differ, else deficiency(M, N),
    the sine of the largest principal angle (zero for two zero subspaces).
    """
    _require_same_ambient(m, n)
    return 1.0 if m.dim != n.dim else deficiency(m, n)


def deficiency(m: Subspace, n: Subspace) -> float:
    """Directed deficiency ``delta(M, N) = ||(I - P_N) P_M|| = ||B_M - P_N B_M||``.

    Zero when M is the zero subspace (sup over an empty set of unit vectors).
    gap(M, N) equals max(delta(M, N), delta(N, M)).
    """
    _require_same_ambient(m, n)
    if m.dim == 0:
        return 0.0
    return float(np.linalg.norm(m.basis - n.project(m.basis), 2))


def canonical_angles(m: Subspace, n: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, nondecreasing, in [0, pi/2].

    Cosines are the singular values of ``B_m.T @ B_n``, clamped to [0, 1]
    before arccos so that roundoff above 1 cannot produce NaN. Requires
    dim(m) <= dim(n); the result has length dim(m). When the dimensions are
    equal, sin of the largest angle equals gap(m, n).
    """
    _require_same_ambient(m, n)
    if m.dim > n.dim:
        raise ValueError(
            "dim(m) > dim(n): swap the arguments, the smaller subspace goes first")
    if m.dim == 0:
        return np.zeros(0)
    cosines = np.linalg.svd(m.basis.T @ n.basis, compute_uv=False)
    cosines = np.clip(cosines, 0.0, 1.0)
    return np.sort(np.arccos(cosines))


@dataclass(frozen=True)
class ObliqueNormCheck:
    """Both evaluation routes for the idempotent norm identity.

    lhs = ``||P_ker(S) P_ran(S)||``, rhs = ``sqrt(1 - 1/||S||^2)`` (zero for
    S = 0), projector_diff = ``||P_ran(S) - P_ran(S^T)||``. The three agree
    for every idempotent S.
    """

    lhs: float
    rhs: float
    projector_diff: float
    tol: float
    passed: bool


def oblique_projector_norm_identity(s, tol: float = 1e-8) -> ObliqueNormCheck:
    """Check the norm identity for an idempotent matrix S.

    Raises ValueError when S is not numerically idempotent
    (``||S^2 - S|| > tol * (1 + ||S||^2)``).
    """
    s = as_matrix(s)
    norm_s = float(np.linalg.norm(s, 2))
    defect = float(np.linalg.norm(s @ s - s, 2))
    if defect > tol * (1.0 + norm_s**2):
        raise ValueError(
            f"matrix is not idempotent: ||S^2 - S|| = {defect:.3e} "
            f"exceeds {tol * (1.0 + norm_s**2):.3e}")
    ker = kernel_basis(s)
    ran = orthonormal_range(s)
    ran_t = orthonormal_range(s.T)
    lhs = float(np.linalg.norm(projector(ker) @ projector(ran), 2))
    rhs = 0.0 if norm_s == 0.0 else float(np.sqrt(max(0.0, 1.0 - 1.0 / norm_s**2)))
    pdiff = gap(ran, ran_t)
    passed = abs(lhs - rhs) <= tol and abs(lhs - pdiff) <= tol
    return ObliqueNormCheck(lhs=lhs, rhs=rhs, projector_diff=pdiff, tol=tol,
                            passed=passed)
