"""Dense linear algebra used everywhere else in the package.

Everything is built on one deterministic SVD backend. Every rank decision in
the package, the pseudoinverse's, range's and kernel's here and a truncation
factor's of T and of each T X_n, follows the one rule of :func:`rank_cutoff`,
so that all of them agree on what counts as zero. Subspaces are held only as
orthonormal bases (see :class:`Subspace`), each checked once, a caller's or
LAPACK's alike, by ``||B^T B - I||_F <= 1e-12 max(1, m)``: O(m k^2), no LAPACK
call, and summed over column blocks, so a wide basis forms no k x k array;
columns of a product of reflectors (operators.Reflector) are certified by
their reflectors instead. gap and deficiency work on bases;
:func:`projector` builds the m x m matrix only for checks that need it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

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
    "rank_cutoff",
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


# Rows per strip when _all_finite reads an array entrywise.
STRIP = 64


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite, read in strips of STRIP rows, so the
    check forms no bool array the size of `a`."""
    return all(np.isfinite(a[i:i + STRIP]).all() for i in range(0, a.shape[0], STRIP))


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-d float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not _all_finite(a):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(y) -> np.ndarray:
    """Validate and return `y` as a 1-d float array with finite entries."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={y.ndim}")
    if not _all_finite(y):
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
    spectral norm it bounds, O(m k^2), and no LAPACK call. The norm is
    summed over column blocks of 256 (_gram_defect), so the check holds at
    most a 256 x k array, never the k x k B^T B of a wider basis.
    check=False takes the basis as it is (an SVD's singular vectors).

    Readers go through three maps, each for a vector or a matrix's columns:
    apply(p) = B p, coords(v) = B^T v and project(v) = apply(coords(v)) =
    B (B^T v). A subclass may hold B as maps instead (columns of a product
    of reflectors, operators.Reflector: du's H, best-lpa's V) and form it
    only when basis is read.
    """

    basis: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not check:
            return
        b = self.basis
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        if b.shape[1] > b.shape[0]:
            raise ValueError(f"more columns than ambient dimension: {b.shape}")
        defect = _gram_defect(b)
        if not defect <= 1e-12 * max(1, b.shape[0]):
            raise ValueError(f"columns are not orthonormal (defect {defect:.3e})")

    @property
    def ambient_dim(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """The basis's shape, (ambient_dim, dim)."""
        return self.basis.shape

    def apply(self, p) -> np.ndarray:
        """B p, coordinates to vectors."""
        return self.basis @ p

    def coords(self, v) -> np.ndarray:
        """B^T v, vectors to coordinates."""
        return self.basis.T @ v

    def project(self, v) -> np.ndarray:
        """Orthogonal projection B (B^T v) of a vector or of a matrix's columns."""
        return self.apply(self.coords(v))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((ambient_dim, 0)))

    @staticmethod
    def coordinate(ambient_dim: int, k: int) -> "Subspace":
        """span{e^1, ..., e^k} inside R^ambient_dim."""
        return Subspace(np.eye(ambient_dim, k))


# Column block of the orthonormality check.
_GRAM_BLOCK = 256


def _gram_defect(b: np.ndarray) -> float:
    """||B^T B - I||_F, summed over column blocks B_j: each diagonal block
    B_j^T B_j - I, and each B_j^T [B_{j+1} ...] to its right, counted twice
    for its mirror below. The flops are the Gram matrix's, and the largest
    array is _GRAM_BLOCK x k; a basis of at most _GRAM_BLOCK columns is one
    block."""
    k = b.shape[1]
    total = 0.0
    for j in range(0, k, _GRAM_BLOCK):
        bj = b[:, j:j + _GRAM_BLOCK]
        g = bj.T @ bj
        np.fill_diagonal(g, g.diagonal() - 1.0)
        total += float(np.linalg.norm(g)) ** 2
        del g  # freed before the block to its right is formed
        if j + _GRAM_BLOCK < k:
            total += 2.0 * float(np.linalg.norm(bj.T @ b[:, j + _GRAM_BLOCK:])) ** 2
    return math.sqrt(total)


def svd(a, full_matrices: bool = True) -> SvdResult:
    """SVD with nonincreasing singular values.

    Backed by LAPACK through numpy; deterministic for a fixed input. A
    non-converging iteration raises ``numpy.linalg.LinAlgError`` rather than
    returning garbage. full_matrices=False gives the thin u of a tall input.
    """
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=full_matrices)
    return SvdResult(u=u, singular_values=s, vt=vt)


def rank_cutoff(singular_values, shape, tol: float | None = None,
                anchor: float | None = None) -> tuple[int, float]:
    """The package's one rank rule: (rank, cutoff), with cutoff = tol * anchor
    and rank the number of singular values above it.

    tol defaults to ``10 * max(shape) * eps``: the matrix's roundoff floor
    sits near ``max(shape) * eps * anchor``, so the cutoff keeps headroom
    above that floor rather than above exact-arithmetic zero. anchor defaults
    to the largest singular value (0 when there is none). Pass a map's norm
    as anchor when the matrix holds images of unit vectors under that map: a
    numerically zero image then collapses to rank 0 instead of promoting
    roundoff noise to full rank. A caller that holds a cutoff already passes
    it as anchor with tol = 1.
    """
    s = np.asarray(singular_values)
    if tol is None:
        tol = 10 * max(shape) * EPS
    if anchor is None:
        anchor = float(s[0]) if s.size else 0.0
    cutoff = tol * anchor
    return int(np.sum(s > cutoff)), cutoff


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse via SVD, at the rank :func:`rank_cutoff` decides."""
    a = as_matrix(a)
    res = svd(a)
    return pinv_from_svd(res, rank_cutoff(res.singular_values, a.shape)[0])


def pinv_from_svd(res: SvdResult, rank: int) -> np.ndarray:
    """Moore-Penrose inverse from SVD factors and the rank to keep."""
    if rank == 0:
        return np.zeros((res.vt.shape[1], res.u.shape[0]))
    return (res.vt[:rank].T / res.singular_values[:rank]) @ res.u[:, :rank].T


def orthonormal_range(a) -> Subspace:
    """Orthonormal basis of the numerical column space of `a`, at the rank
    :func:`rank_cutoff` decides."""
    a = as_matrix(a)
    res = svd(a, full_matrices=False)
    r, _ = rank_cutoff(res.singular_values, a.shape)
    return Subspace(res.u[:, :r].copy())


def kernel_basis(a, cutoff: float | None = None) -> Subspace:
    """Orthonormal basis of the numerical null space of `a`, of dimension
    cols - rank: the rank :func:`rank_cutoff` decides, at `cutoff` when it is
    given (a TruncationFactor's, say)."""
    a = as_matrix(a)
    res = svd(a)
    r, _ = rank_cutoff(res.singular_values, a.shape, None if cutoff is None else 1.0, cutoff)
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
