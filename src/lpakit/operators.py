"""Generators for the operators the diagnostics are exercised on.

Each family yields the m x m leading truncation of an operator on the space
of square-summable sequences (or is genuinely finite-dimensional, like the
seeded synthetic ones). Families carry a short note on how fast the truncated
tail decays, because every diagnostic downstream is computed at finite m and
inherits that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import as_matrix

__all__ = [
    "OperatorFamily",
    "SingularSystem",
    "SingularModel",
    "seidman",
    "du",
    "du_vector_e",
    "du_bad_y",
    "from_singular_system",
    "random_finite_kernel",
    "seeded_orthogonal",
    "get_family",
    "FAMILY_NAMES",
]


@dataclass(frozen=True)
class OperatorFamily:
    """A named generator of m x m truncations.

    truncate(m) must be deterministic in m. kernel_dim_hint, when set, is the
    kernel dimension of the full operator (not of the truncation, which can
    differ until m is large enough to resolve it). xn_basis, when set,
    overrides the coordinate subspaces as the family's approximation scheme:
    it returns an orthonormal m x k basis for the subspace at index n.
    """

    name: str
    truncate: Callable[[int], np.ndarray]
    kernel_dim_hint: int | None
    notes: str
    params: dict = field(default_factory=dict)
    xn_basis: Callable[[int, int], np.ndarray] | None = None


def seidman(m: int) -> np.ndarray:
    """Diagonal operator with a first-column coupling.

    Entries: A[k][k] = 1/k for odd k, 1/k^3 for even k; A[k][1] = 1/k for
    k >= 2; everything else zero. So Tx = sum_k (a_k x_k + b_k x_1) e^k with
    a_k the diagonal and b_k the coupling weights. Injective and compact,
    with singular values decaying like the diagonal.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    a = np.zeros((m, m))
    for k in range(1, m + 1):
        a[k - 1, k - 1] = 1.0 / k if k % 2 == 1 else 1.0 / k**3
        if k >= 2:
            a[k - 1, 0] = 1.0 / k
    return a


def du(m: int) -> np.ndarray:
    """Orthogonal projection onto the complement of one unit direction.

    The direction is e with e_k = sqrt(3)/2^k (unit norm in the limit). The
    truncated matrix is written entrywise as A[i][j] = delta_ij - 3/2^(i+j),
    which keeps every entry an exact dyadic multiple of 3. The truncation
    defect away from a true projector is of size 4^(-m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = np.arange(1, m + 1)
    with np.errstate(over="ignore"):  # 2^(i+j) = inf from i + j > 1023: entry 3/inf = 0
        return np.eye(m) - 3.0 / np.exp2(np.add.outer(idx, idx))


def du_vector_e(m: int) -> np.ndarray:
    """The distinguished unit direction: entries sqrt(3)/2^k, k = 1..m.

    ||e||^2 at truncation m is exactly 1 - 4^(-m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.sqrt(3.0) * np.exp2(-np.arange(1, m + 1, dtype=float))


def du_bad_y(m: int) -> np.ndarray:
    """The right-hand side known to break convergence for the du family.

    Entry k is (2^k - 1) * sqrt(3)/4^k. Its inner product with e is 4/7 in
    the limit; at truncation m it is short of that by
    3 * (4^(-m)/3 - 8^(-m)/7).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = np.arange(1, m + 1, dtype=float)
    return math.sqrt(3.0) * (np.exp2(-k) - np.exp2(-2.0 * k))


def seeded_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix: QR of a standard normal draw with the signs
    of the R diagonal fixed, so the result is deterministic per rng state."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class SingularSystem:
    """A prescribed spectrum: positive nonincreasing sigmas plus the number of
    kernel directions to plant explicitly."""

    sigmas: tuple[float, ...]
    kernel_dim: int = 0

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        if s.size == 0 or np.any(s <= 0):
            raise ValueError("sigmas must be nonempty and positive")
        if np.any(np.diff(s) > 0):
            raise ValueError("sigmas must be nonincreasing")
        if self.kernel_dim < 0:
            raise ValueError("kernel_dim must be >= 0")


@dataclass(frozen=True)
class SingularModel:
    """Operator realized from a prescribed spectrum.

    matrix = u_basis[:, :rank] @ diag(sigmas) @ v_basis[:, :rank].T. Columns
    of v_basis: the first `rank` are the right singular vectors, the next
    `planted_kernel_dim` are the explicitly planted kernel directions, and
    any remaining columns pad out the kernel (the matrix kernel has dimension
    ambient - rank).
    """

    matrix: np.ndarray
    u_basis: np.ndarray
    v_basis: np.ndarray
    rank: int
    planted_kernel_dim: int


def from_singular_system(sys: SingularSystem, m: int, seed: int) -> SingularModel:
    """Realize the spectrum as an m x m matrix with seeded orthogonal factors.

    Requires len(sigmas) + kernel_dim <= m.
    """
    r = len(sys.sigmas)
    if r + sys.kernel_dim > m:
        raise ValueError(
            f"rank {r} + kernel_dim {sys.kernel_dim} exceeds ambient size {m}")
    rng = np.random.default_rng(seed)
    u = seeded_orthogonal(m, rng)
    v = seeded_orthogonal(m, rng)
    sig = np.asarray(sys.sigmas, dtype=float)
    k = u[:, :r] @ (sig[:, None] * v[:, :r].T)
    return SingularModel(matrix=k, u_basis=u, v_basis=v, rank=r,
                         planted_kernel_dim=sys.kernel_dim)


def random_finite_kernel(m: int, kernel_dim: int, seed: int) -> np.ndarray:
    """Seeded m x m matrix whose kernel is exactly span{e^1, ..., e^kernel_dim}.

    The first kernel_dim columns are zero; the remaining block has singular
    values drawn from [0.1, 2], so the rank decision is never borderline.
    Requires kernel_dim < m.
    """
    if not 0 <= kernel_dim < m:
        raise ValueError(f"need 0 <= kernel_dim < m, got {kernel_dim}, {m}")
    rng = np.random.default_rng(seed)
    r = m - kernel_dim
    u = seeded_orthogonal(m, rng)[:, :r]
    w = seeded_orthogonal(r, rng)
    sig = np.sort(rng.uniform(0.1, 2.0, size=r))[::-1]
    a = np.zeros((m, m))
    a[:, kernel_dim:] = u @ (sig[:, None] * w.T)
    return as_matrix(a)


def _default_sigmas() -> tuple[float, ...]:
    return tuple(1.0 / k**2 for k in range(1, 13))


def _best_lpa_family(sigmas=None, kernel_dim: int = 2, seed: int = 0) -> OperatorFamily:
    sys = SingularSystem(
        sigmas=tuple(float(s) for s in (sigmas if sigmas is not None else _default_sigmas())),
        kernel_dim=int(kernel_dim),
    )
    r = len(sys.sigmas)

    def truncate(m: int) -> np.ndarray:
        return from_singular_system(sys, m, seed).matrix

    def xn_basis(n: int, m: int) -> np.ndarray:
        # subspace = full kernel of the truncation + the n leading right
        # singular directions; orthonormal because V is orthogonal
        if n > r:
            raise ValueError(f"n={n} exceeds the prescribed rank {r}")
        model = from_singular_system(sys, m, seed)
        return np.hstack([model.v_basis[:, r:], model.v_basis[:, :n]])

    return OperatorFamily(
        name="best-lpa",
        truncate=truncate,
        kernel_dim_hint=None,
        notes=("seeded operator with prescribed singular values; its "
               "approximation subspaces contain the whole kernel plus the "
               "leading right singular directions, which makes the offset "
               "angle vanish identically"),
        params={"sigmas": list(sys.sigmas), "kernel_dim": sys.kernel_dim,
                "seed": seed},
        xn_basis=xn_basis,
    )


def _random_family(kernel_dim: int = 2, seed: int = 0) -> OperatorFamily:
    return OperatorFamily(
        name="random",
        truncate=lambda m: random_finite_kernel(m, kernel_dim, seed),
        kernel_dim_hint=int(kernel_dim),
        notes=("seeded synthetic operator, kernel planted on the leading "
               "coordinate block, well separated singular values in [0.1, 2]; "
               "no truncation tail (genuinely finite-dimensional)"),
        params={"kernel_dim": int(kernel_dim), "seed": int(seed)},
    )


_STATIC_FAMILIES = {
    "identity": lambda: OperatorFamily(
        name="identity",
        truncate=lambda m: np.eye(m),
        kernel_dim_hint=0,
        notes="identity operator; every diagnostic is trivial on it",
    ),
    "seidman": lambda: OperatorFamily(
        name="seidman",
        truncate=seidman,
        kernel_dim_hint=0,
        notes=("injective compact operator, diagonal 1/k (odd) or 1/k^3 "
               "(even) with a 1/k first-column coupling; truncation tails "
               "of the normal operator decay like m^-3, so m = 4n keeps "
               "them far below the diagnostic tolerances"),
    ),
    "du": lambda: OperatorFamily(
        name="du",
        truncate=du,
        kernel_dim_hint=1,
        notes=("orthogonal projection onto the complement of the unit "
               "direction e_k = sqrt(3)/2^k; the truncated matrix misses "
               "being an exact projector by 4^-m, and its kernel direction "
               "only becomes numerically visible once 4^-m drops below the "
               "rank cutoff (m around 28)"),
    ),
}

_PARAMETRIC_FAMILIES = {
    "best-lpa": _best_lpa_family,
    "random": _random_family,
}

FAMILY_NAMES = tuple(sorted([*_STATIC_FAMILIES, *_PARAMETRIC_FAMILIES]))


def get_family(name: str, **params) -> OperatorFamily:
    """Look an operator family up by name.

    Static families ("identity", "seidman", "du") accept no parameters;
    "best-lpa" takes sigmas, kernel_dim, seed and "random" takes kernel_dim,
    seed.
    """
    if name in _STATIC_FAMILIES:
        if params:
            raise ValueError(f"family {name!r} takes no parameters, got {params}")
        return _STATIC_FAMILIES[name]()
    if name in _PARAMETRIC_FAMILIES:
        try:
            return _PARAMETRIC_FAMILIES[name](**params)
        except TypeError as exc:
            raise ValueError(f"bad parameters for family {name!r}: {exc}") from exc
    raise ValueError(
        f"unknown operator family {name!r}; available: {', '.join(FAMILY_NAMES)}")
