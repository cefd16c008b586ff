"""Generators for the operators the diagnostics are exercised on.

Each family yields the m x m leading truncation of an operator on the space
of square-summable sequences (or is genuinely finite-dimensional, like the
seeded synthetic ones). Families carry a short note on how fast the truncated
tail decays, because every diagnostic downstream is computed at finite m and
inherits that error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
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
    "get_family",
    "FAMILY_NAMES",
]


@dataclass(frozen=True)
class OperatorFamily:
    """A named generator of m x m truncations.

    truncate(m) must be deterministic in m. kernel_dim_hint, when set, is the
    kernel dimension of the full operator (not of the truncation, which can
    differ until m is large enough to resolve it); it is informational, and
    does not pick how the truncation is factored. inverse, when set, is
    truncate(m)^{-1} in closed form with T's largest singular value, as
    (apply, sigma_max): apply(v) = T^{-1} v for a vector or a matrix's
    columns. It certifies that T is injective at every m, so its family's
    kernel_dim_hint is 0: analysis.make_lpa and shared_factors invert T
    through it instead of taking its SVD, with rank m whatever cond(T) is
    (see analysis.TruncationFactor; seidman's is _seidman_inverse,
    identity's a copy with sigma_max 1). A family with neither inverse nor
    singular_triplets is factored by LAPACK's SVD of T. xn_basis, when set,
    overrides the coordinate subspaces as the family's approximation
    scheme: it returns an
    orthonormal m x k basis for the subspace at index n. singular_triplets, when set, is truncate(m)'s SVD known in closed
    form, returned as (s, vectors) with s the m singular values, descending,
    and vectors(k) = (U[:, :k], V[:, :k], V[:, k:]), the left vectors, a
    basis of the row space and one of the kernel, for any k up to the count
    of nonzero values; the bases may be views, in any column order within
    each: analysis.shared_factors factors T from it instead of by LAPACK.
    best-lpa reads it off the singular system it builds T from, du off a
    reflector (see _du_singular_triplets); analysis.TruncationFactor(t)
    alone still factors T by LAPACK, the reference the tests hold it to.
    max_n and min_m are the family's own limits on (n, m); check() tests a
    pair against them without building anything.

    Every nonzero entry of truncate(m) is at least sqrt(tiny) * max|a_ij| in
    magnitude (tiny = np.finfo(float).tiny). A product of two entries is then
    at least tiny * max|a_ij|^2, a normal double for entries of order one, so
    factorizations do not run into subnormal arithmetic, which x86 executes
    in slow microcode. A family whose entries decay past that stores 0
    instead (see du).
    """

    name: str
    truncate: Callable[[int], np.ndarray]
    kernel_dim_hint: int | None
    notes: str
    params: dict = field(default_factory=dict)
    xn_basis: Callable[[int, int], np.ndarray] | None = None
    singular_triplets: Callable[[int], tuple] | None = None
    inverse: Callable[[int], tuple] | None = None
    max_n: int | None = None
    min_m: int = 1

    def check(self, n: int, m: int) -> None:
        """Raise ValueError unless the family builds the instance at (n, m)."""
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
        if self.max_n is not None and n > self.max_n:
            raise ValueError(f"n={n} exceeds the family's limit {self.max_n}")
        if m < self.min_m:
            raise ValueError(f"m={m} is below the family's minimum {self.min_m}")


def seidman(m: int) -> np.ndarray:
    """Diagonal operator with a first-column coupling.

    Entries: A[k][k] = 1/k for odd k, 1/k^3 for even k; A[k][1] = 1/k for
    k >= 2; everything else zero. So Tx = sum_k (a_k x_k + b_k x_1) e^k with
    a_k the diagonal and b_k the coupling weights. Injective and compact,
    with singular values decaying like the diagonal.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    d, c = _seidman_parts(m)
    a = np.diag(d)
    a[1:, 0] = c[1:]
    return a


def _seidman_parts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """seidman(m) = D + c e_1^T as its diagonal d (d_1 = 1) and c (c_1 = 0)."""
    k = np.arange(1.0, m + 1.0)
    d = 1.0 / np.where(k % 2 == 1, k, k * k * k)
    c = 1.0 / k
    c[0] = 0.0
    return d, c


def _secular_max(poles: np.ndarray, z: np.ndarray) -> float:
    """The largest eigenvalue of diag(poles) + z z^T: the largest root of the
    secular equation 1 + sum z_k^2 / (poles_k - lambda) = 0 (Golub, "Some
    modified matrix eigenvalue problems", SIAM Rev. 15, 1973). Bisects on
    tau = lambda - max poles in [0, ||z||^2], where the sum falls from +inf
    to at most 1, forming lambda - poles_k as (max poles - poles_k) + tau,
    so that no difference near the root cancels; O(m) per step, until the
    bracket on lambda is two adjacent doubles."""
    top = float(poles.max())
    gaps, z2 = top - poles, z * z
    lo, hi = 0.0, float(z2.sum())
    while top + lo < top + 0.5 * (lo + hi) < top + hi:
        mid = 0.5 * (lo + hi)
        if float(np.sum(z2 / (gaps + mid))) > 1.0:
            lo = mid
        else:
            hi = mid
    return top + hi


def _seidman_inverse(m: int):
    """seidman(m)^{-1} and T's largest singular value, as (apply,
    sigma_max) (see OperatorFamily.inverse). T = D + c e_1^T
    with d_1 = 1 and c_1 = 0, so by Sherman-Morrison T^{-1} = D^{-1} -
    g e_1^T, g = c / d, and T^{-1} v = (v - c v_1) / d, O(m) per column,
    finished in place in the array c v_1, so no m x r temporary is formed;
    at v = I each entry is one rounded quotient.

    T = z e_1^T + diag(0, d_2, ..., d_m), z T's first column, so
    T T^T = diag(0, d_2^2, ...) + z z^T: sigma_max(T)^2 is the largest root
    of a secular equation (_secular_max), O(m) per bisection step, with no
    LAPACK call."""
    d, c = _seidman_parts(m)

    def apply(v: np.ndarray) -> np.ndarray:
        x = np.multiply.outer(c, v[0])
        np.subtract(v, x, out=x)
        np.divide(x.T, d, out=x.T)
        return x

    z, poles = c.copy(), d * d
    z[0], poles[0] = 1.0, 0.0
    return apply, math.sqrt(_secular_max(poles, z))


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
# Largest s with 3/2^s >= sqrt(tiny) = 2^-511, i.e. 512; see du.
_DU_MAX_EXPONENT = math.floor(math.log2(3.0 / _SQRT_TINY))
# Rows per block when _du_singular_triplets zeroes its tiny entries.
_ZERO_BLOCK = 32


def du(m: int) -> np.ndarray:
    """Orthogonal projection onto the complement of one unit direction.

    The direction is e with e_k = sqrt(3)/2^k (unit norm in the limit). The
    truncated matrix is written entrywise as A[i][j] = delta_ij - 3/2^(i+j),
    which keeps every entry an exact dyadic multiple of 3. The truncation
    defect away from a true projector is of size 4^(-m).

    The term 3/2^(i+j) is stored only while i + j <= 512, i.e. while it is at
    least sqrt(tiny) = 2^-511, and is 0 beyond. Past that, products of two
    entries (which every factorization forms) would be subnormal, and x86
    runs subnormal arithmetic in slow microcode. The dropped part has
    spectral norm below 2^-500, far under any rank cutoff. For m <= 256 no
    entry is dropped. From m = 512 on, rows and columns 512..m hold only
    their diagonal 1, so the truncation is block diagonal. The dropped
    entries are zeroed by row slices, so the matrix returned is the only
    m x m array built.

    So T = I - 3 w w^T, w_k = 2^-k, up to the dropped entries, and its SVD
    is known in closed form (_du_singular_triplets, the family's
    singular_triplets).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    w = _du_w(m)
    a = np.multiply.outer(w, -3.0 * w)
    # row i keeps columns j <= 512 - i (1-based), zeroed by slices: no m x m mask
    for i in range(max(1, _DU_MAX_EXPONENT + 1 - m), min(m, _DU_MAX_EXPONENT) + 1):
        a[i - 1, _DU_MAX_EXPONENT - i:] = 0.0
    a[_DU_MAX_EXPONENT:] = 0.0
    a.flat[:: m + 1] += 1.0
    return a


def _du_w(m: int) -> np.ndarray:
    """du's w: w_k = 2^-k for k < _DU_MAX_EXPONENT = 512, else 0. From
    k = 512 on every entry in row or column k of du(m) is dropped, so w_k = 0
    there keeps the outer products free of underflow."""
    w = np.zeros(m)
    k = min(m, _DU_MAX_EXPONENT - 1)
    w[:k] = np.ldexp(1.0, -np.arange(1, k + 1))
    return w


def _du_singular_triplets(m: int):
    """du(m)'s SVD in closed form, as (s, vectors) (see
    OperatorFamily.singular_triplets), with no LAPACK call.

    With c = w / ||w|| (w as du builds it), T = I - 3 ||w||^2 c c^T. The
    reflector H = I - 2 h h^T / h^T h, h = c + e_1, is symmetric and
    orthogonal and maps c to -e_1, so H T H = I - 3 ||w||^2 e_1 e_1^T: the
    singular values are 1, m - 1 times, and 1 - 3 ||w||^2 = 4^-k,
    k = min(m, 511), and U = V = H with its first column, -c (the kernel
    direction), moved to the end so that the values descend. Reflecting c
    onto e_1 keeps H graded like T, its entries off the first row and
    column falling as 2^-(i+j). Reflected onto e_m instead, H's last row and
    column are about -c, entries of order 2^-j where T's are 2^-(m+j), and
    the gap route's sine at du's zero offset read 1.4e-10, 1.2e-7 and
    1.2e-4 at n = 20, 30 and 40 (m = 4n), against at most 1.7e-15 here.

    H is formed from the computed h as written, so it is a reflector, and
    orthogonal to roundoff, whether or not the computed c has unit norm.
    Its entries i, j >= 2 are -c_i c_j / (1 + c_1), about 1.6 * 2^-(i+j);
    as du does for T's, an entry below sqrt(tiny) is stored as 0, so no
    product of two entries is subnormal. The dropped part has norm below
    2^-500. They are found and zeroed 32 rows at a time, so H is the only
    m x m array built, and vectors(k) hands over views of it: H's first k
    columns as U_k and as the row space, the others as the kernel.

    For m <= 256 this is the SVD of du(m) itself. Beyond, it is that of
    I - 3 w w^T, from which du(m) differs only in its dropped entries, by
    less than 2^-500 in norm.
    """
    w = _du_w(m)
    c = w / np.linalg.norm(w)
    h = c.copy()
    h[0] += 1.0
    # H's columns in the order 2..m, 1, formed in that order
    order = np.r_[1:m, 0]
    v = np.multiply.outer(h, (-2.0 / (h @ h)) * h[order])
    for i in range(0, m, _ZERO_BLOCK):  # by row blocks: no m x m |v|
        block = v[i:i + _ZERO_BLOCK]
        block[np.abs(block) < _SQRT_TINY] = 0.0
    v[order, np.arange(m)] += 1.0
    s = np.ones(m)
    s[-1] = np.ldexp(1.0, -2 * min(m, _DU_MAX_EXPONENT - 1))
    return s, lambda k: (v[:, :k], v[:, :k], v[:, k:])


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


@dataclass(frozen=True)
class SingularSystem:
    """A prescribed spectrum: positive nonincreasing sigmas, each with a
    finite reciprocal (T^+ divides by them), plus kernel_dim, the least
    kernel dimension: an m x m realization needs m >= len(sigmas) +
    kernel_dim, and its kernel has dimension m - len(sigmas)."""

    sigmas: tuple[float, ...]
    kernel_dim: int = 0

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            valid = (s > 0) & np.isfinite(s) & np.isfinite(1.0 / s)
        if s.size == 0 or not np.all(valid):
            raise ValueError(
                "sigmas must be nonempty, finite and positive, with finite reciprocals")
        if np.any(np.diff(s) > 0):
            raise ValueError("sigmas must be nonincreasing")
        if self.kernel_dim < 0:
            raise ValueError("kernel_dim must be >= 0")


@dataclass(frozen=True)
class SingularModel:
    """Operator realized from a prescribed spectrum.

    With r = len(sigmas), v_basis is m x m orthogonal and kernel first,
    [K | V_r]: its first m - r columns K are an orthonormal basis of the
    matrix's kernel, and its last r columns V_r are the right singular
    vectors, in the order of sigmas. So matrix = u_basis @ diag(sigmas) @
    v_basis[:, m - r:].T, u_basis being the m x r left singular vectors, and
    the kernel plus the n leading right singular directions, best-lpa's X_n,
    is the leading block v_basis[:, :m - r + n].
    """

    matrix: np.ndarray
    u_basis: np.ndarray
    v_basis: np.ndarray


# Rows per block of V's kernel-first rotation in from_singular_system.
_ROLL_BLOCK = 64


def _haar_columns(rng: np.random.Generator, m: int, r: int, mode: str = "reduced") -> np.ndarray:
    """Q of the QR of an m x r standard normal draw with R's diagonal made
    positive: its first r columns are Haar-distributed orthonormal columns
    (Mezzadri, Notices AMS 54, 2007). mode "complete" returns the m x m Q,
    whose other m - r columns span their complement."""
    q, r_diag = np.linalg.qr(rng.standard_normal((m, r)), mode=mode)
    q[:, :r] *= np.sign(np.diag(r_diag))
    return q


def from_singular_system(sys: SingularSystem, m: int, seed: int) -> SingularModel:
    """Realize the spectrum as an m x m matrix with seeded orthogonal factors.

    U_r and then V come from two m x r draws (_haar_columns, r =
    len(sigmas)): U_r the first's reduced Q, V the second's complete Q,
    whose last m - r columns span the kernel. V is rotated kernel first in
    row blocks, in place, so the matrix and V are the only m x m arrays.

    Requires len(sigmas) + kernel_dim <= m.
    """
    r = len(sys.sigmas)
    if r + sys.kernel_dim > m:
        raise ValueError(
            f"rank {r} + kernel_dim {sys.kernel_dim} exceeds ambient size {m}")
    rng = np.random.default_rng(seed)
    u = _haar_columns(rng, m, r)
    v = _haar_columns(rng, m, r, mode="complete")
    for i in range(0, m, _ROLL_BLOCK):  # [V_r | K] -> [K | V_r]
        v[i:i + _ROLL_BLOCK] = np.roll(v[i:i + _ROLL_BLOCK], -r, axis=1)
    sig = np.asarray(sys.sigmas, dtype=float)
    k = u @ (sig[:, None] * v[:, m - r:].T)
    return SingularModel(matrix=k, u_basis=u, v_basis=v)


def random_finite_kernel(m: int, kernel_dim: int, seed: int) -> np.ndarray:
    """Seeded m x m matrix whose kernel is exactly span{e^1, ..., e^kernel_dim}.

    The first kernel_dim columns are zero; the remaining block is U S W^T,
    U (m x r) and W (r x r) from _haar_columns, with singular values S drawn
    from [0.1, 2], so the rank decision is never borderline.
    Requires kernel_dim < m.
    """
    if not 0 <= kernel_dim < m:
        raise ValueError(f"need 0 <= kernel_dim < m, got {kernel_dim}, {m}")
    rng = np.random.default_rng(seed)
    r = m - kernel_dim
    u = _haar_columns(rng, m, r)
    w = _haar_columns(rng, r, r)
    sig = np.sort(rng.uniform(0.1, 2.0, size=r))[::-1]
    a = np.zeros((m, m))
    a[:, kernel_dim:] = u @ (sig[:, None] * w.T)
    return as_matrix(a)


_DEFAULT_SIGMAS = tuple(1.0 / k**2 for k in range(1, 13))
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float: compares with any int exactly


def _best_lpa_family(sigmas=_DEFAULT_SIGMAS, kernel_dim: int = 2, seed: int = 0) -> OperatorFamily:
    if not isinstance(sigmas, (list, tuple)) or not all(
            isinstance(s, numbers.Real) and not isinstance(s, bool)
            and abs(s) <= _FLOAT_MAX for s in sigmas):
        raise ValueError(f"sigmas must be a list of finite real numbers, got {sigmas!r}")
    sys = SingularSystem(sigmas=tuple(map(float, sigmas)),
                         kernel_dim=_nonnegative_int("kernel_dim", kernel_dim))
    r = len(sys.sigmas)
    seed = _nonnegative_int("seed", seed)
    # truncate and xn_basis at one m share one model; a scan asks for one m
    # at a time, so the latest is all that is kept
    model = lru_cache(maxsize=1)(lambda m: from_singular_system(sys, m, seed))

    def truncate(m: int) -> np.ndarray:
        return model(m).matrix

    def xn_basis(n: int, m: int) -> np.ndarray:
        # subspace = full kernel of the truncation + the n leading right
        # singular directions, the leading columns of the kernel-first V: a
        # view, orthonormal because V is orthogonal
        if n > r:
            raise ValueError(f"n={n} exceeds the prescribed rank {r}")
        return model(m).v_basis[:, :m - r + n]

    def singular_triplets(m: int):
        # T's SVD as the model built it, U_r Sigma V_r^T, with V's kernel
        # columns K, where the singular values are 0; views into the model,
        # but for k < r, where the kernel [V_{k+1..r}, K] is one copy
        mod = model(m)
        s = np.zeros(m)
        s[:r] = sys.sigmas
        v, d = mod.v_basis, m - r

        def vectors(k: int):
            kernel = v[:, :d] if k == r else np.hstack([v[:, d + k:], v[:, :d]])
            return mod.u_basis[:, :k], v[:, d:d + k], kernel

        return s, vectors

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
        singular_triplets=singular_triplets,
        max_n=r,
        min_m=r + sys.kernel_dim,
    )


def _nonnegative_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _random_family(kernel_dim: int = 2, seed: int = 0) -> OperatorFamily:
    kernel_dim = _nonnegative_int("kernel_dim", kernel_dim)
    seed = _nonnegative_int("seed", seed)
    return OperatorFamily(
        name="random",
        truncate=lambda m: random_finite_kernel(m, kernel_dim, seed),
        kernel_dim_hint=kernel_dim,
        notes=("seeded synthetic operator, kernel planted on the leading "
               "coordinate block, well separated singular values in [0.1, 2]; "
               "no truncation tail (genuinely finite-dimensional)"),
        params={"kernel_dim": kernel_dim, "seed": seed},
        min_m=kernel_dim + 1,
    )


_STATIC_FAMILIES = {
    "identity": lambda: OperatorFamily(
        name="identity",
        truncate=lambda m: np.eye(m),
        kernel_dim_hint=0,
        notes="identity operator; every diagnostic is trivial on it",
        inverse=lambda m: (np.copy, 1.0),
    ),
    "seidman": lambda: OperatorFamily(
        name="seidman",
        truncate=seidman,
        kernel_dim_hint=0,
        notes=("injective compact operator, diagonal 1/k (odd) or 1/k^3 "
               "(even) with a 1/k first-column coupling; truncation tails "
               "of the normal operator decay like m^-3, so m = 4n keeps "
               "them far below the diagnostic tolerances; T^{-1} is "
               "applied in O(m) by Sherman-Morrison, so T is inverted at "
               "every m, and sigma_max is a secular-equation root"),
        inverse=_seidman_inverse,
    ),
    "du": lambda: OperatorFamily(
        name="du",
        truncate=du,
        kernel_dim_hint=1,
        notes=("orthogonal projection onto the complement of the unit "
               "direction e_k = sqrt(3)/2^k; the truncated matrix misses "
               "being an exact projector by 4^-m, and its kernel direction "
               "only becomes numerically visible once 4^-m drops below the "
               "rank cutoff (from m = 23 at the default rank_tol); entries "
               "3/2^(i+j) stop at i + j = 512, where they reach "
               "sqrt(tiny) = 2^-511, so that no product of two entries is "
               "subnormal (the dropped part is below 2^-500 in norm); T's "
               "SVD is read off the reflector that maps e/||e|| to -e_1, in "
               "closed form, with no LAPACK call"),
        singular_triplets=_du_singular_triplets,
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
