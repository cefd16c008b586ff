"""Convergence diagnostics for least-squares projection approximations.

Given a bounded operator T, truncated to an m x m matrix, and a
finite-dimensional subspace X_n, the approximation under study replaces T by
T_n = T P_{X_n} and the minimum-norm least-squares solution T^+ y by
T_n^+ y. Whether T_n^+ y converges to T^+ y as the subspaces fill the space
is governed by quantities this module computes at each finite n:

* the offset angle theta_n = arcsin gap(T^+T(X_n), T^*T(X_n)), computed by
  two independent routes that must agree,
* the kernel core, the intersection of N(T) with X_n, whose failure to
  exhaust N(T) rules convergence out no matter how the angles behave; N(T)
  lies in X_n exactly when the core fills it (kernel_captured, the one
  containment decision),
* ||T_n^+ T||, bounded across n exactly when the scheme converges,
* the per-instance error bound
  ||T_n^+ y - T^+ y|| <= sqrt(1 + tan^2 theta_n) * dist(T^+ y, X_n),
  valid once N(T) is contained in X_n, and checked only on those rows.

Every diagnostic on one instance reads what the instance computed once: one
factor of T (a TruncationFactor, shared by every instance at the same m),
one SVD of T X_n and both offset-angle routes, so identities that hold in
exact arithmetic stay consistent to machine precision. The factor is T's
SVD, LAPACK run on T's coupled block only (a coordinate whose row and
column are zero off the diagonal contributes its singular triplet in closed
form), or, for a family that declares N(T) = {0}, the inverse
T^{-1} = T^+ (by halves when T is lower triangular, as seidman's is, else
by one LAPACK inverse) when its Frobenius norm, or else sqrt(||.||_1 ||.||_inf),
against an O(m^2) bound on sigma_max proves every rank decision a row will
make; T's singular values are then taken only when read. The instance sees
ranks, not routes.
The rank r of T X_n is decided once; the kernel core, T_n^+, both
offset-angle images, tan theta_n = ||Q_n - P_{ran Q_n}|| (an r x r norm) and
||T_n^+ T|| (an r x m norm) are read off its r singular vectors. Subspaces
stay orthonormal bases, X_n projecting as X_n (X_n^T v).

Past the factor (once per m), a row's factorizations and spectral norms are
sized by dim X_n, by rho = rank(T) or by r <= rho, not by m: T X_n is
factored as itself, m x dim X_n, when rho >= dim X_n, and as the
rho x dim X_n matrix U_rho^T T X_n otherwise; the kernel core's dimension
is read off that SVD and its gap to N(T) is a rho-row norm against the row
space, T^+ and T_n^+ are applied through the factors of T and of T X_n,
and the rest have at most r rows or columns, so a row forms no m x m
array. When dim X_n is of order m a row still makes the
m x m x dim X_n product T X_n, but no m x ~m factorization. The m x m
matrices t_pinv (unless it is the factor's T^{-1}), tn() and tn_pinv, and
the core's basis kernel_core(), serve the zero-offset report, the suites and
the dense oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .config import Tolerances, resolve_m
from .linalg import (
    EPS,
    Subspace,
    SvdResult,
    as_matrix,
    as_vector,
    gap,
    pinv_from_svd,
    projector,
    rank_cutoff,
    svd,
)
from .operators import OperatorFamily, du_bad_y, du_vector_e, get_family

__all__ = [
    "PreconditionError",
    "TruncationFactor",
    "shared_factors",
    "LpaInstance",
    "OffsetAngle",
    "LpaDiagnostics",
    "make_lpa",
    "tn_pinv_apply",
    "offset_angle",
    "kernel_core",
    "kernel_captured",
    "kernel_verdict",
    "norm_tn_dag_t",
    "error_identity_check",
    "error_bound_check",
    "zero_offset_characterization",
    "du_divergence_check",
    "coercive_bound_check",
    "diagnose",
]


class PreconditionError(ValueError):
    """A diagnostic was asked for outside the regime where it is asserted."""


def _coupled(t: np.ndarray) -> np.ndarray:
    """Mask of the coordinates j of a square T whose row j or column j holds
    a nonzero off the diagonal. The others are decoupled: T maps e_j to
    t_jj e_j and no other e_i onto e_j. O(m^2), no LAPACK call."""
    off = t != 0
    np.fill_diagonal(off, False)
    return off.any(axis=0) | off.any(axis=1)


def _factor_svd(t: np.ndarray) -> tuple[np.ndarray, Callable[[int], tuple]]:
    """SVD of a square T as (s, vectors), vectors(r) = (U[:, :r], V^T), with
    LAPACK run on T's coupled block only.

    Each decoupled coordinate j (see _coupled) adds the exact triplet
    (|t_jj|, sign(t_jj) e_j, e_j), sign +1 for t_jj = 0. The triplets are
    placed in descending order of singular value, stably, so ties keep the
    block's vectors first. vectors(r) builds only the r left vectors asked
    for. When every coordinate is coupled this is svd(t) itself; when none
    is, no LAPACK call is made.
    """
    coupled = _coupled(t)
    keep, drop = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    if not drop.size:
        res = svd(t)
        return res.singular_values, lambda r: (res.u[:, :r].copy(), res.vt)
    m = t.shape[0]
    block = (svd(t[np.ix_(keep, keep)]) if keep.size
             else SvdResult(np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0))))
    d = t[drop, drop]
    s = np.concatenate([block.singular_values, np.abs(d)])
    order = np.argsort(-s, kind="stable")
    pos = np.empty(m, dtype=np.intp)  # pos[i]: where triplet i lands
    pos[order] = np.arange(m)
    pos_block, pos_drop = pos[:keep.size], pos[keep.size:]
    sign = np.where(d < 0, -1.0, 1.0)

    def vectors(r: int) -> tuple[np.ndarray, np.ndarray]:
        u, vt = np.zeros((m, r)), np.zeros((m, m))
        b, j = pos_block < r, pos_drop < r
        u[np.ix_(keep, pos_block[b])] = block.u[:, b]
        u[drop[j], pos_drop[j]] = sign[j]
        vt[np.ix_(pos_block, keep)] = block.vt
        vt[pos_drop, drop] = 1.0
        return u, vt

    return s[order], vectors


# the order at and below which a lower triangular T, or a diagonal block of
# one, is inverted by one LAPACK inverse (see _invert_lower)
_LEAF = 64


def _is_lower(t: np.ndarray) -> bool:
    """Whether T's strict upper triangle is zero: O(m^2), no LAPACK call, read
    in strips of _LEAF rows, so no m x m temporary is formed."""
    return not any(np.triu(t[i:i + _LEAF, i:], 1).any() for i in range(0, t.shape[0], _LEAF))


def _solve_lower_right(b: np.ndarray, a: np.ndarray) -> None:
    """b <- b A^{-1} in place, A lower triangular, by halves: with
    A = [[A1, 0], [A2, A3]], b_2 <- b_2 A3^{-1}, then
    b_1 <- (b_1 - b_2 A2) A1^{-1}. A block of order at most _LEAF is solved
    by LAPACK against A^T, upper triangular, so its LU takes no pivot and
    changes no entry, and the solve is a substitution."""
    k = a.shape[0]
    if k <= _LEAF:
        b[...] = np.linalg.solve(a.T, b.T).T
        return
    h = k // 2
    _solve_lower_right(b[:, h:], a[h:, h:])
    b[:, :h] -= b[:, h:] @ a[h:, :h]
    _solve_lower_right(b[:, :h], a[:h, :h])


def _invert_lower(t: np.ndarray, out: np.ndarray) -> None:
    """out <- T^{-1}, T lower triangular, by halves: with T = [[A, 0], [C, B]],
    T^{-1} = [[A^{-1}, 0], [X, B^{-1}]], X = -B^{-1} C A^{-1}. B^{-1} is formed
    first, then X is written in place: the product B^{-1} C, then A^{-1}
    applied by substitution against A (_solve_lower_right) rather than by
    multiplying with the computed A^{-1}, which keeps the residual bound of
    _proved_inverse (Du Croz & Higham 1992). Blocks of order at most _LEAF
    take one LAPACK inverse each. About m^3 / 2 flops against LU's 2 m^3."""
    m = t.shape[0]
    if m <= _LEAF:
        out[...] = np.linalg.inv(t)
        return
    h = m // 2
    _invert_lower(t[h:, h:], out[h:, h:])
    x = out[h:, :h]
    np.matmul(out[h:, h:], t[h:, :h], out=x)
    np.negative(x, out=x)
    _solve_lower_right(x, t[:h, :h])
    _invert_lower(t[:h, :h], out[:h, :h])
    out[:h, h:] = 0.0


def _inverse(t: np.ndarray) -> np.ndarray | None:
    """T^{-1}. None, with no warning, when T is singular to working
    precision: LAPACK meets a zero pivot, or an entry of the inverse is not
    finite (a subnormal pivot whose reciprocal overflows).

    A lower triangular T of order above _LEAF is inverted by halves
    (_invert_lower), any other T by one LAPACK inverse (LU with partial
    pivoting). The route is read off T's zero pattern."""
    m = t.shape[0]
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan end in None
            if m > _LEAF and _is_lower(t):
                inv = np.empty((m, m))
                _invert_lower(t, inv)
            else:
                inv = np.linalg.inv(t)
    except np.linalg.LinAlgError:
        return None
    return inv if np.isfinite(inv).all() else None


# the upper bound's relative widening, in units of m eps: LAPACK's sigma_max
# and the O(m^2) norms each carry a relative roundoff of at most 0.6 m eps on
# rank-one, diagonal and orthogonal-times-diagonal T (3000 seeded trials)
_SIGMA_SLACK = 4.0
# how far 1/N(T^{-1}), N a bound on the spectral norm, must clear the rank
# cutoff to prove full rank; see _proved_inverse
_PROOF_FACTOR = 4.0


def _sigma_max_bound(t: np.ndarray) -> float:
    """hi >= sigma_max(T), O(m^2) and no LAPACK call: the smaller of ||T||_F
    and sqrt(||T||_1 ||T||_inf), taken on |T| / max|t_ij|, the one m x m
    temporary, so no square overflows, and widened by _SIGMA_SLACK m eps, so
    that LAPACK's computed sigma_max lies below it too."""
    a = np.abs(t)
    scale = float(a.max(initial=0.0))
    if scale == 0.0:
        return 0.0
    a /= scale
    hi = math.sqrt(min(np.einsum("ij,ij->", a, a), a.sum(axis=0).max() * a.sum(axis=1).max()))
    return scale * hi * (1.0 + _SIGMA_SLACK * t.shape[0] * EPS)


def _one_inf_bound(x: np.ndarray) -> float:
    """sqrt(||X||_1 ||X||_inf) >= ||X||_2, O(m^2) and no LAPACK call, |X|
    taken in strips of _LEAF rows, so no second m x m array is formed."""
    col, row = np.zeros(x.shape[1]), np.empty(x.shape[0])
    for i in range(0, x.shape[0], _LEAF):
        a = np.abs(x[i:i + _LEAF])
        col += a.sum(axis=0)
        row[i:i + _LEAF] = a.sum(axis=1)
    return math.sqrt(col.max(initial=0.0)) * math.sqrt(row.max(initial=0.0))


def _proved_inverse(t: np.ndarray, tol: float | None):
    """(T^{-1}, cutoff) when T^{-1} proves every rank decision an inverted
    factor makes, else None; cutoff is rank_cutoff's at tol (None: the
    rule's default) and anchor hi >= sigma_max(T), _sigma_max_bound's.

    An inverted factor decides T's rank and, in each row, the rank of T X_n
    (LpaInstance.txn_svd) against that one cutoff, tol hi (TruncationFactor's
    cutoff); the proof alone floors tol at m eps. T^{-1} is formed first (see
    _inverse), then sigma_min = 1/||T^{-1}||_2 >= 1/N(T^{-1}) for N the
    Frobenius norm and for N = sqrt(||.||_1 ||.||_inf) (Hoelder's
    ||A||_2^2 <= ||A||_1 ||A||_inf), and the proof holds once
    1/N(T^{-1}) > c tol hi, c = _PROOF_FACTOR = 4, for the Frobenius norm or,
    only where that fails, for the second N: it is near ||T^{-1}||_2 when
    the inverse's mass sits in few rows and columns (within 1e-3 for
    seidman), where ||.||_F can be sqrt(m) above.

    c is large enough. Both routes of _inverse return an X with a left
    residual |X T - I| <= c_m eps |X| |T| (Du Croz & Higham 1992; entries
    compared in modulus). LU's inverse has it with |T| read as |L| |U|, so
    at modest pivot growth. The triangular route has it with no growth past
    its leaves, which are LU's: each half keeps it by induction, and its
    off-diagonal block X_21, formed as fl(X_22 C) and then solved against A
    by substitution, adds O(eps) (|X_21| |A| + |X_22| |C|) at each of
    log2(m / _LEAF) levels. (Multiplying by the computed A^{-1} instead
    would add |X_22| |C| |R_11| for A's residual R_11, a factor of cond(A)
    more.) So X - T^{-1} = (X T - I) T^{-1} is at most c_m eps |X| |T| |T^{-1}|
    entrywise, a relative error of order m eps cond(T) in either N, as both
    are monotone in the moduli of the entries. The test caps cond(T) at
    1/(c tol) <= 1/(4 m eps), so that error is at most of order 1/4, and the
    true sigma_min exceeds (1 - 1/4) 4 tol hi = 3 tol hi. Every singular
    value of T, and of T X_n for orthonormal X_n, is at least sigma_min;
    LAPACK computes each within about m eps sigma_max <= tol hi of the
    truth, so all clear the cutoff tol hi, and the SVD route's cutoff
    tol sigma_max too: rank m for T and dim X_n for T X_n, the decisions
    the SVD would make. (Below m eps the cutoff sits under the SVD's own
    roundoff, which no norm can predict, hence the floor.)

    None when the proof fails or T^{-1} does not exist in floating point:
    the caller's SVD route then decides the rank and factors T."""
    hi = _sigma_max_bound(t)  # first, so its temporary is freed before T^{-1}
    inv = _inverse(t)
    if inv is None:
        return None
    cutoff = rank_cutoff((), t.shape, tol, hi)[1]
    cut = _PROOF_FACTOR * max(cutoff, t.shape[0] * EPS * hi)
    with np.errstate(over="ignore"):  # an overflowing norm reads inf: no proof
        proved = np.linalg.norm(inv) * cut < 1.0 or _one_inf_bound(inv) * cut < 1.0
    return (inv, cutoff) if proved else None


class TruncationFactor:
    """One m x m truncation T factored, and what is read off it: rank rho,
    sigma_max, the singular values Sigma_rho, the row space R and the kernel
    K = R^perp. cutoff = tol x anchor is the one rank threshold, by
    linalg.rank_cutoff's rule (tol: rank_tol, the rule's default when None;
    anchor: sigma_max on the SVD route, the bound hi >= sigma_max when T was
    inverted): rho counts T's singular values above it, each row's r those
    of T X_n (LpaInstance.txn_svd).

    Two routes. By default, T's SVD: the rank-rho left factor U_rho, and
    R and K from V. LAPACK factors only T's coupled block; each decoupled
    coordinate, whose row and column are zero off the diagonal, adds its
    singular triplet in closed form (see _factor_svd). So identity, zero and
    diagonal T take no LAPACK call, and du's truncation only its leading
    511 x 511 block. T^+ is applied as V_rho Sigma_rho^{-1} U_rho^T
    (pinv_apply); the m x m t_pinv is formed only when read.

    With injective=True (the caller knows N(T) = {0}), T^{-1} is formed
    first, by halves when T is lower triangular and of order above 64, else
    by one LAPACK inverse (see _inverse), and the rank of T and of every T X_n
    is proved from ||T^{-1}||_F, or where that fails from
    sqrt(||T^{-1}||_1 ||T^{-1}||_inf), and an O(m^2) bound hi on sigma_max,
    with no SVD (see _proved_inverse). T^{-1} = T^+ is both t_pinv and what
    pinv_apply multiplies by; u_rho is None, K is {0}, and R = R^m is built
    only when read. So are s_rho and sigma_max: one values-only SVD of T on
    first read. Where the proof fails, or T^{-1} does not exist in floating
    point, the factor is the SVD route's, bit for bit.

    It does not depend on X_n, so every instance at this m can share it (see
    shared_factors).
    """

    def __init__(self, t, rank_tol: float | None = None, injective: bool = False):
        t = as_matrix(t)
        if t.shape[0] != t.shape[1]:
            raise ValueError(f"expected a square truncation, got {t.shape}")
        self.t = t
        self.m = t.shape[0]
        self.rank_tol = rank_tol
        inverse = _proved_inverse(t, rank_tol) if injective else None
        if inverse is not None:
            self.t_pinv, self.cutoff = inverse
            self.rank, self.u_rho = self.m, None
            self.kernel = Subspace.zero(self.m)
        else:
            s, vectors = _factor_svd(t)
            self.sigma_max = float(s[0]) if self.m else 0.0
            self.rank, self.cutoff = rank_cutoff(s, t.shape, rank_tol)
            r = self.rank
            self.u_rho, vt = vectors(r)
            del vectors  # frees the SVD's arrays before the Subspace checks' Gram matrices
            self.s_rho = s[:r]
            self.rowspace = Subspace(vt[:r].T)
            self.kernel = Subspace(vt[r:].T)

    @cached_property
    def s_rho(self) -> np.ndarray:
        """T's singular values, descending, read only when T was inverted
        (otherwise set in __init__): LAPACK's values-only SVD of T, on first
        read."""
        return np.linalg.svd(self.t, compute_uv=False)

    @cached_property
    def sigma_max(self) -> float:
        """||T||_2, s_rho[0], read off the SVD route's values in __init__,
        else on first read."""
        return float(self.s_rho[0]) if self.m else 0.0

    @cached_property
    def rowspace(self) -> Subspace:
        """R^m, read only when T was inverted (the SVD route sets R in
        __init__)."""
        return Subspace(np.eye(self.m))

    def pinv_apply(self, v: np.ndarray) -> np.ndarray:
        """T^+ v, for a vector or a matrix's columns: T^{-1} v when T was
        inverted, else V_rho Sigma_rho^{-1} (U_rho^T v)."""
        if self.u_rho is None:
            return self.t_pinv @ v
        return self.rowspace.basis @ ((self.u_rho.T @ v).T / self.s_rho).T

    @cached_property
    def t_pinv(self) -> np.ndarray:
        """T^+ as a dense m x m matrix, for the checks and oracles that need
        it (set in __init__ when T was inverted)."""
        return pinv_from_svd(SvdResult(self.u_rho, self.s_rho, self.rowspace.basis.T), self.rank)


def shared_factors(family: OperatorFamily, rank_tol: float | None = None):
    """factor(m): family.truncate(m) factored, keeping only the latest m,
    inverted when the family declares N(T) = {0} (see TruncationFactor).

    Consecutive rows at one m share one factor; the previous factor is
    dropped before the next one is built, so one is alive at a time.
    """
    last = None

    def factor(m: int) -> TruncationFactor:
        nonlocal last
        if last is None or last.m != m:
            last = None
            last = TruncationFactor(family.truncate(m), rank_tol,
                                    injective=family.kernel_dim_hint == 0)
        return last

    return factor


class LpaInstance:
    """One (T, X_n) pair at truncation m, owning the factorizations that
    depend on X_n.

    T is given as a matrix, factored here at the default rank_tol, or as a
    TruncationFactor shared with other instances at the same m (factor);
    its attributes (t, rank, sigma_max, t_pinv, rowspace, kernel) are
    exposed on the instance, sigma_max, t_pinv and rowspace read from the
    factor, which forms them on first read when it inverted T. What the instance does depends on the
    factor's ranks alone, never on its route. First use computes, once: the
    SVD of T X_n (txn_svd), whose rank r, decided at the factor's cutoff
    like T's own, splits it into the range T(X_n), which
    T_n^+ = X_n (T X_n)^+ and norm_tn_dag_t invert, and the kernel core,
    of dimension kernel_core_dim = dim X_n - r, which they drop; the two
    offset-angle images, both of dimension r, and both routes' sines; and
    kernel_gap, the gap between the core and N(T) (kernel_dim = dim N(T)),
    off which kernel_captured decides whether N(T) lies in X_n.

    x_basis defaults to the coordinate subspace span{e^1, ..., e^n}; an
    arbitrary orthonormal basis may be supplied instead.
    """

    def __init__(self, t, n: int, x_basis: np.ndarray | None = None):
        factor = t if isinstance(t, TruncationFactor) else TruncationFactor(t)
        self.m = factor.m
        if not 1 <= n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n={n}, m={self.m}")
        self.n = int(n)
        if x_basis is None:
            self.x_n = Subspace.coordinate(self.m, n)
        else:
            self.x_n = Subspace(np.asarray(x_basis, dtype=float))
            if self.x_n.ambient_dim != self.m:
                raise ValueError("x_basis ambient dimension does not match t")
        self.factor = factor
        self.t = factor.t
        self.rank, self.kernel = factor.rank, factor.kernel
        self.kernel_dim = self.kernel.dim

    @property
    def sigma_max(self) -> float:
        """The factor's sigma_max, a values-only SVD of T on first read when
        T was inverted."""
        return self.factor.sigma_max

    @property
    def rowspace(self) -> Subspace:
        """The factor's row space, R^m built on first read when T was
        inverted."""
        return self.factor.rowspace

    @property
    def t_pinv(self) -> np.ndarray:
        """The factor's dense m x m T^+, formed on first read."""
        return self.factor.t_pinv

    def tn(self) -> np.ndarray:
        """The approximating operator T P_{X_n}, built on demand."""
        return self.t @ projector(self.x_n)

    @cached_property
    def txn_svd(self) -> tuple[SvdResult, int]:
        """SVD of T X_n and its rank r, the count of its singular values
        above the factor's cutoff, the one T's rank was decided at.

        When rho = rank T >= dim X_n (every inverted factor, and du) it is
        the thin SVD of the m x dim X_n matrix T X_n itself, nothing
        dropped; its V is square, so full. When rho < dim X_n it is the SVD
        P S V^T of Z = U_rho^T (T X_n), rho x dim X_n, with u = U_rho P and
        V full, so that its last dim X_n - r rows vt[r:] span the kernel
        core's coefficients (kernel_gap, the oracle kernel_core). What Z
        drops, (I - U_rho U_rho^T) T X_n, has norm at most
        sigma_{rho+1}(T) <= cutoff, so Z is T X_n for the rank-rho T that
        the factor decided, and Z projects the dense product, so exact
        zeros of T X_n stay exact. An inverted factor proved that every
        singular value of T X_n clears its cutoff, so r is dim X_n there.
        """
        f, k = self.factor, self.x_n.dim
        txn = self.t @ self.x_n.basis
        if f.rank >= k:
            res = svd(txn, full_matrices=False)
        else:
            z = svd(f.u_rho.T @ txn)
            res = SvdResult(u=f.u_rho @ z.u, singular_values=z.singular_values, vt=z.vt)
        return res, rank_cutoff(res.singular_values, txn.shape, 1.0, f.cutoff)[0]

    @cached_property
    def tn_pinv(self) -> np.ndarray:
        """T_n^+ = X_n (T X_n)^+ at txn_svd's r, an m x m matrix. The
        diagnostics apply T_n^+ without it (_tn_pinv_times)."""
        return self.x_n.basis @ pinv_from_svd(*self.txn_svd)

    @property
    def kernel_core_dim(self) -> int:
        """dim (N(T) & X_n) = dim X_n - r."""
        return self.x_n.dim - self.txn_svd[1]

    @cached_property
    def kernel_gap(self) -> float:
        """gap(kernel_core(self), N(T)): 1 for unequal dimensions, else
        ||(R^T X_n) V_{r:}^T||, R the row space of T, a rho x dim-core norm,
        since the core's basis is X_n V_{r:}^T and I - P_K = P_R (K and R
        come from one orthogonal V)."""
        if self.kernel_core_dim != self.kernel_dim:
            return 1.0
        if self.kernel_core_dim == 0:
            return 0.0
        res, r = self.txn_svd
        rt_xn = self.rowspace.basis.T @ self.x_n.basis
        return float(np.linalg.norm(rt_xn @ res.vt[r:].T, 2))

    @cached_property
    def images(self) -> tuple[Subspace, Subspace]:
        """T^+T(X_n) = span(P_row X_n V_r) and T^*T(X_n) = span(T^T U_r), from
        the r singular vectors txn_svd kept, each orthonormalized by one QR:
        no further rank decision, so both have dimension r. T^+T is applied
        as the row-space projector, which does not amplify roundoff in
        kernel directions, and skipped when rho = m, where the row space is
        R^m."""
        res, r = self.txn_svd
        row_image = self.x_n.basis @ res.vt[:r].T
        if self.rank < self.m:
            row_image = self.rowspace.project(row_image)
        return (Subspace(np.linalg.qr(row_image)[0]),
                Subspace(np.linalg.qr(self.t.T @ res.u[:, :r])[0]))

    @cached_property
    def offset_sines(self) -> tuple[float, float]:
        """sin theta_n by the gap route, the gap between the two images, and
        by the oblique-projector route, tan / hypot(1, tan) (_tan_theta_qn).
        They share only txn_svd's U_r and T^T U_r; only the Q_n route applies
        T^+. Neither cancels at a zero angle, so both read one at roundoff
        where T^+ U_r is accurate; where it is not, the Q_n route carries that
        error (best-lpa with sigmas [1, 1e-12] and kernel_dim 2 reads up to
        1.7e-4 at a zero angle at m <= 40, and route_disagreement fires)."""
        sin_gap = gap(*self.images)
        tan = _tan_theta_qn(self)
        return sin_gap, tan / math.hypot(1.0, tan)


def make_lpa(family: OperatorFamily, n: int, m: int,
             factor: TruncationFactor | None = None) -> LpaInstance:
    """Instance at subspace index n and ambient truncation m.

    Uses the family's own approximation subspaces when it defines them,
    coordinate subspaces otherwise. factor, when given, is the family's
    truncation at m already factored (see shared_factors), the one path by
    which a rank_tol reaches the instance; otherwise it is shared_factors'
    default, inverted when the family declares N(T) = {0}.
    """
    family.check(n, m)
    if factor is not None and factor.m != m:
        raise ValueError(f"factor is for m={factor.m}, not m={m}")
    x_basis = family.xn_basis(n, m) if family.xn_basis is not None else None
    if factor is None:
        factor = shared_factors(family)(m)
    return LpaInstance(factor, n, x_basis)


def tn_pinv_apply(inst: LpaInstance, y) -> np.ndarray:
    """Minimum-norm least-squares solution of T_n x = y.

    The result must lie in X_n (its component outside is pure roundoff); this
    is checked and a violation raises, since it would mean the rank decision
    on T_n went wrong.
    """
    y = as_vector(y)
    if y.shape[0] != inst.m:
        raise ValueError(f"y has dimension {y.shape[0]}, expected {inst.m}")
    x = _tn_pinv_times(inst, y)
    nx = float(np.linalg.norm(x))
    outside = float(np.linalg.norm(x - inst.x_n.project(x)))
    if nx > 0 and outside > 1e-9 * nx:
        raise ArithmeticError(
            f"solution leaked outside the subspace: {outside:.3e} vs norm {nx:.3e}")
    return x


def _tn_pinv_times(inst: LpaInstance, v: np.ndarray) -> np.ndarray:
    """T_n^+ v = X_n V_r Sigma_r^{-1} (U_r^T v) at txn_svd's rank r, O(m r)
    past X_n's own product, with no m x m T_n^+."""
    res, r = inst.txn_svd
    return inst.x_n.basis @ (res.vt[:r].T @ ((res.u[:, :r].T @ v) / res.singular_values[:r]))


def _qn_factors(inst: LpaInstance) -> tuple[np.ndarray, np.ndarray]:
    """A = T^+ U_r and B = T^T U_r, so that Q_n = A B^T (U_r: the r left
    singular vectors txn_svd kept, an orthonormal basis of T(X_n))."""
    res, r = inst.txn_svd
    u_r = res.u[:, :r]
    return inst.factor.pinv_apply(u_r), inst.t.T @ u_r


def _tan_theta_qn(inst: LpaInstance) -> float:
    """tan theta_n = ||Q_n - P_R||, R = ran Q_n, as the r x r ||R_A R_C^T||:
    in R + R^perp, Q_n = [[I, K], [0, 0]] with K = Q_n - P_R, so ||Q_n||^2 =
    1 + ||K||^2 = 1/cos^2 theta_n (Szyld, Numer. Algorithms 2006). With
    A = Q_A R_A, B^T A = I gives Q_A^T B = R_A^{-T}, so K = Q_A R_A C^T for
    C = (I - Q_A Q_A^T) B, projected twice, = Q_C R_C. 0 when r = 0."""
    a, b = _qn_factors(inst)
    if not a.shape[1]:
        return 0.0
    q_a, r_a = np.linalg.qr(a)
    c = b - q_a @ (q_a.T @ b)
    c -= q_a @ (q_a.T @ c)
    return float(np.linalg.norm(r_a @ np.linalg.qr(c, mode="r").T, 2))


@dataclass(frozen=True)
class OffsetAngle:
    """Offset angle with the sines from both computation routes.

    theta comes from the gap route, between two images of equal dimension r
    by construction; the oblique-projector route is the cross-check. The
    warning flag marks a sine disagreement between routes beyond the
    configured threshold; it is not a hard failure.
    """

    theta: float
    sin_gap_route: float
    sin_qn_route: float
    route_disagreement: bool


def offset_angle(inst: LpaInstance, tolerances: Tolerances = Tolerances()) -> OffsetAngle:
    """Angle between T^+T(X_n) and T^*T(X_n), by two routes.

    Route one is the gap between the two image subspaces, route two reads
    tan theta_n = ||Q_n - P_{ran Q_n}|| off the oblique projector Q_n; the
    two agree in exact arithmetic. Both come from inst.offset_sines, computed
    once per instance at txn_svd's rank r; route_warn is read on every call.
    """
    sin_gap, sin_qn = inst.offset_sines
    return OffsetAngle(
        theta=math.asin(min(max(sin_gap, 0.0), 1.0)),
        sin_gap_route=sin_gap,
        sin_qn_route=sin_qn,
        route_disagreement=(abs(sin_gap - sin_qn) > tolerances.route_warn),
    )


def kernel_core(inst: LpaInstance) -> Subspace:
    """Orthonormal basis of the intersection of N(T) with X_n.

    Computed as the kernel of T restricted to the X_n basis, lifted back to
    the ambient space. For T numerically zero the core is all of X_n. The
    diagnostics read only its dimension and gap (inst.kernel_core_dim,
    inst.kernel_gap); this m x (dim X_n - r) basis is their dense oracle.
    """
    res, r = inst.txn_svd
    return Subspace(inst.x_n.basis @ res.vt[r:].T)


def norm_tn_dag_t(inst: LpaInstance) -> float:
    """||T_n^+ T||, as the r x m norm ||Sigma_r^{-1} U_r^T T||.

    T_n^+ = (X_n V_r) Sigma_r^{-1} U_r^T from the thin SVD of T X_n, and
    X_n V_r has orthonormal columns, so it drops out of the norm. r is
    txn_svd's rank, the one the kernel core and both images use.
    """
    res, r = inst.txn_svd
    return float(np.linalg.norm((res.u[:, :r].T @ inst.t) / res.singular_values[:r, None], 2))


@dataclass(frozen=True)
class LpaDiagnostics:
    """Per-n diagnostics row. bound_factor is sqrt(1 + tan^2 theta_n);
    route_disagreement is OffsetAngle's flag, kept out of the CSV and JSON
    rows (their fields are scan.CSV_HEADER's)."""

    n: int
    m: int
    theta_n: float
    sin_theta_gap: float
    sin_theta_qn: float
    norm_tn_dag_t: float
    kernel_core_dim: int
    kernel_dim: int
    kernel_gap: float
    bound_factor: float
    route_disagreement: bool


def _bound_factor(sin_theta: float) -> float:
    c2 = 1.0 - min(max(sin_theta, 0.0), 1.0) ** 2
    return math.inf if c2 <= 0.0 else 1.0 / math.sqrt(c2)


def diagnose(inst: LpaInstance, tolerances: Tolerances = Tolerances()) -> LpaDiagnostics:
    """All scalar diagnostics of one instance in one record."""
    ang = offset_angle(inst, tolerances)
    return LpaDiagnostics(
        n=inst.n,
        m=inst.m,
        theta_n=ang.theta,
        sin_theta_gap=ang.sin_gap_route,
        sin_theta_qn=ang.sin_qn_route,
        norm_tn_dag_t=norm_tn_dag_t(inst),
        kernel_core_dim=inst.kernel_core_dim,
        kernel_dim=inst.kernel_dim,
        kernel_gap=inst.kernel_gap,
        bound_factor=_bound_factor(ang.sin_gap_route),
        route_disagreement=ang.route_disagreement,
    )


def kernel_captured(row, check: float) -> bool:
    """Whether N(T) lies in X_n, for an LpaInstance or an LpaDiagnostics row:
    the kernel core N(T) & X_n fills N(T), in dimension and within `check`
    in gap. The core lies in X_n, so then deficiency(N(T), X_n) <= kernel_gap.
    This is the one containment decision; error_bound_check's precondition,
    ZeroOffsetReport.kernel_inside and kernel_verdict's "holds" read it."""
    return row.kernel_core_dim == row.kernel_dim and row.kernel_gap <= check


def kernel_verdict(rows, check: float) -> str:
    """Kernel approximability over rows in ascending n: "holds" when the last
    row captures the kernel (kernel_captured), "violated" when the core's
    shortfall never shrank, which rules out convergence regardless of the
    angles, "inconclusive" otherwise."""
    last, first = rows[-1], rows[0]
    if kernel_captured(last, check):
        return "holds"
    deficit_last = last.kernel_dim - last.kernel_core_dim
    deficit_first = first.kernel_dim - first.kernel_core_dim
    if deficit_last > 0 and deficit_last >= deficit_first:
        return "violated"
    return "inconclusive"


@dataclass(frozen=True)
class CheckReport:
    """Two independently evaluated sides and their agreement."""

    lhs: float
    rhs: float
    diff: float
    tol: float
    passed: bool


def error_identity_check(inst: LpaInstance, y,
                         tolerances: Tolerances = Tolerances()) -> CheckReport:
    """Check T_n^+ y - T^+ y = (T_n^+ T - I)(I - P_{X_n}) T^+ y.

    The identity holds for every y, with no containment condition on the
    kernel. Both sides are evaluated separately; they must agree to
    identity_rel * (1 + ||T^+ y||).
    """
    y = as_vector(y)
    tp_y = inst.factor.pinv_apply(y)
    lhs = tn_pinv_apply(inst, y) - tp_y
    w = tp_y - inst.x_n.project(tp_y)
    rhs = _tn_pinv_times(inst, inst.t @ w) - w
    diff = float(np.linalg.norm(lhs - rhs))
    tol = tolerances.identity_rel * (1.0 + float(np.linalg.norm(tp_y)))
    return CheckReport(lhs=float(np.linalg.norm(lhs)), rhs=float(np.linalg.norm(rhs)),
                       diff=diff, tol=tol, passed=diff <= tol)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    ratio: float
    bound_factor: float
    passed: bool


def error_bound_check(inst: LpaInstance, y,
                      tolerances: Tolerances = Tolerances()) -> BoundCheck:
    """Check ||T_n^+ y - T^+ y|| <= sqrt(1 + tan^2 theta_n) * dist(T^+ y, X_n).

    Only asserted when N(T) is contained in X_n, as kernel_captured decides
    it; elsewhere the bound's hypothesis fails, and asking for it raises
    PreconditionError.

    Passes when lhs <= rhs (1 + bound_rel) + bound_abs, plus a roundoff term
    at X_n = R^m (dim X_n = m). There T_n = T, so both sides are 0 in exact
    arithmetic, and lhs is the difference of two computed solutions of the
    same problem: T^+ y through the factor of T and T_n^+ y through the SVD
    of T X_n, whose singular values s_1 >= ... >= s_r are T's. Each factor
    is exact for a T perturbed by about m eps s_1, which moves T^+ y by at
    most of order m eps s_1 ||T^+||^2 ||y|| = m eps s_1 ||y|| / s_r^2 (for
    an explicit inverse, its forward error m eps cond(T) ||T^{-1}|| ||y||;
    for a pseudo-inverse, Wedin's bound, which also covers y outside the
    range). So the term is 2 m eps s_1 ||y|| / s_r^2. bound_abs alone has no
    cond(T): seidman at n = m = 256 reads lhs 1.0e-5 against rhs = 0, and
    the term is 6.2e2 (y standard normal).
    """
    y = as_vector(y)
    if not kernel_captured(inst, tolerances.check):
        raise PreconditionError(
            "kernel not contained in the subspace at this index; the bound is "
            "only asserted from the index where the kernel is captured")
    factor = _bound_factor(inst.offset_sines[0])
    tp_y = inst.factor.pinv_apply(y)
    lhs = float(np.linalg.norm(tn_pinv_apply(inst, y) - tp_y))
    dist = float(np.linalg.norm(tp_y - inst.x_n.project(tp_y)))
    rhs = factor * dist
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    tol = rhs * (1.0 + tolerances.bound_rel) + tolerances.bound_abs
    res, r = inst.txn_svd
    if inst.x_n.dim == inst.m and r:
        s_1, s_r = float(res.singular_values[0]), float(res.singular_values[r - 1])
        tol += 2 * inst.m * EPS * (s_1 / s_r) * float(np.linalg.norm(y)) / s_r
    passed = lhs <= tol
    return BoundCheck(lhs=lhs, rhs=rhs, ratio=ratio, bound_factor=factor,
                      passed=passed)


@dataclass(frozen=True)
class ZeroOffsetReport:
    """Three separately evaluated faces of the zero-offset condition.

    theta_zero: the measured offset angle vanishes.
    pinv_is_projected_pinv: T_n^+ equals P_{X_n} T^+ as matrices.
    invariance_holds: N(T) + T^*T(X_n) is contained in X_n.
    consistent: the three answers agree.
    kernel_inside: whether N(T) is contained in X_n, kernel_captured's
        decision (the one error_bound_check requires). The three-way
        equivalence is a theorem only under this containment; the report
        still evaluates everything when it fails, and leaves the flag for
        the caller to judge.
    """

    theta_zero: bool
    pinv_is_projected_pinv: bool
    invariance_holds: bool
    consistent: bool
    kernel_inside: bool
    sin_theta: float
    pinv_diff: float
    sum_deficiency: float


def zero_offset_characterization(inst: LpaInstance,
                                 tolerances: Tolerances = Tolerances()) -> ZeroOffsetReport:
    """Evaluate the three zero-offset conditions independently."""
    tol = tolerances.check

    pinv_diff = float(np.linalg.norm(inst.tn_pinv - inst.x_n.project(inst.t_pinv), 2))
    pinv_scale = 1.0 + float(np.linalg.norm(inst.t_pinv, 2))

    # T^*T(X_n) lies in N(T)^perp, so the stacked bases are a basis of the sum
    stacked = np.hstack([inst.images[1].basis, inst.kernel.basis])
    sum_def = float(np.linalg.norm(stacked - inst.x_n.project(stacked), 2)) \
        if stacked.shape[1] else 0.0

    sin_theta = inst.offset_sines[0]
    theta_zero = sin_theta <= tol
    pinv_ok = pinv_diff <= tol * pinv_scale
    invariance = sum_def <= tol
    return ZeroOffsetReport(
        theta_zero=theta_zero,
        pinv_is_projected_pinv=pinv_ok,
        invariance_holds=invariance,
        consistent=(theta_zero == pinv_ok == invariance),
        kernel_inside=kernel_captured(inst, tol),
        sin_theta=sin_theta,
        pinv_diff=pinv_diff,
        sum_deficiency=sum_def,
    )


@dataclass(frozen=True)
class DuDivergenceRow:
    n: int
    m: int
    coefficient: float
    coefficient_closed: float
    solution_norm: float
    divergence_gap: float


@dataclass(frozen=True)
class DuDivergenceReport:
    """Bounded solutions that still refuse to converge, quantified.

    The solutions T_n^+ y follow P_n y - c_n * P_n e with
    c_n = 4^n <(I - P_n) y, e> = 1 - (3/7) 2^(-n) -> 1, while the target
    solution has coefficient <y, e> = 4/7 along e. The persistent mismatch
    keeps ||T_n^+ y - T^+ y|| above a fixed floor even though ||T_n^+ y||
    stays bounded.
    """

    rows: tuple[DuDivergenceRow, ...]
    inner_ye: float
    inner_ye_expected: float
    limit_mismatch: float
    floor: float
    solution_cap: float
    passed: bool


def du_divergence_check(n_max: int = 20,
                        tolerances: Tolerances = Tolerances()) -> DuDivergenceReport:
    """Verify the bounded-but-divergent behavior of the du family up to n_max.

    n_max is capped at 20: the coefficient check multiplies a 4^(-n)-scale
    inner product back up by 4^n, and beyond n = 20 the least-squares route
    it is compared against has lost too much precision to be meaningful.
    """
    if not 1 <= n_max <= 20:
        raise ValueError(f"n_max must be in [1, 20], got {n_max}")
    family = get_family("du")
    factor = shared_factors(family, tolerances.rank)
    rows = []
    passed = True
    floor, cap = 0.3, 2.0
    for n in range(1, n_max + 1):
        m = resolve_m(None, n)
        y = du_bad_y(m)
        e = du_vector_e(m)
        coef = float(np.exp2(2.0 * n) * np.dot(y[n:], e[n:]))
        closed = 1.0 - (3.0 / 7.0) * 2.0 ** (-n)
        inst = make_lpa(family, n, m, factor(m))
        x = tn_pinv_apply(inst, y)
        sol_norm = float(np.linalg.norm(x))
        div_gap = float(np.linalg.norm(x - inst.factor.pinv_apply(y)))
        rows.append(DuDivergenceRow(
            n=n, m=m, coefficient=coef, coefficient_closed=closed,
            solution_norm=sol_norm, divergence_gap=div_gap,
        ))
        if abs(coef - closed) > 1e-9 or sol_norm > cap:
            passed = False
        if n >= 8 and div_gap < floor:
            passed = False
    m_last = rows[-1].m
    y = du_bad_y(m_last)
    e = du_vector_e(m_last)
    inner = float(np.dot(y, e))
    inner_expected = 4.0 / 7.0 - 3.0 * (4.0 ** (-m_last) / 3.0 - 8.0 ** (-m_last) / 7.0)
    if abs(inner - inner_expected) > 1e-12:
        passed = False
    limit_mismatch = abs(rows[-1].coefficient - inner)
    if limit_mismatch < 0.3:  # the coefficients must stay apart, 1 vs 4/7
        passed = False
    return DuDivergenceReport(
        rows=tuple(rows), inner_ye=inner, inner_ye_expected=inner_expected,
        limit_mismatch=limit_mismatch, floor=floor, solution_cap=cap,
        passed=passed,
    )


@dataclass(frozen=True)
class CoerciveRow:
    n: int
    bound_factor: float


@dataclass(frozen=True)
class CoerciveReport:
    rows: tuple[CoerciveRow, ...]
    alpha: float
    beta: float
    limit: float
    passed: bool


def coercive_bound_check(t, alpha: float, beta: float, n_list,
                         tol: float = 1e-8) -> CoerciveReport:
    """For coercive T, the bound factors never exceed beta/alpha.

    Coercivity (|<Tu, u>| >= alpha ||u||^2) and the norm bound ||T|| <= beta
    are verified first, by the smallest eigenvalue of the symmetric part,
    which bounds u^T T u below for every unit u, and by ||T||_2; a failure
    raises PreconditionError. Then
    sqrt(1 + tan^2 theta_n) <= beta/alpha + tol is checked across n_list.
    alpha must be positive (ValueError otherwise).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got {t.shape}")
    lam_min = float(np.linalg.eigvalsh(0.5 * (t + t.T))[0])
    norm_t = float(np.linalg.norm(t, 2))
    if lam_min < alpha - 1e-10:
        raise PreconditionError(
            f"not coercive with alpha={alpha}: symmetric part has eigenvalue {lam_min:.6g}")
    if norm_t > beta + 1e-10:
        raise PreconditionError(f"||T|| = {norm_t:.6g} exceeds beta = {beta}")
    limit = beta / alpha
    rows = []
    passed = True
    t_factor = TruncationFactor(t, injective=True)  # coercive, so N(T) = {0}
    for n in n_list:
        factor = _bound_factor(LpaInstance(t_factor, n).offset_sines[0])
        rows.append(CoerciveRow(n=n, bound_factor=factor))
        if not factor <= limit + tol:
            passed = False
    return CoerciveReport(rows=tuple(rows), alpha=alpha, beta=beta,
                          limit=limit, passed=passed)
