"""Convergence diagnostics for least-squares projection approximations.

Given a bounded operator T, truncated to an m x m matrix, and a
finite-dimensional subspace X_n, the approximation under study replaces T by
T_n = T P_{X_n} and the minimum-norm least-squares solution T^+ y by
T_n^+ y. Whether T_n^+ y converges to T^+ y as the subspaces fill the space
is governed by quantities this module computes at each finite n:

* the offset angle theta_n = arcsin gap(T^+T(X_n), T^*T(X_n)), computed by
  two independent routes that must agree,
* the kernel core, the intersection of N(T) with X_n, whose failure to
  exhaust N(T) rules convergence out no matter how the angles behave,
* ||T_n^+ T||, bounded across n exactly when the scheme converges,
* the per-instance error bound
  ||T_n^+ y - T^+ y|| <= sqrt(1 + tan^2 theta_n) * dist(T^+ y, X_n),
  valid once N(T) is contained in X_n.

Every diagnostic on one instance reads what the instance computed once: one
SVD of T (a TruncationFactor, shared by every instance at the same m), one
SVD of T X_n and both offset-angle routes, so identities that hold in exact
arithmetic stay consistent to machine precision. T's SVD is taken by LAPACK
on its coupled block only: a coordinate whose row and column are zero off
the diagonal contributes its singular triplet in closed form. The rank r of
T X_n is decided once; both offset-angle images, ||I - Q_n|| (on a 2r-column
block) and ||T_n^+ T|| (an r x m norm) are read off its r singular vectors.
Subspaces stay orthonormal bases, X_n projecting as X_n (X_n^T v).

Past the factor (once per m), a row's factorizations and spectral norms are
sized by rho = rank(T) or by r <= rho, not by m: T X_n is factored as the
rho x dim X_n matrix U_rho^T T X_n, the kernel gap and the containment of
N(T) in X_n are rho-row norms against the row space, T^+ is applied through
the factor, and the rest have at most 2r rows or columns. The kernel core's
dimension and its gap to N(T) are read off T X_n's SVD and R^T X_n, and
T_n^+ is applied through the factors of T X_n, so a row forms no m x m
array. When dim X_n is of order m a row still makes the m x m x dim X_n
product T X_n, but no m x ~m factorization. The m x m matrices t_pinv, tn(),
tn_pinv and qn_matrix(), and the core's basis kernel_core(), serve the
zero-offset report, the suites and the dense oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .config import Tolerances, resolve_m
from .linalg import (
    Subspace,
    SvdResult,
    as_matrix,
    as_vector,
    gap,
    numerical_rank,
    pinv_from_svd,
    projector,
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
    "qn_matrix",
    "offset_angle",
    "kernel_core",
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
    if coupled.all():
        res = svd(t)
        return res.singular_values, lambda r: (res.u[:, :r].copy(), res.vt)
    m = t.shape[0]
    keep, drop = np.flatnonzero(coupled), np.flatnonzero(~coupled)
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


class TruncationFactor:
    """The SVD of one m x m truncation T and what is read off it: rank rho,
    sigma_max, the rank-rho left factor U_rho and singular values Sigma_rho,
    the row space R and the kernel K = R^perp, every rank decision at
    rank_tol against T's full shape. LAPACK factors only T's coupled block;
    each decoupled coordinate, whose row and column are zero off the
    diagonal, adds its singular triplet in closed form (see _factor_svd). So
    identity, zero and diagonal T take no LAPACK call, and du's truncation
    only its leading 511 x 511 block. T^+ is applied as
    V_rho Sigma_rho^{-1} U_rho^T (pinv_apply); the m x m t_pinv is formed
    only when read. It does not depend on X_n, so every instance at this m
    can share it (see shared_factors).
    """

    def __init__(self, t, rank_tol: float | None = None):
        t = as_matrix(t)
        if t.shape[0] != t.shape[1]:
            raise ValueError(f"expected a square truncation, got {t.shape}")
        self.t = t
        self.m = t.shape[0]
        self.rank_tol = rank_tol
        s, vectors = _factor_svd(t)
        self.rank = numerical_rank(s, t.shape, rank_tol)
        self.sigma_max = float(s[0]) if self.m else 0.0
        r = self.rank
        self.u_rho, vt = vectors(r)
        del vectors  # frees the SVD's arrays before the Subspace checks' Gram matrices
        self.s_rho = s[:r]
        self.rowspace = Subspace(vt[:r].T)
        self.kernel = Subspace(vt[r:].T)

    def pinv_apply(self, v: np.ndarray) -> np.ndarray:
        """T^+ v = V_rho Sigma_rho^{-1} (U_rho^T v), for a vector or a matrix's
        columns."""
        return self.rowspace.basis @ ((self.u_rho.T @ v).T / self.s_rho).T

    @cached_property
    def t_pinv(self) -> np.ndarray:
        """T^+ as a dense m x m matrix, for the checks and oracles that need it."""
        return pinv_from_svd(SvdResult(self.u_rho, self.s_rho, self.rowspace.basis.T), self.rank)


def shared_factors(family: OperatorFamily, rank_tol: float | None = None):
    """factor(m): family.truncate(m) factored, keeping only the latest m.

    Consecutive rows at one m share one factor; the previous factor is
    dropped before the next one is built, so one is alive at a time.
    """
    last = None

    def factor(m: int) -> TruncationFactor:
        nonlocal last
        if last is None or last.m != m:
            last = None
            last = TruncationFactor(family.truncate(m), rank_tol)
        return last

    return factor


class LpaInstance:
    """One (T, X_n) pair at truncation m, owning the factorizations that
    depend on X_n.

    T is given as a matrix, factored here, or as a TruncationFactor shared
    with other instances at the same m (factor); its attributes (t, rank,
    sigma_max, t_pinv, rowspace, kernel, rank_tol) are exposed on the
    instance. First use computes, once: the SVD of T X_n read in U_rho
    (txn_svd, a rho x dim X_n factorization), whose rank r anchored to
    sigma_max(T) splits it into the range T(X_n) and the kernel core, of
    dimension kernel_core_dim = dim X_n - r; tn_rank, its rank at the cutoff
    pseudo_inverse(T_n) applies, which T_n^+ = X_n (T X_n)^+ and
    norm_tn_dag_t share; the two offset-angle images, both of dimension r,
    and both routes' sines; and the rho x dim X_n matrix R^T X_n, off which
    kernel_gap and kernel_deficiency are read. Every rank decision uses
    rank_tol.

    x_basis defaults to the coordinate subspace span{e^1, ..., e^n}; an
    arbitrary orthonormal basis may be supplied instead.
    """

    def __init__(self, t, n: int, x_basis: np.ndarray | None = None,
                 rank_tol: float | None = None):
        factor = t if isinstance(t, TruncationFactor) else TruncationFactor(t, rank_tol)
        if rank_tol is not None and rank_tol != factor.rank_tol:
            raise ValueError(f"rank_tol {rank_tol} differs from the factor's {factor.rank_tol}")
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
        self.t, self.rank_tol = factor.t, factor.rank_tol
        self.rank, self.sigma_max = factor.rank, factor.sigma_max
        self.rowspace, self.kernel = factor.rowspace, factor.kernel

    @property
    def t_pinv(self) -> np.ndarray:
        """The factor's dense m x m T^+, formed on first read."""
        return self.factor.t_pinv

    def tn(self) -> np.ndarray:
        """The approximating operator T P_{X_n}, built on demand."""
        return self.t @ projector(self.x_n)

    @cached_property
    def txn_svd(self) -> tuple[SvdResult, int]:
        """SVD of T X_n and its rank anchored to sigma_max(T).

        Taken as the SVD P S V^T of Z = U_rho^T (T X_n), rho x dim X_n, with
        u = U_rho P. What is dropped, (I - U_rho U_rho^T) T X_n, has norm at
        most sigma_{rho+1}(T), below T's own rank cutoff. Z projects the
        dense product, so exact zeros of T X_n stay exact. V is full when
        rho < dim X_n, so that its last dim X_n - r rows vt[r:] span the
        kernel core's coefficients (kernel_gap, the oracle kernel_core).
        """
        f, k = self.factor, self.x_n.dim
        z = svd(f.u_rho.T @ (self.t @ self.x_n.basis), full_matrices=f.rank < k)
        res = SvdResult(u=f.u_rho @ z.u, singular_values=z.singular_values, vt=z.vt)
        return res, numerical_rank(res.singular_values, (self.m, k), self.rank_tol,
                                   scale=self.sigma_max)

    @cached_property
    def tn_rank(self) -> int:
        """Rank of T X_n cut off relative to sigma_max(T X_n), as
        pseudo_inverse(T_n) does."""
        return numerical_rank(self.txn_svd[0].singular_values, (self.m, self.x_n.dim),
                              self.rank_tol)

    @cached_property
    def tn_pinv(self) -> np.ndarray:
        """T_n^+ = (X_n V_r Sigma_r^{-1}) U_r^T at r = tn_rank, an m x r x m
        product. The diagnostics apply T_n^+ without it (_tn_pinv_times)."""
        res, r = self.txn_svd[0], self.tn_rank
        return (self.x_n.basis @ (res.vt[:r].T / res.singular_values[:r])) @ res.u[:, :r].T

    @cached_property
    def _rt_xn(self) -> np.ndarray:
        """R^T X_n, rho x dim X_n, R the row space of T."""
        return self.rowspace.basis.T @ self.x_n.basis

    @property
    def kernel_core_dim(self) -> int:
        """dim (N(T) & X_n) = dim X_n - r."""
        return self.x_n.dim - self.txn_svd[1]

    @cached_property
    def kernel_gap(self) -> float:
        """gap(kernel_core(self), N(T)): 1 for unequal dimensions, else
        ||(R^T X_n) V_{r:}^T||, a rho x dim-core norm, since the core's basis
        is X_n V_{r:}^T and I - P_K = P_R (K and R come from one orthogonal
        V)."""
        if self.kernel_core_dim != self.kernel.dim:
            return 1.0
        if self.kernel_core_dim == 0:
            return 0.0
        res, r = self.txn_svd
        return float(np.linalg.norm(self._rt_xn @ res.vt[r:].T, 2))

    @cached_property
    def kernel_deficiency(self) -> float:
        """deficiency(N(T), X_n), read off R^T X_n (rho x dim X_n) by the CS
        decomposition: 1 when dim N(T) > dim X_n, else
        sigma_{rho + dim X_n - m + 1}(R^T X_n), counted from 1, and 0 when
        that index passes the last singular value (N(T) = {0} or X_n = R^m).
        No rank decision; absolute error about eps."""
        k = self.x_n.dim
        j = self.rank + k - self.m
        if j < 0:
            return 1.0
        if j >= min(self.rank, k):
            return 0.0
        return float(np.linalg.svd(self._rt_xn, compute_uv=False)[j])

    @cached_property
    def images(self) -> tuple[Subspace, Subspace]:
        """T^+T(X_n) = span(P_row X_n V_r) and T^*T(X_n) = span(T^T U_r), from
        the r singular vectors txn_svd kept, each orthonormalized by one QR:
        no further rank decision, so both have dimension r. T^+T is applied
        as the row-space projector, which does not amplify roundoff in
        kernel directions."""
        res, r = self.txn_svd
        row_image = self.rowspace.project(self.x_n.basis @ res.vt[:r].T)
        return (Subspace(np.linalg.qr(row_image)[0]),
                Subspace(np.linalg.qr(self.t.T @ res.u[:, :r])[0]))

    @cached_property
    def offset_sines(self) -> tuple[float, float]:
        """sin theta_n by the gap route, the gap between the two images, and
        by the oblique-projector route, sqrt(1 - 1/||I - Q_n||^2) with
        ||I - Q_n|| taken on a 2r-column basis (see _norm_i_minus_qn). The
        Q_n route rebuilds its own factors and QR; it shares only txn_svd's
        U_r with the gap route."""
        sin_gap = gap(*self.images)
        nrm = _norm_i_minus_qn(self)
        return sin_gap, math.sqrt(max(0.0, 1.0 - 1.0 / nrm**2)) if nrm > 1.0 else 0.0


def make_lpa(family: OperatorFamily, n: int, m: int, rank_tol: float | None = None,
             factor: TruncationFactor | None = None) -> LpaInstance:
    """Instance at subspace index n and ambient truncation m.

    Uses the family's own approximation subspaces when it defines them,
    coordinate subspaces otherwise. factor, when given, is the family's
    truncation at m already factored at rank_tol; otherwise it is built.
    """
    family.check(n, m)
    if factor is not None and factor.m != m:
        raise ValueError(f"factor is for m={factor.m}, not m={m}")
    x_basis = family.xn_basis(n, m) if family.xn_basis is not None else None
    if factor is None:
        factor = TruncationFactor(family.truncate(m), rank_tol)
    return LpaInstance(factor, n, x_basis, rank_tol)


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
    """T_n^+ v = X_n V_r Sigma_r^{-1} (U_r^T v) at r = inst.tn_rank, O(m r)
    past X_n's own product, with no m x m T_n^+."""
    res, r = inst.txn_svd[0], inst.tn_rank
    return inst.x_n.basis @ (res.vt[:r].T @ ((res.u[:, :r].T @ v) / res.singular_values[:r]))


def _qn_factors(inst: LpaInstance) -> tuple[np.ndarray, np.ndarray]:
    """A = T^+ U_r and B = T^T U_r, so that Q_n = A B^T (U_r: the r left
    singular vectors txn_svd kept, an orthonormal basis of T(X_n))."""
    res, r = inst.txn_svd
    u_r = res.u[:, :r]
    return inst.factor.pinv_apply(u_r), inst.t.T @ u_r


def qn_matrix(inst: LpaInstance) -> np.ndarray:
    """The oblique projector T^+ P_{T(X_n)} T, as a dense m x m matrix.

    Its range is T^+T(X_n), its kernel is the orthogonal complement of
    T^*T(X_n), and it is idempotent up to roundoff. The diagnostics take
    ||I - Q_n|| without forming it; this is their dense oracle.
    """
    a, b = _qn_factors(inst)
    return a @ b.T


def _norm_i_minus_qn(inst: LpaInstance) -> float:
    """||I - Q_n|| on k = min(2r, m) columns instead of m.

    W, the QR basis of [A B], is orthonormal and contains the ranges of Q_n
    and Q_n^T. So I - Q_n maps span W into itself and is the identity on its
    complement: the norm is ||I_k - (W^T A)(W^T B)^T||, and at least 1 when
    k < m. (||Q_n|| = ||I - Q_n|| would allow an r x r form, but ||Q_n||
    picks up first-order roundoff on graded spectra that ||I - Q_n|| does
    not.)
    """
    a, b = _qn_factors(inst)
    w = np.linalg.qr(np.hstack([a, b]))[0]
    k = w.shape[1]
    inner = float(np.linalg.norm(np.eye(k) - (w.T @ a) @ (w.T @ b).T, 2)) if k else 0.0
    return max(inner, 1.0) if k < inst.m else inner


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


def offset_angle(inst: LpaInstance, tolerances: Tolerances | None = None) -> OffsetAngle:
    """Angle between T^+T(X_n) and T^*T(X_n), by two routes.

    Route one is the gap between the two image subspaces, route two
    evaluates sqrt(1 - 1/||I - Q_n||^2) with Q_n the oblique projector,
    ||I - Q_n|| taken on the 2r-column basis that holds both its range and
    its corange; the two agree in exact arithmetic. Both come from
    inst.offset_sines, computed once per instance at inst.rank_tol;
    route_warn is read on every call.
    """
    tolerances = tolerances or Tolerances.default()
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
    inst.tn_rank, the rank T_n^+ keeps.
    """
    res, r = inst.txn_svd[0], inst.tn_rank
    return float(np.linalg.norm((res.u[:, :r].T @ inst.t) / res.singular_values[:r, None], 2))


@dataclass(frozen=True)
class LpaDiagnostics:
    """Per-n diagnostics row. bound_factor is sqrt(1 + tan^2 theta_n)."""

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


def _bound_factor(sin_theta: float) -> float:
    c2 = 1.0 - min(max(sin_theta, 0.0), 1.0) ** 2
    return math.inf if c2 <= 0.0 else 1.0 / math.sqrt(c2)


def diagnose(inst: LpaInstance, tolerances: Tolerances | None = None) -> LpaDiagnostics:
    """All scalar diagnostics of one instance in one record."""
    tolerances = tolerances or Tolerances.default()
    ang = offset_angle(inst, tolerances)
    return LpaDiagnostics(
        n=inst.n,
        m=inst.m,
        theta_n=ang.theta,
        sin_theta_gap=ang.sin_gap_route,
        sin_theta_qn=ang.sin_qn_route,
        norm_tn_dag_t=norm_tn_dag_t(inst),
        kernel_core_dim=inst.kernel_core_dim,
        kernel_dim=inst.kernel.dim,
        kernel_gap=inst.kernel_gap,
        bound_factor=_bound_factor(ang.sin_gap_route),
    )


def kernel_verdict(rows, check: float) -> str:
    """Kernel approximability over rows in ascending n: "holds" when the last
    core fills the kernel (dimension, and gap within `check`), "violated"
    when the core's shortfall never shrank, which rules out convergence
    regardless of the angles, "inconclusive" otherwise."""
    last, first = rows[-1], rows[0]
    deficit_last = last.kernel_dim - last.kernel_core_dim
    deficit_first = first.kernel_dim - first.kernel_core_dim
    if deficit_last == 0 and last.kernel_gap <= check:
        return "holds"
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
                         tolerances: Tolerances | None = None) -> CheckReport:
    """Check T_n^+ y - T^+ y = (T_n^+ T - I)(I - P_{X_n}) T^+ y.

    The identity holds for every y, with no containment condition on the
    kernel. Both sides are evaluated separately; they must agree to
    identity_rel * (1 + ||T^+ y||).
    """
    tolerances = tolerances or Tolerances.default()
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
                      tolerances: Tolerances | None = None) -> BoundCheck:
    """Check ||T_n^+ y - T^+ y|| <= sqrt(1 + tan^2 theta_n) * dist(T^+ y, X_n).

    Only asserted when N(T) is contained in X_n (checked numerically); below
    the index where the subspaces capture the kernel the bound simply does
    not hold, and asking for it raises PreconditionError.
    """
    tolerances = tolerances or Tolerances.default()
    y = as_vector(y)
    if inst.kernel_deficiency > tolerances.check:
        raise PreconditionError(
            "kernel not contained in the subspace at this index; the bound is "
            "only asserted from the index where the kernel is captured")
    ang = offset_angle(inst, tolerances)
    factor = _bound_factor(ang.sin_gap_route)
    tp_y = inst.factor.pinv_apply(y)
    lhs = float(np.linalg.norm(tn_pinv_apply(inst, y) - tp_y))
    dist = float(np.linalg.norm(tp_y - inst.x_n.project(tp_y)))
    rhs = factor * dist
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    passed = lhs <= rhs * (1.0 + tolerances.bound_rel) + tolerances.bound_abs
    return BoundCheck(lhs=lhs, rhs=rhs, ratio=ratio, bound_factor=factor,
                      passed=passed)


@dataclass(frozen=True)
class ZeroOffsetReport:
    """Three separately evaluated faces of the zero-offset condition.

    theta_zero: the measured offset angle vanishes.
    pinv_is_projected_pinv: T_n^+ equals P_{X_n} T^+ as matrices.
    invariance_holds: N(T) + T^*T(X_n) is contained in X_n.
    consistent: the three answers agree.
    kernel_inside: whether N(T) is contained in X_n. The three-way
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
                                 tolerances: Tolerances | None = None) -> ZeroOffsetReport:
    """Evaluate the three zero-offset conditions independently."""
    tolerances = tolerances or Tolerances.default()
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
        kernel_inside=inst.kernel_deficiency <= tol,
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
                        tolerances: Tolerances | None = None) -> DuDivergenceReport:
    """Verify the bounded-but-divergent behavior of the du family up to n_max.

    n_max is capped at 20: the coefficient check multiplies a 4^(-n)-scale
    inner product back up by 4^n, and beyond n = 20 the least-squares route
    it is compared against has lost too much precision to be meaningful.
    """
    if not 1 <= n_max <= 20:
        raise ValueError(f"n_max must be in [1, 20], got {n_max}")
    tolerances = tolerances or Tolerances.default()
    family = get_family("du")
    rows = []
    passed = True
    floor, cap = 0.3, 2.0
    for n in range(1, n_max + 1):
        m = resolve_m(None, n)
        y = du_bad_y(m)
        e = du_vector_e(m)
        coef = float(np.exp2(2.0 * n) * np.dot(y[n:], e[n:]))
        closed = 1.0 - (3.0 / 7.0) * 2.0 ** (-n)
        inst = make_lpa(family, n, m, tolerances.rank)
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
                         tol: float = 1e-8, seed: int = 0) -> CoerciveReport:
    """For coercive T, the bound factors never exceed beta/alpha.

    Coercivity (|<Tu, u>| >= alpha ||u||^2) and the norm bound ||T|| <= beta
    are verified first, by the smallest eigenvalue of the symmetric part and
    by seeded sampling; a failure raises PreconditionError. Then
    sqrt(1 + tan^2 theta_n) <= beta/alpha + tol is checked across n_list.
    alpha must be positive (ValueError otherwise).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got {t.shape}")
    m = t.shape[0]
    lam_min = float(np.linalg.eigvalsh(0.5 * (t + t.T))[0])
    norm_t = float(np.linalg.norm(t, 2))
    if lam_min < alpha - 1e-10:
        raise PreconditionError(
            f"not coercive with alpha={alpha}: symmetric part has eigenvalue {lam_min:.6g}")
    if norm_t > beta + 1e-10:
        raise PreconditionError(f"||T|| = {norm_t:.6g} exceeds beta = {beta}")
    rng = np.random.default_rng(seed)
    for _ in range(20):
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        if abs(float(u @ t @ u)) < alpha - 1e-10:
            raise PreconditionError("sampled vector violates coercivity")
    limit = beta / alpha
    rows = []
    passed = True
    t_factor = TruncationFactor(t)
    for n in n_list:
        ang = offset_angle(LpaInstance(t_factor, n))
        factor = _bound_factor(ang.sin_gap_route)
        rows.append(CoerciveRow(n=n, bound_factor=factor))
        if not factor <= limit + tol:
            passed = False
    return CoerciveReport(rows=tuple(rows), alpha=alpha, beta=beta,
                          limit=limit, passed=passed)
