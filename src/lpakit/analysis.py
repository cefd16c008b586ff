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
one SVD of T X_n, one T^T U_r and both offset-angle routes, so identities
that hold in exact arithmetic stay consistent to machine precision. A row
reads T only through T's structured products: its first n columns, T V and
T^T U. A family that hands them over (OperatorFamily.products) has its T
never formed. The factor is T's SVD as the family knows it, T^{-1} in closed form
or LAPACK's SVD of the whole T (see TruncationFactor); the instance sees
ranks, not routes. The rank r of T X_n is decided once, and refused where
its kernel core would exceed N(T); the kernel core, T_n^+, both
offset-angle images, tan theta_n = ||Q_n - P_{ran Q_n}|| (an r x r norm) and
||T_n^+ T|| (an r x m norm) are read off its r singular vectors. Subspaces
are read through their maps, X_n applied as X_n p, read as X_n^T v and
projecting as X_n (X_n^T v); a row forms the basis of an X_n held as
reflectors (best-lpa's) only where it is no wider than rank(T).

Past the factor (once per m), a row's factorizations and spectral norms are
sized by dim X_n, by rho = rank(T) or by r <= rho, not by m: T X_n is
factored as itself, m x dim X_n, when rho >= dim X_n, and as the
rho x dim X_n matrix (U_rho^T T) X_n otherwise, read as X_n^T (T^T U_rho);
the kernel core's dimension is read off that SVD and its gap to N(T) is a
rho-row norm against the row space R, off R^T X_n formed from the
narrower of the two bases; T^+ and T_n^+ are applied through the factors
of T and of T X_n, and the rest have at most r rows or columns, so a row
forms no m x m array, a seidman, du, best-lpa or identity row none on
either route, and a best-lpa row from m = 2r no basis of its
m x (m - r + n) X_n, only R's r columns. A row makes
the m x m x dim X_n product T X_n only for a dense T when rho >= dim X_n
and X_n is not a coordinate subspace (whose T X_n is T's first n columns),
and no m x ~m factorization. The m x m matrices t and t_pinv, tn_pinv,
T^+ and T_n^+ applied to I through those same maps, tn() and the core's
basis kernel_core() are formed only when read; they serve the zero-offset
report, the suites and the dense oracles.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .config import Tolerances, resolve_m
from .linalg import (
    EPS,
    Subspace,
    SvdResult,
    as_matrix,
    as_vector,
    gap,
    projector,
    rank_cutoff,
    svd,
)
from .operators import OperatorFamily, Products, Reflector, du_bad_y, du_vector_e, get_family

__all__ = [
    "PreconditionError",
    "RankToleranceError",
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


class RankToleranceError(ArithmeticError):
    """A row refused at a rank_tol that the rank rule's default would keep:
    the tolerance is too coarse for it, not the arithmetic too weak."""


def _factor_svd(t: np.ndarray) -> tuple[np.ndarray, Callable[[int], tuple]]:
    """LAPACK's SVD of a square T as (s, vectors), vectors(r) = (U[:, :r],
    V[:, :r], V[:, r:]) (see Products.singular_triplets): the left
    vectors copied, so that the full U can be freed, and taken unchecked,
    and the row-space and kernel bases views of one V, checked."""
    res = svd(t)
    return res.singular_values, lambda r: (Subspace(res.u[:, :r].copy(), check=False),
                                           Subspace(res.vt[:r].T), Subspace(res.vt[r:].T))


# Columns of U_rho per block when TruncationFactor.ut_rho reads them.
_UT_BLOCK = 64


class TruncationFactor:
    """One m x m truncation T factored, and what is read off it: rank rho,
    sigma_max, the kernel K and, on the SVD routes, the singular values
    Sigma_rho (s_rho), the left factor U_rho (u_rho) and the row space
    R = K^perp (rowspace), Subspaces read through their maps (apply,
    coords, project), and pinv_apply, v -> T^+ v for a vector or a
    matrix's columns. cutoff = tol x sigma_max is the one rank threshold,
    by linalg.rank_cutoff's rule (tol: rank_tol, the rule's default when
    None): rho counts T's singular values above it, each row's r those of
    T X_n (LpaInstance.txn_svd).

    T is given as an m x m array (read as Products.dense(t)) or as an
    operators.Products, what a family knows of T at m
    (OperatorFamily.products). A row reads T only through its maps (T's
    first n columns, T V and T^T U): from the array its slices and
    products; from the family, O(m) or O(m r) per column, and the dense t
    is products.columns(m), formed only when read (tn(), the suites' small
    instances and the oracles).

    Three sources, read off t. t.singular_triplets is T's SVD already
    known, in _factor_svd's (s, vectors) form (best-lpa's and du's), read
    with no LAPACK call; with neither it nor t.inverse, and for an array,
    the factor is LAPACK's SVD of the whole T (_factor_svd), the reference
    the tests hold the other sources to. Both hand over (U_rho, R, K) as
    vectors(rho), Subspaces the factor takes as they are (du's and
    best-lpa's R and K are a Reflector's columns, certified by it),
    pinv_apply is R (Sigma_rho^{-1} U_rho^T v), and U_rho^T T, in one form
    whatever holds U_rho, is ut_rho. t.inverse is T^{-1} in closed form
    with sigma_max(T), (apply, sigma_max) (seidman's, identity's), a
    certificate that T is injective, read first: T is inverted, holding
    no m x m array, whatever cond(T) is. rho = m,
    pinv_apply is apply, T^{-1} = T^+; u_rho is None, K is {0}, and the
    factor holds no singular values or row space (rho = m, so no row reads
    them). On every route the m x m t_pinv is pinv_apply(I), formed only
    when read.

    It does not depend on X_n, so every instance at this m can share it (see
    shared_factors).
    """

    def __init__(self, t, rank_tol: float | None = None):
        if not isinstance(t, Products):
            t = as_matrix(t)
            if t.shape[0] != t.shape[1]:
                raise ValueError(f"expected a square truncation, got {t.shape}")
            self.t = t
            t = Products.dense(t)
        self.products = t
        m = self.m = t.m
        self.rank_tol = rank_tol
        if t.inverse:
            self.pinv_apply, self.sigma_max = t.inverse
            self.cutoff = rank_cutoff((), (m, m), rank_tol, self.sigma_max)[1]
            self.rank, self.u_rho = m, None
            self.kernel = Subspace.zero(m)
            return
        s, vectors = t.singular_triplets or _factor_svd(self.t)
        self.sigma_max = float(s[0]) if m else 0.0
        self.rank, self.cutoff = rank_cutoff(s, (m, m), rank_tol)
        self.u_rho, self.rowspace, self.kernel = vectors(self.rank)
        del vectors  # frees the SVD's arrays not kept (LAPACK's full U)
        self.s_rho = s_rho = s[:self.rank]
        # closures over the subspaces' maps, not bound methods of self: no
        # cycle through self, so a dropped factor is freed without a GC pass
        apply, coords = self.rowspace.apply, self.u_rho.coords
        self.pinv_apply = lambda v: apply((coords(v).T / s_rho).T)

    @cached_property
    def t(self) -> np.ndarray:
        """The dense m x m T, products.columns(m), formed on first read when
        the factor was given T's structured products."""
        return self.products.columns(self.m)

    @cached_property
    def ut_rho(self) -> np.ndarray:
        """U_rho^T T = (T^T U_rho)^T, rho x m, formed once on first read
        (SVD routes only): txn_svd reads U_rho^T T X_n off it on every such
        route when rho < dim X_n. U_rho's columns are read in blocks of 64
        (u_rho.block): slices of an explicit basis (LAPACK's, best-lpa's
        U_r), and a reflector's columns applied to identity blocks, so no
        basis of U_rho is formed and kept beside it (du's, at n = m)."""
        rho, m = self.rank, self.m
        ut = np.empty((rho, m))
        for j in range(0, rho, _UT_BLOCK):
            ut[j:j + _UT_BLOCK] = self.products.t_times(self.u_rho.block(j, _UT_BLOCK)).T
        return ut

    @cached_property
    def t_pinv(self) -> np.ndarray:
        """T^+ as a dense m x m matrix, pinv_apply(I), for the checks and
        oracles that need it."""
        return self.pinv_apply(np.eye(self.m))


def shared_factors(family: OperatorFamily, rank_tol: float | None = None):
    """factor(m): family's truncation at m factored, keeping only the latest
    m. T is handed over as the family's products(m) when it has them, and
    the factor's source is read off that one value (see TruncationFactor);
    truncate is then not called, and the dense T is formed only when read.
    A family without products is factored by LAPACK's SVD of truncate(m).

    Consecutive rows at one m share one factor; the previous factor is
    dropped before the next one is built, so one is alive at a time.
    """
    last = None

    def factor(m: int) -> TruncationFactor:
        nonlocal last
        if last is None or last.m != m:
            last = None
            last = TruncationFactor(family.products(m) if family.products else family.truncate(m),
                                    rank_tol)
        return last

    return factor


class LpaInstance:
    """One (T, X_n) pair at truncation m, owning the factorizations that
    depend on X_n.

    T is given as a matrix, factored here at the default rank_tol, or as a
    TruncationFactor shared with other instances at the same m (factor);
    its rank, kernel, and dense t and t_pinv (each formed on first read)
    are exposed on the instance; the rest is read through inst.factor. What the instance does
    depends on the factor's ranks alone, never on its route.
    First use computes, once: the SVD of T X_n (txn_svd), whose rank r,
    decided at the factor's cutoff like T's own, splits it into the range
    T(X_n), which T_n^+ = X_n (T X_n)^+ and norm_tn_dag_t invert, and the
    kernel core, of dimension kernel_core_dim = dim X_n - r, which they
    drop; both routes' sines, the gap route's from the two offset-angle
    images, both of dimension r, which are not kept (images()); and
    kernel_gap, the gap between the core and N(T) (kernel_dim = dim N(T)),
    off which kernel_captured decides whether N(T) lies in X_n.

    x_basis defaults to the coordinate subspace span{e^1, ..., e^n}; an
    arbitrary orthonormal basis may be supplied instead, as an array, which
    is checked, or as a Subspace, taken as it is.
    """

    def __init__(self, t, n: int, x_basis: np.ndarray | None = None):
        factor = t if isinstance(t, TruncationFactor) else TruncationFactor(t)
        self.m = factor.m
        if not 1 <= n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n={n}, m={self.m}")
        self.n = int(n)
        self._coordinate = x_basis is None
        if x_basis is None:
            self.x_n = Subspace.coordinate(self.m, n)
        else:
            self.x_n = x_basis if isinstance(x_basis, Subspace) else Subspace(
                np.asarray(x_basis, dtype=float))
            if self.x_n.ambient_dim != self.m:
                raise ValueError("x_basis ambient dimension does not match t")
        self.factor = factor
        self.rank, self.kernel = factor.rank, factor.kernel
        self.kernel_dim = self.kernel.dim

    @property
    def t(self) -> np.ndarray:
        """The factor's dense m x m T, formed on first read when the factor
        holds T's structured products; no diagnostic reads it."""
        return self.factor.t

    @property
    def t_pinv(self) -> np.ndarray:
        """The factor's dense m x m T^+, pinv_apply(I), formed on first read."""
        return self.factor.t_pinv

    def tn(self) -> np.ndarray:
        """The approximating operator T P_{X_n}, built on demand."""
        return self.t @ projector(self.x_n)

    @cached_property
    def txn_svd(self) -> tuple[SvdResult, int]:
        """SVD of T X_n and its rank r, the count of its singular values
        above the factor's cutoff, the one T's rank was decided at. The
        kernel core N(T) & X_n lies in N(T), so a row whose dim X_n - r
        exceeds dim N(T) raises ArithmeticError on every route (RankToleranceError
        if the rule's default cutoff, 10 m eps sigma_max, keeps it). On an SVD
        route only roundoff across the cutoff can do that; on an inverted
        factor, whose N(T) is {0} by the family's certificate, any singular
        value of T X_n at or under the cutoff does.

        When rho = rank T >= dim X_n (every inverted factor, and du but at
        n = m) it is the thin SVD of the m x dim X_n matrix T X_n itself,
        nothing dropped, read off the factor's products: T's first n
        columns for a coordinate X_n, with no product, else T X_n. When
        rho < dim X_n it is the thin SVD P S V^T of Z = (U_rho^T T) X_n,
        rho x dim X_n, the factor's ut_rho's first n columns for a
        coordinate X_n, else (X_n^T (T^T U_rho))^T, ut_rho^T read through
        X_n's coords (O(m rho^2) through best-lpa's rho = 12 reflectors,
        where forming X_n's basis costs O(m^2 rho)), with u = U_rho P, so
        vt is rho x dim X_n, not square. A row reads only V_r = vt[:r]:
        kernel_gap projects V_r out rather than reading its complement,
        which the oracle kernel_core completes itself. No row forms the
        m x m x dim X_n product T X_n, nor a dim X_n x dim X_n V. What Z
        drops, (I - U_rho U_rho^T) T X_n, has norm at most
        sigma_{rho+1}(T) <= cutoff, so Z is T X_n for the rank-rho T that
        the factor decided. A coordinate X_n is applied as a column slice,
        so exact zeros of T X_n stay exact: a zero column of T is a zero
        column of U_rho^T T.
        """
        f, k = self.factor, self.x_n.dim
        n = self.n if self._coordinate else None
        if f.rank >= k:
            txn = f.products.columns(n) if n else f.products.times(self.x_n.basis)
            res = svd(txn, full_matrices=False)
        else:
            z = svd(f.ut_rho[:, :n] if n else self.x_n.coords(f.ut_rho.T).T, full_matrices=False)
            res = SvdResult(u=f.u_rho.apply(z.u), singular_values=z.singular_values, vt=z.vt)
        r = rank_cutoff(res.singular_values, (self.m, k), 1.0, f.cutoff)[0]
        if k - r > f.kernel.dim:
            msg = (f"T X_n has {k - r} singular values at or under the cutoff "
                   f"{f.cutoff:.3e}, more than dim N(T) = {f.kernel.dim}")
            c = rank_cutoff((), (self.m, self.m), None, f.sigma_max)[1]
            if f.rank_tol is not None and k - np.sum(res.singular_values > c) <= f.kernel.dim:
                raise RankToleranceError(f"{msg}; the default cutoff {c:.3e} keeps it")
            raise ArithmeticError(msg)
        return res, r

    @cached_property
    def tt_ur(self) -> np.ndarray:
        """T^T U_r, m x r, U_r the r left singular vectors txn_svd kept, read
        off the factor's products once per row: the T^*T(X_n) image, the
        Q_n route and norm_tn_dag_t all read this one array."""
        res, r = self.txn_svd
        return self.factor.products.t_times(res.u[:, :r])

    @cached_property
    def tn_pinv(self) -> np.ndarray:
        """T_n^+ as a dense m x m matrix, _tn_pinv_times(I). The diagnostics
        apply T_n^+ without it."""
        return _tn_pinv_times(self, np.eye(self.m))

    @property
    def kernel_core_dim(self) -> int:
        """dim (N(T) & X_n) = dim X_n - r."""
        return self.x_n.dim - self.txn_svd[1]

    @cached_property
    def kernel_gap(self) -> float:
        """gap(kernel_core(self), N(T)): 1 for unequal dimensions, else
        ||A - (A V_r^T) V_r||, A = R^T X_n, R the row space of T, a
        rho x dim X_n norm. The core's basis is X_n W, W an orthonormal
        basis of V_r's complement, and I - P_K = P_R (K and R come from one
        orthogonal V), so the gap is ||A W|| = ||A (I - V_r^T V_r)||: one
        formula whether txn_svd's V is square or thin, reading only V_r.
        A is formed from the narrower basis: R^T X_n, X_n's basis read by R,
        for a coordinate X_n (du's at n = m, so that du's reflector forms no
        basis) or one no wider than R; else (X_n^T R)^T, R's rho columns
        read by X_n (best-lpa's 12 against its m - 12 + n)."""
        if self.kernel_core_dim != self.kernel_dim:
            return 1.0
        if self.kernel_core_dim == 0:
            return 0.0
        res, r = self.txn_svd
        row, x = self.factor.rowspace, self.x_n
        a = row.coords(x.basis) if self._coordinate or x.dim <= row.dim else x.coords(row.basis).T
        v_r = res.vt[:r]
        return float(np.linalg.norm(a - (a @ v_r.T) @ v_r, 2))

    def images(self) -> tuple[Subspace, Subspace]:
        """T^+T(X_n) = span(P_row X_n V_r) and T^*T(X_n) = span(T^T U_r), from
        the r singular vectors txn_svd kept, each orthonormalized by one QR:
        no further rank decision, so both have dimension r. T^+T is applied
        as the row-space projector, which does not amplify roundoff in
        kernel directions, and skipped when rho = m, where the row space is
        R^m. T^T U_r is the instance's tt_ur. Formed on each call, not
        kept: offset_sines takes their gap and drops both before the Q_n
        route runs."""
        res, r = self.txn_svd
        row_image = self.x_n.apply(res.vt[:r].T)
        if self.rank < self.m:
            row_image = self.factor.rowspace.project(row_image)
        return Subspace(np.linalg.qr(row_image)[0]), Subspace(np.linalg.qr(self.tt_ur)[0])

    @cached_property
    def offset_sines(self) -> tuple[float, float]:
        """sin theta_n by the gap route, the gap between the two images, and
        by the oblique-projector route, tan / hypot(1, tan) (_tan_theta_qn).
        They share only txn_svd's U_r and T^T U_r; only the Q_n route applies
        T^+. Neither cancels at a zero angle, so both read one at roundoff
        where T^+ U_r is accurate; where it is not, the Q_n route carries that
        error. At a zero angle, n = 1, 2 and m <= 40, best-lpa with
        kernel_dim 2 and sigmas [1, 1e-12] reads at most 1.3e-4 to 5.1e-4 over
        seeds 0-7, route_disagreement firing on 2 to 18 of those 74 rows;
        with sigmas [1, 1e-3, 1e-6, 1e-9], 1.4e-7 to 7.5e-7, under route_warn.
        That is on the model's factor (shared_factors); on LAPACK's,
        TruncationFactor(t), 1.0e-4 to 3.8e-4 (1 to 18 rows) and 1.4e-7 to 6.1e-7."""
        sin_gap = gap(*self.images())
        tan = _tan_theta_qn(self)
        return sin_gap, tan / math.hypot(1.0, tan)


def make_lpa(family: OperatorFamily, n: int, m: int,
             factor: TruncationFactor | None = None) -> LpaInstance:
    """Instance at subspace index n and ambient truncation m.

    Uses the family's own approximation subspaces when it defines them,
    coordinate subspaces otherwise. factor, when given, is the family's
    truncation at m already factored (see shared_factors), the one path by
    which a rank_tol reaches the instance; otherwise it is shared_factors'
    default.
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
    """T_n^+ v = X_n V_r Sigma_r^{-1} (U_r^T v) at txn_svd's rank r, for a
    vector or a matrix's columns: O(m r) per column past X_n's own product,
    with no m x m T_n^+."""
    res, r = inst.txn_svd
    return inst.x_n.apply(res.vt[:r].T @ ((res.u[:, :r].T @ v).T / res.singular_values[:r]).T)


def _tan_theta_qn(inst: LpaInstance) -> float:
    """tan theta_n = ||Q_n - P_R||, R = ran Q_n, as the r x r ||R_A R_C^T||,
    for Q_n = A B^T with A = T^+ U_r and B = T^T U_r (inst.tt_ur), U_r the
    r left singular vectors txn_svd kept, an orthonormal basis of T(X_n).
    In R + R^perp, Q_n = [[I, K], [0, 0]] with K = Q_n - P_R, so ||Q_n||^2 =
    1 + ||K||^2 = 1/cos^2 theta_n (Szyld, Numer. Algorithms 2006). With
    A = Q_A R_A, B^T A = I gives Q_A^T B = R_A^{-T}, so K = Q_A R_A C^T for
    C = (I - Q_A Q_A^T) B, projected twice, = Q_C R_C. 0 when r = 0."""
    res, r = inst.txn_svd
    if not r:
        return 0.0
    q_a, r_a = np.linalg.qr(inst.factor.pinv_apply(res.u[:, :r]))
    b = inst.tt_ur
    c = b - q_a @ (q_a.T @ b)
    c -= q_a @ (q_a.T @ c)
    return float(np.linalg.norm(r_a @ np.linalg.qr(c, mode="r").T, 2))


class OffsetAngle(NamedTuple):
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
    the ambient space: X_n W, W the last dim X_n - r columns of the Q of a
    QR of V_r^T, an orthonormal basis of the complement of txn_svd's V_r,
    which may be thin. For T numerically zero the core is all of X_n. The
    diagnostics read only its dimension and gap (inst.kernel_core_dim,
    inst.kernel_gap); this m x (dim X_n - r) basis is their dense oracle.
    """
    res, r = inst.txn_svd
    w = Reflector.from_raw_qr(*np.linalg.qr(res.vt[:r].T, mode="raw")).split(r)[1]
    return Subspace(inst.x_n.apply(w.basis))


def norm_tn_dag_t(inst: LpaInstance) -> float:
    """||T_n^+ T||, as the r x m norm ||Sigma_r^{-1} U_r^T T||.

    T_n^+ = (X_n V_r) Sigma_r^{-1} U_r^T from the thin SVD of T X_n, and
    X_n V_r has orthonormal columns, so it drops out of the norm. r is
    txn_svd's rank, the one the kernel core and both images use.
    U_r^T T = (T^T U_r)^T is the instance's tt_ur, transposed.
    """
    res, r = inst.txn_svd
    return float(np.linalg.norm(inst.tt_ur.T / res.singular_values[:r, None], 2))


class LpaDiagnostics(NamedTuple):
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


class CheckReport(NamedTuple):
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
    identity_rel * (1 + ||T^+ y||). T w is read off the factor's products.
    """
    y = as_vector(y)
    tp_y = inst.factor.pinv_apply(y)
    lhs = tn_pinv_apply(inst, y) - tp_y
    w = tp_y - inst.x_n.project(tp_y)
    rhs = _tn_pinv_times(inst, inst.factor.products.times(w)) - w
    diff = float(np.linalg.norm(lhs - rhs))
    tol = tolerances.identity_rel * (1.0 + float(np.linalg.norm(tp_y)))
    return CheckReport(lhs=float(np.linalg.norm(lhs)), rhs=float(np.linalg.norm(rhs)),
                       diff=diff, tol=tol, passed=diff <= tol)


class BoundCheck(NamedTuple):
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


class ZeroOffsetReport(NamedTuple):
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
    stacked = np.hstack([inst.images()[1].basis, inst.kernel.basis])
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


class DuDivergenceRow(NamedTuple):
    n: int
    m: int
    coefficient: float
    coefficient_closed: float
    solution_norm: float
    divergence_gap: float


class DuDivergenceReport(NamedTuple):
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

    c_n is recovered from x = T_n^+ y as <P_n y - x, P_n e> / ||P_n e||^2,
    held to its closed form within 1e-9 and x to P_n y - c_n P_n e within
    1e-9 ||x||. n_max is capped at 20: c_n is within 3.3e-12 of the closed
    form through n = 20, but 1.8e-9 off it at n = 27.
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
        inst = make_lpa(family, n, m, factor(m))
        x = tn_pinv_apply(inst, y)
        p_y, p_e = inst.x_n.project(y), inst.x_n.project(du_vector_e(m))
        coef = float(np.dot(p_y - x, p_e) / np.dot(p_e, p_e))
        closed = 1.0 - (3.0 / 7.0) * 2.0 ** (-n)
        sol_norm = float(np.linalg.norm(x))
        residual = float(np.linalg.norm(p_y - coef * p_e - x))
        div_gap = float(np.linalg.norm(x - inst.factor.pinv_apply(y)))
        rows.append(DuDivergenceRow(
            n=n, m=m, coefficient=coef, coefficient_closed=closed,
            solution_norm=sol_norm, divergence_gap=div_gap,
        ))
        if abs(coef - closed) > 1e-9 or residual > 1e-9 * sol_norm or sol_norm > cap:
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


class CoerciveRow(NamedTuple):
    n: int
    bound_factor: float


class CoerciveReport(NamedTuple):
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
    t_factor = TruncationFactor(t)
    for n in n_list:
        factor = _bound_factor(LpaInstance(t_factor, n).offset_sines[0])
        rows.append(CoerciveRow(n=n, bound_factor=factor))
        if not factor <= limit + tol:
            passed = False
    return CoerciveReport(rows=tuple(rows), alpha=alpha, beta=beta,
                          limit=limit, passed=passed)
