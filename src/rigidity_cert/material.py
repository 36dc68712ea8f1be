"""Stored-energy models, their moduli at the identity, and their proved
Taylor bounds.

A material is homogeneous: it evaluates, at a deformation gradient F with
det F > 0:

    energy     W(F)                     scalar, W(I) = 0
    stress     S(F) = dW/dF             n x n
    elasticity A(F) = d2W/dF2           applied to directions H

Batched entry points take stacked gradients (k, n, n).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DeterminantViolation, DimensionMismatch, SetEscapesDomain
from .tensor_core import frob

__all__ = [
    "Material",
    "StVenantKirchhoff",
    "NeoHookean",
    "stvk",
    "neo_hookean",
    "identity_floor",
    "sym_basis",
]


def _check_batch(F):
    F = np.asarray(F, dtype=float)
    if F.ndim != 3 or F.shape[1] != F.shape[2] or F.shape[1] not in (2, 3):
        raise DimensionMismatch(f"expected stacked square gradients, got {F.shape}")
    return F


class Material:
    """Base interface; concrete models fill in the batched evaluators."""

    name = "material"

    def __init__(self, lam, mu):
        self.lam = float(lam)
        self.mu = float(mu)

    def at_points(self, rows):
        """The material on the rows (a slice) of the stacked points it is
        evaluated on: itself, as it reads only F.  A material tied to a
        mesh's quadrature points keeps those rows of them."""
        return self

    # stacked evaluators, implemented by subclasses
    def energy_many(self, F):
        raise NotImplementedError

    def stress_many(self, F):
        raise NotImplementedError

    def elasticity_many(self, F):
        """Stacked fourth-order tensors A[i, a, j, b] = dS_ia / dF_jb."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"model": self.name, "lambda": self.lam, "mu": self.mu}

    def taylor_bounds(self, n, rho, epsilon, s_max=1.0, det=1.0):
        """Proved Taylor constants (c, c_hat) of W on the set the gate
        admits in n dimensions: base gradients X with dist(X, SO(n)) <= rho
        and steps |H| <= epsilon (see the comment above StVenantKirchhoff).

        s_max and det describe a forward gradient F, |F|_op <= s_max and
        det F = det: the bounds are then those of the pushforward
        W(X F) / det F in X.  The defaults, F = I, give W's own.  Arrays
        of s_max and det give arrays of bounds, one per point.  Unless
        rho and epsilon are >= 0 with rho + epsilon < 1, a segment may
        reach det = 0, and SetEscapesDomain is raised.
        """
        if not (rho >= 0.0 and epsilon >= 0.0 and rho + epsilon < 1.0):
            raise SetEscapesDomain(
                f"rho = {rho:g}, epsilon = {epsilon:g}: the set reaches det F <= 0"
            )
        return self._taylor_bounds(n, rho, epsilon, s_max, det)

    def _taylor_bounds(self, n, rho, epsilon, s_max, det):
        raise NotImplementedError(f"{self.name} has no closed-form Taylor bounds")


def _point_major(F):
    """(n, n, k) C-ordered copy of a (k, n, n) stack: entry (i, j) of every
    point is one contiguous row, whatever layout F arrives in."""
    return np.ascontiguousarray(np.moveaxis(F, 0, -1))


def _stacked(X):
    """(k, ...) C-ordered stack of a point-major (..., k) array, plus 0.0.

    An einsum accumulates onto zeros, so it never returns -0.0; adding 0.0
    turns the -0.0 entries of a point-major kernel into +0.0 as well.
    """
    out = np.empty((X.shape[-1],) + X.shape[:-1])
    return np.add(np.moveaxis(X, -1, 0), 0.0, out=out)


# ------------------------------------------------------------ Taylor bounds
#
# The gate admits a base gradient X with dist(X, SO(n)) <= rho and a step
# H with |H| <= epsilon, in Frobenius norms.  A perturbation moves each
# singular value by at most its operator norm (Weyl), and |.|_op <= |.|,
# so on the segment X + tH, t in [0, 1], the singular values stay in
# [1 - rho - t epsilon, 1 + rho + t epsilon], and rho + epsilon < 1 keeps
# det > 0 there.  Also |X| <= |R| + |X - R| <= sqrt(n) + rho for the
# nearest rotation R.  Two constants are proved on that set:
#
#     c      |W(X + H) - W(X) - S(X):H - A(X)[H]:H / 2| <= c |H|^3
#     c_hat  |K:(A(X + H) - A(X))[K]| <= c_hat |H| |K|^2   for every K
#
# With T(Y) = D^3 W(Y), the remainder is int_0^1 (1 - t)^2 / 2
# T(X + tH)[H, H, H] dt and the difference int_0^1 T(X + tH)[H, K, K] dt.
# T(Y) is a symmetric trilinear form, and on a Hilbert space such a form
# has the norm of its diagonal (Banach): |T[H, K, K]| <= sup_|L|=1
# |T[L, L, L]| |H| |K|^2.  So c_hat bounds the operator norm of
# A(X + H) - A(X), not only its value along one direction.
#
# The pushforward W(X F) / det F of a forward gradient F has third
# derivative T(X F)[H F, H F, H F] / det F, and |H F| <= |H| |F|_op, so it
# is bounded through |F|_op^3 / det F with X F and H F in place of X and
# H.  The operator norm matters: |F|^3 in Frobenius overstates it by up to
# n^(3/2).


class StVenantKirchhoff(Material):
    """W = lam/2 (tr E)^2 + mu E:E with E = (F^T F - I)/2.

    The batched evaluators are point-major: each works on (n, n, k) copies
    of the stack, so every numpy operation runs along the k points, and
    each contraction is written out as the sum, in the order, of the
    einsum it replaces (tests/oracles.py keeps those einsums), so that
    every value is bitwise the einsum's.  Python's sum starts from 0, as
    an einsum's accumulator does.
    """

    name = "stvk"

    @staticmethod
    def _strain(Fp):
        """E = (F^T F - I) / 2 and tr E of a point-major stack."""
        n = Fp.shape[0]
        # kji,kjl->kil: left to right over j
        E = 0.5 * (sum(Fp[j, :, None] * Fp[j, None, :] for j in range(n)) - np.eye(n)[..., None])
        return E, sum(E[i, i] for i in range(n))

    def _inner(self, E, trE):
        """lam tr E I + 2 mu E, point-major."""
        return self.lam * trE * np.eye(E.shape[0])[..., None] + 2.0 * self.mu * E

    def energy_many(self, F):
        F = _check_batch(F)
        E, trE = self._strain(_point_major(F))
        # kij,kij->k over the n^2 entries in the order of the einsum's
        # two-lane SIMD loop: even entries in one lane, odd in the other;
        # a block of 8 entries goes in back to front, the rest pair by
        # pair, and the two lanes are added last
        p = (E * E).reshape(E.shape[0] ** 2, E.shape[-1])
        if len(p) == 4:
            EE = (p[0] + p[2]) + (p[1] + p[3])
        else:
            EE = (p[8] + (p[0] + (p[2] + (p[4] + p[6])))) + (p[1] + (p[3] + (p[5] + p[7])))
        return 0.5 * self.lam * trE**2 + self.mu * EE

    def stress_many(self, F):
        F = _check_batch(F)
        Fp = _point_major(F)
        inner = self._inner(*self._strain(Fp))
        # kip,kpa->kia: left to right over p
        return _stacked(sum(Fp[:, p, None] * inner[None, p] for p in range(len(Fp))))

    def elasticity_many(self, F):
        F = _check_batch(F)
        Fp = _point_major(F)
        n = len(Fp)
        eye = np.eye(n)
        inner = self._inner(*self._strain(Fp))
        # F F^T, kip,kjp->kij: the einsum's two SIMD lanes hold p = 0, 2
        # and p = 1, so 3D sums (p0 + p2) + p1
        FFt = [Fp[:, None, p] * Fp[None, :, p] for p in range(n)]
        B = FFt[0] + FFt[1] if n == 2 else (FFt[0] + FFt[2]) + FFt[1]
        Ft = Fp.swapaxes(0, 1)
        # A[i, a, j, b] = I_ij inner_ba + lam F_ia F_jb + mu (F_ib F_ja + I_ab B_ij),
        # each term a single product over axes (i, a, j, b, k)
        A = eye[:, None, :, None, None] * inner.swapaxes(0, 1)[None, :, None]
        A = A + self.lam * (Fp[:, :, None, None] * Fp[None, None])
        A = A + self.mu * (Fp[:, None, None] * Ft[None, :, :, None]
                           + eye[None, :, None, :, None] * B[:, None, :, None])
        return _stacked(A)

    def _taylor_bounds(self, n, rho, epsilon, s_max, det):
        """With Y = X F and K = H F, E(Y + K) = E(Y) + a + b for
        a = sym(Y^T K) and b = K^T K / 2, so W is a quartic along the
        segment and its remainder is exactly

            lam (tr a tr b + (tr b)^2 / 2) + mu (2 a:b + |b|^2),

        with tr a = Y:K, tr b = |K|^2 / 2, |b| <= |K|^2 / 2 and
        2 a:b = <Y, K K^T K> <= |Y|_op |K|^3 (the nuclear norm of K K^T K
        is the sum of sigma_i^3, at most |K|^3).  |Y| <= (sqrt(n) + rho)
        s_max, |Y|_op <= (1 + rho) s_max and |K| <= epsilon s_max give c.
        T(Y)[K, K, K] = 3 lam (Y:K) |K|^2 + 6 mu <Y, K K^T K> is linear in
        Y, so the difference of A is T at the segment's midpoint
        (X + H/2) F, of norms at most (sqrt(n) + rho + epsilon/2) s_max
        and (1 + rho + epsilon/2) s_max: that gives c_hat.  Both carry the
        factor |F|_op^3 / det F.
        """
        lam, mu = self.lam, self.mu
        scale = s_max**4 / det
        c = lam * (math.sqrt(n) + rho) / 2.0 + mu * (1.0 + rho) + (lam / 8.0 + mu / 4.0) * epsilon
        mid = 0.5 * epsilon
        c_hat = 3.0 * lam * (math.sqrt(n) + rho + mid) + 6.0 * mu * (1.0 + rho + mid)
        return c * scale, c_hat * scale


class NeoHookean(Material):
    """W = mu/2 (tr C - n) - mu log J + lam/2 (log J)^2, J = det F."""

    name = "neo-hookean"

    @staticmethod
    def _logdet(F):
        J = np.linalg.det(F)
        if np.any(J <= 0.0):
            raise DeterminantViolation("neo-hookean: det F <= 0 at an evaluation point")
        return J, np.log(J)

    def energy_many(self, F):
        F = _check_batch(F)
        n = F.shape[1]
        _, logJ = self._logdet(F)
        trC = np.einsum("kij,kij->k", F, F)
        return 0.5 * self.mu * (trC - n) - self.mu * logJ + 0.5 * self.lam * logJ**2

    def stress_many(self, F):
        F = _check_batch(F)
        _, logJ = self._logdet(F)
        Fit = np.transpose(np.linalg.inv(F), (0, 2, 1))
        return self.mu * (F - Fit) + (self.lam * logJ)[:, None, None] * Fit

    def elasticity_many(self, F):
        F = _check_batch(F)
        n = F.shape[1]
        _, logJ = self._logdet(F)
        Fit = np.transpose(np.linalg.inv(F), (0, 2, 1))
        eye = np.eye(n)
        A = self.mu * np.einsum("ij,ab->iajb", eye, eye)
        A = A + (self.mu - self.lam * logJ)[:, None, None, None, None] * np.einsum(
            "kib,kja->kiajb", Fit, Fit
        )
        A = A + self.lam * np.einsum("kia,kjb->kiajb", Fit, Fit)
        return A

    def _taylor_bounds(self, n, rho, epsilon, s_max, det):
        """Along Y + tK, with M = Y^-1 K, the derivatives of log J are
        tr M, -tr M^2 and 2 tr M^3, and |F|^2 / 2 is quadratic, so

            T(Y)[K, K, K] = 2 (lam log J - mu) tr M^3 - 3 lam tr M tr M^2.

        For Y = X F and K = H F, M = F^-1 (X^-1 H) F has the traces of
        N = X^-1 H, and |tr N^3| <= |N|^3, |tr N| |tr N^2| <= sqrt(n) |N|^3
        (eigenvalue moduli are majorized by singular values, Weyl), with
        |N| <= |H| / sigma_min(X).  On the segment log det X lies in
        [n log(1 - rho - epsilon), n log(1 + rho + epsilon)] and log J =
        log det X + log det F, so |T| <= k |H|^3 / (sigma_min(X)^3 det F),
        k = 2 max |lam log J - mu| + 3 sqrt(n) lam: the pushforward needs
        no norm of F.  sigma_min(X + tH) >= a - t epsilon with a = 1 - rho,
        and 1 / (a - t epsilon)^3 is convex in t, so at most (1 - t) / a^3
        + t / b^3 with b = a - epsilon: the remainder integral gives c = k
        (1 / (8 a^3) + 1 / (24 b^3)) / det F, and the exact int_0^1
        (a - t epsilon)^-3 dt = (a + b) / (2 a^2 b^2) gives c_hat.
        """
        lam, mu = self.lam, self.mu
        a, r = 1.0 - rho, rho + epsilon
        b = a - epsilon
        log_det = np.log(det)
        worst = np.maximum(np.abs(lam * (n * math.log(1.0 - r) + log_det) - mu),
                           np.abs(lam * (n * math.log(1.0 + r) + log_det) - mu))
        k = (2.0 * worst + 3.0 * math.sqrt(n) * lam) / det
        return k * (1.0 / (8.0 * a**3) + 1.0 / (24.0 * b**3)), k * (a + b) / (2.0 * a**2 * b**2)


def stvk(lam=1.0, mu=1.0) -> StVenantKirchhoff:
    return StVenantKirchhoff(lam, mu)


def neo_hookean(lam=1.0, mu=1.0) -> NeoHookean:
    return NeoHookean(lam, mu)


# ------------------------------------------------------ moduli at the identity

def sym_basis(n):
    """Frobenius-orthonormal basis of symmetric n x n matrices."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2.0)
            basis.append(e)
    return basis


def _skew_basis(n):
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0 / math.sqrt(2.0)
            e[j, i] = -e[i, j]
            basis.append(e)
    return basis


def identity_floor(m: Material, n: int):
    """The reference moduli of m at F = I, as the small-strain certificate
    reads them: (|S(I)|, floor, skew_err).

    floor is the least eigenvalue of A(I) on the orthonormal basis
    sym_basis(n), over 4, and skew_err the largest |A(I)[K]| over an
    orthonormal basis of skew K.  A(I) is symmetric, as a second
    derivative, so when it annihilates the skew directions
    A(I)[H]:H = A(I)[sym H]:sym H and |H + H^T|^2 =
    4 |sym H|^2, so floor is exactly the best c with
    A(I)[H]:H >= c |H + H^T|^2 for all H.
    """
    I = np.eye(n)[None]
    free_err = frob(m.stress_many(I)[0])
    A = m.elasticity_many(I)[0]
    basis = sym_basis(n)
    Q = np.array([[np.sum(bi * np.einsum("iajb,jb->ia", A, bj)) for bj in basis] for bi in basis])
    floor = float(np.linalg.eigvalsh(0.5 * (Q + Q.T)).min()) / 4.0
    skew_err = max(frob(np.einsum("iajb,jb->ia", A, K)) for K in _skew_basis(n))
    return free_err, floor, skew_err
