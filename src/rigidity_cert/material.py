"""Stored-energy models and their derivative checks.

A material evaluates, at a spatial point x and deformation gradient F with
det F > 0:

    energy     W(x, F)                     scalar, W(x, I) = 0
    stress     S(x, F) = dW/dF             n x n
    elasticity A(x, F) = d2W/dF2           applied to directions H

Batched entry points take stacked coordinates (k, n) and gradients
(k, n, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckFailed, DimensionMismatch, OutsideDomain, SetEscapesDomain
from .tensor_core import frob, frob_many, random_rotation, rotations

__all__ = [
    "Material",
    "StVenantKirchhoff",
    "NeoHookean",
    "CustomMaterial",
    "stvk",
    "neo_hookean",
    "quadratic_toy",
    "check_constitutive",
    "ConstitutiveReport",
    "TaylorConstants",
    "TaylorDraws",
    "taylor_draws",
    "taylor_constants",
    "sym_basis",
]


def _check_batch(coords, F):
    F = np.asarray(F, dtype=float)
    if F.ndim != 3 or F.shape[1] != F.shape[2] or F.shape[1] not in (2, 3):
        raise DimensionMismatch(f"expected stacked square gradients, got {F.shape}")
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (F.shape[0], F.shape[1]):
            raise DimensionMismatch(
                f"coords shape {coords.shape} does not match gradients {F.shape}"
            )
    return coords, F


class Material:
    """Base interface; concrete models fill in the batched evaluators."""

    name = "material"
    frame_indifferent = True
    has_sigma_form = False

    def __init__(self, lam, mu):
        self.lam = float(lam)
        self.mu = float(mu)

    def _moduli(self, k):
        return np.full(k, self.lam), np.full(k, self.mu)

    def at_points(self, rows):
        """The material on the rows (a slice) of the stacked points it is
        evaluated on: itself, as it reads only (x, F).  A material tied to
        a mesh's quadrature points keeps those rows of them."""
        return self

    # stacked evaluators, implemented by subclasses
    def energy_many(self, coords, F):
        raise NotImplementedError

    def stress_many(self, coords, F):
        raise NotImplementedError

    def elasticity_many(self, coords, F):
        """Stacked fourth-order tensors A[i, a, j, b] = dS_ia / dF_jb."""
        raise NotImplementedError

    # optional representation through sigma(C) with S = 2 F Dsigma(C)
    def dsigma_many(self, coords, C):
        raise NotImplementedError

    def d2sigma_apply_many(self, coords, C, B):
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"model": self.name, "lambda": self.lam, "mu": self.mu}


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
    has_sigma_form = True

    @staticmethod
    def _strain(Fp):
        """E = (F^T F - I) / 2 and tr E of a point-major stack."""
        n = Fp.shape[0]
        # kji,kjl->kil: left to right over j
        E = 0.5 * (sum(Fp[j, :, None] * Fp[j, None, :] for j in range(n)) - np.eye(n)[..., None])
        return E, sum(E[i, i] for i in range(n))

    @staticmethod
    def _inner(lam, mu, E, trE):
        """lam tr E I + 2 mu E, point-major."""
        return lam * trE * np.eye(E.shape[0])[..., None] + 2.0 * mu * E

    def energy_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        lam, mu = self._moduli(F.shape[0])
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
        return 0.5 * lam * trE**2 + mu * EE

    def stress_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        lam, mu = self._moduli(F.shape[0])
        Fp = _point_major(F)
        inner = self._inner(lam, mu, *self._strain(Fp))
        # kip,kpa->kia: left to right over p
        return _stacked(sum(Fp[:, p, None] * inner[None, p] for p in range(len(Fp))))

    def elasticity_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        lam, mu = self._moduli(F.shape[0])
        Fp = _point_major(F)
        n = len(Fp)
        eye = np.eye(n)
        inner = self._inner(lam, mu, *self._strain(Fp))
        # F F^T, kip,kjp->kij: the einsum's two SIMD lanes hold p = 0, 2
        # and p = 1, so 3D sums (p0 + p2) + p1
        FFt = [Fp[:, None, p] * Fp[None, :, p] for p in range(n)]
        B = FFt[0] + FFt[1] if n == 2 else (FFt[0] + FFt[2]) + FFt[1]
        Ft = Fp.swapaxes(0, 1)
        # A[i, a, j, b] = I_ij inner_ba + lam F_ia F_jb + mu (F_ib F_ja + I_ab B_ij),
        # each term a single product over axes (i, a, j, b, k)
        A = eye[:, None, :, None, None] * inner.swapaxes(0, 1)[None, :, None]
        A = A + lam * (Fp[:, :, None, None] * Fp[None, None])
        A = A + mu * (Fp[:, None, None] * Ft[None, :, :, None]
                      + eye[None, :, None, :, None] * B[:, None, :, None])
        return _stacked(A)

    def dsigma_many(self, coords, C):
        coords, C = _check_batch(coords, C)
        lam, mu = self._moduli(C.shape[0])
        n = C.shape[1]
        trC = np.trace(C, axis1=1, axis2=2)
        return (
            0.25 * lam[:, None, None] * (trC - n)[:, None, None] * np.eye(n)
            + 0.5 * mu[:, None, None] * (C - np.eye(n))
        )

    def d2sigma_apply_many(self, coords, C, B):
        coords, C = _check_batch(coords, C)
        lam, mu = self._moduli(C.shape[0])
        trB = np.trace(B, axis1=1, axis2=2)
        return 0.25 * lam[:, None, None] * trB[:, None, None] * np.eye(C.shape[1]) + 0.5 * mu[
            :, None, None
        ] * B


class NeoHookean(Material):
    """W = mu/2 (tr C - n) - mu log J + lam/2 (log J)^2, J = det F."""

    name = "neo-hookean"
    has_sigma_form = True

    @staticmethod
    def _logdet(F):
        J = np.linalg.det(F)
        if np.any(J <= 0.0):
            raise OutsideDomain("neo-hookean: det F <= 0 at an evaluation point")
        return J, np.log(J)

    def energy_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        lam, mu = self._moduli(F.shape[0])
        n = F.shape[1]
        _, logJ = self._logdet(F)
        trC = np.einsum("kij,kij->k", F, F)
        return 0.5 * mu * (trC - n) - mu * logJ + 0.5 * lam * logJ**2

    def stress_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        lam, mu = self._moduli(F.shape[0])
        _, logJ = self._logdet(F)
        Fit = np.transpose(np.linalg.inv(F), (0, 2, 1))
        return mu[:, None, None] * (F - Fit) + (lam * logJ)[:, None, None] * Fit

    def elasticity_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        lam, mu = self._moduli(F.shape[0])
        n = F.shape[1]
        _, logJ = self._logdet(F)
        Fit = np.transpose(np.linalg.inv(F), (0, 2, 1))
        eye = np.eye(n)
        A = np.einsum("ij,ab,k->kiajb", eye, eye, mu)
        A = A + (mu - lam * logJ)[:, None, None, None, None] * np.einsum(
            "kib,kja->kiajb", Fit, Fit
        )
        A = A + lam[:, None, None, None, None] * np.einsum("kia,kjb->kiajb", Fit, Fit)
        return A

    def dsigma_many(self, coords, C):
        coords, C = _check_batch(coords, C)
        lam, mu = self._moduli(C.shape[0])
        detC = np.linalg.det(C)
        if np.any(detC <= 0.0):
            raise OutsideDomain("neo-hookean: det C <= 0")
        Cinv = np.linalg.inv(C)
        n = C.shape[1]
        return 0.5 * mu[:, None, None] * (np.eye(n) - Cinv) + 0.25 * (
            lam * np.log(detC)
        )[:, None, None] * Cinv

    def d2sigma_apply_many(self, coords, C, B):
        coords, C = _check_batch(coords, C)
        lam, mu = self._moduli(C.shape[0])
        detC = np.linalg.det(C)
        Cinv = np.linalg.inv(C)
        CBC = np.einsum("kip,kpq,kqj->kij", Cinv, B, Cinv)
        trCB = np.einsum("kpq,kqp->k", Cinv, B)
        return (
            0.5 * mu[:, None, None] * CBC
            + 0.25 * lam[:, None, None] * (trCB[:, None, None] * Cinv - np.log(detC)[:, None, None] * CBC)
        )


class CustomMaterial(Material):
    """User-supplied energy with optional closed-form derivatives.

    Missing derivatives fall back to central differences with step
    h = 1e-6 (1 + |F|).  The energy carries its own moduli, so the
    descriptor reports lambda and mu as 0.0.
    """

    has_sigma_form = False

    def __init__(self, name, energy_fn, stress_fn=None, elasticity_fn=None,
                 frame_indifferent=False):
        super().__init__(0.0, 0.0)
        self.name = name
        self._energy_fn = energy_fn
        self._stress_fn = stress_fn
        self._elasticity_fn = elasticity_fn
        self.frame_indifferent = frame_indifferent

    def energy_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        xs = coords if coords is not None else [None] * F.shape[0]
        return np.array([self._energy_fn(x, f) for x, f in zip(xs, F)], dtype=float)

    def _fd_stress(self, x, F):
        h = 1e-6 * (1.0 + frob(F))
        out = np.zeros_like(F)
        for i in range(F.shape[0]):
            for j in range(F.shape[1]):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                out[i, j] = (self._energy_fn(x, Fp) - self._energy_fn(x, Fm)) / (2 * h)
        return out

    def stress_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        xs = coords if coords is not None else [None] * F.shape[0]
        fn = self._stress_fn or self._fd_stress
        return np.array([fn(x, f) for x, f in zip(xs, F)]).reshape(F.shape)

    def _fd_elasticity(self, x, F):
        n = F.shape[0]
        h = 1e-6 * (1.0 + frob(F))
        stress_fn = self._stress_fn or self._fd_stress
        A = np.zeros((n, n, n, n))
        for j in range(n):
            for b in range(n):
                Fp, Fm = F.copy(), F.copy()
                Fp[j, b] += h
                Fm[j, b] -= h
                A[:, :, j, b] = (stress_fn(x, Fp) - stress_fn(x, Fm)) / (2 * h)
        return A

    def elasticity_many(self, coords, F):
        coords, F = _check_batch(coords, F)
        xs = coords if coords is not None else [None] * F.shape[0]
        fn = self._elasticity_fn or self._fd_elasticity
        return np.array([fn(x, f) for x, f in zip(xs, F)]).reshape(F.shape + F.shape[1:])


def stvk(lam=1.0, mu=1.0) -> StVenantKirchhoff:
    return StVenantKirchhoff(lam, mu)


def neo_hookean(lam=1.0, mu=1.0) -> NeoHookean:
    return NeoHookean(lam, mu)


def quadratic_toy() -> CustomMaterial:
    """W = |F - I|^2 / 2.  Not frame indifferent; useful because its cubic
    Taylor remainder vanishes identically."""

    def energy(x, F):
        d = F - np.eye(F.shape[0])
        return 0.5 * float(np.sum(d * d))

    def stress_fn(x, F):
        return F - np.eye(F.shape[0])

    def elasticity_fn(x, F):
        n = F.shape[0]
        return np.einsum("ij,ab->iajb", np.eye(n), np.eye(n))

    return CustomMaterial("quadratic-toy", energy, stress_fn, elasticity_fn)


# ------------------------------------------------------------- self checks

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


@dataclass(frozen=True)
class ConstitutiveReport:
    frame_indifference_err: float
    sigma_stress_err: float
    sigma_split_err: float
    stress_free_err: float
    shear_floor: float           # best c with A(I)[H]:H >= c |H + H^T|^2
    sigma_floor: float           # best c with B:D2sigma(I)[B] >= c |B|^2
    skew_annihilation_err: float


def _positivity_floors(m, n, coords_one, rng):
    """Exact symmetric-space eigenvalue plus a random cross-check."""
    I = np.eye(n)[None]
    A = m.elasticity_many(coords_one, I)[0]
    basis = sym_basis(n)
    Q = np.array([[np.sum(bi * np.einsum("iajb,jb->ia", A, bj)) for bj in basis] for bi in basis])
    c_sym = float(np.linalg.eigvalsh(0.5 * (Q + Q.T)).min()) / 4.0
    floor = c_sym
    for _ in range(200):
        H = rng.normal(size=(n, n))
        HS = H + H.T
        den = float(np.sum(HS * HS))
        if den < 1e-12:
            continue
        num = float(np.sum(H * np.einsum("iajb,jb->ia", A, H)))
        floor = min(floor, num / den)
    skew_err = max(
        frob(np.einsum("iajb,jb->ia", A, K)) for K in _skew_basis(n)
    )
    return floor, c_sym, skew_err


def check_constitutive(m: Material, n=2, seed=0) -> ConstitutiveReport:
    """Spot check the structural constitutive properties on 50 random states.

    Covers frame indifference of W, the stress and elasticity split through
    sigma(C) (closed form when the model has one, finite differences
    otherwise), the stress-free reference, and the positivity floors of the
    elasticity at the identity.
    """
    rng = np.random.default_rng(seed)
    coords_one = np.zeros((1, n))
    fi_err = 0.0
    sig_s_err = 0.0
    sig_a_err = 0.0

    for _ in range(50):
        s = rng.uniform(0.4, 2.2, size=n)
        F = random_rotation(rng, n) @ np.diag(s) @ random_rotation(rng, n)
        W = float(m.energy_many(coords_one, F[None])[0])
        if m.frame_indifferent:
            Q = random_rotation(rng, n)
            WQ = float(m.energy_many(coords_one, (Q @ F)[None])[0])
            fi_err = max(fi_err, abs(WQ - W) / (1.0 + abs(W)))
        S = m.stress_many(coords_one, F[None])[0]
        H = rng.normal(size=(n, n))
        A_H = np.einsum("iajb,jb->ia", m.elasticity_many(coords_one, F[None])[0], H)
        C = F.T @ F
        B = H.T @ F + F.T @ H
        if m.has_sigma_form:
            Ds = m.dsigma_many(coords_one, C[None])[0]
            D2B = m.d2sigma_apply_many(coords_one, C[None], B[None])[0]
        else:
            h = 1e-6 * (1.0 + frob(C))

            def sigma(Cm):
                ww, VV = np.linalg.eigh(0.5 * (Cm + Cm.T))
                U = (VV * np.sqrt(np.clip(ww, 1e-12, None))) @ VV.T
                return float(m.energy_many(coords_one, U[None])[0])

            Ds = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    Cp, Cm_ = C.copy(), C.copy()
                    Cp[i, j] += h
                    Cm_[i, j] -= h
                    Ds[i, j] = (sigma(Cp) - sigma(Cm_)) / (2 * h)
            Ds = 0.5 * (Ds + Ds.T)
            D2B = None
        scale = 1.0 + frob(S)
        sig_s_err = max(sig_s_err, frob(S - 2.0 * F @ Ds) / scale)
        if D2B is not None:
            lhs = float(np.sum(H * A_H))
            rhs = float(np.sum(B * D2B)) + 2.0 * float(np.sum(Ds * (H.T @ H)))
            sig_a_err = max(sig_a_err, abs(lhs - rhs) / (1.0 + abs(lhs)))

    I = np.eye(n)
    free_err = frob(m.stress_many(coords_one, I[None])[0])
    floor, c_sym, skew_err = _positivity_floors(m, n, coords_one, rng)

    # sigma-level floor: with a stress-free reference the elasticity at I
    # restricted to symmetric directions is 4 D2sigma(I), so the two floors
    # coincide; use the closed form when present as a cross-check
    if m.has_sigma_form:
        basis = sym_basis(n)
        Qs = np.array(
            [
                [
                    float(np.sum(bi * m.d2sigma_apply_many(coords_one, I[None], bj[None])[0]))
                    for bj in basis
                ]
                for bi in basis
            ]
        )
        sigma_floor = float(np.linalg.eigvalsh(0.5 * (Qs + Qs.T)).min())
    else:
        sigma_floor = c_sym

    return ConstitutiveReport(
        frame_indifference_err=fi_err,
        sigma_stress_err=sig_s_err,
        sigma_split_err=sig_a_err,
        stress_free_err=free_err,
        shear_floor=floor,
        sigma_floor=sigma_floor,
        skew_annihilation_err=skew_err,
    )


# --------------------------------------------------------- Taylor constants

@dataclass(frozen=True)
class TaylorConstants:
    """Sampled cubic-remainder and Lipschitz constants on a rotation
    neighborhood of radius delta, fattened in norm by epsilon."""

    c: float
    c_hat: float
    delta: float
    epsilon: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.c < 0 or self.c_hat < 0:
            raise CheckFailed("Taylor constants must be nonnegative")


@dataclass(frozen=True, eq=False)
class TaylorDraws:
    """A seeded sample of the fattened rotation neighborhood, independent
    of any material: sample s pairs F[s], a point of
    {dist(F, SO(n)) <= delta}, with G[s], a second such point moved by at
    most epsilon in norm, at the coordinate X[s]; K[s] is a unit direction
    for the Lipschitz quotient.  The arrays are made read-only, since
    every material evaluated on the draws reads the same ones."""

    X: np.ndarray
    F: np.ndarray
    G: np.ndarray
    K: np.ndarray
    delta: float
    epsilon: float
    seed: int
    samples: int

    def __post_init__(self):
        for a in (self.X, self.F, self.G, self.K):
            a.setflags(write=False)


def taylor_draws(n, delta, epsilon, nsamples, seed, coords=None) -> TaylorDraws:
    """Draw nsamples Taylor samples from default_rng(seed).

    coords are the coordinates a sample can sit at (the origin when None);
    delta + epsilon < 1 keeps the whole fattened set inside det F > 0.
    Per sample the generator is called in this order: integers for the
    coordinate, unless there is only one (integers(1) draws nothing from
    the stream); for F, then for G, a normal step S whose symmetric part
    is scaled to length uniform(0, delta), then a rotation R (a uniform
    angle in 2D, a normal quaternion in 3D), giving R (I + sym S); a
    normal fattening E scaled to length uniform(0, epsilon) and added to
    G; a normal direction K, scaled to length 1.  A step of norm 0 draws
    no length and is not scaled.  The sample loop makes these draws only,
    from the same stream by standard_normal and random; the arithmetic
    runs stacked after it, each value bitwise the one a per-sample loop
    computes (tests/oracles.py keeps that loop).
    """
    if not delta + epsilon < 1.0:
        raise SetEscapesDomain(
            f"delta + epsilon = {delta + epsilon:g} >= 1 allows det F <= 0"
        )
    if coords is None:
        coords = [np.zeros(n)]
    coords = np.array([np.asarray(x, dtype=float) for x in coords])
    rng = np.random.default_rng(seed)
    gauss, rand = rng.standard_normal, rng.random
    picks = np.zeros(nsamples, dtype=np.intp)
    pick = len(coords) > 1
    steps = np.empty((nsamples, 3, n, n))        # the steps of F and G, then E
    lengths = np.full((nsamples, 3), math.nan)   # nan where none is drawn
    turns = np.empty((nsamples, 2) if n == 2 else (nsamples, 2, 4))
    K = np.empty((nsamples, n, n))
    # A step is scaled when its norm is positive: frob(0.5 (S + S^T)) > 0
    # for F and G, frob(E) > 0 for the fattening.  The loop tests
    # |A[0, 0]| > 1e-150 first.  Entry (0, 0) of A and of its symmetric
    # part is A[0, 0] exactly, so the norm's sum of nonnegative squares
    # has a term of at least 1e-300, and rounding keeps a sum of
    # nonnegative terms at or above its largest term: the norm is
    # positive.  Only when the test fails is the norm itself taken.
    # normal is 0.0 + 1.0 z for z = standard_normal, so adding 0.0 after
    # the loop gives its bits, signed zeros included; uniform(0, b) is
    # 0.0 + b random(), and b random() >= 0 is that sum.  In 2D a drawn
    # length and the angle after it are one random(2).
    for s in range(nsamples):
        if pick:
            picks[s] = rng.integers(len(coords))
        for j in range(2):
            S = gauss(out=steps[s, j])
            if abs(S.item(0)) > 1e-150 or frob(0.5 * (S + S.T)) > 0:
                if n == 2:
                    lengths[s, j], turns[s, j] = rand(2)
                    continue
                lengths[s, j] = rand()
            turns[s, j] = rand() if n == 2 else gauss(4)
        E = gauss(out=steps[s, 2])
        if abs(E.item(0)) > 1e-150 or frob(E) > 0:
            lengths[s, 2] = rand()
        gauss(out=K[s])
    steps += 0.0
    K += 0.0
    lengths *= (delta, delta, epsilon)
    turns = turns * (2.0 * math.pi) if n == 2 else turns + 0.0

    steps[:, :2] = 0.5 * (steps[:, :2] + steps[:, :2].swapaxes(-1, -2))
    drawn = ~np.isnan(lengths)
    steps[drawn] *= (lengths[drawn] / frob_many(steps[drawn]))[:, None, None]
    # both factors are C-ordered, so each product is the matmul of one sample
    R = rotations(turns.reshape(2 * nsamples, *turns.shape[2:])).reshape(nsamples, 2, n, n)
    FG = R @ (np.eye(n) + steps[:, :2])
    return TaylorDraws(X=coords[picks], F=np.ascontiguousarray(FG[:, 0]),
                       G=FG[:, 1] + steps[:, 2], K=K / frob_many(K)[:, None, None],
                       delta=delta, epsilon=epsilon, seed=seed, samples=nsamples)


def taylor_constants(m: Material, draws: TaylorDraws) -> TaylorConstants:
    """Sample the two Appendix-style constants of m on draws.

    c bounds the cubic Taylor defect of W around points of the rotation
    neighborhood; c_hat is a Lipschitz constant for the second derivative.
    Both are empirical suprema over the seeded sample taylor_draws made,
    and are reported with its size and seed.

    The draws come first and do not depend on the material, so one set
    serves every material evaluated on the same settings: the 12 frozen
    points of a pushed-forward material share theirs.  Each material
    quantity is one batched call over the samples, and the per-sample
    quotients are folded in sample order.
    """
    X, F, G, K = draws.X, draws.F, draws.G, draws.K
    H = G - F
    hn = frob_many(H)

    # the cubic quotient needs |H| >= floor (below it the quotient drowns
    # in roundoff), the Lipschitz quotient |H| > 1e-10; both read A(F).
    # A contraction sums in an order set by its operands' strides, so every
    # operand is C-ordered, as a one-sample evaluation is: each quotient is
    # then bitwise the one a per-sample loop computes
    floor = 1e-3
    cub = hn >= floor
    lip = hn > 1e-10
    AF = np.ascontiguousarray(m.elasticity_many(X[lip], F[lip]))
    AG = np.ascontiguousarray(m.elasticity_many(X[lip], G[lip]))
    S = np.ascontiguousarray(m.stress_many(X[cub], F[cub]))
    Hc, Kl = H[cub], K[lip]
    defect = (m.energy_many(X[cub], F[cub]) - m.energy_many(X[cub], G[cub])
              + _inner(S, Hc) + 0.5 * _inner(Hc, _apply(AF[cub[lip]], Hc)))
    # Python's power: numpy's rounds |H|^3 differently for about 5% of values
    cubes = [h**3 for h in hn[cub].tolist()]
    # Lipschitz quotient of the second derivative, both orders
    qF = _inner(Kl, _apply(AF, Kl))
    qG = _inner(Kl, _apply(AG, Kl))
    # max folds in sample order, over Python floats
    c_best = max([0.0] + (defect / np.array(cubes)).tolist())
    chat_best = max([0.0] + (np.abs(qF - qG) / hn[lip]).tolist())
    return TaylorConstants(c=c_best, c_hat=chat_best, delta=draws.delta,
                           epsilon=draws.epsilon, samples=draws.samples, seed=draws.seed)


def _apply(A, H):
    """Stacked A[H], C-ordered."""
    return np.ascontiguousarray(np.einsum("kiajb,kjb->kia", A, H))


def _inner(U, V):
    """Stacked Frobenius products U:V."""
    return np.sum(U * V, axis=(1, 2))
