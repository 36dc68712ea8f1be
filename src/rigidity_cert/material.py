"""Stored-energy models, their moduli at the identity, and their sampled
Taylor constants.

A material is homogeneous: it evaluates, at a deformation gradient F with
det F > 0:

    energy     W(F)                     scalar, W(I) = 0
    stress     S(F) = dW/dF             n x n
    elasticity A(F) = d2W/dF2           applied to directions H

Batched entry points take stacked gradients (k, n, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckFailed, DimensionMismatch, OutsideDomain, SetEscapesDomain
from .tensor_core import frob, frob_many, rotations

__all__ = [
    "Material",
    "StVenantKirchhoff",
    "NeoHookean",
    "CustomMaterial",
    "stvk",
    "neo_hookean",
    "quadratic_toy",
    "identity_floor",
    "TaylorConstants",
    "TaylorDraws",
    "taylor_draws",
    "taylor_constants",
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


class NeoHookean(Material):
    """W = mu/2 (tr C - n) - mu log J + lam/2 (log J)^2, J = det F."""

    name = "neo-hookean"

    @staticmethod
    def _logdet(F):
        J = np.linalg.det(F)
        if np.any(J <= 0.0):
            raise OutsideDomain("neo-hookean: det F <= 0 at an evaluation point")
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


class CustomMaterial(Material):
    """User-supplied energy with optional closed-form derivatives, each a
    callable of one gradient F.

    Missing derivatives fall back to central differences with step
    h = 1e-6 (1 + |F|).  The energy carries its own moduli, so the
    descriptor reports lambda and mu as 0.0.
    """

    def __init__(self, name, energy_fn, stress_fn=None, elasticity_fn=None):
        super().__init__(0.0, 0.0)
        self.name = name
        self._energy_fn = energy_fn
        self._stress_fn = stress_fn
        self._elasticity_fn = elasticity_fn

    def energy_many(self, F):
        F = _check_batch(F)
        return np.array([self._energy_fn(f) for f in F], dtype=float)

    def _fd_stress(self, F):
        h = 1e-6 * (1.0 + frob(F))
        out = np.zeros_like(F)
        for i in range(F.shape[0]):
            for j in range(F.shape[1]):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                out[i, j] = (self._energy_fn(Fp) - self._energy_fn(Fm)) / (2 * h)
        return out

    def stress_many(self, F):
        F = _check_batch(F)
        fn = self._stress_fn or self._fd_stress
        return np.array([fn(f) for f in F]).reshape(F.shape)

    def _fd_elasticity(self, F):
        n = F.shape[0]
        h = 1e-6 * (1.0 + frob(F))
        stress_fn = self._stress_fn or self._fd_stress
        A = np.zeros((n, n, n, n))
        for j in range(n):
            for b in range(n):
                Fp, Fm = F.copy(), F.copy()
                Fp[j, b] += h
                Fm[j, b] -= h
                A[:, :, j, b] = (stress_fn(Fp) - stress_fn(Fm)) / (2 * h)
        return A

    def elasticity_many(self, F):
        F = _check_batch(F)
        fn = self._elasticity_fn or self._fd_elasticity
        return np.array([fn(f) for f in F]).reshape(F.shape + F.shape[1:])


def stvk(lam=1.0, mu=1.0) -> StVenantKirchhoff:
    return StVenantKirchhoff(lam, mu)


def neo_hookean(lam=1.0, mu=1.0) -> NeoHookean:
    return NeoHookean(lam, mu)


def quadratic_toy() -> CustomMaterial:
    """W = |F - I|^2 / 2.  Not frame indifferent; useful because its cubic
    Taylor remainder vanishes identically."""

    def energy(F):
        d = F - np.eye(F.shape[0])
        return 0.5 * float(np.sum(d * d))

    def stress_fn(F):
        return F - np.eye(F.shape[0])

    def elasticity_fn(F):
        n = F.shape[0]
        return np.einsum("ij,ab->iajb", np.eye(n), np.eye(n))

    return CustomMaterial("quadratic-toy", energy, stress_fn, elasticity_fn)


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
    most epsilon in norm; K[s] is a unit direction for the Lipschitz
    quotient.  The arrays are made read-only, since every material
    evaluated on the draws reads the same ones."""

    F: np.ndarray
    G: np.ndarray
    K: np.ndarray
    delta: float
    epsilon: float
    seed: int
    samples: int

    def __post_init__(self):
        for a in (self.F, self.G, self.K):
            a.setflags(write=False)


def taylor_draws(n, delta, epsilon, nsamples, seed, spots=1) -> TaylorDraws:
    """Draw nsamples Taylor samples from default_rng(seed).

    delta + epsilon < 1 keeps the whole fattened set inside det F > 0.
    Per sample the generator is called in this order: integers(spots),
    unless spots is 1 (integers(1) draws nothing from the stream); for F,
    then for G, a normal step S whose symmetric part is scaled to length
    uniform(0, delta), then a rotation R (a uniform
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
    rng = np.random.default_rng(seed)
    gauss, rand = rng.standard_normal, rng.random
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
        # no material reads the spot a sample was drawn at; it is still
        # drawn, so that the stream, and every sampled constant, keeps the
        # bits it had when materials read a spatial coordinate
        if spots > 1:
            rng.integers(spots)
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
    return TaylorDraws(F=np.ascontiguousarray(FG[:, 0]),
                       G=FG[:, 1] + steps[:, 2], K=K / frob_many(K)[:, None, None],
                       delta=delta, epsilon=epsilon, seed=seed, samples=nsamples)


def taylor_constants(m: Material, draws: TaylorDraws) -> TaylorConstants:
    """Sample the two Appendix-style constants of m on draws.

    c bounds the cubic Taylor defect of W around points of the rotation
    neighborhood; c_hat is a Lipschitz constant for the second derivative.
    Both are empirical suprema over the seeded sample taylor_draws made,
    and are reported with its size and seed.

    The draws come first and do not depend on the material, so one set
    serves every material evaluated on the same settings: the 12
    one-point pushforward materials of a deformed configuration share
    theirs.  Each material quantity is one batched call over the samples,
    and the per-sample quotients are folded in sample order.
    """
    F, G, K = draws.F, draws.G, draws.K
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
    AF = np.ascontiguousarray(m.elasticity_many(F[lip]))
    AG = np.ascontiguousarray(m.elasticity_many(G[lip]))
    S = np.ascontiguousarray(m.stress_many(F[cub]))
    Hc, Kl = H[cub], K[lip]
    defect = (m.energy_many(F[cub]) - m.energy_many(G[cub])
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
