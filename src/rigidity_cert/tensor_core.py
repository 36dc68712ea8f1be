"""Small dense tensor kinematics in two and three dimensions.

Everything here works on plain numpy arrays of shape (n, n) with
n in {2, 3}.  Frobenius norms throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DeterminantViolation, DetNonPositive, DimensionMismatch, Singular

__all__ = [
    "PolarPair",
    "SandwichReport",
    "polar_decompose",
    "dist_to_rotations",
    "dist_to_rotations_many",
    "strain",
    "strain_dist_sandwich",
    "frob",
    "frob_many",
    "det_many",
    "rotations",
    "random_rotation",
]

_SUPPORTED_DIMS = (2, 3)


def frob(A) -> float:
    """Frobenius norm of a matrix (or 2-norm of a vector); the sum and the
    root of np.linalg.norm, without its dispatch."""
    a = np.asarray(A, dtype=float).ravel(order="K")
    return math.sqrt(a.dot(a))


def det_many(F) -> np.ndarray:
    """Determinants of a stack of 2x2 or 3x3 matrices (..., n, n) in closed
    form: the products of entries, not an LU factorization per matrix.  It
    serves the checks that read only a determinant's sign or compare it
    with a fixed floor."""
    F = np.asarray(F, dtype=float)
    if F.shape[-1] == 2:
        return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    a, b, c = F[..., 0, 0], F[..., 0, 1], F[..., 0, 2]
    d, e, f = F[..., 1, 0], F[..., 1, 1], F[..., 1, 2]
    g, h, i = F[..., 2, 0], F[..., 2, 1], F[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _as_square(F, who: str) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DimensionMismatch(f"{who}: expected a square matrix, got shape {F.shape}")
    if F.shape[0] not in _SUPPORTED_DIMS:
        raise DimensionMismatch(f"{who}: only n in {_SUPPORTED_DIMS} supported, got n={F.shape[0]}")
    if not np.all(np.isfinite(F)):
        raise DimensionMismatch(f"{who}: matrix has non-finite entries")
    return F


@dataclass(frozen=True)
class PolarPair:
    """Right polar factors F = R U with R a rotation and U symmetric positive."""

    rotation: np.ndarray
    stretch: np.ndarray


@dataclass(frozen=True)
class SandwichReport:
    """Evaluation of the two-sided bound between |E(F)| and dist(F, SO(n)).

    lower_ok:  dist^2 <= 2 sqrt(n) |E|
    upper_ok:  2 sqrt(n) |E| <= sqrt(n) dist (dist + 2 sqrt(n))
    linear_ok: dist <= 2 |E|
    """

    dist: float
    strain_norm: float
    lower_ok: bool
    upper_ok: bool
    linear_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.linear_ok


def _stretch_spectrum(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of C = F^T F; eigenvalues ascending, clipped at 0."""
    C = F.T @ F
    w, V = np.linalg.eigh(C)
    return np.clip(w, 0.0, None), V


def polar_decompose(F) -> PolarPair:
    """Right polar decomposition F = R U via the spectral square root of F^T F.

    Raises DetNonPositive when det F <= 0 and Singular when the stretch is
    too ill-conditioned to invert reliably (condition number above 1e14).
    """
    F = _as_square(F, "polar_decompose")
    det = np.linalg.det(F)
    if det <= 0.0:
        raise DetNonPositive(f"polar_decompose: det F = {det:g} <= 0")
    w, V = _stretch_spectrum(F)
    s = np.sqrt(w)
    if s[0] <= 0.0 or s[-1] / s[0] > 1e14:
        raise Singular("polar_decompose: stretch condition number exceeds 1e14")
    U = (V * s) @ V.T
    R = F @ ((V / s) @ V.T)
    # one orthogonality polish pass; the spectral route can lose a few
    # digits of R^T R = I when F is poorly conditioned
    R = R @ (1.5 * np.eye(F.shape[0]) - 0.5 * (R.T @ R))
    U = R.T @ F
    U = 0.5 * (U + U.T)
    return PolarPair(rotation=R, stretch=U)


def dist_to_rotations(F) -> float:
    """Frobenius distance from F to SO(n) for det F > 0.

    Equals |U - I| with U the right stretch, i.e. the root-sum-square of
    (singular value - 1) over the spectrum of F.
    """
    F = _as_square(F, "dist_to_rotations")
    det = np.linalg.det(F)
    if det <= 0.0:
        raise DetNonPositive(f"dist_to_rotations: det F = {det:g} <= 0")
    return float(_rotation_distances(F))


def dist_to_rotations_many(F) -> np.ndarray:
    """dist(F, SO(n)) for a stack of matrices (..., n, n), as quadrature
    points and lattice cells carry them; the same spectrum computation as
    dist_to_rotations, so a stack of one gives its value.  A non-square or
    non-finite stack raises DimensionMismatch, a non-positive determinant
    DeterminantViolation."""
    F = np.asarray(F, dtype=float)
    if F.ndim < 2 or F.shape[-1] != F.shape[-2] or F.shape[-1] not in _SUPPORTED_DIMS:
        raise DimensionMismatch(
            f"dist_to_rotations_many: expected a stack of n x n matrices, n in "
            f"{_SUPPORTED_DIMS}, got shape {F.shape}"
        )
    if not np.all(np.isfinite(F)):
        raise DimensionMismatch("dist_to_rotations_many: a matrix has non-finite entries")
    dets = det_many(F)
    if np.any(dets <= 0):
        raise DeterminantViolation(
            f"det = {dets.min():g} <= 0 while measuring rotation distance"
        )
    return _rotation_distances(F)


def _rotation_distances(F) -> np.ndarray:
    """Root-sum-square of (singular value - 1) over each matrix of a checked
    stack (..., n, n): the eigenvalues of F^T F, clipped at 0."""
    w = np.clip(np.linalg.eigvalsh(np.einsum("...ki,...kj->...ij", F, F)), 0.0, None)
    return np.sqrt(np.sum((np.sqrt(w) - 1.0) ** 2, axis=-1))


def strain(F) -> np.ndarray:
    """Nonlinear strain E = (F^T F - I)/2."""
    F = _as_square(F, "strain")
    return 0.5 * (F.T @ F - np.eye(F.shape[0]))


def strain_dist_sandwich(F) -> SandwichReport:
    """Check the strain / rotation-distance sandwich for one gradient.

    The three inequalities are exact real-arithmetic facts; a 1e-10
    relative slack only absorbs floating point noise in the equality
    cases.
    """
    F = _as_square(F, "strain_dist_sandwich")
    d = dist_to_rotations(F)
    e = frob(strain(F))
    n = F.shape[0]
    rn = math.sqrt(n)
    slack = 1e-10 * (1.0 + d * d + e)
    lower_ok = d * d <= 2.0 * rn * e + slack
    upper_ok = 2.0 * rn * e <= rn * d * (d + 2.0 * rn) + slack
    linear_ok = d <= 2.0 * e + slack
    return SandwichReport(dist=d, strain_norm=e, lower_ok=lower_ok,
                          upper_ok=upper_ok, linear_ok=linear_ok)


def frob_many(A) -> np.ndarray:
    """frob of each matrix (or vector) of a stack (k, ...), bitwise: a
    row-by-column matmul per entry sums its squares as ndarray.dot does."""
    a = np.ascontiguousarray(A, dtype=float)
    a = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def rotations(turns) -> np.ndarray:
    """C-ordered stack (k, n, n) of the rotations of k turns: angles, shape
    (k,), turn in 2D (through math.cos and math.sin); quaternions, shape
    (k, 4), are normalised and turn in 3D."""
    turns = np.asarray(turns, dtype=float)
    if turns.ndim == 1:
        t = turns.tolist()
        c = np.array([math.cos(x) for x in t])
        s = np.array([math.sin(x) for x in t])
        R = np.array([[c, -s], [s, c]])
    elif turns.ndim == 2 and turns.shape[1] == 4:
        a, b, c, d = (turns / frob_many(turns)[:, None]).T
        R = np.array([
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ])
    else:
        raise DimensionMismatch(f"rotations: expected (k,) angles or (k, 4) quaternions, "
                                f"got shape {turns.shape}")
    return np.ascontiguousarray(np.moveaxis(R, -1, 0))


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random rotation; uniform angle in 2D, unit quaternion in 3D."""
    if n == 2:
        return rotations([rng.uniform(0.0, 2.0 * math.pi)])[0]
    if n == 3:
        return rotations(rng.normal(size=(1, 4)))[0]
    raise DimensionMismatch(f"random_rotation: n must be 2 or 3, got {n}")
