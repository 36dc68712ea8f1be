"""Rotation fits, rigidity-constant measurements, and Korn constants.

Given a lattice cell field of gradients, these routines fit the single
best rotation, measure how far the field is from that rotation relative
to its pointwise distance to the rotation group, relate the BMO seminorm
of the gradient to the sup of that distance, and compute discrete Korn
constants with variable coefficients.

All reported constants are measurements on the discrete field at hand,
not certified bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem, harmonic, tensor_core
from .errors import (
    BoundaryMismatch,
    DegenerateMean,
    DetBelowFloor,
    DimensionMismatch,
    HypothesisUnmet,
)

__all__ = [
    "RigidityReport",
    "BoundaryClosenessReport",
    "best_rotation",
    "rigidity_fit",
    "boundary_rotation_closeness",
    "korn_form_matrix",
    "korn_constant",
]

# deviations with norm at or below this (relative to a unit gradient scale)
# are treated as exact zeros when forming ratio statistics
_ZERO_TOL = 1e-12


def _cell_matrices(field):
    """Stack of per-cell matrices from a GridField or a raw array."""
    if isinstance(field, harmonic.GridField):
        if field.values.ndim != field.mask.ndim + 2:
            raise DimensionMismatch("best_rotation needs a matrix-valued field")
        return field.values[field.mask]
    arr = np.asarray(field, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got {arr.shape}")
    return arr.reshape(-1, arr.shape[-1], arr.shape[-1])


def best_rotation(grad_field) -> np.ndarray:
    """Rotation minimizing the mean squared deviation from the field.

    The minimizer over SO(n) of the L2 objective is the polar rotation
    factor of the mean gradient, provided that mean has positive
    determinant.
    """
    cells = _cell_matrices(grad_field)
    G = cells.mean(axis=0)
    if np.linalg.det(G) <= 0.0:
        raise DegenerateMean(f"mean gradient determinant {np.linalg.det(G):g} <= 0")
    return tensor_core.polar_decompose(G).rotation


@dataclass(frozen=True)
class RigidityReport:
    """Single-rotation fit statistics of a gradient field.

    lhs_p and rhs_p are mean p-th powers (deviation from the fitted
    rotation, and pointwise distance to the rotation group).  C_emp is
    the measured constant (lhs_p/rhs_p)^(1/p), with the conventions
    C_emp = 0 when both sides vanish and C_emp = inf when only the
    right-hand side does (pointwise-rotation-valued fields).  M_emp
    compares the BMO seminorm of the field to the sup distance the same
    way.
    """

    R_best: np.ndarray
    lhs_p: float
    rhs_p: float
    C_emp: float
    bmo_seminorm: float
    dist_sup: float
    M_emp: float
    p: float


def _ratio_power(lhs_p: float, rhs_p: float, p: float) -> float:
    lhs = lhs_p ** (1.0 / p)
    rhs = rhs_p ** (1.0 / p)
    if rhs <= _ZERO_TOL:
        return 0.0 if lhs <= _ZERO_TOL else math.inf
    return lhs / rhs


def _plain_ratio(lhs: float, rhs: float) -> float:
    if rhs <= _ZERO_TOL:
        return 0.0 if lhs <= _ZERO_TOL else math.inf
    return lhs / rhs


def rigidity_fit(grad_field, p: float = 2.0) -> RigidityReport:
    """Fit one rotation to a gradient field and measure the fit constants.

    Requires a cellwise positive determinant (the pointwise rotation
    distance must be defined) and a mean gradient with positive
    determinant.
    """
    if not 1.0 < p < math.inf:
        raise HypothesisUnmet(f"rigidity_fit needs p in (1, inf), got {p}")
    cells = _cell_matrices(grad_field)
    R = best_rotation(grad_field)
    dev = np.linalg.norm((cells - R).reshape(len(cells), -1), axis=1)
    dist = tensor_core.dist_to_rotations_many(cells)
    lhs_p = float(np.mean(dev**p))
    rhs_p = float(np.mean(dist**p))
    if isinstance(grad_field, harmonic.GridField):
        bmo = harmonic.bmo_seminorm(grad_field)
    else:
        bmo = math.nan
    dist_sup = float(dist.max())
    return RigidityReport(
        R_best=R,
        lhs_p=lhs_p,
        rhs_p=rhs_p,
        C_emp=_ratio_power(lhs_p, rhs_p, p),
        bmo_seminorm=bmo,
        dist_sup=dist_sup,
        M_emp=_plain_ratio(bmo, dist_sup) if not math.isnan(bmo) else math.nan,
        p=float(p),
    )


@dataclass(frozen=True)
class BoundaryClosenessReport:
    """Rotation and field closeness of two maps sharing Dirichlet data.

    lhs / rhs / A_emp: Frobenius gap of the two fitted rotations against
    the sum of the fields' p-mean deviations from their own rotations.
    lhs_l1 / rhs_l1 / A_emp_l1: mean gradient difference against the sum
    of the p-mean pointwise rotation distances.
    """

    R1: np.ndarray
    R2: np.ndarray
    lhs: float
    rhs: float
    A_emp: float
    lhs_l1: float
    rhs_l1: float
    A_emp_l1: float
    p: float


def boundary_rotation_closeness(u1, u2, mesh, p: float) -> BoundaryClosenessReport:
    """Compare the fitted rotations of two deformations that agree on the
    Dirichlet part of the boundary.

    Needs p strictly above the space dimension (the continuity-embedding
    hypothesis behind rotation comparison through shared boundary data).
    """
    if p <= mesh.dim:
        raise HypothesisUnmet(
            f"boundary comparison needs p > n = {mesh.dim}, got p = {p} "
            "(the trace argument uses the supercritical embedding)"
        )
    d = mesh.dirichlet_nodes
    gap = np.max(np.abs(u1.values[d] - u2.values[d])) if len(d) else 0.0
    if gap > 1e-12:
        raise BoundaryMismatch(f"fields differ on the Dirichlet nodes by {gap:.3e}")
    g1 = fem.gradient_field(mesh, u1)
    g2 = fem.gradient_field(mesh, u2)
    c1, c2 = _cell_matrices(g1), _cell_matrices(g2)
    R1, R2 = best_rotation(g1), best_rotation(g2)

    def pnorm(stack_norms):
        return float(np.mean(stack_norms**p) ** (1.0 / p))

    dev1 = np.linalg.norm((c1 - R1).reshape(len(c1), -1), axis=1)
    dev2 = np.linalg.norm((c2 - R2).reshape(len(c2), -1), axis=1)
    lhs = float(np.linalg.norm(R1 - R2))
    rhs = pnorm(dev1) + pnorm(dev2)
    diff = np.linalg.norm((c1 - c2).reshape(len(c1), -1), axis=1)
    d1 = tensor_core.dist_to_rotations_many(c1)
    d2 = tensor_core.dist_to_rotations_many(c2)
    lhs_l1 = float(np.mean(diff))
    rhs_l1 = pnorm(d1) + pnorm(d2)
    return BoundaryClosenessReport(
        R1=R1,
        R2=R2,
        lhs=lhs,
        rhs=rhs,
        A_emp=_plain_ratio(lhs, rhs),
        lhs_l1=lhs_l1,
        rhs_l1=rhs_l1,
        A_emp_l1=_plain_ratio(lhs_l1, rhs_l1),
        p=float(p),
    )


def _coefficient_at_qps(mesh, F_field):
    """Coefficient matrices at every quadrature point, (M, q, n, n)."""
    coords, _, wdet, _, _ = mesh.quadrature()
    M, q = wdet.shape
    n = mesh.dim
    if F_field is None:
        return np.broadcast_to(np.eye(n), (M, q, n, n)).copy()
    if isinstance(F_field, harmonic.GridField):
        if mesh.lattice is None:
            raise DimensionMismatch("a GridField coefficient needs a structured mesh")
        lat = mesh.lattice
        per_elem = np.empty((M, n, n))
        per_elem[lat.elem_of_cell[lat.mask]] = F_field.values[lat.mask]
        return np.repeat(per_elem[:, None], q, axis=1)
    if callable(F_field):
        flat = coords.reshape(-1, n)
        vals = np.array([np.asarray(F_field(x), dtype=float) for x in flat])
        return vals.reshape(M, q, n, n)
    F = np.asarray(F_field, dtype=float)
    if F.shape != (n, n):
        raise DimensionMismatch(f"constant coefficient must be ({n}, {n}), got {F.shape}")
    return np.broadcast_to(F, (M, q, n, n)).copy()


def korn_form_matrix(mesh, F_field=None, det_floor=1e-8):
    """Matrix of the quadratic form  w -> int |F^T grad w + (grad w)^T F|^2
    over all nodal dofs (no boundary restriction).

    F_field may be None (identity), a constant matrix, a GridField over the
    mesh lattice, or a callable of position.  The coefficient determinant
    must stay above det_floor at every quadrature point.
    """
    Fq = _coefficient_at_qps(mesh, F_field)
    dets = np.linalg.det(Fq)
    if dets.min() < det_floor:
        raise DetBelowFloor(
            f"coefficient determinant {dets.min():g} below floor {det_floor:g}"
        )
    n = mesh.dim
    FFt = np.einsum("eqik,eqjk->eqij", Fq, Fq)
    # |F^T H + H^T F|^2 expands to 2 (F F^T)_{ij} g_a.g_b + 2 (F g_b)_i (F g_a)_j
    # for H = e_i x g_a against e_j x g_b, i.e. the element matrices of
    # A[i, k, j, l] = 2 (F F^T)_{ij} delta_{kl} + 2 F_{il} F_{jk}
    A = 2.0 * FFt[:, :, :, None, :, None] * np.eye(n)[:, None, :]
    A += 2.0 * Fq[:, :, :, None, None, :] * np.swapaxes(Fq, -1, -2)[:, :, None, :, :, None]
    return fem.scatter_matrix(mesh, fem.element_matrices(mesh, A), free_only=False)


def korn_constant(mesh, F_field=None, det_floor=1e-8) -> float:
    """Best constant K in  int |F^T grad w + (grad w)^T F|^2 >= K int |grad w|^2
    over FE fields vanishing on the mesh's Dirichlet nodes."""
    B = korn_form_matrix(mesh, F_field, det_floor)
    idx = np.flatnonzero(mesh.free_mask().ravel())
    B = B[np.ix_(idx, idx)].tocsr()
    return fem.coercivity_constant(B, fem.gradient_gram_matrix(mesh))
