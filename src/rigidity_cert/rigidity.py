"""Rotation fits, rigidity-constant measurements, and Korn constants.

Given a lattice cell field of gradients, these routines fit the single
best rotation, measure how far the field is from that rotation relative
to its pointwise distance to the rotation group, relate the BMO seminorm
of the gradient to the sup of that distance, and compute discrete Korn
constants.  The rotation fits serve the diagnostics-rigidity sweeps; no
certificate reads them.

All reported constants are measurements on the discrete field at hand,
not certified bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem, harmonic, tensor_core
from .errors import DegenerateMean, DimensionMismatch

__all__ = [
    "RigidityReport",
    "best_rotation",
    "rigidity_fit",
    "korn_constant",
]

# deviations with norm at or below this (relative to a unit gradient scale)
# are treated as exact zeros when forming ratio statistics
_ZERO_TOL = 1e-12


def _cell_matrices(field: harmonic.GridField):
    """Stack of the per-cell matrices of a matrix-valued GridField."""
    if field.values.ndim != field.mask.ndim + 2:
        raise DimensionMismatch("best_rotation needs a matrix-valued field")
    return field.values[field.mask]


def best_rotation(grad_field: harmonic.GridField) -> np.ndarray:
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


def _plain_ratio(lhs: float, rhs: float) -> float:
    if rhs <= _ZERO_TOL:
        return 0.0 if lhs <= _ZERO_TOL else math.inf
    return lhs / rhs


def rigidity_fit(grad_field: harmonic.GridField) -> RigidityReport:
    """Fit one rotation to a gradient field and measure the fit constants
    in p-means at p = 2.

    Requires a cellwise positive determinant (the pointwise rotation
    distance must be defined) and a mean gradient with positive
    determinant.
    """
    p = 2.0
    cells = _cell_matrices(grad_field)
    R = best_rotation(grad_field)
    dev = np.linalg.norm((cells - R).reshape(len(cells), -1), axis=1)
    dist = tensor_core.dist_to_rotations_many(cells)
    lhs_p = float(np.mean(dev**p))
    rhs_p = float(np.mean(dist**p))
    bmo = harmonic.bmo_seminorm(grad_field)
    dist_sup = float(dist.max())
    return RigidityReport(
        R_best=R,
        lhs_p=lhs_p,
        rhs_p=rhs_p,
        C_emp=_plain_ratio(lhs_p ** (1.0 / p), rhs_p ** (1.0 / p)),
        bmo_seminorm=bmo,
        dist_sup=dist_sup,
        M_emp=_plain_ratio(bmo, dist_sup),
        p=p,
    )


def _korn_element_matrices(mesh):
    # |H + H^T|^2 expands to 2 delta_ij g_a.g_b + 2 (g_b)_i (g_a)_j for
    # H = e_i x g_a against e_j x g_b, i.e. the element matrices of
    # A[i, k, j, l] = 2 delta_ij delta_kl + 2 delta_il delta_jk
    eye = np.eye(mesh.dim)
    A = 2.0 * np.einsum("ij,kl->ikjl", eye, eye) + 2.0 * np.einsum("il,jk->ikjl", eye, eye)
    return fem.element_matrices(mesh, np.broadcast_to(A, mesh.quadrature()[2].shape + A.shape))


def korn_constant(mesh) -> float:
    """Best constant K in  int |grad w + (grad w)^T|^2 >= K int |grad w|^2
    over FE fields vanishing on the mesh's Dirichlet nodes: the form's
    matrix over the free dofs against the gradient Gram matrix, factored
    in the mesh's dof_order.
    """
    B = fem.scatter_matrix(mesh, _korn_element_matrices(mesh))
    return fem.coercivity_constant(B, fem.gradient_gram_matrix(mesh), mesh.dof_order())
