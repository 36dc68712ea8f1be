"""Change of reference configuration.

An equilibrium u_e maps the body onto u_e(Omega); this module rebuilds
the problem there: deformed mesh, pushed-forward stored energy, stress,
elasticity tensor, and loads, with the composed fields represented by
node transport (the image of node x_i carries the reference nodal
value).  Integral identities between the two configurations are checked
numerically, and a strain difference is converted into rotation
distances; certify gates candidates on the configuration built here.

u_e may be a nodal field or an analytically specified map with an exact
Jacobian.  For a nodal field the transport is exact (the deformed
elements are the exact isoparametric images), so identity residuals sit
at roundoff; an analytic map is interpolated by the deformed mesh and
the residuals shrink at the quadrature order under refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem, material, tensor_core
from .errors import DegenerateNormal, DeterminantViolation, DimensionMismatch, NotInjective

__all__ = [
    "AnalyticDeformation",
    "DeformedConfig",
    "PushforwardMaterial",
    "deform_configuration",
    "pushforward_loads",
    "verify_cov_identities",
    "CovReport",
    "strain_diff_to_dist",
    "StrainDistReport",
]


@dataclass(frozen=True)
class AnalyticDeformation:
    """A deformation map given in closed form with its Jacobian."""

    fn: callable
    jac: callable

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        return np.asarray(self.jac(x), dtype=float)


@dataclass
class DeformedConfig:
    """The deformed body as a new reference configuration."""

    reference_mesh: fem.Mesh
    mesh_def: fem.Mesh
    forward: np.ndarray              # (N, n) node images
    F: np.ndarray                    # (M, q, n, n) forward gradients at qps
    inverse_jacobians: np.ndarray    # (M, q, n, n)
    det_F: np.ndarray                # (M, q)
    C: np.ndarray                    # (M, q, n, n) F^T F
    Upsilon: float                   # sup |F|
    upsilon: float                   # 1 / sup |F^-1|
    source: object = field(repr=False, default=None)
    inverse_residual: float = 0.0

    def facet_data(self, facets):
        """(F, det F) at the quadrature points of the given facets."""
        mesh = self.reference_mesh
        if isinstance(self.source, fem.FeField):
            Ff = fem.facet_deformation_gradients(mesh, self.source, facets)
        else:
            coords = mesh.facet_quadrature(facets)[0]
            flat = coords.reshape(-1, mesh.dim)
            Ff = np.array([self.source.jacobian(x) for x in flat]).reshape(
                coords.shape[:2] + (mesh.dim, mesh.dim)
            )
        return Ff, np.linalg.det(Ff)


def _forward_gradients(mesh, u_e):
    if isinstance(u_e, fem.FeField):
        return fem.deformation_gradients(mesh, u_e)
    coords = mesh.quadrature()[0]
    flat = coords.reshape(-1, mesh.dim)
    F = np.array([u_e.jacobian(x) for x in flat])
    return F.reshape(coords.shape[:2] + (mesh.dim, mesh.dim))


# the direction _has_close_pair sorts the points along; its components'
# ratios are irrational, so the nodes of a lattice row or column, which
# share coordinates, still project far apart
_SWEEP = np.array([1.0, 0.6180339887498949, 0.3819660112501051])


def _has_close_pair(points, r):
    """Whether two of the points (P, n) lie within Euclidean distance r of
    each other, their squared coordinate differences summed in axis order
    against r * r.

    A pair that close projects onto _SWEEP less than r |_SWEEP| apart, so
    after sorting the projections only neighbours within that gap, plus a
    bound on the projections' rounding, are compared.  The k-th neighbours
    are compared while any of them is that close: the sorted projections
    of farther neighbours lie farther apart.
    """
    d = _SWEEP[: points.shape[1]]
    s = points @ d
    order = np.argsort(s, kind="stable")
    s, p = s[order], points[order]
    rounding = 8.0 * np.finfo(float).eps * float(np.abs(points).max(initial=0.0)) * float(d.sum())
    gap = (r * math.sqrt(float(d @ d)) + rounding) * (1.0 + 1e-9)
    for k in range(1, len(s)):
        near = np.flatnonzero(s[k:] - s[:-k] <= gap)
        if not near.size:
            break
        diff = p[near + k] - p[near]
        dist2 = diff[:, 0] * diff[:, 0]
        for j in range(1, diff.shape[1]):
            dist2 = dist2 + diff[:, j] * diff[:, j]
        if np.any(dist2 <= r * r):
            return True
    return False


def deform_configuration(mesh: fem.Mesh, u_e) -> DeformedConfig:
    """Build the deformed mesh and store the forward gradient data.

    Checks injectivity at desk scale: node images must be pairwise
    distinct and every element must keep a positive Jacobian in the
    image.
    """
    if isinstance(u_e, fem.FeField):
        images = u_e.values.copy()
    else:
        images = np.array([u_e(x) for x in mesh.nodes])
    F = _forward_gradients(mesh, u_e)
    det = np.linalg.det(F)
    if det.min() <= 0.0:
        raise DeterminantViolation(
            f"forward map determinant {det.min():g} <= 0 at a quadrature point"
        )
    if _has_close_pair(images, 1e-12):
        raise NotInjective("two nodes map to the same image point")
    try:
        mesh_def = fem.Mesh(
            images,
            mesh.elements,
            mesh.dirichlet_facets,
            mesh.traction_facets,
            lattice=mesh.lattice,
        )
    except ValueError as exc:
        raise NotInjective(f"element inverted in the image: {exc}") from exc
    inv = np.linalg.inv(F)
    residual = float(np.max(np.abs(np.einsum("eqik,eqkj->eqij", inv, F) - np.eye(mesh.dim))))
    return DeformedConfig(
        reference_mesh=mesh,
        mesh_def=mesh_def,
        forward=images,
        F=F,
        inverse_jacobians=inv,
        det_F=det,
        C=np.einsum("eqki,eqkj->eqij", F, F),
        Upsilon=float(np.sqrt(np.einsum("eqij,eqij->eq", F, F)).max()),
        upsilon=1.0 / float(np.sqrt(np.einsum("eqij,eqij->eq", inv, inv)).max()),
        source=u_e,
        inverse_residual=residual,
    )


class _ChainRule(material.Material):
    """W(G F) / det F over the new gradient variable G, with the chain-rule
    stress S(G F) F^T / det F and elasticity A(G F)[. F, . F] / det F, at
    a stored stack of material points (F, det F).

    A batch of gradients is evaluated row by row against the stack, so it
    must have one row per point; a stack of one point is broadcast to
    every row.

    The assembly material and its slices share this one algebra, so a
    block of points evaluates as the whole mesh does, bit for bit: G F
    and S F^T are matrix products, A[. F, . F] one einsum, each over
    C-ordered operands, so that every point's sums run in one order at
    every batch size.
    """

    def __init__(self, base: material.Material, F, det):
        super().__init__(base.lam, base.mu)
        self.base = base
        self._F, self._det = F, det

    def _pushed(self, G):
        G = np.ascontiguousarray(G, dtype=float)
        count, points = G.shape[0], self._det.shape[0]
        if points != 1 and count != points:
            raise DimensionMismatch(
                f"a batch of {count} gradients for {points} material points; a "
                "pushforward material evaluates all points of its mesh at once"
            )
        n = self._F.shape[-1]
        F = np.ascontiguousarray(np.broadcast_to(self._F, (count, n, n)))
        return G @ F, F, np.broadcast_to(self._det, (count,))

    def energy_many(self, F):
        GF, _, det = self._pushed(F)
        return self.base.energy_many(GF) / det

    def stress_many(self, F):
        GF, Fe, det = self._pushed(F)
        S = np.ascontiguousarray(self.base.stress_many(GF))
        return S @ np.swapaxes(Fe, -1, -2) / det[:, None, None]

    def elasticity_many(self, F):
        GF, Fe, det = self._pushed(F)
        A = np.ascontiguousarray(self.base.elasticity_many(GF))
        out = np.ascontiguousarray(np.einsum("pikjl,pak,pbl->piajb", A, Fe, Fe))
        return out / det[:, None, None, None, None]

    def _taylor_bounds(self, n, rho, epsilon, s_max, det):
        """The base material's bounds through the forward gradient F of
        each stored point, |F|_op and det F, at their worst over the
        points; a pushforward of this material composes its F with
        these."""
        s_F = np.linalg.norm(self._F, 2, axis=(-2, -1))
        c, c_hat = self.base.taylor_bounds(n, rho, epsilon, s_max * s_F, det * self._det)
        return float(np.max(c)), float(np.max(c_hat))


class PushforwardMaterial(_ChainRule):
    """Stored energy rewritten over the deformed configuration.

    At the reference quadrature point (e, k) with forward gradient F:
    W_u(G) = W(G F) / det F, with stress and elasticity following by the
    chain rule.  It evaluates a batch of exactly the mesh's M*q quadrature
    points, in quadrature order (row e*q + k), as fem.material_at_points
    passes them.  at_points takes a block of them, as the tangent passes
    them; the block of the one row e*q + k is the pushforward frozen at
    (e, k), a material in G over batches of any size.
    """

    def __init__(self, base: material.Material, cfg: DeformedConfig):
        n = cfg.reference_mesh.dim
        super().__init__(base, cfg.F.reshape(-1, n, n), cfg.det_F.reshape(-1))
        self.cfg = cfg

    def at_points(self, rows):
        """The pushforward at the quadrature points rows (a slice) alone,
        bit for bit as this material evaluates them among all of them."""
        return _ChainRule(self.base, self._F[rows], self._det[rows])

    def descriptor(self) -> dict:
        return {"model": "pushforward", "base": self.base.descriptor()}


def pushforward_loads(loads: fem.LoadSet, cfg: DeformedConfig) -> fem.LoadSet:
    """Dead loads over the deformed configuration.

    Body force scales by 1/det F; tractions by 1/(|F^-T n| det F) through
    the surface transformation; Dirichlet data becomes the identity on
    the node images.
    """
    mesh = cfg.reference_mesh
    body = None
    if loads.body is not None:
        body = loads.body / cfg.det_F[..., None]
    traction = None
    if loads.traction is not None and mesh.traction_facets:
        facets = mesh.traction_facets
        Ff, detf = cfg.facet_data(facets)
        if detf.min() <= 0.0:
            raise DeterminantViolation(
                f"forward map determinant {detf.min():g} <= 0 on a traction facet"
            )
        normals = mesh.facet_quadrature(facets)[3]
        cof_n = np.linalg.solve(np.swapaxes(Ff, -1, -2), normals[..., None])[..., 0]
        stretch = np.linalg.norm(cof_n, axis=-1)
        if stretch.min() < 1e-12:
            raise DegenerateNormal(
                f"|F^-T n| = {stretch.min():g} below 1e-12 on a traction facet"
            )
        traction = loads.traction / (stretch * detf)[..., None]
    dirichlet = {int(i): cfg.forward[i].copy() for i in mesh.dirichlet_nodes}
    return fem.LoadSet(body=body, traction=traction, dirichlet=dirichlet)


# ------------------------------------------------------- integral identities

_EMPTY = fem.LoadSet(body=None, traction=None, dirichlet={})


def _stress_power(m, mesh, v, w):
    S = fem.material_at_points(m, mesh, v, "stress")
    Gw = fem.deformation_gradients(mesh, w)
    return float(np.sum(mesh.quadrature()[2] * np.einsum("eqik,eqik->eq", S, Gw)))


def _elasticity_form(m, mesh, v, w):
    A = fem.material_at_points(m, mesh, v, "elasticity")
    Gw = fem.deformation_gradients(mesh, w)
    return float(np.sum(mesh.quadrature()[2] * np.einsum("eqia,eqiajb,eqjb->eq", Gw, A, Gw)))


@dataclass
class CovReport:
    """Both sides of the five change-of-configuration identities."""

    lines: dict
    max_rel: float
    inverse_residual: float


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def verify_cov_identities(m, mesh, loads, u_e, v, w) -> CovReport:
    """Evaluate energy, stress power, elasticity form, body work, and
    traction work on both configurations and report the discrepancies.

    v and w are reference fields; their images are represented on the
    deformed mesh by node transport.
    """
    cfg = deform_configuration(mesh, u_e)
    m_u = PushforwardMaterial(m, cfg)
    loads_u = pushforward_loads(loads, cfg)
    mesh_def = cfg.mesh_def
    v_hat = fem.FeField(mesh_def, v.values)
    w_hat = fem.FeField(mesh_def, w.values)
    lines = {}
    lhs = fem.total_energy(m, mesh, _EMPTY, v)
    rhs = fem.total_energy(m_u, mesh_def, _EMPTY, v_hat)
    lines["energy"] = {"lhs": lhs, "rhs": rhs, "rel": _rel(lhs, rhs)}
    lhs = _stress_power(m, mesh, v, w)
    rhs = _stress_power(m_u, mesh_def, v_hat, w_hat)
    lines["stress_power"] = {"lhs": lhs, "rhs": rhs, "rel": _rel(lhs, rhs)}
    lhs = _elasticity_form(m, mesh, v, w)
    rhs = _elasticity_form(m_u, mesh_def, v_hat, w_hat)
    lines["elasticity_form"] = {"lhs": lhs, "rhs": rhs, "rel": _rel(lhs, rhs)}
    for name, lhs, rhs in zip(("body_work", "traction_work"),
                              fem.load_work(mesh, loads, w),
                              fem.load_work(mesh_def, loads_u, w_hat)):
        lines[name] = {"lhs": lhs, "rhs": rhs, "rel": _rel(lhs, rhs)}
    max_rel = max(entry["rel"] for entry in lines.values())
    return CovReport(lines=lines, max_rel=max_rel, inverse_residual=cfg.inverse_residual)


# ------------------------------------- strain difference to rotation distance

@dataclass
class StrainDistReport:
    """Pointwise rotation distances of the relative gradient G F_e^-1,
    sandwiched by the strain difference through the sup/inf gradient
    norms of the reference equilibrium."""

    d: np.ndarray
    strain_diff: np.ndarray
    bounds_ok: np.ndarray
    Upsilon_e: float
    upsilon_e: float

    @property
    def all_ok(self) -> bool:
        return bool(self.bounds_ok.all())


def strain_diff_to_dist(v: fem.FeField, cfg: DeformedConfig) -> StrainDistReport:
    """Convert the strain difference of v against the equilibrium u_e that
    cfg deforms by into rotation distances of the relative gradient,
    verifying the two-sided bounds at every quadrature point."""
    mesh = cfg.reference_mesh
    if v.mesh is not mesh:
        raise DimensionMismatch("fields live on different meshes")
    n = mesh.dim
    G = fem.deformation_gradients(mesh, v)
    dmin = float(np.linalg.det(G).min())
    if dmin <= 0.0:
        raise DeterminantViolation(f"det grad v = {dmin:g} <= 0")
    rel = np.einsum("eqij,eqjk->eqik", G, cfg.inverse_jacobians)
    d = tensor_core.dist_to_rotations_many(rel)
    Cdiff = np.einsum("eqki,eqkj->eqij", G, G) - cfg.C
    diff = np.sqrt(np.einsum("eqij,eqij->eq", Cdiff, Cdiff))
    Upsilon, upsilon = cfg.Upsilon, cfg.upsilon
    rn = math.sqrt(n)
    tol = 1e-12 * (1.0 + diff.max() + d.max())
    lower = upsilon**2 * d**2 <= rn * diff + tol
    upper = rn * diff <= Upsilon**2 * d * rn * (d + 2.0 * rn) + tol
    linear = upsilon**2 * d <= diff + tol
    return StrainDistReport(
        d=d,
        strain_diff=diff,
        bounds_ok=lower & upper & linear,
        Upsilon_e=Upsilon,
        upsilon_e=upsilon,
    )
