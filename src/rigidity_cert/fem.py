"""Isoparametric Q1 finite elements for dead-load hyperelasticity.

Meshes are conforming quadrilateral (2D) or hexahedral (3D) meshes with a
two-point Gauss rule per axis.  Fields store deformation maps (not
displacements): the reference state is the identity field.

The discrete energy is

    E(u) = sum_qp w detJ [ W(x, grad u) - b . u ] - sum_facet_qp w jac s . u

and residual / tangent are its exact derivatives, assembled batched over
elements.  Dirichlet data prescribes full node vectors on the facets of
the Dirichlet part of the boundary; the free unknowns are every component
of every other node.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    BoundaryMismatch,
    DeterminantViolation,
    DimensionMismatch,
    EigenFailure,
    LineSearchStall,
    MaxIterations,
    NotEquilibrium,
    SingularTangent,
)
from .harmonic import GridField

__all__ = [
    "Mesh",
    "FeField",
    "LoadSet",
    "CellLattice",
    "SolveLog",
    "SIDE_NAMES",
    "rectangle_mesh",
    "box_mesh",
    "l_shape_mesh",
    "ring_hole_cells",
    "square_ring_mesh",
    "read_mesh",
    "write_mesh",
    "deformation_gradients",
    "total_energy",
    "load_work",
    "residual",
    "residual_field",
    "solve_equilibrium",
    "material_at_points",
    "second_variation_matrix",
    "element_matrices",
    "gradient_gram_matrix",
    "scatter_matrix",
    "coercivity_constant",
    "energy_identity_check",
    "mean_gradient",
    "gradient_field",
    "l2_gradient_norm_sq",
    "facet_deformation_gradients",
]

_GP = 1.0 / math.sqrt(3.0)

_REF_CORNERS = {
    1: np.array([[-1.0], [1.0]]),
    2: np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
    3: np.array(
        [
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0],
            [1.0, 1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
            [1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0],
            [-1.0, 1.0, 1.0],
        ]
    ),
}

_LOCAL_FACETS = {
    2: [(0, 1), (1, 2), (2, 3), (3, 0)],
    3: [
        (0, 3, 2, 1),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ],
}


def shape_values(ref_points, dim):
    """Q1 shape functions at reference points, shape (nq, nnodes)."""
    corners = _REF_CORNERS[dim]
    pts = np.atleast_2d(ref_points)
    vals = np.ones((pts.shape[0], corners.shape[0]))
    for d in range(dim):
        vals *= 0.5 * (1.0 + corners[None, :, d] * pts[:, None, d])
    return vals


def shape_gradients(ref_points, dim):
    """Reference gradients of the Q1 shape functions, (nq, nnodes, dim)."""
    corners = _REF_CORNERS[dim]
    pts = np.atleast_2d(ref_points)
    nq, nn = pts.shape[0], corners.shape[0]
    grads = np.empty((nq, nn, dim))
    for j in range(dim):
        g = np.full((nq, nn), 0.5 * 1.0)
        g *= corners[None, :, j]
        for d in range(dim):
            if d == j:
                continue
            g *= 0.5 * (1.0 + corners[None, :, d] * pts[:, None, d])
        grads[:, :, j] = g
    return grads


def _gauss_points(dim):
    axes = [(-_GP, _GP)] * dim
    pts = np.array(np.meshgrid(*axes, indexing="ij")).reshape(dim, -1).T
    return pts, np.ones(len(pts))


@dataclass(frozen=True)
class CellLattice:
    """Structured bookkeeping for generated meshes: lattice cell -> element."""

    mask: np.ndarray
    elem_of_cell: np.ndarray
    spacing: float
    origin: tuple


class Mesh:
    """Conforming Q1 mesh with a Dirichlet / traction boundary partition."""

    def __init__(self, nodes, elements, dirichlet_facets, traction_facets=(), lattice=None):
        self.nodes = np.asarray(nodes, dtype=float)
        self.elements = np.asarray(elements, dtype=int)
        if self.nodes.ndim != 2 or self.nodes.shape[1] not in (2, 3):
            raise DimensionMismatch(f"nodes must be (N, 2) or (N, 3), got {self.nodes.shape}")
        self.dim = self.nodes.shape[1]
        expect = 4 if self.dim == 2 else 8
        if self.elements.ndim != 2 or self.elements.shape[1] != expect:
            raise DimensionMismatch(
                f"elements must be (M, {expect}) for dim {self.dim}, got {self.elements.shape}"
            )
        self.dirichlet_facets = tuple(tuple(int(v) for v in f) for f in dirichlet_facets)
        self.traction_facets = tuple(tuple(int(v) for v in f) for f in traction_facets)
        self.lattice = lattice
        self._qp_cache = None
        self._table_cache = {}
        self._facet_cache = {}
        self._validate()

    # ------------------------------------------------------------- topology

    def _boundary_map(self):
        """facet key -> (element, local facet index); boundary facets only.

        A boundary facet is one that no other element shares: its sorted
        node ids are a row that np.unique counts once.  The map follows
        the elements and their local facets in order.
        """
        local = _LOCAL_FACETS[self.dim]
        facets = self.elements[:, local].reshape(-1, len(local[0]))
        _, first, counts = np.unique(np.sort(facets, axis=1), axis=0,
                                     return_index=True, return_counts=True)
        once = np.sort(first[counts == 1])
        return {frozenset(facets[i].tolist()): divmod(int(i), len(local)) for i in once}

    def _validate(self):
        if len(self.dirichlet_facets) == 0:
            raise ValueError("mesh needs a nonempty Dirichlet boundary part")
        boundary = self._boundary_map()
        dkeys = {frozenset(f) for f in self.dirichlet_facets}
        tkeys = {frozenset(f) for f in self.traction_facets}
        if dkeys & tkeys:
            raise ValueError("Dirichlet and traction facets overlap")
        if not dkeys <= set(boundary) or not tkeys <= set(boundary):
            raise ValueError("a listed facet is not a boundary facet")
        if dkeys | tkeys != set(boundary):
            raise ValueError("Dirichlet + traction facets must cover the boundary")
        self._facet_parent = boundary
        dn = sorted({v for f in self.dirichlet_facets for v in f})
        self.dirichlet_nodes = np.array(dn, dtype=int)
        if np.any(self.quadrature()[3] <= 0.0):
            raise ValueError("mesh has non-positive jacobians")

    # ----------------------------------------------------------- quadrature

    def quadrature(self):
        """(qp physical coords, physical shape gradients, weights, detJ, shape values).

        coords: (M, q, n), grads: (M, q, k, n), wdet: (M, q), detJ: (M, q),
        nvals: (q, k).  Cached; treat as read-only.
        """
        if self._qp_cache is None:
            pts, w = _gauss_points(self.dim)
            nvals = shape_values(pts, self.dim)
            dN = shape_gradients(pts, self.dim)
            X = self.nodes[self.elements]  # (M, k, n)
            J = np.einsum("eai,qaj->eqij", X, dN)
            detJ = np.linalg.det(J)
            invJ = np.linalg.inv(J)
            grads = np.einsum("qaj,eqji->eqai", dN, invJ)
            coords = np.einsum("qa,eai->eqi", nvals, X)
            wdet = w[None, :] * detJ
            self._qp_cache = (coords, grads, wdet, detJ, nvals)
        return self._qp_cache

    def _gradient_table(self, at="gauss"):
        """Physical shape gradients g[a, j, q, e] at the Gauss points
        (at="gauss") or at the element centre (at="centre", q = 1), with
        the elements on the contiguous last axis, for the point-major
        kernels.  Cached; treat as read-only.
        """
        if at not in self._table_cache:
            if at == "gauss":
                grads = self.quadrature()[1]
            else:
                dN = shape_gradients(np.zeros((1, self.dim)), self.dim)
                J = np.einsum("eai,qaj->eqij", self.nodes[self.elements], dN)
                grads = np.einsum("qaj,eqji->eqai", dN, np.linalg.inv(J))
            self._table_cache[at] = np.ascontiguousarray(grads.transpose(2, 3, 1, 0))
        return self._table_cache[at]

    def facet_quadrature(self, facets):
        """Boundary quadrature for a facet list.

        Returns (coords, nvals, jac, normals, parents):
        coords (T, qf, n), nvals (T, qf, nnodes_facet), jac (T, qf) the area
        element, normals (T, qf, n) outward units, parents (T,) element ids.
        """
        key = tuple(facets)
        if key in self._facet_cache:
            return self._facet_cache[key]
        fdim = self.dim - 1
        t, _ = _gauss_points(fdim)
        fvals = shape_values(t, fdim)
        fgrads = shape_gradients(t, fdim)  # (qf, 2^fdim, fdim)
        coords_l, jac_l, norm_l, parents = [], [], [], []
        for f in facets:
            fk = frozenset(f)
            if fk not in self._facet_parent:
                raise ValueError(f"facet {f} is not a boundary facet")
            e, _ = self._facet_parent[fk]
            parents.append(e)
            xf = self.nodes[list(f)]  # (fn, n)
            pts = fvals @ xf
            tau = np.einsum("qaj,ai->qji", fgrads, xf)  # (qf, fdim, n)
            if self.dim == 2:
                tangent = tau[:, 0, :]
                nrm = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
            else:
                nrm = np.cross(tau[:, 0, :], tau[:, 1, :])
            jac = np.linalg.norm(nrm, axis=1)
            if np.any(jac <= 0):
                raise ValueError(f"degenerate facet {f}")
            nhat = nrm / jac[:, None]
            centroid = self.nodes[self.elements[e]].mean(axis=0)
            if np.dot(nhat[0], pts[0] - centroid) < 0.0:
                nhat = -nhat
            coords_l.append(pts)
            jac_l.append(jac)
            norm_l.append(nhat)
        out = (
            np.array(coords_l),
            np.broadcast_to(fvals, (len(facets),) + fvals.shape).copy(),
            np.array(jac_l),
            np.array(norm_l),
            np.array(parents, dtype=int),
        )
        self._facet_cache[key] = out
        return out

    def facet_reference_points(self, facets):
        """Reference coordinates (in the parent element) of facet quad points."""
        fvals = shape_values(_gauss_points(self.dim - 1)[0], self.dim - 1)
        refs, parents = [], []
        for f in facets:
            e, lf = self._facet_parent[frozenset(f)]
            conn = list(self.elements[e])
            local = [conn.index(v) for v in f]
            corners = _REF_CORNERS[self.dim][local]
            refs.append(fvals @ corners)
            parents.append(e)
        return np.array(refs), np.array(parents, dtype=int)

    # ------------------------------------------------------------- identity

    def mesh_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.nodes.tobytes())
        h.update(self.elements.astype(np.int64).tobytes())
        h.update(repr(sorted(self.dirichlet_facets)).encode())
        h.update(repr(sorted(self.traction_facets)).encode())
        return h.hexdigest()

    @property
    def nnodes(self) -> int:
        return self.nodes.shape[0]

    def free_mask(self) -> np.ndarray:
        """(N, n) bool mask of unknown components."""
        m = np.ones((self.nnodes, self.dim), dtype=bool)
        m[self.dirichlet_nodes] = False
        return m

    def volume(self) -> float:
        return float(self.quadrature()[2].sum())


@dataclass
class FeField:
    """Nodal vector field on a mesh; values[i] is the image of node i."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.nnodes, self.mesh.dim):
            raise DimensionMismatch(
                f"field values {self.values.shape} do not match mesh "
                f"({self.mesh.nnodes}, {self.mesh.dim})"
            )

    @classmethod
    def from_function(cls, mesh, fn):
        return cls(mesh, np.array([np.asarray(fn(x), dtype=float) for x in mesh.nodes]))

    @classmethod
    def identity(cls, mesh):
        return cls(mesh, mesh.nodes.copy())

    def copy(self):
        return FeField(self.mesh, self.values.copy())


@dataclass
class LoadSet:
    """Dead loads: per-quadrature body force, per-facet-quadrature traction,
    and full Dirichlet node vectors."""

    body: np.ndarray | None = None          # (M, q, n)
    traction: np.ndarray | None = None      # (T, qf, n), aligned with traction_facets
    dirichlet: dict = field(default_factory=dict)   # node id -> (n,) vector

    @classmethod
    def build(cls, mesh, body=None, traction=None, dirichlet=None):
        """Assemble load arrays from callables or constant vectors.

        dirichlet is mandatory (a callable x -> vector, defaulting to the
        identity map would hide errors).  body / traction may be None,
        constants, or callables of position.
        """
        coords = mesh.quadrature()[0]
        b = None
        if body is not None:
            b = _eval_vector(body, coords)
        t = None
        if mesh.traction_facets:
            fcoords = mesh.facet_quadrature(mesh.traction_facets)[0]
            t = _eval_vector(traction, fcoords) if traction is not None else np.zeros(fcoords.shape)
        if dirichlet is None:
            raise ValueError("LoadSet.build: dirichlet data is required")
        dvals = {
            int(i): np.asarray(dirichlet(mesh.nodes[i]), dtype=float)
            for i in mesh.dirichlet_nodes
        }
        return cls(body=b, traction=t, dirichlet=dvals)

    def dirichlet_ok(self, u: FeField, tol=1e-12) -> bool:
        for i, v in self.dirichlet.items():
            if np.max(np.abs(u.values[i] - v)) > tol * (1.0 + np.max(np.abs(v))):
                return False
        return True


def _eval_vector(spec, coords):
    if callable(spec):
        flat = coords.reshape(-1, coords.shape[-1])
        vals = np.array([np.asarray(spec(x), dtype=float) for x in flat])
        return vals.reshape(coords.shape)
    vec = np.asarray(spec, dtype=float)
    return np.broadcast_to(vec, coords.shape).copy()


# ----------------------------------------------------------------- assembly

def deformation_gradients(mesh: Mesh, u) -> np.ndarray:
    """grad u at every quadrature point, shape (M, q, n, n)."""
    return _gradients(mesh, u, mesh._gradient_table())


def _gradients(mesh, u, g):
    """grad u at the points of a shape-gradient table g[a, j, q, e], as
    (M, q, n, n).

    Point-major, with the elements on the contiguous axis: the sum of
    u_i(a) g_j(a) over the element nodes a runs left to right onto zeros,
    as in the einsum eai,eqaj->eqij it replaces, so every value is that
    einsum's bit for bit.
    """
    vals = u.values if isinstance(u, FeField) else np.asarray(u)
    X = np.take(np.ascontiguousarray(vals.T), mesh.elements.T, axis=1)  # X[i, a, e]
    F = sum(X[:, a, None, None] * g[a, None] for a in range(len(g)))  # F[i, j, q, e]
    return np.ascontiguousarray(F.transpose(3, 2, 0, 1))


def _check_dets(F, floor=0.0):
    det = np.linalg.det(F)
    bad = det <= floor
    if np.any(bad):
        worst = float(det.min())
        raise DeterminantViolation(f"det grad u = {worst:g} <= {floor:g} at a quadrature point")
    return det


def material_at_points(m, mesh: Mesh, u, quantity) -> np.ndarray:
    """m's energy, stress or elasticity (quantity) at grad u, at every
    quadrature point of mesh: (M, q), (M, q, n, n) or (M, q, n, n, n, n).

    The material is evaluated once over all M*q points, in quadrature
    order, after det grad u > 0 is checked at each of them.
    """
    F = deformation_gradients(mesh, u)
    _check_dets(F)
    M, q, n, _ = F.shape
    coords = mesh.quadrature()[0].reshape(-1, n)
    vals = getattr(m, f"{quantity}_many")(coords, F.reshape(-1, n, n))
    return vals.reshape((M, q) + vals.shape[1:])


def total_energy(m, mesh: Mesh, loads: LoadSet, u) -> float:
    """Stored energy minus load work of a deformation field."""
    W = material_at_points(m, mesh, u, "energy")
    body, traction = load_work(mesh, loads, u)
    return float(np.sum(W * mesh.quadrature()[2])) - body - traction


def load_work(mesh: Mesh, loads: LoadSet, u) -> tuple[float, float]:
    """(body work, traction work) of the dead loads on a field; 0.0 for
    a load that is absent."""
    vals = u.values if isinstance(u, FeField) else np.asarray(u)
    body = traction = 0.0
    if loads.body is not None:
        _, _, wdet, _, nvals = mesh.quadrature()
        uq = np.einsum("qa,eai->eqi", nvals, vals[mesh.elements])
        body = float(np.sum(wdet * np.einsum("eqi,eqi->eq", loads.body, uq)))
    if loads.traction is not None and mesh.traction_facets:
        _, fvals, jac, _, _ = mesh.facet_quadrature(mesh.traction_facets)
        fidx = np.array([list(f) for f in mesh.traction_facets], dtype=int)
        ufq = np.einsum("tqa,tai->tqi", fvals, vals[fidx])
        traction = float(np.sum(jac * np.einsum("tqi,tqi->tq", loads.traction, ufq)))
    return body, traction


def residual_field(m, mesh: Mesh, loads: LoadSet, u) -> np.ndarray:
    """dE/du as a full (N, n) nodal array (Dirichlet rows included)."""
    S = material_at_points(m, mesh, u, "stress")
    _, _, wdet, _, nvals = mesh.quadrature()
    M, q, n, _ = S.shape
    g = mesh._gradient_table()
    WS = wdet.T * np.ascontiguousarray(S.transpose(2, 3, 1, 0))
    # eq,eqik,eqak->eai point-major: at each point, the sum over k of
    # (wdet S)_ik g_ak left to right; then the points, in order, onto zeros
    per_point = sum(WS[None, :, k] * g[:, None, k] for k in range(n))  # [a, i, q, e]
    r = sum(per_point[:, :, p] for p in range(q))
    r_el = np.ascontiguousarray(r.transpose(2, 0, 1))
    if loads.body is not None:
        r_el -= np.einsum("eq,qa,eqi->eai", wdet, nvals, loads.body)
    R = np.zeros((mesh.nnodes, n))
    np.add.at(R, mesh.elements, r_el)
    if loads.traction is not None and mesh.traction_facets:
        _, fvals, jac, _, _ = mesh.facet_quadrature(mesh.traction_facets)
        fidx = np.array([list(f) for f in mesh.traction_facets], dtype=int)
        r_f = -np.einsum("tq,tqa,tqi->tai", jac, fvals, loads.traction)
        np.add.at(R, fidx, r_f)
    return R


def residual(m, mesh: Mesh, loads: LoadSet, u) -> np.ndarray:
    """Residual restricted to the free components, flattened."""
    return residual_field(m, mesh, loads, u)[mesh.free_mask()]


def second_variation_matrix(m, mesh: Mesh, u):
    """Tangent stiffness d2E/du2 at state u over the free dofs, sparse CSR."""
    A = material_at_points(m, mesh, u, "elasticity")
    return scatter_matrix(mesh, element_matrices(mesh, A), free_only=True)


def element_matrices(mesh: Mesh, A) -> np.ndarray:
    """Element matrices of a fourth-order tensor field A (M, q, n, n, n, n)
    at the quadrature points: Ke[e, a, i, b, j] = sum_q wdet g[a, k]
    A[i, k, j, l] g[b, l], with g each element's own shape gradients, in
    the (M, k, n, k, n) layout that scatter_matrix takes.

    Two stacked matrix products: grads @ A with A reordered to (M, q, k,
    i j l), then the (q, l) contraction against wdet * grads.  A is made
    C-ordered after the reorder, so every element's sums run in one order
    whatever layout A arrives in and however many elements there are.
    """
    _, grads, wdet, _, _ = mesh.quadrature()
    M, q, k, n = grads.shape
    A = np.asarray(A, dtype=float)
    if A.shape != (M, q, n, n, n, n):
        raise DimensionMismatch(
            f"element_matrices: A must be {(M, q, n, n, n, n)}, got {A.shape}"
        )
    Ak = np.ascontiguousarray(A.transpose(0, 1, 3, 2, 4, 5)).reshape(M, q, n, n**3)
    # gA[e, q, a, i, j, l] = sum_k g[a, k] A[i, k, j, l]
    gA = (grads @ Ak).reshape(M, q, k, n, n, n)
    gA = np.ascontiguousarray(gA.transpose(0, 2, 3, 4, 1, 5)).reshape(M, k * n * n, q * n)
    wg = (wdet[:, :, None, None] * grads).transpose(0, 1, 3, 2).reshape(M, q * n, k)
    return (gA @ wg).reshape(M, k, n, n, k).transpose(0, 1, 2, 4, 3)


def gradient_gram_matrix(mesh: Mesh):
    """Gram matrix of grad z : grad z over the free dofs."""
    _, grads, wdet, _, _ = mesh.quadrature()
    n = mesh.dim
    Kg = np.einsum("eq,eqak,eqbk->eab", wdet, grads, grads)
    Ke = np.einsum("eab,ij->eaibj", Kg, np.eye(n))
    return scatter_matrix(mesh, Ke, free_only=True)


def scatter_matrix(mesh, Ke, free_only):
    """Sparse CSR assembly of element matrices Ke (M, k, n, k, n) over the
    nodal dofs; free_only restricts it to the free dofs."""
    M, k = mesh.elements.shape
    n = mesh.dim
    dof = (mesh.elements[:, :, None] * n + np.arange(n)[None, None, :]).reshape(M, k * n)
    rows = np.repeat(dof, k * n, axis=1).ravel()
    cols = np.tile(dof, (1, k * n)).ravel()
    vals = Ke.reshape(M, k * n, k * n).ravel()
    K = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(mesh.nnodes * n, mesh.nnodes * n)
    ).tocsr()
    if not free_only:
        return K
    free = mesh.free_mask().ravel()
    idx = np.flatnonzero(free)
    return K[np.ix_(idx, idx)].tocsr()


# coercivity_constant: relative width of the inertia bracket handed to
# shift-invert, which is also the tolerance of the loose Lanczos whose
# Rayleigh quotient bounds the bracket from above and the relative gap of
# the trial shift below that bound; the budget of doubling steps and of
# the bisections kept for when the trial shift is not positive definite;
# and the relative margin of the closing inertia check
_SLICE_RTOL = 1e-3
_SLICE_STEPS = 64
_SLICE_BISECTIONS = 40
_CONFIRM_RTOL = 1e-12


def _positive_definite_lu(A):
    """SuperLU factors of the symmetric sparse A if A is positive definite,
    else None.

    The pivots stay on the diagonal of a symmetric fill-reducing ordering,
    so P A P^T = L D L^T and, by Sylvester's law of inertia, A is positive
    definite iff every pivot is > 0.  An exactly singular A is not
    positive definite.  A row pivot off the diagonal leaves the pivots no
    inertia and raises EigenFailure.
    """
    try:
        lu = scipy.sparse.linalg.splu(
            A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigenFailure("sparse LU pivoted off the diagonal; its pivots give no inertia")
    return lu if np.all(lu.U.diagonal() > 0) else None


def coercivity_constant(M_mat, G_mat) -> float:
    """Smallest generalized eigenvalue of the symmetric pencil (M, G), G
    positive definite, certified by inertia.

    Spectrum slicing brackets it from below.  Stepping down from the
    smallest diagonal quotient M_ii / G_ii (a Rayleigh quotient, so an
    upper bound hi) gives a first shift lo with M - lo G positive definite
    by its LDL^T inertia, so no eigenvalue lies below lo.  A loose
    shift-invert Lanczos at lo lowers hi to the Rayleigh quotient of its
    Ritz vector, and the trial shift just below hi, factored, becomes lo
    if it is positive definite; if not, it becomes hi, and bisecting on
    the inertia narrows [lo, hi].  Rayleigh quotients only choose where to
    factor: every lo is a positive definite factorization.  Shift-invert
    Lanczos at lo, from a fixed start vector, then converges to the
    smallest eigenvalue lam (a 1-dof pencil is its quotient).  lam
    is returned only if lam >= lo and M - (lam - tau) G is positive
    definite too, tau a 1e-12 relative margin, i.e. only if no eigenvalue
    lies below lam - tau.  An empty or non-finite pencil, and anything
    unconfirmed, raises EigenFailure.
    """
    M = scipy.sparse.csc_matrix(0.5 * (M_mat + M_mat.T))
    G = scipy.sparse.csc_matrix(0.5 * (G_mat + G_mat.T))
    nd = M.shape[0]
    if nd == 0:
        raise EigenFailure("empty pencil: no free dof to take an eigenvalue over")
    if not (np.all(np.isfinite(M.data)) and np.all(np.isfinite(G.data))):
        raise EigenFailure("pencil has a non-finite entry")
    g = G.diagonal()
    if not np.all(g > 0):
        raise EigenFailure("G has a diagonal entry <= 0, so it is not positive definite")
    ratios = M.diagonal() / g
    scale = float(np.abs(ratios).max()) or 1.0
    hi = float(ratios.min())
    try:
        if nd == 1:
            lo = lam = hi
        else:
            step = max(abs(hi), _SLICE_RTOL * scale)
            for _ in range(_SLICE_STEPS):
                lo = hi - step
                lu = _positive_definite_lu(M - lo * G)
                if lu is not None:
                    break
                step *= 2.0
            else:
                raise EigenFailure(
                    f"no positive definite shift M - s G within {_SLICE_STEPS} "
                    f"doubling steps below {hi!r}"
                )
            v0 = np.random.default_rng(0).standard_normal(nd)

            def lanczos(shift, shift_lu, **kwargs):
                op = scipy.sparse.linalg.LinearOperator((nd, nd), matvec=shift_lu.solve,
                                                        dtype=float)
                return scipy.sparse.linalg.eigsh(M, k=1, M=G, sigma=shift, which="LM",
                                                 OPinv=op, v0=v0, **kwargs)

            # any vector's Rayleigh quotient bounds lam from above
            _, vecs = lanczos(lo, lu, tol=_SLICE_RTOL)
            x = vecs[:, 0]
            hi = min(hi, float(x @ (M @ x)) / float(x @ (G @ x)))
            trial = hi - _SLICE_RTOL * abs(hi)
            trial_lu = _positive_definite_lu(M - trial * G)
            if trial_lu is not None:
                lo, lu = trial, trial_lu
            else:
                hi = trial
                # M - lo G stays positive definite and M - hi G does not
                for _ in range(_SLICE_BISECTIONS):
                    if hi - lo <= _SLICE_RTOL * max(abs(lo), abs(hi)):
                        break
                    mid = 0.5 * (lo + hi)
                    mid_lu = _positive_definite_lu(M - mid * G)
                    if mid_lu is None:
                        hi = mid
                    else:
                        lo, lu = mid, mid_lu
            lam = float(lanczos(lo, lu, return_eigenvectors=False)[0])
        tau = _CONFIRM_RTOL * max(abs(lam), scale)
        if not lam >= lo or _positive_definite_lu(M - (lam - tau) * G) is None:
            raise EigenFailure(
                f"eigenvalue {lam!r} not confirmed: an eigenvalue lies below {lam - tau!r} "
                f"or the result is below the slicing bound {lo!r}"
            )
    except (RuntimeError, ArithmeticError) as exc:
        raise EigenFailure(f"generalized eigensolve failed: {exc}") from exc
    return lam


@dataclass
class SolveLog:
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def solve_equilibrium(m, mesh: Mesh, loads: LoadSet, u0: FeField,
                      tol=1e-10, max_iter=50) -> tuple[FeField, SolveLog]:
    """Newton iteration with a backtracking, determinant-guarded line search.

    u0 must satisfy the Dirichlet data; the Dirichlet components never
    move.  Steps are halved until det grad u > 0 everywhere and the energy
    satisfies an Armijo decrease; a step below 1e-12 stalls out.  A stall
    (LineSearchStall) or a spent budget (MaxIterations) raises with the
    SolveLog so far as its log.
    """
    if not loads.dirichlet_ok(u0, tol=1e-10):
        raise BoundaryMismatch("solve_equilibrium: u0 violates the Dirichlet data")
    u = u0.copy()
    free = mesh.free_mask()
    log = SolveLog()
    r = residual(m, mesh, loads, u)
    log.residual_history.append(float(np.max(np.abs(r))))
    log.energy_history.append(total_energy(m, mesh, loads, u))
    for it in range(max_iter):
        if log.residual_history[-1] <= tol:
            log.converged = True
            log.iterations = it
            return u, log
        K = second_variation_matrix(m, mesh, u)
        try:
            delta = scipy.sparse.linalg.spsolve(K, -r)
        except RuntimeError as exc:
            raise SingularTangent(f"tangent solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise SingularTangent("tangent solve returned non-finite step")
        phi0 = log.energy_history[-1]
        # the assembled energy cannot be compared below roundoff, so the
        # decrease tests carry an absolute allowance; without it the last
        # Newton steps get rejected and the iteration creeps
        noise = 1e-14 * (1.0 + abs(phi0))

        def backtrack(direction, slope):
            t = 1.0
            while t >= 1e-12:
                cand = u.copy()
                cand.values[free] += t * direction
                try:
                    val = total_energy(m, mesh, loads, cand)
                except DeterminantViolation:
                    t *= 0.5
                    continue
                ok = (
                    val <= phi0 + 1e-4 * t * slope + noise
                    if slope < 0
                    else val < phi0 + noise
                )
                if ok:
                    return cand, val
                t *= 0.5
            return None

        # the Newton direction first; outside the convex basin it may not
        # descend, then plain steepest descent restores global progress
        step = backtrack(delta, float(np.dot(r, delta)))
        if step is None:
            step = backtrack(-r, -float(np.dot(r, r)))
        if step is None:
            log.iterations = it
            raise LineSearchStall(
                f"line search stalled at iteration {it}, residual "
                f"{log.residual_history[-1]:.3e}", log,
            )
        u, phi = step
        r = residual(m, mesh, loads, u)
        log.residual_history.append(float(np.max(np.abs(r))))
        log.energy_history.append(phi)
    log.iterations = max_iter
    if log.residual_history[-1] <= tol:
        log.converged = True
        return u, log
    raise MaxIterations(
        f"Newton did not reach tol {tol:g} in {max_iter} iterations "
        f"(residual {log.residual_history[-1]:.3e})", log,
    )


def energy_identity_check(m, mesh: Mesh, loads: LoadSet, u_e: FeField, v: FeField,
                          residual_tol=1e-9) -> float:
    """|[E(v) - E(u_e)] - int(W(grad v) - W(grad u_e) - S(grad u_e):grad w)|.

    The identity holds because the load terms are linear and u_e has zero
    residual against the free directions; u_e is verified to be an
    equilibrium first.
    """
    r = residual(m, mesh, loads, u_e)
    if np.max(np.abs(r)) > residual_tol:
        raise NotEquilibrium(
            f"u_e residual {np.max(np.abs(r)):.3e} exceeds {residual_tol:g}"
        )
    We = material_at_points(m, mesh, u_e, "energy")
    Wv = material_at_points(m, mesh, v, "energy")
    Se = material_at_points(m, mesh, u_e, "stress")
    Gw = deformation_gradients(mesh, v.values - u_e.values)
    inner = Wv - We - np.einsum("eqik,eqik->eq", Se, Gw)
    rhs = float(np.sum(mesh.quadrature()[2] * inner))
    lhs = total_energy(m, mesh, loads, v) - total_energy(m, mesh, loads, u_e)
    return abs(lhs - rhs)


def mean_gradient(mesh: Mesh, w) -> np.ndarray:
    """Average of grad w over the body (volume-weighted quadrature mean)."""
    wdet = mesh.quadrature()[2]
    G = deformation_gradients(mesh, w)
    return np.einsum("eq,eqij->ij", wdet, G) / float(wdet.sum())


def l2_gradient_norm_sq(mesh: Mesh, w) -> float:
    """int |grad w|^2 dx by element quadrature."""
    wdet = mesh.quadrature()[2]
    G = deformation_gradients(mesh, w)
    return float(np.sum(wdet * np.einsum("eqij,eqij->eq", G, G)))


def gradient_field(mesh: Mesh, u) -> GridField:
    """Element-center deformation gradients as a lattice cell field.

    Requires the mesh to carry structured lattice bookkeeping (generated
    meshes with square or cube cells do).
    """
    if mesh.lattice is None:
        raise DimensionMismatch("gradient_field needs a structured mesh lattice")
    G = _gradients(mesh, u, mesh._gradient_table(at="centre"))[:, 0]
    lat = mesh.lattice
    out = np.zeros(lat.mask.shape + (mesh.dim, mesh.dim))
    out[lat.mask] = G[lat.elem_of_cell[lat.mask]]
    return GridField(lat.mask, out, lat.spacing, lat.origin)


def facet_deformation_gradients(mesh: Mesh, u, facets) -> np.ndarray:
    """grad u at the quadrature points of the given boundary facets."""
    vals = u.values if isinstance(u, FeField) else np.asarray(u)
    refs, parents = mesh.facet_reference_points(facets)
    out = []
    for ref, e in zip(refs, parents):
        dN = shape_gradients(ref, mesh.dim)
        X = mesh.nodes[mesh.elements[e]]
        J = np.einsum("ai,qaj->qij", X, dN)
        invJ = np.linalg.inv(J)
        grads = np.einsum("qaj,qji->qai", dN, invJ)
        out.append(np.einsum("ai,qaj->qij", vals[mesh.elements[e]], grads))
    return np.array(out)


# --------------------------------------------------------------- generators

# the boundary side names of a generated mesh, by dimension: axis 0 low and
# high, axis 1 low and high, ..., then facets against a masked-out cell
SIDE_NAMES = {2: ("left", "right", "bottom", "top", "inner"),
              3: ("x0", "x1", "y0", "y1", "z0", "z1", "inner")}


def _lattice_mesh(counts, lengths, mask, dirichlet, traction, origin):
    """Q1 mesh of the cells of a structured lattice that mask keeps.

    Node (i, j[, k]) has id i + (nx+1) (j + (ny+1) k) before the unused
    nodes are dropped.  Elements follow the kept cells with the last axis
    slowest; boundary facets follow them with the first axis slowest,
    side by side (axis 0 low, axis 0 high, axis 1 low, ...), grouped by
    side name, with "inner" for facets against a masked-out cell.
    dirichlet is 'all' or side names; traction is 'rest' or side names.
    The mesh carries a CellLattice when every axis has the same cell size.
    """
    dim = len(counts)
    axes = [origin[d] + np.linspace(0.0, lengths[d], counts[d] + 1) for d in range(dim)]
    nodes = np.stack([g.ravel(order="F") for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    stride = np.cumprod([1] + [n + 1 for n in counts[:-1]])
    offsets = ((_REF_CORNERS[dim] + 1) // 2).astype(int)  # (k, dim) corner offsets
    # the corners on the low face of the last axis, read on the other axes,
    # are the Q1 corners one dimension down in reference order: a facet's
    # corners on the axes it spans
    facet_offsets = offsets[: 2 ** (dim - 1), : dim - 1]

    cells = np.argwhere(mask.T)[:, ::-1]
    elements = (cells[:, None, :] + offsets) @ stride
    elem_of_cell = np.full(mask.shape, -1, dtype=int)
    elem_of_cell[tuple(cells.T)] = np.arange(len(cells))

    cells = np.argwhere(mask)
    padded = np.pad(mask, 1)
    names = SIDE_NAMES[dim]
    facets, side, is_open = [], [], []
    for d in range(dim):
        for s in (0, 1):
            nb = cells.copy()
            nb[:, d] += 2 * s - 1
            is_open.append(~padded[tuple(nb.T + 1)])
            side.append(np.where((nb[:, d] < 0) | (nb[:, d] >= counts[d]), 2 * d + s, 2 * dim))
            facets.append((cells[:, None, :] + np.insert(facet_offsets, d, s, axis=1)) @ stride)
    is_open = np.stack(is_open, axis=1).ravel()
    side = np.stack(side, axis=1).ravel()[is_open]
    facets = np.stack(facets, axis=1).reshape(-1, 2 ** (dim - 1))[is_open]

    used = np.unique(elements)
    remap = np.full(len(nodes), -1)
    remap[used] = np.arange(len(used))
    sides = {name: remap[facets[side == i]] for i, name in enumerate(names)}
    present = [name for name in names if len(sides[name])]
    dnames = present if dirichlet == "all" else list(dirichlet)
    tnames = [s for s in present if s not in dnames] if traction == "rest" else list(traction)
    h = lengths[0] / counts[0]
    lattice = None
    if all(abs(L / n - h) <= 1e-12 * (1 + abs(h)) for L, n in zip(lengths, counts)):
        lattice = CellLattice(mask, elem_of_cell, h, tuple(origin))
    return Mesh(
        nodes[used],
        remap[elements],
        [f for s in dnames for f in sides[s]],
        [f for s in tnames for f in sides[s]],
        lattice=lattice,
    )


def rectangle_mesh(nx, ny, width=1.0, height=1.0, dirichlet="all", traction="rest"):
    """Structured quad mesh of [0,width] x [0,height].

    dirichlet: 'all' or an iterable of side names from
    {'left','right','bottom','top'}; remaining boundary sides become the
    traction part when traction='rest', else pass side names explicitly.
    """
    mask = np.ones((nx, ny), dtype=bool)
    return _lattice_mesh((nx, ny), (width, height), mask, dirichlet, traction, (0.0, 0.0))


def l_shape_mesh(n, size=1.0, dirichlet="all", traction="rest"):
    """L-shaped domain: unit square minus its upper-right quadrant."""
    if n % 2:
        raise ValueError("l_shape_mesh needs an even cell count")
    ix, iy = np.indices((n, n))
    mask = ~((ix >= n // 2) & (iy >= n // 2))
    return _lattice_mesh((n, n), (size, size), mask, dirichlet, traction, (0.0, 0.0))


def ring_hole_cells(n, hole):
    """Side, in cells, of the hole of an n x n square_ring_mesh: the
    fraction hole of the side, rounded to whole cells."""
    return n - 2 * int(round(n * (1 - hole) / 2))


def square_ring_mesh(n, size=1.0, hole=0.5, dirichlet="all", traction="rest"):
    """Square annulus: a square with a centered square hole (polygonal ring)."""
    if n % 4:
        raise ValueError("square_ring_mesh needs n divisible by 4")
    width = ring_hole_cells(n, hole)
    if not 0 < width < n:
        raise ValueError(f"square_ring_mesh: a hole of {hole:g} is {width} of {n} cells wide")
    lo, hi = (n - width) // 2, (n + width) // 2
    ix, iy = np.indices((n, n))
    mask = ~((lo <= ix) & (ix < hi) & (lo <= iy) & (iy < hi))
    return _lattice_mesh((n, n), (size, size), mask, dirichlet, traction, (0.0, 0.0))


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), dirichlet="all"):
    """Structured hex mesh of a box; dirichlet='all' or named faces among
    {'x0','x1','y0','y1','z0','z1'} (the rest become traction facets)."""
    mask = np.ones((nx, ny, nz), dtype=bool)
    return _lattice_mesh((nx, ny, nz), lengths, mask, dirichlet, "rest", (0.0, 0.0, 0.0))


# ------------------------------------------------------------------ file io

def write_mesh(mesh: Mesh, path):
    lines = ["mesh 1", f"dim {mesh.dim}", f"nodes {mesh.nnodes}"]
    for x in mesh.nodes:
        lines.append(" ".join(repr(float(c)) for c in x))
    lines.append(f"elements {mesh.elements.shape[0]} {mesh.elements.shape[1]}")
    for e in mesh.elements:
        lines.append(" ".join(str(int(v)) for v in e))
    lines.append(f"dirichlet {len(mesh.dirichlet_facets)}")
    for f in mesh.dirichlet_facets:
        lines.append(" ".join(str(v) for v in f))
    lines.append(f"traction {len(mesh.traction_facets)}")
    for f in mesh.traction_facets:
        lines.append(" ".join(str(v) for v in f))
    from pathlib import Path

    Path(path).write_text("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    """Parse a file written by write_mesh.

    A malformed file raises DimensionMismatch naming its 1-based line: a
    missing or wrong section header, a bad count or number, or a file that
    ends before the counts say it should.
    """
    from pathlib import Path

    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "mesh 1":
        raise DimensionMismatch(f"{path} is not a mesh file")

    def bad(row, msg):
        return DimensionMismatch(f"{path}, line {row + 1}: {msg}")

    def tokens(row, what):
        if row >= len(lines):
            raise bad(row, f"file ends before {what}")
        return lines[row].split()

    def header(row, key, arity):
        toks = tokens(row, f"the '{key}' line")
        if not toks or toks[0] != key:
            raise bad(row, f"expected a '{key}' line, got {lines[row].strip()!r}")
        try:
            counts = [int(t) for t in toks[1:]]
        except ValueError:
            counts = []
        if len(counts) != arity or min(counts) < 0:
            raise bad(row, f"'{key}' needs {arity} non-negative integer count(s)")
        return counts

    def block(row, count, key, convert, width=None):
        out = []
        for i in range(count):
            try:
                entry = [convert(t) for t in tokens(row + i, f"{key} entry {i + 1} of {count}")]
            except ValueError as exc:
                raise bad(row + i, f"bad {key} entry: {exc}") from None
            if width is not None and len(entry) != width:
                raise bad(row + i, f"{key} entry has {len(entry)} values, expected {width}")
            out.append(entry)
        return out

    (dim,) = header(1, "dim", 1)
    (count,) = header(2, "nodes", 1)
    row = 3
    nodes = block(row, count, "nodes", float, width=dim)
    row += count
    mcount, width = header(row, "elements", 2)
    row += 1
    elements = block(row, mcount, "elements", int, width=width)
    row += mcount
    (dcount,) = header(row, "dirichlet", 1)
    row += 1
    dfacets = [tuple(f) for f in block(row, dcount, "dirichlet", int)]
    row += dcount
    (tcount,) = header(row, "traction", 1)
    row += 1
    tfacets = [tuple(f) for f in block(row, tcount, "traction", int)]
    return Mesh(nodes, elements, dfacets, tfacets)
