"""Isoparametric Q1 finite elements for dead-load hyperelasticity.

Meshes are conforming quadrilateral (2D) or hexahedral (3D) meshes with a
two-point Gauss rule per axis.  Fields store deformation maps (not
displacements): the reference state is the identity field.

The discrete energy is

    E(u) = sum_qp w detJ [ W(grad u) - b . u ] - sum_facet_qp w jac s . u

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
from .tensor_core import det_many

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
    "SparseLU",
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
    # the 2-point Gauss weights are all 1, so a point weighs its detJ alone
    axes = [(-_GP, _GP)] * dim
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(dim, -1).T


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
        if not np.all(np.isfinite(self.nodes)):
            raise DimensionMismatch("node coordinates must be finite")
        self.dim = self.nodes.shape[1]
        expect = 4 if self.dim == 2 else 8
        if self.elements.ndim != 2 or self.elements.shape[1] != expect:
            raise DimensionMismatch(
                f"elements must be (M, {expect}) for dim {self.dim}, got {self.elements.shape}"
            )
        self.dirichlet_facets = tuple(tuple(int(v) for v in f) for f in dirichlet_facets)
        self.traction_facets = tuple(tuple(int(v) for v in f) for f in traction_facets)
        facet_ids = [v for f in self.dirichlet_facets + self.traction_facets for v in f]
        ids = np.concatenate([self.elements.ravel(), np.array(facet_ids, dtype=int)])
        out = ids[(ids < 0) | (ids >= len(self.nodes))]
        if out.size:
            raise DimensionMismatch(f"node index {out[0]} outside [0, {len(self.nodes)})")
        self.lattice = lattice
        self._qp_cache = None
        self._table_cache = {}
        self._facet_cache = {}
        self._plan_cache = {}
        self._order_cache = None
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
        if len(dkeys) + len(tkeys) != len(self.dirichlet_facets) + len(self.traction_facets):
            raise ValueError("a facet is listed twice")
        if dkeys & tkeys:
            raise ValueError("Dirichlet and traction facets overlap")
        if not dkeys <= set(boundary) or not tkeys <= set(boundary):
            raise ValueError("a listed facet is not a boundary facet")
        if dkeys | tkeys != set(boundary):
            raise ValueError("Dirichlet + traction facets must cover the boundary")
        self._facet_parent = boundary
        dn = sorted({v for f in self.dirichlet_facets for v in f})
        self.dirichlet_nodes = np.array(dn, dtype=int)
        if not np.all(self.quadrature()[2] > 0.0):
            raise ValueError("mesh has non-positive jacobians")

    # ----------------------------------------------------------- quadrature

    def quadrature(self):
        """(qp physical coords, physical shape gradients, weights, shape values).

        coords: (M, q, n), grads: (M, q, k, n), wdet: (M, q) the detJ times
        the Gauss weights, all 1, nvals: (q, k).  Cached; treat as read-only.
        """
        if self._qp_cache is None:
            pts = _gauss_points(self.dim)
            nvals = shape_values(pts, self.dim)
            dN = shape_gradients(pts, self.dim)
            X = self.nodes[self.elements]  # (M, k, n)
            J = np.einsum("eai,qaj->eqij", X, dN)
            detJ = np.linalg.det(J)
            invJ = np.linalg.inv(J)
            grads = np.einsum("qaj,eqji->eqai", dN, invJ)
            coords = np.einsum("qa,eai->eqi", nvals, X)
            self._qp_cache = (coords, grads, detJ, nvals)
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

    def _sparse_plan(self):
        """The assembly plan of scatter_matrix over the free dofs.
        Cached; treat as read-only."""
        if "free" not in self._plan_cache:
            self._plan_cache["free"] = _assembly_plan(self)
        return self._plan_cache["free"]

    def _ordered_plan(self):
        """The free-dof assembly plan permuted into dof_order, in CSC: its
        matrix is P K P^T, bit for bit the scatter_matrix K permuted.
        Cached; treat as read-only."""
        if "ordered" not in self._plan_cache:
            plan, order = self._sparse_plan(), self.dof_order()
            tags = scipy.sparse.csr_matrix(
                (np.arange(plan.indices.size), plan.indices, plan.indptr),
                shape=plan.shape)[order][:, order].tocsc()
            self._plan_cache["ordered"] = _AssemblyPlan(
                tags.indptr.astype(np.int32), tags.indices.astype(np.int32),
                np.ascontiguousarray(plan.terms[:, tags.data]), plan.shape)
        return self._plan_cache["ordered"]

    def dof_order(self):
        """Nested-dissection order of the free dofs, as indices into the
        free-dof vector: a free node's components stay together, in the
        order _dissection_order gives the free nodes.  Cached, read-only.
        """
        if self._order_cache is None:
            n = self.dim
            nodes = _dissection_order(self.nodes[self.free_mask()[:, 0]], _ND_LEAF_DOFS // n)
            order = (nodes[:, None] * n + np.arange(n)).ravel().astype(np.int32)
            order.setflags(write=False)
            self._order_cache = order
        return self._order_cache

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
        t = _gauss_points(fdim)
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
        fvals = shape_values(_gauss_points(self.dim - 1), self.dim - 1)
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


@dataclass(frozen=True)
class _AssemblyPlan:
    """The CSR (or CSC) pattern of an assembled matrix and the entries
    summed into each nonzero: terms[s, p] is the flat index, in the
    kernel's layout (see _element_buffer), of the s-th element-matrix
    entry of nonzero p, or their size, the pad, past its last.
    """

    indptr: np.ndarray
    indices: np.ndarray
    terms: np.ndarray
    shape: tuple


def _assembly_plan(mesh):
    """Assembly plan of scatter_matrix over the free dofs.

    The element matrices (M, k*n, k*n) are a COO list in C order; row r
    of element e is a block of k*n entries with the columns of e's dofs.
    Each entry's index is placed as scipy places the values: coo_tocsr
    by row in entry order, that is the blocks by a stable sort on their
    row, then csr_sort_indices, whose order among equal columns depends
    on the column keys only.  csr_sum_duplicates then adds each run of
    equal columns left to right from its first entry.  The free slice
    keeps the blocks of the free rows and, after the sort, the nonzeros
    in the free columns, in order.  Each entry is tagged with its index in
    the kernel's layout, where entry (b, j) of the block sits at j k + b.
    """
    M, k = mesh.elements.shape
    n = mesh.dim
    kn = k * n
    size = M * kn * kn
    N = mesh.nnodes * n
    itype = np.int32 if max(size, N) < 2**31 - 1 else np.int64
    dof = (mesh.elements[:, :, None] * n + np.arange(n)).reshape(-1).astype(itype)
    free = mesh.free_mask().ravel()
    blocks = np.flatnonzero(free[dof]).astype(itype)
    blocks = blocks[np.argsort(dof[blocks], kind="stable")]
    indptr = np.zeros(N + 1, dtype=itype)
    np.cumsum(np.bincount(dof[blocks], minlength=N) * kn, out=indptr[1:])
    local = np.arange(kn) % n * k + np.arange(kn) // n
    tags = (blocks[:, None] * itype(kn) + local.astype(itype)).ravel()
    cols = dof.reshape(M, kn)[blocks // kn].ravel()
    del blocks
    tagged = scipy.sparse.csr_matrix((tags, cols, indptr), shape=(N, N))
    tagged.sort_indices()
    tags, col = tagged.data, tagged.indices
    del tagged, cols
    first = np.ones(len(col), dtype=bool)
    np.not_equal(col[1:], col[:-1], out=first[1:])
    first[indptr[:-1][indptr[:-1] < len(col)]] = True
    group = np.cumsum(first, dtype=itype) - 1
    starts = np.flatnonzero(first).astype(itype)
    slot = np.arange(len(col), dtype=itype) - starts[group]
    keep = free[col[starts]]
    nnz = int(np.count_nonzero(keep))
    # the nonzeros in non-free columns go to a last column, then dropped
    target = np.where(keep, np.cumsum(keep, dtype=itype) - 1, nnz).astype(itype)
    terms = np.full((int(slot.max(initial=0)) + 1, nnz + 1), size, dtype=itype)
    terms.reshape(-1)[slot * (nnz + 1) + target[group]] = tags
    terms = np.ascontiguousarray(terms[:, :nnz])
    del tags, slot, group, target
    row_groups = np.concatenate([[0], np.cumsum(keep, dtype=itype)])[
        np.concatenate([[0], np.cumsum(first, dtype=itype)])[indptr]]
    rows = np.flatnonzero(free)
    indptr = np.append(row_groups[rows], row_groups[-1]).astype(np.int32)
    rank = np.cumsum(free, dtype=np.int32) - 1
    indices = rank[col[starts[keep]]]
    return _AssemblyPlan(indptr, indices, terms, (len(rows), len(rows)))


# the largest part, in dofs, that _dissection_order splits no further
_ND_LEAF_DOFS = 16


def _dissection_order(X, leaf):
    """Geometric nested-dissection order of the points X (P, n).

    A part of more than leaf points is split across the longest axis of
    its bounding box, at the plane of its median point along that axis:
    the points below the plane come first, then those above, then those
    on it, the separator.  Parts of at most leaf points keep index order.
    Every part of a level is split at once: each split appends a base-3
    digit (0 below, 1 above, 2 on the plane) to its points' keys, and the
    order sorts the keys.  A side holds at most half of its part, so the
    depth stays below log2(P) + 1.
    """
    P, n = X.shape
    key = np.zeros(P, dtype=np.int64)
    part = np.zeros(P, dtype=np.int64)
    active = np.arange(P)
    while active.size:
        key *= 3
        _, pid, size = np.unique(part[active], return_inverse=True, return_counts=True)
        big = size[pid] > leaf
        active, pid = active[big], pid[big]
        if not active.size:
            break
        Xa = X[active]
        lo = np.full((len(size), n), np.inf)
        hi = np.full((len(size), n), -np.inf)
        np.minimum.at(lo, pid, Xa)
        np.maximum.at(hi, pid, Xa)
        c = Xa[np.arange(len(active)), np.argmax(hi - lo, axis=1)[pid]]
        ranked = np.lexsort((c, pid))
        first = np.searchsorted(pid[ranked], pid)
        plane = c[ranked][first + size[pid] // 2]
        digit = np.where(c < plane, 0, np.where(c > plane, 1, 2))
        key[active] += digit
        part[active] = 2 * pid + digit
        active = active[digit < 2]
    return np.argsort(key, kind="stable")


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

    def dirichlet_ok(self, u: FeField) -> bool:
        """Whether u meets every Dirichlet node vector v: no node i has
        max |u_i - v| > 1e-10 (1 + max |v|)."""
        if not self.dirichlet:
            return True
        ids = np.fromiter(self.dirichlet, dtype=int, count=len(self.dirichlet))
        v = np.array(list(self.dirichlet.values()))
        gap = np.abs(u.values[ids] - v).max(axis=1)
        return not np.any(gap > 1e-10 * (1.0 + np.abs(v).max(axis=1)))


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


def _checked_gradients(mesh, u):
    """grad u at every quadrature point, after det grad u > 0 is checked
    at each of them; a Newton iterate of this mesh hands back its own."""
    if isinstance(u, _Iterate) and u.mesh is mesh:
        return u.F
    F = deformation_gradients(mesh, u)
    det = det_many(F)
    if np.any(det <= 0.0):
        raise DeterminantViolation(f"det grad u = {float(det.min()):g} <= 0 at a quadrature point")
    return F


def material_at_points(m, mesh: Mesh, u, quantity) -> np.ndarray:
    """m's energy, stress or elasticity (quantity) at grad u, at every
    quadrature point of mesh: (M, q), (M, q, n, n) or (M, q, n, n, n, n).

    The material is evaluated once over all M*q points, in quadrature
    order, after det grad u > 0 is checked at each of them.
    """
    F = _checked_gradients(mesh, u)
    M, q, n, _ = F.shape
    vals = getattr(m, f"{quantity}_many")(F.reshape(-1, n, n))
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
        _, _, wdet, nvals = mesh.quadrature()
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
    _, _, wdet, nvals = mesh.quadrature()
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
    return _assemble(mesh._sparse_plan(), _tangent_matrices(m, mesh, u), scipy.sparse.csr_matrix)


def _tangent_matrices(m, mesh, u):
    """The element matrices of m's elasticity at grad u, which is
    det-checked first; the elasticity is evaluated one block of elements
    at a time, on the block's rows of the quadrature points."""
    F = _checked_gradients(mesh, u)
    q, n = F.shape[1:3]

    def elasticity(b):
        rows = slice(b.start * q, b.stop * q)
        A = m.at_points(rows).elasticity_many(F[b].reshape(-1, n, n))
        return A.reshape((-1, q) + A.shape[1:])

    return _element_blocks(mesh, elasticity)


def element_matrices(mesh: Mesh, A) -> np.ndarray:
    """Element matrices of a fourth-order tensor field A (M, q, n, n, n, n)
    at the quadrature points: Ke[e, a, i, b, j] = sum_q wdet g[a, k]
    A[i, k, j, l] g[b, l], with g each element's own shape gradients, in
    the (M, k, n, k, n) layout that scatter_matrix takes.

    The kernel runs one block of elements at a time (_element_blocks),
    and Ke is a strided view of the buffer it wrote, which scatter_matrix
    reads in place.
    """
    _, grads, _, _ = mesh.quadrature()
    M, q, k, n = grads.shape
    A = np.asarray(A, dtype=float)
    if A.shape != (M, q, n, n, n, n):
        raise DimensionMismatch(
            f"element_matrices: A must be {(M, q, n, n, n, n)}, got {A.shape}"
        )
    return _element_blocks(mesh, A.__getitem__)


# floats of elasticity per block of elements: bounds the memory of the
# element kernels, whose temporaries are a few times the block's tensor
_BLOCK = 1 << 17


def _element_blocks(mesh, elasticity):
    """Element matrices of the tensor field that elasticity(b) gives on
    each block b (a slice) of elements, as element_matrices lays them out.

    Each block of _BLOCK // (q n^4) elements is two stacked matrix
    products: grads @ A with A reordered to (M, q, k, i j l), then the
    (q, l) contraction against wdet * grads, written straight into its
    rows of the buffer.  A is made C-ordered after the reorder, so every
    element's sums run in one order whatever layout A arrives in and
    however many elements a block holds.
    """
    _, grads, wdet, _ = mesh.quadrature()
    M, q, k, n = grads.shape
    flat = _element_buffer(M, k, n)
    out = flat[:-1].reshape(M, k * n * n, k)
    step = max(1, _BLOCK // (q * n**4))
    for start in range(0, M, step):
        b = slice(start, start + step)
        g, A = grads[b], elasticity(b)
        Ak = np.ascontiguousarray(A.transpose(0, 1, 3, 2, 4, 5)).reshape(len(g), q, n, n**3)
        # gA[e, q, a, i, j, l] = sum_k g[a, k] A[i, k, j, l]
        gA = (g @ Ak).reshape(len(g), q, k, n, n, n)
        # free A and Ak before gA's reordered copy: held to the end of the
        # block, they left malloc trimming and faulting in again a 16x16
        # tangent's temporaries on every call, in one process in five
        del Ak, A
        gA = np.ascontiguousarray(gA.transpose(0, 2, 3, 4, 1, 5)).reshape(len(g), k * n * n, q * n)
        wg = (wdet[b, :, None, None] * g).transpose(0, 1, 3, 2).reshape(len(g), q * n, k)
        np.matmul(gA, wg, out=out[b])
    return _as_element_matrices(flat, M, k, n)


def _element_buffer(M, k, n):
    """The flat buffer that _assemble gathers from: the kernel's layout
    (M, k, n, n, k), entry (e, a, i, j, b) for Ke[e, a, i, b, j], in C
    order, then -0.0, the pad of the absent terms: x + -0.0 is x for
    every x, signed zeros included."""
    flat = np.empty(M * (k * n) ** 2 + 1)
    flat[-1] = -0.0
    return flat


def _as_element_matrices(flat, M, k, n):
    """The (M, k, n, k, n) view of a buffer's element matrices."""
    return flat[:-1].reshape(M, k, n, n, k).transpose(0, 1, 2, 4, 3)


def _buffer_of(Ke):
    """The buffer of element matrices Ke (M, k, n, k, n): the one Ke is a
    view of, read in place, when Ke's memory is laid out as one (every
    result of element_matrices), or else a copy."""
    M, k, n = Ke.shape[:3]
    base = Ke.base
    if (isinstance(base, np.ndarray) and base.dtype == float and base.shape == (Ke.size + 1,)
            and Ke.__array_interface__["data"] == base.__array_interface__["data"]
            and Ke.strides == _as_element_matrices(base, M, k, n).strides
            and base[-1] == 0.0 and np.signbit(base[-1])):
        return base
    flat = _element_buffer(M, k, n)
    _as_element_matrices(flat, M, k, n)[...] = Ke
    return flat


def gradient_gram_matrix(mesh: Mesh):
    """Gram matrix of grad z : grad z over the free dofs."""
    _, grads, wdet, _ = mesh.quadrature()
    n = mesh.dim
    Kg = np.einsum("eq,eqak,eqbk->eab", wdet, grads, grads)
    Ke = np.einsum("eab,ij->eaibj", Kg, np.eye(n))
    return scatter_matrix(mesh, Ke)


def scatter_matrix(mesh, Ke):
    """Sparse CSR assembly of element matrices Ke (M, k, n, k, n) over the
    free dofs.

    The mesh's cached assembly plan gathers every nonzero's entries of Ke
    and adds them left to right, starting from the first, as scipy's
    COO -> CSR conversion sums duplicates, so the matrix is that
    conversion's, sliced to the free dofs, bit for bit.
    """
    return _assemble(mesh._sparse_plan(), Ke, scipy.sparse.csr_matrix)


def _assemble(plan, Ke, layout):
    """The matrix (layout csr_matrix or csc_matrix) of a plan's pattern
    whose nonzeros sum their terms of Ke."""
    flat = _buffer_of(Ke)
    data = flat[plan.terms[0]]
    for t in plan.terms[1:]:
        data += flat[t]
    return layout((data, plan.indices.copy(), plan.indptr.copy()), shape=plan.shape)


# coercivity_constant: width of the inertia bracket handed to shift-invert,
# relative to its ends or, around 0, the diagonal scale, which is also the
# tolerance of the loose Lanczos whose Rayleigh quotient bounds the bracket
# from above; the relative gap of the trial shift below that bound; the
# most eigenvalues below the trial shift that one Lanczos takes (k <= 9
# keeps ARPACK's default basis of 20 vectors); the budget of doubling
# steps, and of the bisections kept for a trial shift with more below it;
# and the relative margin of the closing inertia check
_SLICE_RTOL = 1e-3
_TRIAL_RTOL = 1e-4
_TRIAL_BELOW = 9
_SLICE_STEPS = 64
_SLICE_BISECTIONS = 40
_CONFIRM_RTOL = 1e-12


class SparseLU:
    """SuperLU factors of a square sparse matrix B in the order it comes
    in: permc_spec NATURAL, up to SuperLU's postorder of the elimination
    tree.  B is P A P^T, A permuted into a fill-reducing order by its
    caller, such as Mesh.dof_order; then order, the permutation (row
    order[i] of A is row i of B), makes solve(b) solve A x = b.  Without
    an order, solve solves B x = b.  Newton and the eigensolve share it.

    By default SuperLU keeps its threshold partial pivoting, which a
    Newton tangent needs: far from equilibrium it may be indefinite.
    diagonal=True keeps every pivot of a symmetric B on the diagonal, so
    that B = L D L^T and, by Sylvester's law of inertia, the pivots carry
    B's inertia, and A's; a row pivot off the diagonal leaves them none
    and raises EigenFailure.  An exactly singular B raises splu's
    RuntimeError.
    """

    def __init__(self, B, order=None, diagonal=False):
        pivoting = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}} if diagonal else {}
        self.lu = scipy.sparse.linalg.splu(
            scipy.sparse.csc_matrix(B), permc_spec="NATURAL", **pivoting)
        self.order = order
        if diagonal and not np.array_equal(self.lu.perm_r, self.lu.perm_c):
            raise EigenFailure("sparse LU pivoted off the diagonal; its pivots give no inertia")

    def solve(self, b):
        """x with A x = b, or B x = b without an order."""
        if self.order is None:
            return self.lu.solve(b)
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x

    def pivots(self):
        """The diagonal of U; with diagonal pivots, the D of L D L^T."""
        return self.lu.U.diagonal()


def _inertia_lu(A):
    """SparseLU of the symmetric A, in its own order, and its count of
    pivots <= 0, which by Sylvester's law of inertia is A's count of
    eigenvalues <= 0 (0 iff A is positive definite).  An exactly singular
    A gives no factors, and its order as the count."""
    try:
        lu = SparseLU(A, diagonal=True)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None, A.shape[0]
    return lu, int(np.count_nonzero(lu.pivots() <= 0))


def coercivity_constant(M_mat, G_mat, order=None) -> float:
    """Smallest generalized eigenvalue of the symmetric pencil (M, G), G
    positive definite, certified by inertia.

    order, such as the pencil's Mesh.dof_order, permutes the pencil once
    into the order every shift is factored in; None keeps its own order.

    Spectrum slicing brackets it from below.  Stepping down from the
    smallest diagonal quotient M_ii / G_ii (a Rayleigh quotient, so an
    upper bound hi) gives a first shift lo with M - lo G positive definite
    by its LDL^T inertia, so no eigenvalue lies below lo.  A loose
    shift-invert Lanczos at lo lowers hi to the Rayleigh quotient of its
    Ritz vector.  The trial shift just below hi, factored definite or
    not, has nu pivots <= 0, nu eigenvalues below it.  With nu = 0 it
    becomes lo, and shift-invert Lanczos at lo, from a fixed start vector,
    converges to the smallest eigenvalue lam; with 1 <= nu <= 9, one at
    the trial shift takes those nu, the smallest of the shifted spectrum,
    and lam is the least; with more it becomes hi, and bisecting on the
    inertia narrows [lo, hi] before Lanczos at lo.  Whatever proposed it,
    lam is returned only if lam >= lo and M - (lam - tau) G is positive
    definite too, tau a 1e-12 relative margin, i.e. only if no eigenvalue
    lies below lam - tau (a 1-dof pencil is its quotient).  An empty or
    non-finite pencil, and anything unconfirmed, raises EigenFailure.

    Each factorization is dropped as soon as no later step reads it: an
    indefinite doubling step's at once, the first definite shift's after
    the loose Lanczos and before the trial shift is factored, and the
    Lanczos shift's before the closing check.  So with nu <= 9 at most
    one is alive at a time.  Bisection keeps lo's factors beside the
    midpoint's, or factors lo again at the end if no midpoint became lo.
    """
    M = scipy.sparse.csr_matrix(0.5 * (M_mat + M_mat.T))
    G = scipy.sparse.csr_matrix(0.5 * (G_mat + G_mat.T))
    if order is not None:
        M, G = M[order][:, order], G[order][:, order]
    M, G = M.tocsc(), G.tocsc()
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
                lu, below = _inertia_lu(M - lo * G)
                if not below:
                    break
                lu = None
                step *= 2.0
            else:
                raise EigenFailure(
                    f"no positive definite shift M - s G within {_SLICE_STEPS} "
                    f"doubling steps below {hi!r}"
                )
            v0 = np.random.default_rng(0).standard_normal(nd)

            def lanczos(shift, shift_lu, k=1, which="LM", **kwargs):
                op = scipy.sparse.linalg.LinearOperator((nd, nd), matvec=shift_lu.solve,
                                                        dtype=float)
                return scipy.sparse.linalg.eigsh(M, k=k, M=G, sigma=shift, which=which,
                                                 OPinv=op, v0=v0, **kwargs)

            # any vector's Rayleigh quotient bounds lam from above
            _, vecs = lanczos(lo, lu, tol=_SLICE_RTOL)
            lu = None
            x = vecs[:, 0]
            hi = min(hi, float(x @ (M @ x)) / float(x @ (G @ x)))
            trial = hi - _TRIAL_RTOL * abs(hi)
            lu, below = _inertia_lu(M - trial * G)
            if 0 < below <= _TRIAL_BELOW and below < nd - 1:
                # the eigenvalues below the trial shift are the smallest of
                # the shifted spectrum, 1 / (lam - trial) < 0
                lam = float(lanczos(trial, lu, k=below, which="SA",
                                    return_eigenvectors=False).min())
            else:
                if not below:
                    lo = trial
                else:
                    hi, lu = trial, None
                    # M - lo G stays positive definite and M - hi G does
                    # not; lu holds lo's factors once a midpoint is lo
                    for _ in range(_SLICE_BISECTIONS):
                        if hi - lo <= _SLICE_RTOL * max(abs(lo), abs(hi), scale):
                            break
                        mid = 0.5 * (lo + hi)
                        mid_lu, below = _inertia_lu(M - mid * G)
                        if below:
                            hi = mid
                        else:
                            lo, lu = mid, mid_lu
                        mid_lu = None
                    if lu is None:
                        lu = _inertia_lu(M - lo * G)[0]
                lam = float(lanczos(lo, lu, return_eigenvectors=False)[0])
            lu = None
        tau = _CONFIRM_RTOL * max(abs(lam), scale)
        if not lam >= lo or _inertia_lu(M - (lam - tau) * G)[1]:
            raise EigenFailure(
                f"eigenvalue {lam!r} not confirmed: an eigenvalue lies below {lam - tau!r} "
                f"or the result is below the slicing bound {lo!r}"
            )
    except (RuntimeError, ArithmeticError) as exc:
        raise EigenFailure(f"generalized eigensolve failed: {exc}") from exc
    return lam


# the residual sup at which solve_equilibrium stops, and its budget of steps
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass
class SolveLog:
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


class _Iterate(FeField):
    """A Newton state: a field whose grad u, det-checked, is taken once,
    when it is made, and then serves its energy, residual and tangent.
    Its values never change, and it never leaves solve_equilibrium."""

    def __init__(self, mesh, values):
        super().__init__(mesh, values)
        self.F = _checked_gradients(mesh, FeField(mesh, self.values))


def solve_equilibrium(m, mesh: Mesh, loads: LoadSet, u0: FeField) -> tuple[FeField, SolveLog]:
    """Newton iteration with a backtracking, determinant-guarded line search,
    to a residual sup of NEWTON_TOL within NEWTON_MAX_ITER steps.

    u0 must satisfy the Dirichlet data; the Dirichlet components never
    move.  Steps are halved until det grad u > 0 everywhere and the energy
    satisfies an Armijo decrease; a step below 1e-12 stalls out.  A stall
    (LineSearchStall) or a spent budget (MaxIterations) raises with the
    SolveLog so far as its log.  Each state takes grad u once; the tangent
    is factored in the mesh's dof_order, with partial pivoting, and an
    exactly singular one raises SingularTangent.
    """
    if not loads.dirichlet_ok(u0):
        raise BoundaryMismatch("solve_equilibrium: u0 violates the Dirichlet data")
    u = _Iterate(mesh, u0.values.copy())
    free = mesh.free_mask()
    log = SolveLog()
    r = residual(m, mesh, loads, u)
    log.residual_history.append(float(np.max(np.abs(r))))
    log.energy_history.append(total_energy(m, mesh, loads, u))
    for it in range(NEWTON_MAX_ITER):
        if log.residual_history[-1] <= NEWTON_TOL:
            log.converged = True
            log.iterations = it
            return FeField(mesh, u.values), log
        # the tangent K assembled straight into P K P^T, P the dof_order
        K = _assemble(mesh._ordered_plan(), _tangent_matrices(m, mesh, u), scipy.sparse.csc_matrix)
        try:
            delta = SparseLU(K, mesh.dof_order()).solve(-r)
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
                values = u.values.copy()
                values[free] += t * direction
                try:
                    cand = _Iterate(mesh, values)
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
    log.iterations = NEWTON_MAX_ITER
    if log.residual_history[-1] <= NEWTON_TOL:
        log.converged = True
        return FeField(mesh, u.values), log
    raise MaxIterations(
        f"Newton did not reach tol {NEWTON_TOL:g} in {NEWTON_MAX_ITER} iterations "
        f"(residual {log.residual_history[-1]:.3e})", log,
    )


def energy_identity_check(m, mesh: Mesh, loads: LoadSet, u_e: FeField, v: FeField) -> float:
    """|[E(v) - E(u_e)] - int(W(grad v) - W(grad u_e) - S(grad u_e):grad w)|.

    The identity holds because the load terms are linear and u_e has zero
    residual against the free directions; u_e is verified to be an
    equilibrium first: a residual sup above 1e-9 raises NotEquilibrium.
    """
    r = residual(m, mesh, loads, u_e)
    if np.max(np.abs(r)) > 1e-9:
        raise NotEquilibrium(f"u_e residual {np.max(np.abs(r)):.3e} exceeds 1e-09")
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
    return GridField(lat.mask, out)


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


def _lattice_mesh(counts, lengths, mask, dirichlet):
    """Q1 mesh of the cells of a lattice at the origin that mask keeps.

    Node (i, j[, k]) has id i + (nx+1) (j + (ny+1) k) before the unused
    nodes are dropped.  Elements follow the kept cells with the last axis
    slowest; boundary facets follow them with the first axis slowest,
    side by side (axis 0 low, axis 0 high, axis 1 low, ...), grouped by
    side name, with "inner" for facets against a masked-out cell.
    dirichlet is 'all' or side names; the other sides are the traction part.
    The mesh carries a CellLattice when every axis has the same cell size.
    """
    dim = len(counts)
    axes = [np.linspace(0.0, lengths[d], counts[d] + 1) for d in range(dim)]
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
    tnames = [s for s in present if s not in dnames]
    h = lengths[0] / counts[0]
    lattice = None
    if all(abs(L / n - h) <= 1e-12 * (1 + abs(h)) for L, n in zip(lengths, counts)):
        lattice = CellLattice(mask, elem_of_cell, h, (0.0,) * dim)
    return Mesh(
        nodes[used],
        remap[elements],
        [f for s in dnames for f in sides[s]],
        [f for s in tnames for f in sides[s]],
        lattice=lattice,
    )


def rectangle_mesh(nx, ny, width=1.0, height=1.0, dirichlet="all"):
    """Structured quad mesh of [0,width] x [0,height].

    dirichlet: 'all' or an iterable of side names from
    {'left','right','bottom','top'}; the remaining boundary sides are the
    traction part.
    """
    mask = np.ones((nx, ny), dtype=bool)
    return _lattice_mesh((nx, ny), (width, height), mask, dirichlet)


def l_shape_mesh(n, dirichlet="all"):
    """L-shaped domain: the unit square minus its upper-right quadrant, on
    an n x n lattice."""
    if n % 2:
        raise ValueError("l_shape_mesh needs an even cell count")
    ix, iy = np.indices((n, n))
    mask = ~((ix >= n // 2) & (iy >= n // 2))
    return _lattice_mesh((n, n), (1.0, 1.0), mask, dirichlet)


def square_ring_mesh(n, dirichlet="all"):
    """Square annulus: the unit square minus the centred square of half its
    side (cells n/4 to 3n/4 on each axis), on an n x n lattice."""
    if n % 4:
        raise ValueError("square_ring_mesh needs n divisible by 4")
    ix, iy = np.indices((n, n))
    mask = ~((n // 4 <= ix) & (ix < 3 * n // 4) & (n // 4 <= iy) & (iy < 3 * n // 4))
    return _lattice_mesh((n, n), (1.0, 1.0), mask, dirichlet)


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), dirichlet="all"):
    """Structured hex mesh of a box; dirichlet='all' or named faces among
    {'x0','x1','y0','y1','z0','z1'}; the remaining faces are the traction
    part."""
    mask = np.ones((nx, ny, nz), dtype=bool)
    return _lattice_mesh((nx, ny, nz), lengths, mask, dirichlet)


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
    missing or wrong section header, a bad count or number (a non-finite
    coordinate or a node index outside [0, nodes) among them), or a file
    that ends before the counts say it should.
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

    def coordinate(token):
        x = float(token)
        if not math.isfinite(x):
            raise ValueError(f"non-finite coordinate {token!r}")
        return x

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

    def node_index(token):
        i = int(token)
        if not 0 <= i < count:
            raise ValueError(f"node index {i} outside [0, {count})")
        return i

    (dim,) = header(1, "dim", 1)
    (count,) = header(2, "nodes", 1)
    row = 3
    nodes = block(row, count, "nodes", coordinate, width=dim)
    row += count
    mcount, width = header(row, "elements", 2)
    row += 1
    elements = block(row, mcount, "elements", node_index, width=width)
    row += mcount
    (dcount,) = header(row, "dirichlet", 1)
    row += 1
    dfacets = [tuple(f) for f in block(row, dcount, "dirichlet", node_index)]
    row += dcount
    (tcount,) = header(row, "traction", 1)
    row += 1
    tfacets = [tuple(f) for f in block(row, tcount, "traction", node_index)]
    return Mesh(nodes, elements, dfacets, tfacets)
