"""Assembly, solver, and mesh tests with finite-difference oracles."""
import hashlib
import math
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_cert import errors, fem, material, pushforward, rigidity

from oracles import (
    boundary_map_walk,
    coercivity_constant_bisection,
    fd_gradient,
    negative_pivots_mmd,
    scatter_matrix_coo,
)


def _loads_identity(mesh, body=None, traction=None):
    return fem.LoadSet.build(mesh, body=body, traction=traction, dirichlet=lambda x: x)


def _interior_perturb(mesh, rng, scale):
    """Random nodal field vanishing on the Dirichlet nodes."""
    w = rng.standard_normal((mesh.nnodes, mesh.dim)) * scale
    w[mesh.dirichlet_nodes] = 0.0
    return w


# ----------------------------------------------------------------- elements

def test_shape_functions_partition_of_unity():
    rng = np.random.default_rng(0)
    for dim in (2, 3):
        pts = rng.uniform(-1, 1, size=(7, dim))
        vals = fem.shape_values(pts, dim)
        grads = fem.shape_gradients(pts, dim)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-14)
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-14)
        # nodal interpolation: value 1 at own corner, 0 at others
        corner_vals = fem.shape_values(fem._REF_CORNERS[dim], dim)
        assert np.allclose(corner_vals, np.eye(vals.shape[1]), atol=1e-15)


def test_mesh_volumes():
    for mesh, volume in [(fem.rectangle_mesh(3, 2, 1.5, 1.0), 1.5), (fem.l_shape_mesh(4), 0.75),
                         (fem.square_ring_mesh(8), 0.75),
                         (fem.box_mesh(2, 2, 2, (1.0, 2.0, 0.5)), 1.0)]:
        assert mesh.quadrature()[2].sum() == pytest.approx(volume, abs=1e-12)


def test_mesh_boundary_partition_checks():
    with pytest.raises(ValueError):
        # leaves the right side uncovered
        nodes = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        fem.Mesh(nodes, [[0, 1, 2, 3]], dirichlet_facets=[(0, 1)], traction_facets=[(3, 0)])
    mesh = fem.rectangle_mesh(2, 2)
    with pytest.raises(ValueError):
        fem.Mesh(mesh.nodes, mesh.elements, dirichlet_facets=[], traction_facets=[])


def test_structured_lattice():
    mesh = fem.rectangle_mesh(4, 4)
    assert mesh.lattice is not None
    assert mesh.lattice.mask.shape == (4, 4)
    assert mesh.lattice.mask.all()
    assert mesh.lattice.spacing == pytest.approx(0.25)
    # non-square cells carry no lattice
    assert fem.rectangle_mesh(4, 2, 1.0, 1.0).lattice is None
    ring = fem.square_ring_mesh(8)
    assert ring.lattice.mask.sum() == ring.elements.shape[0]


# sha256 of every generated mesh's bytes; the facet lists are hashed in
# order, since loads and reports follow it.  Only 2D lattices are hashed:
# box lattices are pinned by test_gradient_field_on_cube_cell_box.
_MESH_DIGESTS = [
    ("rectangle_mesh", (1, 1), {}, "77d7dac3c045c4f3da68cd81829341ce3588cbdc80de349f915e2afec7b2f45e"),
    ("rectangle_mesh", (1, 1), {"dirichlet": ("left",)},
     "2f3673f2dc48fad4dfdb62e569f1980b0eda77457fe80386f3950d03f92308a6"),
    ("rectangle_mesh", (4, 4), {}, "3ca7abc6f770e049723626e71b6ddd070eb8e6f5d121a0da6d5dc0aaf5ecd536"),
    ("rectangle_mesh", (3, 2, 1.5, 1.0), {},
     "108ae4062a11d2e5a95b1abb17ab93a956085481b8f662352f5077f7306f2a2f"),
    ("rectangle_mesh", (4, 2), {"dirichlet": ("bottom", "left")},
     "eec3f8f8fa9b95e7139f3bb7529f968799f179f047e845b93924d1b9d672de7d"),
    ("rectangle_mesh", (5, 3, 2.0, 1.0), {"dirichlet": ("left",)},
     "860521cccf0b662852514a6fd6b3fbee1559075554d80093aeb5bfb1af1e63ed"),
    ("l_shape_mesh", (4,), {}, "cf89d7dd47bbc5138de162502fb76e554fbf4346b8e479a1247086a515f5e200"),
    ("l_shape_mesh", (8,), {"dirichlet": ("left", "bottom")},
     "4b709f3e938f091c91806bc49b60047fa496499055c074d16bcdf0dc2c5dcb14"),
    ("l_shape_mesh", (6,), {"dirichlet": ("inner", "top")},
     "2bffb788bafdca3c7cb594823ed06a5c8ada593d65115f5de96ecb4777ab61dd"),
    ("square_ring_mesh", (8,), {}, "e5f94103f96d030f2e221eb7c3abe1c98c71b9751f4d817582afa3945efd14e7"),
    ("square_ring_mesh", (8,), {"dirichlet": ("inner",)},
     "2395729534a628cb0b48b98bc08637da9d3a6036f79df058585a9c3a6242a99e"),
    ("square_ring_mesh", (12,), {"dirichlet": ("right", "left")},
     "b49a2d9382f7e1f77538d411d2cc4e370f07eed514378fb3669027a30201affa"),
    ("box_mesh", (1, 1, 1), {}, "74b347a71cd25ac4f6e3304ebd6f7423e78d0b14da9c2be3dece992b527bf842"),
    ("box_mesh", (3, 3, 3), {"dirichlet": ("x0",)},
     "fe00f8c667f30b7b8553c642a53a91282a27d09a80b9541d234bb9a468226d55"),
    ("box_mesh", (2, 2, 2, (1.0, 2.0, 0.5)), {},
     "c93fb6e1da2f4b0330e794a7bc907a5c20852a02cbe01249837bda34a45acb1d"),
    ("box_mesh", (2, 3, 4), {"dirichlet": ("z1", "x0")},
     "16ea9123ec6ae82a8a8fe2b06ff5a1aca22da4e5b6b5f7643d35a425945c2a21"),
]


def _mesh_digest(mesh):
    h = hashlib.sha256()
    h.update(mesh.nodes.tobytes())
    h.update(mesh.elements.astype(np.int64).tobytes())
    h.update(repr(mesh.dirichlet_facets).encode())
    h.update(repr(mesh.traction_facets).encode())
    lat = mesh.lattice
    if mesh.dim == 2 and lat is not None:
        h.update(lat.mask.tobytes())
        h.update(lat.elem_of_cell.astype(np.int64).tobytes())
        h.update(repr((lat.mask.shape, lat.spacing, lat.origin)).encode())
    elif mesh.dim == 2:
        h.update(b"no lattice")
    return h.hexdigest()


@pytest.mark.parametrize("generator, args, kwargs, digest", _MESH_DIGESTS)
def test_generated_mesh_bytes(generator, args, kwargs, digest):
    assert _mesh_digest(getattr(fem, generator)(*args, **kwargs)) == digest


@st.composite
def _lattice_masks(draw):
    """A boolean cell mask of a 2D or 3D lattice with at least one cell."""
    counts = draw(st.sampled_from([(1, 1), (4, 3), (5, 5), (2, 2, 2), (3, 2, 4)]))
    cells = draw(st.lists(st.booleans(), min_size=math.prod(counts),
                          max_size=math.prod(counts)))
    mask = np.array(cells).reshape(counts)
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(_lattice_masks())
def test_boundary_map_equals_the_facet_walk(mask):
    # the same keys, values and order as one walk over every element facet
    dim = mask.ndim
    mesh = fem._lattice_mesh(mask.shape, (1.0,) * dim, mask, "all")
    want = boundary_map_walk(mesh.elements, fem._LOCAL_FACETS[dim])
    assert list(mesh._boundary_map().items()) == list(want.items())


def test_boundary_map_of_a_file_mesh_equals_the_facet_walk(tmp_path):
    # elements and node ids shuffled, as a mesh file may list them
    rng = np.random.default_rng(3)
    for mesh in (fem.square_ring_mesh(8, dirichlet=("inner",)), fem.box_mesh(2, 3, 2)):
        perm = rng.permutation(mesh.nnodes)
        order = rng.permutation(len(mesh.elements))
        shuffled = fem.Mesh(
            mesh.nodes[np.argsort(perm)], perm[mesh.elements][order],
            [tuple(perm[list(f)]) for f in mesh.dirichlet_facets],
            [tuple(perm[list(f)]) for f in mesh.traction_facets],
        )
        path = tmp_path / "shuffled.mesh"
        fem.write_mesh(shuffled, path)
        back = fem.read_mesh(path)
        want = boundary_map_walk(back.elements, fem._LOCAL_FACETS[back.dim])
        assert list(back._boundary_map().items()) == list(want.items())
        assert len(want) == len(mesh.dirichlet_facets) + len(mesh.traction_facets)


def test_facet_normals_and_perimeter():
    mesh = fem.rectangle_mesh(3, 3, 2.0, 1.0)
    boundary = list(mesh.dirichlet_facets)
    coords, _, jac, normals, _ = mesh.facet_quadrature(boundary)
    assert np.sum(jac) == pytest.approx(6.0, abs=1e-12)  # perimeter of 2 x 1
    assert np.allclose(np.linalg.norm(normals, axis=2), 1.0, atol=1e-12)
    for f in range(len(boundary)):
        for q in range(coords.shape[1]):
            x, nrm = coords[f, q], normals[f, q]
            if math.isclose(x[0], 0.0, abs_tol=1e-12):
                assert np.allclose(nrm, [-1, 0], atol=1e-12)
            elif math.isclose(x[0], 2.0, abs_tol=1e-12):
                assert np.allclose(nrm, [1, 0], atol=1e-12)
            elif math.isclose(x[1], 0.0, abs_tol=1e-12):
                assert np.allclose(nrm, [0, -1], atol=1e-12)
            else:
                assert np.allclose(nrm, [0, 1], atol=1e-12)


def test_ring_inner_normals_point_into_hole():
    mesh = fem.square_ring_mesh(8)
    boundary = list(mesh.dirichlet_facets)
    coords, _, _, normals, _ = mesh.facet_quadrature(boundary)
    center = np.array([0.5, 0.5])
    for f in range(len(boundary)):
        x, nrm = coords[f, 0], normals[f, 0]
        inner = np.max(np.abs(x - center)) < 0.3
        if inner:
            # outward from the material means toward the hole center
            assert np.dot(nrm, center - x) > 0


# ----------------------------------------------------------- assembly vs fd

def test_total_energy_affine_matches_pointwise():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(3, 2, 1.0, 1.0)
    A = np.array([[1.2, 0.1], [0.0, 0.9]])
    u = fem.FeField(mesh, mesh.nodes @ A.T)
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    W = m.energy_many(None, A[None])[0]
    assert fem.total_energy(m, mesh, loads, u) == pytest.approx(W * 1.0, rel=1e-12)


def test_traction_work_constant_field():
    # traction s on the top edge of the unit square, identity deformation:
    # work = int s . (x, 1) ds = s1/2 + s2
    mesh = fem.rectangle_mesh(3, 3, dirichlet=("left",))
    s = np.array([0.7, -0.3])

    def traction(x):
        return s if math.isclose(x[1], 1.0, abs_tol=1e-12) else np.zeros(2)

    loads = fem.LoadSet.build(mesh, traction=traction, dirichlet=lambda x: x)
    m = material.quadratic_toy()
    u = fem.FeField.identity(mesh)
    # quadratic toy has zero energy at identity, so only the load term remains
    E = fem.total_energy(m, mesh, loads, u)
    assert E == pytest.approx(-(0.7 * 0.5 + (-0.3) * 1.0), abs=1e-12)


def test_residual_matches_fd_of_energy():
    rng = np.random.default_rng(7)
    m = material.stvk(1.3, 0.8)
    mesh = fem.rectangle_mesh(2, 2, dirichlet=("left",))
    loads = fem.LoadSet.build(
        mesh, body=lambda x: [0.2 * x[1], -0.1], traction=[0.05, 0.02],
        dirichlet=lambda x: x,
    )
    u = fem.FeField.identity(mesh)
    u.values += _interior_perturb(mesh, rng, 0.05)
    # also perturb the free boundary nodes (right/top/bottom sides)
    r = fem.residual(m, mesh, loads, u)
    free = mesh.free_mask()

    def energy_of(vec):
        w = fem.FeField.identity(mesh)
        w.values = u.values.copy()
        w.values[free] = vec
        return fem.total_energy(m, mesh, loads, w)

    r_fd = fd_gradient(energy_of, u.values[free].ravel(), h=1e-6)
    assert np.max(np.abs(r - r_fd)) <= 1e-6 * (1 + np.max(np.abs(r)))


def test_residual_matches_fd_3d():
    rng = np.random.default_rng(17)
    m = material.neo_hookean(1.0, 0.7)
    mesh = fem.box_mesh(1, 1, 1, dirichlet=("x0",))
    loads = fem.LoadSet.build(mesh, body=[0.0, 0.1, -0.05], dirichlet=lambda x: x)
    u = fem.FeField.identity(mesh)
    u.values += _interior_perturb(mesh, rng, 0.02)
    r = fem.residual(m, mesh, loads, u)
    free = mesh.free_mask()

    def energy_of(vec):
        w = u.copy()
        w.values[free] = vec
        return fem.total_energy(m, mesh, loads, w)

    r_fd = fd_gradient(energy_of, u.values[free].ravel(), h=1e-6)
    assert np.max(np.abs(r - r_fd)) <= 2e-6 * (1 + np.max(np.abs(r)))


def test_hessian_matches_fd_of_residual():
    rng = np.random.default_rng(11)
    m = material.stvk(1.0, 0.6)
    mesh = fem.rectangle_mesh(2, 2, dirichlet=("left", "right"))
    loads = _loads_identity(mesh)
    u = fem.FeField.identity(mesh)
    u.values += _interior_perturb(mesh, rng, 0.05)
    K = fem.second_variation_matrix(m, mesh, u).toarray()
    free = mesh.free_mask()
    h = 1e-6
    for _ in range(4):
        w = rng.standard_normal(K.shape[0])
        up = u.copy()
        up.values[free] += h * w
        um = u.copy()
        um.values[free] -= h * w
        col_fd = (fem.residual(m, mesh, loads, up) - fem.residual(m, mesh, loads, um)) / (2 * h)
        assert np.max(np.abs(K @ w - col_fd)) <= 1e-5 * (1 + np.max(np.abs(K @ w)))


def test_hessian_symmetric_and_gram_consistent():
    rng = np.random.default_rng(3)
    m = material.neo_hookean(2.0, 1.0)
    mesh = fem.rectangle_mesh(3, 3)
    u = fem.FeField.identity(mesh)
    u.values += _interior_perturb(mesh, rng, 0.03)
    K = fem.second_variation_matrix(m, mesh, u)
    assert abs(K - K.T).max() <= 1e-10 * abs(K).max()
    G = fem.gradient_gram_matrix(mesh)
    w = _interior_perturb(mesh, rng, 1.0)
    quad = float(w[mesh.free_mask()].ravel() @ (G @ w[mesh.free_mask()].ravel()))
    assert quad == pytest.approx(fem.l2_gradient_norm_sq(mesh, w), rel=1e-12)


# --------------------------------------------------------- element matrices

def _einsum_element_matrices(mesh, A):
    """The per-element contraction as one einsum: the reference that
    element_matrices matches to rounding."""
    _, grads, wdet, _ = mesh.quadrature()
    return np.einsum("eq,eqak,eqikjl,eqbl->eaibj", wdet, grads, A, grads)


def _einsum_korn_elements(mesh, Fq):
    """The Korn form's element matrices as its two einsums, 2 (F F^T)_ij
    g_a.g_b + 2 (F g_b)_i (F g_a)_j: the reference for the Korn form's
    element matrices in rigidity."""
    _, grads, wdet, _ = mesh.quadrature()
    FFt = np.einsum("eqik,eqjk->eqij", Fq, Fq)
    Ke = 2.0 * np.einsum("eq,eqij,eqak,eqbk->eaibj", wdet, FFt, grads, grads)
    Ke += 2.0 * np.einsum("eq,eqik,eqbk,eqjl,eqal->eaibj", wdet, Fq, grads, Fq, grads)
    return Ke


def _jittered(mesh, rng, amount):
    """The mesh with every node off the boundary moved by up to amount
    cells, so that no two elements share their shape gradients."""
    nodes = mesh.nodes.copy()
    on_boundary = {v for f in mesh.dirichlet_facets + mesh.traction_facets for v in f}
    inner = [i for i in range(mesh.nnodes) if i not in on_boundary]
    h = np.ptp(mesh.nodes[mesh.elements[0]], axis=0).min()
    nodes[inner] += rng.uniform(-amount * h, amount * h, size=(len(inner), mesh.dim))
    return fem.Mesh(nodes, mesh.elements, mesh.dirichlet_facets, mesh.traction_facets)


def _element_alone(mesh, e):
    """A stand-in mesh whose quadrature is element e's alone."""
    coords, grads, wdet, nvals = mesh.quadrature()
    sliced = (coords[e:e + 1], grads[e:e + 1], wdet[e:e + 1], nvals)
    return types.SimpleNamespace(dim=mesh.dim, quadrature=lambda: sliced)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       cells=st.integers(1, 3), jitter=st.floats(0.0, 0.3))
def test_element_matrices_layout_free_and_per_element(seed, dim, cells, jitter):
    rng = np.random.default_rng(seed)
    # clamped on one side, so that every mesh keeps free dofs
    if dim == 2:
        mesh = fem.rectangle_mesh(cells + 1, cells, 1.3, 1.0, dirichlet=("left",))
    else:
        mesh = fem.box_mesh(cells + 1, 2, 2, (1.0, 1.2, 0.7), dirichlet=("x0",))
    mesh = _jittered(mesh, rng, jitter)
    M, q, k, n = mesh.quadrature()[1].shape
    assert k == 2**dim
    A = rng.standard_normal((M, q, n, n, n, n))
    # the same values behind non-C-ordered strides, as batched materials give
    view = np.ascontiguousarray(A.transpose(0, 1, 4, 5, 2, 3)).transpose(0, 1, 4, 5, 2, 3)
    assert not view.flags.c_contiguous and np.array_equal(view, A)
    Ke = fem.element_matrices(mesh, A)
    assert Ke.shape == (M, k, n, k, n)
    assert np.array_equal(fem.element_matrices(mesh, view), Ke)
    for e in range(M):
        assert np.array_equal(fem.element_matrices(_element_alone(mesh, e), A[e:e + 1]),
                              Ke[e:e + 1])
    ref = _einsum_element_matrices(mesh, A)
    assert np.abs(Ke - ref).max() <= 1e-13 * np.abs(ref).max()
    # the Korn form over the free dofs through the same kernel
    Fq = np.broadcast_to(np.eye(n), (M, q, n, n))
    got = fem.scatter_matrix(mesh, rigidity._korn_element_matrices(mesh)).toarray()
    want = fem.scatter_matrix(mesh, _einsum_korn_elements(mesh, Fq)).toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_element_matrices_rejects_a_misshapen_tensor():
    mesh = fem.rectangle_mesh(2, 2)
    M, q = mesh.quadrature()[2].shape
    with pytest.raises(errors.DimensionMismatch):
        fem.element_matrices(mesh, np.zeros((M, q, 2, 2, 2)))
    with pytest.raises(errors.DimensionMismatch):
        fem.element_matrices(mesh, np.zeros((M + 1, q, 2, 2, 2, 2)))


_ASSEMBLY_MESHES = {
    "rectangle": lambda: fem.rectangle_mesh(5, 3, 1.5, 1.0, dirichlet=("left",)),
    "l-shape": lambda: fem.l_shape_mesh(6, dirichlet=("left", "bottom")),
    "ring": lambda: fem.square_ring_mesh(8),
    "box": lambda: fem.box_mesh(3, 2, 2, dirichlet=("x0", "z1")),
    "clamped-cell": lambda: fem.rectangle_mesh(1, 1),
}


def _same_bits(A, B):
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data.view(np.uint64), B.data.view(np.uint64)))


@pytest.mark.parametrize("kind", sorted(_ASSEMBLY_MESHES))
def test_scatter_matrix_is_the_coo_assembly_bit_for_bit(kind):
    # the cached plan sums each nonzero's entries in the order scipy's COO
    # -> CSR conversion does, signed zeros included, and slices as np.ix_
    mesh = _ASSEMBLY_MESHES[kind]()
    M, k = mesh.elements.shape
    n = mesh.dim
    free = mesh.free_mask().ravel()
    rng = np.random.default_rng(7)
    stacks = []
    for _ in range(3):
        Ke = rng.normal(size=(M, k, n, k, n))
        Ke[rng.random(Ke.shape) < 0.2] = -0.0
        Ke[rng.random(Ke.shape) < 0.1] = 0.0
        stacks.append(Ke)
    # element matrices as they come, a strided view
    u = fem.FeField(mesh, mesh.nodes * 1.02 + 0.01 * rng.normal(size=mesh.nodes.shape))
    stacks.append(fem.element_matrices(
        mesh, fem.material_at_points(material.stvk(1.0, 1.0), mesh, u, "elasticity")))
    for Ke in stacks:
        want = scatter_matrix_coo(mesh.elements, mesh.nnodes, free, Ke)
        assert _same_bits(fem.scatter_matrix(mesh, Ke), want)
        # the Newton tangent's plan gives P K P^T in CSC, P the dof order
        order = mesh.dof_order()
        assert _same_bits(fem._assemble(mesh._ordered_plan(), Ke, sp.csc_matrix),
                          want[order][:, order].tocsc())


def _same_elements(A, B):
    return A.shape == B.shape and np.ascontiguousarray(A).tobytes() == np.ascontiguousarray(B).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]), first=st.integers(3, 5),
       rest=st.lists(st.integers(1, 3), min_size=2, max_size=2),
       model=st.sampled_from(["stvk", "neo-hookean", "pushforward"]))
def test_tangent_in_ragged_blocks_is_bitwise_the_one_block_tangent(seed, dim, first, rest, model):
    # element kernels work per element and material kernels per point, so
    # no block boundary changes a sum: element matrices, the CSR tangent
    # and the Newton tangent's ordered CSC are the one-block ones, bit for bit
    rng = np.random.default_rng(seed)
    if dim == 2:
        mesh = fem.rectangle_mesh(first, rest[0], 1.3, 1.0, dirichlet=("left",))
    else:
        mesh = fem.box_mesh(first, *rest, (1.0, 0.8, 0.6), dirichlet=("x0",))
    n = mesh.dim
    h = np.ptp(mesh.nodes[mesh.elements[0]], axis=0).min()
    stretch = np.eye(n) + np.diag(rng.uniform(-0.05, 0.05, n))
    u = fem.FeField(mesh, mesh.nodes @ stretch.T + _interior_perturb(mesh, rng, 0.03 * h))
    m = material.neo_hookean(1.5, 1.0) if model == "neo-hookean" else material.stvk(1.0, 1.0)
    if model == "pushforward":
        cfg = pushforward.deform_configuration(mesh, u)
        m, mesh = pushforward.PushforwardMaterial(m, cfg), cfg.mesh_def
        u = fem.FeField(mesh, u.values + _interior_perturb(mesh, rng, 0.03 * h))
    M, q = mesh.quadrature()[2].shape
    assert M * q * n**4 <= fem._BLOCK
    step = int(rng.choice([s for s in range(1, M) if M % s]))
    A = fem.material_at_points(m, mesh, u, "elasticity")
    Ke = fem.element_matrices(mesh, A)
    assert _same_elements(fem._tangent_matrices(m, mesh, u), Ke)
    K = fem.second_variation_matrix(m, mesh, u)
    Ko = fem._assemble(mesh._ordered_plan(), Ke, sp.csc_matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fem, "_BLOCK", step * q * n**4)
        assert _same_elements(fem.element_matrices(mesh, A), Ke)
        blocked = fem._tangent_matrices(m, mesh, u)
        assert _same_elements(blocked, Ke)
        assert _same_bits(fem.second_variation_matrix(m, mesh, u), K)
        assert _same_bits(fem._assemble(mesh._ordered_plan(), blocked, sp.csc_matrix), Ko)
    # a block of the points, the last one ragged, evaluates as among all
    F = fem.deformation_gradients(mesh, u).reshape(-1, n, n)
    coords = mesh.quadrature()[0].reshape(-1, n)
    A = A.reshape(-1, n, n, n, n)
    for start in range(0, M * q, step * q):
        rows = slice(start, start + step * q)
        got = m.at_points(rows).elasticity_many(coords[rows], F[rows])
        assert _same_elements(got, A[rows])


def test_tangent_memory_is_bounded_by_one_block(monkeypatch):
    # numpy's buffers are traced (SuperLU's are not): past the matrix and
    # the element-matrix buffer it gathers from, the tangent of an 8^3 box
    # in 11 blocks holds about 6 blocks' worth of temporaries at a time;
    # the elasticity of the whole mesh and its products would take 63
    m, mesh = material.stvk(1.0, 1.0), fem.box_mesh(8, 8, 8)
    u = fem.FeField(mesh, mesh.nodes @ np.diag([1.05, 1.0, 1.0]).T)
    fem.second_variation_matrix(m, mesh, u)   # the plan and quadrature caches
    monkeypatch.setattr(fem, "_BLOCK", 1 << 15)
    M, q, k, n = mesh.quadrature()[1].shape
    step = fem._BLOCK // (q * n**4)
    assert -(-M // step) == 11
    tracemalloc.start()
    try:
        K = fem.second_variation_matrix(m, mesh, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes + (M * (k * n) ** 2 + 1) * 8
    assert peak <= output + 10 * step * q * n**4 * 8


@st.composite
def _order_meshes(draw):
    """A generated mesh of any kind or a lattice-mask mesh, its node and
    element ids shuffled or not, as a mesh file may list them."""
    kind = draw(st.sampled_from(["generated", "mask"]))
    if kind == "generated":
        mesh = draw(st.sampled_from(sorted(_ASSEMBLY_MESHES)).map(lambda k: _ASSEMBLY_MESHES[k]()))
    else:
        mask = draw(_lattice_masks())
        mesh = fem._lattice_mesh(mask.shape, (1.0,) * mask.ndim, mask, "all")
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        perm = rng.permutation(mesh.nnodes)
        mesh = fem.Mesh(
            mesh.nodes[np.argsort(perm)], perm[mesh.elements][rng.permutation(len(mesh.elements))],
            [tuple(perm[list(f)]) for f in mesh.dirichlet_facets],
            [tuple(perm[list(f)]) for f in mesh.traction_facets],
        )
    return mesh


@settings(max_examples=40, deadline=None)
@given(mesh=_order_meshes(), shifts=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3))
def test_dof_order_permutes_the_free_dofs_and_keeps_the_inertia(tmp_path_factory, mesh, shifts):
    path = tmp_path_factory.mktemp("order") / "mesh.txt"
    fem.write_mesh(mesh, path)
    for mesh in (mesh, fem.read_mesh(path)):
        n, nfree = mesh.dim, int(mesh.free_mask().sum())
        order = mesh.dof_order()
        assert order.dtype == np.int32 and not order.flags.writeable
        assert np.array_equal(np.sort(order), np.arange(nfree))
        # a node's components stay together, in component order
        assert np.array_equal(order.reshape(-1, n) % n, np.tile(np.arange(n), (nfree // n, 1)))
        if nfree == 0:
            continue
        # the pencil of the korn pipeline: M - s G, s clear of every
        # eigenvalue, has as many negative pivots in the order as in
        # minimum-degree order, one per eigenvalue below s
        M = fem.scatter_matrix(mesh, rigidity._korn_element_matrices(mesh))
        G = fem.gradient_gram_matrix(mesh)
        lams = scipy.linalg.eigh(M.toarray(), G.toarray(), eigvals_only=True)
        for s in shifts:
            if np.min(np.abs(lams - s)) <= 1e-6 * max(1.0, s):
                continue
            A = (M - s * G).tocsr()
            want = int(np.count_nonzero(lams < s))
            assert negative_pivots_mmd(A) == want
            lu = fem.SparseLU(A[order][:, order], diagonal=True)
            assert int(np.count_nonzero(lu.pivots() < 0)) == want


def test_dissection_order_splits_the_longest_axis_at_a_middle_plane():
    # 7 x 3 points: the x = 3 column is the separator, last; x < 3 first
    X = np.array([(x, y) for y in range(3) for x in range(7)], dtype=float)
    order = fem._dissection_order(X, leaf=9)
    assert set(order[-3:]) == {3, 10, 17}
    assert set(order[:9]) == {i for i in range(21) if X[i, 0] < 3}
    # a part within the leaf size keeps index order
    assert np.array_equal(fem._dissection_order(X, leaf=21), np.arange(21))
    # coincident points all lie on the plane and end the recursion
    assert np.array_equal(fem._dissection_order(np.zeros((5, 2)), leaf=1), np.arange(5))


def test_sparse_lu_solves_in_an_order_with_and_without_pivoting():
    rng = np.random.default_rng(2)
    nd = 40
    a = rng.normal(size=(nd, nd))
    sym = a + a.T  # indefinite
    b = rng.normal(size=nd)
    order = rng.permutation(nd)
    A = sp.csr_matrix(sym)
    # B = P A P^T with its order solves A x = b; A with none solves itself
    for B, by in ((A[order][:, order], order), (A, None)):
        np.testing.assert_allclose(sym @ fem.SparseLU(B, by).solve(b), b, atol=1e-9)
    # diagonal pivots give the inertia of a symmetric matrix in any order
    spd = a @ a.T + nd * np.eye(nd)
    e = np.linalg.eigvalsh(spd)
    shifted = sp.csr_matrix(spd - 0.5 * (e[4] + e[5]) * np.eye(nd))
    lu = fem.SparseLU(shifted[order][:, order], order, diagonal=True)
    assert int(np.count_nonzero(lu.pivots() < 0)) == 5
    np.testing.assert_allclose(shifted @ lu.solve(b), b, atol=1e-6)
    with pytest.raises(RuntimeError, match="singular"):
        fem.SparseLU(sp.csr_matrix((nd, nd)))


def test_determinant_violation_raised():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(2, 2)
    u = fem.FeField(mesh, mesh.nodes @ np.diag([-1.0, 1.0]))
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: np.diag([-1.0, 1.0]) @ x)
    with pytest.raises(errors.DeterminantViolation):
        fem.total_energy(m, mesh, loads, u)


# ------------------------------------------------------------------- solver

def test_solver_affine_stretch_zero_iterations():
    # a homogeneous affine state is an exact equilibrium of a homogeneous
    # material with pure Dirichlet loading, so Newton converges immediately
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(4, 4)
    A = np.diag([1.1, 1.0])
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u, log = fem.solve_equilibrium(m, mesh, loads, u0)
    assert log.converged and log.iterations == 0
    assert log.residual_history[0] <= 1e-10


def test_solver_recovers_affine_from_perturbed_start():
    rng = np.random.default_rng(5)
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(4, 4)
    A = np.diag([1.1, 1.0])
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u0.values += _interior_perturb(mesh, rng, 0.02)
    u, log = fem.solve_equilibrium(m, mesh, loads, u0)
    assert log.converged
    assert np.max(np.abs(u.values - mesh.nodes @ A.T)) <= 1e-8


def test_solver_neo_hookean_body_force():
    m = material.neo_hookean(1.0, 1.0)
    mesh = fem.rectangle_mesh(4, 4)
    loads = fem.LoadSet.build(mesh, body=[0.0, -0.3], dirichlet=lambda x: x)
    u, log = fem.solve_equilibrium(m, mesh, loads, fem.FeField.identity(mesh))
    assert log.converged
    assert np.max(np.abs(fem.residual(m, mesh, loads, u))) <= 1e-10
    # the body sags downward in the interior
    interior = np.setdiff1d(np.arange(mesh.nnodes), mesh.dirichlet_nodes)
    assert np.all(u.values[interior, 1] < mesh.nodes[interior, 1])


def test_solver_halves_a_step_that_violates_the_determinant(monkeypatch):
    # the first trial step of the line search is refused as if it folded
    # an element; the solve retries at half the step and still converges
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(4, 4)
    loads = fem.LoadSet.build(mesh, body=[0.0, -0.3], dirichlet=lambda x: x)
    u0 = fem.FeField.identity(mesh)
    expected, _ = fem.solve_equilibrium(m, mesh, loads, u0)
    energy = fem.total_energy
    states = []

    def guarded(m, mesh, loads, u):
        states.append(u.values.copy())
        if len(states) == 2:
            raise errors.DeterminantViolation("refused trial step")
        return energy(m, mesh, loads, u)

    monkeypatch.setattr(fem, "total_energy", guarded)
    u, log = fem.solve_equilibrium(m, mesh, loads, u0)
    start, full, half = states[:3]
    assert np.abs(full - start).max() > 0.0
    np.testing.assert_allclose(half - start, 0.5 * (full - start), rtol=0, atol=1e-15)
    assert log.converged
    np.testing.assert_allclose(u.values, expected.values, rtol=0, atol=1e-10)


@pytest.mark.parametrize("model", ["stvk", "neo-hookean"])
def test_solver_takes_each_state_s_gradient_and_quantities_once(monkeypatch, model):
    # every state the solve visits, accepted or not, takes grad u once and
    # its energy once; each accepted state its stress once, and each state
    # a Newton step leaves its elasticity once
    m = material.stvk(1.0, 1.0) if model == "stvk" else material.neo_hookean(1.0, 1.0)
    mesh = fem.rectangle_mesh(6, 6)
    loads = fem.LoadSet.build(mesh, body=[0.0, -0.3], dirichlet=lambda x: x)
    grads, taken = [], {"energy": [], "stress": [], "elasticity": []}
    gradients = fem.deformation_gradients

    def counted_gradients(mesh, u):
        F = gradients(mesh, u)
        grads.append(F.tobytes())
        return F

    monkeypatch.setattr(fem, "deformation_gradients", counted_gradients)
    for quantity, calls in taken.items():
        def counted(x, F, calls=calls, evaluate=getattr(m, f"{quantity}_many")):
            calls.append(F.tobytes())
            return evaluate(x, F)

        monkeypatch.setattr(m, f"{quantity}_many", counted)
    u, log = fem.solve_equilibrium(m, mesh, loads, fem.FeField.identity(mesh))
    assert log.converged and log.iterations >= 2
    assert len(set(grads)) == len(grads)
    assert sorted(taken["energy"]) == sorted(grads)
    for quantity, steps in (("stress", log.iterations + 1), ("elasticity", log.iterations)):
        assert len(taken[quantity]) == len(set(taken[quantity])) == steps
        assert set(taken[quantity]) <= set(grads)
    assert taken["stress"][-1] == grads[-1]


def test_solver_stall_carries_the_solve_log():
    # an energy 1e30 times the one its stress derives from rises along
    # every step the line search tries, down to 1e-12
    base = material.stvk(1.0, 1.0)
    m = material.CustomMaterial(
        "stiff-energy", lambda x, F: 1e30 * base.energy_many(None, F[None])[0],
        lambda x, F: base.stress_many(None, F[None])[0],
        lambda x, F: base.elasticity_many(None, F[None])[0],
    )
    mesh = fem.rectangle_mesh(2, 2)
    loads = fem.LoadSet.build(mesh, body=[0.0, -0.3], dirichlet=lambda x: x)
    with pytest.raises(errors.LineSearchStall) as stall:
        fem.solve_equilibrium(m, mesh, loads, fem.FeField.identity(mesh))
    log = stall.value.log
    assert not log.converged and log.iterations == 0
    assert len(log.residual_history) == len(log.energy_history) == 1
    assert log.residual_history[0] > 1e-10


def test_solver_singular_tangent_raises(monkeypatch):
    # a zero elasticity makes the tangent exactly singular: its
    # factorization fails, and no warning escapes before SingularTangent
    flat = material.CustomMaterial(
        "flat", lambda x, F: 0.5 * float(np.sum((F - np.eye(2)) ** 2)),
        lambda x, F: F - np.eye(2), lambda x, F: np.zeros((2, 2, 2, 2)),
    )
    mesh = fem.rectangle_mesh(2, 2)
    loads = fem.LoadSet.build(mesh, body=[0.1, 0.0], dirichlet=lambda x: x)
    start = fem.FeField.identity(mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.SingularTangent,
                           match="tangent solve failed: Factor is exactly singular"):
            fem.solve_equilibrium(flat, mesh, loads, start)

    # a factorization that fails outright
    def failing_factorization(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fem, "SparseLU", failing_factorization)
    with pytest.raises(errors.SingularTangent,
                       match="tangent solve failed: Factor is exactly singular"):
        fem.solve_equilibrium(material.stvk(1.0, 1.0), mesh, loads, start)


def test_solver_boundary_mismatch():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(2, 2)
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: 1.1 * x)
    with pytest.raises(errors.BoundaryMismatch):
        fem.solve_equilibrium(m, mesh, loads, fem.FeField.identity(mesh))


def test_solver_3d_affine():
    m = material.neo_hookean(1.0, 0.5)
    mesh = fem.box_mesh(2, 2, 2)
    A = np.diag([1.05, 1.0, 0.98])
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u, log = fem.solve_equilibrium(m, mesh, loads, u0)
    assert log.converged and log.iterations <= 1


# ---------------------------------------------------------------- analysis

def test_energy_identity_at_equilibrium():
    rng = np.random.default_rng(23)
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(4, 4)
    loads = fem.LoadSet.build(mesh, body=[0.05, -0.1], dirichlet=lambda x: x)
    u_e, _ = fem.solve_equilibrium(m, mesh, loads, fem.FeField.identity(mesh))
    v = u_e.copy()
    v.values += _interior_perturb(mesh, rng, 0.05)
    gap = fem.energy_identity_check(m, mesh, loads, u_e, v)
    assert gap <= 1e-10 * (1 + abs(fem.total_energy(m, mesh, loads, v)))


def test_energy_identity_rejects_non_equilibrium():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(3, 3)
    loads = fem.LoadSet.build(mesh, body=[0.3, 0.0], dirichlet=lambda x: x)
    u = fem.FeField.identity(mesh)
    with pytest.raises(errors.NotEquilibrium):
        fem.energy_identity_check(m, mesh, loads, u, u)


def test_coercivity_trivial_scalings():
    import scipy.sparse as sp
    G = sp.identity(10, format="csr") * 2.0
    assert fem.coercivity_constant(G.copy(), G) == pytest.approx(1.0, abs=1e-12)
    assert fem.coercivity_constant(2.0 * G, G) == pytest.approx(2.0, abs=1e-12)


def test_coercivity_positive_at_identity():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(4, 4)
    u = fem.FeField.identity(mesh)
    K = fem.second_variation_matrix(m, mesh, u)
    G = fem.gradient_gram_matrix(mesh)
    lam = fem.coercivity_constant(K, G)
    assert lam > 0.5  # clamped body at a stress-free state is strongly stable
    # and against random directions the quotient is never below lam
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = _interior_perturb(mesh, rng, 1.0)[mesh.free_mask()].ravel()
        assert w @ (K @ w) >= (lam - 1e-9) * (w @ (G @ w))


# pencils of a size that a dense eigensolve would find slow, to exercise
# coercivity_constant's sparse factorizations at scale
_SPARSE_DOFS = 3600


def _diagonal_pencil():
    """Eigenvalues -5, 0.1, then 3598 values spread over [1, 2]."""
    diag = np.r_[-5.0, 0.1, np.linspace(1.0, 2.0, _SPARSE_DOFS - 2)]
    return sp.diags(diag).tocsr(), sp.identity(_SPARSE_DOFS, format="csr")


def test_coercivity_sparse_returns_the_smallest_not_the_nearest_zero():
    assert fem.coercivity_constant(*_diagonal_pencil()) == pytest.approx(-5.0, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 4),
       size=st.integers(2, 6), indefinite=st.booleans())
def test_coercivity_sparse_block_pencils_match_dense(seed, blocks, size, indefinite):
    rng = np.random.default_rng(seed)
    ms, gs, exact = [], [], [1.0]
    for _ in range(blocks):
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        e = rng.uniform(0.1, 3.0, size)
        if indefinite:
            e[0] = -e[0]
        a = rng.normal(size=(size, size))
        m, g = (q * e) @ q.T, np.eye(size) + a @ a.T / size
        ms.append(m)
        gs.append(g)
        exact.append(scipy.linalg.eigh(m, g, eigvals_only=True)[0])
    # a positive diagonal filler (eigenvalues 1..2) carries the pencil to
    # _SPARSE_DOFS rows
    fill = _SPARSE_DOFS - blocks * size
    M = sp.block_diag(ms + [sp.diags(np.linspace(1.0, 2.0, fill))], format="csr")
    G = sp.block_diag(gs + [sp.identity(fill)], format="csr")
    lam = fem.coercivity_constant(M, G)
    assert lam == pytest.approx(min(exact), rel=1e-9)
    assert (lam < 0) == indefinite


def test_coercivity_sparse_singular_shift_is_not_positive_definite(monkeypatch):
    # M has eigenvalue 0 (the block [[1, 1], [1, 1]]): the first shift
    # below the diagonal quotients and the first bisection midpoint both
    # land on s = 0, where M - s G is exactly singular.  The bisection's
    # stopping width has the diagonal scale as its floor, so the bracket
    # around 0 closes after a few steps instead of spending the budget
    fill = _SPARSE_DOFS - 2
    M = sp.block_diag([np.ones((2, 2)), sp.diags(np.linspace(1.0, 2.0, fill))], format="csr")
    calls = _counting_splu(monkeypatch)
    lam = fem.coercivity_constant(M, sp.identity(_SPARSE_DOFS, format="csr"))
    assert abs(lam) <= 1e-12
    assert len(calls) <= 15


def test_coercivity_sparse_off_diagonal_pivot_raises(monkeypatch):
    real_splu = scipy.sparse.linalg.splu

    def off_diagonal_splu(A, **kwargs):
        lu = real_splu(A, **kwargs)
        return types.SimpleNamespace(perm_r=np.roll(lu.perm_c, 1), perm_c=lu.perm_c,
                                     U=lu.U, solve=lu.solve)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", off_diagonal_splu)
    with pytest.raises(errors.EigenFailure, match="off the diagonal"):
        fem.coercivity_constant(*_diagonal_pencil())


def test_coercivity_sparse_no_positive_definite_shift_raises():
    # M - s G = [[1 - s, 3 - 2s], [3 - 2s, 1 - s]] per block has eigenvalues
    # 4 - 3s and s - 2, never both positive: G is not positive definite
    half = _SPARSE_DOFS // 2
    M = sp.block_diag([np.array([[1.0, 3.0], [3.0, 1.0]])] * half, format="csr")
    G = sp.block_diag([np.array([[1.0, 2.0], [2.0, 1.0]])] * half, format="csr")
    with pytest.raises(errors.EigenFailure, match="no positive definite shift"):
        fem.coercivity_constant(M, G)
    with pytest.raises(errors.EigenFailure, match="diagonal entry <= 0"):
        fem.coercivity_constant(M, -G)


@pytest.mark.parametrize("ritz", [-4.0, -100.0])
def test_coercivity_sparse_unconfirmed_eigenvalue_raises(monkeypatch, ritz):
    # the loose Lanczos that places the bracket runs as it is; the tight
    # one returns ritz.  -4 lies above the smallest eigenvalue -5, so the
    # closing inertia check finds -5 below it; -100 lies below the slicing
    # bound
    real_eigsh = scipy.sparse.linalg.eigsh

    def bad_tight_lanczos(*args, return_eigenvectors=True, **kwargs):
        if return_eigenvectors:
            return real_eigsh(*args, **kwargs)
        return np.array([ritz])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", bad_tight_lanczos)
    with pytest.raises(errors.EigenFailure, match="not confirmed"):
        fem.coercivity_constant(*_diagonal_pencil())


def test_coercivity_sparse_arpack_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(errors.EigenFailure, match="no convergence"):
        fem.coercivity_constant(*_diagonal_pencil())


def _counting_splu(monkeypatch):
    """Patch scipy.sparse.linalg.splu to count its calls into the list
    returned: per call, the count of pivots <= 0 of its factors (with
    diagonal pivots, the factored matrix's count of eigenvalues <= 0), or
    None for a call that raises."""
    real_splu = scipy.sparse.linalg.splu
    calls = []

    def counting_splu(A, **kwargs):
        calls.append(None)
        lu = real_splu(A, **kwargs)
        calls[-1] = int(np.count_nonzero(lu.U.diagonal() <= 0))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


def _korn_pencil(n):
    mesh = fem.rectangle_mesh(n, n)
    B = fem.scatter_matrix(mesh, rigidity._korn_element_matrices(mesh))
    return B, fem.gradient_gram_matrix(mesh), mesh.dof_order()


def _stretch_pencil():
    # the certificates' reference pencil: StVK (1, 1) on 16x16 at the
    # equilibrium of a 5% affine stretch
    m, mesh = material.stvk(1.0, 1.0), fem.rectangle_mesh(16, 16)
    A = np.diag([1.05, 1.0])
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    u_e, log = fem.solve_equilibrium(m, mesh, loads, fem.FeField(mesh, mesh.nodes @ A.T))
    assert log.converged
    M, G = fem.second_variation_matrix(m, mesh, u_e), fem.gradient_gram_matrix(mesh)
    return M, G, mesh.dof_order()


@pytest.mark.parametrize("pencil", [lambda: _korn_pencil(16), lambda: _korn_pencil(32),
                                    lambda: _korn_pencil(48), _stretch_pencil],
                         ids=["korn-16", "korn-32", "korn-48", "stretch-16"])
def test_coercivity_takes_at_most_three_factorizations(monkeypatch, pencil):
    # the first positive definite shift, the trial shift below the loose
    # Lanczos' Rayleigh quotient, and the closing inertia check; the
    # plain bisection took 13 on each of these; in the mesh's order as in
    # its own, and against the bisection in the pencil's own order
    M, G, order = pencil()
    expected = coercivity_constant_bisection(M, G)
    for by in (order, None):
        calls = _counting_splu(monkeypatch)
        lam = fem.coercivity_constant(M, G, by)
        assert len(calls) <= 3
        assert abs(lam - expected) <= 1e-12 * abs(expected)


def test_coercivity_trial_shift_not_positive_definite_falls_back_to_bisection(monkeypatch):
    # the loose Lanczos hands back its fixed start vector, whose Rayleigh
    # quotient lies far above the smallest eigenvalue: the trial shift just
    # below it is not positive definite, and bisection narrows the bracket
    rng = np.random.default_rng(5)
    nd = 30
    q, _ = np.linalg.qr(rng.normal(size=(nd, nd)))
    m = (q * rng.uniform(0.1, 3.0, nd)) @ q.T
    a = rng.normal(size=(nd, nd))
    g = np.eye(nd) + a @ a.T / nd
    real_eigsh = scipy.sparse.linalg.eigsh
    loose = []

    def start_vector_lanczos(*args, return_eigenvectors=True, **kwargs):
        if not return_eigenvectors:
            return real_eigsh(*args, return_eigenvectors=False, **kwargs)
        v0 = kwargs["v0"]
        loose.append(v0 @ m @ v0 / (v0 @ g @ v0))
        return np.array([loose[-1]]), v0[:, None].copy()

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", start_vector_lanczos)
    calls = _counting_splu(monkeypatch)
    lam = fem.coercivity_constant(sp.csr_matrix(m), sp.csr_matrix(g))
    exact = scipy.linalg.eigh(m, g, eigvals_only=True)[0]
    assert len(loose) == 1 and loose[0] > 1.5 * exact
    assert len(calls) > 3
    assert abs(lam - exact) <= 1e-12 * abs(exact)


def _clustered_pencil(seed, gap, width, cluster, blocks, size):
    """Block pencil of blocks dense blocks of size rows whose smallest
    eigenvalue c sits a relative gap below a cluster of cluster eigenvalues
    spread over a relative width, the rest in [1.5, 3] |c|; each block is
    (L Q D Q^T L^T, L L^T) with D its share of the spectrum.  Returns
    (M, G, the smallest eigenvalue from scipy.linalg.eigh)."""
    rng = np.random.default_rng(seed)
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    rest = abs(c) * rng.uniform(1.5, 3.0, blocks * size - cluster - 1)
    e = np.r_[c, rng.permutation(np.r_[c + abs(c) * (gap + width * rng.random(cluster)), rest])]
    ms, gs = [], []
    for part in np.split(e, blocks):
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        a = rng.normal(size=(size, size))
        L = np.linalg.cholesky(np.eye(size) + a @ a.T / size)
        m = L @ (q * part) @ q.T @ L.T
        ms.append(0.5 * (m + m.T))
        gs.append(L @ L.T)
    exact = min(scipy.linalg.eigh(m, g, eigvals_only=True)[0] for m, g in zip(ms, gs))
    return sp.block_diag(ms, format="csr"), sp.block_diag(gs, format="csr"), exact


@settings(max_examples=30, deadline=None)
@example(seed=15, log_gap=-5.4, log_width=-2.4, cluster=55, blocks=4)     # nu = 1
@example(seed=5, log_gap=-5.4, log_width=-2.2, cluster=108, blocks=4)     # nu = 5
@example(seed=156, log_gap=-3.8, log_width=-2.6, cluster=112, blocks=6)   # nu = 11
@given(seed=st.integers(0, 2**32 - 1), log_gap=st.floats(-6.0, -3.0),
       log_width=st.floats(-4.0, -2.0), cluster=st.integers(40, 150),
       blocks=st.integers(3, 6))
def test_coercivity_clustered_pencils_match_dense(seed, log_gap, log_width, cluster, blocks):
    # the loose Rayleigh quotient may land inside the cluster, so that nu
    # eigenvalues lie below the trial shift: for nu <= 9 one Lanczos there
    # takes them, and the trial and the closing check are the only
    # factorizations after the first positive definite shift
    M, G, exact = _clustered_pencil(seed, 10.0**log_gap, 10.0**log_width, cluster, blocks, 50)
    with pytest.MonkeyPatch.context() as patch:
        below = _counting_splu(patch)
        lam = fem.coercivity_constant(M, G)
    assert abs(lam - exact) <= 1e-12 * abs(exact)
    first = below.index(0)
    if below[first + 1] <= 9:
        assert len(below) == first + 3


def _bisecting_pencil(monkeypatch):
    """A 30-dof dense pencil whose loose Lanczos hands back its start
    vector, far above the smallest eigenvalue, so that the trial shift is
    not positive definite and bisection narrows the bracket."""
    rng = np.random.default_rng(5)
    nd = 30
    q, _ = np.linalg.qr(rng.normal(size=(nd, nd)))
    m = (q * rng.uniform(0.1, 3.0, nd)) @ q.T
    a = rng.normal(size=(nd, nd))
    g = np.eye(nd) + a @ a.T / nd
    real_eigsh = scipy.sparse.linalg.eigsh

    def start_vector_lanczos(*args, return_eigenvectors=True, **kwargs):
        if not return_eigenvectors:
            return real_eigsh(*args, return_eigenvectors=False, **kwargs)
        v0 = kwargs["v0"]
        return np.array([v0 @ m @ v0 / (v0 @ g @ v0)]), v0[:, None].copy()

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", start_vector_lanczos)
    return sp.csr_matrix(m), sp.csr_matrix(g), None


@pytest.mark.parametrize("pencil, below_trial, most", [
    (lambda patch: _diagonal_pencil() + (None,), 0, 1),
    (lambda patch: _korn_pencil(16), 7, 1),
    (_bisecting_pencil, 10, 2),
], ids=["nu-0", "korn-16", "bisection"])
def test_coercivity_keeps_one_factorization_alive(monkeypatch, pencil, below_trial, most):
    # every factorization is dropped once no later step reads it: one at a
    # time with nu = 0 and 1 <= nu <= 9, and on the bisection branch lo's
    # beside the midpoint's; none outlives the call
    M, G, order = pencil(monkeypatch)
    live, peaks = weakref.WeakSet(), []

    class TrackedLU(fem.SparseLU):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)
            peaks.append(len(live))

    monkeypatch.setattr(fem, "SparseLU", TrackedLU)
    below = _counting_splu(monkeypatch)
    fem.coercivity_constant(M, G, order)
    first = below.index(0)
    assert below[first + 1] == below_trial
    assert max(peaks) == most and len(live) == 0
    if most == 1:
        assert len(peaks) == first + 3


def test_coercivity_unconfirmed_eigenvalue_below_the_trial_shift_raises(monkeypatch):
    # on korn-16, seven eigenvalues lie below the trial shift; a Lanczos
    # there that misses the smallest of them is caught by the closing check
    real_eigsh = scipy.sparse.linalg.eigsh
    below_shift = []

    def missing_the_smallest(*args, which="LM", **kwargs):
        values = real_eigsh(*args, which=which, **kwargs)
        if which != "SA":
            return values
        below_shift.append(kwargs["k"])
        return np.sort(values)[1:]

    M, G, order = _korn_pencil(16)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", missing_the_smallest)
    with pytest.raises(errors.EigenFailure, match="not confirmed"):
        fem.coercivity_constant(M, G, order)
    assert below_shift == [7]


@pytest.mark.parametrize("n, most", [(32, 70), (48, 90)])
def test_coercivity_korn_lanczos_solves(monkeypatch, n, most):
    # the tight Lanczos runs 1e-4 below the loose Rayleigh quotient, or
    # below the eigenvalues under it: 62 and 82 solves (112 and 152 when it
    # ran 1e-3 below)
    real_solve = fem.SparseLU.solve
    solves = []

    def counting_solve(self, b):
        solves.append(len(b))
        return real_solve(self, b)

    M, G, order = _korn_pencil(n)
    monkeypatch.setattr(fem.SparseLU, "solve", counting_solve)
    fem.coercivity_constant(M, G, order)
    assert len(solves) <= most


def _no_factorization(*args, **kwargs):
    raise AssertionError("a degenerate pencil reached a factorization")


@pytest.mark.parametrize("nd", [1, 10, _SPARSE_DOFS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["M", "G"])
def test_coercivity_non_finite_pencil_raises_before_factorizing(monkeypatch, nd, bad, side):
    diag = np.linspace(1.0, 2.0, nd)
    diag[nd // 2] = bad
    M, G = sp.identity(nd, format="csr"), sp.identity(nd, format="csr")
    if side == "M":
        M = sp.diags(diag).tocsr()
    else:
        G = sp.diags(diag).tocsr()
    monkeypatch.setattr(scipy.sparse.linalg, "splu", _no_factorization)
    with pytest.raises(errors.EigenFailure, match="non-finite"):
        fem.coercivity_constant(M, G)


@pytest.mark.parametrize("empty", [sp.csr_matrix((0, 0)), np.empty((0, 0))])
def test_coercivity_empty_pencil_raises(monkeypatch, empty):
    monkeypatch.setattr(scipy.sparse.linalg, "splu", _no_factorization)
    with pytest.raises(errors.EigenFailure, match="empty pencil"):
        fem.coercivity_constant(empty, empty)


@pytest.mark.parametrize("m, g", [(3.0, 1.0), (6.0, 2.0), (-1.5, 0.5), (0.0, 4.0)])
def test_coercivity_one_dof_pencil_is_its_quotient(monkeypatch, m, g):
    real_splu = scipy.sparse.linalg.splu
    factorized = []

    def counting_splu(A, **kwargs):
        factorized.append(A.toarray()[0, 0])
        return real_splu(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    assert fem.coercivity_constant(sp.csr_matrix([[m]]), sp.csr_matrix([[g]])) == m / g
    assert fem.coercivity_constant(np.array([[m]]), np.array([[g]])) == m / g
    # each value passed the closing inertia check, M - (lam - tau) G > 0
    assert len(factorized) == 2 and all(0.0 < a <= 1e-11 * g * max(abs(m / g), 1.0)
                                        for a in factorized)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nd=st.integers(2, 40),
       kind=st.sampled_from(["definite", "indefinite", "all-equal"]))
def test_coercivity_small_pencils_match_dense_eigh(seed, nd, kind):
    # the sizes every certify pipeline's tests reach; no dense branch
    # serves them, so the sliced eigensolve must match LAPACK here too
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(nd, nd))
    g = np.eye(nd) + a @ a.T / nd
    if kind == "all-equal":
        m = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0) * g
    else:
        q, _ = np.linalg.qr(rng.normal(size=(nd, nd)))
        e = rng.uniform(0.1, 3.0, nd)
        if kind == "indefinite":
            e[rng.integers(nd)] *= -1.0
        m = (q * e) @ q.T
    exact = scipy.linalg.eigh(m, g, eigvals_only=True)[0]
    lam = fem.coercivity_constant(sp.csr_matrix(m), sp.csr_matrix(g))
    assert abs(lam - exact) <= 1e-12 * abs(exact)
    # and the Rayleigh-quotient bracket agrees with the plain bisection
    bisected = coercivity_constant_bisection(sp.csr_matrix(m), sp.csr_matrix(g))
    assert abs(lam - bisected) <= 1e-12 * abs(bisected)
    # Sylvester: the pencil's inertia is that of m, since g is positive definite
    assert (lam < 0) == (np.linalg.eigvalsh(m)[0] < 0)


def test_mean_gradient_affine_exact():
    mesh = fem.l_shape_mesh(4)
    A = np.array([[1.1, 0.3], [-0.2, 0.9]])
    u = fem.FeField(mesh, mesh.nodes @ A.T)
    assert np.max(np.abs(fem.mean_gradient(mesh, u) - A)) <= 1e-13


def test_gradient_field_affine_constant_cells():
    mesh = fem.square_ring_mesh(8)
    A = np.array([[1.2, 0.1], [0.05, 0.95]])
    u = fem.FeField(mesh, mesh.nodes @ A.T)
    gf = fem.gradient_field(mesh, u)
    assert gf.mask.shape == (8, 8)
    for idx in np.argwhere(gf.mask):
        assert np.max(np.abs(gf.values[tuple(idx)] - A)) <= 1e-12


def test_gradient_field_on_cube_cell_box():
    counts, h = (2, 3, 2), 0.5
    mesh = fem.box_mesh(*counts, tuple(h * n for n in counts), dirichlet=("x0",))
    vals = np.random.default_rng(5).standard_normal((mesh.nnodes, 3))
    gf = fem.gradient_field(mesh, vals)
    assert gf.mask.shape == counts and gf.mask.all()
    assert gf.spacing == h and gf.origin == (0.0, 0.0, 0.0)
    # the centre gradient of a trilinear cube: along each axis, the mean
    # of the four edge differences over h
    U = vals.reshape(3, 4, 3, 3)  # node id i + 3 (j + 4 k) as [k, j, i]
    for i, j, k in np.ndindex(counts):
        cube = U[k:k + 2, j:j + 2, i:i + 2]  # [dk, dj, di, component]
        want = np.stack([
            (cube[:, :, 1] - cube[:, :, 0]).mean(axis=(0, 1)),
            (cube[:, 1] - cube[:, 0]).mean(axis=(0, 1)),
            (cube[1] - cube[0]).mean(axis=(0, 1)),
        ], axis=1) / h
        assert np.max(np.abs(gf.values[i, j, k] - want)) <= 1e-12
    with pytest.raises(errors.DimensionMismatch):
        fem.gradient_field(fem.box_mesh(2, 2, 2, (1.0, 2.0, 0.5)), np.zeros((27, 3)))


def test_facet_deformation_gradients_affine():
    mesh = fem.rectangle_mesh(3, 3, dirichlet=("left",))
    A = np.array([[1.1, 0.2], [0.0, 0.9]])
    u = fem.FeField(mesh, mesh.nodes @ A.T)
    Fq = fem.facet_deformation_gradients(mesh, u, mesh.traction_facets)
    assert Fq.shape == (len(mesh.traction_facets), 2, 2, 2)
    assert np.max(np.abs(Fq - A)) <= 1e-12


def test_mesh_file_roundtrip(tmp_path):
    mesh = fem.l_shape_mesh(4, dirichlet=("left", "bottom"))
    path = tmp_path / "mesh.txt"
    fem.write_mesh(mesh, path)
    back = fem.read_mesh(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.elements, mesh.elements)
    assert back.dirichlet_facets == mesh.dirichlet_facets
    assert back.traction_facets == mesh.traction_facets
    assert back.mesh_hash() == mesh.mesh_hash()


_ROUNDTRIP_MESHES = (
    fem.rectangle_mesh(3, 2, 1.5, 1.0, dirichlet=("left",)),
    fem.l_shape_mesh(4, dirichlet=("left", "bottom")),
    fem.square_ring_mesh(8, dirichlet=("inner",)),
    fem.box_mesh(2, 1, 3, dirichlet=("z1", "x0")),
)


@settings(max_examples=30, deadline=None)
@given(mesh=st.sampled_from(_ROUNDTRIP_MESHES), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_mesh_file_roundtrip_keeps_hash(tmp_path_factory, mesh, seed, scale):
    # an affine image with positive determinant keeps the mesh valid and
    # gives node coordinates with full mantissas
    rng = np.random.default_rng(seed)
    A = scale * (np.eye(mesh.dim) + 0.2 * rng.uniform(-1.0, 1.0, (mesh.dim, mesh.dim)))
    moved = fem.Mesh(mesh.nodes @ A.T + rng.standard_normal(mesh.dim), mesh.elements,
                     mesh.dirichlet_facets, mesh.traction_facets)
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    fem.write_mesh(moved, path)
    back = fem.read_mesh(path)
    assert back.mesh_hash() == moved.mesh_hash()
    assert back.dirichlet_facets == moved.dirichlet_facets
    assert back.traction_facets == moved.traction_facets


@pytest.mark.parametrize("edit, line, message", [
    (lambda t: t.replace("dim 2\n", ""), 2, "'dim'"),
    (lambda t: t.replace("nodes 9", "nodes nine"), 3, "count"),
    (lambda t: t.replace("elements 4 4", "elements 4"), 13, "count"),
    (lambda t: t.replace("0.5 0.5", "0.5 half"), 8, "bad nodes entry"),
    (lambda t: t.replace("0.5 0.5", "0.5"), 8, "1 values, expected 2"),
    (lambda t: t.replace("1 2 5 4", "1 2 5"), 15, "3 values, expected 4"),
    (lambda t: t[: t.index("elements")], 13, "file ends"),
    (lambda t: t[: t.index("traction")], 27, "file ends before the 'traction' line"),
    (lambda t: t[: t.index("7 8")], 26, "file ends before dirichlet entry 8 of 8"),
])
def test_read_mesh_typed_errors(tmp_path, edit, line, message):
    path = tmp_path / "mesh.txt"
    fem.write_mesh(fem.rectangle_mesh(2, 2), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(errors.DimensionMismatch, match=f"line {line}: .*{message}"):
        fem.read_mesh(path)


def test_a_facet_listed_twice_is_refused(tmp_path, capsys):
    # a file listing one of the 3 left facets twice, and a mesh listing a
    # traction facet twice; validate names the file's key
    from rigidity_cert import cli

    mesh = fem.rectangle_mesh(4, 3, dirichlet=("left",))
    path = tmp_path / "mesh.txt"
    fem.write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    at = lines.index("dirichlet 3")
    lines[at: at + 2] = ["dirichlet 4", lines[at + 1], lines[at + 1]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="a facet is listed twice"):
        fem.read_mesh(path)
    with pytest.raises(ValueError, match="a facet is listed twice"):
        fem.Mesh(mesh.nodes, mesh.elements, mesh.dirichlet_facets,
                 mesh.traction_facets + mesh.traction_facets[-1:])
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"name = file\npipeline = solve\nmesh.kind = file\nmesh.path = {path}\n")
    assert cli.main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == ("config error: mesh.path (line 4): "
                                       "a facet is listed twice\n")


def test_field_from_function_and_shape_check():
    mesh = fem.rectangle_mesh(2, 2)
    u = fem.FeField.from_function(mesh, lambda x: [x[0] + x[1], x[1]])
    assert u.values.shape == (mesh.nnodes, 2)
    with pytest.raises(errors.DimensionMismatch):
        fem.FeField(mesh, np.zeros((3, 2)))
