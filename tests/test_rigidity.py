"""Rotation-fit and Korn-constant tests with sampling oracles."""
import math

import numpy as np
import pytest

from rigidity_cert import errors, fem, harmonic, rigidity, tensor_core


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _matrix_field(values, spacing=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones(values.shape[:-2], dtype=bool)
    h = spacing if spacing is not None else 1.0 / values.shape[0]
    return harmonic.GridField(mask, values, h, (0.0,) * mask.ndim)


def _perturbed_map(rng, eps):
    """Smooth small perturbation of the identity with random mode weights."""
    c = rng.uniform(-1.0, 1.0, size=(2, 2, 2))

    def u(x):
        sx, sy = math.sin(math.pi * x[0]), math.sin(math.pi * x[1])
        cx, cy = math.cos(math.pi * x[0]), math.cos(math.pi * x[1])
        bump0 = c[0, 0, 0] * sx * sy + c[0, 0, 1] * sx * cy + c[0, 1, 0] * cx * sy
        bump1 = c[1, 0, 0] * sx * sy + c[1, 0, 1] * sx * cy + c[1, 1, 0] * cx * sy
        return np.array([x[0] + eps * bump0, x[1] + eps * bump1])

    return u


# ------------------------------------------------------------ best rotation

def test_best_rotation_constant_rotation_field():
    R0 = _rot(0.4)
    field = _matrix_field(np.broadcast_to(R0, (5, 5, 2, 2)).copy())
    R = rigidity.best_rotation(field)
    assert np.max(np.abs(R - R0)) <= 1e-12


def test_best_rotation_diagonal_mean_gives_identity():
    G = np.diag([2.0, 0.5])
    field = _matrix_field(np.broadcast_to(G, (3, 3, 2, 2)).copy())
    assert np.max(np.abs(rigidity.best_rotation(field) - np.eye(2))) <= 1e-12


def test_best_rotation_beats_sampled_rotations():
    # one-sided oracle: the polar rotation of the mean is at least as good
    # as 1e5 rotations in the mean-square objective
    rng = np.random.default_rng(42)
    cells = np.eye(2) + 0.3 * rng.standard_normal((64, 2, 2))
    if np.linalg.det(cells.mean(axis=0)) <= 0:  # pragma: no cover
        pytest.skip("degenerate draw")
    Q = rigidity.best_rotation(_matrix_field(cells.reshape(8, 8, 2, 2)))

    def objective(R):
        return float(np.mean(np.sum((cells - R) ** 2, axis=(1, 2))))

    Gbar = cells.mean(axis=0)
    a = Gbar[0, 0] + Gbar[1, 1]
    b = Gbar[1, 0] - Gbar[0, 1]
    base = float(np.mean(np.sum(cells**2, axis=(1, 2)))) + 2.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    sampled = base - 2.0 * (a * np.cos(thetas) + b * np.sin(thetas))
    assert objective(Q) <= sampled.min() + 1e-12


def test_best_rotation_degenerate_mean():
    vals = np.broadcast_to(np.diag([-1.0, 1.0]), (2, 2, 2, 2)).copy()
    with pytest.raises(errors.DegenerateMean):
        rigidity.best_rotation(_matrix_field(vals))


# ------------------------------------------------------------- rigidity fit

def test_fit_constant_rotation_all_zero():
    field = _matrix_field(np.broadcast_to(_rot(-0.7), (4, 4, 2, 2)).copy())
    rep = rigidity.rigidity_fit(field)
    assert rep.C_emp == 0.0
    assert rep.bmo_seminorm == 0.0
    assert rep.lhs_p <= 1e-24 and rep.rhs_p <= 1e-24
    assert rep.M_emp == 0.0


def test_fit_constant_gradient_lhs_equals_rhs():
    # a constant field deviates from its fitted rotation by exactly its
    # pointwise rotation distance, so the measured constant is 1
    G = np.array([[1.4, 0.2], [-0.1, 0.8]])
    field = _matrix_field(np.broadcast_to(G, (4, 4, 2, 2)).copy())
    rep = rigidity.rigidity_fit(field)
    assert rep.lhs_p == pytest.approx(rep.rhs_p, rel=1e-13)
    assert rep.C_emp == pytest.approx(1.0, rel=1e-12)
    assert rep.dist_sup == pytest.approx(tensor_core.dist_to_rotations(G), rel=1e-13)


def test_fit_rotation_field_flags_infinite_constant():
    # pointwise rotations with varying angle: distance to the rotation
    # group vanishes cellwise, yet no single rotation fits
    rng = np.random.default_rng(3)
    thetas = rng.uniform(-0.1, 0.1, size=(6, 6))
    vals = np.array([[_rot(t) for t in row] for row in thetas])
    rep = rigidity.rigidity_fit(_matrix_field(vals))
    assert math.isinf(rep.C_emp)
    assert math.isinf(rep.M_emp)
    assert rep.dist_sup <= 1e-12
    assert rep.lhs_p > 1e-4


def test_fit_scale_invariant_in_spacing():
    rng = np.random.default_rng(9)
    vals = np.eye(2) + 0.2 * rng.standard_normal((5, 5, 2, 2))
    a = rigidity.rigidity_fit(_matrix_field(vals, spacing=0.2))
    b = rigidity.rigidity_fit(_matrix_field(vals, spacing=0.4))
    assert a.C_emp == b.C_emp
    assert a.bmo_seminorm == b.bmo_seminorm
    assert a.lhs_p == b.lhs_p


def test_fit_cemp_stable_under_refinement():
    # gradients of 50 random smooth near-identity deformations: the
    # measured constant drifts < 20% between a 16^2 and a 32^2 sampling
    rng = np.random.default_rng(2024)
    maps = [_perturbed_map(rng, 0.02) for _ in range(50)]
    stats = {}
    for ncells in (16, 32):
        mesh = fem.rectangle_mesh(ncells, ncells)
        vals = []
        for u_fn in maps:
            u = fem.FeField.from_function(mesh, u_fn)
            rep = rigidity.rigidity_fit(fem.gradient_field(mesh, u))
            assert math.isfinite(rep.C_emp)
            vals.append(rep.C_emp)
        stats[ncells] = float(np.median(vals))
    drift = abs(stats[16] - stats[32]) / max(stats[16], stats[32])
    assert drift < 0.2


# ------------------------------------------------- boundary rotation gap

def test_boundary_closeness_identical_fields():
    mesh = fem.rectangle_mesh(6, 6)
    u = fem.FeField.from_function(mesh, _perturbed_map(np.random.default_rng(1), 0.02))
    rep = rigidity.boundary_rotation_closeness(u, u, mesh)
    assert rep.lhs == 0.0
    assert rep.lhs_l1 == 0.0


def test_boundary_closeness_bump_pair():
    mesh = fem.rectangle_mesh(8, 8)
    u1 = fem.FeField.identity(mesh)
    rng = np.random.default_rng(4)
    u2 = u1.copy()
    bump = rng.standard_normal((mesh.nnodes, 2)) * 0.01
    bump[mesh.dirichlet_nodes] = 0.0
    u2.values = u2.values + bump
    rep = rigidity.boundary_rotation_closeness(u1, u2, mesh)
    assert rep.rhs > 0
    assert rep.lhs <= rep.A_emp * rep.rhs + 1e-15
    assert math.isfinite(rep.A_emp_l1)


def test_boundary_closeness_no_blowup_for_shrinking_bumps():
    mesh = fem.rectangle_mesh(8, 8)
    base = fem.FeField.identity(mesh)
    rng = np.random.default_rng(12)
    bump = rng.standard_normal((mesh.nnodes, 2))
    bump[mesh.dirichlet_nodes] = 0.0
    ratios = []
    for k in range(20):
        eps = 0.02 * (0.7**k)
        u2 = base.copy()
        u2.values = u2.values + eps * bump
        rep = rigidity.boundary_rotation_closeness(base, u2, mesh)
        ratios.append(rep.A_emp)
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() <= 10.0 * max(ratios.min(), 1e-6)


def test_boundary_closeness_hypothesis_and_mismatch():
    # the comparison's hypothesis is shared Dirichlet data, at p = n + 1
    mesh = fem.rectangle_mesh(4, 4)
    u = fem.FeField.identity(mesh)
    assert rigidity.boundary_rotation_closeness(u, u, mesh).p == 3.0
    v = u.copy()
    v.values = v.values * 1.01
    with pytest.raises(errors.BoundaryMismatch):
        rigidity.boundary_rotation_closeness(u, v, mesh)


# ----------------------------------------------------------------- korn

def test_korn_form_matrix_matches_direct_quadrature():
    # the form's matrix over the free dofs, that korn_constant factors,
    # against quadrature of a field vanishing on the Dirichlet nodes
    rng = np.random.default_rng(6)
    mesh = fem.rectangle_mesh(3, 3, dirichlet=("left", "bottom"))
    B = fem.scatter_matrix(mesh, rigidity._korn_element_matrices(mesh))
    w = np.zeros((mesh.nnodes, 2))
    free = mesh.free_mask()
    w[free] = rng.standard_normal(int(free.sum()))
    quad = float(w[free] @ (B @ w[free]))
    H = fem.deformation_gradients(mesh, w)
    wdet = mesh.quadrature()[2]
    sym = H + np.swapaxes(H, -1, -2)
    direct = float(np.sum(wdet * np.einsum("eqil,eqil->eq", sym, sym)))
    assert quad == pytest.approx(direct, rel=1e-12)


def test_korn_identity_full_dirichlet_at_least_two():
    for ncells in (4, 8):
        mesh = fem.rectangle_mesh(ncells, ncells)
        K = rigidity.korn_constant(mesh)
        assert K >= 2.0 - 1e-6


def test_korn_identity_refines_toward_two():
    gaps = []
    for ncells in (4, 8, 16):
        mesh = fem.rectangle_mesh(ncells, ncells)
        gaps.append(abs(rigidity.korn_constant(mesh) - 2.0))
    assert gaps[2] <= gaps[1] + 1e-12
    assert gaps[1] <= gaps[0] + 1e-12


def test_korn_constant_reproducible_at_4418_dofs():
    # 4418 free dofs; the eigensolve's start vector is fixed
    mesh = fem.rectangle_mesh(48, 48)
    first = rigidity.korn_constant(mesh)
    assert first.hex() == rigidity.korn_constant(mesh).hex()
    assert first == pytest.approx(2.000656566812487, rel=1e-12)


def test_korn_partial_dirichlet_positive():
    mesh = fem.rectangle_mesh(4, 4, dirichlet=("left",))
    K = rigidity.korn_constant(mesh)
    assert 0.0 < K < 2.0

