"""Deformed-configuration tests: pushed materials, loads, identities,
and the strain-difference gate."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_cert import certify, errors, fem, harmonic, material, pushforward

from conftest import frozen_point, random_gradient
from oracles import CustomMaterial


def _curved_map():
    """A smooth diffeomorphism of the unit square with its exact Jacobian."""
    def fn(x):
        s0, s1 = math.sin(math.pi * x[0]), math.sin(math.pi * x[1])
        return np.array([
            1.05 * x[0] + 0.03 * s0 * s1,
            x[1] + 0.02 * s0 * math.sin(2 * math.pi * x[1]),
        ])

    def jac(x):
        p = math.pi
        c0, s0 = math.cos(p * x[0]), math.sin(p * x[0])
        c1, s1 = math.cos(p * x[1]), math.sin(p * x[1])
        c2, s2 = math.cos(2 * p * x[1]), math.sin(2 * p * x[1])
        return np.array([
            [1.05 + 0.03 * p * c0 * s1, 0.03 * p * s0 * c1],
            [0.02 * p * c0 * s2, 1.0 + 0.04 * p * s0 * c2],
        ])

    return pushforward.AnalyticDeformation(fn, jac)


def _smooth_fields(mesh):
    """A candidate field near the identity and a direction field."""
    def v(x):
        s = math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
        return np.array([x[0] + 0.05 * s, x[1] + 0.05 * math.sin(2 * math.pi * x[0]) * math.sin(math.pi * x[1])])

    def w(x):
        return np.array([
            0.04 * math.sin(2 * math.pi * x[0]) * math.sin(math.pi * x[1]),
            -0.04 * math.sin(math.pi * x[0]) * math.sin(2 * math.pi * x[1]),
        ])

    return fem.FeField.from_function(mesh, v), fem.FeField.from_function(mesh, w)


# ------------------------------------------------------------- configuration

def test_identity_deformation_round_trip():
    mesh = fem.rectangle_mesh(3, 3)
    cfg = pushforward.deform_configuration(mesh, fem.FeField.identity(mesh))
    assert np.allclose(cfg.mesh_def.nodes, mesh.nodes, atol=0.0)
    assert np.allclose(cfg.F, np.eye(2), atol=1e-14)
    assert np.allclose(cfg.det_F, 1.0, atol=1e-14)
    assert cfg.inverse_residual <= 1e-14
    assert cfg.mesh_def.lattice is not None
    m = material.stvk(1.0, 1.0)
    m_u = pushforward.PushforwardMaterial(m, cfg)
    G = np.array([[1.1, 0.05], [-0.02, 0.97]])
    Gs = np.broadcast_to(G, (cfg.det_F.size, 2, 2))
    assert m_u.energy_many(Gs) == pytest.approx(m.energy_many(Gs), rel=1e-13)
    assert np.allclose(m_u.stress_many(Gs), m.stress_many(Gs), atol=1e-13)
    assert np.allclose(m_u.elasticity_many(Gs), m.elasticity_many(Gs), atol=1e-13)


def test_affine_shear_keeps_volume_loads():
    mesh = fem.rectangle_mesh(4, 3, dirichlet=("left",))
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    u = fem.FeField(mesh, mesh.nodes @ A.T)
    cfg = pushforward.deform_configuration(mesh, u)
    assert np.allclose(cfg.det_F, 1.0, atol=1e-13)
    loads = fem.LoadSet.build(mesh, body=[0.2, -0.1], traction=[0.05, 0.02],
                              dirichlet=lambda x: x)
    pushed = pushforward.pushforward_loads(loads, cfg)
    assert np.allclose(pushed.body, loads.body, atol=1e-13)
    # per facet the traction scales by 1 / |A^-T n|
    _, _, _, normals, _ = mesh.facet_quadrature(mesh.traction_facets)
    stretch = np.linalg.norm(
        np.einsum("ij,tqj->tqi", np.linalg.inv(A).T, normals), axis=-1
    )
    assert np.allclose(pushed.traction, loads.traction / stretch[..., None], atol=1e-13)
    for i, vec in pushed.dirichlet.items():
        assert np.allclose(vec, A @ mesh.nodes[i], atol=1e-14)


def test_dilation_scales_body_and_traction():
    mesh = fem.rectangle_mesh(3, 3, dirichlet=("left",))
    u = fem.FeField(mesh, 2.0 * mesh.nodes)
    cfg = pushforward.deform_configuration(mesh, u)
    loads = fem.LoadSet.build(mesh, body=[1.0, 0.0], traction=[0.0, 1.0],
                              dirichlet=lambda x: x)
    pushed = pushforward.pushforward_loads(loads, cfg)
    # det F = 4 and |F^-T n| = 1/2, so body / 4 and traction / 2
    assert np.allclose(pushed.body, np.asarray(loads.body) / 4.0, atol=1e-14)
    assert np.allclose(pushed.traction, np.asarray(loads.traction) / 2.0, atol=1e-14)


def test_not_injective_wraparound():
    mesh = fem.rectangle_mesh(16, 2, width=4.0, height=0.25)

    def wrap(x):
        t = 0.5 * math.pi * x[0]
        r = 1.0 + x[1]
        return np.array([r * math.cos(t), -r * math.sin(t)])

    u = fem.FeField.from_function(mesh, wrap)
    with pytest.raises(errors.NotInjective):
        pushforward.deform_configuration(mesh, u)


@st.composite
def _point_sets(draw):
    """Points in 2D or 3D on integer grids spaced 1e-12 apart (pairs
    exactly 1e-12 and sqrt(2) 1e-12 apart, and coincident ones) or
    lattice-like ones sharing coordinates, as node columns do, with an
    optional offset and jitter at the scale of the radius."""
    n = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 30))
    grid = draw(st.sampled_from([1e-12, 0.5e-12, 1.0 / 16, 1.0]))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=count, max_size=count))
    pts = np.array(cells, dtype=float) * grid + draw(st.sampled_from([0.0, 1.0, -3.5, 1e3]))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts = pts + rng.normal(size=pts.shape) * 1e-12
    return pts


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_close_pair_check_is_brute_force_pairwise_distance(points):
    # any two points within 1e-12 (Euclidean, squared differences summed
    # in axis order) are found; scipy's k-d tree pair query agrees
    diff = points[:, None, :] - points[None, :, :]
    dist2 = diff[..., 0] * diff[..., 0]
    for j in range(1, points.shape[1]):
        dist2 = dist2 + diff[..., j] * diff[..., j]
    pairs = np.triu_indices(len(points), 1)
    want = bool(np.any(dist2[pairs] <= 1e-12 * 1e-12))
    assert pushforward._has_close_pair(points, 1e-12) == want
    assert bool(scipy.spatial.cKDTree(points).query_pairs(1e-12)) == want


def test_close_pair_check_at_the_radius():
    base = np.array([[0.25, 0.5], [0.75, 0.5], [0.25, 0.75]])
    for gap, close in ((1e-12, True), (1.5e-12, False)):
        pts = np.vstack([base, base[:1] + [gap, 0.0]])
        assert pushforward._has_close_pair(pts, 1e-12) is close


def test_folded_map_rejected():
    mesh = fem.rectangle_mesh(4, 4)
    vals = mesh.nodes.copy()
    vals[:, 0] = np.abs(vals[:, 0] - 0.5)
    with pytest.raises(errors.DeterminantViolation):
        pushforward.deform_configuration(mesh, fem.FeField(mesh, vals))


def test_degenerate_normal():
    mesh = fem.rectangle_mesh(2, 2, dirichlet=("left",))
    u = fem.FeField(mesh, mesh.nodes @ np.diag([1e13, 1.0]))
    cfg = pushforward.deform_configuration(mesh, u)
    loads = fem.LoadSet.build(mesh, traction=[0.0, 0.0], dirichlet=lambda x: x)
    with pytest.raises(errors.DegenerateNormal):
        pushforward.pushforward_loads(loads, cfg)


# ----------------------------------------------------------- pushed material

def test_pushforward_material_rejects_a_batch_of_the_wrong_length():
    # a pushforward material evaluates the M*q quadrature points of its
    # mesh at once; any other batch length is a DimensionMismatch
    mesh = fem.rectangle_mesh(2, 2)
    cfg = pushforward.deform_configuration(mesh, fem.FeField.identity(mesh))
    m_u = pushforward.PushforwardMaterial(material.stvk(), cfg)
    points = cfg.det_F.size
    for name in ("energy_many", "stress_many", "elasticity_many"):
        for count in (1, points - 1, points + 1):
            with pytest.raises(errors.DimensionMismatch):
                getattr(m_u, name)(np.broadcast_to(np.eye(2), (count, 2, 2)))
        assert len(getattr(m_u, name)(np.broadcast_to(np.eye(2), (points, 2, 2)))) == points


def test_point_material_matches_batched():
    rng = np.random.default_rng(3)
    mesh = fem.rectangle_mesh(3, 2)
    u = fem.FeField(mesh, mesh.nodes @ np.array([[1.1, 0.2], [0.0, 0.9]]).T)
    cfg = pushforward.deform_configuration(mesh, u)
    m_u = pushforward.PushforwardMaterial(material.neo_hookean(1.0, 0.8), cfg)
    nq = cfg.det_F.shape[1]
    G = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    Gs = np.broadcast_to(G, (cfg.det_F.size, 2, 2))
    row = 4 * nq + 2
    pm = m_u.at_points(slice(row, row + 1))
    assert pm.energy_many(G[None])[0] == pytest.approx(m_u.energy_many(Gs)[row], rel=1e-13)
    assert np.allclose(pm.stress_many(G[None])[0], m_u.stress_many(Gs)[row], atol=1e-13)
    assert np.allclose(pm.elasticity_many(G[None])[0], m_u.elasticity_many(Gs)[row],
                       atol=1e-13)


_QUANTITIES = ("energy_many", "stress_many", "elasticity_many")


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["stretch", "shear", "box"]),
       model=st.sampled_from(["stvk", "neo-hookean"]),
       seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 9))
def test_point_material_bitwise_as_the_assembly_material(case, model, seed, batch):
    # a one-row slice of the assembly material is the pushforward frozen at
    # that quadrature point, and the two share one chain-rule algebra, so
    # row p of a whole-mesh batch evaluates as the slice evaluates it, and
    # the slice evaluates a batch bitwise as it evaluates each gradient
    # alone
    mesh = fem.box_mesh(1, 1, 1) if case == "box" else fem.rectangle_mesh(3, 2)
    D = {
        "stretch": np.diag([1.05, 0.97]),
        "shear": np.array([[1.05, 0.13], [-0.07, 0.97]]),
        "box": np.array([[1.05, 0.13, 0.0], [-0.07, 0.97, 0.04], [0.02, 0.0, 1.01]]),
    }[case]
    n = mesh.dim
    cfg = pushforward.deform_configuration(
        mesh, pushforward.AnalyticDeformation(lambda x: D @ x, lambda x: D))
    base = material.stvk(1.2, 0.8) if model == "stvk" else material.neo_hookean(1.0, 0.8)
    m_u = pushforward.PushforwardMaterial(base, cfg)
    rng = np.random.default_rng(seed)
    points = cfg.det_F.size
    G_all = np.eye(n) + 0.1 * rng.normal(size=(points, n, n))
    p = int(rng.integers(points))
    pm = m_u.at_points(slice(p, p + 1))
    assert isinstance(pm, pushforward._ChainRule)
    G = np.eye(n) + 0.1 * rng.normal(size=(batch, n, n))
    for name in _QUANTITIES:
        want = getattr(m_u, name)(G_all)
        point = getattr(pm, name)(G_all[p:p + 1])
        assert point.tobytes() == want[p:p + 1].tobytes(), name
        alone = np.concatenate([getattr(pm, name)(G[i:i + 1]) for i in range(batch)])
        assert getattr(pm, name)(G).tobytes() == alone.tobytes(), name


def test_push_point_chain_rule_against_fd():
    """Closed-form pushed stress and elasticity against finite differences
    of the pushed energy alone, and against the direct contraction."""
    rng = np.random.default_rng(11)
    base = material.stvk(1.3, 0.9)
    F = np.array([[1.08, 0.15], [-0.05, 0.94]])
    det = np.linalg.det(F)
    pm = frozen_point(base, F)
    fd = CustomMaterial("fd-probe", lambda G: float(pm.energy_many(G[None])[0]))
    for _ in range(5):
        G = np.eye(2) + 0.15 * rng.normal(size=(2, 2))
        H = rng.normal(size=(2, 2))
        S_closed = pm.stress_many(G[None])[0]
        S_fd = fd.stress_many(G[None])[0]
        assert np.allclose(S_closed, S_fd, atol=1e-6)
        A = pm.elasticity_many(G[None])[0]
        quad_closed = float(np.einsum("iajb,ia,jb", A, H, H))
        HF = H @ F
        A_base = base.elasticity_many((G @ F)[None])[0]
        quad_direct = float(np.einsum("ikjl,ik,jl", A_base, HF, HF)) / det
        assert quad_closed == pytest.approx(quad_direct, rel=1e-10, abs=1e-12)
        quad_fd = float(np.einsum("iajb,ia,jb", fd.elasticity_many(G[None])[0], H, H))
        assert quad_closed == pytest.approx(quad_fd, rel=2e-4, abs=1e-6)


def test_pushed_energy_value():
    base = material.stvk(1.0, 1.0)
    F = np.diag([2.0, 1.0])
    pm = frozen_point(base, F)
    G = np.diag([0.5, 1.0])  # G F = I, so the pushed energy is W(I)/det = 0
    assert pm.energy_many(G[None])[0] == pytest.approx(0.0, abs=1e-15)
    assert pm.energy_many(np.eye(2)[None])[0] == pytest.approx(
        base.energy_many(F[None])[0] / 2.0, rel=1e-14
    )


# ------------------------------------------------------ integral identities

@settings(max_examples=24, deadline=None)
@given(n=st.sampled_from([2, 3]), model=st.sampled_from(["stvk", "neo-hookean"]),
       seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.05))
def test_one_pencil_on_both_configurations(n, model, seed, amplitude):
    # u_e, an affine map plus a bump that vanishes on the boundary, need
    # not be an equilibrium.  The tangent at the transported field on the
    # deformed mesh is the reference tangent (exact node transport), so
    # the two pencils differ in the Gram matrix alone: int |grad z F^-1|^2
    # det F lies between det F / sigma_max^2 and det F / sigma_min^2 times
    # int |grad z|^2, pointwise, which brackets lambda_def by lambda_ref
    rng = np.random.default_rng(seed)
    mesh = fem.rectangle_mesh(5, 4) if n == 2 else fem.box_mesh(3, 3, 3)
    m = material.stvk(1.2, 0.8) if model == "stvk" else material.neo_hookean(1.0, 0.8)
    # sigma_min(A) >= 0.8 and |grad bump| <= 0.05 pi sqrt(3) < 0.3: det > 0
    A = random_gradient(rng, n, 0.8, 1.25)
    c = rng.normal(size=n)
    bump = np.prod(np.sin(np.pi * mesh.nodes), axis=1)[:, None] * (c / np.linalg.norm(c))
    u_e = fem.FeField(mesh, mesh.nodes @ A.T + amplitude * bump)
    cfg = pushforward.deform_configuration(mesh, u_e)
    m_u = pushforward.PushforwardMaterial(m, cfg)
    K_ref = fem.second_variation_matrix(m, mesh, u_e)
    K_def = fem.second_variation_matrix(m_u, cfg.mesh_def, fem.FeField(cfg.mesh_def, u_e.values))
    scale = abs(K_ref).max()
    assert abs(K_def - K_ref).max() <= 1e-12 * scale
    lam_ref = fem.coercivity_constant(K_ref, fem.gradient_gram_matrix(mesh), mesh.dof_order())
    if lam_ref <= 0.0:
        return
    lam_def = fem.coercivity_constant(K_def, fem.gradient_gram_matrix(cfg.mesh_def),
                                      cfg.mesh_def.dof_order())
    sigma = np.linalg.svd(cfg.F, compute_uv=False)
    lo = lam_ref / float(np.max(cfg.det_F / sigma[..., -1] ** 2))
    hi = lam_ref / float(np.min(cfg.det_F / sigma[..., 0] ** 2))
    assert lo * (1.0 - 1e-9) <= lam_def <= hi * (1.0 + 1e-9)


def test_cov_identities_exact_for_fe_transport():
    """With a nodal forward map the transported fields are the exact
    isoparametric images, so all five identities hold to roundoff even
    when the map is curved."""
    mesh = fem.rectangle_mesh(6, 5, dirichlet=("left",))
    m = material.stvk(1.0, 1.0)
    loads = fem.LoadSet.build(mesh, body=[0.1, -0.05], traction=[0.02, 0.01],
                              dirichlet=lambda x: x)
    u_e = fem.FeField.from_function(mesh, _curved_map().fn)
    v, w = _smooth_fields(mesh)
    v.values[:] = u_e.values + 0.3 * (v.values - mesh.nodes)
    report = pushforward.verify_cov_identities(m, mesh, loads, u_e, v, w)
    assert set(report.lines) == {
        "energy", "stress_power", "elasticity_form", "body_work", "traction_work"
    }
    assert report.max_rel <= 1e-12
    assert report.lines["traction_work"]["lhs"] != 0.0
    assert report.max_rel == max(e["rel"] for e in report.lines.values())


def test_cov_identities_exact_3d():
    mesh = fem.box_mesh(2, 2, 2, dirichlet=("x0",))
    m = material.neo_hookean(1.0, 1.0)
    loads = fem.LoadSet.build(mesh, body=[0.0, 0.0, -0.1], traction=[0.01, 0.0, 0.02],
                              dirichlet=lambda x: x)
    A = np.array([[1.1, 0.05, 0.0], [0.0, 0.95, 0.02], [0.03, 0.0, 1.05]])
    u_e = fem.FeField(mesh, mesh.nodes @ A.T)

    def vb(x):
        return x + 0.03 * np.array([
            math.sin(math.pi * x[0]) * x[1],
            math.cos(math.pi * x[2]),
            x[0] * x[1],
        ])

    v = fem.FeField.from_function(mesh, vb)
    w = fem.FeField(mesh, 0.05 * np.sin(mesh.nodes * math.pi))
    report = pushforward.verify_cov_identities(m, mesh, loads, u_e, v, w)
    assert report.max_rel <= 1e-12


def test_cov_identities_analytic_map_refines():
    """An analytically specified curved map is only interpolated by the
    deformed mesh; the identity residuals shrink by at least 3x from a
    16^2 to a 32^2 grid."""
    m = material.stvk(1.0, 1.0)
    phi = _curved_map()
    rels = []
    for n in (16, 32):
        mesh = fem.rectangle_mesh(n, n, dirichlet=("left",))
        loads = fem.LoadSet.build(mesh, body=[0.1, -0.05], traction=[0.02, 0.01],
                                  dirichlet=lambda x: x)
        v, w = _smooth_fields(mesh)
        rels.append(pushforward.verify_cov_identities(m, mesh, loads, phi, v, w).max_rel)
    assert rels[0] > 1e-8
    assert rels[0] / rels[1] >= 3.0


# ------------------------------------------------------- strain difference

def test_strain_diff_frozen_shear_norms():
    mesh = fem.rectangle_mesh(5, 5)
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    u_e = fem.FeField(mesh, mesh.nodes @ A.T)
    v = fem.FeField(mesh, u_e.values + 0.02 * np.sin(math.pi * mesh.nodes))
    report = pushforward.strain_diff_to_dist(v, pushforward.deform_configuration(mesh, u_e))
    assert report.Upsilon_e == pytest.approx(math.sqrt(2.09), rel=1e-12)
    assert report.upsilon_e == pytest.approx(1.0 / math.sqrt(2.09), rel=1e-12)
    assert report.all_ok


def test_strain_diff_identical_fields():
    mesh = fem.rectangle_mesh(4, 4)
    u_e = fem.FeField(mesh, mesh.nodes @ np.diag([1.1, 0.9]))
    cfg = pushforward.deform_configuration(mesh, u_e)
    report = pushforward.strain_diff_to_dist(u_e.copy(), cfg)
    assert report.d.max() <= 1e-14
    assert np.all(report.strain_diff == 0.0)
    assert report.all_ok


def test_strain_diff_sandwich_random_sweep():
    rng = np.random.default_rng(7)
    mesh = fem.rectangle_mesh(6, 6)
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    u_e = fem.FeField(mesh, mesh.nodes @ A.T)
    cfg = pushforward.deform_configuration(mesh, u_e)
    for k in range(10):
        amp = 0.02 * (k + 1)
        phase = rng.uniform(0, 2 * math.pi, size=2)
        vals = u_e.values + amp * np.column_stack([
            np.sin(math.pi * mesh.nodes[:, 0] + phase[0]) * np.sin(math.pi * mesh.nodes[:, 1]),
            np.sin(math.pi * mesh.nodes[:, 0]) * np.sin(math.pi * mesh.nodes[:, 1] + phase[1]),
        ])
        report = pushforward.strain_diff_to_dist(fem.FeField(mesh, vals), cfg)
        assert report.all_ok
        # the linear bound also caps the rotation distance by the strain sup
        assert report.d.max() <= report.strain_diff.max() / report.upsilon_e**2 + 1e-12


def test_strain_diff_rejects_folded_candidate():
    mesh = fem.rectangle_mesh(4, 4)
    u_e = fem.FeField.identity(mesh)
    vals = mesh.nodes.copy()
    vals[:, 1] = np.abs(vals[:, 1] - 0.5)
    with pytest.raises(errors.DeterminantViolation):
        pushforward.strain_diff_to_dist(fem.FeField(mesh, vals),
                                        pushforward.deform_configuration(mesh, u_e))


def test_strain_diff_needs_shared_mesh():
    mesh = fem.rectangle_mesh(3, 3)
    other = fem.rectangle_mesh(3, 3)
    with pytest.raises(errors.DimensionMismatch):
        pushforward.strain_diff_to_dist(
            fem.FeField.identity(other),
            pushforward.deform_configuration(mesh, fem.FeField.identity(mesh)),
        )


# ------------------------------------------------------------- end to end

@pytest.fixture(scope="module")
def stretch():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(8, 8)
    A = np.diag([1.05, 1.0])
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u_e, log = fem.solve_equilibrium(m, mesh, loads, u0)
    assert log.converged
    return certify.Problem("stvk-stretch-push", m, mesh, loads), u_e


def _gated_bump(problem, u_e, frac):
    mesh = problem.mesh
    inputs = certify.certification_inputs(problem, u_e)
    unit = np.column_stack([
        0.7 * np.sin(math.pi * mesh.nodes[:, 0]) * np.sin(math.pi * mesh.nodes[:, 1]),
        -0.4 * np.sin(math.pi * mesh.nodes[:, 0]) * np.sin(2 * math.pi * mesh.nodes[:, 1]),
    ])
    unit[mesh.dirichlet_nodes] = 0.0
    base = fem.gradient_field(mesh, u_e.values)
    diff = fem.gradient_field(mesh, u_e.values + unit)
    gf = base.with_values(diff.values - base.values)
    b1 = harmonic.bmo_seminorm(gf)
    m1 = float(np.linalg.norm(fem.mean_gradient(mesh, unit)))
    eps = frac * inputs.delta_star / max(b1, m1, 1e-30)
    v = u_e.copy()
    v.values = v.values + eps * unit
    return v


def test_certify_strain_neighborhood(stretch):
    problem, u_e = stretch
    mesh = problem.mesh
    good = _gated_bump(problem, u_e, 0.2)
    big = fem.FeField(mesh, u_e.values @ np.diag([1.3, 1.0]))
    inputs = certify.certification_inputs(problem, u_e)
    cert = certify.certify_strain_neighborhood(
        [u_e.copy(), good, big], inputs, strain_eps=0.05,
    )
    doc = cert.to_dict()
    assert doc["schema_version"] == 1
    assert doc["configuration"] == "deformed"
    assert doc["outcome"] == "inapplicable"
    # a deviation past 1e-10 raises, so the report keeps the two sides only
    dev = cert.measurements["identity_gradient_dev"]
    assert set(dev) == {"lhs", "rhs"} and dev["lhs"] <= 1e-12 and dev["rhs"] == 1e-10
    assert cert.measurements["second_variation_positive"]["pass"]
    assert set(cert.measurements) == {"identity_gradient_dev", "second_variation_positive"}
    ids = [e["id"] for e in cert.candidates]
    assert ids == ["candidate-000", "candidate-001", "candidate-002"]
    assert cert.candidates[0]["outcome"] == "pass"
    assert cert.candidates[0]["energy_excess"] == pytest.approx(0.0, abs=1e-12)
    assert cert.candidates[1]["outcome"] == "pass"
    assert "sandwich_ok" not in cert.candidates[1]
    # one gate, on the deformed configuration, whose gap is the excess
    assert cert.candidates[1]["gate"]["outcome"] == "pass"
    assert cert.candidates[1]["gate"]["energy_gap"] == cert.candidates[1]["energy_excess"]
    assert cert.candidates[1]["gate"]["k_hat"] == cert.k_hat
    assert not {"gate_deformed", "gate_reference", "excess_agreement"} & set(cert.candidates[1])
    assert cert.candidates[2]["outcome"] == "inapplicable"
    assert cert.candidates[2]["reason"] == "strain-difference bound"
    assert cert.delta_star > 0.0
    assert cert.extra["inverse_residual"] <= 1e-10


def test_certify_strain_fails_a_non_coercive_deformed_configuration(stretch, monkeypatch):
    # the deformed second variation is measured anew, and its sign decides
    # as the reference's does: with no candidate, or only one that the
    # strain filter drops, a constant at or below 0 used to pass or be
    # inapplicable
    problem, u_e = stretch
    inputs = certify.certification_inputs(problem, u_e)
    eigensolve = fem.coercivity_constant
    monkeypatch.setattr(fem, "coercivity_constant", lambda *a, **k: -eigensolve(*a, **k))
    big = fem.FeField(problem.mesh, u_e.values @ np.diag([1.3, 1.0]))
    for candidates in ([], [big]):
        cert = certify.certify_strain_neighborhood(candidates, inputs)
        assert cert.lambda_min < 0.0
        assert not cert.measurements["second_variation_positive"]["pass"]
        assert cert.outcome == "fail"


def test_certify_strain_refuses_a_candidate_off_the_dirichlet_data(stretch):
    # a translation by 1e-6 has strain difference 0, so it passes the
    # strain filter; both gates used to pass it
    problem, u_e = stretch
    inputs = certify.certification_inputs(problem, u_e)
    v = fem.FeField(problem.mesh, u_e.values + np.array([1e-6, 0.0]))
    assert pushforward.strain_diff_to_dist(
        v, pushforward.deform_configuration(problem.mesh, u_e)).strain_diff.max() < 1e-12
    with pytest.raises(errors.HypothesisUnmet, match="off the Dirichlet data"):
        certify.certify_strain_neighborhood([u_e.copy(), v], inputs)


def test_certify_strain_raises_on_a_failing_sandwich(stretch, monkeypatch):
    # an upsilon 1000 times too large breaks the lower bound upsilon^2 d^2
    # <= sqrt(n) |C_v - C_e| of the gated bump (d about 1e-4): a proved
    # inequality failing is a bug, never a pass
    problem, u_e = stretch
    inputs = certify.certification_inputs(problem, u_e)
    good = _gated_bump(problem, u_e, 0.2)
    deform = pushforward.deform_configuration

    def broken(mesh, u):
        cfg = deform(mesh, u)
        return dataclasses.replace(cfg, upsilon=1000.0 * cfg.upsilon)

    cfg = broken(problem.mesh, u_e)
    sd = pushforward.strain_diff_to_dist(good, cfg)
    assert np.any(cfg.upsilon**2 * sd.d**2 > math.sqrt(2.0) * sd.strain_diff + 1e-9)
    assert certify.certify_strain_neighborhood([good], inputs).outcome == "pass"
    monkeypatch.setattr(pushforward, "deform_configuration", broken)
    with pytest.raises(errors.AssertionViolated, match="sandwich fails .* candidate-000"):
        certify.certify_strain_neighborhood([good], inputs)


def test_certify_strain_raises_when_the_transported_equilibrium_is_not_the_identity(
        stretch, monkeypatch):
    # a pushforward whose deformed mesh sits 1e-9 off the images of u_e:
    # the transported equilibrium is still one, but its gradient is
    # I / (1 + 1e-9), off the identity by 1e-9 > 1e-10
    problem, u_e = stretch
    inputs = certify.certification_inputs(problem, u_e)
    deform = pushforward.deform_configuration
    monkeypatch.setattr(pushforward, "deform_configuration",
                        lambda mesh, u: deform(mesh, fem.FeField(mesh, u.values * (1 + 1e-9))))
    with pytest.raises(errors.AssertionViolated, match="not the identity"):
        certify.certify_strain_neighborhood([], inputs)


def test_certify_strain_requires_equilibrium(stretch):
    problem, u_e = stretch
    off = u_e.copy()
    node = int(np.nonzero(problem.mesh.free_mask()[:, 0])[0][0])
    off.values[node, 0] += 0.05
    with pytest.raises(errors.PrerequisiteFailed, match="equilibrium"):
        certify.certify_strain_neighborhood(
            candidates=[], inputs=certify.certification_inputs(
                problem, off))
