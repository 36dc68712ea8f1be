"""Acceptance gate for the package: fifteen numbered criteria, one test
each.  Every test prints a single "criterion NN: PASS" line on success
(visible with pytest -s or -rP); a failing test is the FAIL line for its
criterion.  Tolerances and sample counts are pinned here on purpose and
must not be loosened to make a run green.
"""
import math
import time
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from rigidity_cert import certify, cli, fem, harmonic, material, pushforward, rigidity, tensor_core
from rigidity_cert.errors import AssertionViolated

from oracles import (
    fs_sharp_bruteforce,
    fs_sharp_bruteforce_matrix,
    hl_maximal_bruteforce,
    hl_maximal_bruteforce_matrix,
    rotation_grid_min_2d,
    rotation_grid_min_2d_enum,
)


def _passed(num, label):
    print(f"criterion {num:02d}: PASS  {label}")


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


# ------------------------------------------------------- shared problems

@pytest.fixture(scope="module")
def stretch():
    """The 5% uniaxial stretch equilibrium, pure displacement, 16x16."""
    mesh = fem.rectangle_mesh(16, 16)
    A = np.array([[1.05, 0.0], [0.0, 1.0]])
    loads = fem.LoadSet.build(mesh, body=None, traction=None,
                              dirichlet=lambda x: A @ x)
    m = material.stvk(1.0, 1.0)
    problem = certify.Problem("acceptance-stretch", m, mesh, loads)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u_e, log = fem.solve_equilibrium(m, mesh, loads, u0)
    assert log.converged
    return problem, u_e


@pytest.fixture(scope="module")
def stretch_inputs(stretch):
    problem, u_e = stretch
    return certify.certification_inputs(problem, u_e, seed=0)


@pytest.fixture(scope="module")
def bitwise_fields():
    """100 lattice fields with dyadic rational samples on grids up to
    16x16: exact cube sums make the oracle comparison bitwise."""
    rng = np.random.default_rng(303)
    fields = []
    for k in range(100):
        shape = (16, 16) if k < 2 else tuple(int(s) for s in rng.integers(1, 17, size=2))
        mask = np.ones(shape, dtype=bool)
        if k % 3 == 2 and min(shape) >= 2:
            mask &= rng.random(shape) >= 0.2
            if not mask.any():
                mask[0, 0] = True
        if k % 5 == 4:
            vals = rng.integers(-512, 513, size=shape + (2, 2)).astype(float) / 256.0
        else:
            vals = rng.integers(-512, 513, size=shape).astype(float) / 256.0
        fields.append(harmonic.GridField(mask, vals))
    return fields


# ------------------------------------------------------------ criteria

def test_criterion_01_rotation_distance_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    count, gridpoints = 10_000, 1_000_000
    Ra = _rotation(rng.uniform(0.0, 2.0 * np.pi, count))
    Rb = _rotation(rng.uniform(0.0, 2.0 * np.pi, count))
    sv = rng.uniform(0.2, 5.0, size=(count, 2))
    D = np.zeros((count, 2, 2))
    D[:, 0, 0], D[:, 1, 1] = sv[:, 0], sv[:, 1]
    F = Ra @ D @ np.swapaxes(Rb, -1, -2)
    # the two-angle shortcut is spot-checked against the full enumeration
    for i in range(5):
        assert math.isclose(rotation_grid_min_2d(F[i], gridpoints),
                            rotation_grid_min_2d_enum(F[i], gridpoints),
                            rel_tol=0.0, abs_tol=1e-12)
    worst_excess, worst_gap = -math.inf, 0.0
    for Fi in F:
        d = tensor_core.dist_to_rotations(Fi)
        g = rotation_grid_min_2d(Fi, gridpoints)
        worst_excess = max(worst_excess, d - g)
        worst_gap = max(worst_gap, abs(d - g))
    elapsed = time.perf_counter() - t0
    assert worst_excess <= 1e-9
    assert worst_gap <= 1e-6
    assert elapsed < 30.0
    _passed(1, f"dist vs 1e6-angle grid on 1e4 matrices, gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_strain_distance_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_eq = 0.0
    for n in (2, 3):
        for _ in range(10_000):
            U = tensor_core.random_rotation(rng, n)
            V = tensor_core.random_rotation(rng, n)
            s = rng.uniform(0.2, 5.0, size=n)
            F = U @ np.diag(s) @ V.T
            rep = tensor_core.strain_dist_sandwich(F)
            assert rep.all_ok
            expected = math.sqrt(float(np.sum((s - 1.0) ** 2)))
            worst_eq = max(worst_eq, abs(rep.dist - expected) / (1.0 + expected))
    elapsed = time.perf_counter() - t0
    assert worst_eq <= 1e-10
    assert elapsed < 10.0
    _passed(2, f"0 sandwich violations on 2x1e4 gradients, dist-eq err {worst_eq:.1e}, {elapsed:.1f}s")


def test_criterion_03_maximal_functions_bitwise(bitwise_fields):
    for fld in bitwise_fields:
        m = fld.mask
        star = harmonic.hl_maximal(fld)
        sharp = harmonic.fs_sharp(fld)
        if fld.is_matrix:
            assert np.array_equal(star.values[m], hl_maximal_bruteforce_matrix(m, fld.values)[m])
            assert np.array_equal(sharp.values[m], fs_sharp_bruteforce_matrix(m, fld.values)[m])
        else:
            assert np.array_equal(star.values[m], hl_maximal_bruteforce(m, fld.values)[m])
            assert np.array_equal(sharp.values[m], fs_sharp_bruteforce(m, fld.values)[m])
        assert harmonic.verify_pointwise_bounds(fld).ok
    _passed(3, f"bitwise maximal functions and pointwise bounds on {len(bitwise_fields)} fields")


def test_criterion_04_sharp_max_equals_bmo(bitwise_fields):
    for fld in bitwise_fields:
        sharp_max = float(harmonic.fs_sharp(fld).values[fld.mask].max())
        assert sharp_max == harmonic.bmo_seminorm(fld)
    _passed(4, f"max-cell sharp == bmo_seminorm exactly on {len(bitwise_fields)} fields")


def test_criterion_05_interpolation_and_exponents():
    rng = np.random.default_rng(505)
    fields = []
    for _ in range(1000):
        shape = tuple(int(s) for s in rng.integers(3, 8, size=2))
        vals = rng.normal(size=shape) * rng.uniform(0.1, 10.0) + rng.normal() * rng.uniform(0.0, 2.0)
        fields.append(harmonic.GridField(np.ones(shape, dtype=bool), vals))
    for p in (1.5, 2.0):
        for q in (3.0, 4.0):
            J2_half = harmonic.fit_interpolation_constant(fields[:500], p, q)
            J2 = harmonic.fit_interpolation_constant(fields, p, q)
            violations = sum(
                0 if harmonic.verify_interpolation(f, p, q, J2) else 1 for f in fields
            )
            assert violations == 0
            assert J2_half <= J2 < 1.10 * J2_half
    assert harmonic.rh_exponents(2.0, 3.0) == (Fraction(1, 3), Fraction(2, 3))
    _passed(5, "0 interpolation violations on 1000 fields, J2 stable, exponents (1/3, 2/3)")


def test_criterion_06_residual_hessian_consistency():
    mesh = fem.rectangle_mesh(4, 4)
    m = material.stvk(1.0, 1.0)
    A = np.array([[1.05, 0.0], [0.0, 1.0]])
    loads = fem.LoadSet.build(mesh, body=[0.03, -0.02], traction=None,
                              dirichlet=lambda x: A @ x)
    rng = np.random.default_rng(606)
    base = mesh.nodes @ A.T
    free = np.flatnonzero(mesh.free_mask().ravel())
    h = 1e-6
    worst_r, worst_h = 0.0, 0.0
    for _ in range(20):
        vals = base.copy()
        vals.ravel()[free] += rng.uniform(-0.05, 0.05, size=free.size)
        assert np.linalg.det(fem.deformation_gradients(mesh, vals)).min() > 0.0
        u = fem.FeField(mesh, vals)
        r = fem.residual(m, mesh, loads, u)

        def energy_at(x, vals=vals):
            w = vals.copy()
            w.ravel()[free] = x
            return fem.total_energy(m, mesh, loads, fem.FeField(mesh, w))

        def residual_at(x, vals=vals):
            w = vals.copy()
            w.ravel()[free] = x
            return fem.residual(m, mesh, loads, fem.FeField(mesh, w))

        x0 = vals.ravel()[free].copy()
        g = np.array([
            (energy_at(x0 + h * e) - energy_at(x0 - h * e)) / (2.0 * h)
            for e in np.eye(free.size)
        ])
        worst_r = max(worst_r, float(np.max(np.abs(g - r))) / max(float(np.max(np.abs(r))), 1e-12))
        K = fem.second_variation_matrix(m, mesh, u).toarray()
        K_fd = np.column_stack([
            (residual_at(x0 + h * e) - residual_at(x0 - h * e)) / (2.0 * h)
            for e in np.eye(free.size)
        ])
        worst_h = max(worst_h, float(np.max(np.abs(K_fd - K))) / float(np.max(np.abs(K))))
    assert worst_r <= 1e-6
    assert worst_h <= 1e-5
    _passed(6, f"20 states: residual fd rel {worst_r:.1e} <= 1e-6, hessian fd rel {worst_h:.1e} <= 1e-5")


def test_criterion_07_homogeneous_affine_equilibrium():
    mesh = fem.rectangle_mesh(16, 16)
    m = material.stvk(1.0, 1.0)
    A = np.array([[1.1, 0.0], [0.0, 1.0]])
    loads = fem.LoadSet.build(mesh, body=None, traction=None,
                              dirichlet=lambda x: A @ x)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u, log = fem.solve_equilibrium(m, mesh, loads, u0)
    res = float(np.max(np.abs(fem.residual(m, mesh, loads, u))))
    assert log.converged and log.iterations <= 2
    assert res <= 1e-10
    assert float(np.max(np.abs(u.values - mesh.nodes @ A.T))) <= 1e-12
    _passed(7, f"affine diag(1.1,1) field returned, residual {res:.1e}, {log.iterations} steps")


def test_criterion_08_korn_floor_refinement():
    values, t32 = [], 0.0
    for nel in (8, 16, 32):
        t0 = time.perf_counter()
        values.append(rigidity.korn_constant(fem.rectangle_mesh(nel, nel)))
        if nel == 32:
            t32 = time.perf_counter() - t0
    assert all(v >= 2.0 - 1e-6 for v in values)
    assert values[0] >= values[1] >= values[2]
    assert t32 < 60.0
    _passed(8, "korn constants " + ", ".join(f"{v:.6f}" for v in values) + f", 32^2 in {t32:.1f}s")


def test_criterion_09_coercivity_chain():
    mesh = fem.rectangle_mesh(16, 16)
    m = material.stvk(1.0, 1.0)
    u = fem.FeField.identity(mesh)
    M = fem.second_variation_matrix(m, mesh, u)
    G = fem.gradient_gram_matrix(mesh)
    lam = fem.coercivity_constant(M, G)
    mu = 1.0
    assert lam >= mu  # 2 mu |e(w)|^2 with korn constant 2 floors the quotient at mu
    assert 1.0 <= lam <= 2.5
    _passed(9, f"identity coercivity constant {lam:.4f} in [1, 2.5], >= mu")


def test_criterion_10_energy_gap_gate(stretch, stretch_inputs):
    problem, u_e = stretch
    inputs = stretch_inputs
    assert inputs.delta_star > 0.0
    cands = certify.gated_perturbations(inputs, count=20, frac=0.5, seed=1)
    violations = 0
    for v in cands:
        try:
            gate = certify.local_min_gate(certify.Candidate(v, inputs))
        except AssertionViolated:
            violations += 1
            continue
        assert gate.outcome == "pass"
        w2 = fem.l2_gradient_norm_sq(problem.mesh, v.values - u_e.values)
        assert gate.energy_gap >= 0.9 * inputs.k_hat * w2 * (1.0 - 1e-12)
    assert violations == 0
    _passed(10, "20 gated perturbations all meet the 0.9 k-hat bound, 0 violations")


def test_criterion_11_energy_identity_and_mean_gradient(stretch, stretch_inputs):
    problem, u_e = stretch
    m, mesh, loads = problem.material, problem.mesh, problem.loads
    cands = certify.gated_perturbations(stretch_inputs, count=10, frac=0.8, seed=2)
    worst_disc, worst_mean = 0.0, 0.0
    for v in cands:
        worst_disc = max(worst_disc, fem.energy_identity_check(m, mesh, loads, u_e, v))
        worst_mean = max(worst_mean, float(np.linalg.norm(
            fem.mean_gradient(mesh, v.values - u_e.values))))
    assert worst_disc <= 1e-10
    assert worst_mean <= 1e-12
    _passed(11, f"10 perturbations: identity disc {worst_disc:.1e}, mean gradient {worst_mean:.1e}")


def test_criterion_12_change_of_configuration():
    m = material.stvk(1.0, 1.0)

    def curved():
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

    def smooth_fields(mesh):
        def v(x):
            s = math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
            return np.array([x[0] + 0.05 * s,
                             x[1] + 0.05 * math.sin(2 * math.pi * x[0]) * math.sin(math.pi * x[1])])

        def w(x):
            return np.array([
                0.04 * math.sin(2 * math.pi * x[0]) * math.sin(math.pi * x[1]),
                -0.04 * math.sin(math.pi * x[0]) * math.sin(2 * math.pi * x[1]),
            ])

        return fem.FeField.from_function(mesh, v), fem.FeField.from_function(mesh, w)

    mesh = fem.rectangle_mesh(8, 8, dirichlet=("left",))
    loads = fem.LoadSet.build(mesh, body=[0.1, -0.05], traction=[0.02, 0.01],
                              dirichlet=lambda x: x)
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    u_aff = fem.FeField(mesh, mesh.nodes @ A.T)
    v, w = smooth_fields(mesh)
    rep = pushforward.verify_cov_identities(m, mesh, loads, u_aff, v, w)
    assert len(rep.lines) == 5
    assert all(line["rel"] <= 1e-10 for line in rep.lines.values())

    phi = curved()
    rels = []
    for nel in (16, 32):
        mesh_n = fem.rectangle_mesh(nel, nel, dirichlet=("left",))
        loads_n = fem.LoadSet.build(mesh_n, body=[0.1, -0.05], traction=[0.02, 0.01],
                                    dirichlet=lambda x: x)
        v_n, w_n = smooth_fields(mesh_n)
        rels.append(pushforward.verify_cov_identities(m, mesh_n, loads_n, phi, v_n, w_n).max_rel)
    assert rels[0] / rels[1] >= 3.0
    _passed(12, f"affine rel {rep.max_rel:.1e} <= 1e-10; curved refinement factor {rels[0] / rels[1]:.2f}")


def test_criterion_13_strain_difference_gate():
    mesh = fem.rectangle_mesh(8, 8)
    m = material.stvk(1.0, 1.0)
    A = np.array([[1.0, 0.3], [0.0, 1.0]])
    loads = fem.LoadSet.build(mesh, body=None, traction=None,
                              dirichlet=lambda x: A @ x)
    problem = certify.Problem("acceptance-shear", m, mesh, loads)
    u_e, _ = fem.solve_equilibrium(m, mesh, loads, fem.FeField(mesh, mesh.nodes @ A.T))
    inputs_ref = certify.certification_inputs(problem, u_e, taylor_samples=600, seed=0)
    good = certify.gated_perturbations(inputs_ref, count=1, frac=0.2, seed=4)[0]
    bad = fem.FeField(mesh, u_e.values @ np.diag([1.3, 1.0]))
    cert = pushforward.certify_strain_neighborhood(
        [good, bad], inputs_ref, strain_eps=0.05,
    )
    gated, breaching = cert.candidates
    assert gated["outcome"] == "pass"
    assert gated["energy_excess"] > 0.0
    assert gated["excess_agreement"]["pass"]
    assert gated["gate_deformed"]["outcome"] == "pass"
    assert gated["gate_deformed"]["energy_gap"] > 0.0
    assert gated["gate_reference"]["energy_gap"] > 0.0
    assert breaching["outcome"] == "inapplicable"
    assert breaching["reason"] == "strain-difference bound"
    assert "gate_deformed" not in breaching
    _passed(13, "shear excess agrees across configurations; breaching candidate inapplicable")


def test_criterion_14_multistart_agreement(stretch):
    problem, _ = stretch
    # the restarts perturb the solve's own start, the affine extension
    start = fem.FeField(problem.mesh, problem.mesh.nodes @ np.diag([1.05, 1.0]))
    res = certify.multistart_agreement(problem, start, count=10, seed=7)
    assert res["pass"]
    assert res["spread"] == 0.2
    assert res["max_pairwise_grad_diff"] <= 1e-8
    _passed(14, f"10 restarts agree to {res['max_pairwise_grad_diff']:.1e} in gradient sup norm")


def test_criterion_15_reports_byte_identical(tmp_path):
    base = """
        name = regress-{pipeline}
        pipeline = {pipeline}
        seed = 0
        mesh.nx = 6
        mesh.ny = 6
        material.model = stvk
        loads.dirichlet = affine
        loads.matrix = 1.05 0.0 0.0 1.0
        certify.taylor_samples = 300
        certify.candidates = 2
        certify.restarts = 2
        harmonic.count = 3
        rigidity.resolutions = 6 12
        korn.resolutions = 4 8
    """
    total = 0
    for pipeline in cli.PIPELINES:
        cfg = tmp_path / f"{pipeline}.cfg"
        cfg.write_text(textwrap.dedent(base.format(pipeline=pipeline)))
        out1 = tmp_path / f"{pipeline}-1"
        out2 = tmp_path / f"{pipeline}-2"
        code1 = cli.main(["run", str(cfg), "--out", str(out1)])
        code2 = cli.main(["run", str(cfg), "--out", str(out2)])
        assert code1 == code2 == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        total += len(names1)
    _passed(15, f"two runs of all {len(cli.PIPELINES)} scenarios byte-identical ({total} files)")
