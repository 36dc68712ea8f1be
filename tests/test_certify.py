"""Gate and certificate tests on small stretch problems."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_cert import certify, errors, fem, harmonic, material, tensor_core

from oracles import bump_values_closure


@pytest.fixture(scope="module")
def stretch():
    m = material.stvk(1.0, 1.0)
    mesh = fem.rectangle_mesh(8, 8)
    A = np.diag([1.05, 1.0])
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: A @ x)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    u_e, log = fem.solve_equilibrium(m, mesh, loads, u0)
    assert log.converged
    problem = certify.Problem("stvk-stretch-8", m, mesh, loads)
    inputs = certify.certification_inputs(problem, u_e, taylor_samples=800, seed=0)
    return problem, u_e, inputs


def _bump(mesh, scale=1.0):
    """Smooth interior displacement vanishing on the whole boundary."""
    def w(x):
        s = math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
        return np.array([0.7 * s, -0.4 * math.sin(math.pi * x[0]) * math.sin(2 * math.pi * x[1])])

    vals = np.array([w(x) for x in mesh.nodes]) * scale
    vals[mesh.dirichlet_nodes] = 0.0
    return vals


def _gated_candidate(problem, u_e, inputs, frac=0.5):
    """u_e plus a bump scaled so the BMO/mean conditions pass by margin."""
    mesh = problem.mesh
    unit = _bump(mesh, 1.0)
    diff = fem.gradient_field(mesh, u_e.values + unit)
    base = fem.gradient_field(mesh, u_e.values)
    gf = base.with_values(diff.values - base.values)
    b1 = harmonic.bmo_seminorm(gf)
    m1 = float(np.linalg.norm(fem.mean_gradient(mesh, unit)))
    eps = frac * inputs.delta_star / max(b1, m1, 1e-30)
    v = u_e.copy()
    v.values = v.values + eps * unit
    return v


# -------------------------------------------------------------- radius

_BUMP_MESHES = (
    fem.rectangle_mesh(5, 3, 2.0, 1.0),
    fem.l_shape_mesh(6),
    fem.square_ring_mesh(8),
    fem.box_mesh(2, 3, 2, (1.0, 1.5, 0.7)),
)


@settings(max_examples=60, deadline=None)
@given(mesh=st.sampled_from(_BUMP_MESHES), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([0.02, 1.0, 0.3 + 1e-9]))
def test_bump_values_bitwise_equal_to_the_closure(mesh, seed, eps):
    got = certify.bump_values(mesh, np.random.default_rng(seed), eps)
    want = bump_values_closure(mesh.nodes, np.random.default_rng(seed), eps)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_neighborhood_radius_formula():
    assert certify.neighborhood_radius(1.0, 1.0, 1.0, 4) == pytest.approx(0.125)
    assert certify.neighborhood_radius(2.0, 1.0, 1.0, 4) == pytest.approx(0.25)


def test_neighborhood_radius_quadratic_cap():
    assert certify.neighborhood_radius(1.0, 0.0, 1.0, 4) == 1e6


def test_neighborhood_radius_monotone():
    base = certify.neighborhood_radius(1.0, 2.0, 1.5, 4)
    assert certify.neighborhood_radius(1.5, 2.0, 1.5, 4) > base
    assert certify.neighborhood_radius(1.0, 3.0, 1.5, 4) < base
    assert certify.neighborhood_radius(1.0, 2.0, 2.0, 4) < base
    assert certify.neighborhood_radius(1.0, 2.0, 1.5, 9) < base


def test_neighborhood_radius_validation():
    with pytest.raises(errors.NonPositiveK):
        certify.neighborhood_radius(0.0, 1.0, 1.0, 4)
    with pytest.raises(errors.NonPositiveK):
        certify.neighborhood_radius(-1.0, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        certify.neighborhood_radius(1.0, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        certify.neighborhood_radius(1.0, -1.0, 1.0, 4)
    with pytest.raises(ValueError):
        certify.neighborhood_radius(1.0, 1.0, 1.0, 0)


# -------------------------------------------------------------- inputs

def test_certification_inputs_measured(stretch):
    problem, u_e, inputs = stretch
    assert inputs.lambda_min > 0.5
    assert inputs.k_hat == pytest.approx(inputs.lambda_min / 8.0)
    assert inputs.c_taylor > 0.0
    assert inputs.c_hat_taylor > 0.0
    assert math.isfinite(inputs.J2) and inputs.J2 > 0.0
    assert inputs.delta_star > 0.0
    assert inputs.components == 4
    assert inputs.provenance["mesh_hash"] == problem.mesh.mesh_hash()
    assert inputs.provenance["taylor"]["samples"] > 0


def test_certification_inputs_read_the_proved_j2(stretch):
    # J2 is the bound proved from the 8x8 lattice, with no fit provenance
    problem, _, inputs = stretch
    mask = problem.mesh.lattice.mask
    assert inputs.J2 == harmonic.interpolation_bound(mask, *certify.J2_EXPONENTS)
    assert inputs.J2 ** 3 >= harmonic.oscillation_constant(mask)
    assert "j2_family" not in inputs.provenance
    assert not hasattr(inputs, "j2_count")


def test_a_lattice_with_no_finite_j2_is_refused_before_the_eigensolve(monkeypatch):
    # a ring whose wall is one cell wide carries non-constant fields of
    # BMO seminorm 0, so no J2 exists: a typed error, not a radius
    mesh = fem.square_ring_mesh(4, dirichlet=("left",))
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: x)
    problem = certify.Problem("thin-ring", material.stvk(1.0, 1.0), mesh, loads)

    def eigensolve(*args, **kwargs):
        raise AssertionError("the eigensolve ran")

    monkeypatch.setattr(fem, "coercivity_constant", eigensolve)
    with pytest.raises(errors.HypothesisUnmet, match="no finite J2"):
        certify.certification_inputs(problem, fem.FeField.identity(mesh), taylor_samples=50)


# ----------------------------------------------------------------- gate

def test_gate_self_candidate_passes(stretch):
    problem, u_e, inputs = stretch
    rep = certify.local_min_gate(certify.Candidate(u_e, inputs))
    assert rep.outcome == "pass"
    assert rep.energy_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.measurements["mean_gradient"]["lhs"] <= 1e-12
    assert rep.measurements["bmo_seminorm"]["lhs"] == 0.0


def test_gate_small_bump_passes_with_margin(stretch):
    problem, u_e, inputs = stretch
    v = _gated_candidate(problem, u_e, inputs, frac=0.5)
    rep = certify.local_min_gate(certify.Candidate(v=v, inputs=inputs))
    assert rep.outcome == "pass"
    assert rep.energy_gap > 0.0
    assert rep.energy_gap >= rep.gap_bound
    # pure displacement data: the mean-gradient condition is exact zero
    assert rep.measurements["mean_gradient"]["lhs"] <= 1e-12


def test_gate_large_bump_inapplicable(stretch):
    problem, u_e, inputs = stretch
    v = _gated_candidate(problem, u_e, inputs, frac=50.0)
    rep = certify.local_min_gate(certify.Candidate(v, inputs))
    assert rep.outcome == "inapplicable"
    assert rep.energy_gap is None
    assert not rep.measurements["bmo_seminorm"]["pass"]


def test_gate_requires_equilibrium(stretch):
    problem, u_e, inputs = stretch
    bad = u_e.copy()
    bad.values = bad.values + _bump(problem.mesh, 0.05)
    with pytest.raises(errors.NotEquilibrium):
        certify.local_min_gate(
            certify.Candidate(u_e, certify.certification_inputs(problem, bad)))


def test_gate_requires_positive_k(stretch):
    problem, u_e, inputs = stretch
    from dataclasses import replace

    broken = replace(inputs, k_hat=0.0)
    with pytest.raises(errors.NonPositiveK):
        certify.local_min_gate(certify.Candidate(u_e, broken))


def test_gate_overstated_khat_fails_loudly(stretch):
    # an inflated coercivity constant lets the conditions pass while the
    # measured gap cannot match the bound; this must never pass silently
    problem, u_e, inputs = stretch
    from dataclasses import replace

    inflated = replace(inputs, k_hat=1e3)
    v = _gated_candidate(problem, u_e, inputs, frac=0.5)
    with pytest.raises(errors.AssertionViolated):
        certify.local_min_gate(certify.Candidate(v, inflated))
    # the transfer's thresholds widen with k_hat too, and the transferred
    # form cannot reach 4 k_hat |grad w|^2 either
    with pytest.raises(errors.AssertionViolated, match="transferred form"):
        certify.direction_positivity_transfer(certify.Candidate(v, inflated))


def test_gate_toy_quadratic_energy_exact():
    # quadratic toy: second variation equals the gradient Gram matrix, so
    # the coercivity eigenvalue is exactly 1 and the gap is exactly half
    # the squared gradient norm
    m = material.quadratic_toy()
    mesh = fem.rectangle_mesh(6, 6)
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: x)
    u_e = fem.FeField.identity(mesh)
    M = fem.second_variation_matrix(m, mesh, u_e)
    G = fem.gradient_gram_matrix(mesh)
    lam = fem.coercivity_constant(M, G)
    assert lam == pytest.approx(1.0, abs=1e-10)
    problem = certify.Problem("toy", m, mesh, loads)
    F_e = fem.deformation_gradients(mesh, u_e)
    inputs = certify.CertInputs(
        problem=problem, u_e=u_e,
        gradient_field=fem.gradient_field(mesh, u_e), deformation_gradients=F_e,
        residual=float(np.max(np.abs(fem.residual(m, mesh, loads, u_e)))),
        energy=fem.total_energy(m, mesh, loads, u_e),
        dist_sup=float(tensor_core.dist_to_rotations_many(F_e).max()),
        lambda_min=lam, k_hat=lam / 8.0, c_taylor=0.0, c_hat_taylor=0.0,
        J2=1.0, rho=0.5, epsilon=0.5,
        components=4, delta_star=certify.neighborhood_radius(lam / 8, 0.0, 1.0, 4),
        taylor_samples=2000, seed=0, provenance={},
    )
    v = u_e.copy()
    v.values = v.values + _bump(mesh, 0.01)
    rep = certify.local_min_gate(certify.Candidate(v, inputs))
    assert rep.outcome == "pass"
    half_l2 = 0.5 * fem.l2_gradient_norm_sq(mesh, v.values - u_e.values)
    assert rep.energy_gap == pytest.approx(half_l2, rel=1e-12)


# ------------------------------------------------------------- transfer

def test_transfer_self_direction(stretch):
    problem, u_e, inputs = stretch
    rep = certify.direction_positivity_transfer(certify.Candidate(u_e, inputs))
    assert rep.outcome == "pass"
    assert rep.ratio == math.inf


def test_transfer_gated_bump(stretch):
    problem, u_e, inputs = stretch
    v = _gated_candidate(problem, u_e, inputs, frac=0.3)
    rep = certify.direction_positivity_transfer(certify.Candidate(v, inputs))
    assert rep.outcome == "pass"
    assert rep.lhs >= rep.rhs
    assert rep.ratio >= 1.0


def test_transfer_threshold_sweep_reports_inapplicable(stretch):
    problem, u_e, inputs = stretch
    scale, outcome = 0.3, "pass"
    seen_inapplicable = False
    for _ in range(12):
        v = _gated_candidate(problem, u_e, inputs, frac=scale)
        rep = certify.direction_positivity_transfer(certify.Candidate(v, inputs))
        if rep.outcome == "inapplicable":
            seen_inapplicable = True
            break
        scale *= 4.0
    assert seen_inapplicable


def test_transfer_dirichlet_hypothesis(stretch):
    problem, u_e, inputs = stretch
    v = u_e.copy()
    v.values = v.values * 1.001
    with pytest.raises(errors.HypothesisUnmet):
        certify.direction_positivity_transfer(certify.Candidate(v, inputs))


def test_transfer_reuses_measured_coercivity(stretch, monkeypatch):
    problem, u_e, inputs = stretch

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("the transfer step must reuse inputs.lambda_min")

    monkeypatch.setattr(fem, "coercivity_constant", no_eigensolve)
    v = _gated_candidate(problem, u_e, inputs, frac=0.3)
    rep = certify.direction_positivity_transfer(certify.Candidate(v, inputs))
    assert rep.outcome == "pass" and rep.k_hat == inputs.k_hat
    negative = dataclasses.replace(inputs, lambda_min=-1.0, k_hat=-0.125)
    with pytest.raises(errors.HypothesisUnmet, match="not coercive"):
        certify.direction_positivity_transfer(certify.Candidate(v, negative))


# ----------------------------------------------------------- certificate

def test_small_strain_certificate(stretch):
    problem, u_e, inputs = stretch
    good = _gated_candidate(problem, u_e, inputs, frac=0.4)
    huge = u_e.copy()
    huge.values = huge.values @ np.diag([1.6, 1.0]).T
    huge.values[problem.mesh.dirichlet_nodes] = u_e.values[problem.mesh.dirichlet_nodes]
    cert = certify.small_strain_uniqueness([u_e, good, huge], inputs=inputs)
    assert cert.outcome == "inapplicable"  # the huge candidate is filtered
    # the strains straddle the small-strain bound
    strains = [e["strain_sup"] for e in cert.candidates]
    assert max(strains[:2]) < certify.STRAIN_DELTA <= strains[2]
    assert cert.candidates[0]["outcome"] == "pass"
    assert cert.candidates[0]["energy_excess"] == pytest.approx(0.0, abs=1e-12)
    assert cert.candidates[1]["outcome"] == "pass"
    assert cert.candidates[1]["energy_excess"] > 0.0
    assert cert.candidates[2]["outcome"] == "inapplicable"
    assert cert.candidates[2]["reason"] == "candidate strain bound"
    d = cert.to_dict()
    assert d["schema_version"] == 1
    assert d["scope"] == "discrete, desk-scale"
    assert d["constants"]["delta_star"] == inputs.delta_star


def test_certificate_all_pass_outcome(stretch):
    problem, u_e, inputs = stretch
    cert = certify.small_strain_uniqueness([u_e], inputs=inputs)
    assert cert.outcome == "pass"


def test_certificate_json_deterministic(stretch):
    problem, u_e, inputs = stretch
    good = _gated_candidate(problem, u_e, inputs, frac=0.4)

    def run():
        cert = certify.small_strain_uniqueness([u_e, good], inputs=inputs)
        return json.dumps(cert.to_dict(), sort_keys=True)

    assert run() == run()


def test_certificate_prerequisites(stretch):
    problem, u_e, inputs = stretch
    # not an equilibrium
    bad = u_e.copy()
    bad.values = bad.values + _bump(problem.mesh, 0.05)
    with pytest.raises(errors.PrerequisiteFailed, match="equilibrium"):
        certify.small_strain_uniqueness([], inputs=certify.certification_inputs(problem, bad))
    # the reference strain |C_e - I| of an affine stretch by s is s^2 - 1:
    # 0.1881 at 1.09, inside the small-strain set, and 0.21 at 1.1, outside
    m, mesh = material.stvk(1.0, 1.0), fem.rectangle_mesh(4, 4)
    for s, inside in ((1.09, True), (1.1, False)):
        A = np.diag([s, 1.0])
        loads = fem.LoadSet.build(mesh, dirichlet=lambda x, A=A: A @ x)
        affine = certify.certification_inputs(
            certify.Problem("affine", m, mesh, loads), fem.FeField(mesh, mesh.nodes @ A.T),
            taylor_samples=50)
        if inside:
            cert = certify.small_strain_uniqueness([], inputs=affine)
            strain = cert.measurements["strain_bound_reference"]
            assert strain["lhs"] == pytest.approx(s**2 - 1.0, rel=1e-12)
            assert strain["rhs"] == certify.STRAIN_DELTA
        else:
            with pytest.raises(errors.PrerequisiteFailed, match="strain"):
                certify.small_strain_uniqueness([], inputs=affine)


def test_certificate_rejects_prestressed_material():
    # a material with nonzero stress at the identity fails prerequisite (c)
    m = material.CustomMaterial(
        "prestressed-toy", energy_fn=lambda x, F: 0.5 * float(np.sum(F * F))
    )
    mesh = fem.rectangle_mesh(3, 3)
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: x)
    problem = certify.Problem("prestressed", m, mesh, loads)
    u = fem.FeField.identity(mesh)
    inputs = certify.certification_inputs(problem, u, taylor_samples=50)
    with pytest.raises(errors.PrerequisiteFailed, match="stress-free"):
        certify.small_strain_uniqueness([], inputs=inputs)


@settings(max_examples=200, deadline=None)
@given(outcomes=st.lists(st.sampled_from(["pass", "inapplicable", "fail"]), max_size=8),
       order=st.randoms(use_true_random=False))
def test_fold_outcomes_takes_the_worst_in_any_order(outcomes, order):
    # fail beats inapplicable, which beats pass; an empty list passes
    expected = next((o for o in ("fail", "inapplicable") if o in outcomes), "pass")
    shuffled = list(outcomes)
    order.shuffle(shuffled)
    assert certify.fold_outcomes(outcomes) == expected
    assert certify.fold_outcomes(shuffled) == expected
