"""Local-minimality and uniqueness gates built from measured constants.

The chain: a discrete coercivity constant of the second variation at an
equilibrium, a proved cubic Taylor constant of the stored energy, and the
reverse-Hoelder constant J2, proved from the lattice, combine into a
BMO-smallness threshold delta_star.  Candidates whose gradient difference
passes the threshold get their energy excess verified directly against the
coercivity bound.  The three certificates (bmo-gate and small strain on
the reference body, strain difference on the deformed configuration that
pushforward builds) share one candidate loop.

Every verdict is a measurement on the discrete problem at hand, labeled
as such; nothing here asserts continuum statements.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import fem, harmonic, material, pushforward, tensor_core
from .errors import (
    AssertionViolated,
    HypothesisUnmet,
    NonPositiveK,
    NotEquilibrium,
    PrerequisiteFailed,
)

__all__ = [
    "Problem",
    "CertInputs",
    "Candidate",
    "GateReport",
    "TransferReport",
    "Certificate",
    "neighborhood_radius",
    "bump_values",
    "j2_family",
    "certification_inputs",
    "local_min_gate",
    "direction_positivity_transfer",
    "bmo_gate_certificate",
    "small_strain_uniqueness",
    "certify_strain_neighborhood",
    "gated_perturbations",
    "multistart_agreement",
    "fold_outcomes",
    "measure",
]

SCOPE_LABEL = "discrete, desk-scale"

# the coercivity eigenvalue is 8 k_hat in the constant cascade: the
# transfer step spends a factor 2 and the absorption another 4
_CASCADE = 8.0

_GAP_SLACK = 0.1

# the equilibrium tolerance of certification_inputs
RESIDUAL_TOL = 1e-8
# the radius of the rotation-distance set the Taylor constants are proved
# on, and the norm bound on candidate steps
RHO = 0.25
EPSILON = 0.25
# the bound on |F^T F - I| of the small-strain set
STRAIN_DELTA = 0.2
# the small-strain prerequisites: the largest |S(I)|, and the largest
# |A(I)[K]| over the skew basis relative to the elasticity floor
_STRESS_FREE_TOL = 1e-8
_SKEW_TOL = 1e-12
# the largest delta_star neighborhood_radius returns, and the one it
# returns when c_taylor is 0
_RADIUS_CAP = 1e6
# the largest BMO/mean gap threshold of the transfer, and the one it takes
# when c_hat_taylor is 0
_TRANSFER_CAP = 1e6

# the exponents (p, q) of J2: the cubic remainder is controlled through
# ||psi||_3 <= J2 ||psi||_{BMO+L1}^(1/3) ||psi||_2^(2/3)
J2_EXPONENTS = (2.0, 3.0)

# the amplitude of the first bump of a J2 fit family, and of the bump the
# rigidity diagnostics fit a rotation to
BUMP_AMPLITUDE = 0.02


@dataclass(frozen=True)
class Problem:
    """A dead-load equilibrium problem: material, mesh, and loads."""

    problem_id: str
    material: material.Material
    mesh: fem.Mesh
    loads: fem.LoadSet


def neighborhood_radius(k_hat: float, c_taylor: float, J2: float,
                        components: int) -> float:
    """BMO/mean smallness threshold making the cubic term absorbable.

    delta_star = k_hat / (2 c J2^3 Nn) with Nn the component count of the
    gradient matrices.  A vanishing cubic constant gives an unbounded
    radius, returned as the cap 1e6, which also bounds every other.
    """
    if k_hat <= 0.0:
        raise NonPositiveK(f"k_hat = {k_hat:g} <= 0")
    if J2 <= 0.0 or not math.isfinite(J2):
        raise ValueError(f"J2 must be positive and finite, got {J2!r}")
    if components < 1:
        raise ValueError(f"component count must be >= 1, got {components}")
    if c_taylor < 0.0:
        raise ValueError(f"c_taylor must be >= 0, got {c_taylor}")
    if c_taylor == 0.0:
        return _RADIUS_CAP
    return float(min(k_hat / (2.0 * c_taylor * J2**3 * components), _RADIUS_CAP))


def bump_values(mesh, rng, eps):
    """Nodal values of a smooth oscillatory displacement, amplitude eps."""
    a = rng.uniform(-1.0, 1.0, size=(mesh.dim, 2))
    # libm's sin and cos, per coordinate: np.sin need not round the same
    coords = mesh.nodes.ravel().tolist()
    s = np.array([math.sin(math.pi * t) for t in coords]).reshape(mesh.nodes.shape)
    c = np.array([math.cos(math.pi * t) for t in coords]).reshape(mesh.nodes.shape)
    prod = s[:, 0]
    for d in range(1, mesh.dim):
        prod = prod * s[:, d]
    return eps * (a[:, 0] * prod[:, None] + a[:, 1] * s * np.roll(c, -1, axis=1))


def j2_family(mesh, count, seed):
    """Scalar component fields of seeded bump gradients, for the J2 fit
    that diagnostics-harmonic reports beside the proved bound."""
    rng = np.random.default_rng(seed)
    fields = []
    for k in range(count):
        gf = fem.gradient_field(mesh, bump_values(mesh, rng, eps=BUMP_AMPLITUDE * (1 + k)))
        for i in range(mesh.dim):
            for j in range(mesh.dim):
                fields.append(gf.with_values(gf.values[..., i, j]))
    p, q = J2_EXPONENTS
    manifest = {
        "kind": "interior-bump gradient components",
        "count": int(count),
        "seed": int(seed),
        "exponents": {"p": int(p), "q": int(q)},
    }
    return fields, manifest


@dataclass(frozen=True)
class CertInputs:
    """Constants measured at one equilibrium u_e of problem, the settings
    they were measured with, and their provenance.  The gates read grad u_e
    (as the lattice cell field gradient_field and at the quadrature points
    as deformation_gradients), the residual sup, E(u_e) and the largest
    rotation distance of grad u_e (residual, energy, dist_sup) instead of
    measuring u_e per candidate."""

    problem: Problem = field(compare=False, repr=False)
    u_e: fem.FeField = field(compare=False, repr=False)
    gradient_field: harmonic.GridField = field(compare=False, repr=False)
    deformation_gradients: np.ndarray = field(compare=False, repr=False)
    residual: float
    energy: float
    dist_sup: float
    lambda_min: float
    k_hat: float
    c_taylor: float
    c_hat_taylor: float
    J2: float
    delta_star: float
    provenance: dict


def certification_inputs(problem: Problem, u_e, residual_tol=RESIDUAL_TOL) -> CertInputs:
    """Measure every constant the gates need at the equilibrium u_e.

    The Taylor constants are the closed-form bounds of problem.material
    (Material.taylor_bounds) on the rotation-distance set of radius RHO
    with steps up to EPSILON.  A
    residual sup above residual_tol raises NotEquilibrium first, and a
    lattice with no finite J2 (harmonic.interpolation_bound) raises
    HypothesisUnmet next.
    """
    m, mesh, loads = problem.material, problem.mesh, problem.loads
    n = mesh.dim
    residual = float(np.max(np.abs(fem.residual(m, mesh, loads, u_e))))
    if residual > residual_tol:
        raise NotEquilibrium(
            f"u_e is not an equilibrium: residual {residual:.3e} exceeds {residual_tol:g}"
        )
    gradient_field = fem.gradient_field(mesh, u_e)
    J2 = harmonic.interpolation_bound(gradient_field.mask, *J2_EXPONENTS)
    if not math.isfinite(J2):
        raise HypothesisUnmet(
            "the lattice has no finite J2: its maximal cubes do not overlap into one piece"
        )
    energy = fem.total_energy(m, mesh, loads, u_e)
    F_e = fem.deformation_gradients(mesh, u_e)
    dist_sup = float(tensor_core.dist_to_rotations_many(F_e).max())
    M = fem.second_variation_matrix(m, mesh, u_e)
    G = fem.gradient_gram_matrix(mesh)
    lambda_min = fem.coercivity_constant(M, G, mesh.dof_order())
    k_hat = lambda_min / _CASCADE
    c, c_hat = m.taylor_bounds(n, RHO, EPSILON)
    delta_star = neighborhood_radius(k_hat, c, J2, n * n) if k_hat > 0.0 else 0.0
    provenance = {
        "mesh_hash": mesh.mesh_hash(),
        "material": m.descriptor(),
        "taylor": {"rho": RHO, "epsilon": EPSILON},
    }
    return CertInputs(
        problem=problem, u_e=u_e,
        gradient_field=gradient_field, deformation_gradients=F_e,
        residual=residual, energy=energy, dist_sup=dist_sup,
        lambda_min=float(lambda_min),
        k_hat=float(k_hat),
        c_taylor=float(c),
        c_hat_taylor=float(c_hat),
        J2=float(J2),
        delta_star=float(delta_star),
        provenance=provenance,
    )


def measure(lhs: float, rhs: float, ok: bool) -> dict:
    """One measurement of a report: its two sides and whether it passed."""
    return {"lhs": float(lhs), "rhs": float(rhs), "pass": bool(ok)}


@dataclass
class GateReport:
    """Outcome of one local-minimality gate run."""

    outcome: str  # "pass" or "inapplicable"
    measurements: dict
    energy_gap: float | None
    gap_bound: float | None
    delta_star: float
    k_hat: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Candidate:
    """A candidate v measured against the equilibrium u_e that inputs were
    measured at: grad v at the quadrature points (F) and as the lattice
    cell field (grad), the cell field grad v - grad u_e (difference), its
    BMO seminorm (bmo), the norm of the mean gradient of v - u_e
    (mean_gap) and int |grad (v - u_e)|^2 (l2_gap_sq).  Each is taken when
    first read and then kept.  A v off the Dirichlet data of u_e is no
    admissible candidate and raises HypothesisUnmet."""

    v: fem.FeField
    inputs: CertInputs

    def __post_init__(self):
        d = self.inputs.problem.mesh.dirichlet_nodes
        if len(d) and np.max(np.abs(self.inputs.u_e.values[d] - self.v.values[d])) > 1e-12:
            raise HypothesisUnmet("the candidate is off the Dirichlet data of u_e")

    @cached_property
    def F(self) -> np.ndarray:
        return fem.deformation_gradients(self.inputs.problem.mesh, self.v)

    @cached_property
    def grad(self) -> harmonic.GridField:
        return fem.gradient_field(self.inputs.problem.mesh, self.v)

    @cached_property
    def difference(self) -> harmonic.GridField:
        gu = self.inputs.gradient_field
        return gu.with_values(self.grad.values - gu.values)

    @cached_property
    def bmo(self) -> float:
        return harmonic.bmo_seminorm(self.difference)

    @cached_property
    def mean_gap(self) -> float:
        w = self.v.values - self.inputs.u_e.values
        return float(np.linalg.norm(fem.mean_gradient(self.inputs.problem.mesh, w)))

    @cached_property
    def l2_gap_sq(self) -> float:
        w = self.v.values - self.inputs.u_e.values
        return fem.l2_gradient_norm_sq(self.inputs.problem.mesh, w)


def local_min_gate(c: Candidate) -> GateReport:
    """Check the smallness conditions of a candidate c.v against the
    equilibrium c.inputs were measured at and, when they hold, verify the
    energy excess against the coercivity bound.

    Conditions: both gradients inside the rotation-distance set (radius
    RHO, step within the EPSILON fattening), BMO seminorm of the gradient
    difference below delta_star, and mean gradient difference below
    delta_star.  All three passing and the energy gap failing is a loud
    error, never a silent downgrade.
    """
    v, inputs = c.v, c.inputs
    problem = inputs.problem
    m, mesh, loads = problem.material, problem.mesh, problem.loads
    if inputs.k_hat <= 0.0:
        raise NonPositiveK(f"gate needs k_hat > 0, got {inputs.k_hat:g}")
    Fe, Fv, delta = inputs.deformation_gradients, c.F, inputs.delta_star
    dist_v = float(tensor_core.dist_to_rotations_many(Fv).max())
    step = float(np.sqrt(np.einsum("eqij,eqij->eq", Fv - Fe, Fv - Fe)).max())
    set_ratio = max(inputs.dist_sup / RHO, dist_v / RHO, step / EPSILON)
    measurements = {
        "set_membership": measure(set_ratio, 1.0, set_ratio < 1.0),
        "bmo_seminorm": measure(c.bmo, delta, c.bmo < delta),
        "mean_gradient": measure(c.mean_gap, delta, c.mean_gap < delta),
    }
    applicable = all(meas["pass"] for meas in measurements.values())
    if not applicable:
        return GateReport(
            outcome="inapplicable",
            measurements=measurements,
            energy_gap=None,
            gap_bound=None,
            delta_star=inputs.delta_star,
            k_hat=inputs.k_hat,
        )
    gap = fem.total_energy(m, mesh, loads, v) - inputs.energy
    bound = (1.0 - _GAP_SLACK) * inputs.k_hat * c.l2_gap_sq
    ok = gap >= bound - 1e-12 * (1.0 + abs(gap))
    measurements["energy_gap"] = measure(gap, bound, ok)
    if not ok:
        raise AssertionViolated(
            f"smallness conditions passed but energy gap {gap:.6e} fell "
            f"below the coercivity bound {bound:.6e}"
        )
    return GateReport(
        outcome="pass",
        measurements=measurements,
        energy_gap=float(gap),
        gap_bound=float(bound),
        delta_star=inputs.delta_star,
        k_hat=inputs.k_hat,
    )


@dataclass
class TransferReport:
    """Second-variation positivity transferred from u to a nearby v."""

    outcome: str  # "pass" or "inapplicable"
    lhs: float | None
    rhs: float | None
    ratio: float | None
    threshold: float
    k_hat: float
    measurements: dict

    def to_dict(self) -> dict:
        return asdict(self)


def direction_positivity_transfer(c: Candidate) -> TransferReport:
    """Verify that the second variation at a candidate c.v stays coercive
    in the direction w = v - u_e, using only the coercivity measured at
    the equilibrium u_e of c.inputs.

    The threshold is the transfer step's own: with the Hessian Lipschitz
    constant c_hat, a BMO/mean gap below 2 k_hat / (c_hat sqrt(Nn) J2^3)
    loses at most half of the 8 k_hat eigenvalue floor; the gradient
    matrices have Nn = n^2 components, so sqrt(Nn) is the dimension n.
    """
    v, inputs = c.v, c.inputs
    m, mesh, u = inputs.problem.material, inputs.problem.mesh, inputs.u_e
    lam, k_hat = inputs.lambda_min, inputs.k_hat
    if lam <= 0.0:
        raise HypothesisUnmet(f"second variation at u is not coercive ({lam:g})")
    threshold = _TRANSFER_CAP
    if inputs.c_hat_taylor != 0.0:
        scale = inputs.c_hat_taylor * mesh.dim * inputs.J2**3
        threshold = float(min(2.0 * k_hat / scale, _TRANSFER_CAP))
    measurements = {
        "bmo_seminorm": measure(c.bmo, threshold, c.bmo < threshold),
        "mean_gradient": measure(c.mean_gap, threshold, c.mean_gap < threshold),
    }
    if not all(meas["pass"] for meas in measurements.values()):
        return TransferReport(
            outcome="inapplicable",
            lhs=None,
            rhs=None,
            ratio=None,
            threshold=threshold,
            k_hat=float(k_hat),
            measurements=measurements,
        )
    w = (v.values - u.values)[mesh.free_mask()]
    M_v = fem.second_variation_matrix(m, mesh, v)
    lhs = float(w @ (M_v @ w))
    rhs = 4.0 * k_hat * c.l2_gap_sq
    ratio = math.inf if rhs == 0.0 else lhs / rhs
    ok = lhs >= rhs * (1.0 - 1e-12) - 1e-15
    measurements["transfer_bound"] = measure(lhs, rhs, ok)
    if not ok:
        raise AssertionViolated(
            f"thresholds passed but the transferred form {lhs:.6e} fell "
            f"below 4 k_hat |grad w|^2 = {rhs:.6e}"
        )
    return TransferReport(
        outcome="pass",
        lhs=lhs,
        rhs=rhs,
        ratio=float(ratio),
        threshold=threshold,
        k_hat=float(k_hat),
        measurements=measurements,
    )


# the CertInputs constants a Certificate reports
_CONSTANTS = ("lambda_min", "k_hat", "c_taylor", "c_hat_taylor", "J2", "delta_star")


@dataclass
class Certificate:
    """Reproducible record of measured constants and gate outcomes."""

    problem_id: str
    lambda_min: float
    k_hat: float
    c_taylor: float
    c_hat_taylor: float
    J2: float
    delta_star: float
    measurements: dict
    candidates: list
    provenance: dict
    outcome: str
    configuration: str = "reference"
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_inputs(cls, problem_id: str, inputs: CertInputs, **fields) -> Certificate:
        """A certificate reporting the constants measured in inputs."""
        return cls(problem_id, **{k: getattr(inputs, k) for k in _CONSTANTS}, **fields)

    def to_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "scope": SCOPE_LABEL,
            "problem_id": self.problem_id,
            "configuration": self.configuration,
            "outcome": self.outcome,
            "constants": {k: getattr(self, k) for k in _CONSTANTS},
            "measurements": self.measurements,
            "candidates": self.candidates,
            "provenance": self.provenance,
        }
        out.update(self.extra)
        return out


def fold_outcomes(entries) -> str:
    """The worst of the outcomes: fail, then inapplicable, then pass."""
    if any(e == "fail" for e in entries):
        return "fail"
    if any(e == "inapplicable" for e in entries):
        return "inapplicable"
    return "pass"


def _certificate(problem_id, inputs: CertInputs, candidates, screen, transfer=None,
                 **fields) -> Certificate:
    """The certificate over the candidates, numbered in order: screen(entry,
    v) adds its measurements of v to the entry and returns the Candidate
    to gate (and to transfer, when given) or the reason v is inapplicable.
    A lambda_min at or below 0 fails it, whatever the candidates."""
    entries = []
    for idx, v in enumerate(candidates):
        entry = {"id": f"candidate-{idx:03d}"}
        c = screen(entry, v)
        if isinstance(c, str):
            entry.update(outcome="inapplicable", reason=c)
        else:
            gate = local_min_gate(c)
            entry.update(outcome=gate.outcome, gate=gate.to_dict(), energy_excess=gate.energy_gap)
            if transfer is not None:
                entry["transfer"] = transfer(c).to_dict()
        entries.append(entry)
    outcome = fold_outcomes(["pass" if inputs.lambda_min > 0 else "fail"]
                            + [e["outcome"] for e in entries])
    return Certificate.from_inputs(problem_id, inputs, candidates=entries, outcome=outcome,
                                   **fields)


def bmo_gate_certificate(candidates, inputs: CertInputs) -> Certificate:
    """Certify the equilibrium u_e that inputs were measured at against
    the supplied candidates: each runs the local-minimality gate and the
    direction positivity transfer over one measurement of it.  A
    coercivity constant at or below 0 fails the certificate, whatever the
    candidates."""
    return _certificate(
        inputs.problem.problem_id, inputs, candidates,
        lambda entry, v: Candidate(v, inputs),
        transfer=direction_positivity_transfer,
        measurements={},
        provenance=inputs.provenance,
    )


def _strain_sup(F) -> float:
    """The sup over the quadrature points of |F^T F - I| for a gradient
    stack F."""
    C = np.einsum("eqki,eqkj->eqij", F, F)
    C -= np.eye(F.shape[-1])
    return float(np.sqrt(np.einsum("eqij,eqij->eq", C, C)).max())


def small_strain_uniqueness(candidates, inputs: CertInputs) -> Certificate:
    """Certify the equilibrium u_e that inputs were measured at as the
    locally unique small-strain minimizer among the supplied candidates,
    at desk scale.

    The route is F. John's: a uniformly positive second variation at a
    stress-free reference implies a strict local minimum, and that
    excludes a second equilibrium nearby.  Prerequisites, each raising
    PrerequisiteFailed: the material is stress-free at the identity,
    A(I) annihilates the skew directions (so that the symmetric
    eigenvalue of material.identity_floor is the exact elasticity floor),
    that floor is positive, and the strain of u_e stays inside the
    small-strain set |F^T F - I| < STRAIN_DELTA (certification_inputs has
    checked that u_e is an equilibrium).  Each candidate is then filtered
    by the same strain bound and passed through the energy gate.
    """
    problem = inputs.problem
    free_err, floor, skew_err = material.identity_floor(problem.material, problem.mesh.dim)
    if free_err > _STRESS_FREE_TOL:
        raise PrerequisiteFailed(
            f"stress-free reference fails: |S(x, I)| = {free_err:.3e}"
        )
    if floor <= 0.0:
        raise PrerequisiteFailed(
            f"uniformly positive elasticity at the identity fails: floor {floor:g}"
        )
    if skew_err > _SKEW_TOL * floor:
        raise PrerequisiteFailed(
            f"A(I) does not annihilate the skew directions: |A(I)[K]| = {skew_err:.3e} "
            f"against the floor {floor:g}, so the symmetric eigenvalue bounds nothing"
        )
    strain_e = _strain_sup(inputs.deformation_gradients)
    if strain_e >= STRAIN_DELTA:
        raise PrerequisiteFailed(
            f"reference strain bound fails: |C_e - I| sup = {strain_e:.3e} "
            f">= {STRAIN_DELTA:g}"
        )
    measurements = {
        "second_variation_positive": measure(inputs.lambda_min, 0.0, inputs.lambda_min > 0.0),
        "stress_free": measure(free_err, _STRESS_FREE_TOL, True),
        "elasticity_floor": measure(floor, 0.0, True),
        "strain_bound_reference": measure(strain_e, STRAIN_DELTA, True),
    }

    def screen(entry, v):
        c = Candidate(v, inputs)
        strain_v = _strain_sup(c.F)
        entry.update(strain_sup=strain_v, strain_bound=STRAIN_DELTA)
        return "candidate strain bound" if strain_v >= STRAIN_DELTA else c

    return _certificate(
        problem.problem_id, inputs, candidates, screen,
        measurements=measurements,
        provenance={**inputs.provenance, "strain_delta": STRAIN_DELTA},
    )


def certify_strain_neighborhood(candidates, inputs: CertInputs,
                                strain_eps=0.05) -> Certificate:
    """Run the local-minimality gate on the deformed configuration.

    inputs are the reference constants certification_inputs measured at
    the equilibrium u_e.  Candidates are filtered by the strain-difference
    bound against u_e; surviving candidates are transported to the
    deformed configuration and gated there, once, with the pushed-forward
    problem: u_e(Omega) is the reference configuration of the local
    minimum the certificate proves.  The deformed constants are measured
    at a residual tolerance widened by the reference residual, with the
    Taylor bounds of the pushed-forward material; a deformed coercivity
    constant at or below 0 fails the
    certificate, whatever the candidates.  A transported equilibrium
    whose gradient is off the identity by more than 1e-10, or a
    candidate at which the proved strain/distance sandwich fails, raises
    AssertionViolated.
    """
    problem, u_e = inputs.problem, inputs.u_e
    m, mesh, loads = problem.material, problem.mesh, problem.loads
    if inputs.lambda_min <= 0.0:
        raise PrerequisiteFailed(
            f"second variation at u_e is not coercive ({inputs.lambda_min:g})"
        )
    cfg = pushforward.deform_configuration(mesh, u_e)
    m_u = pushforward.PushforwardMaterial(m, cfg)
    loads_u = pushforward.pushforward_loads(loads, cfg)
    mesh_def = cfg.mesh_def
    problem_def = Problem(problem.problem_id + "-deformed", m_u, mesh_def, loads_u)
    inputs_def = certification_inputs(
        problem_def, fem.FeField(mesh_def, u_e.values.copy()),
        residual_tol=max(RESIDUAL_TOL, 10 * inputs.residual + 1e-12),
    )
    # u_e transported to the deformed mesh is the identity there, unless
    # the pushforward is broken
    ident_dev = float(np.max(np.abs(inputs_def.deformation_gradients - np.eye(mesh.dim))))
    if ident_dev > 1e-10:
        raise AssertionViolated(
            f"the transported equilibrium is not the identity: |grad u_e - I| = {ident_dev:.3e}"
        )
    measurements = {
        "identity_gradient_dev": {"lhs": ident_dev, "rhs": 1e-10},
        "second_variation_positive": measure(
            inputs_def.lambda_min, 0.0, inputs_def.lambda_min > 0.0),
    }

    def screen(entry, v):
        sd = pushforward.strain_diff_to_dist(v, cfg)
        if not sd.all_ok:
            raise AssertionViolated(
                f"the proved strain/distance sandwich fails at {int((~sd.bounds_ok).sum())} "
                f"quadrature points of {entry['id']}"
            )
        strain_sup = float(sd.strain_diff.max())
        entry.update(
            strain_diff_sup=strain_sup,
            strain_bound=float(strain_eps),
            dist_sup=float(sd.d.max()),
            dist_bound=float(strain_eps / sd.upsilon_e**2),
            Upsilon_e=sd.Upsilon_e,
            upsilon_e=sd.upsilon_e,
        )
        if strain_sup >= strain_eps:
            return "strain-difference bound"
        return Candidate(fem.FeField(mesh_def, v.values), inputs_def)

    return _certificate(
        problem.problem_id, inputs_def, candidates, screen,
        measurements=measurements,
        provenance={**inputs.provenance, "strain_eps": float(strain_eps),
                    "deformed": inputs_def.provenance},
        configuration="deformed",
        extra={"inverse_residual": cfg.inverse_residual},
    )


def gated_perturbations(inputs: CertInputs, count=20, frac=0.5, seed=0) -> list:
    """Seeded interior perturbations of the equilibrium u_e of inputs,
    scaled so that both smallness measures (BMO seminorm and mean
    gradient of the difference) sit at frac * delta_star, hence inside
    the gate for frac < 1.
    """
    if not 0.0 < frac:
        raise ValueError(f"perturbation fraction must be positive, got {frac}")
    mesh, u_e = inputs.problem.mesh, inputs.u_e
    rng = np.random.default_rng(seed)
    base = inputs.gradient_field
    out = []
    for _ in range(count):
        unit = bump_values(mesh, rng, 1.0)
        unit[mesh.dirichlet_nodes] = 0.0
        gf = base.with_values(
            fem.gradient_field(mesh, u_e.values + unit).values - base.values
        )
        b = harmonic.bmo_seminorm(gf)
        g = float(np.linalg.norm(fem.mean_gradient(mesh, unit)))
        eps = frac * inputs.delta_star / max(b, g, 1e-30)
        v = u_e.copy()
        v.values = v.values + eps * unit
        out.append(v)
    return out


def multistart_agreement(problem: Problem, start, count=10, seed=0) -> dict:
    """Solve from seeded random admissible starts around start, the field
    the equilibrium solve started from, and measure the largest pairwise
    sup-norm gradient difference between the solutions.

    The spread 0.2 is the gradient sup-norm of the start perturbation;
    keeping it a gradient quantity puts every restart at a controlled
    distance from the rotation set no matter how fine the mesh is.
    Agreement within tol 1e-8 across all restarts is the desk-scale
    uniqueness evidence that complements the candidate gates.
    """
    spread, tol = 0.2, 1e-8
    m, mesh, loads = problem.material, problem.mesh, problem.loads
    rng = np.random.default_rng(seed)
    grads = []
    iterations = []
    base = start.values
    # starts that hug det = 0 are useless to Newton, so amplitudes are
    # halved until the start keeps a healthy fraction of the base volume
    det_floor = max(
        0.25 * float(np.linalg.det(fem.deformation_gradients(mesh, base)).min()),
        0.0,
    )
    for _ in range(count):
        bump = bump_values(mesh, rng, 1.0)
        bump[mesh.dirichlet_nodes] = 0.0
        Gb = fem.deformation_gradients(mesh, bump)
        gsup = float(np.sqrt(np.einsum("eqij,eqij->eq", Gb, Gb)).max())
        amp = spread / max(gsup, 1e-30)
        for _ in range(30):
            vals = base + amp * bump
            if np.linalg.det(fem.deformation_gradients(mesh, vals)).min() > det_floor:
                break
            amp *= 0.5
        u, log = fem.solve_equilibrium(m, mesh, loads, fem.FeField(mesh, vals))
        grads.append(fem.deformation_gradients(mesh, u))
        iterations.append(log.iterations)
    # rounding is monotone, so the largest |a - b| over pairs is, per
    # entry, the rounded max - min: bitwise the pairwise maximum
    agreement = float(np.ptp(np.stack(grads), axis=0).max()) if grads else 0.0
    return {
        "restarts": int(count),
        "spread": float(spread),
        "seed": int(seed),
        "max_pairwise_grad_diff": agreement,
        "tol": float(tol),
        "pass": bool(agreement <= tol),
        "iterations": [int(k) for k in iterations],
    }
