"""Scenario driver.

One invocation runs one scenario: a flat key-value config selects a
mesh, a material, loads, and a pipeline; artifacts are a JSON report
plus CSV tables, all byte-reproducible for fixed inputs and seed.  The
CLI does no arithmetic of its own: every reported number comes from a
library call and is merely formatted here.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import certify, fem, harmonic, material, pushforward, reporting, rigidity
from .errors import ConfigError, RigidityCertError

PIPELINES = (
    "solve",
    "certify-bmo-gate",
    "certify-small-strain",
    "certify-strain-diff",
    "diagnostics-harmonic",
    "diagnostics-rigidity",
    "korn",
)

_EXIT = {"pass": 0, "inapplicable": 2, "fail": 1}

_MESH_KINDS = ("rectangle", "l-shape", "ring", "box", "file")
# pipelines that measure gradients as lattice cell fields (fem.gradient_field);
# generated meshes with square or cube cells carry a lattice, and these
# pipelines take the 2D ones only
_LATTICE_PIPELINES = (
    "certify-bmo-gate",
    "certify-small-strain",
    "certify-strain-diff",
    "diagnostics-harmonic",
    "diagnostics-rigidity",
)
# the sweep pipelines and the key listing the resolutions they mesh at
_SWEEPS = {"diagnostics-rigidity": "rigidity.resolutions", "korn": "korn.resolutions"}
# pipelines that solve for an equilibrium on the scenario mesh
_SOLVING = ("solve", "certify-bmo-gate", "certify-small-strain", "certify-strain-diff")
# the cell counts each generated mesh kind reads
_MESH_COUNTS = {
    "rectangle": ("mesh.nx", "mesh.ny"),
    "l-shape": ("mesh.n",),
    "ring": ("mesh.n",),
    "box": ("mesh.nx", "mesh.ny", "mesh.nz"),
}
# the side lengths each generated mesh kind reads
_MESH_SIZES = {
    "rectangle": ("mesh.width", "mesh.height"),
    "l-shape": ("mesh.size",),
    "ring": ("mesh.size",),
    "box": ("mesh.lengths",),
}
_MATERIALS = ("stvk", "neo-hookean")
_DIRICHLET_KINDS = ("identity", "affine")


def parse_config(path) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; keys are unique.

    Returns key -> (raw value string, line number).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = (val, ln)
    return out


def _p_str(key, val, ln):
    return val


def _p_int(key, val, ln):
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"line {ln}: {key}: expected an integer, got {val!r}") from None


def _p_float(key, val, ln):
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"line {ln}: {key}: expected a number, got {val!r}") from None


def _p_floats(key, val, ln):
    try:
        return tuple(float(tok) for tok in val.split())
    except ValueError:
        raise ConfigError(f"line {ln}: {key}: expected numbers, got {val!r}") from None


def _p_ints(key, val, ln):
    try:
        return tuple(int(tok) for tok in val.split())
    except ValueError:
        raise ConfigError(f"line {ln}: {key}: expected integers, got {val!r}") from None


def _p_choice(options):
    def parse(key, val, ln):
        if val not in options:
            raise ConfigError(
                f"line {ln}: {key}: expected one of {', '.join(options)}, got {val!r}"
            )
        return val

    return parse


def _p_sides(key, val, ln):
    if val == "all":
        return "all"
    return tuple(tok.strip() for tok in val.split(",") if tok.strip())


# key -> (parser, default); None default means optional-absent,
# _REQUIRED means the config must set it
_REQUIRED = object()

_KEYS = {
    "name": (_p_str, _REQUIRED),
    "pipeline": (_p_choice(PIPELINES), _REQUIRED),
    "seed": (_p_int, 0),
    "mesh.kind": (_p_choice(_MESH_KINDS), "rectangle"),
    "mesh.nx": (_p_int, 8),
    "mesh.ny": (_p_int, 8),
    "mesh.nz": (_p_int, 4),
    "mesh.n": (_p_int, 8),
    "mesh.width": (_p_float, 1.0),
    "mesh.height": (_p_float, 1.0),
    "mesh.size": (_p_float, 1.0),
    "mesh.hole": (_p_float, 0.5),
    "mesh.lengths": (_p_floats, (1.0, 1.0, 1.0)),
    "mesh.path": (_p_str, None),
    "mesh.dirichlet": (_p_sides, "all"),
    "material.model": (_p_choice(_MATERIALS), "stvk"),
    "material.lambda": (_p_float, 1.0),
    "material.mu": (_p_float, 1.0),
    "loads.body": (_p_floats, None),
    "loads.traction": (_p_floats, None),
    "loads.dirichlet": (_p_choice(_DIRICHLET_KINDS), "identity"),
    "loads.matrix": (_p_floats, None),
    "solve.tol": (_p_float, 1e-10),
    "solve.max_iter": (_p_int, 50),
    "certify.rho": (_p_float, 0.25),
    "certify.epsilon": (_p_float, 0.25),
    "certify.taylor_samples": (_p_int, 2000),
    "certify.j2_count": (_p_int, 6),
    "certify.candidates": (_p_int, 12),
    "certify.frac": (_p_float, 0.5),
    "certify.strain_delta": (_p_float, 0.2),
    "certify.strain_eps": (_p_float, 0.05),
    "certify.boundary_p": (_p_float, None),
    "certify.restarts": (_p_int, 0),
    "rigidity.p": (_p_float, 2.0),
    "rigidity.eps": (_p_float, 0.02),
    "rigidity.resolutions": (_p_ints, (8, 16)),
    "harmonic.p": (_p_float, 2.0),
    "harmonic.q": (_p_float, 3.0),
    "harmonic.count": (_p_int, 6),
    "korn.resolutions": (_p_ints, (8, 16)),
}


def load_scenario(path, seed_override=None) -> dict:
    """Parse and type the config; reject unknown keys; apply defaults."""
    raw = parse_config(path)
    sc = {"__raw__": {k: v for k, (v, _) in raw.items()}, "__lines__": {}}
    unknown = [(k, ln) for k, (_, ln) in raw.items() if k not in _KEYS]
    if unknown:
        msgs = ", ".join(f"{k!r} (line {ln})" for k, ln in sorted(unknown, key=lambda t: t[1]))
        raise ConfigError(f"unknown keys: {msgs}")
    for key, (parser, default) in _KEYS.items():
        if key in raw:
            val, ln = raw[key]
            sc[key] = parser(key, val, ln)
            sc["__lines__"][key] = ln
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            sc[key] = default
    if seed_override is not None:
        sc["seed"] = int(seed_override)
    return sc


def _fail(sc, key, msg):
    ln = sc["__lines__"].get(key)
    where = f"{key} (line {ln})" if ln is not None else key
    raise ConfigError(f"{where}: {msg}")


def build_mesh(sc, r=None) -> fem.Mesh:
    """The scenario's mesh, or with r its generator at resolution r (the
    sweeps); a generator that rejects its arguments is a ConfigError."""
    kind = sc["mesh.kind"]
    sides = sc["mesh.dirichlet"]
    counts = _MESH_COUNTS.get(kind, ()) if r is None else ()
    for key in counts:
        if sc[key] < 1:
            _fail(sc, key, f"cell counts must be positive integers, got {sc[key]}")
    names = fem.SIDE_NAMES[3 if kind == "box" else 2]
    if kind != "file" and sides != "all" and not set(sides) <= set(names):
        _fail(sc, "mesh.dirichlet",
              f"kind {kind!r} has the sides {', '.join(names)}; got {', '.join(sides)}")
    if kind == "box" and len(sc["mesh.lengths"]) != 3:
        _fail(sc, "mesh.lengths", f"a box needs 3 side lengths, got {len(sc['mesh.lengths'])}")
    for key in _MESH_SIZES.get(kind, ()):
        sizes = np.atleast_1d(sc[key])
        if not (np.isfinite(sizes) & (sizes > 0.0)).all():
            _fail(sc, key, f"side lengths must be positive and finite, got {sc['__raw__'][key]}")
    if kind == "ring" and not 0.0 < sc["mesh.hole"] < 1.0:
        _fail(sc, "mesh.hole",
              f"the hole is a fraction of the side in (0, 1), got {sc['mesh.hole']:g}")
    try:
        if kind == "rectangle":
            nx, ny = (sc["mesh.nx"], sc["mesh.ny"]) if r is None else (r, r)
            return fem.rectangle_mesh(nx, ny, sc["mesh.width"], sc["mesh.height"],
                                      dirichlet=sides)
        n = sc["mesh.n"] if r is None else r
        if kind == "l-shape":
            return fem.l_shape_mesh(n, sc["mesh.size"], dirichlet=sides)
        if kind == "ring":
            return fem.square_ring_mesh(n, sc["mesh.size"], sc["mesh.hole"], dirichlet=sides)
        if kind == "box":
            counts = (sc["mesh.nx"], sc["mesh.ny"], sc["mesh.nz"]) if r is None else (r, r, r)
            return fem.box_mesh(*counts, sc["mesh.lengths"], dirichlet=sides)
        if sc["mesh.path"] is None:
            _fail(sc, "mesh.kind", "kind 'file' needs mesh.path")
        return fem.read_mesh(sc["mesh.path"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"mesh construction failed: {exc}") from exc


def build_material(sc) -> material.Material:
    lam, mu = sc["material.lambda"], sc["material.mu"]
    if mu <= 0.0:
        _fail(sc, "material.mu", f"shear modulus must be positive, got {mu}")
    if lam < 0.0:
        _fail(sc, "material.lambda", f"first parameter must be >= 0, got {lam}")
    if sc["material.model"] == "stvk":
        return material.stvk(lam, mu)
    return material.neo_hookean(lam, mu)


def _dirichlet_map(sc, dim):
    if sc["loads.dirichlet"] == "identity":
        return (lambda x: x), np.eye(dim)
    mat = sc["loads.matrix"]
    if mat is None:
        _fail(sc, "loads.dirichlet", "affine data needs loads.matrix")
    if len(mat) != dim * dim:
        _fail(sc, "loads.matrix",
              f"expected {dim * dim} entries for a {dim}x{dim} matrix, got {len(mat)}")
    A = np.array(mat, dtype=float).reshape(dim, dim)
    if np.linalg.det(A) <= 0.0:
        _fail(sc, "loads.matrix", "affine Dirichlet matrix must have positive determinant")
    return (lambda x: A @ x), A


def build_loads(sc, mesh) -> tuple[fem.LoadSet, fem.FeField]:
    """The load set and an admissible start field."""
    dim = mesh.dim
    for key in ("loads.body", "loads.traction"):
        vec = sc[key]
        if vec is not None and len(vec) != dim:
            _fail(sc, key, f"expected {dim} components, got {len(vec)}")
    dfn, A = _dirichlet_map(sc, dim)
    body = np.array(sc["loads.body"]) if sc["loads.body"] is not None else None
    traction = np.array(sc["loads.traction"]) if sc["loads.traction"] is not None else None
    loads = fem.LoadSet.build(mesh, body=body, traction=traction, dirichlet=dfn)
    u0 = fem.FeField(mesh, mesh.nodes @ A.T)
    return loads, u0


def validate_scenario(sc) -> fem.Mesh:
    """Cross-field checks; returns the built mesh (existence check included)."""
    return _validated(sc)[0]


def _validated(sc) -> tuple:
    """validate_scenario's checks; returns the scenario mesh and the meshes
    of the pipeline's resolution sweep, which the runners reuse."""
    mesh = build_mesh(sc)
    if sc["pipeline"] in _SOLVING and not mesh.free_mask().any():
        _fail(sc, "mesh.dirichlet", "the mesh leaves no free dof to solve for")
    dim = mesh.dim
    build_material(sc)
    build_loads(sc, mesh)
    if sc["solve.tol"] <= 0.0:
        _fail(sc, "solve.tol", "tolerance must be positive")
    if sc["solve.max_iter"] < 1:
        _fail(sc, "solve.max_iter", "needs at least one iteration")
    p_bc = sc["certify.boundary_p"]
    if p_bc is not None and p_bc <= dim:
        _fail(sc, "certify.boundary_p",
              f"boundary rotation closeness requires p > n for the "
              f"supercritical embedding; got p = {p_bc:g} with n = {dim}")
    for key in ("certify.rho", "certify.epsilon", "certify.taylor_samples",
                "certify.strain_delta", "certify.strain_eps"):
        if not sc[key] > 0:
            _fail(sc, key, f"must be positive, got {sc[key]:g}")
    if not sc["certify.rho"] + sc["certify.epsilon"] < 1.0:
        _fail(sc, "certify.rho",
              "rho + epsilon must stay below 1 to keep determinants positive")
    if sc["certify.frac"] <= 0.0:
        _fail(sc, "certify.frac", "perturbation fraction must be positive")
    for key in ("certify.candidates", "certify.restarts"):
        if sc[key] < 0:
            _fail(sc, key, f"counts must be >= 0, got {sc[key]}")
    p = sc["rigidity.p"]
    if not 1.0 < p < float("inf"):
        _fail(sc, "rigidity.p", f"rotation fit requires 1 < p < inf, got {p:g}")
    if not 1.0 <= sc["harmonic.p"] < sc["harmonic.q"]:
        _fail(sc, "harmonic.p",
              f"interpolation exponents need 1 <= p < q, got "
              f"p = {sc['harmonic.p']:g}, q = {sc['harmonic.q']:g}")
    for key in ("rigidity.resolutions", "korn.resolutions"):
        if not sc[key] or any(r < 1 for r in sc[key]):
            _fail(sc, key, "resolutions must be positive integers")
    for key in ("harmonic.count", "certify.j2_count"):
        if sc[key] < 1:
            _fail(sc, key, f"family sizes must be >= 1, got {sc[key]}")
    sweep = _sweep_meshes(sc)
    _check_lattice(sc, mesh, sweep)
    return mesh, sweep


def _sweep_meshes(sc) -> list:
    """The meshes of the pipeline's resolution sweep (none for the other
    pipelines); a resolution whose mesh fails or has no free dof is a
    ConfigError naming the sweep's key."""
    key = _SWEEPS.get(sc["pipeline"])
    meshes = []
    for r in sc[key] if key else ():
        try:
            mesh_r = build_mesh(sc, r)
        except ConfigError as exc:
            _fail(sc, key, f"resolution {r}: {exc}")
        if not mesh_r.free_mask().any():
            _fail(sc, key, f"resolution {r} leaves no free dof")
        meshes.append(mesh_r)
    return meshes


def _check_lattice(sc, mesh, sweep):
    """Reject meshes that the pipeline's gradient fields cannot live on."""
    pipeline, kind = sc["pipeline"], sc["mesh.kind"]
    if pipeline not in _LATTICE_PIPELINES:
        return
    if kind in ("box", "file"):
        why = "kind 'box' meshes are 3D" if kind == "box" else "kind 'file' meshes carry none"
        _fail(sc, "mesh.kind", f"pipeline {pipeline} measures gradients on a 2D cell lattice; {why}")
    w, h = sc["mesh.width"], sc["mesh.height"]
    if pipeline == "diagnostics-rigidity":
        # it measures on r x r meshes of the same domain, one per resolution
        if any(mesh_r.lattice is None for mesh_r in sweep):
            _fail(sc, "mesh.width",
                  f"pipeline {pipeline} needs square lattice cells; r x r cells "
                  f"of a {w:g} x {h:g} rectangle are not square")
    elif mesh.lattice is None:
        _fail(sc, "mesh.nx",
              f"pipeline {pipeline} needs square lattice cells; mesh.nx = "
              f"{sc['mesh.nx']} and mesh.ny = {sc['mesh.ny']} on a {w:g} x {h:g} "
              f"rectangle give non-square cells")


def _solve(sc, mesh):
    m = build_material(sc)
    loads, u0 = build_loads(sc, mesh)
    problem = certify.Problem(sc["name"], m, mesh, loads)
    u_e, log = fem.solve_equilibrium(m, mesh, loads, u0,
                                     tol=sc["solve.tol"],
                                     max_iter=sc["solve.max_iter"])
    return problem, u_e, log


def _certify_setup(sc, mesh):
    """The certify pipelines' common start: solve, measure the reference
    constants once, and draw the gated candidates."""
    problem, u_e, _ = _solve(sc, mesh)
    inputs = certify.certification_inputs(
        problem, u_e, rho=sc["certify.rho"], epsilon=sc["certify.epsilon"],
        taylor_samples=sc["certify.taylor_samples"], j2_count=sc["certify.j2_count"],
        seed=sc["seed"],
    )
    cands = certify.gated_perturbations(
        inputs, count=sc["certify.candidates"], frac=sc["certify.frac"], seed=sc["seed"] + 1,
    )
    return inputs, cands


def _base_doc(sc, mesh) -> dict:
    return {
        "schema_version": 1,
        "scope": certify.SCOPE_LABEL,
        "name": sc["name"],
        "pipeline": sc["pipeline"],
        "seed": sc["seed"],
        "config": dict(sc["__raw__"]),
        "provenance": {"mesh_hash": mesh.mesh_hash()},
    }


def _pipeline_solve(sc, mesh, sweep):
    problem, u_e, log = _solve(sc, mesh)
    r = float(np.max(np.abs(fem.residual(problem.material, mesh, problem.loads, u_e))))
    energy = fem.total_energy(problem.material, mesh, problem.loads, u_e)
    outcome = "pass" if log.converged and r <= sc["solve.tol"] else "fail"
    doc = _base_doc(sc, mesh)
    doc["outcome"] = outcome
    doc["measurements"] = {
        "residual_sup": r,
        "total_energy": energy,
        "iterations": log.iterations,
    }
    doc["newton"] = log.to_dict()
    table = (
        ("iteration", "residual_sup"),
        [(i, v) for i, v in enumerate(log.residual_history)],
    )
    return doc, {"newton": table}, outcome


def _certificate_doc(sc, cert) -> dict:
    cert.extra.setdefault("name", sc["name"])
    cert.extra.setdefault("pipeline", sc["pipeline"])
    cert.extra.setdefault("config", dict(sc["__raw__"]))
    return cert.to_dict()


def _num(x) -> float:
    """Numeric CSV cell; absent or null measurements print as nan."""
    return float(x) if isinstance(x, (int, float)) else float("nan")


def _pipeline_bmo_gate(sc, mesh, sweep):
    inputs, cands = _certify_setup(sc, mesh)
    entries, rows = [], []
    for idx, v in enumerate(cands):
        cid = f"candidate-{idx:03d}"
        gate, transfer = certify.gate_and_transfer(v, inputs)
        entries.append({
            "id": cid,
            "outcome": gate.outcome,
            "energy_excess": gate.energy_gap,
            "gate": gate.to_dict(),
            "transfer": transfer.to_dict(),
        })
        meas = gate.measurements
        rows.append((
            cid,
            meas["bmo_seminorm"]["lhs"],
            meas["mean_gradient"]["lhs"],
            _num(gate.energy_gap),
            _num(gate.gap_bound),
            gate.outcome,
        ))
    outcome = certify.fold_outcomes([e["outcome"] for e in entries] or ["pass"])
    cert = certify.Certificate.from_inputs(
        sc["name"],
        inputs,
        measurements={},
        candidates=entries,
        provenance=inputs.provenance,
        outcome=outcome,
    )
    table = (
        ("candidate", "bmo_seminorm", "mean_gradient", "energy_gap", "gap_bound", "outcome"),
        rows,
    )
    return _certificate_doc(sc, cert), {"energy_gap_vs_amplitude": table}, outcome


def _pipeline_small_strain(sc, mesh, sweep):
    inputs, cands = _certify_setup(sc, mesh)
    cert = certify.small_strain_uniqueness(
        cands, inputs, strain_delta=sc["certify.strain_delta"],
        boundary_p=sc["certify.boundary_p"],
    )
    if sc["certify.restarts"] > 0:
        ms = certify.multistart_agreement(
            inputs.problem, count=sc["certify.restarts"], seed=sc["seed"] + 2
        )
        cert.extra["multistart"] = ms
        cert.outcome = certify.fold_outcomes(
            [cert.outcome, "pass" if ms["pass"] else "fail"]
        )
    rows = [
        (e["id"], e["strain_sup"], _num(e.get("energy_excess")), e["outcome"])
        for e in cert.candidates
    ]
    table = (("candidate", "strain_sup", "energy_excess", "outcome"), rows)
    return _certificate_doc(sc, cert), {"candidates": table}, cert.outcome


def _pipeline_strain_diff(sc, mesh, sweep):
    inputs, cands = _certify_setup(sc, mesh)
    cert = pushforward.certify_strain_neighborhood(
        cands, inputs, strain_eps=sc["certify.strain_eps"]
    )
    rows = [
        (e["id"], e["strain_diff_sup"], e["dist_sup"],
         _num(e.get("energy_excess")), e["outcome"])
        for e in cert.candidates
    ]
    table = (
        ("candidate", "strain_diff_sup", "dist_sup", "energy_excess", "outcome"),
        rows,
    )
    return _certificate_doc(sc, cert), {"strain_candidates": table}, cert.outcome


def _pipeline_harmonic(sc, mesh, sweep):
    count = sc["harmonic.count"]
    p, q = sc["harmonic.p"], sc["harmonic.q"]
    fields, manifest = certify.j2_family(mesh, count, sc["seed"])
    J2 = harmonic.fit_interpolation_constant(fields, p=p, q=q)
    doubled, _ = certify.j2_family(mesh, 2 * count, sc["seed"])
    J2_doubled = harmonic.fit_interpolation_constant(doubled, p=p, q=q)
    rows = []
    all_ok = True
    for i, fld in enumerate(fields):
        bmo = harmonic.bmo_seminorm(fld)
        sharp_max = float(harmonic.fs_sharp(fld).values[fld.mask].max())
        maximal_sup = float(harmonic.hl_maximal(fld).values[fld.mask].max())
        pw = harmonic.verify_pointwise_bounds(fld)
        interp_ok = harmonic.verify_interpolation(fld, p, q, J2)
        all_ok = all_ok and pw.ok and interp_ok
        rows.append((f"field-{i:03d}", bmo, sharp_max, maximal_sup,
                     pw.ok, interp_ok))
    theta = harmonic.interpolation_exponent(p, q)
    expo = harmonic.rh_exponents(p, q)
    outcome = "pass" if all_ok else "fail"
    doc = _base_doc(sc, mesh)
    doc["outcome"] = outcome
    doc["measurements"] = {
        "J2": J2,
        "J2_doubled_family": J2_doubled,
        "family": manifest,
        "exponents": {
            "rh": [str(expo[0]), str(expo[1])],
            "interpolation_theta": str(theta),
        },
    }
    table = (
        ("field", "bmo_seminorm", "sharp_max", "maximal_sup",
         "pointwise_ok", "interpolation_ok"),
        rows,
    )
    return doc, {"fields": table}, outcome


def _pipeline_rigidity(sc, mesh, sweep):
    rows = []
    for r, mesh_r in zip(sc["rigidity.resolutions"], sweep):
        rng = np.random.default_rng(sc["seed"])
        vals = mesh_r.nodes + certify.bump_values(mesh_r, rng, sc["rigidity.eps"])
        fit = rigidity.rigidity_fit(
            fem.gradient_field(mesh_r, vals), p=sc["rigidity.p"]
        )
        rows.append((r, fit.C_emp, fit.M_emp, fit.bmo_seminorm, fit.dist_sup))
    doc = _base_doc(sc, mesh)
    doc["outcome"] = "pass"
    doc["measurements"] = {
        "resolutions": list(sc["rigidity.resolutions"]),
        "p": sc["rigidity.p"],
        "eps": sc["rigidity.eps"],
        "C_emp": [row[1] for row in rows],
    }
    table = (
        ("resolution", "C_emp", "M_emp", "bmo_seminorm", "dist_sup"),
        rows,
    )
    return doc, {"cemp_vs_refinement": table}, "pass"


def _pipeline_korn(sc, mesh, sweep):
    rows = []
    for r, mesh_r in zip(sc["korn.resolutions"], sweep):
        K = rigidity.korn_constant(mesh_r)
        rows.append((r, K))
    doc = _base_doc(sc, mesh)
    doc["outcome"] = "pass"
    doc["measurements"] = {
        "resolutions": list(sc["korn.resolutions"]),
        "korn_constant": [row[1] for row in rows],
    }
    return doc, {"korn_vs_refinement": (("resolution", "korn_constant"), rows)}, "pass"


# runner(sc, mesh, sweep) -> (report doc, tables, outcome); sweep holds
# the resolution sweep's meshes, in order, and is empty for the others
_RUNNERS = {
    "solve": _pipeline_solve,
    "certify-bmo-gate": _pipeline_bmo_gate,
    "certify-small-strain": _pipeline_small_strain,
    "certify-strain-diff": _pipeline_strain_diff,
    "diagnostics-harmonic": _pipeline_harmonic,
    "diagnostics-rigidity": _pipeline_rigidity,
    "korn": _pipeline_korn,
}


def run_scenario(sc, out_dir) -> tuple[str, list]:
    mesh, sweep = _validated(sc)
    doc, tables, outcome = _RUNNERS[sc["pipeline"]](sc, mesh, sweep)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report = out / f"{sc['name']}.json"
    reporting.write_json(report, doc)
    written.append(report)
    for tname in sorted(tables):
        header, rows = tables[tname]
        path = out / f"{sc['name']}.{tname}.csv"
        reporting.write_csv(path, header, rows)
        written.append(path)
    return outcome, written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rigidity-cert",
        description="Equilibrium solves and local-minimality certificates "
                    "for hyperelastic bodies on structured meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, blurb in (
        ("run", "run a scenario and write its reports"),
        ("validate", "check a scenario config without running it"),
    ):
        p = sub.add_parser(cmd, help=blurb)
        p.add_argument("config", help="path to the scenario config")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    args = parser.parse_args(argv)
    try:
        sc = load_scenario(args.config, seed_override=args.seed)
        if args.command == "validate":
            validate_scenario(sc)
            print(f"{sc['name']}: config ok ({sc['pipeline']})")
            return 0
        outcome, written = run_scenario(sc, args.out)
        for path in written:
            print(path)
        print(f"{sc['name']}: {outcome}")
        return _EXIT[outcome]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RigidityCertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
