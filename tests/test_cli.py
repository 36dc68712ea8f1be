"""End-to-end command line tests: config parsing, validation, pipelines,
exit codes, and byte-level report determinism."""
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from rigidity_cert import cli, errors


def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def _stretch_config(tmp_path, pipeline, extra="", candidates=2):
    return _write(tmp_path, "scenario.cfg", f"""
        # 5% uniaxial stretch, pure displacement
        name = stretch
        pipeline = {pipeline}
        seed = 0

        mesh.kind = rectangle
        mesh.nx = 6
        mesh.ny = 6

        material.model = stvk
        material.lambda = 1.0
        material.mu = 1.0

        loads.dirichlet = affine
        loads.matrix = 1.05 0.0 0.0 1.0

        certify.taylor_samples = 300
        certify.j2_count = 3
        certify.candidates = {candidates}
        {extra}
    """)


# ------------------------------------------------------------------ parsing

def test_parse_config_basics(tmp_path):
    path = _write(tmp_path, "a.cfg", """
        # comment
        name = demo   # trailing comment
        pipeline = solve

        seed = 3
    """)
    raw = cli.parse_config(path)
    assert raw["name"] == ("demo", 3)
    assert raw["pipeline"] == ("solve", 4)
    assert raw["seed"] == ("3", 6)


def test_parse_config_rejects_garbage(tmp_path):
    path = _write(tmp_path, "a.cfg", "name demo\n")
    with pytest.raises(errors.ConfigError, match="line 1"):
        cli.parse_config(path)
    path = _write(tmp_path, "b.cfg", "name = a\nname = b\n")
    with pytest.raises(errors.ConfigError, match="duplicate"):
        cli.parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.resolution = 8
    """)
    with pytest.raises(errors.ConfigError, match=r"mesh\.resolution.*line 4"):
        cli.load_scenario(path)


def test_missing_required_key(tmp_path):
    path = _write(tmp_path, "a.cfg", "name = demo\n")
    with pytest.raises(errors.ConfigError, match="pipeline"):
        cli.load_scenario(path)


def test_bad_value_types(tmp_path):
    path = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.nx = many
    """)
    with pytest.raises(errors.ConfigError, match="integer"):
        cli.load_scenario(path)
    path = _write(tmp_path, "b.cfg", """
        name = demo
        pipeline = dance
    """)
    with pytest.raises(errors.ConfigError, match="one of"):
        cli.load_scenario(path)


def test_seed_override(tmp_path):
    path = _write(tmp_path, "a.cfg", "name = demo\npipeline = solve\nseed = 5\n")
    assert cli.load_scenario(path)["seed"] == 5
    assert cli.load_scenario(path, seed_override=9)["seed"] == 9


# --------------------------------------------------------------- validation

def test_validate_command_ok(tmp_path, capsys):
    cfg = _stretch_config(tmp_path, "solve")
    assert cli.main(["validate", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_boundary_p_hypothesis(tmp_path, capsys):
    cfg = _stretch_config(tmp_path, "certify-small-strain",
                          extra="certify.boundary_p = 2.0")
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "p > n" in err and "boundary" in err


def test_validate_affine_needs_matrix(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        loads.dirichlet = affine
    """)
    assert cli.main(["validate", cfg]) == 1
    assert "loads.matrix" in capsys.readouterr().err


def test_validate_missing_mesh_file(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.kind = file
        mesh.path = nowhere.mesh
    """)
    assert cli.main(["validate", cfg]) == 1


def test_validate_rejects_box_mesh_for_certify(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = certify-small-strain
        mesh.kind = box
        mesh.nx = 3
        mesh.ny = 3
        mesh.nz = 3
    """)
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "mesh.kind (line 4)" in err and "kind 'box' meshes are 3D" in err


def test_validate_rejects_non_square_cells_for_certify(tmp_path, capsys):
    body = """
        name = demo
        pipeline = {pipeline}
        mesh.nx = 8
        mesh.ny = 4
    """
    cfg = _write(tmp_path, "a.cfg", body.format(pipeline="certify-small-strain"))
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "mesh.nx (line 4)" in err and "mesh.ny = 4" in err
    # the same mesh is fine where no gradient field is measured
    cfg = _write(tmp_path, "b.cfg", body.format(pipeline="solve"))
    assert cli.main(["validate", cfg]) == 0


def test_validate_rejects_non_square_rigidity_resolutions(tmp_path, capsys):
    cfg = _stretch_config(tmp_path, "diagnostics-rigidity", extra="mesh.height = 2.0")
    assert cli.main(["validate", cfg]) == 1
    assert "mesh.width" in capsys.readouterr().err


def test_validate_rigidity_p(tmp_path, capsys):
    cfg = _stretch_config(tmp_path, "diagnostics-rigidity",
                          extra="rigidity.p = 1.0")
    assert cli.main(["validate", cfg]) == 1
    assert "1 < p" in capsys.readouterr().err


def test_validate_rejects_odd_l_shape_korn_resolution(tmp_path, capsys):
    # l_shape_mesh needs an even cell count: validate names the sweep key,
    # and run stops at the same check instead of failing mid-sweep
    cfg = _write(tmp_path, "a.cfg", """
        name = korn
        pipeline = korn
        mesh.kind = l-shape
        korn.resolutions = 4 3
    """)
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: korn.resolutions (line 5): resolution 3" in err
    assert "even cell count" in err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "korn.resolutions (line 5)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_rejects_ring_rigidity_resolution(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", """
        name = rig
        pipeline = diagnostics-rigidity
        mesh.kind = ring
        rigidity.resolutions = 8 6
    """)
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: rigidity.resolutions (line 5): resolution 6" in err
    assert "divisible by 4" in err


def test_validate_rejects_korn_resolution_without_free_dof(tmp_path, capsys):
    # a 1x1 clamped square has no free node, so no Korn quotient to take
    cfg = _write(tmp_path, "a.cfg", """
        name = korn
        pipeline = korn
        korn.resolutions = 1 4
    """)
    assert cli.main(["validate", cfg]) == 1
    assert "korn.resolutions (line 4): resolution 1 leaves no free dof" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("kind, key", [
    ("rectangle", "mesh.nx"), ("rectangle", "mesh.ny"), ("box", "mesh.nz"), ("l-shape", "mesh.n"),
])
def test_validate_rejects_zero_mesh_count(tmp_path, capsys, kind, key):
    # the generators divide by these counts; a zero count is named up front
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        mesh.kind = {kind}
        {key} = 0
    """)
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key} (line 5): cell counts must be positive integers, got 0" in err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "pipeline", ["solve", "certify-bmo-gate", "certify-small-strain", "certify-strain-diff"]
)
def test_validate_rejects_scenario_mesh_without_free_dof(tmp_path, capsys, pipeline):
    # a clamped 1x1 square has no free node: nothing to solve for
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = {pipeline}
        mesh.nx = 1
        mesh.ny = 1
    """)
    assert cli.main(["validate", cfg]) == 1
    assert "config error: mesh.dirichlet: the mesh leaves no free dof" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_validate_accepts_one_cell_with_a_free_side(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.nx = 1
        mesh.ny = 1
        mesh.dirichlet = left
    """)
    assert cli.main(["validate", cfg]) == 0


def test_validate_checks_only_the_sweep_the_pipeline_runs(tmp_path, capsys):
    # korn.resolutions = 3 would fail on an l-shape, but solve never meshes it
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.kind = l-shape
        mesh.n = 4
        korn.resolutions = 3
    """)
    assert cli.main(["validate", cfg]) == 0


@pytest.mark.parametrize("pipeline", ["solve", "korn"])
@pytest.mark.parametrize("kind, side", [("rectangle", "lefty"), ("box", "left"), ("ring", "x0")])
def test_validate_rejects_unknown_dirichlet_side(tmp_path, capsys, pipeline, kind, side):
    # a side name the generator does not make is named up front, not a KeyError
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = {pipeline}
        mesh.kind = {kind}
        mesh.dirichlet = {side}
    """)
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert f"config error: mesh.dirichlet (line 5): kind '{kind}' has the sides" in err
    assert f"; got {side}" in err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "mesh.dirichlet (line 5)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_accepts_known_dirichlet_sides(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.kind = box
        mesh.nx = 2
        mesh.ny = 2
        mesh.nz = 2
        mesh.dirichlet = x0, z1
    """)
    assert cli.main(["validate", cfg]) == 0


@pytest.mark.parametrize("lengths", ["1 2", "1 1 1 1"])
def test_validate_rejects_box_lengths_count(tmp_path, capsys, lengths):
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        mesh.kind = box
        mesh.lengths = {lengths}
    """)
    assert cli.main(["validate", cfg]) == 1
    count = len(lengths.split())
    assert (f"config error: mesh.lengths (line 5): a box needs 3 side lengths, got {count}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value, message", [
    ("certify.rho", "0", "must be positive, got 0"),
    ("certify.rho", "-0.1", "must be positive, got -0.1"),
    ("certify.epsilon", "0", "must be positive, got 0"),
    ("certify.epsilon", "-0.1", "must be positive, got -0.1"),
    ("certify.taylor_samples", "0", "must be positive, got 0"),
    ("certify.taylor_samples", "-1", "must be positive, got -1"),
])
def test_validate_rejects_nonpositive_certify_settings(tmp_path, capsys, key, value, message):
    # these used to pass validate and fail late, with a ZeroDivisionError,
    # a bare ValueError or a DeterminantViolation after a zero Taylor constant
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = certify-small-strain
        {key} = {value}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert f"config error: {key} (line 4): {message}" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("certify.j2_count", "0", "family sizes must be >= 1, got 0"),
    ("harmonic.count", "0", "family sizes must be >= 1, got 0"),
    ("certify.candidates", "-1", "counts must be >= 0, got -1"),
    ("certify.restarts", "-1", "counts must be >= 0, got -1"),
    ("certify.strain_delta", "0", "must be positive, got 0"),
    ("certify.strain_delta", "-0.2", "must be positive, got -0.2"),
    ("certify.strain_eps", "0", "must be positive, got 0"),
    ("certify.strain_eps", "-1", "must be positive, got -1"),
])
def test_validate_names_the_key_at_fault(tmp_path, capsys, key, value, message):
    # each key of a pair checked together is named on its own, and a
    # strain bound at or below 0 is refused before the solve
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = certify-small-strain
        {key} = {value}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert f"config error: {key} (line 4): {message}" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, key, value, message", [
    ("rectangle", "mesh.width", "0", "side lengths must be positive and finite, got 0"),
    ("rectangle", "mesh.width", "-1", "side lengths must be positive and finite, got -1"),
    ("rectangle", "mesh.height", "inf", "side lengths must be positive and finite, got inf"),
    ("l-shape", "mesh.size", "0", "side lengths must be positive and finite, got 0"),
    ("ring", "mesh.size", "-2", "side lengths must be positive and finite, got -2"),
    ("box", "mesh.lengths", "1 1 0", "side lengths must be positive and finite, got 1 1 0"),
    ("ring", "mesh.hole", "0", "the hole is a fraction of the side in (0, 1), got 0"),
    ("ring", "mesh.hole", "-0.5", "the hole is a fraction of the side in (0, 1), got -0.5"),
    ("ring", "mesh.hole", "1", "the hole is a fraction of the side in (0, 1), got 1"),
])
def test_validate_rejects_mesh_sizes_the_generator_cannot_use(tmp_path, capsys, kind, key,
                                                               value, message):
    # these reached the generator and came back as a singular Jacobian or,
    # for the hole, quietly built a full square
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        mesh.kind = {kind}
        {key} = {value}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert f"config error: {key} (line 5): {message}" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_validate_checks_only_the_sizes_the_mesh_kind_reads(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.kind = rectangle
        mesh.size = 0
        mesh.hole = 0
        mesh.lengths = 1 1 0
    """)
    assert cli.main(["validate", cfg]) == 0


def test_validate_load_components_through_build_loads(tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, cli, "build_loads")
    cfg = _stretch_config(tmp_path, "solve", extra="loads.body = 0.1 0.0 0.0")
    assert cli.main(["validate", cfg]) == 1
    assert "loads.body (line 21): expected 2 components, got 3" in capsys.readouterr().err
    assert calls == {"build_loads": 1}


# ---------------------------------------------------------------- pipelines

def test_run_solve_minimal(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", """
        name = rest
        pipeline = solve
        mesh.kind = rectangle
        mesh.nx = 4
        mesh.ny = 4
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "rest.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["outcome"] == "pass"
    assert doc["measurements"]["residual_sup"] <= 1e-10
    assert doc["measurements"]["iterations"] == 0
    assert (out / "rest.newton.csv").exists()


def test_run_certify_small_strain(tmp_path):
    cfg = _stretch_config(tmp_path, "certify-small-strain",
                          extra="certify.restarts = 2")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "stretch.json").read_text())
    assert doc["outcome"] == "pass"
    assert doc["constants"]["k_hat"] > 0.0
    assert doc["constants"]["delta_star"] > 0.0
    assert doc["multistart"]["pass"]
    assert len(doc["candidates"]) == 2
    csv_text = (out / "stretch.candidates.csv").read_text()
    assert csv_text.splitlines()[0] == "candidate,strain_sup,energy_excess,outcome"
    assert len(csv_text.splitlines()) == 3


def test_run_bmo_gate(tmp_path):
    cfg = _stretch_config(tmp_path, "certify-bmo-gate")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "stretch.json").read_text())
    assert doc["outcome"] == "pass"
    rows = (out / "stretch.energy_gap_vs_amplitude.csv").read_text().splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[3]) >= float(cells[4])  # gap >= bound
        assert cells[5] == "pass"
    assert all(e["transfer"]["outcome"] == "pass" for e in doc["candidates"])


def test_run_strain_diff(tmp_path):
    cfg = _stretch_config(tmp_path, "certify-strain-diff")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "stretch.json").read_text())
    assert doc["configuration"] == "deformed"
    assert doc["outcome"] == "pass"
    assert (out / "stretch.strain_candidates.csv").exists()


def test_run_gate_inapplicable_exit_2(tmp_path):
    # perturbations scaled far beyond delta_star fail the smallness
    # conditions, which is inapplicability, not failure
    cfg = _stretch_config(tmp_path, "certify-bmo-gate",
                          extra="certify.frac = 50.0")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    doc = json.loads((out / "stretch.json").read_text())
    assert doc["outcome"] == "inapplicable"


def test_run_diagnostics_harmonic(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
        name = harm
        pipeline = diagnostics-harmonic
        mesh.nx = 8
        mesh.ny = 8
        harmonic.count = 3
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "harm.json").read_text())
    assert doc["measurements"]["J2"] > 0.0
    assert doc["measurements"]["exponents"]["rh"] == ["1/3", "2/3"]
    rows = (out / "harm.fields.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 4  # count families x dim^2 components


def test_run_diagnostics_rigidity(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
        name = rig
        pipeline = diagnostics-rigidity
        rigidity.resolutions = 6 12
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "rig.cemp_vs_refinement.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[0].startswith("resolution,C_emp")


def test_run_korn(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
        name = korn
        pipeline = korn
        korn.resolutions = 4 8
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "korn.korn_vs_refinement.csv").read_text().splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row.split(",")[1]) >= 2.0 - 1e-6


def test_run_config_error_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", """
        name = demo
        pipeline = solve
        mesh.kind = file
    """)
    assert cli.main(["run", cfg]) == 1
    assert "mesh.path" in capsys.readouterr().err


# -------------------------------------------------------------- determinism

def test_reports_byte_identical_across_runs(tmp_path):
    cfg = _stretch_config(tmp_path, "certify-small-strain")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", cfg, "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_korn_report_byte_identical_at_4418_dofs(tmp_path):
    # 48x48 has 4418 free dofs, the largest Korn eigensolve the tests run
    cfg = _write(tmp_path, "korn.cfg", """
        name = korn48
        pipeline = korn
        seed = 0
        mesh.kind = rectangle
        korn.resolutions = 48
    """)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", cfg, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reports_byte_identical_across_blas_thread_counts(tmp_path):
    # the element matrices are stacked BLAS products; a second BLAS thread
    # must not change a byte of a report
    small = _stretch_config(tmp_path, "certify-small-strain", "certify.restarts = 2")
    korn = _write(tmp_path, "korn.cfg", """
        name = korn16
        pipeline = korn
        seed = 0
        mesh.kind = rectangle
        korn.resolutions = 16
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        for cfg in (small, korn):
            done = subprocess.run(
                [sys.executable, "-m", "rigidity_cert.cli", "run", cfg, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and len(names) >= 4
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


# ------------------------------------------------- single measurement

def _count_calls(monkeypatch, module, name, key=None):
    """Wrap module.name so that calls are tallied by key(*args, **kwargs),
    or under name when key is None."""
    calls = {}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        k = name if key is None else key(*args, **kwargs)
        calls[k] = calls.get(k, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("pipeline, key", [
    ("korn", "korn.resolutions"), ("diagnostics-rigidity", "rigidity.resolutions"),
])
def test_sweep_meshes_are_built_once_per_run(tmp_path, monkeypatch, pipeline, key):
    calls = _count_calls(monkeypatch, cli, "build_mesh",
                         key=lambda sc, r=None: "scenario" if r is None else r)
    cfg = _write(tmp_path, "a.cfg", f"""
        name = sweep
        pipeline = {pipeline}
        mesh.nx = 4
        mesh.ny = 4
        {key} = 4 6
    """)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"scenario": 1, 4: 1, 6: 1}


def test_strain_diff_measures_reference_once(tmp_path, monkeypatch):
    from rigidity_cert import certify, fem

    inputs_calls = _count_calls(monkeypatch, certify, "certification_inputs",
                                key=lambda problem, *a, **k: problem.problem_id)
    eig_calls = _count_calls(monkeypatch, fem, "coercivity_constant")
    cfg = _stretch_config(tmp_path, "certify-strain-diff")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    # once on the reference problem, once on the deformed one
    assert inputs_calls == {"stretch": 1, "stretch-deformed": 1}
    assert eig_calls == {"coercivity_constant": 2}


def test_bmo_gate_solves_the_eigenproblem_once(tmp_path, monkeypatch):
    from rigidity_cert import fem

    eig_calls = _count_calls(monkeypatch, fem, "coercivity_constant")
    cfg = _stretch_config(tmp_path, "certify-bmo-gate", candidates=3)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "stretch.json").read_text())
    assert len(doc["candidates"]) == 3
    assert all(e["transfer"]["outcome"] == "pass" for e in doc["candidates"])
    assert eig_calls == {"coercivity_constant": 1}


def test_bmo_gate_measures_each_difference_field_once(tmp_path, monkeypatch):
    # a candidate's gate and transfer share one measurement of its
    # difference field, so no field's BMO seminorm is taken twice
    from rigidity_cert import harmonic

    def field_key(fld, *args, **kwargs):
        return hashlib.sha256(fld.mask.tobytes() + fld.values.tobytes()).hexdigest()

    bmo_calls = _count_calls(monkeypatch, harmonic, "bmo_seminorm", key=field_key)
    cfg = _stretch_config(tmp_path, "certify-bmo-gate", candidates=3)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "stretch.json").read_text())
    assert [e["transfer"]["outcome"] for e in doc["candidates"]] == ["pass"] * 3
    assert sum(bmo_calls.values()) == len(bmo_calls)


@pytest.mark.parametrize("pipeline, residuals", [
    ("certify-bmo-gate", 2), ("certify-small-strain", 2), ("certify-strain-diff", 3),
])
def test_equilibrium_is_checked_once_whatever_the_candidate_count(tmp_path, monkeypatch,
                                                                  pipeline, residuals):
    # one residual in the solve and one per measured configuration; no
    # state's energy is taken again for each candidate
    from rigidity_cert import fem

    def state_key(m, mesh, loads, u):
        return hashlib.sha256(mesh.nodes.tobytes() + u.values.tobytes()).hexdigest()

    seen = []
    for candidates in (1, 3):
        with monkeypatch.context() as mp:
            residual_calls = _count_calls(mp, fem, "residual")
            energy_calls = _count_calls(mp, fem, "total_energy", key=state_key)
            cfg = _stretch_config(tmp_path, pipeline, candidates=candidates)
            assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        seen.append((residual_calls["residual"], max(energy_calls.values())))
    assert seen[0] == seen[1]
    assert seen[0][0] == residuals


@pytest.mark.parametrize("candidates", [0, 2])
@pytest.mark.parametrize(
    "pipeline", ["certify-bmo-gate", "certify-small-strain", "certify-strain-diff"]
)
def test_certify_pipelines_refuse_a_non_equilibrium(tmp_path, capsys, pipeline, candidates):
    # a loose solve tolerance stops Newton at residual 1.4e-2; with no
    # candidate to gate, certify-bmo-gate used to report pass
    cfg = _stretch_config(tmp_path, pipeline, candidates=candidates,
                          extra="loads.body = 0.5 0.0\nsolve.tol = 0.1")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert ("error: NotEquilibrium: u_e is not an equilibrium: residual 1.389e-02 exceeds 1e-08"
            in err)
    assert not (tmp_path / "out").exists()


def test_strain_diff_samples_point_materials_in_batches(tmp_path, monkeypatch):
    # the deformed Taylor constants freeze pushforward points as batched
    # materials: no per-point closure material, one elasticity call per
    # gradient and taylor_constants call
    from rigidity_cert import material, pushforward

    built = []
    monkeypatch.setattr(material.CustomMaterial, "__init__",
                        lambda self, *a, **k: built.append(a[0]))
    taylor_calls = _count_calls(monkeypatch, material, "taylor_constants")
    elasticity = pushforward.FrozenPointMaterial.elasticity_many
    sizes = []

    def counted(self, coords, F, ctx=None):
        sizes.append(len(F))
        return elasticity(self, coords, F, ctx)

    monkeypatch.setattr(pushforward.FrozenPointMaterial, "elasticity_many", counted)
    cfg = _stretch_config(tmp_path, "certify-strain-diff")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert built == []
    # one call on the reference material, twelve on frozen points
    assert taylor_calls == {"taylor_constants": 13}
    assert len(sizes) == 2 * 12 and all(size > 1 for size in sizes)
