"""End-to-end command line tests: config parsing, validation, pipelines,
exit codes, and byte-level report determinism."""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_cert import certify, cli, errors, fem, harmonic


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

        # the Taylor constants are proved bounds: no key samples them
        # no key sets J2: it is proved from the lattice
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


@pytest.mark.parametrize("key, value, pipeline", [
    ("certify.boundary_p", "3.0", "certify-small-strain"),
    ("rigidity.p", "2.0", "diagnostics-rigidity"),
    ("rigidity.eps", "0.02", "diagnostics-rigidity"),
    ("harmonic.p", "2.0", "diagnostics-harmonic"),
    ("harmonic.q", "3.0", "diagnostics-harmonic"),
    ("certify.j2_count", "6", "certify-small-strain"),
    ("certify.taylor_samples", "2000", "certify-strain-diff"),
    ("certify.rho", "0.25", "certify-bmo-gate"),
    ("certify.epsilon", "0.25", "certify-strain-diff"),
    ("certify.strain_delta", "0.2", "certify-small-strain"),
    ("solve.tol", "1e-10", "solve"),
    ("solve.max_iter", "50", "solve"),
    ("mesh.size", "1.0", "solve"),
    ("mesh.hole", "0.5", "solve"),
])
def test_fixed_value_keys_are_unknown(tmp_path, capsys, key, value, pipeline):
    # the certificate's exponents, Taylor radii and strain bound, the Newton
    # tolerance and budget, the bump amplitude, and the size of the l-shape
    # and the ring and the ring's hole are constants, and J2 and the Taylor
    # constants are proved, not fitted or sampled, so a config that sets
    # one, even to its old default, is refused before any run
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = {pipeline}
        mesh.nx = 4
        mesh.ny = 4
        {key} = {value}
    """)
    message = f"config error: unknown keys: '{key}' (line 6)"
    assert cli.main(["validate", cfg]) == 1
    assert message in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # one number, several numbers, several integers and a choice, each
    # message whole, in the shape of a validation error
    for line, message in [
        ("mesh.width = wide", "mesh.width (line 4): expected a finite number, got 'wide'"),
        ("loads.matrix = 1 x", "loads.matrix (line 4): expected finite numbers, got '1 x'"),
        ("korn.resolutions = 8 x", "korn.resolutions (line 4): expected integers, got '8 x'"),
        ("material.model = rubber",
         "material.model (line 4): expected one of stvk, neo-hookean, got 'rubber'"),
    ]:
        path = _write(tmp_path, "c.cfg", f"""
        name = demo
        pipeline = solve
        {line}
    """)
        with pytest.raises(errors.ConfigError) as exc:
            cli.load_scenario(path)
        assert str(exc.value) == message


_FLOAT_KEYS = [key for key, (parser, _) in cli._KEYS.items()
               if parser in (cli._p_float, cli._p_floats)]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, key, bad):
    # these passed validate and failed late in run: a singular tangent, a
    # non-finite Newton step, or a solve spending every iteration
    if cli._KEYS[key][0] is cli._p_float:
        value, expected = bad, "a finite number"
    else:
        value, expected = f"1.0 {bad}", "finite numbers"
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        {key} = {value}
    """)
    message = f"config error: {key} (line 4): expected {expected}, got '{value}'"
    for command in (["validate", cfg], ["run", cfg, "--out", str(tmp_path / "out")]):
        assert cli.main(command) == 1
        assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "out").exists()


def test_seed_override(tmp_path):
    path = _write(tmp_path, "a.cfg", "name = demo\npipeline = solve\nseed = 5\n")
    assert cli.load_scenario(path)["seed"] == 5
    assert cli.load_scenario(path, seed_override=9)["seed"] == 9


# --------------------------------------------------------------- validation

def test_validate_command_ok(tmp_path, capsys):
    cfg = _stretch_config(tmp_path, "solve")
    assert cli.main(["validate", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


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


@pytest.mark.parametrize("pipeline", [*cli._LATTICE_PIPELINES, "korn"])
def test_validate_rejects_file_mesh_for_lattice_and_sweep_pipelines(tmp_path, capsys, pipeline):
    # a read mesh carries no lattice, and one fixed mesh has no resolution
    # to sweep: korn used to report the same mesh under every resolution
    fem.write_mesh(fem.rectangle_mesh(4, 4), tmp_path / "square.mesh")

    def config(pipeline):
        return _write(tmp_path, f"{pipeline}.cfg", f"""
            name = demo
            pipeline = {pipeline}
            mesh.kind = file
            mesh.path = {tmp_path / "square.mesh"}
            korn.resolutions = 8 16
        """)

    assert cli.main(["validate", config(pipeline)]) == 1
    assert capsys.readouterr().err.startswith("config error: mesh.kind (line 4): ")
    assert cli.main(["validate", config("solve")]) == 0


@pytest.mark.parametrize("pipeline, mesh, key", [
    ("certify-small-strain", ("mesh.nx = 4", "mesh.ny = 4", "mesh.nz = 2"), "mesh.nx"),
    ("diagnostics-rigidity", ("mesh.lengths = 1 1 2",), "mesh.lengths"),
])
def test_validate_rejects_a_box_whose_cells_are_not_cubes(tmp_path, capsys, pipeline, mesh, key):
    lines = ("name = demo", f"pipeline = {pipeline}", "mesh.kind = box", *mesh)
    cfg = _write(tmp_path, "a.cfg", "\n".join(lines) + "\n")
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} (line ")
    assert "square or cube cells" in err and "rectangle" not in err
    # the same box is fine where no gradient field is measured
    Path(cfg).write_text(Path(cfg).read_text().replace(pipeline, "solve"))
    assert cli.main(["validate", cfg]) == 0


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


@pytest.mark.parametrize("kind, count, message", [
    ("l-shape", 3, "l_shape_mesh needs an even cell count"),
    ("ring", 6, "square_ring_mesh needs n divisible by 4"),
])
def test_validate_names_the_count_a_generator_refuses(tmp_path, capsys, kind, count, message):
    # the generator's own refusal, under the key of the count it refused
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        mesh.kind = {kind}
        mesh.n = {count}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert capsys.readouterr().err == f"config error: mesh.n (line 5): {message}\n"
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_validate_names_the_path_of_a_mesh_file_that_fails(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        mesh.kind = file
        mesh.path = {tmp_path / "nowhere.mesh"}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: mesh.path (line 5): ")


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


@pytest.mark.parametrize("kind, sides", [
    ("rectangle", "inner"), ("box", "inner"),
    ("rectangle", ""), ("box", ""), ("l-shape", ""), ("ring", ""),
])
def test_validate_names_mesh_dirichlet_for_an_empty_dirichlet_part(tmp_path, capsys, kind,
                                                                    sides):
    # no side, or the inner side that a full rectangle or box lacks, is
    # refused up front with the kind's sides
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = solve
        mesh.kind = {kind}
        mesh.dirichlet = {sides}
    """)
    names = ", ".join(_KIND_SIDES[kind])
    message = (f"config error: mesh.dirichlet (line 5): kind '{kind}' has the sides {names}; "
               f"got {sides or 'none'}\n")
    assert cli.main(["validate", cfg]) == 1
    assert capsys.readouterr().err == message
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


# the boundary sides of each generated kind: only a domain with a hole in
# its lattice has facets against a masked-out cell
_KIND_SIDES = {
    "rectangle": ("left", "right", "bottom", "top"),
    "l-shape": ("left", "right", "bottom", "top", "inner"),
    "ring": ("left", "right", "bottom", "top", "inner"),
    "box": ("x0", "x1", "y0", "y1", "z0", "z1"),
}
# counts at which every kind keeps a free node with every side clamped
_SMALL_COUNTS = {
    "rectangle": ("mesh.nx = 2", "mesh.ny = 2"),
    "l-shape": ("mesh.n = 4",),
    "ring": ("mesh.n = 8",),
    "box": ("mesh.nx = 2", "mesh.ny = 2", "mesh.nz = 2"),
}


@st.composite
def _dirichlet_lists(draw):
    """A generated mesh kind and a list of its sides plus inner, which may
    name a side more than once."""
    kind = draw(st.sampled_from(sorted(_KIND_SIDES)))
    names = sorted({*_KIND_SIDES[kind], "inner"})
    return kind, tuple(draw(st.lists(st.sampled_from(names))))


@settings(max_examples=80, deadline=None)
@given(case=_dirichlet_lists())
@example(case=("rectangle", ("left", "inner")))
@example(case=("box", ("x0", "inner")))
@example(case=("rectangle", ("left", "left")))
@example(case=("box", ("x0", "x0")))
@example(case=("l-shape", ("inner",)))
@example(case=("ring", ("inner",)))
def test_validate_takes_exactly_the_nonempty_side_lists_of_the_kind(case):
    kind, sides = case
    ok = bool(sides) and set(sides) <= set(_KIND_SIDES[kind]) and len(set(sides)) == len(sides)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), "a.cfg", "\n".join([
            "name = demo", "pipeline = solve", f"mesh.kind = {kind}",
            f"mesh.dirichlet = {', '.join(sides)}", *_SMALL_COUNTS[kind]]) + "\n")
        try:
            cli.validate_scenario(cli.load_scenario(cfg))
            err = None
        except errors.ConfigError as exc:
            err = str(exc)
    if ok:
        assert err is None, (kind, sides, err)
    else:
        assert err is not None and err.startswith("mesh.dirichlet (line 4): "), (kind, sides, err)


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
    ("harmonic.count", "0", "family sizes must be >= 1, got 0"),
    ("certify.candidates", "-1", "counts must be >= 0, got -1"),
    ("certify.restarts", "-1", "counts must be >= 0, got -1"),
    ("certify.strain_eps", "0", "must be positive, got 0"),
    ("certify.strain_eps", "-1", "must be positive, got -1"),
    ("material.mu", "0", "shear modulus must be positive, got 0.0"),
    ("material.mu", "-1", "shear modulus must be positive, got -1.0"),
    ("material.lambda", "-0.5", "first parameter must be >= 0, got -0.5"),
    ("certify.frac", "0", "perturbation fraction must be positive"),
    ("certify.frac", "-0.5", "perturbation fraction must be positive"),
    ("korn.resolutions", "8 0", "resolutions must be positive integers"),
    ("rigidity.resolutions", "-4", "resolutions must be positive integers"),
])
def test_validate_names_the_key_at_fault(tmp_path, capsys, key, value, message):
    # each key is named on its own, and a strain bound at or below 0 is
    # refused before the solve
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = certify-small-strain
        {key} = {value}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert f"config error: {key} (line 4): {message}" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("partner, key, value, message", [
    ("loads.dirichlet = affine", "loads.matrix", "1.05 0 0",
     "expected 4 entries for a 2x2 matrix, got 3"),
    ("loads.dirichlet = affine", "loads.matrix", "1 0 0 -1",
     "affine Dirichlet matrix must have positive determinant"),
    ("loads.dirichlet = affine", "loads.matrix", "0 0 0 0",
     "affine Dirichlet matrix must have positive determinant"),
    ("loads.dirichlet = identity", "loads.matrix", "1.05 0 0 1",
     "needs loads.dirichlet = affine, got identity"),
    ("mesh.kind = rectangle", "mesh.path", "nowhere.mesh",
     "needs mesh.kind = file, got rectangle"),
])
def test_validate_names_the_key_at_fault_beside_its_partner(tmp_path, capsys, partner, key,
                                                            value, message):
    # a key that is checked against a partner's value is named with its
    # own line when the pair fails
    cfg = _write(tmp_path, "a.cfg", f"""
        name = demo
        pipeline = certify-small-strain
        {partner}
        {key} = {value}
    """)
    assert cli.main(["validate", cfg]) == 1
    assert f"config error: {key} (line 5): {message}" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, key, value, message", [
    ("rectangle", "mesh.width", "0", "side lengths must be positive, got 0"),
    ("rectangle", "mesh.width", "-1", "side lengths must be positive, got -1"),
    ("rectangle", "mesh.height", "inf", "expected a finite number, got 'inf'"),
    ("box", "mesh.lengths", "1 1 0", "side lengths must be positive, got 1 1 0"),
])
def test_validate_rejects_mesh_sizes_the_generator_cannot_use(tmp_path, capsys, kind, key,
                                                               value, message):
    # these reached the generator and came back as a singular Jacobian
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
    # a rectangle reads width and height, a box its lengths, and the
    # unit-size l-shape and ring none
    for kind, unread in [("rectangle", "mesh.lengths = 1 1 0"),
                         ("box", "mesh.width = 0\nmesh.height = 0"),
                         ("l-shape", "mesh.width = 0\nmesh.lengths = 1 1 0"),
                         ("ring", "mesh.height = 0\nmesh.lengths = 0 0 0")]:
        cfg = _write(tmp_path, f"{kind}.cfg",
                     f"name = demo\npipeline = solve\nmesh.kind = {kind}\n{unread}\n")
        assert cli.main(["validate", cfg]) == 0, kind


def test_validate_load_components_through_build_loads(tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, cli, "build_loads")
    cfg = _stretch_config(tmp_path, "solve", extra="loads.body = 0.1 0.0 0.0")
    assert cli.main(["validate", cfg]) == 1
    assert "loads.body (line 21): expected 2 components, got 3" in capsys.readouterr().err
    assert calls == {"build_loads": 1}


def test_the_config_has_27_keys():
    assert len(cli._KEYS) == 27
    assert "certify.j2_count" not in cli._KEYS and "certify.taylor_samples" not in cli._KEYS


@pytest.mark.parametrize("pipeline", ["certify-bmo-gate", "certify-small-strain",
                                      "certify-strain-diff"])
@pytest.mark.parametrize("mesh, key", [
    # a ring whose wall is one cell wide
    (("mesh.kind = ring", "mesh.n = 4", "mesh.dirichlet = left"), "mesh.n"),
    # an L-shape whose arms are one cell wide
    (("mesh.kind = l-shape", "mesh.n = 2", "mesh.dirichlet = left"), "mesh.n"),
    # a strip of square cells one cell high
    (("mesh.nx = 6", "mesh.ny = 1", "mesh.height = 0.16666666666666666",
      "mesh.dirichlet = left"), "mesh.ny"),
    # a slab of cube cells one cell thick
    (("mesh.kind = box", "mesh.nx = 4", "mesh.ny = 4", "mesh.nz = 1",
      "mesh.lengths = 1 1 0.25", "mesh.dirichlet = x0"), "mesh.nz"),
])
def test_validate_refuses_a_lattice_with_no_finite_j2(tmp_path, capsys, pipeline, mesh, key):
    # maximal squares or cubes that do not overlap into one piece carry a
    # field of BMO seminorm 0 that is not constant, so no J2 bounds it; the
    # certify pipelines refuse such a lattice, naming the key that sets
    # the width, and the diagnostics still accept it
    lines = ("name = demo", f"pipeline = {pipeline}", *mesh)
    cfg = _write(tmp_path, "a.cfg", "\n".join(lines) + "\n")
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} (line ")
    assert "needs a finite J2, and this lattice has none" in err
    diagnostics = Path(cfg).read_text().replace(pipeline, "diagnostics-harmonic")
    Path(cfg).write_text(diagnostics)
    assert cli.main(["validate", cfg]) == 0


# the side each generated kind clamps in the property test below, so that
# every mesh it draws has free dofs
_CLAMPED_SIDE = {"rectangle": "left", "l-shape": "left", "ring": "left", "box": "x0"}


@st.composite
def _lattice_scenarios(draw):
    """A generated mesh kind with counts of at most 6 that its generator
    takes, cell sides of 0.25 or 0.5 per axis for a rectangle or box (the
    l-shape and the ring are unit-size), a lattice pipeline and, for the
    sweep, resolutions the kind takes; and whether the scenario mesh and
    the sweep meshes have cells of one side."""
    kind = draw(st.sampled_from(sorted(_CLAMPED_SIDE)))
    pipeline = draw(st.sampled_from(cli._LATTICE_PIPELINES))
    cell = st.sampled_from([0.25, 0.5])
    if kind in ("rectangle", "box"):
        counts = draw(st.lists(st.integers(1, 6), min_size=len(cli._MESH_COUNTS[kind]),
                               max_size=len(cli._MESH_COUNTS[kind])))
        cells = [draw(cell) for _ in counts]
        lengths = [n * h for n, h in zip(counts, cells)]
        mask = np.ones(counts, dtype=bool)
        resolutions = st.integers(1, 6)
    else:
        counts = [draw(st.sampled_from([2, 4, 6] if kind == "l-shape" else [4]))]
        cells, lengths = [1.0 / counts[0]], [1.0]
        generator = fem.l_shape_mesh if kind == "l-shape" else fem.square_ring_mesh
        mask = generator(counts[0]).lattice.mask
        resolutions = st.sampled_from([2, 4, 6] if kind == "l-shape" else [4])
    sweep = draw(st.lists(resolutions, min_size=1, max_size=2))
    if kind == "box":
        sizes = [f"mesh.lengths = {' '.join(map(repr, lengths))}"]
    else:
        sizes = [f"{key} = {length!r}"
                 for key, length in zip(cli._MESH_SIZES.get(kind, ()), lengths)]
    lines = [f"pipeline = {pipeline}", f"mesh.kind = {kind}",
             f"mesh.dirichlet = {_CLAMPED_SIDE[kind]}", *sizes,
             *(f"{key} = {n}" for key, n in zip(cli._MESH_COUNTS[kind], counts)),
             f"rigidity.resolutions = {' '.join(map(str, sweep))}"]
    return kind, pipeline, lines, len(set(cells)) == 1, len(set(lengths)) == 1, mask


@settings(max_examples=60, deadline=None)
@given(scenario=_lattice_scenarios())
def test_validate_takes_a_lattice_pipeline_exactly_where_the_mesh_carries_a_lattice(scenario):
    # the mesh decides: validate passes when the scenario mesh (for the
    # rigidity diagnostics, every sweep mesh) has cells of one side and, for
    # a certificate, its lattice has a finite J2; a rejection names a key
    # that the mesh kind reads
    kind, pipeline, lines, cube_cells, cube_domain, mask = scenario
    if pipeline == "diagnostics-rigidity":
        ok = cube_domain
    else:
        ok = cube_cells and (not pipeline.startswith("certify-")
                             or np.isfinite(harmonic.oscillation_constant(mask)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), "a.cfg", "\n".join(["name = demo", *lines]) + "\n")
        try:
            cli.validate_scenario(cli.load_scenario(cfg))
            key = None
        except errors.ConfigError as exc:
            key = str(exc).split(" ", 1)[0].rstrip(":")
    assert (key is None) == ok, (lines, key)
    if key is not None:
        assert key in (*cli._MESH_COUNTS[kind], *cli._MESH_SIZES.get(kind, ())), (lines, key)


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


def test_unconverged_solve_reports_fail_with_its_newton_history(tmp_path, capsys,
                                                               monkeypatch):
    # one Newton step cannot bring the loaded ring to tol: the solve
    # pipeline reports fail, while a certify pipeline still stops on the
    # unconverged solve and writes nothing
    monkeypatch.setattr(fem, "NEWTON_MAX_ITER", 1)
    cfg = _write(tmp_path, "ring.cfg", """
        name = ring
        pipeline = solve
        mesh.kind = ring
        material.model = stvk
        loads.body = 0.3 -0.2
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "ring: fail"
    doc = json.loads((out / "ring.json").read_text())
    assert doc["outcome"] == "fail"
    newton = doc["newton"]
    assert newton["converged"] is False and newton["iterations"] == 1
    assert len(newton["residual_history"]) == len(newton["energy_history"]) == 2
    assert doc["measurements"]["residual_sup"] == newton["residual_history"][-1] > 1e-10
    assert doc["measurements"]["iterations"] == 1
    rows = (out / "ring.newton.csv").read_text().splitlines()
    assert rows[0] == "iteration,residual_sup" and len(rows) == 3

    cfg = _stretch_config(tmp_path, "certify-bmo-gate", extra="loads.body = 0.5 0.0")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "certify")]) == 1
    assert "error: MaxIterations: Newton did not reach tol" in capsys.readouterr().err
    assert not (tmp_path / "certify").exists()


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


def test_run_bmo_gate_neo_hookean(tmp_path):
    cfg = _write(tmp_path, "nh.cfg", """
        name = nh
        pipeline = certify-bmo-gate
        mesh.nx = 6
        mesh.ny = 6
        material.model = neo-hookean
        material.lambda = 1.5
        material.mu = 1.0
        loads.dirichlet = affine
        loads.matrix = 1.05 0.0 0.0 1.0
        certify.candidates = 2
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "nh.json").read_text())
    assert doc["provenance"]["material"] == {"model": "neo-hookean", "lambda": 1.5, "mu": 1.0}
    assert doc["outcome"] == "pass"
    assert [e["transfer"]["outcome"] for e in doc["candidates"]] == ["pass"] * 2


def test_bmo_gate_certificate_is_the_cli_report(tmp_path):
    # the library builds the certify-bmo-gate certificate; the CLI adds
    # its name, pipeline and config keys and writes the bytes
    from rigidity_cert import certify, fem, reporting

    cfg = _stretch_config(tmp_path, "certify-bmo-gate", candidates=3)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    sc = cli.load_scenario(cfg)
    mesh, _ = cli.validate_scenario(sc)
    m = cli.build_material(sc)
    loads, u0 = cli.build_loads(sc, mesh)
    u_e, _ = fem.solve_equilibrium(m, mesh, loads, u0)
    inputs = certify.certification_inputs(certify.Problem(sc["name"], m, mesh, loads), u_e)
    cands = certify.gated_perturbations(inputs, count=3, seed=1)
    cert = certify.bmo_gate_certificate(cands, inputs)
    cert.extra.update(name=sc["name"], pipeline=sc["pipeline"], seed=sc["seed"],
                      config=dict(sc["__raw__"]))
    assert reporting.json_bytes(cert.to_dict()) == (out / "stretch.json").read_bytes()


def test_bmo_gate_with_no_candidates_fails_a_non_coercive_equilibrium(tmp_path, capsys):
    # a 40% compression leaves the second variation indefinite; with no
    # candidate to gate, the certificate used to report pass
    cfg = _write(tmp_path, "a.cfg", """
        name = compressed
        pipeline = certify-bmo-gate
        mesh.nx = 12
        mesh.ny = 12
        loads.dirichlet = affine
        loads.matrix = 0.6 0 0 1
        certify.candidates = 0
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "compressed: fail"
    doc = json.loads((out / "compressed.json").read_text())
    assert doc["outcome"] == "fail" and doc["candidates"] == []
    assert doc["constants"]["lambda_min"] < 0.0 and doc["constants"]["delta_star"] == 0.0


def test_run_strain_diff(tmp_path):
    cfg = _stretch_config(tmp_path, "certify-strain-diff")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "stretch.json").read_text())
    assert doc["configuration"] == "deformed"
    assert doc["outcome"] == "pass"
    assert (out / "stretch.strain_candidates.csv").exists()


@pytest.mark.parametrize(
    "pipeline", ["certify-bmo-gate", "certify-small-strain", "certify-strain-diff"]
)
def test_certify_pipelines_neither_fit_nor_check_j2(tmp_path, monkeypatch, pipeline):
    # J2 is proved from the lattice, so no certificate fits it on a family
    # or checks a candidate against it
    from rigidity_cert import harmonic

    def refuse(*args, **kwargs):
        raise AssertionError("a certify pipeline fitted or checked J2")

    for name in ("fit_interpolation_constant", "verify_interpolation"):
        monkeypatch.setattr(harmonic, name, refuse)
    cfg = _stretch_config(tmp_path, pipeline, extra="certify.restarts = 1")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "stretch.json").read_text())
    assert doc["constants"]["J2"] == harmonic.interpolation_bound(np.ones((6, 6), bool), 2, 3)
    assert "j2_family" not in doc["provenance"]
    assert "rh_cover" not in json.dumps(doc)


@pytest.mark.parametrize("matrix", ["0.9 0.0 0.0 1.0", "0.95 0.0 0.0 1.0"])
def test_restarts_start_from_the_solves_start(tmp_path, matrix):
    # under compression the reference nodes with only the Dirichlet nodes
    # moved invert the boundary cells (0.9) or start Newton where it does
    # not converge (0.95); the affine extension the solve starts from
    # does neither
    cfg = _write(tmp_path, "a.cfg", f"""
        name = squeeze
        pipeline = certify-small-strain
        seed = 1
        mesh.nx = 12
        mesh.ny = 12
        material.model = stvk
        loads.dirichlet = affine
        loads.matrix = {matrix}
        certify.candidates = 4
        certify.restarts = 3
    """)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "squeeze.json").read_text())
    assert doc["multistart"]["pass"]
    assert doc["multistart"]["iterations"] == [4, 4, 4]


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


def test_diagnostics_harmonic_j2_is_the_certificate_j2(tmp_path):
    # the diagnostics report the certificate's J2, the bound proved from
    # the lattice, beside the J2 they fit on their family, which it covers
    from rigidity_cert import certify, fem, material

    cfg = _write(tmp_path, "a.cfg", """
        name = harm
        pipeline = diagnostics-harmonic
        seed = 4
        mesh.nx = 6
        mesh.ny = 6
        harmonic.count = 2
    """)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "harm.json").read_text())
    mesh = fem.rectangle_mesh(6, 6)
    loads = fem.LoadSet.build(mesh, dirichlet=lambda x: x)
    problem = certify.Problem("identity", material.stvk(1.0, 1.0), mesh, loads)
    inputs = certify.certification_inputs(problem, fem.FeField.identity(mesh))
    assert doc["measurements"]["J2_bound"] == inputs.J2
    assert doc["measurements"]["J2"] <= doc["measurements"]["J2_bound"]
    assert "j2_family" not in inputs.provenance


def test_diagnostics_harmonic_fits_each_field_once(tmp_path, monkeypatch):
    # one fit over the family's 8 fields, reported as J2
    from rigidity_cert import certify, fem, harmonic

    fitted = []
    original = harmonic.fit_interpolation_constant

    def fit(fields, p, q):
        fitted.append(len(fields))
        return original(fields, p, q)

    monkeypatch.setattr(harmonic, "fit_interpolation_constant", fit)
    cfg = _write(tmp_path, "a.cfg", """
        name = harm
        pipeline = diagnostics-harmonic
        seed = 4
        mesh.nx = 6
        mesh.ny = 6
        harmonic.count = 2
    """)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert fitted == [8]
    doc = json.loads((tmp_path / "out" / "harm.json").read_text())
    fields, _ = certify.j2_family(fem.rectangle_mesh(6, 6), 2, 4)
    assert doc["measurements"]["J2"] == original(fields, 2.0, 3.0)
    assert "J2_doubled_family" not in doc["measurements"]


def test_diagnostics_harmonic_checks_the_fields_against_the_proved_j2(tmp_path,
                                                                       monkeypatch):
    # a bound below the fitted J2 fails some field, so the check reads the
    # proof, not the fit on the same fields
    from rigidity_cert import harmonic

    cfg = _write(tmp_path, "a.cfg", """
        name = harm
        pipeline = diagnostics-harmonic
        mesh.nx = 8
        mesh.ny = 8
        harmonic.count = 3
    """)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    J2 = json.loads((tmp_path / "out" / "harm.json").read_text())["measurements"]["J2"]
    monkeypatch.setattr(harmonic, "interpolation_bound", lambda mask, p, q: 0.99 * J2)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "low")]) == 1
    doc = json.loads((tmp_path / "low" / "harm.json").read_text())
    assert doc["outcome"] == "fail" and doc["measurements"]["J2_bound"] == 0.99 * J2
    rows = (tmp_path / "low" / "harm.fields.csv").read_text().splitlines()[1:]
    assert any(row.endswith(",false") for row in rows)


@pytest.mark.parametrize("kind, lines", [
    ("l-shape", "mesh.n = 8"),
    ("ring", "mesh.n = 8"),
    ("box", "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4"),
], ids=["l-shape", "ring", "box"])
def test_diagnostics_harmonic_fields_pass_the_proved_j2(tmp_path, kind, lines):
    # every field meets the proved bound on an L-shape and a ring, whose
    # bound walks the overlaps of their maximal squares, and on a box
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"name = harm\npipeline = diagnostics-harmonic\nmesh.kind = {kind}\n"
                   f"{lines}\nharmonic.count = 3\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "harm.json").read_text())
    assert doc["outcome"] == "pass"
    assert doc["measurements"]["J2"] <= doc["measurements"]["J2_bound"]
    rows = (tmp_path / "out" / "harm.fields.csv").read_text().splitlines()
    assert rows[0].endswith(",interpolation_ok") and len(rows) > 1
    assert all(row.endswith(",true") for row in rows[1:])


def test_diagnostics_harmonic_reports_each_bmo_seminorm_once(tmp_path):
    # one column holds the BMO seminorm of each field of the 8-cell L-shape
    from rigidity_cert import certify, fem, harmonic

    cfg = tmp_path / "a.cfg"
    cfg.write_text("name = harm\npipeline = diagnostics-harmonic\nmesh.kind = l-shape\n"
                   "mesh.n = 8\nharmonic.count = 3\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = [row.split(",") for row in
            (tmp_path / "out" / "harm.fields.csv").read_text().splitlines()]
    assert rows[0] == ["field", "bmo_seminorm", "maximal_sup", "pointwise_ok",
                       "interpolation_ok"]
    fields, _ = certify.j2_family(fem.l_shape_mesh(8), 3, 0)
    assert len(rows) == 1 + len(fields)
    for row, fld in zip(rows[1:], fields):
        assert float(row[1]) == harmonic.bmo_seminorm(fld)


def test_diagnostics_harmonic_takes_each_maximal_function_once_per_field(tmp_path,
                                                                         monkeypatch):
    # the CSV's sups come from verify_pointwise_bounds' own maximal fields
    from rigidity_cert import harmonic

    sharp_calls = _count_calls(monkeypatch, harmonic, "fs_sharp")
    maximal_calls = _count_calls(monkeypatch, harmonic, "hl_maximal")
    cfg = _write(tmp_path, "a.cfg", """
        name = harm
        pipeline = diagnostics-harmonic
        mesh.nx = 6
        mesh.ny = 6
        harmonic.count = 2
    """)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    fields = 2 * 2 * 2  # count families x dim^2 components
    assert sharp_calls == {"fs_sharp": fields}
    assert maximal_calls == {"hl_maximal": fields}


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


@pytest.mark.parametrize("pipeline", cli._LATTICE_PIPELINES)
def test_lattice_pipelines_run_on_a_box_of_cube_cells(tmp_path, pipeline):
    # a 4x4x4 box of cube cells carries a lattice, so every lattice pipeline
    # takes it, with the J2 proved from its mask, and a rerun writes the
    # same bytes
    cfg = _write(tmp_path, "a.cfg", f"""
        name = box
        pipeline = {pipeline}
        mesh.kind = box
        mesh.nx = 4
        mesh.ny = 4
        mesh.nz = 4
        loads.dirichlet = affine
        loads.matrix = 1.05 0 0 0 1 0 0 0 1
        certify.candidates = 2
        certify.restarts = 2
        harmonic.count = 2
        rigidity.resolutions = 3 4
    """)
    runs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert runs[0] == runs[1] and len(runs[0]) == 2
    doc = json.loads(runs[0]["box.json"])
    J2 = harmonic.interpolation_bound(np.ones((4, 4, 4), dtype=bool), *certify.J2_EXPONENTS)
    if pipeline.startswith("certify-"):
        assert doc["constants"]["J2"] == J2 == pytest.approx(2.3954, abs=1e-4)
    elif pipeline == "diagnostics-harmonic":
        assert doc["measurements"]["J2_bound"] == J2


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


def test_strain_diff_gates_each_candidate_once(tmp_path, monkeypatch):
    # gated_perturbations scales each of the 3 candidates by one BMO
    # seminorm, and each candidate's one gate, on the deformed
    # configuration, takes one more; a second gate on the reference
    # configuration made it 9
    from rigidity_cert import harmonic

    bmo_calls = _count_calls(monkeypatch, harmonic, "bmo_seminorm")
    cfg = _stretch_config(tmp_path, "certify-strain-diff", candidates=3)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert bmo_calls == {"bmo_seminorm": 6}
    doc = json.loads((tmp_path / "out" / "stretch.json").read_text())
    assert [e["gate"]["outcome"] for e in doc["candidates"]] == ["pass"] * 3


def test_a_run_validates_through_validate_scenario_once(tmp_path, monkeypatch):
    # run_scenario validates through the public validate_scenario, so a
    # wrapper on it sees the validation inside every run
    calls = _count_calls(monkeypatch, cli, "validate_scenario")
    cfg = _stretch_config(tmp_path, "solve")
    sc = cli.load_scenario(cfg)
    assert cli.run_scenario(sc, tmp_path / "out")[0] == "pass"
    assert calls == {"validate_scenario": 1}
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out2")]) == 0
    assert calls == {"validate_scenario": 2}


def test_solve_reports_the_solve_log_without_assembling_again(tmp_path, monkeypatch):
    # the solve pipeline reads the residual and the energy of u_e from the
    # last entries of the Newton log; nothing is assembled after the solve
    from rigidity_cert import fem

    events = []
    for name in ("residual", "total_energy", "solve_equilibrium"):
        original = getattr(fem, name)

        def logged(*args, name=name, original=original, **kwargs):
            out = original(*args, **kwargs)
            events.append(name)
            return out

        monkeypatch.setattr(fem, name, logged)
    cfg = _stretch_config(tmp_path, "solve")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert events.count("solve_equilibrium") == 1
    assert events[-1] == "solve_equilibrium" and len(events) > 1
    doc = json.loads((tmp_path / "out" / "stretch.json").read_text())
    assert doc["measurements"]["residual_sup"] == doc["newton"]["residual_history"][-1]
    assert doc["measurements"]["total_energy"] == doc["newton"]["energy_history"][-1]


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


def test_bmo_gate_takes_grad_u_e_once_whatever_the_candidate_count(tmp_path, monkeypatch):
    # the perturbations, the gates and the transfers read grad u_e from
    # CertInputs instead of taking it again for each candidate
    from rigidity_cert import certify, fem

    def state_key(u):
        return hashlib.sha256(getattr(u, "values", u).tobytes()).hexdigest()

    seen = []
    for candidates in (1, 3):
        with monkeypatch.context() as mp:
            states = _count_calls(mp, certify, "certification_inputs",
                                  key=lambda problem, u_e, *a, **k: state_key(u_e))
            grads = _count_calls(mp, fem, "gradient_field", key=lambda mesh, u: state_key(u))
            cfg = _stretch_config(tmp_path, "certify-bmo-gate", candidates=candidates)
            assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        (u_e,) = states
        seen.append(grads[u_e])
    assert seen == [1, 1]


def test_strain_diff_takes_grad_u_e_a_fixed_number_of_times(tmp_path, monkeypatch):
    # the strain-difference filter reads grad u_e from CertInputs and
    # measures its u_e side once per certificate, not per candidate: the
    # 6 are the solve's last state, whose residual and energy share one
    # grad u, the residual, energy, grad u_e and tangent of
    # certification_inputs, and the deformed mesh
    from rigidity_cert import certify, fem

    def state_key(mesh, u):
        return hashlib.sha256(mesh.nodes.tobytes() + getattr(u, "values", u).tobytes()).hexdigest()

    seen = []
    for candidates in (1, 3):
        with monkeypatch.context() as mp:
            states = _count_calls(mp, certify, "certification_inputs",
                                  key=lambda problem, u_e, *a, **k: state_key(problem.mesh, u_e))
            grads = _count_calls(mp, fem, "deformation_gradients", key=state_key)
            cfg = _stretch_config(tmp_path, "certify-strain-diff", candidates=candidates)
            assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        u_e, _ = states
        seen.append(grads[u_e])
    assert seen == [6, 6]


def test_small_strain_takes_grad_u_e_a_fixed_number_of_times(tmp_path, monkeypatch):
    # the strain bound of u_e reads C_e from CertInputs: the 5 are the
    # solve's last state, whose residual and energy share one grad u, and
    # the residual, energy, grad u_e and tangent of certification_inputs
    from rigidity_cert import certify, fem

    def state_key(mesh, u):
        return hashlib.sha256(mesh.nodes.tobytes() + getattr(u, "values", u).tobytes()).hexdigest()

    seen = []
    for candidates in (1, 3):
        with monkeypatch.context() as mp:
            states = _count_calls(mp, certify, "certification_inputs",
                                  key=lambda problem, u_e, *a, **k: state_key(problem.mesh, u_e))
            grads = _count_calls(mp, fem, "deformation_gradients", key=state_key)
            cfg = _stretch_config(tmp_path, "certify-small-strain", candidates=candidates)
            assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        (u_e,) = states
        seen.append(grads[u_e])
    assert seen == [5, 5]


@pytest.mark.parametrize("pipeline, extra, candidates, takes", [
    # kind of candidate -> takes of grad v on the meshes measured, as
    # (quadrature stacks, cell fields, BMO seminorms of grad v - grad u_e,
    # quadrature stacks of w = v - u_e)
    ("certify-bmo-gate", "", 2, {"pass": (3, 1, 1, 2)}),
    ("certify-small-strain", "", 2, {"pass": (2, 1, 1, 2)}),
    ("certify-small-strain", "certify.frac = 58", 3,
     {"inapplicable": (1, 1, 1, 1), "rejected": (1, 0, 0, 0)}),
    ("certify-strain-diff", "certify.strain_eps = 0.0011", 3,
     {"pass": (3, 1, 1, 2), "rejected": (1, 0, 0, 0)}),
])
def test_each_candidate_takes_grad_v_a_fixed_number_of_times(tmp_path, monkeypatch, pipeline,
                                                             extra, candidates, takes):
    # one certify.Candidate per candidate, on the mesh it is gated on: the
    # strain filter, the gate and the transfer share its grad v, and a
    # candidate that the strain filter rejects takes no cell field and no
    # BMO seminorm.  The mean gap and |grad w|^2, which the gate and the
    # transfer share, take the stack of w.  What stays: the gate's energy
    # and the transfer's tangent take the stack, and strain_diff_to_dist
    # the stack.  Takes are summed over the configurations that
    # certification_inputs measured: strain-diff gates on the deformed one
    # alone
    from rigidity_cert import certify, fem, harmonic

    def state_key(mesh, u):
        return hashlib.sha256(mesh.nodes.tobytes() + getattr(u, "values", u).tobytes()).hexdigest()

    made = []
    perturbations = certify.gated_perturbations

    def gated(inputs, *args, **kwargs):
        cands = perturbations(inputs, *args, **kwargs)
        made.append((inputs, cands))
        return cands

    monkeypatch.setattr(certify, "gated_perturbations", gated)
    measured = []
    certification_inputs = certify.certification_inputs

    def measure(*args, **kwargs):
        measured.append(certification_inputs(*args, **kwargs))
        return measured[-1]

    monkeypatch.setattr(certify, "certification_inputs", measure)
    stacks = _count_calls(monkeypatch, fem, "deformation_gradients", key=state_key)
    cells = _count_calls(monkeypatch, fem, "gradient_field", key=state_key)
    bmos = _count_calls(monkeypatch, harmonic, "bmo_seminorm",
                        key=lambda fld: hashlib.sha256(fld.values.tobytes()).hexdigest())
    cfg = _stretch_config(tmp_path, pipeline, candidates=candidates,
                          extra=extra + "\ncertify.restarts = 2")
    code = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    monkeypatch.undo()
    assert code == (0 if set(takes) == {"pass"} else 2)
    entries = json.loads((tmp_path / "out" / "stretch.json").read_text())["candidates"]
    ((inputs, cands),) = made
    assert measured[0] is inputs
    assert len(measured) == (2 if pipeline == "certify-strain-diff" else 1)
    assert len(entries) == len(cands) == candidates
    seen = {}
    for entry, v in zip(entries, cands):
        rejected = entry.get("reason") in ("candidate strain bound", "strain-difference bound")
        kind = "rejected" if rejected else entry["outcome"]
        count = (0, 0, 0, 0)
        for config in measured:
            mesh, gu = config.problem.mesh, config.gradient_field
            diff = hashlib.sha256((fem.gradient_field(mesh, v.values).values - gu.values).tobytes())
            takes_here = (stacks.get(state_key(mesh, v), 0), cells.get(state_key(mesh, v), 0),
                          bmos.get(diff.hexdigest(), 0),
                          stacks.get(state_key(mesh, v.values - config.u_e.values), 0))
            count = tuple(a + b for a, b in zip(count, takes_here))
        assert seen.setdefault(kind, count) == count
    assert seen == takes


def test_strain_diff_candidates_beyond_the_gate_thresholds_are_inapplicable(tmp_path):
    # the 6x6 regress strain-diff config with 3 candidates at 1.5
    # delta_star: each passes the strain-difference bound, and the gate
    # finds it outside its thresholds
    cfg = _write(tmp_path, "gate.cfg", """
        name = gate-certify-strain-diff
        pipeline = certify-strain-diff
        seed = 0
        mesh.nx = 6
        mesh.ny = 6
        material.model = stvk
        loads.dirichlet = affine
        loads.matrix = 1.05 0.0 0.0 1.0
        certify.candidates = 3
        certify.restarts = 2
        harmonic.count = 3
        rigidity.resolutions = 6 12
        korn.resolutions = 4 8
        certify.frac = 1.5
    """)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    doc = json.loads((tmp_path / "out" / "gate-certify-strain-diff.json").read_text())
    assert doc["outcome"] == "inapplicable"
    assert len(doc["candidates"]) == 3
    for entry in doc["candidates"]:
        assert entry["outcome"] == "inapplicable" and "reason" not in entry
        assert entry["strain_diff_sup"] < entry["strain_bound"]
        assert entry["gate"]["outcome"] == "inapplicable"
        assert not entry["gate"]["measurements"]["bmo_seminorm"]["pass"]
        assert entry["energy_excess"] is None


@pytest.mark.parametrize("candidates", [0, 2])
@pytest.mark.parametrize(
    "pipeline", ["certify-bmo-gate", "certify-small-strain", "certify-strain-diff"]
)
def test_certify_pipelines_refuse_a_non_equilibrium(tmp_path, capsys, monkeypatch, pipeline,
                                                     candidates):
    # a loose Newton tolerance stops Newton at residual 1.4e-2; with no
    # candidate to gate, certify-bmo-gate used to report pass
    monkeypatch.setattr(fem, "NEWTON_TOL", 0.1)
    cfg = _stretch_config(tmp_path, pipeline, candidates=candidates,
                          extra="loads.body = 0.5 0.0")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert ("error: NotEquilibrium: u_e is not an equilibrium: residual 1.389e-02 exceeds 1e-08"
            in err)
    assert not (tmp_path / "out").exists()


def test_strain_diff_bounds_every_quadrature_point_at_once(tmp_path, monkeypatch):
    # the deformed Taylor constants are the base material's closed forms
    # through the forward gradient of every quadrature point, in one call
    # on arrays; no material is evaluated at a frozen point
    from rigidity_cert import material, pushforward

    bounds = []
    real = material.StVenantKirchhoff.taylor_bounds

    def recorded(self, n, rho, epsilon, s_max=1.0, det=1.0):
        bounds.append(np.shape(det))
        return real(self, n, rho, epsilon, s_max, det)

    monkeypatch.setattr(material.StVenantKirchhoff, "taylor_bounds", recorded)
    elasticity = pushforward._ChainRule.elasticity_many
    frozen = []

    def counted(self, F):
        if len(self._det) == 1:
            frozen.append(len(F))
        return elasticity(self, F)

    monkeypatch.setattr(pushforward._ChainRule, "elasticity_many", counted)
    cfg = _stretch_config(tmp_path, "certify-strain-diff")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    # the reference material, then the 6x6 mesh's 144 quadrature points
    assert bounds == [(), (144,)]
    assert frozen == []
