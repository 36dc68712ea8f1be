"""The configs of the reports byte guard, tests/reports/compare.sh."""
from pathlib import Path

import pytest

from rigidity_cert import cli, fem

_CONFIGS = sorted((Path(__file__).parent / "reports").glob("*.cfg"))


@pytest.mark.parametrize("path", _CONFIGS, ids=lambda path: path.stem)
def test_reports_config_validates(path, tmp_path, monkeypatch, capsys):
    # compare.sh runs each config from a directory that holds the mesh
    # file-solve reads; each report is named after its config's file
    monkeypatch.chdir(tmp_path)
    fem.write_mesh(fem.rectangle_mesh(4, 3, dirichlet=("left",)), "rect-4x3-left.mesh")
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"{path.stem}: config ok")
