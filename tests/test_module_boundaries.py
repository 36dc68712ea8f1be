"""No package module reaches into another package module's private names
or imports a module of a higher layer, and each module's __all__ names only
what it defines."""
import ast
import importlib
from pathlib import Path

import rigidity_cert

PACKAGE = Path(rigidity_cert.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_access(path: Path) -> list:
    """(line, text) of each `module._name` read of a package module bound by
    `from . import module`, and of each `from .module import _name`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"from .{node.module} import {alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_cross_module_private_access():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    offences = {
        path.name: hits for path in sources if (hits := _cross_module_private_access(path))
    }
    assert offences == {}


def test_the_check_sees_private_access(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import fem\nfrom .certify import _fold\nx = fem._ctx(1)\ny = fem.ok\n")
    assert _cross_module_private_access(path) == [
        (2, "from .certify import _fold"), (3, "fem._ctx"),
    ]


def test_every_name_in_all_exists():
    # a stale entry would make `from rigidity_cert.<module> import *` fail
    modules = [importlib.import_module(f"rigidity_cert.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    exported = [module for module in modules if hasattr(module, "__all__")]
    assert len(exported) >= 8
    missing = {module.__name__: [name for name in module.__all__ if not hasattr(module, name)]
               for module in exported}
    assert {name: gone for name, gone in missing.items() if gone} == {}


# the package's layers, lowest first; errors, which every layer raises
# from, sits below them all
LAYERS = (
    ("errors",),
    ("tensor_core", "harmonic", "reporting"),
    ("material",),
    ("fem",),
    ("rigidity", "pushforward"),
    ("certify",),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _package_imports(path: Path) -> set:
    """The package modules that path imports, relatively or by the package
    name, at module level or inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rigidity_cert"):
            parts = node.module.split(".")
            if len(parts) > 1:
                found.add(parts[1])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("rigidity_cert."))
    return found


def test_no_module_imports_a_higher_layer():
    sources = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert set(sources) == set(RANK)
    upward = {
        name: sorted(m for m in _package_imports(path) if RANK[m] > RANK[name])
        for name, path in sources.items()
    }
    assert {name: hits for name, hits in upward.items() if hits} == {}


def test_the_layer_check_sees_every_import_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import fem, certify\nfrom .cli import main\n"
                    "import rigidity_cert.rigidity\n"
                    "def f():\n    from rigidity_cert import harmonic\n"
                    "    from rigidity_cert.reporting import json_bytes\n")
    assert _package_imports(path) == {"fem", "certify", "cli", "rigidity", "harmonic",
                                      "reporting"}
