"""The package imports nothing outside the standard library, each
module uses every name it imports, and the CLI imports no more than it
needs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "actionccg"


def absolute_imports(path):
    """Top-level module names that ``path`` imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_relative_or_standard_library(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nfrom . import terms\nimport numpy.linalg\n"
                    "from hypothesis import given\n", encoding="utf-8")
    assert sorted(set(absolute_imports(path)) - sys.stdlib_module_names) == [
        "hypothesis", "numpy"]


def unused_imports(path):
    """Names that ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\nimport os.path\n"
                    "import re\nfrom . import terms as t\n"
                    "from .terms import Var, Const\n"
                    "def f(x: Var) -> str:\n    return os.path.join(t.x)\n",
                    encoding="utf-8")
    assert unused_imports(path) == ["Const", "re"]


def cli_modules():
    """The modules loaded once ``import actionccg.cli`` has run."""
    # ``-S`` keeps the .pth hooks of site-packages from importing modules
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import actionccg.cli; print('\\n'.join(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code,
                           str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines())


def test_the_cli_module_does_not_load_importlib_resources():
    assert "importlib.resources" not in cli_modules()


def test_the_cli_module_loads_no_dataclasses_inspect_typing_or_random():
    # the value classes need neither ``dataclasses`` (which loads
    # ``inspect``) nor ``typing``, and only ``synthesize_corpus`` ``random``
    assert {"dataclasses", "inspect", "typing", "random"} & cli_modules() == set()


def test_no_module_imports_dataclasses():
    for path in PACKAGE.glob("*.py"):
        assert "dataclasses" not in set(absolute_imports(path)), path.name
