"""The package imports nothing outside the standard library."""

import ast
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
