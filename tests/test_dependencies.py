"""The runtime dependencies in pyproject.toml are exactly the third-party
modules that the package imports, function-local imports included."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_dependencies_are_the_third_party_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project["dependencies"]
    }
    imported = {
        name
        for path in (ROOT / "src" / "ambc_fbl").glob("*.py")
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names and name != "ambc_fbl"
    }
    assert imported == declared
