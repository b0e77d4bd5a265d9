"""numpy is the library's only runtime dependency: every module under
``src/pinv_minres`` imports only the standard library, numpy and the
package itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pinv_minres"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pinv_minres"}


def _imports(path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


MODULES = sorted(SRC.glob("*.py"))


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    extra = sorted(set(_imports(path)) - ALLOWED)
    assert not extra, f"{path.name} imports {extra}"
