"""Every script in ``demos/`` compiles, and every name it imports from
reconbench exists.  The demos themselves are not run here: each takes
from half a second to half a minute."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _resolves(module: str, name: str) -> bool:
    """True when ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_compiles_and_its_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "reconbench":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reconbench":
            missing += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not _resolves(node.module, alias.name)
            ]
    assert not missing, f"{path.name} imports names reconbench lacks: {missing}"
