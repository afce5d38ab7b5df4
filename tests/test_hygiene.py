"""Every name a sdnsched module imports is used in it or exported
through its `__all__`, so a deletion cannot leave an import behind."""

import ast
from pathlib import Path

import pytest

import sdnsched

PACKAGE = Path(sdnsched.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind (`from __future__` excepted)
    that no expression reads and `__all__` does not list."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_caught():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c"
                          "\n__all__ = ['c']\nos.getcwd()\n") == ["math"]
