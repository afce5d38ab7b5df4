"""Every name a sdnsched module imports is used in it or exported
through its `__all__`, so a deletion cannot leave an import behind; no
module but reference.py itself imports sdnsched.reference, so the
specification stays off every command's path, and reference.py imports
nothing from the engine or metrics code it specifies; and every module
has a docstring and one row of the README's package-layout table, which
names no other module."""

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


def imports_reference(source: str) -> bool:
    """Whether the module imports sdnsched.reference, or a name from it,
    in any spelling: relative or absolute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "sdnsched.reference" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("reference", "sdnsched.reference") or (
                    node.module in (None, "sdnsched")
                    and any(a.name == "reference" for a in node.names)):
                return True
    return False


def test_reference_imported_by_no_module():
    assert [path.name for path in MODULES if path.name != "reference.py"
            and imports_reference(path.read_text())] == []


def test_reference_import_caught():
    for text in ("from .reference import QueueState",
                 "from . import reference", "import sdnsched.reference",
                 "from sdnsched.reference import row_record",
                 "from sdnsched import reference as spec"):
        assert imports_reference(text), text
    assert not imports_reference("from .metrics import format_ratio\n"
                                 "from .model import LOCAL")


def imports_engine_or_metrics(source: str) -> bool:
    """Whether the module imports sdnsched.engine or sdnsched.metrics, or
    a name from either, in any spelling: relative or absolute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{a.name}" for a in node.names]
    return any({"engine", "metrics"} & set(name.split("."))
               for name in names)


def test_reference_imports_no_code_it_specifies():
    # the specification computes from definitions, so a test of the
    # engine or metrics against it never compares code with itself
    assert not imports_engine_or_metrics(
        (PACKAGE / "reference.py").read_text())


def test_engine_or_metrics_import_caught():
    for text in ("from .metrics import scaled_variance",
                 "from . import engine", "import sdnsched.metrics",
                 "from sdnsched.engine import LaneGroup"):
        assert imports_engine_or_metrics(text), text
    assert not imports_engine_or_metrics("from .model import LOCAL\n"
                                         "from .traffic import EmpiricalCdf")


def readme_layout_modules() -> list[str]:
    """The module each row of the README's package-layout table names."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in table.splitlines()
            if line.startswith("| `")]


def test_every_module_documented_and_mapped():
    names = {("sdnsched" if path.stem == "__init__"
              else f"sdnsched.{path.stem}"): path for path in MODULES}
    assert [name for name, path in names.items()
            if not ast.get_docstring(ast.parse(path.read_text()))] == []
    rows = readme_layout_modules()
    assert sorted(rows) == sorted(names)
