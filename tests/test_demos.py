"""The demo scripts: every name they import from crdiff exists, and the
bracket demo runs to completion.  The README's library table names only
what its modules hold."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def _crdiff_imports(path):
    """(module, name) for each name a script imports from the crdiff package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "crdiff":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "crdiff":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(_crdiff_imports(path))
    assert imports, f"{path.name} imports nothing from crdiff"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no name {name!r}"


def test_bracket_demo_runs(capsys):
    runpy.run_path(str(DEMO_DIR / "06_bracket_conditions.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "dt: witness (1,1*), value 0.000-2.000j" in out
    assert "theta: no witness up to order 4" in out


def _library_table():
    """(module, [names]) for each row of the README "Library layout" table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 2 and cells[1].strip().startswith("`crdiff."):
            yield cells[1].strip().strip("`"), re.findall(r"`([^`]+)`", cells[2])


def test_readme_library_table_resolves():
    rows = list(_library_table())
    assert len(rows) >= 7
    for module, names in rows:
        mod = importlib.import_module(module)
        assert names, f"README row {module} names nothing"
        for name in names:
            assert hasattr(mod, name), f"README: {module} has no name {name!r}"
