"""Each cipanova module uses only the public names of the others."""

import ast
from pathlib import Path

import cipanova

PACKAGE = Path(cipanova.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path: Path) -> list[str]:
    """Private names that the module at path takes from another cipanova module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()  # local names bound to cipanova modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "cipanova"
            if not ours:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module in (None, "cipanova"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cipanova":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [use for path in paths for use in _private_uses(path)]
    assert found == []


def test_the_check_sees_each_form_of_private_use(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .constraints import ConstraintModel, _weak_components\n"
                    "from cipanova.posterior import _lobatto_rule as rule\n"
                    "from . import evidence\n"
                    "import cipanova.gaussian\n"
                    "from numpy import _private_numpy_name\n"
                    "x = evidence._eta_mode, evidence.__name__, cipanova.gaussian.LOG_2PI\n")
    assert _private_uses(path) == ["mod.py:1 imports _weak_components",
                                   "mod.py:2 imports _lobatto_rule",
                                   "mod.py:6 reads evidence._eta_mode"]
