"""Each cipanova module uses only the public names of the others."""

import ast
import re
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


ROOT = PACKAGE.parent.parent
# public top-level names of src/cipanova that nothing outside their own
# definition uses; each entry is dead code waiting for its removal
UNREFERENCED_ALLOWED: set[str] = set()


def _defined_names(tree: ast.Module, private: bool = False) -> dict[str, ast.stmt]:
    """The public (or private) names a module defines at its top level, with their statements."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                       if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, node) for name in targets
                   if (_is_private(name) if private else not name.startswith("_")))
    return out


def _used_names(tree: ast.Module, skip: ast.stmt | None = None) -> set[str]:
    """Names a module reads, imports or reaches as attributes, outside the statement skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def _unreferenced(package: Path, elsewhere: list[Path], texts: list[str],
                  private: bool = False) -> list[str]:
    """module.name for each public (or private) top-level name of the package that nothing uses.

    A use is a name, attribute or import in another module of the package or
    in the elsewhere files, one in its own module outside its defining
    statement, or the name as a word in one of the texts.
    """
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    outside = set().union(*(_used_names(ast.parse(p.read_text(encoding="utf-8")))
                            for p in elsewhere))
    found = []
    for path, tree in trees.items():
        others = set().union(*(_used_names(t) for p, t in trees.items() if p != path))
        for name, node in _defined_names(tree, private).items():
            if name in others | outside | _used_names(tree, skip=node):
                continue
            if any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts):
                continue
            found.append(f"{path.stem}.{name}")
    return found


def test_every_public_name_is_used_outside_its_definition():
    perfbench = sorted((ROOT / "perfbench").rglob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert set(_unreferenced(PACKAGE, perfbench, [readme])) == UNREFERENCED_ALLOWED


def test_the_dead_code_check_sees_an_unused_name(tmp_path):
    (tmp_path / "mod.py").write_text("LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
                                     "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                                     "def documented():\n    pass\n\n\nclass Kept:\n    pass\n")
    (tmp_path / "other.py").write_text("from .mod import used\n")
    script = tmp_path / "script.py"
    script.write_text("import mod\nmod.Kept()\n")
    assert _unreferenced(tmp_path, [script], ["call `documented()`"]) == ["mod.recursive"]


def test_every_private_name_is_read_in_the_package():
    # tests do not count: a helper only a test reads has outlived its last caller
    assert _unreferenced(PACKAGE, [], [], private=True) == []


def test_the_dead_code_check_sees_an_unused_private_helper(tmp_path):
    (tmp_path / "mod.py").write_text("_LIMIT = 3\n\n\ndef run():\n    return _used(_LIMIT)\n\n\n"
                                     "def _used(n):\n    return n\n\n\n"
                                     "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
                                     "def _dead():\n    pass\n\n\n__all__ = ['run']\n")
    assert _unreferenced(tmp_path, [], [], private=True) == ["mod._recursive", "mod._dead"]
