"""Every import in the package's modules is used, and so is every private name.

No linter is part of this project's toolchain, so this stands in for two
rules of one: a name a module imports must be read somewhere in that
module, and a private name the package defines (a module-level function,
class or assignment, or a method, whose name starts with an underscore
and is no dunder) must be read somewhere in the package, so a helper
nothing calls is deleted.
An import kept on purpose, for code outside the module that looks the name
up there, says so with ``# noqa: F401`` on its line.  ``__init__.py``
imports to re-export and is left out of the import rule.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "headtail"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imports(path: Path) -> list[tuple[str, int, bool]]:
    """(bound name, line, marked ``noqa: F401``) of each name ``path`` imports."""
    lines = path.read_text(encoding="utf-8").splitlines()
    found = []
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((name, alias.lineno, "# noqa: F401" in lines[alias.lineno - 1]))
    return found


def names_read(path: Path) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Name)}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each private module-level name and private method ``path`` defines."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f.lineno) for f in node.body if isinstance(f, ast.FunctionDef)]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(name, line) for name, line in found if _private(name)]


def private_names_read(paths: list[Path]) -> set[str]:
    """Every name and attribute the ``paths`` read (not the ones they only assign)."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {name for name in read if _private(name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    read = names_read(path)
    unused = [f"{path.name}:{line}: {name}" for name, line, kept in imports(path) if not kept and name not in read]
    assert not unused


def test_the_kept_imports_are_the_ones_the_benchmark_tracer_wraps():
    kept = {(path.stem, name) for path in MODULES for name, _, marked in imports(path) if marked}
    assert kept == {("harness", "discard_dataset"), ("strategies", "reward")}


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import functools\nfrom typing import Iterator, Any\n\nx: Any = 1\n")
    read = names_read(module)
    assert [name for name, _, _ in imports(module) if name not in read] == ["functools", "Iterator"]


def test_every_private_name_is_read():
    paths = sorted(PACKAGE.glob("*.py"))
    read = private_names_read(paths)
    defined = [(path.name, name, line) for path in paths for name, line in private_definitions(path)]
    assert ("harness.py", "_read_columns") in {(module, name) for module, name, _ in defined}
    assert [f"{module}:{line}: {name}" for module, name, line in defined if name not in read] == []


def test_an_unread_private_name_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "_USED, _SET = 1, 2\n_spare: int = 3\n\n\ndef _helper():\n    return _USED\n\n\n"
        "class _Kept:\n    def __init__(self):\n        self._set = _helper()\n\n    def _unused(self):\n"
        "        return self._set\n\n\n_Kept()\n"
    )
    read = private_names_read([module])
    assert [name for name, _ in private_definitions(module) if name not in read] == ["_SET", "_spare", "_unused"]
