"""Every import in the package's modules is used.

No linter is part of this project's toolchain, so this stands in for one
rule of it: a name a module imports must be read somewhere in that module.
An import kept on purpose, for code outside the module that looks the name
up there, says so with ``# noqa: F401`` on its line.  ``__init__.py``
imports to re-export and is left out.
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
