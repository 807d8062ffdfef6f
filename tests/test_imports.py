"""Static checks on the library source, with the standard library's ast only."""

import ast
from pathlib import Path

import pytest

import tripencil

MODULES = sorted(p for p in Path(tripencil.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nprint(path.join(sep))\n"
    assert unused_imports(source) == ["math (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes of a package that no module of it reads or imports.

    sources maps file names to source text.  A definition counts as read where
    its name is loaded, is the attribute of a load, or is imported by name
    (the package's ``__init__`` imports what it exports; an import no module
    reads is test_no_unused_imports' finding).
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [f"{name}: {node.name} (line {node.lineno})" for name, tree in trees.items()
            for node in tree.body if isinstance(node, kinds) and node.name not in read]


def test_unread_definitions_are_found():
    sources = {"__init__.py": "from .a import f\n",
               "a.py": "def f():\n    return g()\ndef g(): pass\ndef h(): pass\nclass C: pass\nclass D: pass\nx: D\n",
               "b.py": "from . import a\na.C\n"}
    assert unread_definitions(sources) == ["a.py: h (line 4)"]


def test_no_unread_definitions():
    package = Path(tripencil.__file__).parent
    assert unread_definitions({p.name: p.read_text() for p in sorted(package.glob("*.py"))}) == []
