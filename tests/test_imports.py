"""Static checks on the library source, with the standard library's ast only, and what importing it loads."""

import ast
import json
import os
import subprocess
import sys
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


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class, or constants (dunders aside).

    An annotation without a value binds nothing.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and not (name.id.startswith("__") and name.id.endswith("__"))]


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants of a package that no module of it reads or imports.

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
    return [f"{name}: {defined} (line {node.lineno})" for name, tree in trees.items()
            for node in tree.body for defined in _defined_names(node) if defined not in read]


def test_unread_definitions_are_found():
    sources = {"__init__.py": "from .a import f\n",
               "a.py": "def f():\n    return g()\ndef g(): pass\ndef h(): pass\nclass C: pass\nclass D: pass\nx: D\n",
               "b.py": "from . import a\na.C\n",
               "c.py": "__version__ = '1'\nTOL = 1e-8\n_LO, _HI = 0, 1\nLIMIT: int = 3\nRATE: float\nprint(_LO)\n"}
    assert unread_definitions(sources) == ["a.py: h (line 4)", "c.py: TOL (line 2)", "c.py: _HI (line 3)",
                                           "c.py: LIMIT (line 4)"]


def test_no_unread_definitions():
    package = Path(tripencil.__file__).parent
    assert unread_definitions({p.name: p.read_text() for p in sorted(package.glob("*.py"))}) == []


def test_importing_the_package_loads_only_the_standard_library_and_numpy():
    """A fresh interpreter that imports tripencil and its CLI loads no other third-party module.

    Import time is most of a short run's setup, and one heavy import (scipy, say) would double it.
    What the interpreter loads before the import (site hooks) does not count.
    """
    script = ("import json, sys; before = set(sys.modules); import tripencil, tripencil.cli; "
              "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(Path(tripencil.__file__).parents[1]),
                                                                     os.environ.get("PYTHONPATH")))))
    loaded = json.loads(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                                       check=True).stdout)
    assert {"numpy", "tripencil"} <= set(loaded)
    assert [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "tripencil")] == []
