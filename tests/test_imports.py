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


def raising_functions(source: str, classes: set[str]) -> dict[str, list[str]]:
    """Each class of classes that a module raises, mapped to the functions whose bodies raise it, in source order.

    A raise counts for the innermost function that encloses it; one at module level counts for "<module>".
    """
    found: dict[str, list[str]] = {}

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in classes and function not in found.get(exc.id, []):
                    found.setdefault(exc.id, []).append(function)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_raising_functions_are_found():
    source = ("def f(x):\n    if x:\n        raise A(1)\n    raise B\n"
              "class C:\n    def g(self):\n        def h():\n            raise A(2)\n        raise A(3)\n"
              "raise A(4)\ndef k():\n    raise ValueError\n    raise A(5)\n")
    assert raising_functions(source, {"A", "B"}) == {"A": ["f", "h", "g", "<module>", "k"], "B": ["f"]}


def test_each_precondition_is_raised_by_one_guard():
    """SpectrumCollisionError and NonRealDiagonalError each have one function that raises them, and
    VanishingComponentError two: the v_0 test of the twisted eigenvector and the neighbour guard of both
    inverse routes.  Another raise site would be a second place that decides the same hypothesis."""
    classes = {name for name, value in vars(tripencil.errors).items()
               if isinstance(value, type) and issubclass(value, tripencil.MathPreconditionError)}
    raisers: dict[str, list[str]] = {}
    for module in MODULES:
        for name, functions in raising_functions(module.read_text(), classes).items():
            raisers.setdefault(name, []).extend(f"{module.stem}.{f}" for f in functions)
    assert raisers["SpectrumCollisionError"] == ["recurrence._check_margins"]
    assert raisers["NonRealDiagonalError"] == ["giep._real_part"]
    assert sorted(raisers["VanishingComponentError"]) == ["giep._check_component", "recurrence._twisted_eigenvector"]


def identifiers(source: str) -> set[str]:
    """Every name a module loads, binds, imports or reads as an attribute, parameters and keywords included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def real_point_tests(source: str) -> list[int]:
    """Lines that decide whether a number is real: an .imag compared with 0, or an .imag read as a truth value."""
    def is_imag(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "imag"

    def is_zero(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) in (int, float, complex) and node.value == 0

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_imag, operands)) and any(map(is_zero, operands)):
                lines.append(node.lineno)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)) and is_imag(node.test):
            lines.append(node.lineno)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and is_imag(node.operand):
            lines.append(node.lineno)
        elif isinstance(node, ast.BoolOp) and any(map(is_imag, node.values)):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_real_point_tests_are_found():
    source = ("if z.imag == 0:\n    pass\nx = a if w.imag else b\nok = not z.imag\nfine = abs(z.imag) > tol\n"
              "same = 0.0 != p.imag\nalso = z.real == 0\nboth = z.imag and y\n")
    assert real_point_tests(source) == [1, 3, 4, 6, 8]


def test_the_real_point_symmetry_is_decided_in_recurrence_alone():
    """At a real point the left unit factor is the conjugate of the right one; whether a point is real is
    decided in recurrence alone (_Point.unit, unit_factors, pivot_sweep's weights), and no module names a
    Hermitian mode."""
    testing = [p.name for p in MODULES if real_point_tests(p.read_text())]
    assert testing == ["recurrence.py"]
    assert [p.name for p in MODULES if "hermitian" in identifiers(p.read_text())] == []


def test_the_head_test_is_decided_in_recurrence_alone():
    """Where a head's twisted margin comes from is the point object's decision: no module but recurrence names
    twisted_pivots, and _at_point takes the pencil and the point, no flag that picks a part."""
    package = Path(tripencil.__file__).parent
    naming = [p.name for p in sorted(package.glob("*.py")) if "twisted_pivots" in identifiers(p.read_text())]
    assert naming == ["recurrence.py"]
    tree = ast.parse((package / "recurrence.py").read_text())
    at_point = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_at_point")
    args = at_point.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["pencil", "z"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)


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
