"""Every name a library module imports is used in that module, and every
private helper of the package is read somewhere in it.

No linter ships with the test dependencies, so this reads each module's
syntax tree with the standard library: a name bound by an import must be
read somewhere in the module, annotations (quoted ones too) included. The
package `__init__.py` is left out, since its imports are the re-exports.
A private module-level function or class, or a private method, must be read
(as a name or an attribute) somewhere in the package outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linsuper"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; `from __future__` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside quoted annotations."""
    trees = [tree]
    for node in ast.walk(tree):  # arguments and assignments carry `annotation`, functions `returns`
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for leaf in ast.walk(annotation) if annotation is not None else ():
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    try:
                        trees.append(ast.parse(leaf.value, mode="eval"))
                    except SyntaxError:  # a Literal["..."] value, not a forward reference
                        pass
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    source = "from math import gcd, lcm\nimport os.path\nfrom typing import Sequence\n\ndef f(x: 'Sequence[int]') -> int:\n    return lcm(*x)\n"
    tree = ast.parse(source)
    assert {name for name in _imported(tree) if name not in _read(tree)} == {"gcd", "os"}


def _private_definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """Private module-level functions and classes, and private non-dunder methods."""
    top = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    methods = [m for c in top if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, ast.FunctionDef)]
    return [d for d in top + methods if d.name.startswith("_") and not d.name.endswith("__")]


def _loads(node: ast.AST) -> Counter:
    """How often each name is read under node, as a name or as an attribute."""
    return Counter(
        leaf.id if isinstance(leaf, ast.Name) else leaf.attr
        for leaf in ast.walk(node)
        if isinstance(leaf, (ast.Name, ast.Attribute)) and isinstance(leaf.ctx, ast.Load)
    )


def _unread_private(trees: list[ast.Module]) -> list[str]:
    """The private definitions no code reads outside their own body."""
    everywhere = sum(map(_loads, trees), Counter())
    return sorted(d.name for tree in trees for d in _private_definitions(tree) if everywhere[d.name] == _loads(d)[d.name])


def test_every_private_helper_is_read_in_the_package():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    assert _unread_private(trees) == []


def test_the_check_sees_an_unread_private_helper():
    used = "def _used():\n    return 1\n\nclass C:\n    def _read(self):\n        return _used()\n"
    dead = (
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "class _Lonely:\n    pass\n\nclass D:\n    def _stale(self):\n        return 1\n"
        "    def __repr__(self):\n        return 'D'\n\n"
        "def public(c):\n    _stale = c._read()\n    return c\n"
    )
    trees = [ast.parse(used), ast.parse(dead)]
    assert _unread_private(trees) == ["_Lonely", "_recursive", "_stale"]
