"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this reads each module's
syntax tree with the standard library: a name bound by an import must be
read somewhere in the module, annotations (quoted ones too) included. The
package `__init__.py` is left out, since its imports are the re-exports.
"""

import ast
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
