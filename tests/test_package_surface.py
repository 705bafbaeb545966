"""Every name the package defines is used by the package itself.

Helpers that only tests call belong in ``tests/_reference.py``, and code that
nothing calls is deleted.  This parses each module of the package and checks
that every top-level function and class, and every method, is referenced by
name somewhere in the package: a call, an attribute access, or an import
(re-exports in ``__init__`` count).  Dunder methods are called by the
interpreter and are exempt.
"""

import ast
import pathlib

import dyadlab

PACKAGE = pathlib.Path(dyadlab.__file__).parent


def _defined_and_used():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined.append((path.stem, f"{node.name}.{item.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_package_name_is_used_by_the_package():
    defined, used = _defined_and_used()
    assert len(defined) > 100
    unused = [
        f"{module}.{qualname}"
        for module, qualname, name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert unused == []
