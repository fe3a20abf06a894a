"""The public surface of ``src/dyadica`` is what the program calls.

An AST scan: every function, method and class defined under ``src/dyadica``
must be referenced somewhere in ``src/dyadica`` or ``perfbench/``, unless
``dyadica.__all__`` exports it.  A module-level definition counts as
referenced by name, as an attribute, or, in perfbench, as a string such as
the entries of ``spans.NAMED``; a method only as an attribute or a perfbench
string, so a module-level function of the same name does not hide it, and
``__all__`` exempts module-level names only.  A definition that only the
tests reach is dead weight: delete it, or move it to ``tests/oracles.py`` if
a test needs it as a reference.
"""

import ast
from pathlib import Path

import dyadica

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "dyadica"
BENCH = REPO / "perfbench"


def _definitions(tree: ast.Module):
    """(qualified name, name, is a method) of the module's functions, classes
    and the methods of its classes; dunder methods run implicitly and are
    skipped."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (item.name.startswith("__")
                                                    and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, True


def _references(tree: ast.Module, strings: bool) -> tuple[set, set]:
    """(bare names, attributes and, if ``strings``, the words of string
    constants) referenced in the module."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.update(node.value.replace(".", " ").split())
    return names, attrs


def unreferenced() -> list[str]:
    names, attrs, defs = set(), set(), []
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        more_names, more_attrs = _references(tree, strings=path.parent == BENCH)
        names |= more_names
        attrs |= more_attrs
        if path.parent == SRC:
            defs += [(f"{path.stem}.{qual}", name, method)
                     for qual, name, method in _definitions(tree)]
    exported = set(dyadica.__all__)
    return [qual for qual, name, method in defs
            if name not in attrs and (method or (name not in names and name not in exported))]


def test_every_definition_has_a_program_caller():
    assert unreferenced() == []
