"""The public surface of ``src/dyadica`` is what the program calls.

An AST scan: every function, method and class defined under ``src/dyadica``
must be referenced somewhere in ``src/dyadica`` or ``perfbench/`` (by name,
as an attribute, or, in perfbench, as a string such as the entries of
``spans.NAMED``), unless ``dyadica.__all__`` exports it.  A definition that
only the tests reach is dead weight: delete it, or move it to
``tests/oracles.py`` if a test needs it as a reference.
"""

import ast
from pathlib import Path

import dyadica

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "dyadica"
BENCH = REPO / "perfbench"


def _definitions(tree: ast.Module):
    """(qualified name, name) of the module's functions, classes and the
    methods of its classes; dunder methods run implicitly and are skipped."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (item.name.startswith("__")
                                                    and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module, strings: bool) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.replace(".", " ").split())
    return out


def unreferenced() -> list[str]:
    refs, defs = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs |= _references(tree, strings=False)
        defs += [(f"{path.stem}.{qual}", name) for qual, name in _definitions(tree)]
    for path in sorted(BENCH.glob("*.py")):
        refs |= _references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    exported = set(dyadica.__all__)
    return [qual for qual, name in defs if name not in refs and name not in exported]


def test_every_definition_has_a_program_caller():
    assert unreferenced() == []
