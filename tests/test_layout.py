"""src/ holds only what a subcommand or the benchmark runs.

Parses src/qndsim and qndbench with ast, importing neither, and fails on
every function, class or property defined under src/qndsim that nothing in
either tree refers to.  A module-level name counts as referred to when it is
read as a name or an attribute; a method or property only when it is read as
an attribute.  Names are matched without their class, so two methods of one
name are kept alive by a call of either.  Code only tests call belongs in
tests/ (closed forms go to tests/oracles.py).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qndsim"
HARNESS = ROOT / "qndbench"


def _definitions(tree):
    """(name, line, is a member) of every function and class in tree."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.name, child.lineno, in_class))
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def unreferenced():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py")) + sorted(HARNESS.glob("*.py"))
    }
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    offenders = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, line, member in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            used = name in attributes or (not member and name in names)
            if not used:
                offenders.append(f"{path.relative_to(ROOT)}:{line} {name}")
    return offenders


def test_every_src_definition_is_reached():
    offenders = "\n".join(unreferenced())
    assert not offenders, f"defined in src/qndsim, used by no subcommand or benchmark:\n{offenders}"

