"""src/ holds only what a subcommand or the benchmark runs.

Parses src/qndsim and qndbench with ast, importing neither, and fails on
three kinds of code defined under src/qndsim that nothing in either tree
uses:

- a function, class or property that nothing refers to.  A module-level
  name counts as referred to when it is read as a name or an attribute; a
  method or property only when it is read as an attribute;
- a defaulted parameter of a module-level function or method that no call
  passes, by keyword or by position;
- a dataclass or NamedTuple field that nothing reads as an attribute, or a
  defaulted field that no constructor call sets.

Calls are matched by the name called, a function's or a method's without
its class, so two methods of one name are kept alive by a call of either.
A call of a class passes its __init__'s parameters, or, for a dataclass
or NamedTuple, its fields; cls(...) in a class body calls that class.  A
*args splat passes every positional parameter, a **kwargs splat every
parameter.  Code only tests call belongs in tests/ (closed forms go to
tests/oracles.py), and a knob only tests turn is a seam in
tests/conftest.py.

KEPT names the offenders kept on purpose, each with the ROADMAP item that
removes it; an entry that no longer offends fails as well.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qndsim"
HARNESS = ROOT / "qndbench"

KEPT = {
    "efficiency_scan(n_max)": "item 17: the cavity cutoff gets a config key or goes",
    "capture_mode_oracle(dim_b)": "item 17: the capture cutoff gets a config key or goes",
    "SystemParams.omega_q": "items 1 and 18: qndbench's detect YAML writes every params key",
    "SystemParams.anharmonicity": "items 1 and 18: qndbench's detect YAML writes every params key",
    "SystemParams.T2_echo": "items 1 and 18: qndbench's detect YAML writes every params key",
    "SystemParams.n_th": "items 1 and 18: qndbench's detect YAML writes every params key",
    "Trajectory.max_top_population": "item 7: the run writes its monitors to a file",
    "ProtocolResult.comp_assembled": "item 16: the composite state comes from the capture route",
}


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


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether cls is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases
    )


def _parameters(fn: ast.FunctionDef, method: bool) -> list:
    """(name, position or None for keyword-only, has a default) of fn's
    parameters, without a method's self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip, i >= first_default) for i, a in enumerate(positional) if i >= skip]
    out += [(a.arg, None, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out


def _calls(tree) -> list:
    """(name called, positional count, keywords) of every call in tree; a
    splat counts as every position (math.inf) or every keyword (None)."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "cls" and cls is not None:
                    name = cls
                splat = any(isinstance(a, ast.Starred) for a in child.args)
                keywords = {k.arg for k in child.keywords}
                out.append((name, math.inf if splat else len(child.args),
                            None if None in keywords else keywords))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return out


def offenders(package: Path, *others: Path) -> dict:
    """Every offender defined in package's modules, keyed name, func(param)
    or Class.field, with its place and kind; package and others are read."""
    paths = [p for d in (package, *others) for p in sorted(d.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    names, attributes, calls = set(), set(), []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        calls += _calls(tree)

    def passed(callee, name, position) -> bool:
        return any(
            called == callee and (
                keywords is None or name in keywords
                or (position is not None and position < count)
            )
            for called, count, keywords in calls
        )

    found = {}
    for path, tree in trees.items():
        if path.parent != package:
            continue
        where = f"{package.name}/{path.name}"

        def check_parameters(fn, method, label, callee):
            for name, position, default in _parameters(fn, method):
                if default and not passed(callee, name, position):
                    found[f"{label}({name})"] = f"{where}:{fn.lineno} parameter no call passes"

        for name, line, member in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")) and not (
                name in attributes or (not member and name in names)
            ):
                found[name] = f"{where}:{line} definition nothing refers to"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_parameters(node, False, node.name, node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # __init__ takes the class's calls; other dunders are called by Python
                    if item.name == "__init__":
                        check_parameters(item, True, node.name, node.name)
                    elif not item.name.startswith("__"):
                        check_parameters(item, True, f"{node.name}.{item.name}", item.name)
            if not _is_record(node):
                continue
            fields = [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            for position, item in enumerate(fields):
                field, key = item.target.id, f"{node.name}.{item.target.id}"
                if field not in attributes:
                    found[key] = f"{where}:{item.lineno} field nothing reads"
                elif item.value is not None and not passed(node.name, field, position):
                    found[key] = f"{where}:{item.lineno} defaulted field no call sets"
    return found


def problems(found: dict, kept: dict) -> list:
    """The offenders in found that kept does not name, then the entries of
    kept that no longer offend."""
    return [f"{where}: {key}" for key, where in found.items() if key not in kept] + [
        f"stale KEPT entry {key!r} ({reason}): it no longer offends"
        for key, reason in kept.items() if key not in found
    ]


def test_every_src_definition_is_reached():
    listed = "\n".join(problems(offenders(PACKAGE, HARNESS), KEPT))
    assert not listed, f"in src/qndsim, used by no subcommand or benchmark:\n{listed}"


def test_checker_on_a_synthetic_tree(tmp_path):
    package, harness = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    harness.mkdir()
    (package / "core.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class Point:\n"
        "    x: float\n"
        "    unread: float\n"
        "    label: str = ''\n"
        "    tag: str = ''\n"
        "\n"
        "    @classmethod\n"
        "    def build(cls, **kwargs):\n"
        "        return cls(**kwargs)\n"
        "\n"
        "def run(p, *, dt=None, steps=1):\n"
        "    return p.x, p.label, p.tag, dt, steps\n"
    )
    (harness / "use.py").write_text(
        "from pkg.core import Point, run\n"
        "run(Point(1.0, 2.0, label='a'), steps=3)\n"
        "Point.build(x=1.0, unread=2.0)\n"
    )
    found = offenders(package, harness)
    # a keyword no call passes, and a field nothing reads
    assert set(found) == {"run(dt)", "Point.unread"}
    assert "parameter no call passes" in found["run(dt)"]
    assert "field nothing reads" in found["Point.unread"]
    # Point.tag is set only through the splat in build: with the splat gone,
    # no call sets it
    (package / "core.py").write_text(
        (package / "core.py").read_text().replace("cls(**kwargs)", "cls(1.0, 2.0)")
    )
    assert "defaulted field no call sets" in offenders(package, harness)["Point.tag"]
    # a kept entry that no longer offends fails
    listed = problems(found, {"run(dt)": "kept", "run(steps)": "kept"})
    assert listed == [
        "pkg/core.py:6 field nothing reads: Point.unread",
        "stale KEPT entry 'run(steps)' (kept): it no longer offends",
    ]
