import ast
import importlib
from pathlib import Path

import lusztig_cones

PACKAGE = Path(lusztig_cones.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Names bound by the module-level imports of ``tree``, except
    ``from __future__`` ones."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_no_assert_statements():
    # asserts vanish under `python -O`; every check in the package must raise
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(PACKAGE)}: {name}"
            for name in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_init_exports_exactly_its_imports():
    tree = parse(PACKAGE / "__init__.py")
    assert sorted(imported_names(tree)) == sorted(lusztig_cones.__all__)


def floating_point(node):
    """True for a true division, a float literal, a ``float(...)`` call or
    a ``.random()``/``.uniform()`` call."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Name) and f.id == "float") or (
            isinstance(f, ast.Attribute) and f.attr in ("random", "uniform")
        )
    return False


def test_integers_only():
    # "no floating point anywhere": exact integer arithmetic throughout,
    # and random draws by randrange or getrandbits, never by uniform reals
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(parse(path))
        if floating_point(node)
    ]
    assert found == []


def bench_uses():
    """(module, name) for every name the benchmark takes from the package:
    ``from lusztig_cones.m import name``, ``m.name`` after
    ``from lusztig_cones import m``, and (m, None) for each module it
    imports."""
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = parse(path)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                uses |= {
                    (a.name.partition(".")[2], None)
                    for a in node.names
                    if a.name.startswith("lusztig_cones.")
                }
            elif isinstance(node, ast.ImportFrom) and node.module == "lusztig_cones":
                modules.update((a.asname or a.name, a.name) for a in node.names)
                uses |= {(a.name, None) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "lusztig_cones."
            ):
                module = node.module.partition(".")[2]
                uses |= {(module, a.name) for a in node.names}
        uses |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    return uses


def test_bench_names_exist():
    # the benchmark imports the package by name; a deletion here must not
    # break its traced mode unnoticed
    uses = bench_uses()
    assert {("words", "braid_neighbors"), ("cone", "spanning_set"), ("cli", None)} <= uses
    modules = {m: importlib.import_module(f"lusztig_cones.{m}") for m, _ in uses}
    missing = [
        f"{m}.{name}" for m, name in sorted(uses, key=str) if name and not hasattr(modules[m], name)
    ]
    assert missing == []
