import ast
from pathlib import Path

import lusztig_cones

PACKAGE = Path(lusztig_cones.__file__).parent


def test_no_assert_statements():
    # asserts vanish under `python -O`; every check in the package must raise
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
