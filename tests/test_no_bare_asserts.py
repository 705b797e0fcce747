"""No correctness gate in the package is a bare `assert`.

`python -O` strips assert statements, so a check written as one silently
disappears; every gate must raise an explicit exception instead.
"""

import ast
from pathlib import Path

import quasispin

PACKAGE = Path(quasispin.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"
