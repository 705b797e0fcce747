"""An exact entry is an int when integral: `scalars.exact` applies the rule.

The rule lives in `scalars.py` alone, so a module that restates it
(`x.numerator if x.denominator == 1 else x`) is a second copy that can
drift from the first, or a translation between two rules that should
not exist.  This scan fails on that idiom anywhere in the package but
`scalars.py`, in either branch order.
"""

import ast
from pathlib import Path

import quasispin

PACKAGE = Path(quasispin.__file__).parent


def _restates_the_rule(node) -> bool:
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Attribute)
            and node.test.left.attr == "denominator"):
        return False
    x = ast.dump(node.test.left.value)
    for num, other in ((node.body, node.orelse), (node.orelse, node.body)):
        if (isinstance(num, ast.Attribute) and num.attr == "numerator"
                and ast.dump(num.value) == x == ast.dump(other)):
            return True
    return False


def test_only_scalars_states_the_int_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _restates_the_rule(node)]
    assert not found, f"int/Fraction normalisation outside scalars.py: {found}"


def test_the_scan_finds_the_idiom():
    for src in ("y = x.numerator if x.denominator == 1 else x",
                "y = c if c.denominator != 1 else c.numerator"):
        assert any(map(_restates_the_rule, ast.walk(ast.parse(src)))), src
    scalars = ast.parse((PACKAGE / "scalars.py").read_text())
    assert any(map(_restates_the_rule, ast.walk(scalars)))
