"""A passing check carries no witness: `VerificationReport.add` drops it.

The rule lives in `report.py` alone, so a call site that restates it
(`add(id, ok, None if ok else {...})`) is a second copy that can drift
from the first; data a passing check should carry goes through
`add_data`.  This scan fails on any `add(...)` call in the package whose
witness is a conditional expression.
"""

import ast
from pathlib import Path

import quasispin

PACKAGE = Path(quasispin.__file__).parent


def _witness(call: ast.Call):
    if len(call.args) > 2:
        return call.args[2]
    return next((k.value for k in call.keywords if k.arg == "witness"), None)


def test_no_call_site_restates_the_witness_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add"
                  and isinstance(_witness(node), ast.IfExp)]
    assert not found, f"conditional witnesses: {found}"
