"""Check timing has one clock: the one `report.VerificationReport` reads.

Every check's wall_time is its report's lap, so a module that reads a
clock of its own would time some work twice, or time it by another
rule; only `report.py` may import `time` or call `perf_counter`.
"""

import ast
from pathlib import Path

import quasispin

PACKAGE = Path(quasispin.__file__).parent


def _reads_a_clock(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "time" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "time"
    if isinstance(node, ast.Attribute):
        return node.attr == "perf_counter"
    return isinstance(node, ast.Name) and node.id == "perf_counter"


def test_only_the_report_reads_a_clock():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "report.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _reads_a_clock(node)]
    assert not found, f"clock reads outside report.py: {found}"
