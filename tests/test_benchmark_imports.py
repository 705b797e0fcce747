"""The benchmark's imports from the package resolve.

`benchmarks/workloads.py` and `benchmarks/child.py` import names from
`quasispin`, and every sample runs `cli.main`.  A name that is renamed
or moved away makes every benchmark sample exit 1, so each name is
checked here.  The scripts are parsed with `ast`, never run or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from quasispin import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def package_imports(path: Path):
    """(module, name) per name imported from the package, with name None
    for a plain `import quasispin...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "quasispin")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "quasispin"):
            yield from ((node.module, alias.name) for alias in node.names)


def resolves(module: str, name) -> bool:
    """Whether `from module import name` (or `import module`) succeeds:
    name is an attribute of the module or one of its submodules."""
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script", ["workloads.py", "child.py"])
def test_benchmark_imports_resolve(script):
    names = list(package_imports(BENCHMARKS / script))
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not resolves(module, name)]
    assert not missing, f"{script} imports missing names: {missing}"


def test_every_sample_has_its_entry_point():
    assert callable(cli.main)


def test_a_missing_name_does_not_resolve():
    assert resolves("quasispin.cli", "main")
    assert resolves("quasispin", "uea")
    assert not resolves("quasispin.cli", "no_such_name")
    assert not resolves("quasispin.no_such_module", None)
