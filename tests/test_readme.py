"""The README's "Library use" block runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "proof-text"
    assert namespace["skel"].cols == {0: {0: 1, 1: 1}}
