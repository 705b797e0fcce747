"""Record the outputs of the 27 reference commands of one checkout.

    python tools/same_outputs.py CHECKOUT OUTDIR

runs each command one after another as ``python -m quasispin.cli`` on
the ``src/`` of CHECKOUT and writes up to two files per command into
OUTDIR, named after the command:

- ``.out``: the exit code, then stdout without its ``wrote`` line;
- ``.json``: the ``--out`` JSON with every ``wall_time`` removed, keys
  sorted (for ``fock build``, its sparse generator export: about 1.7 MB
  at j = 5/2).

Two checkouts give the same outputs when ``diff -r`` of their OUTDIRs
is empty.  Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CLASSIFY_WEIGHTS = ("0,0", "0,-1", "-1/2,-1/2", "0,-2", "-1,-1",
                    "-1/2,-3/2", "0,-3", "-1,-2",
                    "-2,-4", "-3/2,-7/2", "-1,-3", "-2,-3")

COMMANDS = (
    [["verify", "identities", "--n", "1"],
     ["verify", "identities", "--n", "2"],
     ["verify", "identities", "--n", "3", "--slow"],
     ["fock", "build", "--j", "1/2"],
     ["fock", "build", "--j", "3/2"],
     ["fock", "build", "--j", "5/2"],
     ["repr", "analyze", "--source", "fock", "--j", "1/2"],
     ["repr", "analyze", "--source", "fock", "--j", "3/2"],
     ["repr", "analyze", "--source", "fock", "--j", "5/2"]]
    + [["repr", "analyze", "--source", "defining-power", "--power", str(p)]
       for p in range(4)]
    + [["probe", "conventions"]]
    + [["classify", f"--weight={w}"] for w in CLASSIFY_WEIGHTS]
    + [["classify", "--weight=-3,-6"]])


def drop_wall_time(value):
    """value with every "wall_time" key removed, at any depth."""
    if isinstance(value, dict):
        return {k: drop_wall_time(v) for k, v in value.items()
                if k != "wall_time"}
    if isinstance(value, list):
        return [drop_wall_time(v) for v in value]
    return value


def record(checkout: Path, argv, outdir: Path, scratch: Path):
    name = re.sub(r"[^A-Za-z0-9.,=-]+", "_", " ".join(argv))
    out_path = scratch / "out.json"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "quasispin.cli", *argv, "--out", str(out_path)],
        env=env, capture_output=True, text=True)
    stdout = "".join(line for line in done.stdout.splitlines(keepends=True)
                     if not line.startswith("wrote "))
    (outdir / f"{name}.out").write_text(f"exit {done.returncode}\n{stdout}")
    if not out_path.exists():
        return
    data = drop_wall_time(json.loads(out_path.read_text()))
    (outdir / f"{name}.json").write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n")
    out_path.unlink()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    checkout, outdir = Path(args[0]).resolve(), Path(args[1])
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for command in COMMANDS:
            record(checkout, command, outdir, Path(scratch))
    print(f"{len(COMMANDS)} commands recorded in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
