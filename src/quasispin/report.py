"""Verification reports, classification tables, and their wire formats.

JSON schema: reports are {"schema_version": 1, "suite": ..., "checks":
[{"id", "status", "witness"?, "wall_time"?}]} with status one of
pass|fail|anomaly.  Every failed check carries a nonempty witness, and
a passing check carries one only when it is data (`add_data`, as
repr/<lambda>/slice-data): `add` keeps its witness for a failure alone.
The report keeps the one clock of check timing: each check it records
(`add`, `add_data`, `add_anomaly`) gets wall_time = the seconds, to 6
digits, since its previous check or since the report was created, so
the times of a report add up to the time of its suite.  A Check built
directly (a repeated copy) carries none.

Classification tables are {"weight": [lam1, lam2], "states": [{T, tau0,
N, k, case, sigma, slice_dim}]}.  Rationals travel as "p/q" strings;
CSV is the flattened table with the same headers.  The Fock generator
export, the one file with irrational numbers, is `fock.write_genmap`;
this module imports nothing from the domain layers.
"""

from __future__ import annotations

import csv
import io
import json
import time
from fractions import Fraction

from .scalars import format_rational

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
ANOMALY = "anomaly"


class Check:
    __slots__ = ("id", "status", "witness", "wall_time")

    def __init__(self, check_id: str, status: str, witness=None, wall_time=None):
        if status not in (PASS, FAIL, ANOMALY):
            raise ValueError(f"unknown status {status!r} for check {check_id}")
        if status == FAIL and not witness:
            raise ValueError(f"failed check {check_id} needs a witness")
        self.id = check_id
        self.status = status
        self.witness = witness
        self.wall_time = wall_time

    def to_json(self):
        out = {"id": self.id, "status": self.status}
        if self.witness is not None:
            out["witness"] = serialize_value(self.witness)
        if self.wall_time is not None:
            out["wall_time"] = self.wall_time
        return out


class VerificationReport:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks = []
        self._lap = time.perf_counter()

    def _record(self, check_id: str, status: str, witness):
        now = time.perf_counter()
        self.checks.append(Check(check_id, status, witness,
                                 round(now - self._lap, 6)))
        self._lap = now

    def add(self, check_id: str, ok, witness=None):
        """A pass or a failure; the witness is kept for a failure only."""
        self._record(check_id, PASS if ok else FAIL, None if ok else witness)

    def add_data(self, check_id: str, data):
        """A pass that carries data: the one passing check with a witness."""
        self._record(check_id, PASS, data)

    def add_anomaly(self, check_id: str, witness):
        self._record(check_id, ANOMALY, witness)

    def failed(self):
        return [c for c in self.checks if c.status == FAIL]

    def anomalies(self):
        return [c for c in self.checks if c.status == ANOMALY]

    def exit_code(self) -> int:
        return 1 if self.failed() else 0

    def to_json(self):
        return {"schema_version": SCHEMA_VERSION, "suite": self.suite,
                "checks": [c.to_json() for c in sorted(self.checks,
                                                       key=lambda c: c.id)]}

    def summary_lines(self):
        lines = []
        for c in sorted(self.checks, key=lambda c: c.id):
            bits = f"{c.status.upper():7s} {c.id}"
            if c.status != PASS and c.witness is not None:
                bits += f"  [{_short(serialize_value(c.witness))}]"
            lines.append(bits)
        npass = sum(1 for c in self.checks if c.status == PASS)
        lines.append(f"-- {self.suite}: {npass} pass, "
                     f"{len(self.failed())} fail, "
                     f"{len(self.anomalies())} anomaly")
        return lines


def _short(x, limit=200):
    s = json.dumps(x) if not isinstance(x, str) else x
    return s if len(s) <= limit else s[:limit] + "..."


def _wire_key(k) -> str:
    """A dict key as text; a tuple key (a barcode interval) as "(a, b)"."""
    if isinstance(k, tuple):
        return f"({', '.join(map(_wire_key, k))})"
    return str(k)


def serialize_value(x):
    """Recursively map values into the wire format."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, dict):
        return {_wire_key(k): serialize_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [serialize_value(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


# -- classification tables ----------------------------------------------

TABLE_HEADERS = ["T", "tau0", "N", "k", "slice_dim", "case", "sigma"]


def classification_table(weight, states) -> dict:
    return {
        "weight": [format_rational(Fraction(w)) for w in weight],
        "states": [{
            "T": format_rational(s.T),
            "tau0": format_rational(s.tau0),
            "N": format_rational(s.N),
            "k": s.k,
            "slice_dim": s.slice_dim,
            "case": s.case,
            "sigma": s.sigma,
        } for s in states],
    }


def table_to_csv(table: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TABLE_HEADERS)
    for s in table["states"]:
        writer.writerow([s[h] for h in TABLE_HEADERS])
    return buf.getvalue()


def write_output(path, payload, fmt: str):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        if not (isinstance(payload, dict) and "states" in payload):
            raise ValueError("csv output only supports classification tables")
        text = table_to_csv(payload)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
    return text
