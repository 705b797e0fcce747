"""What one sample of each workload runs, and the digest of its outputs.

A workload is a list of commands.  Each command is run once per sample
and returns a raw result; ``canonical`` later turns the raw results into
the basis-independent outputs that the correctness digest covers, and
counts the checks attempted and failed.  The split keeps parsing and
hashing out of the timed part of a sample.

The digest covers check ids and statuses, irrep highest weights and
dimensions, slice dimensions and up/down ranks, k-tables and the gamma
winner, and anomaly ids.  It leaves out every ``wall_time`` field and
every coordinate-dependent scalar (matrix entries, witness payloads), so
that a change of basis inside the package does not trip it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import combinations

from quasispin import cli
from quasispin.liealg import (Weight, canonical_generators, defining_matrices,
                              index_range)
from quasispin.uea import (IndexSet, UEAElement, capelli, check_lemma_l2,
                           check_minorn, check_split_formula,
                           evaluate_in_representation, pfaffian,
                           weight_shift_of)

# The eight highest weights realised by cli.STANDARD_SOURCES.
CLASSIFY_WEIGHTS = ("0,0", "0,-1", "-1/2,-1/2", "0,-2", "-1,-1",
                    "-1/2,-3/2", "0,-3", "-1,-2")


def run_cli(argv):
    """cli.main in process, stdout captured: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def o7_spot_checks():
    """The o_7 checks of tests/test_slow_o7.py plus the |I|=6 Pfaffians and
    C_2 centrality at n=3, as (check id, passed) pairs."""
    n = 3
    oracle = (defining_matrices(n), 2 * n + 1)
    checks = []
    big = IndexSet([-3, -2, -1, 0, 1, 2], n)
    for p, q in ((2, 4), (4, 2), (6, 0), (0, 6)):
        r = check_split_formula(big, p, q)
        checks.append([f"sym/{r.name}", r.equal])
        checks.append([f"oracle/{r.name}", r.matrix_oracle(*oracle)])
    r = check_minorn(big)
    checks.append([f"sym/{r.name}", r.equal])
    checks.append([f"oracle/{r.name}", r.matrix_oracle(*oracle)])
    for combo in list(combinations(index_range(n), 6))[:3]:
        I = IndexSet(combo, n)
        for j1, j2 in ((3, 1), (-3, 2), (1, -1), (0, 3)):
            r = check_lemma_l2(I, j1, j2)
            checks.append([f"sym/{r.name}", r.equal])
    for combo in combinations(index_range(n), 6):
        pf = pfaffian(IndexSet(combo, n))
        want = Weight.zero(n)
        for i in combo:
            want = want - Weight.e(i, n)
        checks.append([f"pfaffian/{combo}/terms={len(pf.terms)}",
                       weight_shift_of(pf) == want])
    c2 = capelli(2, n)
    for g in canonical_generators(n):
        d = c2.commutator(UEAElement.gen(g))
        checks.append([f"capelli/C2-central/{g!r}", d.normal_order().is_zero()])
        checks.append([f"capelli/C2-central-oracle/{g!r}",
                       evaluate_in_representation(d, *oracle).is_zero()])
    return {"checks": checks}


def commands(workload, seed, workdir):
    """(label, thunk) pairs of one sample, inputs derived from ``seed``."""
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == "identities":
        return [
            ("verify_identities", lambda: run_cli(
                ["verify", "identities", "--n", "2", "--seed", str(seed),
                 "--out", out("identities.json")])),
            ("o7_spot", o7_spot_checks),
        ]
    if workload == "fock_shell":
        return [
            ("fock_build", lambda: run_cli(
                ["fock", "build", "--j", "3/2", "--out", out("fock.json")])),
            ("repr_analyze", lambda: run_cli(
                ["repr", "analyze", "--source", "fock", "--j", "3/2",
                 "--out", out("repr.json")])),
        ]
    if workload == "classify_corpus":
        weights = list(CLASSIFY_WEIGHTS)
        random.Random(seed).shuffle(weights)
        return [(f"classify_{w}", lambda w=w, i=i: run_cli(
                    ["classify", f"--weight={w}", "--out",
                     out(f"classify{i}.json")]))
                for i, w in enumerate(weights)]
    raise ValueError(f"unknown workload {workload!r}")


# -- canonical outputs ----------------------------------------------------


def _summary_checks(stdout):
    """[id, status] pairs from the report lines cli.main prints."""
    checks = []
    for line in stdout.splitlines():
        head, _, rest = line.partition(" ")
        if head in ("PASS", "FAIL", "ANOMALY"):
            checks.append([rest.strip().split("  [")[0], head.lower()])
    return checks


def _report_checks(path):
    with open(path) as fh:
        report = json.load(fh)
    checks = []
    for c in report["checks"]:
        entry = [c["id"], c["status"]]
        if c["id"].endswith("/slice-data"):
            entry.append(c["witness"])  # slice dims and up/down ranks
        checks.append(entry)
    return checks


def _irreps_from_slices(checks):
    """[highest weight, dimension] per irrep, the dimension summed over its
    slice data as dim(V+_{T,N}) * (2|T| + 1)."""
    irreps = []
    for entry in checks:
        if len(entry) < 3:
            continue
        key = entry[0][len("repr/"):-len("/slice-data")]
        dim = 0
        for tn, row in entry[2].items():
            t = Fraction(tn.split(",")[0].split("=")[1])
            dim += row["dim"] * int(1 - 2 * t)
        irreps.append([key, dim])
    return sorted(irreps)


def _genmap_shape(path):
    """Generator -> [rows, cols, nonzero entries] of the fock export."""
    with open(path) as fh:
        genmap = json.load(fh)
    return {g: [m["rows"], m["cols"],
                sum(1 for row in m["entries"] for v in row
                    if v["a"] != "0" or v["b"] != "0")]
            for g, m in sorted(genmap.items())}


def canonical(label, raw, workdir):
    """Basis-independent outputs of one command and its check list."""
    if label == "o7_spot":
        return {"checks": raw["checks"]}, raw["checks"]
    record = {"exit": raw["exit"]}
    if label == "verify_identities":
        record["checks"] = _report_checks(os.path.join(workdir,
                                                       "identities.json"))
    elif label == "fock_build":
        record["checks"] = _summary_checks(raw["stdout"])
        record["export"] = _genmap_shape(os.path.join(workdir, "fock.json"))
    elif label == "repr_analyze":
        record["checks"] = _report_checks(os.path.join(workdir, "repr.json"))
        record["irreps"] = _irreps_from_slices(record["checks"])
    elif label.startswith("classify_"):
        record["checks"] = _summary_checks(raw["stdout"])
        path = raw["argv"][-1]
        with open(path) as fh:
            table = json.load(fh)
        record["table"] = table  # weight, k-table and gamma winner
        record["dim"] = len(table["states"])
    return record, record["checks"]


def digest(records):
    """sha256 of the canonical outputs, independent of command order."""
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
