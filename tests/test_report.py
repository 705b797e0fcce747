import hashlib
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from quasispin import report
from quasispin.fock import format_sqrt2_power, rescale_exponent, write_genmap
from quasispin.report import (ANOMALY, FAIL, PASS, Check, VerificationReport,
                              classification_table, serialize_value,
                              table_to_csv, write_output)
from quasispin.tableaux import ClassifiedState
from fock_reference import build_o5_on_fock


def test_failed_check_requires_witness():
    with pytest.raises(ValueError):
        Check("x", FAIL)
    Check("x", FAIL, {"why": "because"})


def test_report_roundtrip():
    rep = VerificationReport("demo")
    rep.add("a/one", True)
    rep.add("a/two", False, {"difference": "3F[0,-1]"})
    rep.add_anomaly("a/three", {"note": "convention shift"})
    payload = rep.to_json()
    back = json.loads(json.dumps(payload))
    assert back == payload
    assert back["schema_version"] == 1 and back["suite"] == "demo"
    for c in back["checks"]:
        assert c.pop("wall_time") >= 0
    assert back["checks"] == [
        {"id": "a/one", "status": PASS},
        {"id": "a/three", "status": ANOMALY,
         "witness": {"note": "convention shift"}},
        {"id": "a/two", "status": FAIL, "witness": {"difference": "3F[0,-1]"}}]
    assert rep.exit_code() == 1


def test_a_witness_is_kept_for_a_failure_or_for_data():
    rep = VerificationReport("demo")
    rep.add("x", True, {"w": 1})
    rep.add("x", False, {"w": 2})
    rep.add_data("x", {"dim": 3})
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, None), (FAIL, {"w": 2}), (PASS, {"dim": 3})]
    assert "witness" not in rep.checks[0].to_json()


def test_report_times_each_check_since_the_previous(monkeypatch):
    # the report's clock reads 0, 1, 3, 6, 10: its laps are 1, 2, 3, 4
    reads = iter([0, 1, 3, 6, 10])
    monkeypatch.setattr(report, "time",
                        SimpleNamespace(perf_counter=lambda: next(reads)))
    rep = VerificationReport("demo")
    rep.add("a/pass", True)
    rep.add_anomaly("a/anomaly", {"note": "odd"})
    rep.add("a/fail", False, {"why": "because"})
    rep.add("a/last", True)
    assert [c.wall_time for c in rep.checks] == [1, 2, 3, 4]
    assert Check("a/copy", PASS).wall_time is None
    assert "wall_time" not in Check("a/copy", PASS).to_json()


def test_exit_code_contract():
    rep = VerificationReport("demo")
    rep.add("ok", True)
    assert rep.exit_code() == 0
    rep.add_anomaly("odd", {"n": 1})
    assert rep.exit_code() == 0  # anomalies do not fail the build
    rep.add("bad", False, {"w": 1})
    assert rep.exit_code() == 1


def test_rational_serialization():
    assert serialize_value(Fraction(-1, 2)) == "-1/2"
    assert serialize_value({"x": [Fraction(1, 3), 2]}) == {"x": ["1/3", 2]}
    # tuple keys (barcode intervals) read as intervals
    assert serialize_value({(Fraction(-1), Fraction(1, 2)): 1}) == {
        "(-1, 1/2)": 1}


@given(st.fractions(min_value=-50, max_value=50, max_denominator=12),
       st.integers(-7, 7))
def test_sqrt2_power_wire_form(c, k):
    w = format_sqrt2_power(c, k)
    a, b = Fraction(w["a"]), Fraction(w["b"])
    # a + b sqrt2 = c sqrt2^k: one part is zero, and squaring both sides
    # (a^2 + 2 b^2 = c^2 2^k) with matching signs pins the other
    assert a * b == 0
    assert a * a + 2 * b * b == c * c * Fraction(2) ** k
    assert (a + b > 0) == (c > 0) and (a + b < 0) == (c < 0)
    assert (b != 0) == (c != 0 and k % 2 == 1)


def test_table_serialization_and_roundtrip():
    states = [ClassifiedState(Fraction(0), Fraction(0), Fraction(0), 0, 1,
                              "A", 0)]
    table = classification_table((Fraction(0), Fraction(0)), states)
    assert table["weight"] == ["0", "0"]
    assert table["states"][0] == {"T": "0", "tau0": "0", "N": "0", "k": 0,
                                  "slice_dim": 1, "case": "A", "sigma": 0}
    assert json.loads(json.dumps(table)) == table
    csv_text = table_to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "T,tau0,N,k,slice_dim,case,sigma"
    assert lines[1] == "0,0,0,0,1,A,0"


@given(st.lists(st.tuples(st.integers(-3, 0), st.integers(0, 4)), max_size=6))
def test_table_roundtrip_property(rows):
    states = [ClassifiedState(Fraction(t), Fraction(t), Fraction(0), k,
                              1, "B", 0) for t, k in rows]
    table = classification_table((Fraction(0), Fraction(-1)), states)
    back = json.loads(json.dumps(table))
    assert back == table
    assert [(Fraction(s["T"]), Fraction(s["tau0"]), Fraction(s["N"]), s["k"])
            for s in back["states"]] == [(t, t, 0, k) for t, k in rows]


def test_write_output_json_and_csv(tmp_path):
    states = [ClassifiedState(Fraction(-1), Fraction(0), Fraction(0), 2, 1,
                              "D", 1)]
    table = classification_table((Fraction(-1), Fraction(-2)), states)
    p = tmp_path / "t.json"
    write_output(str(p), table, "json")
    assert json.loads(p.read_text())["weight"] == ["-1", "-2"]
    c = tmp_path / "t.csv"
    write_output(str(c), table, "csv")
    assert c.read_text().startswith("T,tau0,N,k")
    with pytest.raises(ValueError):
        write_output(str(p), table, "xml")


def test_genmap_export(tmp_path):
    path = tmp_path / "gens.json"
    write_genmap(str(path), build_o5_on_fock(Fraction(1, 2))[2])
    payload = json.loads(path.read_text())
    assert len(payload) == 10
    entry = payload["F[-2,-2]"]
    assert entry["rows"] == entry["cols"] == len(entry["entries"]) == 16
    assert entry["entries"][0] == [{"a": "1", "b": "0", "col": 0}]  # -N
    # tau+ / sqrt2: the conventional entries are +-1/sqrt2 = +-sqrt2/2,
    # and a row lists its nonzero cells alone, in ascending column order
    rows = payload["F[0,-1]"]["entries"]
    assert {(v["a"], v["b"]) for row in rows for v in row} == {
        ("0", "1/2"), ("0", "-1/2")}
    assert all([v["col"] for v in row] == sorted({v["col"] for v in row})
               for row in rows)


def test_genmap_export_is_sparse_json_dump(tmp_path):
    genmap = build_o5_on_fock(Fraction(1, 2))[2]
    # the reference: each row's nonzero cells read off op.cols
    payload = {
        f"F[{g.i},{g.j}]": {
            "rows": op.dim, "cols": op.dim,
            "entries": [[{**format_sqrt2_power(op.cols[c][r],
                                               -rescale_exponent(g)),
                          "col": c}
                         for c in sorted(op.cols) if r in op.cols[c]]
                        for r in range(op.dim)]}
        for g, op in genmap.items()}
    path = tmp_path / "gens.json"
    write_genmap(str(path), genmap)
    assert path.read_text() == json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(3, 2)])
def test_genmap_export_densified_is_the_dense_payload(tmp_path, j):
    # the dense export's payload, every cell formatted from op.entry
    genmap = build_o5_on_fock(j)[2]
    dense = {
        f"F[{g.i},{g.j}]": {
            "rows": op.dim, "cols": op.dim,
            "entries": [[format_sqrt2_power(op.entry(r, c),
                                            -rescale_exponent(g))
                         for c in range(op.dim)] for r in range(op.dim)]}
        for g, op in genmap.items()}
    path = tmp_path / "gens.json"
    write_genmap(str(path), genmap)
    payload = json.loads(path.read_text())
    for m in payload.values():
        cells = []
        for row in m["entries"]:
            cells.append([{"a": "0", "b": "0"}] * m["cols"])
            for v in row:
                cells[-1][v.pop("col")] = v
        m["entries"] = cells
    assert payload == dense


def test_genmap_export_memory_is_bounded(tmp_path):
    # j=3/2: ten 256x256 generators with 1908 nonzero entries; the
    # writer holds one generator's cell texts at a time
    genmap = build_o5_on_fock(Fraction(3, 2))[2]
    path = tmp_path / "gens.json"
    tracemalloc.start()
    try:
        write_genmap(str(path), genmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert path.stat().st_size < 100 * 2 ** 10


def test_genmap_export_at_j_three_halves_is_pinned(tmp_path):
    # the j=3/2 export, byte for byte, as the sparse writer produced it
    path = tmp_path / "gens.json"
    write_genmap(str(path), build_o5_on_fock(Fraction(3, 2))[2])
    with open(path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    assert digest == ("37a90a7e46fae79469fd58c0c1f997b0"
                      "a71f677d3ef0f113cb7758258b7c3844")


@pytest.mark.slow
def test_genmap_export_at_j_five_halves(tmp_path):
    # ten 4096x4096 generators with 43 208 nonzero entries in all
    path = tmp_path / "gens.json"
    write_genmap(str(path), build_o5_on_fock(Fraction(5, 2))[2])
    assert path.stat().st_size < 2 * 2 ** 20
    cells = [v for m in json.loads(path.read_text()).values()
             for row in m["entries"] for v in row]
    assert len(cells) == 43208
    assert all(v["a"] != "0" or v["b"] != "0" for v in cells)
