import json
from fractions import Fraction

import pytest

from quasispin import cli, replab, tableaux
from quasispin.cli import main, suite_identities
from quasispin.tableaux import ClassificationError


def run(argv):
    return main(argv)


def test_verify_o3_exits_zero(capsys):
    assert run(["verify", "identities", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 fail" in out


def test_classify_five_dim(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = run(["classify", "--weight", "0,-1", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert len(table["states"]) == 5
    assert all(s["k"] == 0 for s in table["states"])
    printed = capsys.readouterr().out
    assert "classify/labels-distinct-complete" in printed


def test_classify_extracts_only_the_target_irrep(monkeypatch, tmp_path):
    def never(rep):
        raise AssertionError("classify decomposed a whole source")

    for weight in ("0,-1", "-1,-2"):
        with monkeypatch.context() as m:
            m.setattr(replab, "extract_irreps", never)
            targeted = tmp_path / "targeted.json"
            assert run(["classify", f"--weight={weight}",
                        "--out", str(targeted)]) == 0
        full = tmp_path / "full.json"
        assert run(["classify", f"--weight={weight}", "--out",
                    str(full)]) == 0
        assert targeted.read_bytes() == full.read_bytes()


def test_classify_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["classify", "--weight", "0,0", "--out", str(out),
                "--format", "csv"]) == 0
    assert out.read_text().splitlines()[0] == "T,tau0,N,k,slice_dim,case,sigma"


def test_csv_for_a_report_is_usage_error(monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran before the usage check")

    monkeypatch.setattr(cli, "suite_identities", never)
    monkeypatch.setattr(cli, "suite_fock", never)
    for argv in (["verify", "identities", "--n", "1"],
                 ["fock", "build", "--j", "1/2"]):
        with pytest.raises(SystemExit) as ex:
            run(argv + ["--out", str(tmp_path / "x.csv"), "--format", "csv"])
        assert ex.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_csv_without_a_table_is_an_error(monkeypatch, tmp_path, capsys):
    def contradiction(irrep):
        raise ClassificationError("no labeling fits")

    monkeypatch.setattr(tableaux, "validate_against_representation",
                        contradiction)
    out = tmp_path / "t.csv"
    assert run(["classify", "--weight", "0,-1", "--out", str(out),
                "--format", "csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unwritable_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "t.json"
    assert run(["classify", "--weight", "0,-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_classify_weight_outside_the_old_sources(tmp_path, capsys):
    # (-3/2,-3/2) is in none of Fock(1/2), Fock(3/2), defining^0..3;
    # negative weights need the --weight=... spelling under argparse
    out = tmp_path / "table.json"
    assert run(["classify", "--weight=-3/2,-3/2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["states"]) == 20
    assert ("PASS    classify/labels-distinct-complete"
            in capsys.readouterr().out)


def test_classify_builds_no_big_source(monkeypatch, tmp_path):
    # every irrep is a Cartan product of the trivial, defining and
    # Fock(1/2) spinor irreps: no tensor power and no larger Fock space
    fock_representation = replab.fock_representation

    def no_power(power):
        raise AssertionError("classify built a tensor power")

    def small_fock(j):
        if j != Fraction(1, 2):
            raise AssertionError(f"classify built Fock({j})")
        return fock_representation(j)

    monkeypatch.setattr(replab, "tensor_power_representation", no_power)
    monkeypatch.setattr(replab, "fock_representation", small_fock)
    for weight in ("0,0", "-1/2,-3/2", "0,-3", "-1,-2"):
        assert run(["classify", f"--weight={weight}",
                    "--out", str(tmp_path / "t.json")]) == 0


def test_classify_invalid_weight_is_usage_error(capsys):
    for weight in ("1,0", "0,-1/2"):
        assert run(["classify", f"--weight={weight}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as ex:
        run(["classify", "--weight", "bogus"])
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        run(["frobnicate"])
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        run(["verify", "identities", "--n", "9"])
    assert ex.value.code == 2


def test_fock_invalid_j_is_usage_error(capsys):
    assert run(["fock", "build", "--j", "7/2"]) == 2


def test_seeded_suite_is_deterministic():
    a = suite_identities(1, seed=42).to_json()
    b = suite_identities(1, seed=42).to_json()
    for c in (a, b):
        for chk in c["checks"]:
            chk.pop("wall_time", None)
    assert a == b


def test_fock_build_writes_genmap(tmp_path, capsys):
    out = tmp_path / "gens.json"
    assert run(["fock", "build", "--j", "1/2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "F[0,-1]" in payload and payload["F[0,-1]"]["rows"] == 16


@pytest.mark.parametrize("error", [AssertionError, ClassificationError,
                                   replab.NonDiagonalCartan])
def test_internal_error_is_a_failed_check(monkeypatch, tmp_path, capsys,
                                          error):
    def broken(rep):
        raise error("dimensions do not add up")

    monkeypatch.setattr(replab, "extract_irreps", broken)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "1", "--out", str(out)]) == 1
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["checks"] == [{
        "id": "repr/internal-error", "status": "fail",
        "witness": {"error": f"{error.__name__}: dimensions do not add up"}}]
