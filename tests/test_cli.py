import json
from fractions import Fraction

import pytest

from quasispin import cli, replab, tableaux
from quasispin.cli import main, suite_identities
from quasispin.liealg import GenIndex, Weight
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
    assert "exceeds the configured cap" in capsys.readouterr().err
    # a single-j fermion shell has odd 2j
    for j in ("1", "0", "-1/2"):
        for argv in (["fock", "build"],
                     ["repr", "analyze", "--source", "fock"]):
            assert run(argv + [f"--j={j}"]) == 2
            assert capsys.readouterr().err.startswith(
                "error: j must be a positive odd half-integer")


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


def _untimed(checks):
    return [(c.id, c.status, c.witness) for c in checks]


@pytest.mark.parametrize("source, arg, analyses", [
    ("fock", "1/2", 3), ("fock", "3/2", 12), ("defining-power", "0", 1),
    ("defining-power", "1", 1), ("defining-power", "2", 3),
    ("defining-power", "3", 6)])
def test_repr_shares_the_analysis_of_equal_irreps(monkeypatch, source, arg,
                                                  analyses):
    # the shared report equals one that analyses every irrep on its own
    rep = cli.build_source(source, j=arg, power=arg)
    unshared = [c for irr in replab.extract_irreps(rep)
                for c in cli.irrep_checks(irr)]
    analysed = []
    irrep_checks = cli.irrep_checks

    def counting(irr):
        analysed.append(irr)
        return irrep_checks(irr)

    monkeypatch.setattr(cli, "irrep_checks", counting)
    report, _ = cli.suite_repr(rep)
    assert _untimed(report.checks[2:]) == _untimed(unshared)
    assert len(analysed) == analyses
    # a shared copy carries no wall time: nothing was timed for it
    timed = [c for c in report.checks[2:] if c.wall_time is not None]
    assert len(timed) == 2 * analyses


def test_repr_analyses_a_copy_with_other_matrices(monkeypatch, tmp_path,
                                                  capsys):
    # Fock(1/2) holds two copies of the spinor V(-1/2,-1/2); one flipped
    # entry in the second copy's F[-2,-2] is its own analysis's failure
    extract_irreps = replab.extract_irreps
    analysed = []
    irrep_checks = cli.irrep_checks

    def flipped(rep):
        irreps = extract_irreps(rep)
        spinors = [irr for irr in irreps if irr.dim == 4]
        assert len(spinors) == 2
        cartan = spinors[1].genmats[GenIndex(-2, -2, 2)].cols
        cartan[0][0] = -cartan[0][0]
        return irreps

    def counting(irr):
        analysed.append(irr)
        return irrep_checks(irr)

    monkeypatch.setattr(cli, "irrep_checks", counting)
    out = tmp_path / "report.json"
    argv = ["repr", "analyze", "--source", "fock", "--j", "1/2",
            "--out", str(out)]
    assert run(argv) == 0
    assert [irr.dim for irr in analysed] == [5, 4, 1]
    analysed.clear()
    monkeypatch.setattr(replab, "extract_irreps", flipped)
    assert run(argv) == 1
    assert [irr.dim for irr in analysed] == [5, 4, 4]
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    [check] = json.loads(out.read_text())["checks"]
    assert check["witness"]["error"].startswith(
        "AssertionError: omega fails to intertwine F[-2,-2]")


def test_repr_reports_a_non_echelon_irrep_basis(monkeypatch, tmp_path,
                                                capsys):
    # generator matrices are read at the pivots of each weight block: a
    # basis vector scaled off its unit pivot is an internal error
    lowering_orbit = replab._lowering_orbit

    def scaled(*args):
        irr = lowering_orbit(*args)
        irr.basis[0] = {k: 2 * x for k, x in irr.basis[0].items()}
        return irr

    monkeypatch.setattr(replab, "_lowering_orbit", scaled)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "2", "--out", str(out)]) == 1
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    assert json.loads(out.read_text())["checks"] == [{
        "id": "repr/internal-error", "status": "fail",
        "witness": {"error": "AssertionError: coordinate basis is not in "
                             "reduced echelon form"}}]


def test_repr_reports_a_projector_image_meeting_its_kernel(monkeypatch,
                                                           tmp_path, capsys):
    # f sending the tau0 = -1 vector of the adjoint in defining^2 onto its
    # o3-singlet, which spans ker(e) at weight (0, 0)
    extract_irreps = replab.extract_irreps

    def broken(rep):
        irreps = extract_irreps(rep)
        [adj] = [irr for irr in irreps if irr.dim == 10]
        [singlet] = replab.multiplicity_slices(adj)[(0, 0)].basis
        [u] = adj.weight_positions[Weight((-1, 0))]
        adj.genmats[replab.O3_LOWERING].cols[u] = dict(singlet)
        return irreps

    monkeypatch.setattr(replab, "extract_irreps", broken)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "2", "--out", str(out)]) == 1
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    [check] = json.loads(out.read_text())["checks"]
    assert check["witness"]["error"].startswith(
        "AssertionError: ker(e) and im(f) do not split weight (0, 0)")


def test_failed_gamma_winner_probe_is_reported(monkeypatch, tmp_path,
                                               capsys):
    # no decisive gamma convention: a failed check with the winners as
    # its witness, exit 1
    validate = tableaux.validate_against_representation
    monkeypatch.setattr(tableaux, "validate_against_representation",
                        lambda irr: {**validate(irr), "gamma_winner": "none"})
    out = tmp_path / "report.json"
    assert run(["probe", "conventions", "--out", str(out)]) == 1
    assert "FAIL    probe/gamma-winner-unique" in capsys.readouterr().out
    [check] = [c for c in json.loads(out.read_text())["checks"]
               if c["id"] == "probe/gamma-winner-unique"]
    assert check["witness"] == {"winners": {"none": list(cli.PROBE_WEIGHTS)}}
    # "none" is no convention: no gamma-winner anomaly names it
    assert not [c for c in json.loads(out.read_text())["checks"]
                if c["id"] == "probe/gamma-winner"]
