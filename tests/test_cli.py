import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quasispin import cli, fock, replab, tableaux
from quasispin.cli import main, suite_identities
from quasispin.liealg import GenIndex, Weight
from quasispin.linalg import LinOp
from quasispin.tableaux import ClassificationError
from quasispin.uea import UEAElement
from test_replab import extract_irreps
from test_tableaux import (ZEROED_DOWN_T, hollow_skeleton,
                           zero_the_down_map_out_of_one)


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
    # every decomposition finds its raising kernels in one place; only a
    # whole-source one asks for them at every weight (lam None)
    kernels = replab._highest_weight_kernels
    asked = []

    def at_one_weight(rep, lam=None):
        if lam is None:
            raise AssertionError("classify decomposed a whole source")
        asked.append(lam)
        return kernels(rep, lam)

    for weight in ("0,-1", "-1,-2"):
        with monkeypatch.context() as m:
            m.setattr(replab, "_highest_weight_kernels", at_one_weight)
            targeted = tmp_path / "targeted.json"
            assert run(["classify", f"--weight={weight}",
                        "--out", str(targeted)]) == 0
        assert asked
        asked.clear()
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


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "--weight", "0,-1"], id="classify"),
    pytest.param(["fock", "build", "--j", "1/2"], id="fock-build")])
def test_unwritable_out_is_an_error(tmp_path, capsys, argv):
    # the table goes through report.write_output, the Fock export
    # through fock.write_genmap; both end in main's OSError branch
    out = tmp_path / "no" / "such" / "t.json"
    assert run([*argv, "--out", str(out)]) == 2
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
    assert "exceeds the largest supported shell" in capsys.readouterr().err
    # a single-j fermion shell has odd 2j
    for j in ("1", "0", "-1/2"):
        for argv in (["fock", "build"],
                     ["repr", "analyze", "--source", "fock"]):
            assert run(argv + [f"--j={j}"]) == 2
            assert capsys.readouterr().err.startswith(
                "error: j must be a positive odd half-integer")


def test_power_above_the_ceiling_is_usage_error(monkeypatch, capsys):
    # 5^6 states are refused before a tensor product is built
    def never(a, b):
        raise AssertionError("a tensor product was built")

    monkeypatch.setattr(replab, "tensor_product", never)
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "6"]) == 2
    assert capsys.readouterr().err == (
        "error: power 6 exceeds the largest supported tensor power, 5\n")


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
    cells = [v for row in payload["F[0,-1]"]["entries"] for v in row]
    assert cells and all("col" in v for v in cells)


def test_a_flipped_jordan_wigner_sign_fails_the_car_check(monkeypatch,
                                                          capsys):
    build_mode = fock.FockSpace._build_mode

    def flipped(space, k):
        # a+_1 |0> = |2> and its transpose entry in a_1, both negated
        adag, a = build_mode(space, k)
        if k == 1:
            adag[0], a[2] = {2: -1}, {0: -1}
        return adag, a

    monkeypatch.setattr(fock.FockSpace, "_build_mode", flipped)
    assert run(["fock", "build", "--j", "1/2"]) == 1
    [line] = [x for x in capsys.readouterr().out.splitlines()
              if "fock/car-relations" in x]
    assert line.startswith("FAIL    fock/car-relations  [")
    assert """{"violations": ["('{a,a}', 0, 1)", """ in line


def _flipped_generator_polynomial(monkeypatch, sign):
    # the first coefficient of the polynomial of F[0,-1]; sign is unused
    generator_polynomials = fock.generator_polynomials

    def flipped(space):
        polys = generator_polynomials(space)
        p = polys[GenIndex(0, -1, 2)]
        key = next(iter(p))
        p[key] = -p[key]
        return polys

    monkeypatch.setattr(fock, "generator_polynomials", flipped)


def _doubled_star_expression(monkeypatch, sign):
    star = cli.pf_hat_star_expression
    monkeypatch.setattr(cli, "pf_hat_star_expression", lambda n, s: (
        star(n, s).scale(2) if s == sign else star(n, s)))


def _flipped_pfaffian_coefficient(monkeypatch, sign):
    pfaffian = cli.pfaffian

    def flipped(I):
        x = pfaffian(I)
        if I != cli.hat_set(2, sign):
            return x
        w = next(iter(x.terms))
        return UEAElement(x.n, {**x.terms, w: -x.terms[w]})

    monkeypatch.setattr(cli, "pfaffian", flipped)


POLYNOMIAL_FOCK_FAULTS = [
    ("fock/bracket-table-45-pairs", _flipped_generator_polynomial, 1,
     '{"pairs": ["'),
    ("fock/star-expression-2hat", _doubled_star_expression, 1,
     '{"mismatch": "2hat"}'),
    ("fock/star-expression--2hat", _doubled_star_expression, -1,
     '{"mismatch": "-2hat"}'),
    ("fock/pf-2hat-commutes-with-o3", _flipped_pfaffian_coefficient, 1,
     '{"noncommuting": ["'),
    ("fock/pf--2hat-commutes-with-o3", _flipped_pfaffian_coefficient, -1,
     '{"noncommuting": ["'),
]


@pytest.mark.parametrize("check, fault, sign, witness",
                         POLYNOMIAL_FOCK_FAULTS,
                         ids=[case[0] for case in POLYNOMIAL_FOCK_FAULTS])
def test_a_fault_fails_each_polynomial_fock_check(monkeypatch, capsys, check,
                                                  fault, sign, witness):
    fault(monkeypatch, sign)
    assert run(["fock", "build", "--j", "1/2"]) == 1
    [line] = [x for x in capsys.readouterr().out.splitlines()
              if x.split()[1] == check]
    assert line.startswith(f"FAIL    {check}  [{witness}")


# the records are namedtuples; dataclasses would pull in inspect, ast,
# dis and tokenize, and every command would pay the import
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
DOMAIN = ("quasispin.fock", "quasispin.replab", "quasispin.tableaux", "csv")


@pytest.mark.parametrize("argv, unloaded", [
    (None, HEAVY + DOMAIN),
    (["verify", "identities", "--n", "1"], HEAVY + DOMAIN),
    (["fock", "build", "--j", "1/2"],
     HEAVY + ("quasispin.replab", "quasispin.tableaux")),
], ids=["import", "verify", "fock"])
def test_command_imports_only_its_modules(argv, unloaded):
    # each suite imports the domain modules it runs, so a stray top-level
    # import fails here before it costs every process its compile time
    src = str(Path(__file__).resolve().parents[1] / "src")
    run_it = "" if argv is None else f"quasispin.cli.main({argv!r}); "
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            f"import quasispin.cli; {run_it}"
            f"print([m for m in {unloaded!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("error", [AssertionError, ClassificationError,
                                   replab.NonDiagonalCartan])
def test_internal_error_is_a_failed_check(monkeypatch, tmp_path, capsys,
                                          error):
    def broken(rep):
        raise error("dimensions do not add up")

    monkeypatch.setattr(replab, "isotypic_types", broken)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "1", "--out", str(out)]) == 1
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    report = json.loads(out.read_text())
    for chk in report["checks"]:
        chk.pop("wall_time", None)
    assert report["checks"] == [{
        "id": "repr/internal-error", "status": "fail",
        "witness": {"error": f"{error.__name__}: dimensions do not add up"}}]


def _untimed(checks):
    return [(c.id, c.status, c.witness) for c in checks]


@pytest.mark.parametrize("source, arg, analyses", [
    ("fock", "1/2", 3), ("fock", "3/2", 6),
    pytest.param("fock", "5/2", 10, marks=pytest.mark.slow),
    ("defining-power", "0", 1), ("defining-power", "1", 1),
    ("defining-power", "2", 3), ("defining-power", "3", 4)])
def test_repr_shares_the_analysis_of_equal_irreps(monkeypatch, source, arg,
                                                  analyses):
    # the report analyses each isotypic type once and equals one that
    # analyses every copy extract_irreps yields on its own
    rep = cli.build_source(source, j=arg, power=arg)
    unshared = [c for irr in extract_irreps(rep)
                for c in cli.irrep_checks(irr)]
    analysed, own = [], []
    irrep_checks = cli.irrep_checks

    def counting(irr):
        analysed.append(irr)
        checks = irrep_checks(irr)
        own.extend(checks)
        return checks

    monkeypatch.setattr(cli, "irrep_checks", counting)
    report = cli.suite_repr(rep)
    assert _untimed(report.checks[2:]) == _untimed(unshared)
    assert len(analysed) == analyses
    # every check of an analysed type is timed, no repeated copy is
    assert all(c.wall_time is not None for c in own)
    assert [c for c in report.checks[2:] if c.wall_time is not None] == own


def test_repr_reports_a_corrupted_type_representative(monkeypatch, tmp_path,
                                                      capsys):
    # Fock(1/2) holds two copies of the spinor V(-1/2,-1/2), analysed
    # once: one flipped entry in its F[-2,-2] fails that one analysis
    isotypic_types = replab.isotypic_types
    analysed = []
    irrep_checks = cli.irrep_checks

    def flipped(rep):
        types = isotypic_types(rep)
        [(spinor, mult)] = [t for t in types if t[0].dim == 4]
        assert mult == 2
        cartan = spinor.genmats[GenIndex(-2, -2, 2)].cols
        cartan[0][0] = -cartan[0][0]
        return types

    def counting(irr):
        analysed.append(irr)
        return irrep_checks(irr)

    monkeypatch.setattr(cli, "irrep_checks", counting)
    monkeypatch.setattr(replab, "isotypic_types", flipped)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "fock", "--j", "1/2",
                "--out", str(out)]) == 1
    assert [irr.dim for irr in analysed] == [5, 4]
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    [check] = json.loads(out.read_text())["checks"]
    assert check["witness"]["error"].startswith(
        "AssertionError: omega fails to intertwine F[-2,-2]")


def test_repr_dimension_accounting_is_a_failed_check(monkeypatch, tmp_path,
                                                     capsys):
    # one raising-kernel vector dropped at the spinor weight of Fock(1/2):
    # the types miss a copy, and the sum of their dimensions fails the
    # check, while the analyses of every type are still reported
    spinor = replab.weight_decompose(replab.fock_representation(
        Fraction(1, 2)))[Weight((Fraction(-1, 2), Fraction(-1, 2)))]
    kernel_rows, dropped = replab.kernel_rows, []

    def dropping(rows, cols):
        kernel = kernel_rows(rows, cols)
        if cols == spinor and not dropped:
            dropped.append(kernel.pop())
        return kernel

    monkeypatch.setattr(replab, "kernel_rows", dropping)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "fock", "--j", "1/2",
                "--out", str(out)]) == 1
    assert len(dropped) == 1
    printed = capsys.readouterr().out
    assert "FAIL    repr/dimension-accounting" in printed
    assert "repr/internal-error" not in printed
    checks = json.loads(out.read_text())["checks"]
    [accounting] = [c for c in checks
                    if c["id"] == "repr/dimension-accounting"]
    assert accounting["witness"] == {"sum": 12, "ambient": 16}
    assert [c["id"] for c in checks if c["status"] == "fail"] == [
        "repr/dimension-accounting"]
    assert sum(c["id"].endswith("/slice-data") for c in checks) == 5


def test_repr_weyl_dimension_mismatch_is_a_failed_check(monkeypatch,
                                                        tmp_path, capsys):
    # a Weyl dimension one too large for V(0,-1): the repr/weyl-dimensions
    # check fails with the irrep as its witness, and the analysis of the
    # irrep is still reported
    weyl_dimension = cli.weyl_dimension

    def off_by_one(lam1, lam2):
        return weyl_dimension(lam1, lam2) + ((lam1, lam2) == (0, -1))

    monkeypatch.setattr(replab, "weyl_dimension", off_by_one)
    monkeypatch.setattr(cli, "weyl_dimension", off_by_one)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "1", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "FAIL    repr/weyl-dimensions" in printed
    assert "repr/internal-error" not in printed
    checks = json.loads(out.read_text())["checks"]
    assert [(c["id"], c.get("witness")) for c in checks
            if c["status"] == "fail"] == [
        ("repr/weyl-dimensions", {"irreps": ["0,-1"]})]
    assert "repr/0,-1/slice-data" in [c["id"] for c in checks]


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
    checks = json.loads(out.read_text())["checks"]
    for chk in checks:
        chk.pop("wall_time", None)
    assert checks == [{
        "id": "repr/internal-error", "status": "fail",
        "witness": {"error": "AssertionError: coordinate basis is not in "
                             "reduced echelon form"}}]


def test_repr_reports_an_image_leaving_the_irrep(monkeypatch, tmp_path,
                                                capsys):
    # F[-1,0] sends e_-2 (x) e_0 (position 2) to e_-2 (x) e_-1; one more
    # entry at e_-1 (x) e_-2 (position 5), of the same weight, takes the
    # image out of V(0,-2): the span gate on the simple generators fails
    tensor_power_representation = replab.tensor_power_representation

    def corrupted(power):
        rep = tensor_power_representation(power)
        op = rep.genmap[GenIndex(-1, 0, 2)]
        assert op.cols[2] == {1: 1}
        op.cols[2] = {1: 1, 5: 1}
        return rep

    monkeypatch.setattr(replab, "tensor_power_representation", corrupted)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "2", "--out", str(out)]) == 1
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    [check] = json.loads(out.read_text())["checks"]
    assert check["id"] == "repr/internal-error"
    assert check["witness"]["error"].startswith(
        "AssertionError: F[-1,0] image leaves the irrep span in <Irrep "
        "0,-2 dim 14 from defining^2>")


def test_repr_reports_a_projector_image_meeting_its_kernel(monkeypatch,
                                                           tmp_path, capsys):
    # f sending the tau0 = -1 vector of the adjoint in defining^2 onto its
    # o3-singlet, which spans ker(e) at weight (0, 0)
    isotypic_types = replab.isotypic_types

    def broken(rep):
        types = isotypic_types(rep)
        [adj] = [irr for irr, _ in types if irr.dim == 10]
        [singlet] = replab.multiplicity_slices(adj)[(0, 0)]
        [u] = adj.weight_positions[Weight((-1, 0))]
        adj.genmats[replab.O3_LOWERING].cols[u] = dict(singlet)
        return types

    monkeypatch.setattr(replab, "isotypic_types", broken)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "2", "--out", str(out)]) == 1
    assert "FAIL    repr/internal-error" in capsys.readouterr().out
    [check] = json.loads(out.read_text())["checks"]
    assert check["witness"]["error"].startswith(
        "AssertionError: ker(e) and im(f) do not split weight (0, 0)")


def _flipped_first_entry(op: LinOp) -> LinOp:
    c, col = next(iter(op.cols.items()))
    r = next(iter(col))
    return LinOp(op.dim, {**op.cols, c: {**col, r: -col[r]}})


def _one_slice_point_fewer(monkeypatch):
    slice_points = tableaux.Rectangle.slice_points

    def fewer(rect, N):
        info = slice_points(rect, N)
        return info and (*info[:2], info[2][1:])

    monkeypatch.setattr(tableaux.Rectangle, "slice_points", fewer)


def _flipped_projector_entry(monkeypatch):
    extremal_projector_o3 = replab.extremal_projector_o3

    def flipped(irr):
        proj, singular = extremal_projector_o3(irr)
        return _flipped_first_entry(proj), singular

    monkeypatch.setattr(replab, "extremal_projector_o3", flipped)


def _flipped_pfaffian_entry(monkeypatch):
    # one entry of PfF_{-2hat}, wherever it is nonzero
    pf_matrix = replab.Irrep.pf_matrix

    def flipped(irr, sign):
        op = pf_matrix(irr, sign)
        return op if sign > 0 or op.is_zero() else _flipped_first_entry(op)

    monkeypatch.setattr(replab.Irrep, "pf_matrix", flipped)


def _doubled_omega_block(monkeypatch):
    # Omega doubled on the highest weight block: Omega^2 is then twice
    # as large on that block and its mirror as elsewhere
    omega_operator = replab.omega_operator

    def doubled(irr):
        om = omega_operator(irr)
        for c in irr.weight_positions[irr.weights[0]]:
            om.cols[c] = {r: 2 * x for r, x in om.cols[c].items()}
        return om

    monkeypatch.setattr(replab, "omega_operator", doubled)


PER_IRREP_FAULTS = [
    ("slice-tableau-counts", _one_slice_point_fewer),
    ("extremal-projector", _flipped_projector_entry),
    ("omega-conjugates-pfaffians", _flipped_pfaffian_entry),
    ("omega-squared-central", _doubled_omega_block),
]


@pytest.mark.parametrize("family, fault", PER_IRREP_FAULTS,
                         ids=[family for family, _ in PER_IRREP_FAULTS])
def test_a_fault_fails_each_per_irrep_check(monkeypatch, tmp_path, capsys,
                                            family, fault):
    fault(monkeypatch)
    out = tmp_path / "report.json"
    assert run(["repr", "analyze", "--source", "defining-power",
                "--power", "2", "--out", str(out)]) == 1
    failed = [c for c in json.loads(out.read_text())["checks"]
              if c["status"] == "fail" and c["id"].endswith(f"/{family}")]
    assert failed and all(c["witness"] for c in failed)
    printed = capsys.readouterr().out.splitlines()
    for c in failed:
        key = c["id"].split("/")[1]
        assert c["witness"] == {"irrep": key}
        assert f'FAIL    {c["id"]}  [{{"irrep": "{key}"}}]' in printed
    assert not any("repr/internal-error" in line for line in printed)


def _classify_failures(monkeypatch, capsys, weight):
    """Run classify through main: (exit code, printed FAIL lines, the
    failed checks of its report)."""
    reports = []
    suite_classify = cli.suite_classify

    def keep(*weight):
        report, table = suite_classify(*weight)
        reports.append(report)
        return report, table

    monkeypatch.setattr(cli, "suite_classify", keep)
    code = run(["classify", f"--weight={weight}"])
    printed = capsys.readouterr().out
    [report] = reports
    return (code, [ln for ln in printed.splitlines() if ln.startswith("FAIL")],
            report.failed())


def test_singular_gammas_fail_the_gamma_winner(monkeypatch, capsys):
    # g1^2 = g2^2 at every point: both conventions are singular on every
    # sigma = 1 step, so no convention survives and the winner is none
    monkeypatch.setattr(tableaux, "gammas", lambda l21, l22, conv: (l21, l21))
    code, lines, failed = _classify_failures(monkeypatch, capsys, "-1,-2")
    assert code == 1
    assert lines == ['FAIL    classify/gamma-single-winner  '
                     '[{"winner": "none"}]']
    assert [(c.id, c.witness) for c in failed] == [
        ("classify/gamma-single-winner", {"winner": "none"})]


def test_an_empty_skeleton_fails_the_case_pattern(monkeypatch, capsys):
    # a skeleton with no columns has a barcode of length-0 intervals only
    # (every step of its chain is zero), which the computed chains, with
    # longer intervals, contradict
    hollow_skeleton(monkeypatch)
    code, lines, failed = _classify_failures(monkeypatch, capsys, "-1,-2")
    assert code == 1
    assert [ln.split()[:2] for ln in lines] == [
        ["FAIL", "classify/case-pattern"]]
    [check] = failed
    mismatches = check.witness["mismatches"]
    assert mismatches and {m["direction"] for m in mismatches} == {"up",
                                                                   "down"}
    for m in mismatches:
        assert all(a == b for a, b in m["barcodes"]["model"])
        assert any(a < b for a, b in m["barcodes"]["actual"])


def test_a_zeroed_down_map_fails_the_case_pattern(monkeypatch, capsys):
    # the up-chain matches the skeleton; the down chain, read with
    # N -> -N, splits the skeleton's interval [-1, 1] where the zeroed
    # map (now from -1 to 0) was
    zero_the_down_map_out_of_one(monkeypatch)
    code, lines, failed = _classify_failures(monkeypatch, capsys, "-1,-2")
    assert code == 1
    assert lines == [
        'FAIL    classify/case-pattern  [{"mismatches": [{"T": "-2", '
        '"direction": "down", "barcodes": {"actual": {"(-1, -1)": 1, '
        '"(0, 1)": 1}, "model": {"(-1, 1)": 1}}}]}]']
    [check] = failed
    [mismatch] = check.witness["mismatches"]
    assert (mismatch["T"], mismatch["direction"]) == (ZEROED_DOWN_T, "down")


def test_a_pfaffian_leaving_the_slices_is_an_internal_error(monkeypatch,
                                                           capsys):
    # PfF_{2-hat} replaced by the identity: each slice's image stays at
    # its own weight, outside the slice one N up, which the slice maps
    # of assign_k refuse
    pf_matrix = replab.Irrep.pf_matrix
    monkeypatch.setattr(
        replab.Irrep, "pf_matrix",
        lambda irr, sign: (LinOp.identity(irr.dim) if sign == 1
                           else pf_matrix(irr, sign)))
    assert run(["classify", "--weight=-1,-2"]) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("FAIL")]
    assert lines == [
        'FAIL    classify/internal-error  [{"error": "AssertionError: '
        'image of slice (-2,-1) not inside target slice (-2,0)"}]']


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


RATIONAL_TEXT = re.compile(r"-?\d+(/\d+)?")


def _wire_labels(value):
    """Every T, tau0 and N value at any depth of a wire value."""
    if isinstance(value, list):
        return [x for v in value for x in _wire_labels(v)]
    if isinstance(value, dict):
        return [x for k, v in value.items()
                for x in ([v] if k in ("T", "tau0", "N") else _wire_labels(v))]
    return []


def test_labels_stay_text_on_the_wire(tmp_path, capsys):
    # a label is an int when integral and the wire writes an int as a
    # JSON number, yet every T, tau0 and N of a table or a witness is
    # "p/q" text: the table, the n0 anomaly of V(-1,-2) and the probe
    # rows
    table = tmp_path / "table.json"
    assert run(["classify", "--weight=-1,-2", "--out", str(table)]) == 0
    witnesses = [json.loads(line.split("  [", 1)[1][:-1])
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("ANOMALY")]
    assert [w["kind"] for w in witnesses] == ["n0-two-sided-disagreement"]
    report = tmp_path / "report.json"
    assert run(["probe", "conventions", "--out", str(report)]) == 0
    probe = [c.get("witness") for c in json.loads(report.read_text())["checks"]]
    labels = {"table": _wire_labels(json.loads(table.read_text())["states"]),
              "classify witnesses": _wire_labels(witnesses),
              "probe witnesses": _wire_labels(probe)}
    for where, texts in labels.items():
        assert texts and "-1" in texts, where
        assert all(isinstance(x, str) and RATIONAL_TEXT.fullmatch(x)
                   for x in texts), where
    assert "-1/2" in labels["probe witnesses"]


@pytest.mark.parametrize("spoiled", [1, None], ids=["one-row", "every-row"])
def test_a_non_scalar_pf_sym_action_fails_the_probe(monkeypatch, tmp_path,
                                                    capsys, spoiled):
    # a slice vector that PfF_{-1,1} does not scale stays in the witness
    # as a row matching neither convention, so the check fails
    ratio, calls = replab._ratio, []

    def not_scalar(x, y):
        calls.append(1)
        return None if spoiled in (None, len(calls)) else ratio(x, y)

    monkeypatch.setattr(replab, "_ratio", not_scalar)
    out = tmp_path / "report.json"
    assert run(["probe", "conventions", "--out", str(out)]) == 1
    assert "FAIL    probe/0,-1/pf-sym-acts-as-F11" in capsys.readouterr().out
    [check] = [c for c in json.loads(out.read_text())["checks"]
               if c["id"] == "probe/0,-1/pf-sym-acts-as-F11"]
    rows = [r for r in check["witness"] if r["measured"] == "not scalar"]
    assert rows and not any(r["matches_F11_eigenvalue"] for r in rows)
    assert len(rows) == (1 if spoiled else len(check["witness"]))
