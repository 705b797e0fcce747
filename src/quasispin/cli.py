"""Command-line driver and verification orchestration.

Subcommands:
  verify identities --n {1,2,3} [--slow] [--seed S]
  fock build --j {1/2,3/2,5/2}
  repr analyze --source {fock,defining-power} [--j J] [--power P]
  classify --weight L1,L2 [--format json|csv]
                             (any o5 highest weight, 0 >= L1 >= L2)
  probe conventions

Exit codes: 0 all checks pass (anomalies allowed), 1 some check failed
(an internal error inside a suite is reported as the failed check
<command>/internal-error), 2 usage error.  --out writes the report or
table.  The suites time nothing themselves: each report stamps its
checks (see `report`).  `repr analyze` builds its source before the
suite creates its report, so that build is in no check's wall_time.
Each suite imports the domain modules it runs (`fock`, `replab`,
`tableaux`), so a command compiles and loads only those it needs.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from itertools import combinations

from .liealg import (canonical_generators, defining_matrices, index_range,
                     o3_subalgebra_generators, weyl_dimension, Weight)
from .linalg import LinOp, rref_rows
from .report import (Check, VerificationReport, classification_table,
                     write_output)
from .uea import (CheckResult, IndexSet, UEAElement, capelli,
                  check_corollary_split, check_lemma_l2, check_minorn,
                  check_split_formula, evaluate_in_representation, hat_set,
                  normal_order_rightmost, pf_hat_star_expression, pfaffian,
                  weight_shift_of)

DEFAULT_SEED = 20120521


def _labels_on_wire(entry: dict) -> dict:
    """entry with its labels T and N as Fractions, which the wire writes
    as "p/q" text (`report.serialize_value`).  A label is an int when
    integral, and the wire writes an int as a JSON number."""
    return {k: Fraction(v) if k in ("T", "N") else v
            for k, v in entry.items()}


def _sym_check(report, result, oracle=None):
    """Record a symbolic identity check plus its matrix-oracle shadow."""
    report.add(f"sym/{result.name}", result.equal,
               {"difference": repr(result.witness)})
    if oracle is not None:
        report.add(f"oracle/{result.name}", result.matrix_oracle(*oracle),
                   {"matrix_mismatch": result.name})


# -- verify identities ----------------------------------------------------


def suite_identities(n: int, slow: bool = False, seed: int = DEFAULT_SEED):
    report = VerificationReport(f"identities(o_{2 * n + 1})")
    rng = random.Random(seed)
    gens = canonical_generators(n)
    oracle = (defining_matrices(n), 2 * n + 1)
    idx = index_range(n)

    # commutator lemma, exhaustive over small even index sets
    sizes = [2, 4] if n >= 2 else [2]
    if slow and n >= 3:
        sizes.append(6)
    for size in sizes:
        ok_all, first_bad = True, None
        count = 0
        for combo in combinations(idx, size):
            I = IndexSet(combo, n)
            for j1 in idx:
                for j2 in idx:
                    if j1 == j2:
                        continue
                    r = check_lemma_l2(I, j1, j2)
                    count += 1
                    if not r:
                        ok_all = False
                        first_bad = first_bad or repr(r.witness)
                    if not r.matrix_oracle(*oracle):
                        ok_all = False
                        first_bad = first_bad or f"oracle {r.name}"
        report.add(f"lemma-l2/size-{size}", ok_all,
                   {"witness": first_bad, "cases": count})

    # splitting formulas
    if n >= 2:
        for combo in combinations(idx, 4):
            I = IndexSet(combo, n)
            for (p, q) in ((2, 2), (4, 0), (0, 4)):
                _sym_check(report, check_split_formula(I, p, q), oracle)
            _sym_check(report, check_corollary_split(I), oracle)
        for size in (2, 4):
            for combo in combinations(idx, size):
                if -n not in combo:
                    continue
                _sym_check(report, check_minorn(IndexSet(combo, n)), oracle)
    if slow and n >= 3:
        big = IndexSet(range(-n, 6 - n), n)  # {-n, ..., 5-n}
        for (p, q) in ((2, 4), (4, 2), (6, 0)):
            _sym_check(report, check_split_formula(big, p, q), oracle)
        _sym_check(report, check_minorn(big), oracle)

    # Capelli centrality
    ks = [2] if n == 1 else [2, 4]
    for k in ks:
        c = capelli(k, n)
        bad = []
        for g in gens:
            comm = c.commutator(UEAElement.gen(g))
            if not comm.normal_order().is_zero():
                bad.append(repr(g))
            if not evaluate_in_representation(comm, *oracle).is_zero():
                bad.append(f"oracle:{g!r}")
        report.add(f"capelli/C{k}-central", not bad, {"noncommuting": bad})

    # weight shifts of Pfaffians
    bad = []
    for size in range(2, 2 * n + 2, 2):
        for combo in combinations(idx, size):
            I = IndexSet(combo, n)
            shift = weight_shift_of(pfaffian(I))
            want = Weight.zero(n)
            for i in combo:
                want = want - Weight.e(i, n)
            if pfaffian(I).is_zero():
                continue
            if shift != want:
                bad.append(str(combo))
    for sign, label in ((1, "nhat"), (-1, "-nhat")):
        shift = weight_shift_of(pfaffian(hat_set(n, sign)))
        want = Weight.e(n, n) if sign > 0 else -Weight.e(n, n)
        if shift != want:
            bad.append(label)
    report.add("pfaffian/weight-shifts", not bad, {"mixed_or_wrong": bad})

    # o3 commutation of the hat Pfaffians
    sub = o3_subalgebra_generators(n)
    for sign, label in ((1, "nhat"), (-1, "-nhat")):
        pf = pfaffian(hat_set(n, sign))
        bad = [repr(g) for g in sub
               if not pf.commutator(UEAElement.gen(g)).normal_order().is_zero()]
        report.add(f"pfaffian/{label}-commutes-with-o{2 * n - 1}", not bad,
                   {"noncommuting": bad})

    # star-product dictionary expressions (o5 only)
    if n == 2:
        for sign, label in ((1, "2hat"), (-1, "-2hat")):
            _sym_check(report, CheckResult(
                f"star-{label}", pfaffian(hat_set(n, sign)),
                pf_hat_star_expression(n, sign)), oracle)

    # PBW confluence evidence on random words
    bad = []
    for trial in range(40):
        length = rng.randint(2, 4)
        word = tuple(rng.choice(gens) for _ in range(length))
        x = UEAElement(n, {word: 1})
        a = x.normal_order()
        b = normal_order_rightmost(x)
        if not (a - b).is_zero() or not (a.normal_order() - a).is_zero():
            bad.append(repr(word))
        if not (evaluate_in_representation(x, *oracle)
                == evaluate_in_representation(a, *oracle)):
            bad.append(f"oracle:{word!r}")
    report.add("pbw/confluence-random", not bad, {"words": bad})

    # bilinearity spot checks of the concatenation product
    bad = []
    for trial in range(10):
        xs = [UEAElement.gen(rng.choice(gens)) for _ in range(3)]
        lhs = (xs[0] + xs[1]) * xs[2]
        rhs = xs[0] * xs[2] + xs[1] * xs[2]
        if not (lhs - rhs).normal_order().is_zero():
            bad.append(trial)
    report.add("uea/bilinearity", not bad, {"trials": bad})
    return report


# -- fock ----------------------------------------------------------------


def suite_fock(j):
    """(report, Fock space) of `fock build`."""
    from . import fock
    report = VerificationReport(f"fock(j={j})")
    space = fock.FockSpace(j)
    violations = space.car_violations()
    report.add("fock/car-relations", not violations,
               {"violations": [str(v) for v in violations]})
    number = fock.read_off(space, fock.quasispin_polynomials(space)["N"])
    nvac = number.apply(space.vacuum())
    want = {0: -Fraction(2 * Fraction(j) + 1, 2)}
    report.add("fock/number-on-vacuum", nvac == want, {"got": nvac})
    # the brackets, star expressions and o3 commutation are decided on
    # the fermion polynomials, which the CAR check makes faithful; they
    # hold for the exported genmap because it is read off the same
    # polynomials (pinned by the differential tests in test_fock.py)
    polys = fock.generator_polynomials(space)
    viol = fock.bracket_violations(polys)
    report.add("fock/bracket-table-45-pairs", not viol,
               {"pairs": [f"{a!r},{b!r}" for a, b in viol]})
    dictionary = {f"F[{i},{j}]": (name, fock.format_sqrt2_power(c, k))
                  for (i, j), (name, c, k) in fock.DICTIONARY.items()}
    report.add_anomaly("fock/corrected-formulas",
                       {"note": "conventional tau0/A(0)/B(0)/B(1) and the "
                                "dictionary signs of A(1)/B(1) corrected; "
                                "B(X) realized as the adjoint of A(X)",
                        "formulas": fock.CORRECTED_FORMULAS,
                        "dictionary": dictionary})
    # the Pfaffians match the star-product expressions
    pf_polys = {}
    for sign, label in ((1, "2hat"), (-1, "-2hat")):
        lhs = pf_polys[sign] = fock.evaluate_polynomial(
            pfaffian(hat_set(2, sign)), polys)
        rhs = fock.evaluate_polynomial(pf_hat_star_expression(2, sign), polys)
        report.add(f"fock/star-expression-{label}", lhs == rhs,
                   {"mismatch": label})
    # o3 commutation of the hat Pfaffians
    sub = o3_subalgebra_generators(2)
    for sign, label in ((1, "2hat"), (-1, "-2hat")):
        bad = [repr(g) for g in sub
               if fock.commutator(polys[g], pf_polys[sign])]
        report.add(f"fock/pf-{label}-commutes-with-o3", not bad,
                   {"noncommuting": bad})
    return report, space


# -- repr analyze ---------------------------------------------------------


def build_source(source: str, j=None, power=None) -> replab.Representation:
    from . import replab
    if source == "fock":
        return replab.fock_representation(Fraction(j))
    if source == "defining-power":
        return replab.tensor_power_representation(int(power))
    raise ValueError(f"unknown source {source!r}")


def irrep_checks(irr: replab.Irrep) -> list:
    """The per-irrep checks of `repr analyze`.  They read the genmats,
    weights and highest weight of irr, never its basis."""
    from . import replab, tableaux
    report = VerificationReport(repr(irr))
    key = replab.weight_text(irr.highest_weight)
    slices = replab.multiplicity_slices(irr)
    counts_ok = True
    for (T, N), basis in slices.items():
        rect = tableaux.Rectangle(irr.highest_weight[0],
                                  irr.highest_weight[1], T)
        info = rect.slice_points(N)
        model_dim = len(info[2]) if info else 0
        if model_dim != len(basis):
            counts_ok = False
    report.add(f"repr/{key}/slice-tableau-counts", counts_ok, {"irrep": key})
    P, singular = replab.extremal_projector_o3(irr)
    e = irr.genmats[replab.O3_RAISING]
    f = irr.genmats[replab.O3_LOWERING]
    # image ker(e), spanned by the slices, and kernel im(f); P = 0 fails
    ok = ((P @ P) == P and (e @ P).is_zero() and (P @ f).is_zero()
          and all(P.apply(v) == v for b in slices.values() for v in b))
    report.add(f"repr/{key}/extremal-projector", ok, {"irrep": key})
    if singular:
        report.add_anomaly(
            f"repr/{key}/projector-series-singular",
            {"weights": [str(tuple(map(str, w.comps)))
                         for w in singular],
             "note": "series denominators vanish there; the algebraic "
                     "projector is used and cross-checked on the "
                     "nonsingular blocks"})
    om = replab.omega_operator(irr)
    conj = (om @ irr.pf_matrix(-1)) == (irr.pf_matrix(+1) @ om).scale(-1)
    report.add(f"repr/{key}/omega-conjugates-pfaffians", conj, {"irrep": key})
    # Omega^2 commutes with every M(g), since omega is an involution,
    # so on an irrep it is a scalar (Schur); a scalar is central
    om2 = om @ om
    scalar = om2 == LinOp.identity(irr.dim).scale(om2.entry(0, 0))
    report.add(f"repr/{key}/omega-squared-central", scalar, {"irrep": key})
    # machine-readable slice data: dimensions and Pfaffian map ranks
    slice_data = {}
    for T in sorted({t for (t, _) in slices}):
        ups, downs = replab.pf_slice_maps(irr, T)
        for N in sorted(ups):
            slice_data[f"T={T},N={N}"] = {
                "dim": len(slices[(T, N)]),
                "up_rank": len(rref_rows(ups[N].values())),
                "down_rank": len(rref_rows(downs[N].values())),
            }
    report.add_data(f"repr/{key}/slice-data", slice_data)
    return report.checks


def suite_repr(rep: replab.Representation) -> VerificationReport:
    from . import replab
    report = VerificationReport(f"repr({rep.label})")
    types = replab.isotypic_types(rep)
    total = sum(mult * irr.dim for irr, mult in types)
    report.add("repr/dimension-accounting", total == rep.dim,
               {"sum": total, "ambient": rep.dim})
    bad = [replab.weight_text(irr.highest_weight) for irr, _ in types
           if irr.dim != weyl_dimension(*irr.highest_weight)]
    report.add("repr/weyl-dimensions", not bad, {"irreps": bad})
    # one analysis per type; its further copies repeat the checks, untimed
    for irr, mult in types:
        checks = irrep_checks(irr)
        report.checks.extend(checks)
        report.checks.extend(Check(c.id, c.status, c.witness)
                             for _ in range(mult - 1) for c in checks)
    return report


# -- classify -------------------------------------------------------------

def suite_classify(lam1, lam2):
    from . import replab, tableaux
    report = VerificationReport(f"classify({lam1},{lam2})")
    ntab = len(tableaux.enumerate_tableaux(lam1, lam2))
    wd = weyl_dimension(lam1, lam2)
    report.add("classify/tableau-count", ntab == wd,
               {"tableaux": ntab, "weyl": wd})
    irr = replab.irrep_of_weight((lam1, lam2))
    try:
        result = tableaux.validate_against_representation(irr)
    except tableaux.ClassificationError as ex:
        report.add("classify/assign-k", False, {"error": str(ex)})
        return report, None
    states = result["states"]
    report.add("classify/assign-k", True)
    labels = [s.label() for s in states]
    distinct = len(set(labels))
    report.add("classify/labels-distinct-complete",
               len(labels) == distinct == irr.dim,
               {"labels": len(labels), "distinct": distinct, "dim": irr.dim})
    report.add("classify/case-pattern", not result["case_mismatches"],
               {"mismatches": list(map(_labels_on_wire,
                                       result["case_mismatches"]))})
    for anom in result["anomalies"]:
        report.add_anomaly(f"classify/{anom['kind']}", _labels_on_wire(anom))
    report.add("classify/gamma-single-winner",
               result["gamma_winner"] in ("proof-text", "definition", "tie"),
               {"winner": result["gamma_winner"]})
    table = classification_table(irr.highest_weight, states)
    table["gamma_winner"] = result["gamma_winner"]
    return report, table


# -- probes ---------------------------------------------------------------

# the weights probed; their order is that of the gamma-winner witness lists
PROBE_WEIGHTS = ("0,-1", "-1/2,-1/2", "0,0", "0,-2", "-1/2,-3/2", "-1,-1",
                 "0,-3", "-1,-2")


def suite_probe():
    from . import replab, tableaux
    report = VerificationReport("probe(conventions)")
    winners = {}
    for weight in PROBE_WEIGHTS:
        irr = replab.irrep_of_weight(_parse_weight(weight))
        key = replab.weight_text(irr.highest_weight)
        probe = replab.tps_scalar_probe(irr)
        sym_rows = list(map(_labels_on_wire, probe["pf_sym_scalar"]))
        all_match_f11 = all(r["matches_F11_eigenvalue"] for r in sym_rows)
        any_match_d1 = any(r["matches_D1"] for r in sym_rows)
        report.add(f"probe/{key}/pf-sym-acts-as-F11", all_match_f11, sym_rows)
        if sym_rows and not any_match_d1:
            report.add_anomaly(
                f"probe/{key}/D1-convention-shift",
                {"note": "PfF_{-1,1} acts as F_11, not as "
                         "D_1(F_11) = F_11 + 1/2",
                 "rows": sym_rows})
        if probe["c_constant"]:
            report.add_anomaly(
                f"probe/{key}/c-constant-measured",
                {"note": "scalar c(T) with p.PfF_2hat = c(T) p.F_20 "
                         "on o3-highest vectors; measured, since the "
                         "received closed forms are ambiguous",
                 "fits_c(T)=1-T": probe["c_fits_one_minus_T"],
                 "rows": list(map(_labels_on_wire, probe["c_constant"]))})
        val = tableaux.validate_against_representation(irr)
        winners.setdefault(val["gamma_winner"], []).append(key)
        report.add_anomaly(
            f"probe/{key}/roundtrip-charpolys",
            {f"T={t},N={nn}": cp
             for (t, nn), cp in val["roundtrip_charpolys"].items()})
    decisive = [w for w in winners if w not in ("tie",)]
    unique = len(decisive) == 1 and decisive[0] != "none"
    report.add("probe/gamma-winner-unique", unique, {"winners": winners})
    if unique:
        report.add_anomaly("probe/gamma-winner",
                           {"convention": decisive[0],
                            "support": winners.get(decisive[0], []),
                            "undecided": winners.get("tie", [])})
    return report


# -- argument plumbing ----------------------------------------------------


def _parse_weight(s: str):
    try:
        a, b = s.split(",")
        return Fraction(a), Fraction(b)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"weight must look like '0,-1' or '-1/2,-3/2', got {s!r}")


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report/table to this path")

    p = argparse.ArgumentParser(prog="quasispin")
    p.set_defaults(format="json")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="symbolic identity suites",
                       parents=[common])
    v.add_argument("what", choices=("identities",))
    v.add_argument("--n", type=int, choices=(1, 2, 3), default=2)
    v.add_argument("--slow", action="store_true")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)

    f = sub.add_parser("fock", help="Fock-space ground truth",
                       parents=[common])
    f.add_argument("what", choices=("build",))
    f.add_argument("--j", type=Fraction, required=True)

    r = sub.add_parser("repr", help="representation analysis",
                       parents=[common])
    r.add_argument("what", choices=("analyze",))
    r.add_argument("--source", choices=("fock", "defining-power"),
                   required=True)
    r.add_argument("--j", type=Fraction)
    r.add_argument("--power", type=int)

    c = sub.add_parser("classify", help="fourth-quantum-number table",
                       parents=[common])
    c.add_argument("--weight", type=_parse_weight, required=True)
    c.add_argument("--format", choices=("json", "csv"), default="json")

    pr = sub.add_parser("probe", help="convention probes", parents=[common])
    pr.add_argument("what", choices=("conventions",))
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    genmap = table = None
    try:
        if args.command == "verify":
            report = suite_identities(args.n, slow=args.slow, seed=args.seed)
        elif args.command == "fock":
            report, space = suite_fock(args.j)
            if args.out:  # the generator map is built for the export alone
                from . import fock
                genmap = fock.dictionary_to_o5(space)
        elif args.command == "repr":
            if args.source == "fock" and args.j is None:
                parser.error("--source fock needs --j")
            if args.source == "defining-power" and args.power is None:
                parser.error("--source defining-power needs --power")
            report = suite_repr(build_source(args.source, j=args.j,
                                             power=args.power))
        elif args.command == "classify":
            report, table = suite_classify(*args.weight)
        elif args.command == "probe":
            report = suite_probe()
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except AssertionError as ex:
        # an internal contradiction (ClassificationError and
        # NonDiagonalCartan included) is a failed check with the error
        # as its witness, not a traceback
        report = VerificationReport(args.command)
        report.add(f"{args.command}/internal-error", False,
                   {"error": f"{type(ex).__name__}: {ex}"})
    for line in report.summary_lines():
        print(line)
    if args.out and args.format == "csv" and table is None:
        print("error: no classification table to write as csv",
              file=sys.stderr)
    elif args.out:
        try:
            if genmap is not None:
                from . import fock
                fock.write_genmap(args.out, genmap)
            else:
                write_output(args.out, table if table is not None
                             else report.to_json(), args.format)
        except OSError as ex:
            print(f"error: cannot write {args.out}: {ex.strerror or ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
