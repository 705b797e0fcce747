"""Acceptance gate: one test per criterion, printing one verdict line each.

Criterion 7 checks that the fourth quantum number labels every irrep of
the corpus and that `assign_k` records exactly the two documented
anomalies of the classical two-sided construction: the N=0 two-sided
disagreement (on the (-1,-2) irrep at T=-1 only) and the raising claim
across the half-integer seam (on every seam of every spinor irrep).
Each recorded anomaly is matched against a witness recomputed from the
Pfaffian slice maps alone, so a lost, new or misplaced anomaly fails the
gate, and the verdict line prints the witnesses.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from quasispin.fock import CORRECTED_FORMULAS
from quasispin.liealg import (Weight, canonical_generators, defining_matrices,
                              o3_subalgebra_generators, weyl_dimension)
from quasispin.linalg import (LinOp, characteristic_polynomial, rref_rows,
                              svec_map)
from quasispin.replab import (O3_LOWERING, O3_RAISING, _restrict_to_slices,
                              extremal_projector_o3,
                              fock_representation, multiplicity_slices,
                              omega_operator, pf_slice_maps,
                              tensor_power_representation, tps_scalar_probe)
from quasispin.tableaux import (Rectangle, assign_k, enumerate_tableaux,
                                validate_against_representation)
from quasispin.uea import (IndexSet, UEAElement, capelli,
                           check_corollary_split, check_lemma_l2,
                           check_minorn, check_split_formula,
                           evaluate_in_representation, hat_set, pfaffian,
                           weight_shift_of)
from fock_reference import build_o5_on_fock, verify_representation
from test_linalg import commutator
from test_replab import extract_irreps, t_ladder, theta_transport
from test_tableaux import quantum_numbers

F = Fraction
IDX5 = [-2, -1, 0, 1, 2]
ORACLE5 = (defining_matrices(2), 5)
HALF = F(1, 2)
# the two documented anomalies of the two-sided k construction
N0_DISAGREEMENT = "n0-two-sided-disagreement"
SEAM_UP, SEAM_DOWN = "seam-raising-up", "seam-raising-down"
ANOMALY_KINDS = (N0_DISAGREEMENT, SEAM_UP, SEAM_DOWN)


def verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _symbolic_core_checks():
    """The criterion-1/2 identity inventory, shared with criterion 3."""
    checks = []
    for size in (2, 4):
        for combo in combinations(IDX5, size):
            I = IndexSet(combo, 2)
            for j1 in IDX5:
                for j2 in IDX5:
                    if j1 != j2:
                        checks.append(check_lemma_l2(I, j1, j2))
    for combo in combinations(IDX5, 4):
        I = IndexSet(combo, 2)
        for p, q in ((2, 2), (4, 0), (0, 4)):
            checks.append(check_split_formula(I, p, q))
        checks.append(check_corollary_split(I))
    for size in (2, 4):
        for combo in combinations(IDX5, size):
            if -2 in combo:
                checks.append(check_minorn(IndexSet(combo, 2)))
    return checks


@pytest.fixture(scope="module")
def symbolic_checks():
    return _symbolic_core_checks()


@pytest.fixture(scope="module")
def corpus():
    """Every irrep (all copies) of the acceptance representation sources."""
    out = []
    for label, maker in (
            ("fock(1/2)", lambda: fock_representation(F(1, 2))),
            ("fock(3/2)", lambda: fock_representation(F(3, 2))),
            ("defining^1", lambda: tensor_power_representation(1)),
            ("defining^2", lambda: tensor_power_representation(2)),
            ("defining^3", lambda: tensor_power_representation(3))):
        rep = maker()
        out.append((label, extract_irreps(rep)))
    return out


def test_criterion_1_symbolic_identities(symbolic_checks):
    t0 = time.perf_counter()
    gens = canonical_generators(2)
    bad = []
    for k in (2, 4):
        c = capelli(k, 2)
        for g in gens:
            if not c.commutator(UEAElement.gen(g)).normal_order().is_zero():
                bad.append(f"C{k} vs {g!r}")
    l2 = [c for c in symbolic_checks if c.name.startswith("l2[")]
    bad += [c.name for c in l2 if not c.equal]
    elapsed = time.perf_counter() - t0
    ok = verdict(1, not bad,
                 f"Capelli C2/C4 central, lemma-l2 exhaustive "
                 f"({len(l2)} cases) in {elapsed:.1f}s"
                 + (f"; failures: {bad[:3]}" if bad else ""))
    assert ok


def test_criterion_2_splitting_formulas(symbolic_checks):
    named = [c for c in symbolic_checks
             if c.name.startswith(("split[", "corl2[", "minorn["))]
    bad = [c.name for c in named if not c.equal]
    ok = verdict(2, not bad,
                 f"splitting/minor formulas exact ({len(named)} identities)"
                 + (f"; failures: {bad[:3]}" if bad else ""))
    assert ok


def test_criterion_3_matrix_oracle(symbolic_checks):
    bad = [c.name for c in symbolic_checks if not c.matrix_oracle(*ORACLE5)]
    gens = canonical_generators(2)
    for k in (2, 4):
        c = capelli(k, 2)
        for g in gens:
            m = evaluate_in_representation(
                c.commutator(UEAElement.gen(g)), *ORACLE5)
            if not m.is_zero():
                bad.append(f"C{k} oracle")
    ok = verdict(3, not bad,
                 f"all {len(symbolic_checks)} identities re-verified in the "
                 f"defining representation"
                 + (f"; failures: {bad[:3]}" if bad else ""))
    assert ok


def test_criterion_4_fock_ground_truth():
    bad = []
    for j in (F(1, 2), F(3, 2)):
        space, _, genmap = build_o5_on_fock(j)
        if space.car_violations():
            bad.append(f"CAR j={j}")
        if verify_representation(genmap):
            bad.append(f"brackets j={j}")
    assert "B(0)" in CORRECTED_FORMULAS  # corrected forms are on record
    ok = verdict(4, not bad,
                 "CAR exhaustive and 45-pair dictionary representation exact "
                 "for j=1/2, 3/2 (corrected A(0)/B(X)/tau0 recorded)"
                 + (f"; failures: {bad}" if bad else ""))
    assert ok


def test_criterion_5_pfaffian_weight_and_o3_commutation():
    bad = []
    if weight_shift_of(pfaffian(hat_set(2, 1))) != Weight((0, 1)):
        bad.append("shift 2hat")
    if weight_shift_of(pfaffian(hat_set(2, -1))) != Weight((0, -1)):
        bad.append("shift -2hat")
    sub = o3_subalgebra_generators(2)
    for sign in (1, -1):
        pf = pfaffian(hat_set(2, sign))
        for g in sub:
            if not pf.commutator(UEAElement.gen(g)).normal_order().is_zero():
                bad.append(f"symbolic [Pf,{g!r}]")
    for j in (F(1, 2), F(3, 2)):
        space, _, genmap = build_o5_on_fock(j)
        for sign in (1, -1):
            op = LinOp(space.dim)
            ident = LinOp.identity(space.dim)
            for w, c in pfaffian(hat_set(2, sign)).terms.items():
                m = ident
                for g in w:
                    m = m @ genmap[g]
                op = op + m.scale(F(c))
            for g in sub:
                if not commutator(op, genmap[g]).is_zero():
                    bad.append(f"matrix [Pf,{g!r}] j={j}")
    ok = verdict(5, not bad,
                 "weight shifts are +-e_2 and [PfF_{+-2hat}, o3] = 0 "
                 "symbolically and on Fock(1/2), Fock(3/2)"
                 + (f"; failures: {bad[:3]}" if bad else ""))
    assert ok


def test_criterion_6_tableau_dimension_oracle():
    t0 = time.perf_counter()
    lams = []
    v1 = F(0)
    while v1 >= -4:
        v2 = v1
        while v2 >= -4:
            lams.append((v1, v2))
            v2 -= 1
        v1 -= 1
    v1 = F(-1, 2)
    while v1 >= F(-7, 2):
        v2 = v1
        while v2 >= F(-7, 2):
            lams.append((v1, v2))
            v2 -= 1
        v1 -= 1
    bad = [lam for lam in lams
           if len(enumerate_tableaux(*lam)) != weyl_dimension(*lam)]
    elapsed = time.perf_counter() - t0
    # hand-verified case (0,-1): slice split over (T, N)
    counts = {}
    for t in enumerate_tableaux(0, -1):
        T, tau0, N = quantum_numbers(t)
        counts[(T, N)] = counts.get((T, N), 0) + 1
    split_ok = counts == {(F(0), F(1)): 1, (F(0), F(-1)): 1,
                          (F(-1), F(0)): 3}
    ok = verdict(6, not bad and split_ok and elapsed < 1.0,
                 f"{len(lams)} weights: tableau count == Weyl dimension in "
                 f"{elapsed:.3f}s; (0,-1) split "
                 f"{{T=0: N=+-1 singlets, T=-1: N=0 triplet}}: {split_ok}")
    assert ok


def _fmt_weight(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _rank(cols):
    """The rank of a map given by its sparse columns."""
    return len(rref_rows(cols.values()))


def _same_column_space(a, b):
    return _rank(a) == _rank(b) == len(rref_rows([*a.values(), *b.values()]))


def _chain_images(maps, step, dim):
    """Composed slice-map chains arriving at N = 0, one map per level, as
    sparse columns.

    maps[N] carries V+_{T,N} to V+_{T,N+step}; dim is that of V+_{T,0}.
    Level m is the product of the m maps leading from N = -m*step to
    N = 0 (level 0 the identity); the chain stops at a missing slice or
    when the product vanishes, so the column spaces are the image
    filtration built from that side.
    """
    chain = LinOp.identity(dim).cols
    levels = [chain]
    N = F(-step)
    while N in maps:
        chain = {c: img for c, col in maps[N].items()
                 if (img := svec_map(chain, col))}
        if not chain:
            break
        levels.append(chain)
        N -= step
    return levels


def _n0_disagreement_witness(irr, T, ups, downs):
    """Compare the PfF_{2hat} images from below with the PfF_{-2hat}
    images from above on V+_{T,0}; None when the two filtrations agree."""
    ladder = t_ladder(irr, T)
    dim = len(ladder[F(0)])
    below = _chain_images(ups, +1, dim)
    above = _chain_images(downs, -1, dim)
    differ = [m for m, (b, a) in enumerate(zip(below, above))
              if not _same_column_space(b, a)]
    if not differ and len(below) == len(above):
        return None
    theta = LinOp(dim, _restrict_to_slices(
        theta_transport(irr, omega_operator(irr), T), ladder, T, 0, 0))
    ident = LinOp.identity(dim)
    square = theta @ theta
    return {"below": [_rank(m) for m in below],
            "above": [_rank(m) for m in above],
            "differ_at": differ,
            "theta_scalar": theta == ident.scale(theta.entry(0, 0)),
            "theta_square_scalar": (bool(square.entry(0, 0)) and square
                                    == ident.scale(square.entry(0, 0))),
            "theta_charpoly": characteristic_polynomial(theta)}


def test_criterion_7_fourth_quantum_number(corpus):
    """assign_k labels every irrep and records exactly the two documented
    anomalies of the two-sided construction, each against a witness
    computed here from the Pfaffian slice maps alone:

    - n0-two-sided-disagreement wherever the PfF_{2hat} filtration from
      below and the PfF_{-2hat} filtration from above differ on an N = 0
      slice.  In this corpus that is (-1,-2) at T = -1 only; there the
      k-multisets agree and the reflection theta on the slice is not a
      scalar but its square is, whatever Omega's normalisation.
    - seam-raising-up/-down at N = -1/2 / +1/2 wherever the seam map is
      nonzero.  On a one-dimensional seam slice the reflection rule gives
      the N = +-1/2 states the same k, while raising-increments-k needs
      k + 1, so the two rules coexist only if the seam map vanishes; it
      vanishes on no seam of the corpus.
    """
    t0 = time.perf_counter()
    hard_failures = []
    classified = []
    for label, irreps in corpus:
        for i, irr in enumerate(irreps):
            try:
                states, data = assign_k(irr)
            except Exception as ex:
                hard_failures.append(f"{label}:{irr.highest_weight}: {ex}")
                continue
            labels = [s.label() for s in states]
            if len(labels) != irr.dim or len(set(labels)) != irr.dim:
                hard_failures.append(
                    f"{label}:{irr.highest_weight}: label count/distinctness")
            classified.append((f"{label}#{i}", irr, data["anomalies"]))
    elapsed = time.perf_counter() - t0

    problems = []
    recorded, witnessed = {}, {}
    seams = 0
    for where, irr, anomalies in classified:
        hw = _fmt_weight(irr.highest_weight)
        for anom in anomalies:
            kind = anom["kind"]
            if kind not in ANOMALY_KINDS:
                problems.append(f"unknown anomaly kind {kind!r} on {where} "
                                f"{hw}: {anom}")
                continue
            recorded[(where, hw, kind, anom["T"], anom.get("N", F(0)))] = anom
        slices = multiplicity_slices(irr)
        for T in sorted({t for (t, _) in slices}):
            ups, downs = pf_slice_maps(irr, T)
            if F(0) in ups:
                w = _n0_disagreement_witness(irr, T, ups, downs)
                if w is not None:
                    witnessed[(where, hw, N0_DISAGREEMENT, T, F(0))] = w
            if -HALF not in ups or HALF not in ups:
                continue
            seams += 1
            for kind, N, m in ((SEAM_UP, -HALF, ups[-HALF]),
                               (SEAM_DOWN, HALF, downs[HALF])):
                if (len(slices[(T, N)]), len(slices[(T, -N)])) != (1, 1):
                    problems.append(
                        f"seam slice of dimension > 1 at {where} {hw} T={T}: "
                        f"the nonzero-map witness does not apply")
                if _rank(m):
                    witnessed[(where, hw, kind, T, N)] = {"rank": _rank(m)}

    for key in sorted(set(recorded) | set(witnessed), key=str):
        where, hw, kind, T, N = key
        at = f"{kind} at {where} {hw} T={T} N={N}"
        if key not in witnessed:
            problems.append(f"{at} recorded, but the slice maps show no "
                            f"contradiction there")
        elif key not in recorded:
            problems.append(f"{at} not recorded, but the slice maps show "
                            f"one: {witnessed[key]}")
        elif kind == N0_DISAGREEMENT:
            anom, w = recorded[key], witnessed[key]
            if anom["level_dims"] != w["below"] or w["below"] != w["above"]:
                problems.append(f"{at}: k-multisets differ or the payload "
                                f"level dims are wrong: payload {anom}, "
                                f"witness {w}")
            if w["theta_scalar"] or not w["theta_square_scalar"]:
                problems.append(f"{at}: theta on the slice should be "
                                f"non-scalar with scalar square: {w}")
    n0 = {k: w for k, w in witnessed.items() if k[2] == N0_DISAGREEMENT}
    n0_sites = sorted({(hw, T) for (_, hw, _, T, _) in n0}, key=str)
    if n0_sites != [("(-1,-2)", F(-1))]:
        problems.append(f"N=0 disagreement inventory changed: {n0_sites} "
                        f"(expected (-1,-2) at T=-1 only)")
    seam_keys = [k for k in witnessed if k[2] != N0_DISAGREEMENT]
    if len(seam_keys) != 2 * seams:
        problems.append(f"only {len(seam_keys)} of the {2 * seams} seam maps "
                        f"are nonzero")

    seam_irreps = sorted({(where, hw) for (where, hw, *_) in seam_keys})
    seam_weights = sorted({hw for (_, hw) in seam_irreps})
    n0_detail = "; ".join(
        f"{where} {hw} T={T}: level dims below {w['below']} = above "
        f"{w['above']} but the spans differ at levels {w['differ_at']}, "
        f"theta non-scalar with char poly coefficients "
        f"{w['theta_charpoly']}"
        for (where, hw, _, T, _), w in sorted(n0.items(), key=str))
    ok = not hard_failures and not problems and elapsed <= 120
    detail = (f"{len(classified)} irreps classified in {elapsed:.1f}s; labels "
              f"complete and distinct everywhere; the slice maps show the "
              f"N=0 two-sided disagreement on {len(n0)} irrep instances "
              f"({n0_detail}) and {len(seam_keys)} nonzero half-integer seam "
              f"maps on {len(seam_irreps)} spinor irrep instances of weights "
              f"{', '.join(seam_weights)} ({seams} (irrep instance, T) "
              f"seams)")
    if not problems:
        detail += "; the recorded anomalies match these witnesses exactly"
    if hard_failures:
        detail += f"; HARD failures: {hard_failures[:3]}"
    if problems:
        detail += f"; anomaly inventory wrong: {problems[:3]}"
    verdict(7, ok, detail)
    assert not hard_failures, hard_failures
    assert elapsed <= 120
    assert not problems, problems


def test_criterion_8_raising_model_validation(corpus):
    t0 = time.perf_counter()
    case_bad = []
    winners = {}
    seen = set()
    for label, irreps in corpus:
        for irr in irreps:
            if irr.highest_weight in seen:
                continue
            seen.add(irr.highest_weight)
            report = validate_against_representation(irr)
            if report["case_mismatches"]:
                case_bad.append(f"{label}:{irr.highest_weight}")
            winners.setdefault(report["gamma_winner"], set()).add(
                irr.highest_weight)
            lam1, lam2 = irr.highest_weight
            for (T, N), s in multiplicity_slices(irr).items():
                info = Rectangle(lam1, lam2, T).slice_points(N)
                if info is None or len(info[2]) != len(s):
                    case_bad.append(f"dim {label}:{irr.highest_weight}")
    decisive = sorted(w for w in winners if w != "tie")
    unique = decisive == ["proof-text"] or (len(decisive) == 1
                                            and decisive[0] != "none")
    elapsed = time.perf_counter() - t0
    ok = not case_bad and unique
    name = decisive[0] if len(decisive) == 1 else str(decisive)
    verdict(8, ok,
            f"slice dimensions and both Pfaffian chains' barcodes match "
            f"the case predictions on all "
            f"{len(seen)} weights; gamma convention decided: {name} "
            f"(discriminating irreps: "
            f"{sorted(tuple(map(str, w)) for w in winners.get(name, set()))}) "
            f"in {elapsed:.1f}s"
            + (f"; case failures: {case_bad[:3]}" if case_bad else ""))
    assert ok


def test_criterion_9_projector_omega_probe_suite(corpus):
    bad = []
    anomalies = 0
    for label, irreps in corpus:
        seen = set()
        for irr in irreps:
            if irr.highest_weight in seen:
                continue
            seen.add(irr.highest_weight)
            P, singular = extremal_projector_o3(irr)
            e = irr.genmats[O3_RAISING]
            f = irr.genmats[O3_LOWERING]
            if not ((P @ P) == P and (e @ P).is_zero()
                    and (P @ f).is_zero()):
                bad.append(f"projector {label}:{irr.highest_weight}")
            anomalies += len(singular)
            om = omega_operator(irr)
            if (om @ irr.pf_matrix(-1)) != \
                    (irr.pf_matrix(+1) @ om).scale(-1):
                bad.append(f"omega {label}:{irr.highest_weight}")
            probe = tps_scalar_probe(irr)
            rows = probe["pf_sym_scalar"]
            if not all(r["matches_F11_eigenvalue"] for r in rows):
                bad.append(f"pf-sym {label}:{irr.highest_weight}")
            # the D_1 shift is flagged (an anomaly, not a failure)
            anomalies += sum(1 for r in rows if not r["matches_D1"])
    ok = verdict(9, not bad,
                 f"extremal projector idempotent with e.p = p.f = 0, omega "
                 f"conjugates PfF_-2hat to -PfF_2hat on every irrep, "
                 f"probes measured {anomalies} documented convention "
                 f"anomalies"
                 + (f"; failures: {bad[:3]}" if bad else ""))
    assert ok
