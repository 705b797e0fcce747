from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasispin.liealg import weyl_dimension
from quasispin.linalg import ExactMatrix, rank_and_kernel, row_basis, solve
from quasispin.replab import (defining_representation, extract_irreps,
                              fock_representation, irrep_of_weight,
                              multiplicity_slices,
                              tensor_power_representation,
                              trivial_representation)
from quasispin.tableaux import (GAMMA_CONVENTIONS, Flag, GTMolevTableau,
                                Rectangle, assign_k, case_of,
                                enumerate_tableaux, gammas,
                                predicted_slice_matrix, quantum_numbers,
                                validate_against_representation)

F = Fraction
HALF = F(1, 2)


def lam_grid():
    out = []
    v1 = F(0)
    while v1 >= -4:
        v2 = v1
        while v2 >= -4:
            out.append((v1, v2))
            v2 -= 1
        v1 -= 1
    v1 = F(-1, 2)
    while v1 >= F(-7, 2):
        v2 = v1
        while v2 >= F(-7, 2):
            out.append((v1, v2))
            v2 -= 1
        v1 -= 1
    return out


def test_tableau_count_equals_weyl_dimension():
    for lam in lam_grid():
        assert len(enumerate_tableaux(*lam)) == weyl_dimension(*lam), lam


def test_trivial_weight_single_tableau():
    tabs = enumerate_tableaux(0, 0)
    assert len(tabs) == 1
    t = tabs[0]
    assert (t.sigma, t.l21, t.l22, t.lam11, t.sigma1, t.l11) == \
        (0, 0, 0, 0, 0, 0)


def test_five_dim_hand_enumeration():
    tabs = enumerate_tableaux(0, -1)
    assert len(tabs) == 5
    by_lam11 = {}
    for t in tabs:
        by_lam11.setdefault(t.lam11, []).append(t)
    # lam11 = 0: two tableaux distinguished by l22
    assert sorted(t.l22 for t in by_lam11[F(0)]) == [F(-1), F(0)]
    # lam11 = -1: three tableaux with l22 = -1, (sigma1, l11) in
    # {(0,0), (0,-1), (1,-1)}
    bottom = sorted((t.sigma1, t.l11) for t in by_lam11[F(-1)])
    assert bottom == [(0, F(-1)), (0, F(0)), (1, F(-1))]
    assert all(t.l22 == F(-1) for t in by_lam11[F(-1)])


def test_quantum_numbers_examples():
    t = GTMolevTableau(F(0), F(-1), 0, F(0), F(0), F(0), 0, F(0))
    assert quantum_numbers(t) == (F(0), F(0), F(1))
    t = GTMolevTableau(F(0), F(-1), 0, F(0), F(-1), F(0), 0, F(0))
    assert quantum_numbers(t) == (F(0), F(0), F(-1))
    t = GTMolevTableau(F(0), F(-1), 0, F(0), F(-1), F(-1), 1, F(-1))
    assert quantum_numbers(t) == (F(-1), F(1), F(0))


def test_quantum_number_ranges():
    for lam in ((0, -2), (-1, -2), (HALF * -1, F(-3, 2))):
        nmins = {}
        for t in enumerate_tableaux(*lam):
            T, tau0, N = quantum_numbers(t)
            assert abs(tau0) <= abs(T)
            nmins.setdefault(T, []).append(N)
        for T, ns in nmins.items():
            assert min(ns) == -max(ns)  # N range symmetric
            rect = Rectangle(lam[0], lam[1], T)
            pts = rect.slice_points(min(ns))
            assert pts is not None and len(pts[2]) == 1  # N_min unique


def test_rectangle_slice_counts_match_tableaux():
    for lam in ((0, -1), (-1, -1), (-1, -2), (F(-1, 2), F(-3, 2))):
        counts = {}
        for t in enumerate_tableaux(*lam):
            T, tau0, N = quantum_numbers(t)
            if tau0 == T:
                counts[(T, N)] = counts.get((T, N), 0) + 1
        for (T, N), c in counts.items():
            info = Rectangle(lam[0], lam[1], T).slice_points(N)
            assert info is not None and len(info[2]) == c


def test_case_of_degenerate_corner():
    # N = N_min: unique state, sigma = 0, corner case
    tag, sigma = case_of(F(-1), F(-2), F(-1), F(-2))
    assert sigma == 0 and tag in ("A", "C")
    with pytest.raises(ValueError):
        case_of(F(0), F(-1), F(0), F(0))  # empty slice


def test_gamma_conventions():
    assert gammas(F(0), F(-1), "definition") == (F(1), F(1))
    assert gammas(F(0), F(-1), "proof-text") == (F(0), F(-2))
    with pytest.raises(ValueError):
        gammas(F(0), F(0), "nonsense")


def test_predicted_matrix_sigma0_identity():
    # (-1,-2), T=-1, N=-2 -> N=-1: single point, sigma=0 step, identity
    m = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-2), "proof-text")
    assert m.sigma == 0 and m.matrix.rows == 1 and m.matrix.cols == 1
    assert m.rank == 1


def test_predicted_matrix_sigma1_injective():
    # (-1,-2), T=-1, N=-1 -> N=0: sigma=1 bidiagonal into two points
    m = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-1), "proof-text")
    assert m.sigma == 1 and m.matrix.rows == 2 and m.matrix.cols == 1
    assert m.rank == 1 and m.nullity == 0
    # definition gammas are singular at that point (gamma1 = gamma2 = 0)
    md = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-1), "definition")
    assert md.matrix is None and md.singular_points == [(F(-1), F(-2))]


def test_predicted_matrix_zero_row_replacement():
    # (-1,-2), T=-1, N=0 -> N=1: the (0,-2) point dies (sigma=1 excludes
    # l21 = 0), leaving a rank-1 map with a kernel: the case D pattern
    m = predicted_slice_matrix(F(-1), F(-2), F(-1), F(0), "proof-text")
    assert m.sigma == 0
    assert m.matrix.cols == 2 and m.matrix.rows == 1
    assert m.rank == 1 and m.nullity == 1
    _, ker = rank_and_kernel(m.matrix)
    strata = [[i for i, x in enumerate(v) if x] for v in ker]
    assert strata == [[0]]  # the kernel sits on the "lower" point


def test_structural_matrix_matches_generic_rank():
    s = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-1), None)
    assert s.rank == 1 and s.nullity == 0


def small_weights():
    """The 16 dominant weights with |lam2| <= 3."""
    return [(l1, l2) for l1, l2 in lam_grid() if l2 >= -3]


def support(matrix):
    return {(r, c) for r, row in enumerate(matrix.data)
            for c, x in enumerate(row) if x}


def test_gamma_models_live_on_the_skeleton():
    # each gamma model fills the skeleton's positions (or fewer, where a
    # coefficient vanishes), on every slice of every small weight
    checked = 0
    for lam in small_weights():
        for T, N in multiplicity_slices(irrep_of_weight(lam)):
            skel = predicted_slice_matrix(*lam, T, N, None)
            for conv in GAMMA_CONVENTIONS:
                model = predicted_slice_matrix(*lam, T, N, conv)
                assert (model.source_pts, model.target_pts) == \
                    (skel.source_pts, skel.target_pts)
                if model.matrix is not None:
                    assert support(model.matrix) <= support(skel.matrix)
                    checked += 1
    assert len(small_weights()) == 16 and checked > 100


def test_assign_k_five_dim_all_zero():
    irr = extract_irreps(defining_representation())[0]
    states, data = assign_k(irr)
    assert len(states) == 5
    assert all(s.k == 0 for s in states)
    labels = {s.label() for s in states}
    assert len(labels) == 5
    assert not data["anomalies"]


def test_assign_k_trivial():
    irr = extract_irreps(trivial_representation())[0]
    states, _ = assign_k(irr)
    assert len(states) == 1
    s = states[0]
    assert (s.T, s.tau0, s.N, s.k) == (F(0), F(0), F(0), 0)


def test_assign_k_adjoint_complete():
    rep = tensor_power_representation(2)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (F(-1), F(-1))][0]
    states, data = assign_k(irr)
    assert len(states) == 10
    assert len({s.label() for s in states}) == 10
    assert not data["anomalies"]


def test_assign_k_35_dim_has_k2_and_documented_anomaly():
    rep = tensor_power_representation(3)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (F(-1), F(-2))][0]
    states, data = assign_k(irr)
    assert len(states) == 35
    assert len({s.label() for s in states}) == 35
    ks = sorted({s.k for s in states})
    assert ks == [0, 1, 2]
    anoms = [a for a in data["anomalies"]
             if a["kind"] == "n0-two-sided-disagreement"]
    assert len(anoms) == 1 and anoms[0]["T"] == F(-1)


def test_spinor_seam_anomaly_recorded():
    rep = fock_representation(HALF)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (F(-1, 2), F(-1, 2))][0]
    states, data = assign_k(irr)
    assert len(states) == 4
    kinds = {a["kind"] for a in data["anomalies"]}
    assert kinds == {"seam-raising-up", "seam-raising-down"}


def test_validation_gamma_winner():
    rep = tensor_power_representation(3)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (F(-1), F(-2))][0]
    report = validate_against_representation(irr)
    assert report["gamma_winner"] == "proof-text"
    assert not report["case_mismatches"]
    assert not report["gamma_mismatches"]["proof-text"]
    assert report["gamma_mismatches"]["definition"]


def test_validation_slice_dims_match():
    rep = fock_representation(HALF)
    for irr in extract_irreps(rep):
        report = validate_against_representation(irr)
        assert all("dim_mismatch" not in row for row in report["slices"])
        assert not report["case_mismatches"]


def test_sigma0_slices_map_isomorphically():
    # "the space with N = N* is mapped isomorphically": a sigma=0 step
    # out of N < 0 with a nonempty target and no dying edge point is an
    # isomorphism onto the target slice
    rep = tensor_power_representation(2)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (F(-1), F(-1))][0]
    lam1, lam2 = irr.highest_weight
    report = validate_against_representation(irr)
    checked = 0
    for row in report["slices"]:
        if row["sigma"] != 0 or row["N"] >= 0 or row["case"] == "D":
            continue
        tgt = Rectangle(lam1, lam2, row["T"]).slice_points(row["N"] + 1)
        if tgt is None:
            assert row["rank"] == 0  # gap in the ladder: zero map
            continue
        assert row["nullity"] == 0 and row["rank"] == len(tgt[2])
        checked += 1
    assert checked > 0


@given(st.data())
def test_flag_membership_matches_solve(data):
    # U_m contains the vectors iff [U_m as columns] X = [vectors] solves
    dim = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    gens = data.draw(st.lists(vec, max_size=5))
    flag = Flag(dim, [ExactMatrix.identity(dim).data]
                + [row_basis(gens[i:], dim) for i in range(len(gens))])
    m = data.draw(st.integers(0, len(gens) + 1))
    level = flag.levels[m] if m < flag.depth() else []
    # combinations of the level's rows, and some free vectors
    coeffs = data.draw(st.lists(st.lists(st.integers(-2, 2),
                                         min_size=len(level),
                                         max_size=len(level)), max_size=3))
    vectors = [[sum(c * row[i] for c, row in zip(cs, level))
                for i in range(dim)] for cs in coeffs]
    vectors += data.draw(st.lists(vec, max_size=2))

    def columns(vs):
        return ExactMatrix(dim, len(vs), [[v[i] for v in vs]
                                          for i in range(dim)])

    assert flag.contains_all(m, vectors) == (
        solve(columns(level), columns(vectors)) is not None)
