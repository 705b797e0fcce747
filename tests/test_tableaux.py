from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasispin import tableaux
from quasispin.liealg import weyl_dimension
from quasispin.linalg import rref_rows, svec_map
from quasispin.replab import (_restrict_to_slices,
                              defining_representation,
                              fock_representation,
                              irrep_of_weight, multiplicity_slices,
                              omega_operator, tensor_power_representation,
                              trivial_representation)
from quasispin.tableaux import (GAMMA_CONVENTIONS, Flag, GTMolevTableau,
                                Rectangle, _induced_flags, assign_k, case_of,
                                enumerate_tableaux, gammas,
                                predicted_slice_matrix, quantum_numbers,
                                validate_against_representation)
from test_linalg import (dense_charpoly, dense_kernel, dense_matmul,
                         dense_rank, dense_rref, dense_solve, densify,
                         rank_and_kernel, sparse)
from test_replab import extract_irreps, t_ladder, theta_transport

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


def rank_nullity(cols, n):
    """(rank, nullity) of the map with sparse columns cols on n source
    positions, the rank from one `rref_rows` of its columns."""
    rank = len(rref_rows(cols.values()))
    return rank, n - rank


def model_rank_nullity(m):
    return rank_nullity(m.cols, len(m.source_pts))


def test_gamma_conventions():
    assert gammas(F(0), F(-1), "definition") == (F(1), F(1))
    assert gammas(F(0), F(-1), "proof-text") == (F(0), F(-2))
    with pytest.raises(ValueError):
        gammas(F(0), F(0), "nonsense")


def test_predicted_matrix_sigma0_identity():
    # (-1,-2), T=-1, N=-2 -> N=-1: single point, sigma=0 step, identity
    m = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-2), "proof-text")
    assert m.sigma == 0 and len(m.target_pts) == len(m.source_pts) == 1
    assert m.cols == {0: {0: 1}} and model_rank_nullity(m) == (1, 0)


def test_predicted_matrix_sigma1_injective():
    # (-1,-2), T=-1, N=-1 -> N=0: sigma=1 bidiagonal into two points
    m = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-1), "proof-text")
    assert m.sigma == 1 and len(m.target_pts) == 2 and len(m.source_pts) == 1
    assert model_rank_nullity(m) == (1, 0)
    # definition gammas are singular at that point (gamma1 = gamma2 = 0)
    md = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-1), "definition")
    assert md.cols is None and md.singular_points == [(F(-1), F(-2))]


def test_predicted_matrix_zero_row_replacement():
    # (-1,-2), T=-1, N=0 -> N=1: the (0,-2) point dies (sigma=1 excludes
    # l21 = 0), leaving a rank-1 map with a kernel: the case D pattern
    m = predicted_slice_matrix(F(-1), F(-2), F(-1), F(0), "proof-text")
    assert m.sigma == 0
    assert len(m.source_pts) == 2 and len(m.target_pts) == 1
    assert model_rank_nullity(m) == (1, 1)
    assert m.cols == {1: {0: 1}}  # the kernel sits on the "lower" point


def test_structural_matrix_matches_generic_rank():
    s = predicted_slice_matrix(F(-1), F(-2), F(-1), F(-1), None)
    assert model_rank_nullity(s) == (1, 0)


def small_weights():
    """The 16 dominant weights with |lam2| <= 3."""
    return [(l1, l2) for l1, l2 in lam_grid() if l2 >= -3]


def support(cols):
    return {(r, c) for c, col in cols.items() for r, x in col.items() if x}


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
                if model.cols is not None:
                    assert support(model.cols) <= support(skel.cols)
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
    # every computed slice has as many states as its rectangle points
    rep = fock_representation(HALF)
    for irr in extract_irreps(rep):
        lam1, lam2 = irr.highest_weight
        for (T, N), s in multiplicity_slices(irr).items():
            info = Rectangle(lam1, lam2, T).slice_points(N)
            assert info is not None and len(info[2]) == len(s), (T, N)
        report = validate_against_representation(irr)
        assert not report["case_mismatches"]


def test_sigma0_slices_map_isomorphically():
    # "the space with N = N* is mapped isomorphically": a sigma=0 step
    # out of N < 0 with a nonempty target and no dying edge point is an
    # isomorphism onto the target slice
    rep = tensor_power_representation(2)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (F(-1), F(-1))][0]
    lam1, lam2 = irr.highest_weight
    _, data = assign_k(irr)
    slices = multiplicity_slices(irr)
    checked = 0
    for (T, N), up in data["ups"].items():
        tag, sigma = case_of(lam1, lam2, T, N)
        if sigma != 0 or N >= 0 or tag == "D":
            continue
        rank, nullity = rank_nullity(up, len(slices[(T, N)]))
        tgt = Rectangle(lam1, lam2, T).slice_points(N + 1)
        if tgt is None:
            assert rank == 0  # gap in the ladder: zero map
            continue
        assert nullity == 0 and rank == len(tgt[2])
        checked += 1
    assert checked > 0


@given(st.data())
def test_flag_membership_matches_solve(data):
    # U_m contains the vectors iff [U_m as columns] X = [vectors] solves
    dim = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    gens = data.draw(st.lists(vec, max_size=5))
    flag = Flag([[{i: 1} for i in range(dim)]]
                + [rref_rows(sparse(v) for v in gens[i:])
                   for i in range(len(gens))])
    m = data.draw(st.integers(0, len(gens) + 1))
    level = flag.levels[m] if m < flag.depth() else []
    # combinations of the level's rows, and some free vectors
    coeffs = data.draw(st.lists(st.lists(st.integers(-2, 2),
                                         min_size=len(level),
                                         max_size=len(level)), max_size=3))
    vectors = [[sum(c * row.get(i, 0) for c, row in zip(cs, level))
                for i in range(dim)] for cs in coeffs]
    vectors += data.draw(st.lists(vec, max_size=2))

    def columns(vs):
        return [[v[i] for v in vs] for i in range(dim)]

    level = [[row.get(i, 0) for i in range(dim)] for row in level]
    assert flag.contains_all(m, [sparse(v) for v in vectors]) == (
        dense_solve(columns(level), columns(vectors), len(level),
                    len(vectors)) is not None)


# -- the sparse layer against the dense reference -----------------------


def _differential_corpus():
    """Every irrep of Fock(1/2), Fock(3/2) and defining^0..3, with
    (-1,-2), (-1/2,-3/2) and (-2,-3) built as Cartan products.  (-2,-3)
    is there for its two-step up composition of rank 2: every other
    composition of the corpus has rank <= 1."""
    reps = ([fock_representation(HALF), fock_representation(F(3, 2))]
            + [tensor_power_representation(p) for p in range(4)])
    return ([irr for rep in reps for irr in extract_irreps(rep)]
            + [irrep_of_weight(lam)
               for lam in ((-1, -2), (-HALF, F(-3, 2)), (-2, -3))])


def _dense_vectors(vectors, n):
    return [[v.get(i, 0) for i in range(n)] for v in vectors]


def _check_rank_and_kernel(cols, rows, n, rank, kernel):
    """rank and the kernel span of the map with sparse columns cols
    against the dense reference on its densified columns."""
    d = densify(cols, rows, n)
    assert rank == dense_rank(d, n)
    assert _dense_vectors(kernel, n) == dense_kernel(d, n)
    return d


def _image_levels(levels, d, n):
    """The reference image of each flag level under the dense map d from
    an n-dimensional slice: the nonzero rows of an RREF, trailing zero
    levels dropped like `Flag` does."""
    out = []
    for level in levels:
        images = [[sum(a * b for a, b in zip(row, v)) for row in d]
                  for v in _dense_vectors(level, n)]
        red, pivots = dense_rref(images, len(d))
        out.append(red[:len(pivots)])
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


# -- the step-by-step gamma comparisons, reference for the barcodes ----


def _composed_rank(outer: dict, inner: dict) -> int:
    """Rank of outer . inner, both maps as sparse columns."""
    return len(rref_rows(svec_map(outer, col) for col in inner.values()))


def _meet_dim(a, b) -> int:
    """dim(span a intersect span b) for two independent lists of sparse
    vectors, as dim(A) + dim(B) - dim(A+B)."""
    return len(a) + len(b) - len(rref_rows(a + b))


def _kernel_level_dims(kernel_basis, flag: Flag):
    """dim(ker intersect U_m) for each flag level."""
    return [len(kernel_basis)] + [_meet_dim(kernel_basis, flag.levels[m])
                                  for m in range(1, flag.depth())]


def _old_gamma_mismatch_ts(irr):
    """({convention: the T it fails at}, gamma winner) from four partial
    comparisons of each gamma model with the computed up maps: rank and
    nullity of every step, two-step ranks from sigma = 0 starts, and on
    N <= 0 the level dimensions of the induced flags and the kernel
    positions in them.  Each is a function of the chain's barcode."""
    lam = irr.highest_weight
    _, data = assign_k(irr)
    slices = multiplicity_slices(irr)
    ts = {conv: set() for conv in GAMMA_CONVENTIONS}
    for conv in GAMMA_CONVENTIONS:
        models = {key: predicted_slice_matrix(*lam, *key, conv)
                  for key in slices}
        for (T, N), s in slices.items():
            model, up = models[T, N], data["ups"][(T, N)]
            if model.cols is None or model_rank_nullity(model) != (
                    rank_nullity(up, len(s))):
                ts[conv].add(T)
                continue
            if model.sigma == 0 and (T, N + 1) in data["ups"]:
                nxt = models[T, N + 1]
                if nxt.cols is None:
                    ts[conv].add(T)
                    continue
                ra = _composed_rank(data["ups"][(T, N + 1)], up)
                rm = _composed_rank(nxt.cols, model.cols)
                if (ra, len(s) - ra) != (rm, len(model.source_pts) - rm):
                    ts[conv].add(T)
        for T in {t for (t, _) in slices}:
            ns = sorted(N for (t, N) in slices if t == T)
            ladder = {N: models[T, N] for N in ns}
            if any(mm.cols is None for mm in ladder.values()):
                continue
            mflags = _induced_flags(
                ns, {N: mm.cols for N, mm in ladder.items()},
                {N: len(mm.source_pts) for N, mm in ladder.items()})
            for N in ns:
                if N > 0:
                    continue
                flag, mflag = data["flags"][(T, N)], mflags[N]
                _, ker = rank_and_kernel(data["ups"][(T, N)],
                                         len(slices[(T, N)]))
                _, m_ker = rank_and_kernel(ladder[N].cols,
                                           len(ladder[N].source_pts))
                if flag.level_dims() != mflag.level_dims() or (
                        _kernel_level_dims(ker, flag)
                        != _kernel_level_dims(m_ker, mflag)):
                    ts[conv].add(T)
    survivors = [c for c in GAMMA_CONVENTIONS if not ts[c]]
    winner = (survivors[0] if len(survivors) == 1
              else "tie" if survivors else "none")
    return ts, winner


def gamma_mismatch_ts(report):
    """The same pair, read from a `validate_against_representation`
    report."""
    return ({conv: {e["T"] for e in report["gamma_mismatches"][conv]}
             for conv in GAMMA_CONVENTIONS}, report["gamma_winner"])


# -- the single-step case-pattern comparison, reference for the barcodes


def _old_case_mismatch_ts(irr):
    """The T at which the single-step comparison with the A-D case
    pattern fails: rank and nullity of the computed up step out of each
    N < 0, and of the down step out of each N > 0, against those of the
    skeleton's step out of -|N|.  The skeleton is looked up on `tableaux`
    at call time, so a patched one is the one compared."""
    lam = irr.highest_weight
    _, data = assign_k(irr)
    slices = multiplicity_slices(irr)
    ts = set()
    for (T, N), up in data["ups"].items():
        if not N:
            continue
        skel = tableaux.predicted_slice_matrix(*lam, T, -abs(N), None)
        step = up if N < 0 else data["downs"][(T, N)]
        if rank_nullity(step, len(slices[(T, N)])) != model_rank_nullity(
                skel):
            ts.add(T)
    return ts


def case_mismatch_ts(report):
    """The T of the case mismatches of a
    `validate_against_representation` report."""
    return {e["T"] for e in report["case_mismatches"]}


def hollow_skeleton(monkeypatch):
    """Fault: a skeleton with no columns, predicting rank 0 on every step,
    which the computed maps contradict wherever they are nonzero."""
    predicted = tableaux.predicted_slice_matrix

    def hollow(lam1, lam2, T, N, convention):
        model = predicted(lam1, lam2, T, N, convention)
        if convention is not None:
            return model
        return tableaux.ModelMatrix({}, model.source_pts, model.target_pts,
                                    model.sigma, [])

    monkeypatch.setattr(tableaux, "predicted_slice_matrix", hollow)


# V(-1,-2) at T = -2: the PfF_{-2-hat} map out of N = 1 has rank 1
ZEROED_DOWN_T = F(-2)


def zero_the_down_map_out_of_one(monkeypatch, at=ZEROED_DOWN_T):
    """Fault: the computed PfF_{-2-hat} slice map out of N = 1 at T = at
    replaced by the zero map, the up-chain left as it is."""
    slice_maps = tableaux.pf_slice_maps

    def zeroed(irrep, T):
        ups, downs = slice_maps(irrep, T)
        if T == at:
            downs = {**downs, 1: {}}
        return ups, downs

    monkeypatch.setattr(tableaux, "pf_slice_maps", zeroed)


def test_barcodes_flag_what_the_step_comparisons_flag():
    # the one barcode comparison per (T, convention) fails at exactly the
    # T where one of the four old comparisons did, with the same winner;
    # the skeleton's barcodes, like the single steps, flag no T
    winners = set()
    flagged = 0
    for irr in _differential_corpus():
        report = validate_against_representation(irr)
        want = _old_gamma_mismatch_ts(irr)
        assert gamma_mismatch_ts(report) == want, irr.highest_weight
        assert case_mismatch_ts(report) == _old_case_mismatch_ts(irr) == set()
        assert all(len(report["gamma_mismatches"][conv]) == len(ts)
                   for conv, ts in want[0].items())
        winners.add(want[1])
        flagged += sum(map(len, want[0].values()))
    assert winners == {"proof-text", "tie"} and flagged > 0


def test_the_case_barcodes_flag_what_the_single_steps_flag(monkeypatch):
    # under each fault the skeleton's barcode comparison fails at the T
    # where the single-step comparison does: an empty skeleton on every
    # T with a nonzero map, in both directions; a zeroed down map on its
    # T, in the down direction only (the up-chain is untouched)
    irr = irrep_of_weight((-1, -2))
    with monkeypatch.context() as m:
        hollow_skeleton(m)
        report = validate_against_representation(irr)
        want = _old_case_mismatch_ts(irr)
        assert want == {F(-2), F(-1)} and case_mismatch_ts(report) == want
        assert [(e["T"], e["direction"]) for e in report["case_mismatches"]
                ] == [(T, d) for T in sorted(want) for d in ("up", "down")]
    with monkeypatch.context() as m:
        zero_the_down_map_out_of_one(m)
        report = validate_against_representation(irr)
        assert case_mismatch_ts(report) == _old_case_mismatch_ts(irr) == {
            ZEROED_DOWN_T}
        [entry] = report["case_mismatches"]
        assert entry["direction"] == "down"
        assert entry["barcodes"]["model"] == assign_k(irr)[1]["barcodes"][
            ZEROED_DOWN_T]["up"] != entry["barcodes"]["actual"]


def test_a_gamma_model_with_another_barcode_is_flagged():
    # on V(-1,-4) the definition model is regular on the T = -3 ladder,
    # but its chain is not isomorphic to the computed one: it splits the
    # computed interval [-2, 2] at N = 0 (no corpus irrep has such a T)
    irr = irrep_of_weight((-1, -4))
    report = validate_against_representation(irr)
    assert gamma_mismatch_ts(report) == _old_gamma_mismatch_ts(irr)
    [entry] = [e for e in report["gamma_mismatches"]["definition"]
               if "barcodes" in e]
    assert entry == {"T": -3, "barcodes": {
        "actual": {(0, 0): 1, (-2, 2): 1}, "model": {(-2, 0): 1, (0, 2): 1}}}
    assert report["gamma_winner"] == "proof-text"


def test_k_is_the_age_of_an_interval():
    # for N <= 0, a state at level k of V+_{T,N} lies in an interval of
    # the up-chain's barcode born at N - k: the stratum dimensions of the
    # flag are the age counts of the intervals through N
    checked = aged = 0
    for irr in _differential_corpus():
        _, data = assign_k(irr)
        assert all(mult > 0 for bars in data["barcodes"].values()
                   for bar in bars.values() for mult in bar.values())
        # theta makes the mirrored down chain isomorphic to the up chain
        assert all(bars["up"] == bars["down"]
                   for bars in data["barcodes"].values())
        for (T, N), flag in data["flags"].items():
            if N > 0:
                continue
            ages = {}
            for (a, b), mult in data["barcodes"][T]["up"].items():
                if a <= N <= b:
                    ages[int(N - a)] = ages.get(int(N - a), 0) + mult
            assert {m: d for m, d in enumerate(flag.stratum_dims())
                    if d} == ages, (irr.highest_weight, T, N)
            checked += 1
            aged += max(ages) > 0
    assert checked == 146 and aged > 10


def test_composed_rank_applies_one_map_to_the_other():
    swap = {0: {1: 1}, 1: {0: 1}}
    assert _composed_rank(swap, swap) == 2
    # the inner image is the outer kernel, then half of the outer domain
    inner = {0: {0: 1}, 1: {0: 2}}
    assert _composed_rank({1: {0: 1}}, inner) == 0
    assert _composed_rank(swap, inner) == 1


def test_sparse_layer_matches_the_dense_reference():
    # slice maps, flags, model maps and round-trip spectra of the sparse
    # columns, each recomputed from their densified columns; the N > 0
    # flags also against the reflection transport of their mirrors
    corpus = _differential_corpus()
    assert len(corpus) == 71
    maps = models = 0
    composed_ranks = set()
    for irr in corpus:
        lam = irr.highest_weight
        slices = multiplicity_slices(irr)
        _, data = assign_k(irr)
        report = validate_against_representation(irr)
        dense_maps = {}
        for kind, step in (("ups", 1), ("downs", -1)):
            for (T, N), m in data[kind].items():
                n = len(slices[(T, N)])
                rows = len(slices.get((T, N + step), []))
                dense_maps[kind, (T, N)] = _check_rank_and_kernel(
                    m, rows, n, len(rref_rows(m.values())),
                    rank_and_kernel(m, n)[1])
                maps += 1
        omega = omega_operator(irr)
        for (T, N), flag in data["flags"].items():
            dim = len(slices[(T, N)])
            levels = [_dense_vectors(lvl, dim) for lvl in flag.levels]
            assert levels[0] == densify({i: {i: 1} for i in range(dim)},
                                        dim, dim)
            if N > 0:
                theta = _restrict_to_slices(theta_transport(irr, omega, T),
                                            t_ladder(irr, T), T, -N, N)
                theta_rank = len(rref_rows(theta.values()))
                dense_theta = _check_rank_and_kernel(
                    theta, dim, dim, theta_rank,
                    rank_and_kernel(theta, dim)[1])
                maps += 1
                assert theta_rank == dim, (lam, T, N)
                mirror = data["flags"][(T, -N)]
                assert levels == _image_levels(mirror.levels, dense_theta,
                                               dim), (lam, T, N)
            # induced from below for N <= 0, from above for N > 0
            along = "ups" if N <= 0 else "downs"
            prev = (T, N - 1) if N <= 0 else (T, N + 1)
            if prev in data["flags"]:
                assert levels[1:] == _image_levels(
                    data["flags"][prev].levels, dense_maps[along, prev],
                    len(slices[prev])), (lam, T, N)
            else:
                assert len(levels) == 1, (lam, T, N)
            if (T, N + 1) in data["ups"] and (T, N + 1) in slices:
                up, nxt = data["ups"][(T, N)], data["ups"][(T, N + 1)]
                rank = _composed_rank(nxt, up)
                assert rank == dense_rank(
                    dense_matmul(dense_maps["ups", (T, N + 1)],
                                 dense_maps["ups", (T, N)]), dim)
                composed_ranks.add(rank)
        roundtrip = irr.pf_matrix(-1) @ irr.pf_matrix(+1)
        for (T, N), s in slices.items():
            rt = _restrict_to_slices(roundtrip, t_ladder(irr, T), T, N, N)
            assert report["roundtrip_charpolys"][(T, N)] == dense_charpoly(
                densify(rt, len(s), len(s)))
            for conv in GAMMA_CONVENTIONS + (None,):
                model = predicted_slice_matrix(*lam, T, N, conv)
                if model.cols is None:
                    continue
                n = len(model.source_pts)
                rank, nullity = model_rank_nullity(model)
                d = densify(model.cols, len(model.target_pts), n)
                assert rank == dense_rank(d, n)
                assert nullity == len(dense_kernel(d, n))
                models += 1
    assert maps > 500 and models > 500
    assert max(composed_ranks) == 2
