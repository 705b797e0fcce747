from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from quasispin import cli, replab
from quasispin.liealg import (Weight, bracket, canonical_generators,
                              is_lowering, is_raising, root_of,
                              weyl_dimension)
from quasispin.linalg import (LinOp, characteristic_polynomial, kernel_rows,
                              rref_rows)
from quasispin.replab import (BRACKET_RECIPE, O3_LOWERING, O3_RAISING,
                              _coordinates, _restrict_to_slices,
                              _lowering_orbit, _map_on_span, _stacked_rows,
                              _weight_sort_key,
                              NonDiagonalCartan, Representation,
                              defining_representation,
                              extremal_projector_o3, fock_representation,
                              irrep_of_weight, irrep_with_highest_weight,
                              isotypic_types, multiplicity_slices,
                              omega_genindex, omega_operator, pf_slice_maps,
                              tensor_power_representation,
                              tensor_product, tps_scalar_probe,
                              trivial_representation, weight_decompose)
from quasispin.report import PASS
from quasispin.tableaux import validate_against_representation
from quasispin.uea import UEAElement
from fock_reference import verify_representation
from test_linalg import (_block, _put_block, commutator, dense, dense_kernel,
                         dense_matmul, dense_rank, dense_rref, dense_solve)

HALF = Fraction(1, 2)


# -- the all-generator reference for the Chevalley build ----------------


def ref_kernels(rep: Representation, lam=None):
    """`replab._highest_weight_kernels` with every generator: the kernel
    of all four raising operators, and all four lowering ones."""
    buckets = weight_decompose(rep)
    order = sorted(buckets, key=_weight_sort_key)
    gens = canonical_generators(2)
    raising = [rep.genmap[g] for g in gens if is_raising(g)]
    lowering = [(rep.genmap[g], root_of(g)) for g in gens if is_lowering(g)]
    only = None if lam is None else Weight(lam)
    return order, lowering, [
        (at, kernel) for at, mu in enumerate(order) if only in (None, mu)
        if (kernel := kernel_rows(_stacked_rows(raising, buckets[mu]),
                                  buckets[mu]))]


def ref_fill_generator_matrices(rep: Representation, irreps):
    """genmats[g] for all ten generators, each read off rep block by
    block at target pivots (`_coordinates`)."""
    gens = [(g, root_of(g)) for g in canonical_generators(2)]
    for irr in irreps:
        for g, alpha in gens:
            op, m = rep.genmap[g], {}
            for w, cols in irr.weight_positions.items():
                images = [op.apply(irr.basis[c]) for c in cols]
                if not any(images):
                    continue
                rows = irr.weight_positions.get(w + alpha, [])
                coords = _coordinates([irr.basis[r] for r in rows], images)
                if coords is None:
                    raise AssertionError(
                        f"{g} image leaves the irrep span in {irr}")
                m.update((c, {rows[t]: x for t, x in col.items()})
                         for c, col in zip(cols, coords))
            irr.genmats[g] = LinOp(irr.dim, m)


def extract_irreps(rep: Representation):
    """Split into irreducibles, one per copy: the lowering orbit of every
    vector of every raising kernel, highest weight first, all through
    `ref_kernels` and `ref_fill_generator_matrices`.  The irrep
    dimensions must add up to the ambient one.  The per-copy reference
    for `replab.isotypic_types`, which builds one orbit per type."""
    order, lowering, kernels = ref_kernels(rep)
    irreps = [_lowering_orbit(rep, order, at, kv, lowering)
              for at, kernel in kernels for kv in kernel]
    total = sum(irr.dim for irr in irreps)
    if total != rep.dim:
        raise AssertionError(
            f"irrep dimensions sum to {total}, ambient is {rep.dim}")
    ref_fill_generator_matrices(rep, irreps)
    return irreps


def ref_isotypic_types(rep: Representation, lam=None):
    """`replab.isotypic_types` through `ref_kernels` and
    `ref_fill_generator_matrices`."""
    order, lowering, kernels = ref_kernels(rep, lam)
    types = [(_lowering_orbit(rep, order, at, kernel[0], lowering),
              len(kernel)) for at, kernel in kernels]
    ref_fill_generator_matrices(rep, [irr for irr, _ in types])
    return types


def ref_irrep_of_weight(lam):
    """`replab.irrep_of_weight` through `ref_isotypic_types`, with no
    memo."""
    lam = (Fraction(lam[0]), Fraction(lam[1]))
    base = {(0, 0): trivial_representation, (0, -1): defining_representation,
            (-HALF, -HALF): lambda: fock_representation(HALF)}
    if lam in base:
        rep = base[lam]()
    else:
        mu = (0, -1) if lam[0] != lam[1] else (-HALF, -HALF)
        rep = tensor_product(
            ref_irrep_of_weight((lam[0] - mu[0],
                                 lam[1] - mu[1])).representation(),
            ref_irrep_of_weight(mu).representation())
    [(irr, _)] = ref_isotypic_types(rep, lam)
    return irr


def t_ladder(irrep, T):
    """{N: RREF basis of V+_{T,N}}: the T-ladder of slices that
    `_restrict_to_slices` reads."""
    return {N: basis for (t, N), basis in multiplicity_slices(irrep).items()
            if t == T}


def theta_transport(irrep, omega, T):
    """Theta = M(e)^{2|T|} . Omega : maps V+_{T,N} bijectively to V+_{T,-N}.

    Omega carries an o3-highest vector (tau0 = T) to an o3-lowest one
    (tau0 = -T); climbing back with the o3 raising operator returns to
    the o3-highest line of the same o3-irrep, with a T-dependent overall
    scale that drops out of every flag-level use.  The reference for the
    from-above flags of `assign_k`, which equal the theta images of their
    mirrors.
    """
    m = omega
    for _ in range(int(-2 * T)):
        m = irrep.genmats[O3_RAISING] @ m
    return m


def test_irrep_operators_are_linops():
    irr = irrep_of_weight((-1, -2))
    omega = omega_operator(irr)
    ops = [*irr.genmats.values(), irr.pf_matrix(+1), irr.pf_matrix(-1),
           irr.matrix_of(UEAElement.of(2, 0, 2)), omega,
           extremal_projector_o3(irr)[0],
           theta_transport(irr, omega, Fraction(-1))]
    assert all(type(op) is LinOp and op.dim == irr.dim for op in ops)
    assert irr.representation().genmap is irr.genmats
    assert all(type(v) is dict for s in multiplicity_slices(irr).values()
               for v in s)


def test_weight_decompose_defining():
    buckets = weight_decompose(defining_representation())
    comps = sorted(tuple(w.comps) for w in buckets)
    assert comps == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert all(len(v) == 1 for v in buckets.values())


def test_weight_decompose_trivial():
    buckets = weight_decompose(trivial_representation())
    assert list(buckets) == [Weight((0, 0))]


def test_fock_vacuum_weight():
    rep = fock_representation(HALF)
    buckets = weight_decompose(rep)
    vac_weight = [w for w, idx in buckets.items() if 0 in idx]
    assert vac_weight == [Weight((0, -1))]


def test_extract_defining():
    irs = extract_irreps(defining_representation())
    assert len(irs) == 1
    assert irs[0].highest_weight == (Fraction(0), Fraction(-1))
    assert irs[0].dim == 5


def test_extract_trivial():
    irs = extract_irreps(trivial_representation())
    assert len(irs) == 1 and irs[0].dim == 1
    assert irs[0].highest_weight == (Fraction(0), Fraction(0))


def test_extract_fock_half():
    irs = extract_irreps(fock_representation(HALF))
    assert sum(i.dim for i in irs) == 16
    dims = sorted(i.dim for i in irs)
    assert dims == [1, 1, 1, 4, 4, 5]
    for i in irs:
        assert i.dim == weyl_dimension(*i.highest_weight)


def test_extract_tensor_square():
    irs = extract_irreps(tensor_power_representation(2))
    weights = sorted((str(a), str(b)) for a, b in
                     (i.highest_weight for i in irs))
    assert weights == [("-1", "-1"), ("0", "-2"), ("0", "0")]


# the sources classify searched before irreps were Cartan products
OLD_SOURCES = (lambda: fock_representation(HALF),
               lambda: fock_representation(Fraction(3, 2)),
               lambda: tensor_power_representation(1),
               lambda: tensor_power_representation(2),
               lambda: tensor_power_representation(3),
               lambda: tensor_power_representation(0))


def test_targeted_irrep_matches_first_extracted():
    # for every old source and dominant weight: None exactly when
    # extraction finds no irrep of that highest weight, otherwise the
    # first such irrep, with the same basis, weights and genmats; the
    # type representatives are these irreps, one per highest weight
    found = missing = 0
    for make in OLD_SOURCES:
        rep = make()
        irreps = extract_irreps(rep)
        types = isotypic_types(rep)
        assert Counter(i.highest_weight for i in irreps) == {
            irr.highest_weight: mult for irr, mult in types}
        for irr, _ in types:
            want = irrep_with_highest_weight(rep, irr.highest_weight)
            assert irr.basis == want.basis, (rep, irr)
            assert irr.weights == want.weights, (rep, irr)
            assert irr.genmats == want.genmats, (rep, irr)
        for mu in weight_decompose(rep):
            lam = mu.comps
            if not 0 >= lam[0] >= lam[1]:
                continue
            want = next((i for i in irreps if i.highest_weight == lam), None)
            got = irrep_with_highest_weight(rep, lam)
            if want is None:
                assert got is None, (rep, lam)
                missing += 1
                continue
            assert got.highest_weight == lam
            assert got.basis == want.basis, (rep, lam)
            assert got.weights == want.weights, (rep, lam)
            assert got.genmats == want.genmats, (rep, lam)
            found += 1
    assert (found, missing) == (18, 4)


def test_targeted_irrep_of_a_weight_the_source_lacks():
    rep = defining_representation()
    assert irrep_with_highest_weight(rep, (Fraction(-1), Fraction(-1))) is None


@pytest.mark.parametrize("make", OLD_SOURCES[:2] + (
    pytest.param(lambda: fock_representation(Fraction(5, 2)),
                 marks=pytest.mark.slow),) + OLD_SOURCES[2:],
    ids=["fock(1/2)", "fock(3/2)", "fock(5/2)", "defining^1", "defining^2",
         "defining^3", "trivial"])
def test_isotypic_types_match_the_all_generator_build(make):
    # the Chevalley build gives the basis, weights and all ten genmats
    # that reading every generator off the source gives
    rep = make()
    want = ref_isotypic_types(rep)
    got = isotypic_types(rep)
    assert [m for _, m in got] == [m for _, m in want]
    for (irr, _), (ref, _) in zip(got, want):
        assert list(irr.genmats) == canonical_generators(2)
        assert (irr.basis, irr.weights) == (ref.basis, ref.weights), irr
        assert irr.genmats == ref.genmats, irr


# the classify weights of tools/same_outputs.py
SAME_OUTPUTS_WEIGHTS = (
    (0, 0), (0, -1), (-HALF, -HALF), (0, -2), (-1, -1), (-HALF, -3 * HALF),
    (0, -3), (-1, -2), (-2, -4), (-3 * HALF, -7 * HALF), (-1, -3), (-2, -3))


@pytest.mark.parametrize("lam", SAME_OUTPUTS_WEIGHTS + (
    pytest.param((-3, -6), marks=pytest.mark.slow),), ids=str)
def test_irrep_of_weight_matches_the_all_generator_build(lam):
    got, want = irrep_of_weight(lam), ref_irrep_of_weight(lam)
    assert list(got.genmats) == canonical_generators(2)
    assert (got.basis, got.weights) == (want.basis, want.weights)
    assert got.genmats == want.genmats


def test_bracket_recipe_reaches_the_other_root_generators():
    # each step brackets a simple generator with a simple or an earlier
    # one; with the simple ones they are the eight root generators
    known = replab.SIMPLE_RAISING + replab.SIMPLE_LOWERING
    for g, s, h, c in BRACKET_RECIPE:
        assert s in replab.SIMPLE_RAISING + replab.SIMPLE_LOWERING
        assert h in known and g not in known
        assert bracket(s, h) == [(c, g)]
        known.append(g)
    assert sorted(known) == [g for g in canonical_generators(2)
                             if not g.is_cartan()]
    assert [(repr(g), c) for g, _, _, c in BRACKET_RECIPE] == [
        ("F[-2,0]", 1), ("F[-2,1]", 1), ("F[0,-2]", -1), ("F[1,-2]", -1)]


def test_irrep_of_weight_builds_each_irrep_of_its_chain_once(monkeypatch):
    # the spinor is both factors of V(-1,-1), the defining irrep a factor
    # of V(0,-2) and V(0,-3); nothing is kept from one call to the next
    calls = Counter()
    for name in ("fock_representation", "defining_representation",
                 "irrep_with_highest_weight"):
        monkeypatch.setattr(replab, name, lambda *args, f=getattr(
            replab, name), name=name: calls.update([name]) or f(*args))
    irrep_of_weight((-1, -1))
    assert calls == {"fock_representation": 1,
                     "irrep_with_highest_weight": 2}
    calls.clear()
    irrep_of_weight((0, -3))
    irrep_of_weight((-1, -1))
    assert calls == {"defining_representation": 1, "fock_representation": 1,
                     "irrep_with_highest_weight": 5}


CORPUS = ((0, 0), (0, -1), (-HALF, -HALF), (0, -2), (-1, -1),
          (-HALF, -Fraction(3, 2)), (0, -3), (-1, -2))


def _classified(irr):
    val = validate_against_representation(irr)
    return (sorted(s.label() for s in val["states"]), val["case_mismatches"],
            val["gamma_winner"])


def test_cartan_product_matches_the_old_sources():
    # V(lam) built as a Cartan product agrees with the first irrep of
    # highest weight lam that extraction finds in the old sources, on
    # every basis-independent datum
    gens = canonical_generators(2)
    old = {}
    for make in OLD_SOURCES:
        for irr in extract_irreps(make()):
            old.setdefault(irr.highest_weight, irr)
    assert set(old) == set(CORPUS)
    for lam in CORPUS:
        got, want = irrep_of_weight(lam), old[lam]
        assert got.highest_weight == want.highest_weight
        assert (got.dim, got.weights) == (want.dim, want.weights), lam
        for g in gens:
            assert (characteristic_polynomial(got.genmats[g])
                    == characteristic_polynomial(want.genmats[g])), \
                (lam, g)
        assert _classified(got) == _classified(want), lam


def test_irrep_of_weight_rejects_invalid_weights():
    for lam in ((1, 0), (0, -HALF), (-1, 0)):
        with pytest.raises(ValueError):
            irrep_of_weight(lam)


def test_tensor_product_is_a_representation():
    spinor = irrep_of_weight((-HALF, -HALF)).representation()
    for a, b in ((spinor, defining_representation()),
                 (defining_representation(), defining_representation())):
        prod = tensor_product(a, b)
        assert prod.dim == a.dim * b.dim
        assert verify_representation(prod.genmap) == []
        sums = Counter(wa + wb
                       for wa, ia in weight_decompose(a).items()
                       for wb, ib in weight_decompose(b).items()
                       for _ in range(len(ia) * len(ib)))
        got = Counter({w: len(idx)
                       for w, idx in weight_decompose(prod).items()})
        assert got == sums


def _digit_loop_power(power):
    # reference: each generator acts on every tensor slot of the index
    # written in base 5, slot 0 the least significant digit
    base = defining_representation()
    dim = 5 ** power
    genmap = {}
    for g, op in base.genmap.items():
        cols = {}
        for idx in range(dim):
            col = {}
            for slot in range(power):
                digit = idx // 5 ** slot % 5
                for r, x in op.cols.get(digit, {}).items():
                    tgt = idx + (r - digit) * 5 ** slot
                    col[tgt] = col.get(tgt, 0) + x
            cols[idx] = col
        genmap[g] = LinOp(dim, cols)
    return genmap


# multiplicity of each highest weight in Fock(j): 6, 50 and 490 irreps,
# pinned as literals so that a seniority (Howe duality) check computed
# elsewhere stays an independent witness
FOCK_MULTIPLICITIES = {
    HALF: {(0, 0): 3, (-HALF, -HALF): 2, (0, -1): 1},
    Fraction(3, 2): {(-HALF, -HALF): 16, (0, 0): 14, (0, -1): 10,
                     (-1, -1): 5, (-HALF, -3 * HALF): 4, (0, -2): 1},
    Fraction(5, 2): {(-HALF, -HALF): 126, (0, -1): 90, (0, 0): 84,
                     (-1, -1): 70, (-HALF, -3 * HALF): 64, (0, -2): 21,
                     (-1, -2): 14, (-3 * HALF, -3 * HALF): 14,
                     (-HALF, -5 * HALF): 6, (0, -3): 1},
}


@pytest.mark.parametrize("j", [HALF, Fraction(3, 2), Fraction(5, 2)],
                         ids=str)
def test_fock_multiplicities(j):
    rep = fock_representation(j)
    types = isotypic_types(rep)
    got = {irr.highest_weight: mult for irr, mult in types}
    assert got == FOCK_MULTIPLICITIES[j]
    assert [irr.weights[0] for irr, _ in types] == sorted(
        (irr.weights[0] for irr, _ in types), key=_weight_sort_key)
    assert sum(mult * irr.dim for irr, mult in types) == rep.dim


@pytest.mark.parametrize("j", [HALF, Fraction(3, 2),
                               pytest.param(Fraction(5, 2),
                                            marks=pytest.mark.slow)],
                         ids=str)
def test_fock_multiplicities_of_extracted_copies(j):
    got = Counter(irr.highest_weight
                  for irr in extract_irreps(fock_representation(j)))
    assert got == FOCK_MULTIPLICITIES[j]


def test_tensor_power_is_a_fold_of_tensor_products():
    for power in (1, 2, 3):
        rep = tensor_power_representation(power)
        assert (rep.label, rep.dim) == (f"defining^{power}", 5 ** power)
        assert rep.genmap == _digit_loop_power(power)
    assert tensor_power_representation(0).label == "trivial"


def test_irrep_weight_blocks_are_rref():
    # each weight block of Irrep.basis is the nonzero rows of its own RREF
    for rep in (fock_representation(HALF), tensor_power_representation(3)):
        for irr in extract_irreps(rep):
            for w, positions in irr.weight_positions.items():
                support = sorted({k for p in positions for k in irr.basis[p]})
                rows = [[irr.basis[p].get(k, 0) for k in support]
                        for p in positions]
                red, pivots = dense_rref(rows, len(support))
                assert len(pivots) == len(rows)
                assert red == rows, (irr, w)


def test_slice_bases_are_rref():
    # each slice basis is the nonzero rows of its own RREF over its
    # weight block: _coordinates reads slice maps at those pivots
    for rep in (fock_representation(HALF), tensor_power_representation(3)):
        for irr in extract_irreps(rep):
            for (T, N), s in multiplicity_slices(irr).items():
                block = irr.weight_positions[Weight((T, N))]
                rows = [[v.get(k, 0) for k in block] for v in s]
                red, pivots = dense_rref(rows, len(block))
                assert len(pivots) == len(rows)
                assert red == rows, (irr, T, N)


def _coordinates_by_solve(targets, images):
    """The coordinates as one solve over the joint support, as sparse
    columns {target position: coordinate}."""
    support = sorted({k for v in targets + images for k in v})

    def columns(vectors):
        return [[v.get(k, 0) for v in vectors] for k in support]

    x = dense_solve(columns(targets), columns(images), len(targets),
                    len(images))
    if x is None:
        return None
    return [{r: row[c] for r, row in enumerate(x) if row[c]}
            for c in range(len(images))]


def test_coordinates_match_solve_on_irreps_and_slices():
    gens = [(g, root_of(g)) for g in canonical_generators(2)]
    for rep in (fock_representation(Fraction(3, 2)),
                tensor_power_representation(3)):
        for irr in extract_irreps(rep):
            for g, alpha in gens:
                for w, cols in irr.weight_positions.items():
                    targets = [irr.basis[r] for r in
                               irr.weight_positions.get(w + alpha, [])]
                    images = [rep.genmap[g].apply(irr.basis[c])
                              for c in cols]
                    assert (_coordinates(targets, images)
                            == _coordinates_by_solve(targets, images))
            slices = multiplicity_slices(irr).values()
            for op in (irr.pf_matrix(+1), irr.pf_matrix(-1)):
                for s in slices:
                    images = [op.apply(v) for v in s]
                    for t in slices:
                        assert (_coordinates(t, images)
                                == _coordinates_by_solve(t, images))


def test_coordinates_outside_the_span_and_off_echelon():
    one, two = Fraction(1), Fraction(2)
    targets = [{0: one, 2: Fraction(3)}, {1: one}]
    assert _coordinates(targets, [{0: two, 1: -one, 2: Fraction(6)}]) == \
        [{0: 2, 1: -1}]
    assert _coordinates(targets, [{0: one}]) is None
    assert _coordinates([], [{}]) == [{}]
    assert _coordinates([], [{0: one}]) is None
    for bad in ([{0: two}], [{0: one}, {0: one, 1: one}],
                [{0: one, 1: one}, {1: one}], [{}]):
        with pytest.raises(AssertionError):
            _coordinates(bad, [{0: one}])


def test_generator_matrices_are_homomorphic():
    from quasispin.liealg import bracket, canonical_generators
    irr = extract_irreps(defining_representation())[0]
    gens = canonical_generators(2)
    for a in gens:
        for b in gens:
            lhs = commutator(irr.genmats[a], irr.genmats[b])
            rhs = LinOp(irr.dim)
            for c, g in bracket(a, b):
                rhs = rhs + irr.genmats[g].scale(c)
            assert lhs == rhs


def test_slices_of_defining():
    irr = extract_irreps(defining_representation())[0]
    sl = multiplicity_slices(irr)
    got = {(str(T), str(N)): len(s) for (T, N), s in sl.items()}
    assert got == {("0", "-1"): 1, ("0", "1"): 1, ("-1", "0"): 1}


def test_slices_of_trivial():
    irr = extract_irreps(trivial_representation())[0]
    sl = multiplicity_slices(irr)
    assert {(str(T), str(N)): len(s) for (T, N), s in sl.items()} == \
        {("0", "0"): 1}


def test_slices_of_adjoint():
    rep = tensor_power_representation(2)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (Fraction(-1), Fraction(-1))][0]
    sl = multiplicity_slices(irr)
    got = {(str(T), str(N)): len(s) for (T, N), s in sl.items()}
    assert got == {("-1", "-1"): 1, ("-1", "0"): 1, ("-1", "1"): 1,
                   ("0", "0"): 1}
    # bookkeeping: 3 * 3 + 1 = 10
    assert irr.dim == 10


def test_slices_computed_once(monkeypatch):
    irr = max(extract_irreps(tensor_power_representation(2)),
              key=lambda i: i.dim)
    calls = []
    kernel_rows = replab.kernel_rows
    monkeypatch.setattr(replab, "kernel_rows",
                        lambda rows, cols: calls.append(1)
                        or kernel_rows(rows, cols))
    first = multiplicity_slices(irr)
    assert calls  # the first call eliminates
    del calls[:]
    assert multiplicity_slices(irr) is first
    assert calls == []


def test_pf_slice_maps_zero_into_missing_slice():
    irr = extract_irreps(defining_representation())[0]
    ups, downs = pf_slice_maps(irr, Fraction(0))
    # T=0: N=-1 -> N=0 has no T=0 slice; the map must be zero
    m = ups[Fraction(-1)]
    assert (Fraction(0), Fraction(0)) not in multiplicity_slices(irr)
    assert m == {} and len(rref_rows(m.values())) == 0
    # top of the ladder: zero as well
    assert len(rref_rows(ups[Fraction(1)].values())) == 0


def test_restrict_to_slices_refuses_an_image_outside_a_missing_target():
    # the identity keeps the (0,-1) slice at its own weight; with no
    # T = 0 slice at N = 0, only zero images would fit
    irr = extract_irreps(defining_representation())[0]
    with pytest.raises(AssertionError) as err:
        _restrict_to_slices(LinOp.identity(irr.dim), t_ladder(irr, 0), 0,
                            -1, 0)
    assert str(err.value) == ("image of slice (0,-1) not inside target "
                              "slice (empty)")


def test_extremal_projector_identities():
    for maker in (defining_representation,
                  lambda: fock_representation(HALF)):
        for irr in extract_irreps(maker()):
            P, _ = extremal_projector_o3(irr)
            e = irr.genmats[O3_RAISING]
            f = irr.genmats[O3_LOWERING]
            assert (P @ P) == P
            assert (e @ P).is_zero()
            assert (P @ f).is_zero()
            # image is exactly the o3-highest subspace
            slices = multiplicity_slices(irr)
            total = sum(len(s) for s in slices.values())
            assert dense_rank(dense(P), P.dim) == total


def test_projector_on_highest_and_lowest_triplet_vectors():
    irr = extract_irreps(defining_representation())[0]
    P, singular = extremal_projector_o3(irr)
    slices = multiplicity_slices(irr)
    v = slices[(Fraction(-1), Fraction(0))][0]
    assert P.apply(v) == v  # p fixes o3-highest vectors
    # the o3-lowest vector of the triplet is killed (it lies in im f)
    f = irr.genmats[O3_LOWERING]
    low = f.apply(f.apply(v))
    assert low
    assert not P.apply(low)
    # the series evaluation is singular exactly on the tau0 = +1 block
    assert [tuple(map(str, w.comps)) for w in singular] == [("1", "0")]


def test_map_on_span_reads_a_map_from_its_spanning_pairs():
    x = {0: 1, 1: 1}
    y = {0: 1, 1: -1}
    # (1,1) -> (1,0) and (1,-1) -> (0,1), with a consistent extra pair
    pairs = [(x, {5: 1}), (y, {6: 1}), ({0: 2}, {5: 1, 6: 1})]
    assert _map_on_span(pairs, [0, 1], [5, 6]) == {
        0: {5: HALF, 6: HALF}, 1: {5: HALF, 6: -HALF}}
    # a zero column is left out
    assert _map_on_span([(x, {5: 1}), (y, {5: 1})], [0, 1], [5, 6]) == {
        0: {5: 1}}


def test_map_on_span_refuses_contradictions_and_gaps():
    x = {0: 1, 1: 1}
    y = {0: 1, 1: -1}
    # the same x with two images, and (2,0) = x + y with a third
    assert _map_on_span([(x, {5: 1}), (x, {5: 2}), (y, {})],
                        [0, 1], [5]) is None
    assert _map_on_span([(x, {5: 1}), (y, {}), ({0: 2}, {})],
                        [0, 1], [5]) is None
    # x alone, or x twice, misses part of src
    assert _map_on_span([(x, {5: 1})], [0, 1], [5]) is None
    assert _map_on_span([(x, {5: 1}), ({0: 2, 1: 2}, {5: 2})],
                        [0, 1], [5]) is None
    assert _map_on_span([], [0], [5]) is None


def test_map_on_span_into_an_empty_dst():
    x = {0: 1, 1: 1}
    y = {0: 1, 1: -1}
    assert _map_on_span([(x, {}), (y, {})], [0, 1], []) == {}
    assert _map_on_span([(x, {})], [0, 1], []) is None
    assert _map_on_span([], [], []) == {}


def _projector_by_solve(irr):
    """The o3 projector built per weight block from its own ker(e) and
    one solve of [ker(e) | im(f)] X = I, then p = ker(e) X_ker."""
    e, f = irr.genmats[O3_RAISING], irr.genmats[O3_LOWERING]
    proj = LinOp(irr.dim)
    for w, cols in irr.weight_positions.items():
        up = irr.weight_positions.get(Weight((w.comps[0] - 1, w.comps[1])),
                                      [])
        kern = dense_kernel(_block(e, up, cols), len(cols))
        kmat = [[v[i] for v in kern] for i in range(len(cols))]
        sol = dense_solve([a + b for a, b in
                           zip(kmat, _block(f, cols, up))],
                          dense(LinOp.identity(len(cols))),
                          len(kern) + len(up), len(cols))
        assert sol is not None
        _put_block(proj, cols, cols, dense_matmul(kmat, sol[:len(kern)]))
    return proj


def _omega_by_dense_blocks(irr):
    """Omega transported weight by weight from the dense rows
    [f v | omega(f) Omega v] of the blocks of all four lowering
    generators, one RREF each (`omega_operator` uses the two simple
    ones)."""
    lowering = [(g, root_of(g)) + omega_genindex(g)
                for g in canonical_generators(2) if is_lowering(g)]
    positions = irr.weight_positions
    omega = LinOp(irr.dim, {0: {positions[-irr.weights[0]][0]: 1}})
    for nu in sorted(positions, key=_weight_sort_key)[1:]:
        pos, mirror = positions[nu], positions.get(-nu, [])
        rows = []
        for g, alpha, c, h in lowering:
            src = positions.get(nu - alpha)
            if not src:
                continue
            src_mirror = positions[alpha - nu]
            down = _block(irr.genmats[g], pos, src)
            image = dense_matmul(_block(irr.genmats[h], mirror, src_mirror),
                                 _block(omega, src_mirror, src))
            rows.extend([down[i][j] for i in range(len(pos))]
                        + [c * image[i][j] for i in range(len(mirror))]
                        for j in range(len(src)))
        red, pivots = dense_rref(rows, len(pos) + len(mirror))
        assert pivots == list(range(len(pos)))
        for p, row in zip(pos, red):
            col = {q: x for q, x in zip(mirror, row[len(pos):]) if x}
            if col:
                omega.cols[p] = col
    return omega


def _corpus_irreps():
    """Fock(1/2), Fock(3/2), defining^0..3 and the irreps of the eight
    corpus weights with (-1,-3) and (-2,-4): 78 irreps."""
    irreps = [irr for rep in [fock_representation(HALF),
                              fock_representation(Fraction(3, 2))]
              + [tensor_power_representation(p) for p in range(4)]
              for irr in extract_irreps(rep)]
    weights = [(0, -1), (-HALF, -HALF), (0, 0), (0, -2), (-HALF, -3 * HALF),
               (-1, -1), (0, -3), (-1, -2), (-1, -3), (-2, -4)]
    return irreps + [irrep_of_weight(lam) for lam in weights]


def test_projector_and_omega_match_their_dense_constructions():
    irreps = _corpus_irreps()
    assert len(irreps) == 78
    for irr in irreps:
        assert extremal_projector_o3(irr)[0] == _projector_by_solve(irr)
        assert omega_operator(irr) == _omega_by_dense_blocks(irr)


def test_projector_singular_blocks_follow_the_closed_form():
    # the measured rule: a block is singular when the series denominator
    # -2 tau0 + 1 + t vanishes for some t in 1..kmax, kmax the longest
    # e-tower of its basis vectors; the projector names those with tau0 >= 1
    for irr in _corpus_irreps():
        e = irr.genmats[O3_RAISING]
        measured = []
        for w in sorted(irr.weight_positions, key=_weight_sort_key):
            kmax = 0
            for c in irr.weight_positions[w]:
                v, k = e.apply({c: 1}), 0
                while v:
                    v, k = e.apply(v), k + 1
                kmax = max(kmax, k)
            if any(-2 * w.comps[0] + 1 + t == 0 for t in range(1, kmax + 1)):
                measured.append(w)
        assert extremal_projector_o3(irr)[1] == measured


def test_projector_takes_ker_e_from_the_slices(monkeypatch):
    # the series runs no elimination at all: no kernel is taken, not
    # even the slices' own
    irr = irrep_of_weight((-1, -2))
    calls = []
    kernel_rows = replab.kernel_rows
    monkeypatch.setattr(replab, "kernel_rows",
                        lambda rows, cols: calls.append(1)
                        or kernel_rows(rows, cols))
    extremal_projector_o3(irr)
    assert calls == []


def test_omega_trivial_rep():
    irr = extract_irreps(trivial_representation())[0]
    om = omega_operator(irr)
    assert om.entry(0, 0) == 1


def test_omega_defining_structure():
    irr = extract_irreps(defining_representation())[0]
    om = omega_operator(irr)
    # omega maps each weight space onto the negated one
    for mu, pos in irr.weight_positions.items():
        neg = irr.weight_positions[Weight((-mu.comps[0], -mu.comps[1]))]
        for c in pos:
            for r in range(irr.dim):
                if om.entry(r, c):
                    assert r in neg


def test_omega_conjugation_identity_everywhere():
    for maker in (defining_representation,
                  lambda: fock_representation(HALF),
                  lambda: tensor_power_representation(2)):
        for irr in extract_irreps(maker()):
            om = omega_operator(irr)
            lhs = om @ irr.pf_matrix(-1)
            rhs = (irr.pf_matrix(+1) @ om).scale(-1)
            assert lhs == rhs
            om2 = om @ om
            for g in irr.genmats:
                assert (om2 @ irr.genmats[g]) == (irr.genmats[g] @ om2)


def _omega_of(x: dict) -> dict:
    """omega, extended linearly, of {generator: coefficient}."""
    out: dict = {}
    for g, c in x.items():
        d, h = omega_genindex(g)
        out[h] = out.get(h, 0) + c * d
    return {g: c for g, c in out.items() if c}


def _bracket_of(a, b) -> dict:
    return {g: c for c, g in bracket(a, b)}


def test_omega_is_an_involutive_automorphism():
    # the premise of the Schur verdict on Omega^2: omega^2 = id gives
    # Omega^2 M(g) = Omega M(omega g) Omega = M(g) Omega^2
    gens = canonical_generators(2)
    for g in gens:
        assert _omega_of(_omega_of({g: 1})) == {g: 1}
    pairs = list(combinations(gens, 2))
    assert len(pairs) == 45
    for a, b in pairs:
        (ca, ha), (cb, hb) = omega_genindex(a), omega_genindex(b)
        assert _omega_of(_bracket_of(a, b)) == {
            g: ca * cb * c for g, c in _bracket_of(ha, hb).items()}, (a, b)


def _omega_squared_verdicts(monkeypatch, irr, om):
    """(the verdict of cli.irrep_checks with Omega = om, the ten-generator
    reference: om^2 commutes with every generator matrix)."""
    om2 = om @ om
    central = all(om2 @ m == m @ om2 for m in irr.genmats.values())
    monkeypatch.setattr(replab, "omega_operator", lambda _: om)
    [scalar] = [c.status == PASS for c in cli.irrep_checks(irr)
                if c.id.endswith("/omega-squared-central")]
    return scalar, central


@pytest.mark.parametrize("make", OLD_SOURCES[:2] + (
    pytest.param(lambda: fock_representation(Fraction(5, 2)),
                 marks=pytest.mark.slow),) + OLD_SOURCES[2:],
    ids=["fock(1/2)", "fock(3/2)", "fock(5/2)", "defining^1", "defining^2",
         "defining^3", "trivial"])
def test_scalar_omega_squared_matches_the_ten_generator_reference(
        monkeypatch, make):
    for irr in extract_irreps(make()):
        om = omega_operator(irr)
        assert _omega_squared_verdicts(monkeypatch, irr, om) == (True, True)
        if irr.dim == 1:
            continue  # a single weight block: doubled, Omega^2 stays scalar
        top = irr.weight_positions[irr.weights[0]]
        doubled = LinOp(irr.dim, {c: {r: 2 * x for r, x in col.items()}
                                  if c in top else col
                                  for c, col in om.cols.items()})
        assert _omega_squared_verdicts(monkeypatch, irr,
                                       doubled) == (False, False)


def test_theta_maps_slices():
    rep = tensor_power_representation(2)
    irr = [i for i in extract_irreps(rep)
           if i.highest_weight == (Fraction(-1), Fraction(-1))][0]
    om = omega_operator(irr)
    th = theta_transport(irr, om, Fraction(-1))
    slices = multiplicity_slices(irr)
    src = slices[(Fraction(-1), Fraction(-1))]
    tgt = slices[(Fraction(-1), Fraction(1))]
    img = th.apply(src[0])
    assert img
    assert _coordinates(tgt, [img]) is not None


def test_tps_probe_values():
    irr = extract_irreps(defining_representation())[0]
    probe = tps_scalar_probe(irr)
    rows = probe["pf_sym_scalar"]
    assert rows and all(r["matches_F11_eigenvalue"] for r in rows)
    assert all(not r["matches_D1"] for r in rows)
    t_minus1 = [r for r in rows if r["T"] == Fraction(-1)]
    assert t_minus1 and t_minus1[0]["measured"] == -1


def test_tps_probe_ratios_are_exact():
    # the measured scalars are ratios of int entries: exact division
    # gives a Fraction, where int / int would give a float
    probe = tps_scalar_probe(irrep_of_weight((-1, -1)))
    rows = probe["pf_sym_scalar"] + probe["c_constant"]
    assert probe["pf_sym_scalar"] and probe["c_constant"]
    assert all(type(x) is Fraction or x in ("not scalar", "not parallel")
               for r in rows for x in (r.get("measured"), r.get("c"))
               if x is not None)


def test_projected_pfaffian_scalar_fits_one_minus_T():
    # p.PfF_2hat = (1 - T) p.F_20 on o3-highest vectors, measured on
    # every irrep with a nonzero projected F_20 action
    rep = tensor_power_representation(3)
    found = 0
    for irr in extract_irreps(rep):
        probe = tps_scalar_probe(irr)
        if probe["c_constant"]:
            assert probe["c_fits_one_minus_T"], irr
            found += 1
    assert found > 0


def test_nondiagonal_cartan_rejected():
    from quasispin.liealg import GenIndex
    from quasispin.linalg import LinOp
    rep = defining_representation()
    broken = dict(rep.genmap)
    cart = GenIndex(-1, -1, 2)
    op = LinOp(5, {0: {1: 1}})
    broken[cart] = op
    with pytest.raises(NonDiagonalCartan):
        weight_decompose(Representation("broken", 5, broken))
