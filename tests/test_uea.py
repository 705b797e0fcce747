import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from quasispin import uea
from quasispin.liealg import (GenIndex, Weight, bracket, canonical_generators,
                              canonicalize, defining_matrices, index_range,
                              o3_subalgebra_generators, pbw_sort_key, root_of)
from quasispin.linalg import LinOp
from quasispin.uea import (CheckResult, IndexSet, UEAElement, capelli,
                           check_corollary_split, check_lemma_l2,
                           check_minorn, check_split_formula,
                           evaluate_in_representation, hat_set,
                           normal_order_rightmost, pf_hat_star_expression,
                           pf_of_tuple, pfaffian, star, weight_shift_of)
from fock_reference import build_o5_on_fock
from test_linalg import dense, dense_matmul, follows_the_scalar_rule

N5 = 2
IDX5 = [-2, -1, 0, 1, 2]
ORACLE5 = (defining_matrices(N5), 5)


def F(i, j, n=N5):
    return UEAElement.of(i, j, n)


def test_multiply_unit_and_concatenation():
    one = UEAElement(N5, {(): 1})
    x = F(0, -1)
    assert (one * x - x).normal_order().is_zero()
    y = F(-1, -2) * F(-2, -1)
    assert all(len(w) == 2 for w in y.terms)


def test_multiply_bilinear():
    rng = random.Random(5)
    gens = canonical_generators(N5)
    for _ in range(12):
        a, b, c = (UEAElement.gen(rng.choice(gens)) for _ in range(3))
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert (lhs - rhs).normal_order().is_zero()


def test_normal_order_idempotent_and_sound():
    x = F(-2, -1) * F(-1, -2) * F(-1, -1)
    nf = x.normal_order()
    assert (nf.normal_order() - nf).is_zero()
    # matrix oracle: normal ordering preserves the element
    assert evaluate_in_representation(x, *ORACLE5) == \
        evaluate_in_representation(nf, *ORACLE5)


def test_normal_order_on_ordered_word_is_identity():
    w = (GenIndex(-1, -2, N5), GenIndex(-1, -1, N5))
    x = UEAElement(N5, {w: Fraction(1)})
    assert x.normal_order().terms == {w: Fraction(1)}


def test_normal_order_reproduces_bracket():
    from quasispin.liealg import bracket
    gens = canonical_generators(N5)
    for a in gens:
        for b in gens:
            comm = (UEAElement.gen(a) * UEAElement.gen(b)
                    - UEAElement.gen(b) * UEAElement.gen(a)).normal_order()
            want = UEAElement.zero(N5)
            for c, g in bracket(a, b):
                want = want + UEAElement.gen(g).scale(c)
            assert (comm - want).normal_order().is_zero()


def test_confluence_alternate_strategy():
    rng = random.Random(17)
    gens = canonical_generators(N5)
    for _ in range(60):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(2, 4)))
        x = UEAElement(N5, {word: Fraction(1)})
        assert (x.normal_order() - normal_order_rightmost(x)).is_zero()


def test_pfaffian_sym_pair_is_f11():
    pf = pfaffian(IndexSet([-1, 1], N5))
    assert (pf - F(1, 1)).normal_order().is_zero()


def test_pfaffian_two_element_formula():
    for i, j in combinations(IDX5, 2):
        pf = pfaffian(IndexSet([i, j], N5))
        want = (F(-i, j) - F(-j, i)).scale(Fraction(1, 2))
        assert (pf - want).normal_order().is_zero()


def test_pfaffian_empty_and_errors():
    assert pfaffian(IndexSet([], N5)).terms == {(): Fraction(1)}
    with pytest.raises(ValueError):
        IndexSet([1], N5)
    with pytest.raises(ValueError):
        IndexSet([1, 1], N5)


def pfaffian_by_permutations(I):
    """PfF_I from its definition: the sum over all k! orders of I, each
    read as k/2 consecutive pairs (-a, b), weight 1/((k/2)! 2^(k/2))."""
    n, k = I.n, len(I)
    terms = {}
    for perm in permutations(I.elems):
        sgn = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        word = []
        for t in range(0, k, 2):
            s, g = canonicalize(-perm[t], perm[t + 1], n)
            sgn *= s
            word.append(g)
        word = tuple(word)
        terms[word] = terms.get(word, 0) + sgn
    weight = Fraction(1, factorial(k // 2) * 2 ** (k // 2))
    return UEAElement(n, terms).scale(weight).normal_order()


def _assert_same_terms(got, want):
    assert got.terms == want.terms
    assert all(type(c) is type(want.terms[w]) for w, c in got.terms.items())


def test_pfaffian_equals_the_permutation_sum():
    sets = [IndexSet(combo, n) for n in (1, 2, 3)
            for k in range(0, 2 * n + 2, 2)
            for combo in combinations(index_range(n), k)]
    assert len(sets) == 84
    for I in sets:
        _assert_same_terms(pfaffian(I), pfaffian_by_permutations(I))


@pytest.mark.slow
@pytest.mark.parametrize("sign", [1, -1])
def test_pfaffian_equals_the_permutation_sum_on_o9_hat_sets(sign):
    I = hat_set(4, sign)
    _assert_same_terms(pfaffian(I), pfaffian_by_permutations(I))


def test_pf_of_tuple_antisymmetry():
    a = pf_of_tuple((1, -1), N5)
    b = pf_of_tuple((-1, 1), N5)
    assert (a + b).normal_order().is_zero()
    assert pf_of_tuple((1, 1), N5).is_zero()


def test_star_product_expressions():
    for sign in (1, -1):
        pf = pfaffian(hat_set(N5, sign))
        expr = pf_hat_star_expression(N5, sign)
        assert (pf - expr).normal_order().is_zero()
        assert evaluate_in_representation(pf, *ORACLE5) == \
            evaluate_in_representation(expr, *ORACLE5)


def test_capelli_subset_counts_and_centrality():
    c2 = capelli(2, N5)
    c4 = capelli(4, N5)
    assert len(list(combinations(IDX5, 2))) == 10
    assert len(list(combinations(IDX5, 4))) == 5
    gens = canonical_generators(N5)
    for c in (c2, c4):
        for g in gens:
            assert c.commutator(UEAElement.gen(g)).normal_order().is_zero()
    c2_o3 = capelli(2, 1)
    for g in canonical_generators(1):
        assert c2_o3.commutator(UEAElement.gen(g)).normal_order().is_zero()
    with pytest.raises(ValueError):
        capelli(3, N5)


def test_lemma_l2_exhaustive_o5():
    for size in (2, 4):
        for combo in combinations(IDX5, size):
            I = IndexSet(combo, N5)
            for j1 in IDX5:
                for j2 in IDX5:
                    if j1 == j2:
                        continue
                    r = check_lemma_l2(I, j1, j2)
                    assert r, f"{r.name}: {r.witness!r}"
                    assert r.matrix_oracle(*ORACLE5)


def test_lemma_l2_case1_zero():
    r = check_lemma_l2(IndexSet([-1, 1], N5), 2, -2)
    assert r and r.lhs.normal_order().is_zero()


def test_lemma_l2_case4_two_terms():
    r = check_lemma_l2(IndexSet([-1, 1], N5), 1, -1)
    assert r


def test_split_boundary_with_empty_pfaffian():
    # (p, q) = (2, 0): the empty-set Pfaffian is 1 and the identity is
    # trivial for every two-element set
    for i, j in combinations(IDX5, 2):
        r = check_split_formula(IndexSet([i, j], N5), 2, 0)
        assert r and len(r.rhs.terms) > 0
        r = check_split_formula(IndexSet([i, j], N5), 0, 2)
        assert r


def test_lemma_l2_case2_replacement():
    # j1 in I, j2 not: [PfF_I, F_{1,-2}] = PfF_{I with 1 -> -2}
    I = IndexSet([-2, -1, 0, 1], N5)
    r = check_lemma_l2(I, 1, 2)
    assert r
    replaced = pf_of_tuple((-2, -1, 0, -2), N5)  # collision: vanishes
    assert replaced.is_zero()
    assert r.rhs.normal_order().is_zero()  # so the commutator is zero too


def test_split_formulas_o5():
    for combo in combinations(IDX5, 4):
        I = IndexSet(combo, N5)
        for p, q in ((2, 2), (4, 0), (0, 4)):
            r = check_split_formula(I, p, q)
            assert r, f"{r.name}: {r.witness!r}"
            assert r.matrix_oracle(*ORACLE5)
        r = check_corollary_split(I)
        assert r and r.matrix_oracle(*ORACLE5)
    with pytest.raises(ValueError):
        check_split_formula(IndexSet([-2, -1, 0, 1], N5), 3, 1)


def test_minorn_o5():
    for size in (2, 4):
        for combo in combinations(IDX5, size):
            if -2 not in combo:
                continue
            r = check_minorn(IndexSet(combo, N5))
            assert r, f"{r.name}: {r.witness!r}"
            assert r.matrix_oracle(*ORACLE5)
    with pytest.raises(ValueError):
        check_minorn(IndexSet([-1, 1], N5))


def test_matrix_oracle_rejects_a_wrong_identity():
    # F_a F_b = F_b F_a is false for a non-commuting pair, and F_a F_b =
    # F_b F_a + [F_a, F_b] is true, with [F_a, F_b] from the bracket table
    gens = canonical_generators(N5)
    ga, gb = next((a, b) for a in gens for b in gens if bracket(a, b))
    a, b = UEAElement.gen(ga), UEAElement.gen(gb)
    comm = UEAElement.zero(N5)
    for c, g in bracket(ga, gb):
        comm = comm + UEAElement.gen(g).scale(c)
    assert not CheckResult("swap", a * b, b * a).matrix_oracle(*ORACLE5)
    assert CheckResult("swap+bracket", a * b,
                       b * a + comm).matrix_oracle(*ORACLE5)


def test_weight_shifts():
    for size in (2, 4):
        for combo in combinations(IDX5, size):
            I = IndexSet(combo, N5)
            shift = weight_shift_of(pfaffian(I))
            want = Weight.zero(N5)
            for i in combo:
                want = want - Weight.e(i, N5)
            assert shift == want
    assert weight_shift_of(pfaffian(hat_set(N5, 1))) == Weight((0, 1))
    assert weight_shift_of(pfaffian(hat_set(N5, -1))) == Weight((0, -1))
    assert weight_shift_of(F(-1, -1)) == Weight.zero(N5)
    mixed = F(0, -1) + F(-1, -1)
    assert weight_shift_of(mixed) is None


def test_pf_commutes_with_o3():
    sub = o3_subalgebra_generators(N5)
    for sign in (1, -1):
        pf = pfaffian(hat_set(N5, sign))
        for g in sub:
            assert pf.commutator(UEAElement.gen(g)).normal_order().is_zero()


def omega_image(x):
    """Image under the reflection automorphism F_ij -> -F_ji.

    This is the Weyl reflection sending every weight to its negative; on
    even-length words the signs cancel, so Pfaffians map to signed
    Pfaffians of the negated index sets.
    """
    out = UEAElement.zero(x.n)
    for w, c in x.terms.items():
        word = []
        sgn = (-1) ** len(w)
        for g in w:
            s, h = canonicalize(g.j, g.i, x.n)
            assert s != 0, f"{g} has no transpose generator"
            sgn *= s
            word.append(h)
        out = out + UEAElement(x.n, {tuple(word): Fraction(sgn * c)})
    return out


def test_omega_image_of_hat_pfaffians():
    # with the bare letterwise reflection, PfF_{-2hat} maps to +PfF_{2hat}
    pf_m = pfaffian(hat_set(N5, -1))
    pf_p = pfaffian(hat_set(N5, 1))
    assert (omega_image(pf_m) - pf_p).normal_order().is_zero()


def test_star_is_symmetrization():
    x, y = F(0, -1), F(-1, -2)
    s = star(x, y)
    assert (s - star(y, x)).normal_order().is_zero()
    assert (s + s - (x * y + y * x)).normal_order().is_zero()


def test_floats_are_refused():
    g = canonical_generators(N5)[0]
    with pytest.raises(TypeError):
        UEAElement.gen(g).scale(0.1)
    with pytest.raises(TypeError):
        UEAElement(N5, {(): 0.5})
    with pytest.raises(TypeError):
        UEAElement(N5, {(g,): 0.25})


def test_a_word_of_fresh_letters_hits_the_memo():
    gens = canonical_generators(N5)
    word = (gens[-1], gens[0], gens[5])
    nf = UEAElement(N5, {word: 1}).normal_order()
    assert len(nf.terms) > 1
    size = len(uea._normal_cache)
    fresh = tuple(GenIndex(g.i, g.j, N5) for g in word)
    assert uea._normal_order_word(fresh) is uea._normal_cache[word]
    assert UEAElement(N5, {fresh: 1}).normal_order().terms == nf.terms
    assert len(uea._normal_cache) == size


def _assert_int_when_integral(coeffs):
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_integral_coefficients_are_ints():
    g = canonical_generators(N5)[0]
    built = UEAElement(N5, {(): Fraction(6, 3), (g,): Fraction(1, 3)})
    assert type(built.terms[()]) is int
    elements = [built, pfaffian(hat_set(N5, 1)), pfaffian(hat_set(N5, -1)),
                pfaffian(IndexSet([-2, -1, 0, 1], N5)), capelli(2, N5),
                capelli(4, N5), pf_hat_star_expression(N5, 1),
                F(0, -1).scale(Fraction(4, 2)), F(0, -1) * F(-1, -2)]
    for x in elements:
        _assert_int_when_integral(x.terms.values())
    assert uea._normal_cache and uea._bracket_cache
    for nf in uea._normal_cache.values():
        _assert_int_when_integral(nf.values())
    for terms in uea._bracket_cache.values():
        assert all(type(c) is int for c, _ in terms)


def test_evaluator_returns_exact_entries():
    _, _, fock_map = build_o5_on_fock(Fraction(1, 2))
    # the defining matrices are integer columns
    assert all(type(y) is int for op in ORACLE5[0].values()
               for col in op.cols.values() for y in col.values())
    for genmap, dim in (ORACLE5, (fock_map, 16)):
        for x in (F(0, -1), F(0, -1).scale(Fraction(1, 3)) * F(-1, 0),
                  capelli(2, N5), pfaffian(IndexSet([-2, 1], N5))):
            m = evaluate_in_representation(x, genmap, dim)
            assert type(m) is LinOp and not m.is_zero()
            assert follows_the_scalar_rule(m)


def test_sort_key_and_root_memos_match_fresh_computation():
    for n in range(1, 5):
        fresh = {}
        for g in canonical_generators(n):
            root = Weight.e(g.i, n) - Weight.e(g.j, n)
            if g.is_cartan():
                key = (1, (g.i, g.j))
            else:
                lead = next(c for c in reversed(root.comps) if c)
                key = (2 if lead < 0 else 0, root.comps + (g.i, g.j))
            assert root_of(g) == root
            assert pbw_sort_key(g) == key
            fresh[g] = key
        assert canonical_generators(n) == sorted(canonical_generators(n),
                                                 key=fresh.__getitem__)
    assert [g.key() for g in canonical_generators(1)] == \
        [(0, -1), (-1, -1), (-1, 0)]
    assert [g.key() for g in canonical_generators(2)] == \
        [(-1, -2), (0, -2), (0, -1), (1, -2), (-2, -2), (-1, -1), (-2, 1),
         (-1, 0), (-2, 0), (-2, -1)]


# -- the evaluator against a dense word-product reference ---------------


def _reference(x, genmap, dim):
    """Sum over the words of coeff times the dense product of the letters,
    as dense rows."""
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for w, c in x.terms.items():
        m = dense(LinOp.identity(dim))
        for g in w:
            m = dense_matmul(m, dense(genmap[g]))
        out = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(out, m)]
    return out


@lru_cache(maxsize=None)
def _oracle(label):
    """(genmap, dim, rank n) of a representation of the differential test."""
    from quasispin.replab import (fock_representation,
                                  irrep_with_highest_weight)
    if label.startswith("defining"):
        n = int(label[-1])
        return defining_matrices(n), 2 * n + 1, n
    if label == "fock(1/2)":
        rep = fock_representation(Fraction(1, 2))
        return rep.genmap, rep.dim, N5
    irr = irrep_with_highest_weight(fock_representation(Fraction(3, 2)),
                                    (Fraction(-1, 2), Fraction(-3, 2)))
    return irr.genmats, irr.dim, N5


ORACLE_LABELS = ("defining-1", "defining-2", "defining-3", "fock(1/2)",
                 "fock(3/2)-irrep")


@st.composite
def elements(draw, n):
    words = st.lists(st.sampled_from(canonical_generators(n)),
                     max_size=4).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return UEAElement(n, draw(st.dictionaries(words, coeffs, max_size=4)))


def _assert_matches_reference(x, genmap, dim):
    got = evaluate_in_representation(x, genmap, dim)
    assert type(got) is LinOp
    assert dense(got) == _reference(x, genmap, dim)
    return got


@pytest.mark.parametrize("label", ORACLE_LABELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluator_matches_dense_reference(label, data):
    genmap, dim, n = _oracle(label)
    _assert_matches_reference(data.draw(elements(n)), genmap, dim)


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_evaluator_zero_and_cancelling_elements(label):
    genmap, dim, n = _oracle(label)
    assert _assert_matches_reference(UEAElement.zero(n), genmap, dim).is_zero()
    # a b - b a - [a, b] is nonzero as a dict of words but zero in every
    # representation
    a, b = canonical_generators(n)[0], canonical_generators(n)[-1]
    x = UEAElement.gen(a).commutator(UEAElement.gen(b))
    for c, g in bracket(a, b):
        x = x - UEAElement.gen(g).scale(c)
    assert x.terms
    assert _assert_matches_reference(x, genmap, dim).is_zero()


def test_evaluator_input_errors():
    x = F(0, -1) * F(-1, -2)
    with pytest.raises(ValueError):
        evaluate_in_representation(x, {}, 5)
    partial = dict(ORACLE5[0])
    del partial[GenIndex(-1, -2, N5)]
    with pytest.raises(ValueError):
        evaluate_in_representation(x, partial, 5)
    with pytest.raises(ValueError):
        evaluate_in_representation(x, ORACLE5[0], 4)
    fock_map, fock_dim, _ = _oracle("fock(1/2)")
    with pytest.raises(ValueError):
        evaluate_in_representation(x, fock_map, fock_dim + 1)
    # a dense generator map is refused, naming the first letter read
    rows = {g: dense(m) for g, m in ORACLE5[0].items()}
    with pytest.raises(TypeError, match=r"F\[-1,-2\] maps to a list"):
        evaluate_in_representation(x, rows, 5)
