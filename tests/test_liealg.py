import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from quasispin import liealg
from quasispin.liealg import (GenIndex, Weight, bracket, canonical_generators,
                              canonicalize, defining_matrices, is_lowering,
                              is_raising, o3_subalgebra_generators, root_of,
                              simple_generators, weyl_dimension)
from quasispin.linalg import LinOp, rref_rows
from test_linalg import commutator


def jacobi_defect(a, b, c):
    """[[a,b],c] + [[b,c],a] + [[c,a],b] as a coefficient map (empty if OK)."""
    acc = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for c1, g in bracket(x, y):
            for c2, h in bracket(g, z):
                acc[h] = acc.get(h, 0) + c1 * c2
    return {g: c for g, c in acc.items() if c}


def test_canonicalize_zero_generator():
    s, g = canonicalize(1, -1, 2)
    assert s == 0 and g is None


def test_canonicalize_identity_on_canonical():
    s, g = canonicalize(-2, -1, 2)
    assert s == 1 and g.key() == (-2, -1)


def test_canonicalize_antisymmetric_pair():
    s1, g1 = canonicalize(-2, -1, 2)
    s2, g2 = canonicalize(1, 2, 2)
    assert g1 == g2 and {s1, s2} == {1, -1}


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        canonicalize(3, 0, 2)


def test_generators_are_interned():
    for n in range(1, 5):
        gens = canonical_generators(n)
        assert all(a is b for a, b in zip(gens, canonical_generators(n)))
        for g in gens:
            assert GenIndex(g.i, g.j, n) is g
            s, h = canonicalize(g.i, g.j, n)
            assert s == 1 and h is g
            s, h = canonicalize(-g.j, -g.i, n)
            assert s == -1 and h is g
    assert GenIndex(-1, -1, 1) is not GenIndex(-1, -1, 2)
    assert GenIndex(-1, -1, 1) != GenIndex(-1, -1, 2)


@pytest.mark.parametrize("i,j,n", [(3, 0, 2), (0, -3, 2), (-2, 5, 4),
                                   (1, -1, 2), (0, 0, 3), (1, 2, 2),
                                   (2, -1, 2), (1, 1, 1)])
def test_invalid_generators_raise_and_are_not_interned(i, j, n):
    before = dict(liealg._interned)
    with pytest.raises(ValueError):
        GenIndex(i, j, n)
    assert liealg._interned == before
    assert (i, j, n) not in liealg._interned


def test_bracket_examples():
    n = 2
    # [F_{1,2}, F_{2,1}] = F_{11} - F_{22}, computed through the canonical
    # representatives F_{1,2} = -F_{-2,-1}, F_{2,1} = -F_{-1,-2}
    res = bracket(GenIndex(-2, -1, n), GenIndex(-1, -2, n))
    as_dict = {g.key(): c for c, g in res}
    # F_{11} = -F_{-1,-1}, F_{22} = -F_{-2,-2}
    assert as_dict == {(-2, -2): 1, (-1, -1): -1}

    # [F_{11}, F_{12}] = F_{12}: canonically [F_{-1,-1}, F_{-2,-1}]
    res = bracket(GenIndex(-1, -1, n), GenIndex(-2, -1, n))
    assert [(c, g.key()) for c, g in res] == [(Fraction(-1), (-2, -1))]

    # [F_{1,2}, F_{-1,0}] = -F_{-2,0}: the delta_{-k,i} term does fire
    res = bracket(GenIndex(-2, -1, n), GenIndex(-1, 0, n))
    assert [(c, g.key()) for c, g in res] == [(Fraction(1), (-2, 0))]


def test_bracket_antisymmetry():
    gens = canonical_generators(2)
    for a in gens:
        for b in gens:
            ab = {g.key(): c for c, g in bracket(a, b)}
            ba = {g.key(): -c for c, g in bracket(b, a)}
            assert ab == ba
            assert all(type(c) is int for c in ab.values())


def test_root_of_examples():
    n = 2
    assert root_of(GenIndex(0, -1, n)) == Weight((1, 0))       # e_1
    assert root_of(GenIndex(-1, -1, n)).is_zero()              # Cartan
    assert root_of(GenIndex(-1, -2, n)) == Weight((-1, 1))     # -e_1 + e_2


def test_polarity_matches_tableau_conventions():
    # the o3 raising operator must be F_{-1,0} so that highest weights
    # come out nonpositive
    assert is_raising(GenIndex(-1, 0, 2))
    assert is_lowering(GenIndex(0, -1, 2))
    raising = [g.key() for g in canonical_generators(2) if is_raising(g)]
    assert sorted(raising) == [(-2, -1), (-2, 0), (-2, 1), (-1, 0)]


def test_jacobi_exhaustive_o3_o5():
    for n in (1, 2):
        for a, b, c in combinations(canonical_generators(n), 3):
            assert not jacobi_defect(a, b, c)


def test_jacobi_sampled_o7():
    gens = canonical_generators(3)
    rng = random.Random(11)
    for _ in range(120):
        a, b, c = rng.sample(gens, 3)
        assert not jacobi_defect(a, b, c)


def test_defining_matrices_faithful():
    for n in (1, 2, 3):
        mats = defining_matrices(n)
        gens = canonical_generators(n)
        for a in gens:
            assert sum(mats[a].entry(i, i) for i in range(2 * n + 1)) == 0
            for b in gens:
                lhs = commutator(mats[a], mats[b])
                rhs = LinOp(2 * n + 1)
                for c, g in bracket(a, b):
                    rhs = rhs + mats[g].scale(c)
                assert lhs == rhs
        # faithfulness: the matrices are linearly independent
        flat = [{(r, c): x for c, col in mats[g].cols.items()
                 for r, x in col.items()} for g in gens]
        assert len(rref_rows(flat)) == len(gens)


def test_defining_cartan_o3():
    mats = defining_matrices(1)
    f11 = mats[GenIndex(-1, -1, 1)]  # canonical form of -F_{11}
    diag = [f11.entry(i, i) for i in range(3)]
    # F_{11} = diag(-1, 0, 1) in index order (-1, 0, 1)
    assert [-d for d in diag] == [-1, 0, 1]


def test_o3_subalgebra_closes():
    sub = o3_subalgebra_generators(2)
    assert len(sub) == 3
    keys = {g.key() for g in sub}
    for a in sub:
        for b in sub:
            for c, g in bracket(a, b):
                assert g.key() in keys
    # same for the o5 inside o7
    sub7 = o3_subalgebra_generators(3)
    keys7 = {g.key() for g in sub7}
    assert len(sub7) == 10
    for a in sub7:
        for b in sub7:
            for c, g in bracket(a, b):
                assert g.key() in keys7


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simple_generators_span_the_raising_roots(n):
    # n simple raising roots, each paired with the generator of its
    # negative, and every raising root a nonnegative integer combination
    # of them (coefficients at most 2 in type B)
    raising, lowering = simple_generators(n)
    assert len(raising) == len(lowering) == n
    assert all(is_raising(g) for g in raising)
    assert [root_of(g) for g in lowering] == [-root_of(g) for g in raising]
    combos = set()
    for coeffs in product(range(3), repeat=n):
        w = Weight.zero(n)
        for k, g in zip(coeffs, raising):
            for _ in range(k):
                w = w + root_of(g)
        combos.add(w)
    roots = [root_of(g) for g in canonical_generators(n) if is_raising(g)]
    assert len(roots) == n * n
    assert all(r in combos for r in roots)
    assert simple_generators(2) == (
        [GenIndex(-2, -1, 2), GenIndex(-1, 0, 2)],
        [GenIndex(-1, -2, 2), GenIndex(0, -1, 2)])


def test_weyl_dimension_oracle():
    assert weyl_dimension(0, 0) == 1
    assert weyl_dimension(0, -1) == 5
    assert weyl_dimension(-1, -1) == 10
    assert weyl_dimension(Fraction(-1, 2), Fraction(-1, 2)) == 4
    with pytest.raises(ValueError):
        weyl_dimension(-1, 0)
    with pytest.raises(ValueError):
        weyl_dimension(0, Fraction(-1, 2))
