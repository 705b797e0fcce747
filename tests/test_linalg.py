import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasispin.linalg import (ExactMatrix, LinOp, characteristic_polynomial,
                              rank, rank_and_kernel, row_basis, solve)
from quasispin.scalars import ONE, SQRT2, ZERO, QuadScalar, quad

# small entries of Q(sqrt 2), zero-heavy so that singular matrices and
# consistent systems with free variables come up often
coeffs = st.sampled_from([0, 0, 0, 1, -1, 2])
entries = st.builds(QuadScalar, coeffs, coeffs)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: ExactMatrix(rows, cols, data))


@st.composite
def systems(draw):
    """(mat, rhs): rhs is mat @ Y (consistent) or drawn freely."""
    r, c, k = (draw(st.integers(1, 4)) for _ in range(3))
    mat = draw(matrices(r, c))
    if draw(st.booleans()):
        return mat, mat @ draw(matrices(c, k))
    return mat, draw(matrices(r, k))


def mat(rows):
    return ExactMatrix.from_rows([[quad(x) for x in r] for r in rows])


def mat_apply_zero(m, vecs):
    return all(all(not x for x in m.apply(v)) for v in vecs)


def test_rank_kernel_identity():
    r, k = rank_and_kernel(ExactMatrix.identity(2))
    assert r == 2 and k == []


def test_rank_kernel_proportional_rows():
    m = mat([[1, 2], [2, 4]])
    r, k = rank_and_kernel(m)
    assert r == 1 and len(k) == 1
    # kernel spans (-2, 1)
    v = k[0]
    assert v[0] * quad(1) + v[1] * quad(2) == ZERO
    assert mat_apply_zero(m, k)


def test_rank_kernel_sqrt2_row():
    m = ExactMatrix(2, 2, [[SQRT2, quad(2)], [ONE, SQRT2]])
    r, _ = rank_and_kernel(m)
    assert r == 1  # second row is the first divided by sqrt 2


def test_rank_nullity_sums():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(rows, cols,
                        [[quad(Fraction(rng.randint(-3, 3)))
                          for _ in range(cols)] for _ in range(rows)])
        r, k = rank_and_kernel(m)
        assert r + len(k) == cols
        assert mat_apply_zero(m, k)


def test_charpoly_examples():
    assert characteristic_polynomial(ExactMatrix.identity(2)) == \
        [ONE, quad(-2), ONE]
    assert characteristic_polynomial(mat([[3, 0], [0, 5]])) == \
        [ONE, quad(-8), quad(15)]
    assert characteristic_polynomial(mat([[0, 1], [2, 0]])) == \
        [ONE, ZERO, quad(-2)]


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ValueError):
        characteristic_polynomial(ExactMatrix(2, 3))


def test_charpoly_similarity_invariant():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = ExactMatrix(n, n, [[quad(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)])
        while True:
            p = ExactMatrix(n, n, [[quad(rng.randint(-2, 2)) for _ in range(n)]
                                   for _ in range(n)])
            if rank_and_kernel(p)[0] == n:
                break
        # solve P X = M P in one elimination for X = P^{-1} M P
        x = solve(p, m @ p)
        assert characteristic_polynomial(x) == characteristic_polynomial(m)


def test_solve_examples():
    assert solve(ExactMatrix.identity(2), mat([[1], [2]])) == mat([[1], [2]])
    assert solve(mat([[1, 1], [2, 2]]), mat([[1], [3]])) is None
    assert solve(mat([[1, 1], [2, 2]]), mat([[1], [2]])) == \
        mat([[1], [0]])  # free variable pinned to zero
    # one inconsistent column makes the whole system inconsistent
    assert solve(mat([[1, 1], [2, 2]]), mat([[1, 1], [2, 3]])) is None


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_solves_with_free_rows_zero(system):
    mat, rhs = system
    x = solve(mat, rhs)
    if x is None:
        return
    assert mat @ x == rhs
    _, pivots = mat.rref()
    for c in range(mat.cols):
        if c not in pivots:
            assert all(not v for v in x.data[c])


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_none_exactly_when_inconsistent(system):
    mat, rhs = system
    aug = ExactMatrix(mat.rows, mat.cols + rhs.cols,
                      [a + b for a, b in zip(mat.data, rhs.data)])
    assert (solve(mat, rhs) is None) == (rank(aug) > rank(mat))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1,
             max_size=5), st.randoms())))
def test_row_basis_independent_of_order(case):
    vectors, rnd = case
    shuffled = vectors[:]
    rnd.shuffle(shuffled)
    n = len(vectors[0])
    assert row_basis(shuffled, n) == row_basis(vectors, n)


def test_row_basis_fully_reduced():
    # inserting (0,1) before (1,5) must still reduce (1,5) to (1,0)
    for order in ([[ZERO, ONE], [ONE, quad(5)]], [[ONE, quad(5)], [ZERO, ONE]]):
        assert row_basis(order, 2) == [[ONE, ZERO], [ZERO, ONE]]


def test_span_as_rref_rows():
    # the span of (1,2), (2,4), (0,1) is all of Q^2; membership of
    # (5,-1) is consistency of the system with the vectors as columns
    vecs = mat([[1, 2], [2, 4], [0, 1]])
    red, pivots = vecs.rref()
    assert pivots == [0, 1]
    assert red.data[:2] == mat([[1, 0], [0, 1]]).data
    assert solve(vecs.transpose(), mat([[5], [-1]])) is not None


def test_coordinates_by_solve():
    # coordinates of (3,4,3) in the basis (1,0,1), (0,2,0); a vector
    # outside the span gives None
    basis = mat([[1, 0], [0, 2], [1, 0]])
    assert solve(basis, mat([[3], [4], [3]])) == mat([[3], [2]])
    assert solve(basis, mat([[0], [0], [1]])) is None


def test_linop_roundtrip_and_products():
    a = LinOp(3, {0: {1: ONE}, 1: {2: quad(2)}})
    b = LinOp(3, {0: {0: quad(3)}})
    assert (a @ b).cols == {0: {1: quad(3)}}
    assert a.transpose().cols == {1: {0: ONE}, 2: {1: quad(2)}}
    m = a.to_matrix()
    assert m.data[1][0] == ONE and m.data[2][1] == quad(2)
    assert (a - a).is_zero()
