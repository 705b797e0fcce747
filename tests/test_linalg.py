import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasispin.linalg import (ExactMatrix, LinOp, characteristic_polynomial,
                              rank, rank_and_kernel, row_basis, solve)

# small rational entries, zero-heavy so that singular matrices and
# consistent systems with free variables come up often
entries = st.builds(Fraction, st.sampled_from([0, 0, 0, 1, -1, 2]),
                    st.sampled_from([1, 1, 2, 3]))


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
    return ExactMatrix.from_rows(rows)


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


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
    assert v[0] * 1 + v[1] * 2 == 0
    assert mat_apply_zero(m, k)


def test_rank_nullity_sums():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(rows, cols,
                        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(cols)] for _ in range(rows)])
        r, k = rank_and_kernel(m)
        assert r + len(k) == cols
        assert mat_apply_zero(m, k)


def test_charpoly_examples():
    assert characteristic_polynomial(ExactMatrix.identity(2)) == [1, -2, 1]
    assert characteristic_polynomial(mat([[3, 0], [0, 5]])) == [1, -8, 15]
    assert characteristic_polynomial(mat([[0, 1], [2, 0]])) == [1, 0, -2]


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ValueError):
        characteristic_polynomial(ExactMatrix(2, 3))


def test_charpoly_similarity_invariant():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = ExactMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)])
        while True:
            p = ExactMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
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
    for order in ([[0, 1], [1, 5]], [[1, 5], [0, 1]]):
        assert row_basis(order, 2) == [[1, 0], [0, 1]]


def test_span_as_rref_rows():
    # the span of (1,2), (2,4), (0,1) is all of Q^2; membership of
    # (5,-1) is consistency of the system with the vectors as columns
    vecs = mat([[1, 2], [2, 4], [0, 1]])
    red, pivots = vecs.rref()
    assert pivots == [0, 1]
    assert red.data[:2] == mat([[1, 0], [0, 1]]).data
    assert solve(mat([[1, 2, 0], [2, 4, 1]]), mat([[5], [-1]])) is not None


def test_coordinates_by_solve():
    # coordinates of (3,4,3) in the basis (1,0,1), (0,2,0); a vector
    # outside the span gives None
    basis = mat([[1, 0], [0, 2], [1, 0]])
    assert solve(basis, mat([[3], [4], [3]])) == mat([[3], [2]])
    assert solve(basis, mat([[0], [0], [1]])) is None


def test_linop_roundtrip_and_products():
    a = LinOp(3, {0: {1: 1}, 1: {2: 2}})
    b = LinOp(3, {0: {0: 3}})
    assert (a @ b).cols == {0: {1: 3}}
    assert a.transpose().cols == {1: {0: 1}, 2: {1: 2}}
    assert a.entry(1, 0) == 1 and a.entry(2, 1) == 2
    assert a.entry(0, 1) == 0
    assert (a - a).is_zero()


@st.composite
def linop_cases(draw):
    """Two operators on 1..4 dimensions, with explicit zeros in their input
    columns, plus a scalar, a block position and a block."""
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    cols = st.dictionaries(idx, st.dictionaries(idx, entries, max_size=n),
                           max_size=n)
    rows = draw(st.lists(idx, unique=True, max_size=n))
    bcols = draw(st.lists(idx, unique=True, max_size=n))
    block = draw(matrices(len(rows), len(bcols)))
    return (LinOp(n, draw(cols)), LinOp(n, draw(cols)), draw(entries),
            rows, bcols, block)


def in_normal_form(op):
    return all(col and all(col.values()) for col in op.cols.values())


def dense(op):
    return [[op.entry(r, c) for c in range(op.dim)] for r in range(op.dim)]


@settings(max_examples=150, deadline=None)
@given(linop_cases())
def test_linop_operations_keep_normal_form(case):
    # LinOp.__eq__ compares the stored columns, which is entrywise
    # equality only while no zero entry and no empty column is stored
    from quasispin.liealg import canonical_generators
    from quasispin.replab import _put_block
    from quasispin.uea import UEAElement, evaluate_in_representation
    a, b, c, rows, cols, block = case
    n = a.dim
    gens = canonical_generators(1)
    genmap = dict(zip(gens, (a, b, a @ b)))
    x = UEAElement(1, {(gens[0], gens[1]): 1, (gens[1], gens[0]): -1,
                       (gens[2],): c})
    put = LinOp(n)
    _put_block(put, rows, cols, block)
    assert dense(put) == [[block.data[rows.index(r)][cols.index(k)]
                           if r in rows and k in cols else 0
                           for k in range(n)] for r in range(n)]
    for op in (a, b, a + b, a - b, a - a, a @ b, a.scale(c), a.transpose(),
               evaluate_in_representation(x, genmap, n), put):
        assert in_normal_form(op)
    assert (a - a).is_zero() and a - a == LinOp(n)
    assert (a == b) == (dense(a) == dense(b))
    assert a + b == b + a


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        ExactMatrix(1, 2, [[1, 0.5]])
    with pytest.raises(TypeError):
        ExactMatrix.identity(2).scale(0.5)
    with pytest.raises(TypeError):
        LinOp(2, {0: {1: 0.5}})
    with pytest.raises(TypeError):
        LinOp.identity(2).scale(0.5)


def test_integer_input_gives_fractions():
    # int / int would be a float; every result entry must stay a Fraction
    m = ExactMatrix.from_rows([[2, 3, 1], [4, 1, 5], [6, 4, 6]])
    assert all(type(x) is Fraction for row in m.data for x in row)
    red, _ = m.rref()
    assert all_fractions(red.data)
    r, kernel = rank_and_kernel(m)
    assert r == 2 and all_fractions(kernel)
    x = solve(m, ExactMatrix.from_rows([[1], [3], [4]]))
    assert x is not None and all_fractions(x.data)
    assert all_fractions([characteristic_polynomial(m)])
    assert all_fractions(row_basis([[3, 1, 2], [1, 1, 1]], 3))
