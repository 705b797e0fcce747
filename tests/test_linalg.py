import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasispin.liealg import canonical_generators
from quasispin.linalg import (LinOp, characteristic_polynomial, kernel_rows,
                              rref_rows, svec_map, transpose_cols)
from quasispin.replab import _coordinates
from quasispin.uea import UEAElement, evaluate_in_representation

# small rational entries, zero-heavy so that singular matrices and
# consistent systems with free variables come up often
entries = st.builds(Fraction, st.sampled_from([0, 0, 0, 1, -1, 2]),
                    st.sampled_from([1, 1, 2, 3]))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def systems(draw):
    """(mat, rhs, k): rhs is mat @ Y (consistent) or drawn freely, with
    k columns."""
    r, c, k = (draw(st.integers(1, 4)) for _ in range(3))
    mat = draw(matrices(r, c))
    if draw(st.booleans()):
        return mat, dense_matmul(mat, draw(matrices(c, k))), k
    return mat, draw(matrices(r, k)), k


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def exact_entries(xs):
    """Every entry an int or a Fraction, never a float."""
    return all(type(x) in (int, Fraction) for x in xs)


def follows_the_scalar_rule(op: LinOp):
    """Every entry of op an int when integral, else a Fraction: what the
    LinOp constructor and `scale` store."""
    return all(type(x) is int or type(x) is Fraction and x.denominator != 1
               for col in op.cols.values() for x in col.values())


# -- the dense reference ------------------------------------------------
# Gauss-Jordan, products, solves and characteristic polynomials on dense
# rows (lists of lists), written apart from the package: the tests
# compare its sparse kernel, slice maps, flags and pivot readers against
# these.


def dense_rref(data, cols):
    """Reference Gauss-Jordan on dense rows: (rref rows, pivot columns).

    Pivot rule: scan columns left to right, pick the first row (top to
    bottom) with a nonzero entry.
    """
    m = [[Fraction(x) for x in row] for row in data]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        prow = m[r] = [inv * x if x else x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_rank(data, cols):
    return len(dense_rref(data, cols)[1])


def dense_kernel(data, cols):
    """The RREF basis of the null space of dense rows, one vector per
    free column."""
    red, pivots = dense_rref(data, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return dense_rref(basis, cols)[0]


def dense_matmul(a, b):
    """a @ b for dense rows; b without rows gives rows without columns."""
    return [[sum((x * row[j] for x, row in zip(ra, b)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for ra in a]


def dense_solve(a, b, n, k):
    """X (n x k) with a @ X == b and the rows of free variables zero, from
    one RREF of [a | b]; None when some column of b is outside the
    column space of a."""
    red, pivots = dense_rref([ra + rb for ra, rb in zip(a, b)], n + k)
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for row, p in zip(red, pivots):
        x[p] = row[n:]
    return x


def dense_charpoly(m):
    """Coefficients of det(xI - m) for dense square rows, by the
    Faddeev-LeVerrier recursion."""
    n = len(m)
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = dense_matmul(m, [[x + coeffs[-1] if i == j else x
                               for j, x in enumerate(row)]
                              for i, row in enumerate(mk)])
        coeffs.append(-sum((mk[i][i] for i in range(n)), Fraction(0)) / k)
    return coeffs


def densify(cols, rows, ncols):
    """Sparse columns {c: {r: x}} as rows x ncols dense rows."""
    return [[cols.get(c, {}).get(r, Fraction(0)) for c in range(ncols)]
            for r in range(rows)]


def dense(op: LinOp):
    return densify(op.cols, op.dim, op.dim)


def linop(rows):
    """The LinOp of square dense rows."""
    return LinOp(len(rows), {c: {r: row[c] for r, row in enumerate(rows)}
                             for c in range(len(rows))})


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b - b @ a


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _block(op: LinOp, rows, cols):
    """The rows x cols block of op, as dense rows."""
    return [[op.entry(r, c) for c in cols] for r in rows]


def _put_block(op: LinOp, rows, cols, block):
    """Write the dense rows block into the rows x cols block of op, which
    must be zero there; only nonzero entries are stored, so op keeps its
    normal form."""
    for r, brow in zip(rows, block):
        for c, x in zip(cols, brow):
            if x:
                op.cols.setdefault(c, {})[r] = x


# zero-heavy int or Fraction entries, so that all-zero rows and
# matrices without rows or columns come up
mixed_entries = st.one_of(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),
                          entries)


@st.composite
def zero_heavy_rows(draw):
    cols = draw(st.integers(0, 6))
    return draw(st.lists(st.lists(mixed_entries, min_size=cols,
                                  max_size=cols), max_size=6)), cols


def is_rref(rows):
    pivots = [min(r) for r in rows]
    return (pivots == sorted(set(pivots))
            and all(r[p] == 1 for r, p in zip(rows, pivots))
            and all(sum(p in r for r in rows) == 1 for p in pivots))


def columns_of(data, cols):
    """The sparse columns of dense rows with cols columns."""
    return {c: col for c in range(cols)
            if (col := {r: row[c] for r, row in enumerate(data) if row[c]})}


def rank_and_kernel(cols: dict, n: int):
    """Rank and RREF kernel basis of the map with sparse columns cols
    {source index: image}, on the source indices 0..n-1: the sparse
    reference for a map's kernel, from `kernel_rows` of its rows.

    Returns (rank, kernel) with rank + len(kernel) == n, the kernel as
    sparse rows, each mapped to zero.
    """
    kernel = kernel_rows(transpose_cols(cols).values(), range(n))
    return n - len(kernel), kernel


@settings(max_examples=300, deadline=None)
@given(zero_heavy_rows())
def test_sparse_kernel_equals_the_dense_reference(case):
    data, cols = case
    red, pivots = dense_rref(data, cols)
    rows = rref_rows(sparse(row) for row in data)
    assert [sparse(row) for row in red[:len(pivots)]] == rows
    assert [min(r) for r in rows] == pivots
    assert exact_entries(x for r in rows for x in r.values())
    kernel = kernel_rows([sparse(row) for row in data], range(cols))
    assert len(pivots) + len(kernel) == cols
    assert all(sum(x * v.get(c, 0) for c, x in enumerate(row)) == 0
               for row in data for v in kernel)
    assert is_rref(kernel)
    assert exact_entries(x for v in kernel for x in v.values())
    assert [sparse(v) for v in dense_kernel(data, cols)] == kernel
    assert rank_and_kernel(columns_of(data, cols), cols) == (len(pivots),
                                                             kernel)


def test_rref_rows_on_sparse_keys():
    # explicit zeros are dropped and the input rows are left as they were
    rows = [{0: 2, 1: 4}, {0: 1, 2: 0}]
    assert rref_rows(rows) == [{0: 1}, {1: 1}]
    assert rows == [{0: 2, 1: 4}, {0: 1, 2: 0}]
    # keys need not be consecutive; no rows leave every column free
    assert rref_rows([{7: 3, 3: 1}, {7: 6, 3: 2}]) == [{3: 1, 7: 3}]
    assert kernel_rows([{7: 3, 3: 1}], [3, 7]) == [{3: 1, 7: Fraction(-1, 3)}]
    assert kernel_rows([], [3, 5]) == [{3: 1}, {5: 1}]


def test_rank_kernel_identity():
    assert rank_and_kernel(LinOp.identity(2).cols, 2) == (2, [])
    # columns beyond the stored ones are zero, so they are in the kernel
    assert rank_and_kernel({0: {5: 1}}, 2) == (1, [{1: 1}])


def test_rank_kernel_proportional_rows():
    m = columns_of([[1, 2], [2, 4]], 2)
    r, k = rank_and_kernel(m, 2)
    assert r == 1 and len(k) == 1
    # the kernel spans (-2, 1)
    assert k == [{0: 1, 1: Fraction(-1, 2)}]
    assert all(not svec_map(m, v) for v in k)


def test_rank_nullity_sums():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        data = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(cols)] for _ in range(rows)]
        m = columns_of(data, cols)
        r, k = rank_and_kernel(m, cols)
        assert r + len(k) == cols
        assert r == dense_rank(data, cols)
        assert all(not svec_map(m, v) for v in k)


def test_charpoly_examples():
    assert characteristic_polynomial(LinOp.identity(2)) == [1, -2, 1]
    assert characteristic_polynomial(linop([[3, 0], [0, 5]])) == [1, -8, 15]
    assert characteristic_polynomial(linop([[0, 1], [2, 0]])) == [1, 0, -2]


def test_charpoly_edge_cases():
    # no dimensions: det of the empty matrix is 1
    assert characteristic_polynomial(LinOp(0)) == [1]
    # the zero operator: every coefficient a Fraction, none a float
    coeffs = characteristic_polynomial(LinOp(3))
    assert coeffs == [1, 0, 0, 0]
    assert all(type(c) is Fraction for c in coeffs)


def test_charpoly_similarity_invariant():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        while True:
            p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(n)]
            if dense_rank(p, n) == n:
                break
        # solve P X = M P in one elimination for X = P^{-1} M P
        x = dense_solve(p, dense_matmul(m, p), n, n)
        want = dense_charpoly(m)
        assert dense_charpoly(x) == want
        assert characteristic_polynomial(linop(m)) == want
        assert characteristic_polynomial(linop(x)) == want


def test_solve_examples():
    assert dense_solve([[1, 0], [0, 1]], [[1], [2]], 2, 1) == [[1], [2]]
    assert dense_solve([[1, 1], [2, 2]], [[1], [3]], 2, 1) is None
    # a free variable is pinned to zero
    assert dense_solve([[1, 1], [2, 2]], [[1], [2]], 2, 1) == [[1], [0]]
    # one inconsistent column makes the whole system inconsistent
    assert dense_solve([[1, 1], [2, 2]], [[1, 1], [2, 3]], 2, 2) is None


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_solves_with_free_rows_zero(system):
    mat, rhs, k = system
    n = len(mat[0])
    x = dense_solve(mat, rhs, n, k)
    if x is None:
        return
    assert dense_matmul(mat, x) == rhs
    _, pivots = dense_rref(mat, n)
    for c in range(n):
        if c not in pivots:
            assert all(not v for v in x[c])


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_none_exactly_when_inconsistent(system):
    # the reference solve against the package's one elimination
    mat, rhs, k = system
    n = len(mat[0])
    aug = [sparse(a + b) for a, b in zip(mat, rhs)]
    assert (dense_solve(mat, rhs, n, k) is None) == (
        len(rref_rows(aug)) > len(rref_rows(sparse(a) for a in mat)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1,
             max_size=5), st.randoms())))
def test_row_basis_independent_of_order(case):
    # a span is stored as the nonzero rows of its RREF
    vectors, rnd = case
    shuffled = vectors[:]
    rnd.shuffle(shuffled)
    assert (rref_rows(sparse(v) for v in shuffled)
            == rref_rows(sparse(v) for v in vectors))


def test_row_basis_fully_reduced():
    # inserting (0,1) before (1,5) must still reduce (1,5) to (1,0)
    for order in ([{1: 1}, {0: 1, 1: 5}], [{0: 1, 1: 5}, {1: 1}]):
        assert rref_rows(order) == [{0: 1}, {1: 1}]


def test_span_as_rref_rows():
    # the span of (1,2), (2,4), (0,1) is all of Q^2; membership of
    # (5,-1) is consistency of the system with the vectors as columns
    assert rref_rows([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]) == [{0: 1}, {1: 1}]
    assert dense_solve([[1, 2, 0], [2, 4, 1]], [[5], [-1]], 3, 1) is not None


def test_coordinates_by_solve():
    # coordinates of (3,4,3) in the basis (1,0,1), (0,2,0); a vector
    # outside the span gives None
    basis = [[1, 0], [0, 2], [1, 0]]
    assert dense_solve(basis, [[3], [4], [3]], 2, 1) == [[3], [2]]
    assert dense_solve(basis, [[0], [0], [1]], 2, 1) is None
    # the pivot reader agrees on the RREF of that basis, (1,0,1), (0,1,0)
    rref = rref_rows([{0: 1, 2: 1}, {1: 2}])
    assert _coordinates(rref, [{0: 3, 1: 4, 2: 3}, {2: 1}]) is None
    assert _coordinates(rref, [{0: 3, 1: 4, 2: 3}]) == [{0: 3, 1: 4}]


def test_linop_roundtrip_and_products():
    a = LinOp(3, {0: {1: 1}, 1: {2: 2}})
    b = LinOp(3, {0: {0: 3}})
    assert (a @ b).cols == {0: {1: 3}}
    assert transpose_cols(a.cols) == {1: {0: 1}, 2: {1: 2}}
    assert a.entry(1, 0) == 1 and a.entry(2, 1) == 2
    assert a.entry(0, 1) == 0
    assert (a - a).is_zero()
    # LinOp.apply is svec_map on the columns; cancelling entries drop out
    assert a.apply({0: 2, 1: 0, 2: 5}) == svec_map(a.cols, {0: 2}) == {1: 2}
    assert svec_map({0: {1: 1}, 1: {1: -1}}, {0: 1, 1: 1}) == {}


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


@settings(max_examples=150, deadline=None)
@given(linop_cases())
def test_linop_operations_keep_normal_form(case):
    # LinOp.__eq__ compares the stored columns, which is entrywise
    # equality only while no zero entry and no empty column is stored
    a, b, c, rows, cols, block = case
    n = a.dim
    gens = canonical_generators(1)
    genmap = dict(zip(gens, (a, b, a @ b)))
    x = UEAElement(1, {(gens[0], gens[1]): 1, (gens[1], gens[0]): -1,
                       (gens[2],): c})
    put = LinOp(n)
    _put_block(put, rows, cols, block)
    assert dense(put) == [[block[rows.index(r)][cols.index(k)]
                           if r in rows and k in cols else 0
                           for k in range(n)] for r in range(n)]
    for op in (a, b, a + b, a - b, a - a, a @ b, a.scale(c),
               evaluate_in_representation(x, genmap, n), put):
        assert in_normal_form(op)
    assert (a - a).is_zero() and a - a == LinOp(n)
    assert (a == b) == (dense(a) == dense(b))
    assert a + b == b + a
    assert dense(a @ b) == dense_matmul(dense(a), dense(b))


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        LinOp(2, {0: {1: 0.5}})
    with pytest.raises(TypeError):
        LinOp.identity(2).scale(0.5)


def test_integer_input_stays_exact():
    # int / int would be a float; every result entry must be an int or a
    # Fraction, and integer input keeps int entries
    data = [[2, 3, 1], [4, 1, 5], [6, 4, 6]]
    m = columns_of(data, 3)
    assert all(type(x) is int
               for col in LinOp(3, m).cols.values() for x in col.values())
    red = rref_rows(sparse(row) for row in data)
    assert exact_entries(x for r in red for x in r.values())
    # integral entries of integer rows stay ints, scaled or not
    red = rref_rows([{0: 1, 1: 2, 2: 3}, {1: -2, 2: 4}])
    assert red == [{0: 1, 2: 7}, {1: 1, 2: -2}]
    assert all(type(x) is int for r in red for x in r.values())
    r, kernel = rank_and_kernel(m, 3)
    assert r == 2
    assert exact_entries(x for v in kernel for x in v.values())
    # scale stores an integral product as an int
    half = LinOp(2, {0: {0: 2, 1: 3}}).scale(Fraction(1, 2))
    assert half.cols == {0: {0: 1, 1: Fraction(3, 2)}}
    assert follows_the_scalar_rule(half)
    assert all_fractions([characteristic_polynomial(linop(data))])
