"""Exact linear algebra over Q.

Matrices are small (desk scale, <= a few hundred rows).  There is one
Gaussian elimination, `rref_rows`: Gauss-Jordan on sparse rows
{column: Fraction}, with the columns ordered by key.  It returns the
nonzero rows of the reduced row echelon form, which is unique, so the
result does not depend on the order of the rows.  Everything else is
built on it:
- `kernel_rows`, the RREF basis of a null space, as sparse rows;
- the dense views `ExactMatrix.rref`, `rank_and_kernel`, `rank` and
  `row_basis`, which convert dense rows (coercing with `scalars.rat`)
  and call `rref_rows`.  `row_basis` stores a span as the nonzero rows
  of an RREF.  That form is canonical: equal spans have equal rows,
  whatever order their vectors came in;
- `solve`, which eliminates `[mat | rhs]` once for a whole matrix of
  right-hand sides.  No package code calls it: it is exported as the
  reference the tests check the pivot readers against
  (`replab._coordinates` reads an RREF basis at its pivots,
  `replab._map_on_span` a map from one RREF of `[x | y]`, and
  `tableaux` flag membership compares ranks).
`LinOp` is the one operator type: every representation operator
(generators, Pfaffians, Omega, theta, the o3 projector) is a sparse
`LinOp`, its columns given as {index: Fraction} dicts.  `ExactMatrix`
holds the dense matrices of `tableaux` and the slice maps, and their
characteristic polynomials.  Both classes coerce every entry with
`scalars.rat`, so a float or any other non-rational entry raises
`TypeError`.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactMatrix:
    """Dense matrix over Q; arithmetic is exact everywhere."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[_ZERO] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("inconsistent matrix dimensions")
            self.data = [[rat(x) for x in row] for row in data]

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        m = ExactMatrix(n, n)
        for i in range(n):
            m.data[i][i] = _ONE
        return m

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return ExactMatrix(0, 0)
        return ExactMatrix(len(rows), len(rows[0]), rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scale(self, c) -> "ExactMatrix":
        c = rat(c)
        return ExactMatrix(self.rows, self.cols,
                           [[c * a for a in row] for row in self.data])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        out = ExactMatrix(self.rows, other.cols)
        odata = other.data
        for i, row in enumerate(self.data):
            acc = out.data[i]
            for k, x in enumerate(row):
                if not x:
                    continue  # skip structural zeros; most operands are sparse
                orow = odata[k]
                for j, y in enumerate(orow):
                    if y:
                        acc[j] = acc[j] + x * y
        return out

    def apply(self, vec):
        """Matrix times a dense column vector (list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.cols} columns")
        out = []
        for row in self.data:
            s = _ZERO
            for x, v in zip(row, vec):
                if x and v:
                    s = s + x * rat(v)
            out.append(s)
        return out

    def trace(self):
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        s = _ZERO
        for i in range(self.rows):
            s = s + self.data[i][i]
        return s

    def __repr__(self):
        body = "\n".join("[" + ", ".join(map(str, row)) + "]" for row in self.data)
        return f"ExactMatrix({self.rows}x{self.cols})\n{body}"

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (rref_matrix, pivot_columns),
        the zero rows of the RREF kept at the bottom."""
        red = rref_rows(_sparse_rows(self.data))
        out = ExactMatrix(self.rows, self.cols)
        out.data[:len(red)] = [_dense_row(r, self.cols) for r in red]
        return out, [min(r) for r in red]


def rref_rows(rows):
    """Gauss-Jordan elimination on sparse rows {column: Fraction}, the
    columns ordered by key: the nonzero rows of the reduced row echelon
    form, in pivot order.  Each row's pivot is its smallest key, with
    entry 1.  The rows are taken one at a time: each is reduced by the
    pivot rows so far, which are zero at every other pivot, so one pass
    clears it; what is left becomes a pivot row and is eliminated from
    the others.  The input rows are not modified."""
    pivot_rows: dict = {}  # pivot column -> its row
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        for p in [c for c in row if c in pivot_rows]:
            _axpy(row, -row[p], pivot_rows[p])
        if not row:
            continue
        p = min(row)
        inv = _ONE / row[p]
        row = {c: x * inv for c, x in row.items()}
        for other in pivot_rows.values():
            if p in other:
                _axpy(other, -other[p], row)
        pivot_rows[p] = row
    return [pivot_rows[p] for p in sorted(pivot_rows)]


def _axpy(row: dict, f, other: dict):
    """row += f * other in place, dropping the entries that cancel."""
    for c, y in other.items():
        s = row.get(c, _ZERO) + f * y
        if s:
            row[c] = s
        else:
            del row[c]


def kernel_rows(rows, cols):
    """The RREF basis of the null space of the sparse rows, over the
    column keys cols (every key of rows among them), as sparse rows."""
    red = {min(r): r for r in rref_rows(rows)}  # pivot -> its row
    return rref_rows({fc: _ONE} | {p: -r[fc] for p, r in red.items()
                                   if fc in r}
                     for fc in cols if fc not in red)


def _sparse_rows(data):
    return [{c: y for c, x in enumerate(row) if (y := rat(x))} for row in data]


def _dense_row(row: dict, length: int):
    return [row.get(c, _ZERO) for c in range(length)]


def rank_and_kernel(mat: ExactMatrix):
    """Exact rank and a deterministic RREF-shaped kernel basis.

    Returns (rank, kernel_basis) with rank + len(kernel_basis) == cols
    and mat @ v == 0 for every basis vector v.
    """
    kernel = kernel_rows(_sparse_rows(mat.data), range(mat.cols))
    return (mat.cols - len(kernel),
            [_dense_row(v, mat.cols) for v in kernel])


def rank(mat: ExactMatrix) -> int:
    return len(rref_rows(_sparse_rows(mat.data)))


def row_basis(vectors, length: int):
    """Canonical basis of the span of dense vectors of the given length:
    the nonzero rows of the RREF of the stacked vectors."""
    return [_dense_row(r, length) for r in rref_rows(_sparse_rows(vectors))]


def solve(mat: ExactMatrix, rhs: ExactMatrix):
    """Solve mat @ X = rhs exactly, for all columns of rhs at once.

    One elimination of [mat | rhs].  Returns X with mat @ X == rhs and
    the rows of free variables zero, or None when some column of rhs is
    outside the column space of mat (a pivot lands in the rhs block).
    """
    if rhs.rows != mat.rows:
        raise ValueError(f"{rhs.rows} right-hand-side rows for a matrix "
                         f"with {mat.rows} rows")
    aug = ExactMatrix(mat.rows, mat.cols + rhs.cols,
                      [a + b for a, b in zip(mat.data, rhs.data)])
    red, pivots = aug.rref()
    if pivots and pivots[-1] >= mat.cols:
        return None
    x = ExactMatrix(mat.cols, rhs.cols)
    for r, pc in enumerate(pivots):
        x.data[pc] = red.data[r][mat.cols:]
    return x


def characteristic_polynomial(mat: ExactMatrix):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(xI - M), exact.

    Faddeev-LeVerrier recursion; division only by integers, fine in
    characteristic zero.
    """
    if not mat.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = mat.rows
    coeffs = [_ONE]
    m = ExactMatrix(n, n)  # running M_k, starts at 0 so M_1 = A
    for k in range(1, n + 1):
        for i in range(n):  # M_{k-1} + c_{n-k+1} I, in place
            m.data[i][i] += coeffs[-1]
        m = mat @ m
        c = -(m.trace() / Fraction(k))
        coeffs.append(c)
    return coeffs


# -- sparse vectors -------------------------------------------------

def svec_add(u: dict, v: dict) -> dict:
    """u + v for sparse vectors."""
    out = dict(u)
    for k, x in v.items():
        s = out.get(k, _ZERO) + x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class LinOp:
    """Sparse linear operator on a dim-dimensional space.

    Stored column-wise: cols[c] is the sparse image of basis vector c.
    Suits second-quantized operators, whose columns have a handful of
    entries; products and commutators stay cheap even at dim 256+.

    Normal form: no column stores a zero entry and no column is empty.
    The constructor, `+`, `-`, `@`, `scale` and `transpose` keep it, and
    so must any code that writes `cols` directly; `==` and `is_zero`
    compare the stored dicts and rely on it.  A broken form can only make
    equal operators compare unequal, never the reverse.
    """

    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols=None):
        self.dim = dim
        self.cols: dict = {}
        if cols:
            for c, col in cols.items():
                col = {r: y for r, x in col.items() if (y := rat(x))}
                if col:
                    self.cols[c] = col

    @staticmethod
    def identity(dim: int) -> "LinOp":
        return LinOp(dim, {c: {c: _ONE} for c in range(dim)})

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        for c, x in vec.items():
            col = self.cols.get(c)
            if not col or not x:
                continue
            for r, y in col.items():
                s = out.get(r, _ZERO) + x * y
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "LinOp") -> "LinOp":
        self._check_dim(other)
        out = LinOp(self.dim)
        for c, col in other.cols.items():
            img = self.apply(col)
            if img:
                out.cols[c] = img
        return out

    def __add__(self, other: "LinOp") -> "LinOp":
        self._check_dim(other)
        out = LinOp(self.dim, {c: dict(col) for c, col in self.cols.items()})
        for c, col in other.cols.items():
            merged = svec_add(out.cols.get(c, {}), col)
            if merged:
                out.cols[c] = merged
            else:
                out.cols.pop(c, None)
        return out

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self + other.scale(-1)

    def __neg__(self) -> "LinOp":
        return self.scale(-1)

    def scale(self, c) -> "LinOp":
        c = rat(c)
        if not c:
            return LinOp(self.dim)
        return LinOp(self.dim, {k: {r: c * x for r, x in col.items()}
                                for k, col in self.cols.items()})

    def commutator(self, other: "LinOp") -> "LinOp":
        return self @ other - other @ self

    def transpose(self) -> "LinOp":
        out = LinOp(self.dim)
        for c, col in self.cols.items():
            for r, x in col.items():
                out.cols.setdefault(r, {})[c] = x
        return out

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    def entry(self, r: int, c: int):
        return self.cols.get(c, {}).get(r, _ZERO)

    @property
    def data(self):
        """The entries as dense rows, laid out like `ExactMatrix.data`.

        No computation here uses it; `benchmarks/tracer.py` reads it to
        measure the entry sizes of extracted irreps.
        """
        return [[self.entry(r, c) for c in range(self.dim)]
                for r in range(self.dim)]

    def is_diagonal(self) -> bool:
        return all(set(col) <= {c} for c, col in self.cols.items())
