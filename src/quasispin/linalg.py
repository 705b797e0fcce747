"""Exact linear algebra over Q.

Matrices are small (desk scale, <= a few hundred rows).  There is one
Gaussian elimination, `rref_rows`: Gauss-Jordan on sparse rows
{column: entry}, with the columns ordered by key.  It returns the
nonzero rows of the reduced row echelon form, which is unique, so the
result does not depend on the order of the rows.  Everything else is
built on it: `kernel_rows` returns the RREF basis of a null space as
sparse rows, and the rank of a map stored as sparse columns is the
length of one `rref_rows` of its columns.
A span is stored as the nonzero rows of its RREF.  That form is
canonical: equal spans have equal rows, whatever order their vectors
came in.

A linear map has one representation: sparse columns
{source index: {target index: x}}, applied to a sparse vector by
`svec_map`.  `LinOp` is the operator type on one space: every
representation operator (generators, Pfaffians, Omega, the o3
projector) is a `LinOp`, and `characteristic_polynomial` takes one.
Maps between two spaces (the slice maps of `replab`, the model maps of
`tableaux`) are bare sparse columns.  Entries follow the one rule of
`scalars`: an `int` when integral, else a `Fraction`.  `LinOp` and
`scale` normalise every entry with `scalars.exact`, so a float or any
other non-rational entry raises `TypeError`; the sparse sums start
from `0`, so int entries stay ints.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import exact


def rref_rows(rows):
    """Gauss-Jordan elimination on sparse rows {column: entry}, the
    columns ordered by key: the nonzero rows of the reduced row echelon
    form, in pivot order.  Each row's pivot is its smallest key, with
    entry 1; a row is scaled only when its pivot is not 1, and then
    through `scalars.exact`, so an integral entry stays an int.  The
    rows are taken one at a time: each is reduced by the pivot rows so
    far, which are zero at every other pivot, so one pass clears it;
    what is left becomes a pivot row and is eliminated from the others.
    The input rows are not modified."""
    pivot_rows: dict = {}  # pivot column -> its row
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        for p in [c for c in row if c in pivot_rows]:
            axpy(row, -row[p], pivot_rows[p])
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inv = Fraction(1) / row[p]
            row = {c: exact(x * inv) for c, x in row.items()}
        for other in pivot_rows.values():
            if p in other:
                axpy(other, -other[p], row)
        pivot_rows[p] = row
    return [pivot_rows[p] for p in sorted(pivot_rows)]


def axpy(row: dict, f, other: dict):
    """row += f * other in place, dropping the entries that cancel: any
    sparse dict (a row, a vector, a fermion polynomial), with f and the
    entries of other nonzero."""
    for c, y in other.items():
        s = row.get(c, 0) + f * y
        if s:
            row[c] = s
        else:
            del row[c]


def kernel_rows(rows, cols):
    """The RREF basis of the null space of the sparse rows, over the
    column keys cols (every key of rows among them), as sparse rows."""
    red = {min(r): r for r in rref_rows(rows)}  # pivot -> its row
    return rref_rows({fc: 1} | {p: -r[fc] for p, r in red.items()
                                if fc in r}
                     for fc in cols if fc not in red)


def characteristic_polynomial(op: LinOp):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(xI - op), exact.

    Faddeev-LeVerrier recursion; division only by integers, fine in
    characteristic zero.  The coefficients are `Fraction`s, integral or
    not: the report writes each as "p/q".
    """
    n = op.dim
    coeffs = [Fraction(1)]
    m = LinOp(n)  # running M_k, starts at 0 so M_1 = op
    for k in range(1, n + 1):
        m = op @ (m + LinOp.identity(n).scale(coeffs[-1]))
        trace = sum((m.entry(i, i) for i in range(n)), Fraction(0))
        coeffs.append(-trace / k)
    return coeffs


# -- sparse vectors -------------------------------------------------

def svec_add(u: dict, v: dict) -> dict:
    """u + v for sparse vectors."""
    out = dict(u)
    for k, x in v.items():
        s = out.get(k, 0) + x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def svec_map(cols: dict, vec: dict) -> dict:
    """The image of a sparse vector under the map with sparse columns
    cols {source index: image}: the sum of vec[c] * cols[c]."""
    out: dict = {}
    for c, x in vec.items():
        col = cols.get(c)
        if not col or not x:
            continue
        for r, y in col.items():
            s = out.get(r, 0) + x * y
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def transpose_cols(cols: dict) -> dict:
    """Sparse columns {c: {r: x}} as sparse rows {r: {c: x}}."""
    rows: dict = {}
    for c, col in cols.items():
        for r, x in col.items():
            rows.setdefault(r, {})[c] = x
    return rows


class LinOp:
    """Sparse linear operator on a dim-dimensional space.

    Stored column-wise: cols[c] is the sparse image of basis vector c.
    Suits second-quantized operators, whose columns have a handful of
    entries; products and commutators stay cheap even at dim 256+.

    Normal form: no column stores a zero entry and no column is empty.
    The constructor, `+`, `-`, `@` and `scale` keep it, and
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
                col = {r: y for r, x in col.items() if (y := exact(x))}
                if col:
                    self.cols[c] = col

    @staticmethod
    def identity(dim: int) -> "LinOp":
        return LinOp(dim, {c: {c: 1} for c in range(dim)})

    def apply(self, vec: dict) -> dict:
        return svec_map(self.cols, vec)

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
        c = exact(c)
        if not c:
            return LinOp(self.dim)
        return LinOp(self.dim, {k: {r: c * x for r, x in col.items()}
                                for k, col in self.cols.items()})

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    def entry(self, r: int, c: int):
        return self.cols.get(c, {}).get(r, 0)

    def is_diagonal(self) -> bool:
        return all(set(col) <= {c} for c, col in self.cols.items())
