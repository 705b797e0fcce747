"""Two-species fermionic Fock space for a single-j shell.

Modes are enumerated protons first (ascending m), then neutrons
(ascending m); a basis state is the occupation bitmask over that order.
Creation operators follow the Jordan-Wigner convention: applying
a+_k to a mask picks up (-1)^(number of occupied modes below k).
a+_k and a_k are kept as integer columns {col: {row: +-1}}, signed
partial permutations of the bitmasks: the CAR check composes them as
signed index lists (`_signed_permutation`), the operator sums and the
bracket table run in integers (`_isum`), and an operator leaves here as
a `LinOp` of the same ints.  `commutes` clears the denominators of two
`LinOp`s to decide [x, y] = 0 in the same integers.

The quasi-spin operators are built on top, together with the dictionary
assigning them to the ten canonical generators of o_5.  The operator
forms in circulation for tau_0, A(0), B(0) and B(1) are internally
inconsistent (mixed species / stray daggers); the corrected forms used
here make B(X) the matrix adjoint of A(X), and `verify_representation`
is the arbiter that the corrected dictionary closes the full bracket
table.

Rescaled basis.  The conventional normalisation lives in `DICTIONARY`
alone: generator g is c * sqrt2^k times a quasi-spin operator with
rational matrix entries (the 1/sqrt2 of A(0) and B(0) is the k = -1
there, not part of `quasispin_operators`).  `dictionary_to_o5` returns
the conjugate D F D^-1 by D = diag(sqrt2^(tau0 + N)) of the
conventional generator map F.  Every entry of F_g shifts the weight by
root_of(g), so conjugation multiplies F_g by sqrt2^s(g) with
s(g) = alpha_1 + alpha_2 for alpha = root_of(g), and every generator
becomes rational: c * 2^((k + s(g))/2) times its operator.  Brackets,
ranks and every other basis-independent output are unchanged;
`write_genmap` undoes the scale to export the conventional matrices,
each entry c * sqrt2^k written as {"a": "p/q", "b": "r/s"} meaning
a + b sqrt2 (`format_sqrt2_power`): the one wire format with irrational
numbers, and this module the one that knows the rescaled basis.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm

from .liealg import bracket, canonical_generators, root_of
from .linalg import LinOp
from .scalars import format_rational, rat

MAX_J = Fraction(5, 2)  # the largest shell built: 2^(4j+2) = 4096 states

CORRECTED_FORMULAS = {
    "tau+": "sum_m ap+_m an_m",
    "tau0": "(1/2) sum_m (ap+_m ap_m - an+_m an_m)",
    "tau-": "sum_m an+_m ap_m",
    "N": "(1/2) sum_m (ap+_m ap_m + an+_m an_m) - (2j+1)/2",
    "A(1)": "sum_{m>0} (-1)^(j-m) ap+_m ap+_{-m}",
    "A(0)": "(1/sqrt2) sum_{m>0} (-1)^(j-m) (ap+_m an+_{-m} + an+_m ap+_{-m})",
    "A(-1)": "sum_{m>0} (-1)^(j-m) an+_m an+_{-m}",
    "B(1)": "sum_{m>0} (-1)^(j-m) ap_{-m} ap_m",
    "B(0)": "(1/sqrt2) sum_{m>0} (-1)^(j-m) (an_{-m} ap_m + ap_{-m} an_m)",
    "B(-1)": "sum_{m>0} (-1)^(j-m) an_{-m} an_m",
}


def _isum(terms) -> dict:
    """The sum of s * x @ y over terms (s, x, y) of integer columns
    {col: {row: int}}, with no zero entry and no empty column."""
    out = {}
    for s, x, y in terms:
        for c, ycol in y.items():
            acc = out.get(c)
            if acc is None:
                acc = out[c] = {}
            for k, b in ycol.items():
                xcol = x.get(k)
                if xcol is None:
                    continue
                for r, a in xcol.items():
                    acc[r] = acc.get(r, 0) + s * a * b
    res = {}
    for c, col in out.items():
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        if col:
            res[c] = col
    return res


def _ident(dim: int) -> dict:
    return {c: {c: 1} for c in range(dim)}


def _signed_permutation(cols: dict, dim: int):
    """The code p of integer columns that form a signed partial
    permutation: p[c] = s * (r + 1) when column c is the single entry
    s = +-1 at row r, and p[c] = 0 when column c is absent.  None when
    any column holds anything else."""
    p = [0] * dim
    for c, col in cols.items():
        if len(col) != 1:
            return None
        (r, s), = col.items()
        if s not in (1, -1) or not (0 <= r < dim and 0 <= c < dim):
            return None
        p[c] = s * (r + 1)
    return p


class FockSpace:
    """All creation/annihilation operators for a single-j two-species shell."""

    def __init__(self, j):
        j = rat(j)
        if j.denominator != 2 or j <= 0:  # 2j odd: a single-j fermion shell
            raise ValueError(f"j must be a positive odd half-integer "
                             f"(1/2, 3/2, ...), got {j}")
        if j > MAX_J:
            raise ValueError(f"j={j} exceeds the largest supported shell, "
                             f"j={MAX_J}")
        self.j = j
        self.m_values = [j - k for k in range(int(2 * j) + 1)]
        self.m_values.reverse()  # ascending m
        self.modes = [("p", m) for m in self.m_values] + [("n", m) for m in self.m_values]
        self.nmodes = len(self.modes)
        self.dim = 1 << self.nmodes
        self.mode_pos = {mode: k for k, mode in enumerate(self.modes)}
        self._adag, self._a = zip(*map(self._build_mode, range(self.nmodes)))

    def _build_mode(self, k: int):
        adag, a = {}, {}
        bit = 1 << k
        for mask in range(self.dim):
            if mask & bit:
                continue
            sign = -1 if bin(mask & (bit - 1)).count("1") % 2 else 1
            adag[mask] = {mask | bit: sign}
            a[mask | bit] = {mask: sign}
        return adag, a

    def adag(self, species: str, m) -> LinOp:
        return LinOp(self.dim, self._adag[self.mode_pos[(species, rat(m))]])

    def a(self, species: str, m) -> LinOp:
        return LinOp(self.dim, self._a[self.mode_pos[(species, rat(m))]])

    def vacuum(self) -> dict:
        return {0: 1}

    def car_violations(self):
        """Exhaustive CAR check.  Returns ("shape", "a" or "a+", k) for
        every stored operator that is not a signed partial permutation,
        then the offending (relation, i, k) triples.

        With p the code of x (`_signed_permutation`) and X = [0] + p +
        [-v for v in reversed(p)], so that X[-t] = -X[t], the composite
        x y is [X[t] for t in p_y].  {x, y} = 0 exactly when x y =
        -(y x) entry by entry, and {a_i, a+_i} = 1 exactly when at every
        column c one composite is 0 and the other is c + 1.  A relation
        with a malformed operand is reported by its shape entry alone.
        """
        bad, codes = [], {}
        for name, ops in (("a", self._a), ("a+", self._adag)):
            for k, cols in enumerate(ops):
                p = _signed_permutation(cols, self.dim)
                if p is None:
                    bad.append(("shape", name, k))
                    continue
                table = [0] + p + [-v for v in reversed(p)]
                codes[name, k] = p, table, [-v for v in table]

        def anticommute(x, y):
            if x not in codes or y not in codes:
                return True
            (px, fx, _), (py, _, minus_fy) = codes[x], codes[y]
            return [fx[t] for t in py] == [minus_fy[t] for t in px]

        def unit(x, y):
            if x not in codes or y not in codes:
                return True
            (px, fx, _), (py, fy, _) = codes[x], codes[y]
            return all(u + v == c and not (u and v) for c, u, v in
                       zip(range(1, self.dim + 1),
                           [fx[t] for t in py], [fy[t] for t in px]))

        for i in range(self.nmodes):
            for k in range(i, self.nmodes):
                if not anticommute(("a", i), ("a", k)):
                    bad.append(("{a,a}", i, k))
                if not anticommute(("a+", i), ("a+", k)):
                    bad.append(("{a+,a+}", i, k))
                if not (unit if i == k else anticommute)(("a", i), ("a+", k)):
                    bad.append(("{a,a+}", i, k))
                if i != k and not anticommute(("a", k), ("a+", i)):
                    bad.append(("{a,a+}", k, i))
        return bad


def quasispin_operators(space: FockSpace) -> dict:
    """The ten quasi-spin operators as exact matrices (corrected forms).

    A(0) and B(0) come without their 1/sqrt2 prefactor, which sits in
    `DICTIONARY`; every entry is an integer or a half-integer: tau0 and
    N are summed in integers as 2 tau0 and 2N, and halved once.
    """
    j, ms = space.j, space.m_values
    ap = {m: space._adag[space.mode_pos["p", m]] for m in ms}
    an = {m: space._adag[space.mode_pos["n", m]] for m in ms}
    bp = {m: space._a[space.mode_pos["p", m]] for m in ms}
    bn = {m: space._a[space.mode_pos["n", m]] for m in ms}
    # j - m is the integer k of m = j - k
    pos_m = [(m, -1 if (j - m) % 2 else 1) for m in ms if m > 0]

    ops = {}
    ops["tau+"] = _isum((1, ap[m], bn[m]) for m in ms)
    ops["tau-"] = _isum((1, an[m], bp[m]) for m in ms)
    ops["tau0"] = _isum([(1, ap[m], bp[m]) for m in ms]
                        + [(-1, an[m], bn[m]) for m in ms])
    ident = _ident(space.dim)
    ops["N"] = _isum([(1, ap[m], bp[m]) for m in ms]
                     + [(1, an[m], bn[m]) for m in ms]
                     + [(-int(2 * j + 1), ident, ident)])
    ops["A(1)"] = _isum((s, ap[m], ap[-m]) for m, s in pos_m)
    ops["A(-1)"] = _isum((s, an[m], an[-m]) for m, s in pos_m)
    ops["A(0)"] = _isum(t for m, s in pos_m
                        for t in ((s, ap[m], an[-m]), (s, an[m], ap[-m])))
    ops = {name: LinOp(space.dim, cols) for name, cols in ops.items()}
    for name in ("tau0", "N"):
        ops[name] = ops[name].scale(Fraction(1, 2))
    # B(X) is the adjoint (real transpose) of A(X)
    ops["B(1)"] = ops["A(1)"].transpose()
    ops["B(-1)"] = ops["A(-1)"].transpose()
    ops["B(0)"] = ops["A(0)"].transpose()
    return ops


# Canonical-generator dictionary, conventional normalisation: F_(i,j)
# = c * sqrt2^k * operator, as (operator, c, k).  The k = -1 entries are
# the 1/sqrt2 of tau+-, A(0) and B(0).  The conventional table carries
# F_{2,-1} = -A(1) and F_{-1,2} = -B(1); with the tau's above and the
# corrected A(0) those signs fail the bracket table ([tau+, A(0)] =
# +sqrt2 A(1) forces F_{1,-2} = -A(1)), so the verifier fixes both
# entries to the opposite sign.  Everything else is as received.
DICTIONARY = {
    (0, -1): ("tau+", 1, -1),
    (-1, -2): ("A(-1)", 1, 0),
    (0, -2): ("A(0)", 1, -1),
    (1, -2): ("A(1)", -1, 0),
    (-1, -1): ("tau0", -1, 0),
    (-1, 0): ("tau-", 1, -1),
    (-2, -1): ("B(-1)", 1, 0),
    (-2, 0): ("B(0)", 1, -1),
    (-2, 1): ("B(1)", -1, 0),
    (-2, -2): ("N", -1, 0),
}


def rescale_exponent(g) -> int:
    """s(g) = alpha_1 + alpha_2 for alpha = root_of(g): the power of
    sqrt2 that the rescaled basis puts on generator g."""
    return int(sum(root_of(g).comps))


def dictionary_to_o5(ops: dict) -> dict:
    """The ten canonical o_5 generators in the rescaled basis: the
    dictionary's c * sqrt2^k times sqrt2^s(g), which must be rational."""
    out = {}
    for g in canonical_generators(2):
        name, c, k = DICTIONARY[(g.i, g.j)]
        e = k + rescale_exponent(g)
        if e % 2:
            raise AssertionError(f"{g}: sqrt2^{e} is irrational")
        out[g] = ops[name].scale(c * Fraction(2) ** (e // 2))
    return out


def _cleared(op: LinOp):
    """(d, cols): the least d > 0 making d * op integral, and the integer
    columns of d * op."""
    d = lcm(1, *[x.denominator for col in op.cols.values()
                 for x in col.values()])
    return d, {c: {r: x.numerator * (d // x.denominator)
                   for r, x in col.items()}
               for c, col in op.cols.items()}


def commutes(x: LinOp, y: LinOp) -> bool:
    """Whether [x, y] = 0, decided in integers: a zero test needs no
    common scale, so each side is cleared on its own."""
    (_, ix), (_, iy) = _cleared(x), _cleared(y)
    return not _isum([(1, ix, iy), (-1, iy, ix)])


def verify_representation(genmap: dict):
    """Check [M_a, M_b] = M(bracket(a,b)) for every pair a != b, in
    integers: D_g M_g clears the denominators of M_g, and both sides are
    scaled by D_a D_b and the lcm of the denominators of c D_a D_b / D_g.
    Returns the list of violating pairs (empty = exact representation).
    """
    cleared = {g: _cleared(op) for g, op in genmap.items()}
    ident = _ident(next(iter(genmap.values())).dim)
    violations = []
    for a, b in combinations(genmap, 2):
        (da, ma), (db, mb) = cleared[a], cleared[b]
        terms = [(Fraction(c * da * db, cleared[g][0]), cleared[g][1])
                 for c, g in bracket(a, b)]
        big = lcm(1, *(q.denominator for q, _ in terms))
        if (_isum([(big, ma, mb), (-big, mb, ma)])
                != _isum((int(q * big), ident, m) for q, m in terms)):
            violations.append((a, b))
    return violations


def build_o5_on_fock(j):
    """Fock space, quasi-spin operators and the o5 generator map D F D^-1
    in the rescaled basis (see the module docstring)."""
    space = FockSpace(j)
    ops = quasispin_operators(space)
    genmap = dictionary_to_o5(ops)
    return space, ops, genmap


# -- export ---------------------------------------------------------------


def format_sqrt2_power(c: Fraction, k: int) -> dict:
    """c * sqrt2^k in the wire form {"a", "b"} of a + b sqrt2."""
    x = format_rational(c * Fraction(2) ** (k // 2))
    return {"a": "0", "b": x} if k % 2 else {"a": x, "b": "0"}


def _entry_text(c: Fraction, k: int) -> str:
    w = format_sqrt2_power(c, k)
    return (f'        {{\n          "a": {json.dumps(w["a"])},\n'
            f'          "b": {json.dumps(w["b"])}\n        }}')


def write_genmap(path, genmap: dict) -> None:
    """Write the generator map, rescaled basis (see the module
    docstring), as the JSON matrices of the conventional generators:
    entry v of F_g is written as v * sqrt2^-s(g).

    The file is byte for byte json.dumps(payload, indent=2,
    sort_keys=True) of the dense payload {"F[i,j]": {"cols", "entries",
    "rows"}}, but written one row at a time from the sparse columns.
    Each generator builds the text of its all-zero row once, and every
    row is written as slices of it around the row's nonzero cells, each
    distinct value formatted once; no dense matrix or whole-file string
    is built.
    """
    names = sorted((f"F[{g.i},{g.j}]", g) for g in genmap)
    zero = _entry_text(Fraction(0), 0).encode()
    step = len(zero) + 2  # a cell and its ",\n" separator
    with open(path, "wb", buffering=1 << 16) as fh:
        fh.write(b"{")
        for n, (name, g) in enumerate(names):
            op, k = genmap[g], -rescale_exponent(g)
            zero_row = memoryview(b",\n".join([zero] * op.dim))
            texts: dict = {}
            rows: dict = {}
            for c in sorted(op.cols):
                for r, v in op.cols[c].items():
                    text = texts.get(v)
                    if text is None:
                        text = texts[v] = _entry_text(v, k).encode()
                    rows.setdefault(r, []).append((c, text))
            fh.write(f'{"," if n else ""}\n  {json.dumps(name)}: {{\n'
                     f'    "cols": {op.dim},\n    "entries": ['.encode())
            for r in range(op.dim):
                fh.write(b",\n      [\n" if r else b"\n      [\n")
                start = 0
                for c, text in rows.get(r, ()):
                    fh.write(zero_row[start:c * step])
                    fh.write(text)
                    start = c * step + len(zero)
                fh.write(zero_row[start:])
                fh.write(b"\n      ]")
            fh.write(f'\n    ],\n    "rows": {op.dim}\n  }}'.encode())
        fh.write(b"\n}")
