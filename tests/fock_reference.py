"""Whole-space Fock references for the tests.

The package decides its Fock checks on fermion polynomials and reads
each generator matrix off its polynomial (`fock.read_off`).  The code
here builds the same objects the long way, as matrices, and checks the
brackets on them: single-mode a+ and a as `LinOp`s, the ten
quasi-spin operators, the generator map, and the whole-space bracket
table, all summed in integers.  The differential tests compare the
package against these.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from quasispin.fock import (FockSpace, dictionary_to_o5, quasispin_polynomials,
                            read_off)
from quasispin.liealg import bracket
from quasispin.linalg import LinOp
from quasispin.scalars import rat


def creation(space: FockSpace, species: str, m) -> LinOp:
    """a+ of the mode (species, m)."""
    return LinOp(space.dim, space._adag[space.mode_pos[(species, rat(m))]])


def annihilation(space: FockSpace, species: str, m) -> LinOp:
    """a of the mode (species, m)."""
    return LinOp(space.dim, space._a[space.mode_pos[(species, rat(m))]])


def isum(terms) -> dict:
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


def ident(dim: int) -> dict:
    return {c: {c: 1} for c in range(dim)}


def cleared(op: LinOp):
    """(d, cols): the least d > 0 making d * op integral, and the integer
    columns of d * op."""
    d = lcm(1, *[x.denominator for col in op.cols.values()
                 for x in col.values()])
    return d, {c: {r: x.numerator * (d // x.denominator)
                   for r, x in col.items()}
               for c, col in op.cols.items()}


def quasispin_operators(space: FockSpace) -> dict:
    """The ten quasi-spin operators as exact matrices, each read off its
    polynomial of `quasispin_polynomials`.  Every entry is an integer
    or, in tau0 and N, a half-integer."""
    return {name: read_off(space, poly)
            for name, poly in quasispin_polynomials(space).items()}


def verify_representation(genmap: dict):
    """Check [M_a, M_b] = M(bracket(a,b)) for every pair a != b, in
    integers: D_g M_g clears the denominators of M_g, and both sides are
    scaled by D_a D_b and the lcm of the denominators of c D_a D_b / D_g.
    Returns the list of violating pairs (empty = exact representation).
    """
    table = {g: cleared(op) for g, op in genmap.items()}
    one = ident(next(iter(genmap.values())).dim)
    violations = []
    for a, b in combinations(genmap, 2):
        (da, ma), (db, mb) = table[a], table[b]
        terms = [(Fraction(c * da * db, table[g][0]), table[g][1])
                 for c, g in bracket(a, b)]
        big = lcm(1, *(q.denominator for q, _ in terms))
        if (isum([(big, ma, mb), (-big, mb, ma)])
                != isum((int(q * big), one, m) for q, m in terms)):
            violations.append((a, b))
    return violations


def build_o5_on_fock(j):
    """Fock space, quasi-spin operators and the o5 generator map D F D^-1
    in the rescaled basis (see the `fock` module docstring)."""
    space = FockSpace(j)
    return space, quasispin_operators(space), dictionary_to_o5(space)
