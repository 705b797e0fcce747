"""Two-species fermionic Fock space for a single-j shell.

Modes are enumerated protons first (ascending m), then neutrons
(ascending m); a basis state is the occupation bitmask over that order.
Creation operators follow the Jordan-Wigner convention: applying
a+_k to a mask picks up (-1)^(number of occupied modes below k).
a+_k and a_k are kept as integer columns {col: {row: +-1}}, signed
partial permutations of the bitmasks: the CAR check composes them as
signed index lists (`_signed_permutation`), and `read_off` sums the
products of them straight into integer columns, divided once by the
common denominator as the operator leaves here as a `LinOp`.

The quasi-spin operators are built on top, together with the dictionary
assigning them to the ten canonical generators of o_5.  The operator
forms in circulation for tau_0, A(0), B(0) and B(1) are internally
inconsistent (mixed species / stray daggers); the corrected forms used
here make B(X) the adjoint of A(X), and the bracket table is the
arbiter that the corrected dictionary closes it.

Second quantization.  Each quasi-spin operator is a fermion polynomial
{(cre, ann): coefficient}, the key standing for the normal-ordered
monomial a+_cre[0] ... a+_cre[-1] a_ann[0] ... a_ann[-1], cre and ann
ascending tuples of modes.  `quasispin_polynomials` builds them from
`CORRECTED_FORMULAS`, and `read_off` gives the matrix of a polynomial.
The normal-ordered monomials are a basis of the Clifford algebra of
the 2M fermion operators (M modes).  That algebra is simple, a full
matrix algebra of dimension 4^M, and the Fock space,
of dimension 2^M, is its unique irreducible module, on which it acts
faithfully (C. Chevalley, The algebraic theory of spinors, 1954;
R. Howe, Trans. AMS 313, 1989).
Once the exhaustive CAR check has passed, the stored matrices are such
a module, and two polynomials are equal exactly when their matrices
are.  So the bracket table (`bracket_violations`), the star expressions
(`evaluate_polynomial`) and the o3 commutation (`commutator`) are
decided on the polynomials.  They decide the same statements about the
exported matrices because those are the images of the same
polynomials: `dictionary_to_o5` reads each generator matrix off its
polynomial of `generator_polynomials`, one integer sum per generator.
That read-off is not re-checked at run time; tests/test_fock.py
compares it entry by entry with products of the stored a+ and a at
j = 1/2 and 3/2, and at 5/2 among the slow tests; tests/fock_reference.py
keeps those products and the whole-space bracket check of a generator
map of `LinOp`s.  A product multiplies a normal monomial by one letter
at a time (`_times_letter`: the anticommuting move and at most one
contraction);
the commutator with a quadratic form replaces one letter at a time by
its image under ad, which is linear in the fermions (`_ad`), and
normal-orders the word again.

Rescaled basis.  The conventional normalisation lives in `DICTIONARY`
alone: generator g is c * sqrt2^k times a quasi-spin operator with
rational matrix entries (the 1/sqrt2 of A(0) and B(0) is the k = -1
there, not part of `quasispin_polynomials`).  `dictionary_to_o5` returns,
and `generator_polynomials` writes as polynomials, the conjugate
D F D^-1 by D = diag(sqrt2^(tau0 + N)) of the conventional generator
map F.  Every entry of F_g shifts the weight by
root_of(g), so conjugation multiplies F_g by sqrt2^s(g) with
s(g) = alpha_1 + alpha_2 for alpha = root_of(g), and every generator
becomes rational: c * 2^((k + s(g))/2) times its operator.  Brackets,
ranks and every other basis-independent output are unchanged;
`write_genmap` undoes the scale to export the conventional matrices
as sparse rows: row r lists its nonzero cells by ascending column, each
entry c * sqrt2^k in column n written as {"a": "p/q", "b": "r/s",
"col": n} meaning a + b sqrt2 (`format_sqrt2_power`): the one wire
format with irrational numbers, and this module the one that knows the
rescaled basis.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

from .liealg import bracket, canonical_generators, root_of
from .linalg import LinOp, axpy
from .scalars import exact, format_rational, rat

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


# -- second quantization (see the module docstring) ----------------------
# A letter is (dagger, k): a+_k when dagger is true, a_k otherwise.

ONE = ((), ())  # the key of the constant monomial


def _letters(cre, ann) -> list:
    return [(True, k) for k in cre] + [(False, k) for k in ann]


def _nonzero(poly: dict) -> dict:
    return {key: x for key, x in poly.items() if x}


def _times_letter(poly: dict, letter) -> dict:
    """poly * letter, normal-ordered.  a_k joins the annihilation block
    past the modes above k.  a+_k passes the whole annihilation block,
    leaving the contraction {a_k, a+_k} = 1 where it meets a_k, and joins
    the creation block past the modes above k.  Each step past a letter
    is one sign; a repeated mode in a block is 0."""
    dagger, k = letter
    out: dict = {}
    for (cre, ann), x in poly.items():
        if dagger:
            if k in ann:
                p = ann.index(k)
                key = (cre, ann[:p] + ann[p + 1:])
                out[key] = out.get(key, 0) + (
                    -x if (len(ann) - p - 1) % 2 else x)
            if k in cre:
                continue
            p = bisect_left(cre, k)
            key = (cre[:p] + (k,) + cre[p:], ann)
            moves = len(cre) - p + len(ann)
        else:
            if k in ann:
                continue
            p = bisect_left(ann, k)
            key = (cre, ann[:p] + (k,) + ann[p:])
            moves = len(ann) - p
        out[key] = out.get(key, 0) + (-x if moves % 2 else x)
    return _nonzero(out)


def _times_word(poly: dict, word) -> dict:
    for letter in word:
        poly = _times_letter(poly, letter)
    return poly


def _product(p: dict, q: dict) -> dict:
    out: dict = {}
    for (cre, ann), y in q.items():
        axpy(out, y, _times_word(p, _letters(cre, ann)))
    return out


def _adjoint(poly: dict) -> dict:
    """The adjoint of a polynomial with rational coefficients:
    (a+_C a_A)^+ = a+_(A reversed) a_(C reversed), and reversing L
    letters is a permutation of sign (-1)^(L(L-1)/2)."""
    return {(ann, cre): -x if (len(cre) * (len(cre) - 1)
                               + len(ann) * (len(ann) - 1)) // 2 % 2 else x
            for (cre, ann), x in poly.items()}


def quasispin_polynomials(space: FockSpace) -> dict:
    """The ten quasi-spin operators of `CORRECTED_FORMULAS` as fermion
    polynomials, in that order.  A(0) and B(0) come without their
    1/sqrt2, which sits in `DICTIONARY`; N keeps its constant -(2j+1)/2;
    B(X) is the adjoint of A(X).

    With d = 2j+1, mode i < d is the proton of m = m_values[i], d + i
    the neutron, and -m is at d - 1 - i; (-1)^(j-m) = (-1)^(d-1-i).  A
    pair a+_u a+_v is normal-ordered as -a+_v a+_u when u > v.
    """
    d = len(space.m_values)
    half = Fraction(1, 2)
    pairs = [(i, d - 1 - i, -1 if (d - 1 - i) % 2 else 1)
             for i in range(d // 2, d)]  # m > 0, -m and (-1)^(j-m)

    def pair(s, u, v):
        return (((u, v), ()), s) if u < v else (((v, u), ()), -s)

    polys = {
        "tau+": {((i,), (d + i,)): 1 for i in range(d)},
        "tau0": {**{((i,), (i,)): half for i in range(d)},
                 **{((d + i,), (d + i,)): -half for i in range(d)}},
        "tau-": {((d + i,), (i,)): 1 for i in range(d)},
        "N": {**{((k,), (k,)): half for k in range(2 * d)},
              ONE: exact(Fraction(-d, 2))},
        "A(1)": dict(pair(s, i, mi) for i, mi, s in pairs),
        "A(0)": dict(t for i, mi, s in pairs
                     for t in (pair(s, i, d + mi), pair(s, d + i, mi))),
        "A(-1)": dict(pair(s, d + i, d + mi) for i, mi, s in pairs),
    }
    for x in ("1", "0", "-1"):
        polys[f"B({x})"] = _adjoint(polys[f"A({x})"])
    return polys


def _ad(form: dict) -> dict:
    """{letter b: [P, b]} for a quadratic form P, each [P, b] linear, as
    {letter: coefficient}: [u v, b] = u {v, b} - {u, b} v, and {u, b} is
    1 when b is the partner of u (the same mode, the other kind), else
    0.  The constant of P commutes with everything; any monomial of
    another degree fails to unpack."""
    ad: dict = {}
    for (cre, ann), x in form.items():
        if not cre + ann:
            continue
        u, v = _letters(cre, ann)
        for b, image, y in (((not v[0], v[1]), u, x),
                            ((not u[0], u[1]), v, -x)):
            img = ad.setdefault(b, {})
            img[image] = img.get(image, 0) + y
    return {b: _nonzero(img) for b, img in ad.items()}


def _commutator(ad: dict, poly: dict) -> dict:
    """[P, Q] from the ad table of a quadratic form P: each letter of
    each monomial of Q replaced in turn by its image, and the word
    normal-ordered again."""
    out: dict = {}
    for (cre, ann), x in poly.items():
        word = _letters(cre, ann)
        for i, b in enumerate(word):
            for letter, y in ad.get(b, {}).items():
                axpy(out, x * y, _times_word(
                    {ONE: 1}, word[:i] + [letter] + word[i + 1:]))
    return out


def commutator(form: dict, poly: dict) -> dict:
    """[P, Q] for a quadratic form P and any fermion polynomial Q."""
    return _commutator(_ad(form), poly)


def evaluate_polynomial(x, polys: dict) -> dict:
    """The U(o_5) element x with each generator g replaced by the fermion
    polynomial polys[g]: the sum of coeff * prod P_g over its words."""
    out: dict = {}
    for w, coeff in x.terms.items():
        part = {ONE: coeff}
        for g in w:
            part = _product(part, polys[g])
        axpy(out, 1, part)
    return out


def bracket_violations(polys: dict) -> list:
    """The pairs a != b of generators with [P_a, P_b] != P(bracket(a, b)),
    in the order of `itertools.combinations`, decided on the
    polynomials."""
    ads = {g: _ad(p) for g, p in polys.items()}
    violations = []
    for a, b in combinations(polys, 2):
        diff = _commutator(ads[a], polys[b])
        for c, g in bracket(a, b):
            axpy(diff, -c, polys[g])
        if diff:
            violations.append((a, b))
    return violations


def read_off(space: FockSpace, poly: dict) -> LinOp:
    """The matrix of a fermion polynomial of degree 2 or 0.  With the
    denominators cleared by their lcm d, each monomial, a product of two
    stored a+ and a columns or the constant on the diagonal, is summed
    straight into integer columns; the columns are divided by d once."""
    d = lcm(1, *(x.denominator for x in poly.values()))
    cols: dict = {}
    for (cre, ann), x in poly.items():
        s = x.numerator * (d // x.denominator)
        if (cre, ann) == ONE:
            for c in range(space.dim):
                col = cols.setdefault(c, {})
                col[c] = col.get(c, 0) + s
            continue
        x_cols, y_cols = ([space._adag[k] for k in cre]
                          + [space._a[k] for k in ann])
        for c, y_col in y_cols.items():
            for k, b in y_col.items():
                x_col = x_cols.get(k)
                if x_col is None:
                    continue
                col = cols.get(c)
                if col is None:
                    col = cols[c] = {}
                for r, a in x_col.items():
                    col[r] = col.get(r, 0) + s * a * b
    divided = cache(lambda v: exact(Fraction(v, d)))  # once per distinct v
    op = LinOp(space.dim)
    for c, col in cols.items():
        col = {r: divided(v) for r, v in col.items() if v}
        if col:
            op.cols[c] = col
    return op


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
    return sum(root_of(g).comps)


def _rescaled_dictionary():
    """(g, operator name, factor) for the ten canonical o_5 generators:
    the dictionary's c * sqrt2^k times sqrt2^s(g), which must be
    rational."""
    for g in canonical_generators(2):
        name, c, k = DICTIONARY[(g.i, g.j)]
        e = k + rescale_exponent(g)
        if e % 2:
            raise AssertionError(f"{g}: sqrt2^{e} is irrational")
        yield g, name, exact(c * Fraction(2) ** (e // 2))


def generator_polynomials(space: FockSpace) -> dict:
    """The ten canonical o_5 generators in the rescaled basis, as fermion
    polynomials."""
    polys = quasispin_polynomials(space)
    return {g: {key: f * x for key, x in polys[name].items()}
            for g, name, f in _rescaled_dictionary()}


def dictionary_to_o5(space: FockSpace) -> dict:
    """The ten canonical o_5 generators in the rescaled basis, as
    matrices, each read off its polynomial of `generator_polynomials`."""
    return {g: read_off(space, poly)
            for g, poly in generator_polynomials(space).items()}


# -- export ---------------------------------------------------------------


def format_sqrt2_power(c: Fraction, k: int) -> dict:
    """c * sqrt2^k in the wire form {"a", "b"} of a + b sqrt2."""
    x = format_rational(c * Fraction(2) ** (k // 2))
    return {"a": "0", "b": x} if k % 2 else {"a": x, "b": "0"}


def write_genmap(path, genmap: dict) -> None:
    """Write the generator map, rescaled basis (see the module
    docstring), as the JSON matrices of the conventional generators:
    entry v of F_g is written as v * sqrt2^-s(g).

    The file is byte for byte json.dumps(payload, sort_keys=True) of
    the sparse payload {"F[i,j]": {"cols", "entries", "rows"}}, where
    entries[r] lists the nonzero cells of row r in ascending column
    order, each {"a", "b", "col"}.  It is written one generator and
    row at a time from the sparse columns, each distinct value
    formatted once; no dense matrix or whole payload is built.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for n, (name, g) in enumerate(sorted(
                (f"F[{g.i},{g.j}]", g) for g in genmap)):
            op, k = genmap[g], -rescale_exponent(g)
            texts: dict = {}
            rows: dict = {}
            for c in sorted(op.cols):
                for r, v in op.cols[c].items():
                    text = texts.get(v)
                    if text is None:
                        w = format_sqrt2_power(v, k)
                        text = texts[v] = (f'{{"a": {json.dumps(w["a"])}, '
                                           f'"b": {json.dumps(w["b"])}, '
                                           f'"col": ')
                    rows.setdefault(r, []).append(f"{text}{c}}}")
            fh.write(f'{", " if n else ""}{json.dumps(name)}: '
                     f'{{"cols": {op.dim}, "entries": [')
            for r in range(op.dim):
                fh.write(f'{", " if r else ""}[{", ".join(rows.get(r, ()))}]')
            fh.write(f'], "rows": {op.dim}}}')
        fh.write("}")
