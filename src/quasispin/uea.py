"""Noncommutative polynomial arithmetic in U(o_N).

Elements are rational-linear combinations of words in the canonical
generators.  A word is a tuple of interned `GenIndex` letters, so it
hashes and compares by identity.  Coefficients follow the one rule of
`scalars` (an `int` when integral): the brackets of o_N are integral, so
the rewriter and the evaluator work almost entirely on ints.  Normal
ordering rewrites a word into the fixed PBW order (lowering, Cartan,
raising) by repeatedly swapping the leftmost out-of-order adjacent pair
and spawning the bracket term; termination is guaranteed because
(degree, inversion count) drops lexicographically at every step.  Two
elements are equal in U(o_N) iff their normal forms coincide (PBW
theorem).

The module also builds the noncommutative Pfaffians PfF_I, the Capelli
sums C_k, and the symbolic identity checkers used by the verification
suites.  Every checker returns the normally ordered difference as a
witness instead of a bare boolean.

`evaluate_in_representation` is the one evaluator in a matrix
representation; generator maps are `LinOp`s, and so is the result.  It
pushes every basis vector through every word as a sparse column, on the
letters' entries as they are, and forms no dense product.  The rewriter
compares letters by `pbw_sort_key`, which liealg memoises per generator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .liealg import (GenIndex, Weight, bracket, canonicalize, index_range,
                     pbw_sort_key, root_of)
from .linalg import LinOp
from .scalars import exact

Word = tuple  # a word is a tuple of GenIndex, () is the scalar word

_bracket_cache: dict = {}
_normal_cache: dict = {}


def _cached_bracket(a: GenIndex, b: GenIndex):
    key = (a, b)
    hit = _bracket_cache.get(key)
    if hit is None:
        hit = _bracket_cache[key] = tuple(bracket(a, b))
    return hit


class UEAElement:
    """Finite map Word -> rational coefficient; zero coefficients dropped.

    The constructor normalises every coefficient with `scalars.exact`;
    every operation builds its result through it.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict = {}
        if terms:
            for w, c in terms.items():
                c = exact(c)
                if c:
                    self.terms[w] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "UEAElement":
        return UEAElement(n)

    @staticmethod
    def gen(g: GenIndex) -> "UEAElement":
        return UEAElement(g.n, {(g,): 1})

    @staticmethod
    def of(i: int, j: int, n: int) -> "UEAElement":
        """F_ij as an element, resolving non-canonical indices by sign."""
        sgn, g = canonicalize(i, j, n)
        if sgn == 0:
            return UEAElement.zero(n)
        return UEAElement(n, {(g,): sgn})

    # -- linear structure ----------------------------------------------

    def _check_rank(self, other: "UEAElement"):
        if self.n != other.n:
            raise ValueError(f"elements of U(o_{2 * self.n + 1}) and "
                             f"U(o_{2 * other.n + 1}) do not combine")

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check_rank(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return UEAElement(self.n, out)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-other)

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "UEAElement":
        c = exact(c)
        if not c:
            return UEAElement.zero(self.n)
        return UEAElement(self.n, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        """Concatenation product; NOT normally ordered."""
        self._check_rank(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return UEAElement(self.n, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return (self - other).normal_order().is_zero()

    def __hash__(self):
        raise TypeError("UEAElement is unhashable; compare normal forms")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items(),
                           key=lambda t: (len(t[0]), [pbw_sort_key(g) for g in t[0]])):
            mono = "*".join(map(repr, w)) if w else "1"
            bits.append(f"({c})·{mono}")
        return " + ".join(bits)

    # -- normal ordering -----------------------------------------------

    def normal_order(self) -> "UEAElement":
        out: dict = {}
        for w, c in self.terms.items():
            for w2, c2 in _normal_order_word(w).items():
                s = out.get(w2, 0) + c * c2
                if s:
                    out[w2] = s
                else:
                    out.pop(w2, None)
        return UEAElement(self.n, out)

    def commutator(self, other: "UEAElement") -> "UEAElement":
        return self * other - other * self


def _normal_order_word(w: Word) -> dict:
    """Normal form of a single word as {word: coefficient}, memoized.

    The memo is keyed by the word itself: its letters are interned and
    carry their rank, so equal words are equal tuples of the same objects.
    """
    hit = _normal_cache.get(w)
    if hit is not None:
        return hit

    bad = -1
    for a in range(len(w) - 1):
        if pbw_sort_key(w[a]) > pbw_sort_key(w[a + 1]):
            bad = a
            break
    if bad < 0:
        result = _normal_cache[w] = {w: 1}
        return result

    swapped = w[:bad] + (w[bad + 1], w[bad]) + w[bad + 2:]
    out = dict(_normal_order_word(swapped))
    for c, g in _cached_bracket(w[bad], w[bad + 1]):
        sub = w[:bad] + (g,) + w[bad + 2:]
        for w2, c2 in _normal_order_word(sub).items():
            s = out.get(w2, 0) + c * c2
            if s:
                out[w2] = s
            else:
                out.pop(w2, None)
    _normal_cache[w] = out
    return out


def star(x: UEAElement, y: UEAElement) -> UEAElement:
    """Symmetrized product a*b = (ab + ba)/2."""
    return (x * y + y * x).scale(Fraction(1, 2))


def normal_order_rightmost(x: UEAElement) -> UEAElement:
    """Normal ordering via the rightmost out-of-order pair.

    A deliberately different rewriting strategy; agreement with the
    leftmost-first engine on every input is the PBW confluence evidence.
    """
    out: dict = {}

    def rec(w: Word, coeff):
        bad = -1
        for a in range(len(w) - 1):
            if pbw_sort_key(w[a]) > pbw_sort_key(w[a + 1]):
                bad = a
        if bad < 0:
            s = out.get(w, 0) + coeff
            if s:
                out[w] = s
            else:
                out.pop(w, None)
            return
        rec(w[:bad] + (w[bad + 1], w[bad]) + w[bad + 2:], coeff)
        for c, g in _cached_bracket(w[bad], w[bad + 1]):
            rec(w[:bad] + (g,) + w[bad + 2:], coeff * c)

    for w, c in x.terms.items():
        rec(w, c)
    return UEAElement(x.n, out)


# -- index sets ------------------------------------------------------


class IndexSet:
    """A sorted even-cardinality subset of {-n,...,n}."""

    __slots__ = ("elems", "n")

    def __init__(self, elems, n: int):
        elems = tuple(sorted(elems))
        valid = set(index_range(n))
        if len(set(elems)) != len(elems):
            raise ValueError("index set must have distinct elements")
        if any(e not in valid for e in elems):
            raise ValueError(f"indices {elems} out of range for n={n}")
        if len(elems) % 2 != 0:
            raise ValueError("index set must have even cardinality")
        self.elems = elems
        self.n = n

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x):
        return x in self.elems

    def negate(self) -> "IndexSet":
        return IndexSet(tuple(-e for e in self.elems), self.n)

    def __eq__(self, other):
        return isinstance(other, IndexSet) and (self.elems, self.n) == (other.elems, other.n)

    def __hash__(self):
        return hash((self.elems, self.n))

    def __repr__(self):
        return "{" + ",".join(map(str, self.elems)) + "}"


def hat_set(n: int, sign: int = 1) -> IndexSet:
    """The index set for PfF_{n-hat} (sign=+1) or PfF_{-n-hat} (sign=-1)."""
    if sign > 0:
        return IndexSet(range(-n, n), n)  # {-n,...,n-1}
    return IndexSet(range(-n + 1, n + 1), n)  # {-n+1,...,n}


def _perm_sign_to_sorted(seq) -> int:
    """Sign of the permutation sorting seq ascending (0 on duplicates)."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


_pf_cache: dict = {}


def _matchings(elems):
    """Perfect matchings of a tuple, each a list of pairs (a, b) with a
    before b in elems, the pairs in elems order of their first entries."""
    if not elems:
        yield []
        return
    for t in range(1, len(elems)):
        for rest in _matchings(elems[1:t] + elems[t + 1:]):
            yield [(elems[0], elems[t])] + rest


def pfaffian(I: IndexSet) -> UEAElement:
    """PfF_I = Pf(F_{-i,j})_{-i,j in I}, normally ordered; PfF_{} = 1.

    The defining sum runs over all k! permutations with weight
    1/((k/2)! 2^(k/2)).  Swapping the two entries of a pair flips both the
    sign of the permutation and the letter (F_{-b,a} = -F_{-a,b}), so the
    2^(k/2) orientations give equal terms: the sum runs over the ordered
    matchings, the pairs (a < b) of each perfect matching in every order,
    with weight 1/(k/2)!.  Reordering whole pairs is an even permutation,
    so every order of one matching has that matching's sign.
    """
    key = (I.n, I.elems)
    hit = _pf_cache.get(key)
    if hit is not None:
        return hit
    n = I.n
    weight = Fraction(1, factorial(len(I) // 2))
    terms: dict = {}
    for matching in _matchings(I.elems):
        sgn = _perm_sign_to_sorted([e for pair in matching for e in pair])
        letters = []
        for a, b in matching:
            s, g = canonicalize(-a, b, n)
            sgn *= s
            letters.append(g)
        # a letter determines its pair, so no word occurs twice
        for word in permutations(letters):
            terms[word] = sgn * weight
    result = UEAElement(n, terms).normal_order()
    _pf_cache[key] = result
    return result


def pf_of_tuple(seq, n: int) -> UEAElement:
    """PfF of an index tuple in a given order: antisymmetric extension.

    Duplicates give 0; otherwise the sign of the sorting permutation
    times PfF of the sorted set (wedge-product semantics).
    """
    sgn = _perm_sign_to_sorted(seq)
    if sgn == 0:
        return UEAElement.zero(n)
    base = pfaffian(IndexSet(seq, n))
    return base.scale(sgn)


def capelli(k: int, n: int) -> UEAElement:
    """Capelli element C_k = sum over |I|=k of PfF_I PfF_{-I}, normal form."""
    if k % 2 != 0 or not 2 <= k <= 2 * n + 1:
        raise ValueError(f"invalid Capelli degree k={k} for o_{2*n+1}")
    acc = UEAElement.zero(n)
    for combo in combinations(index_range(n), k):
        I = IndexSet(combo, n)
        acc = acc + pfaffian(I) * pfaffian(I.negate())
    return acc.normal_order()


# -- identity checkers ------------------------------------------------


class CheckResult:
    """Outcome of a symbolic identity check, with the difference witness.

    Keeps both sides so the defining-representation oracle can re-verify
    the identity as a matrix equation, independently of the rewriter.
    """

    __slots__ = ("name", "equal", "witness", "lhs", "rhs")

    def __init__(self, name: str, lhs: UEAElement, rhs: UEAElement):
        diff = (lhs - rhs).normal_order()
        self.name = name
        self.equal = diff.is_zero()
        self.witness = diff
        self.lhs = lhs
        self.rhs = rhs

    def matrix_oracle(self, genmap: dict, dim: int) -> bool:
        """Whether lhs - rhs, a sum of words merged with no rewriting,
        evaluates to zero in a representation."""
        return evaluate_in_representation(self.lhs - self.rhs, genmap,
                                          dim).is_zero()

    def __bool__(self):
        return self.equal

    def __repr__(self):
        status = "ok" if self.equal else f"FAIL witness={self.witness!r}"
        return f"<{self.name}: {status}>"


def check_lemma_l2(I: IndexSet, j1: int, j2: int) -> CheckResult:
    """Commutator rule [PfF_I, F_{j1,-j2}] against its four-case value.

    Case split on membership of j1, j2 in I; the replaced-index Pfaffians
    are interpreted with wedge semantics (collisions vanish, order gives
    the sign).
    """
    n = I.n
    if j1 == j2:
        raise ValueError("need j1 != j2 so that F_{j1,-j2} is a generator")
    f = UEAElement.of(j1, -j2, n)
    pf = pfaffian(I)
    lhs = pf.commutator(f)

    def replaced(old: int, new: int) -> UEAElement:
        seq = [new if e == old else e for e in I.elems]
        return pf_of_tuple(seq, n)

    in1, in2 = j1 in I, j2 in I
    if not in1 and not in2:
        rhs = UEAElement.zero(n)
    elif in1 and not in2:
        rhs = replaced(j1, -j2)
    elif not in1 and in2:
        rhs = -replaced(j2, -j1)
    else:
        rhs = replaced(j1, -j2) - replaced(j2, -j1)
    return CheckResult(f"l2[I={I},j1={j1},j2={j2}]", lhs, rhs)


def _split_sum(pool: tuple, p: int, k: int, n: int, i=None) -> UEAElement:
    """The sum over the splittings pool = first | second with |first| = p
    of (-1)^(first, second) (p/2)!(q/2)!/(k/2)! PfF_first PfF_second; with
    a middle letter i, of (-1)^(first, -n, i, second) (p/2)!(q/2)!/(k/2)!
    PfF_first F_{n,i} PfF_second."""
    letters = () if i is None else (-n, i)
    middle = None if i is None else UEAElement.of(n, i, n)
    coeff = Fraction(factorial(p // 2) * factorial((len(pool) - p) // 2),
                     factorial(k // 2))
    acc = UEAElement.zero(n)
    for first in combinations(pool, p):
        second = tuple(e for e in pool if e not in first)
        sgn = _perm_sign_to_sorted(first + letters + second)
        term = pfaffian(IndexSet(first, n))
        if middle is not None:
            term = term * middle
        term = term * pfaffian(IndexSet(second, n))
        acc = acc + term.scale(sgn * coeff)
    return acc


def check_split_formula(I: IndexSet, p: int, q: int) -> CheckResult:
    """PfF_I = (p/2)!(q/2)!/(k/2)! sum over splittings of PfF_I' PfF_I''."""
    k = len(I)
    if p + q != k or p % 2 or q % 2 or p < 0 or q < 0:
        raise ValueError(f"invalid split sizes ({p},{q}) for |I|={k}")
    return CheckResult(f"split[I={I},p={p},q={q}]", pfaffian(I),
                       _split_sum(I.elems, p, k, I.n))


def check_corollary_split(I: IndexSet) -> CheckResult:
    """PfF_I = 1/(k/2+1) sum over all even splittings with their weights."""
    n, k = I.n, len(I)
    acc = sum((_split_sum(I.elems, p, k, n) for p in range(0, k + 1, 2)),
              UEAElement.zero(n))
    return CheckResult(f"corl2[I={I}]",
                       pfaffian(I), acc.scale(Fraction(1, k // 2 + 1)))


def check_minorn(I: IndexSet) -> CheckResult:
    """Extraction formula for -n in I:

    PfF_I = sum_{i in I minus {-n}} sum_{I minus {-n,i} = I' | I''}
            (|I'|/2)!(|I''|/2)!/(k/2)! (-1)^{(I',-n,i,I'')} PfF_I' F_{ni} PfF_I''.
    """
    n, k = I.n, len(I)
    if -n not in I:
        raise ValueError(f"-{n} must belong to I")
    rest = tuple(e for e in I.elems if e != -n)
    acc = sum((_split_sum(tuple(e for e in rest if e != i), p, k, n, i)
               for i in rest for p in range(0, k - 1, 2)), UEAElement.zero(n))
    return CheckResult(f"minorn[I={I}]", pfaffian(I), acc)


def weight_shift_of(x: UEAElement):
    """Common weight shift of all words of x, or None when mixed.

    Every word shifts weights by the sum of its letters' roots; PfF_I
    must come out as -sum_{i in I} e_i.  The `root_of` components are
    summed as ints: a `Weight` sum would normalise every partial sum.
    """
    shift = None
    for w in x.terms:
        s = [0] * x.n
        for g in w:
            for r, c in enumerate(root_of(g).comps):
                s[r] += c
        if shift is None:
            shift = s
        elif shift != s:
            return None
    return Weight(shift) if shift is not None else Weight.zero(x.n)


# -- the quasi-spin star-product expressions ---------------------------


def pf_hat_star_expression(n: int, sign: int) -> UEAElement:
    """PfF_{+-2-hat} written through the quasi-spin dictionary (o5 only).

    PfF_{2-hat}  = A(-1)*tau_+/sqrt2 + A(0)*tau_0 + A(1)*tau_-/sqrt2,
    PfF_{-2-hat} = B(-1)*tau_-/sqrt2 + B(0)*tau_0 + B(1)*tau_+/sqrt2,
    with a*b = (ab+ba)/2 and the dictionary substitutions
    tau_+/sqrt2 = F_{0,-1}, tau_-/sqrt2 = F_{-1,0}, tau_0 = -F_{-1,-1},
    A(-1) = F_{-1,-2}, A(0) = F_{0,-2}, A(1) = F_{1,-2},
    B(-1) = F_{-2,-1}, B(0) = F_{-2,0}, B(1) = F_{-2,1}.
    """
    if n != 2:
        raise ValueError("star-product dictionary is specific to o_5")
    F = lambda i, j: UEAElement.of(i, j, n)
    tau_plus = F(0, -1)   # tau_+ / sqrt2
    tau_minus = F(-1, 0)  # tau_- / sqrt2
    tau0 = -F(-1, -1)
    if sign > 0:
        a_m1, a_0, a_p1 = F(-1, -2), F(0, -2), F(1, -2)
        expr = star(a_m1, tau_plus) + star(a_0, tau0) + star(a_p1, tau_minus)
    else:
        b_m1, b_0, b_p1 = F(-2, -1), F(-2, 0), F(-2, 1)
        expr = star(b_m1, tau_minus) + star(b_0, tau0) + star(b_p1, tau_plus)
    return expr.normal_order()


# -- evaluation in a matrix representation -----------------------------


def evaluate_in_representation(x: UEAElement, genmap: dict,
                               dim: int) -> LinOp:
    """Substitute operators for generators: words become products.

    The genmap values are `LinOp`s on dim dimensions, and the result is
    one too.  Every basis vector e_c is pushed through every word as a
    sparse vector, letters right to left, stopping when it dies, and
    coeff * image is summed into column c.  A letter costs at most
    nnz(vector) * nnz(column) steps, so operators with full columns cost
    no more than a matrix product per letter, and the defining, Fock and
    irrep generators, with one or a few entries per column, cost about
    dim * len(w) dict steps per word.
    """
    if not genmap:
        raise ValueError("empty generator map")
    letters: dict = {}

    def columns(g):
        cols = letters.get(g)
        if cols is None:
            m = genmap.get(g)
            if m is None:
                raise ValueError(f"generator map has no matrix for {g!r}")
            if not isinstance(m, LinOp):
                raise TypeError(f"{g!r} maps to a {type(m).__name__}, "
                                "not a LinOp")
            if m.dim != dim:
                raise ValueError(f"{g!r} acts on dimension {m.dim}, "
                                 f"not {dim}")
            cols = letters[g] = m.cols
        return cols

    out: dict = {}
    for w, coeff in x.terms.items():
        word = [columns(g) for g in reversed(w)]
        for c in range(dim):
            vec = {c: coeff}
            for cols in word:
                img: dict = {}
                for k, v in vec.items():
                    col = cols.get(k)
                    if col:
                        for r, y in col.items():
                            img[r] = img.get(r, 0) + v * y
                vec = img
                if not vec:
                    break
            else:
                acc = out.setdefault(c, {})
                for r, v in vec.items():
                    acc[r] = acc.get(r, 0) + v
    return LinOp(dim, out)
