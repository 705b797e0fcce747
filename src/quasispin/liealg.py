"""The split realization of o_N: generators F_ij, brackets, roots.

Indices run over {-n,...,-1,0,1,...,n} (N = 2n+1 is odd), and
F_ij = E_ij - E_{-j,-i}, so F_ij = -F_{-j,-i} and F_{i,-i} = 0.  Exactly
one member of each {(i,j), (-j,-i)} pair is kept as the canonical
generator: the lexicographically smaller one.

Weights live in the e_1..e_n coordinates with e_{-r} = -e_r, e_0 = 0;
the generator F_ij carries the root e_i - e_j.  A root is classified as
"raising" when its coefficient tuple (e_n, ..., e_1) is lexicographically
negative; with that polarity highest weights of irreps come out
nonpositive (0 >= lam_1 >= lam_2), matching the tableau conventions used
downstream, and the Cartan-positive side consists of the pair-creation
operators of the Fock realization.
"""

from __future__ import annotations

from .linalg import LinOp
from .scalars import exact


def index_range(n: int):
    """Valid matrix indices of o_{2n+1}: {-n..n}."""
    return list(range(-n, n + 1))


# (i, j, n) -> the one GenIndex with those indices
_interned: dict = {}


class GenIndex:
    """A canonical generator F_ij of o_N (split realization).

    Interned: ``GenIndex(i, j, n)`` returns the one object for (i, j, n),
    so equality and hashing are by identity, done in C.  Words of
    generators are dict keys in the rewriter, and every lookup hashes and
    compares each letter.  Invalid indices raise before anything is
    stored.
    """

    __slots__ = ("i", "j", "n")

    def __new__(cls, i: int, j: int, n: int):
        key = (i, j, n)
        g = _interned.get(key)
        if g is not None:
            return g
        if not (-n <= i <= n and -n <= j <= n):
            raise ValueError(f"index ({i},{j}) out of range for n={n}")
        if j == -i:
            raise ValueError("F_{i,-i} is identically zero")
        if (i, j) > (-j, -i):
            raise ValueError(f"({i},{j}) is not canonical; use canonicalize")
        g = super().__new__(cls)
        g.i, g.j, g.n = i, j, n
        _interned[key] = g
        return g

    def key(self):
        return (self.i, self.j)

    def is_cartan(self) -> bool:
        return self.i == self.j

    def __lt__(self, other):
        return pbw_sort_key(self) < pbw_sort_key(other)

    def __repr__(self):
        return f"F[{self.i},{self.j}]"


def canonicalize(i: int, j: int, n: int):
    """Resolve F_ij to (sign, canonical GenIndex); sign 0 when j == -i."""
    if not (-n <= i <= n and -n <= j <= n):
        raise ValueError(f"index ({i},{j}) out of range for n={n}")
    if j == -i:
        return 0, None
    if (i, j) <= (-j, -i):
        return 1, GenIndex(i, j, n)
    return -1, GenIndex(-j, -i, n)


def canonical_generators(n: int):
    """All canonical generators of o_{2n+1}, in PBW order."""
    gens = []
    for i in index_range(n):
        for j in index_range(n):
            if j == -i:
                continue
            if (i, j) <= (-j, -i):
                gens.append(GenIndex(i, j, n))
    gens.sort(key=pbw_sort_key)
    return gens


class Weight:
    """A vector in the e_1..e_n weight coordinates.  Its entries follow
    the scalar rule of `scalars.exact`: an int when integral (every
    weight of an integral irrep), a Fraction otherwise."""

    __slots__ = ("comps", "_hash")

    def __init__(self, comps):
        self.comps = tuple(map(exact, comps))
        # weights key many dicts: the hash is taken once
        self._hash = hash(self.comps)

    @staticmethod
    def zero(n: int) -> "Weight":
        return Weight((0,) * n)

    @staticmethod
    def e(r: int, n: int) -> "Weight":
        """e_r with the conventions e_{-r} = -e_r and e_0 = 0."""
        comps = [0] * n
        if r > 0:
            comps[r - 1] = 1
        elif r < 0:
            comps[-r - 1] = -1
        return Weight(comps)

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.comps))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.comps)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.comps == other.comps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"


# Per-generator memos of root_of and pbw_sort_key, keyed by the interned
# generator.  Both values are immutable, so every caller may share them.
_root_memo: dict = {}
_sort_key_memo: dict = {}


def root_of(g: GenIndex) -> Weight:
    """Root e_i - e_j of a generator; zero weight for Cartan elements."""
    hit = _root_memo.get(g)
    if hit is None:
        hit = _root_memo[g] = Weight.e(g.i, g.n) - Weight.e(g.j, g.n)
    return hit


def is_raising(g: GenIndex) -> bool:
    """Raising <=> root is lex-negative on (e_n, ..., e_1) coefficients.

    With this polarity the o3-raising operator inside o5 is F_{-1,0} and
    highest weights come out nonpositive; validated against the defining
    representation in the tests.
    """
    if g.is_cartan():
        return False
    r = root_of(g).comps
    for c in reversed(r):
        if c:
            return c < 0
    return False


def is_lowering(g: GenIndex) -> bool:
    return not g.is_cartan() and not is_raising(g)


def simple_generators(n: int):
    """(simple raising generators, simple lowering generators): the
    generators whose root is not a sum of two roots of their own kind.
    They generate o_{2n+1} under brackets (Serre).  The lowering ones
    come in PBW order and raising[i] is the opposite of lowering[i].  For
    o_5 that puts the long root first: in `replab`, the raising kernels
    and the lowering orbit of V(-4,-7) then take a third of the time
    that the other order takes."""
    gens = canonical_generators(n)
    lowering = [g for g in gens if is_lowering(g)]
    sums = {root_of(a) + root_of(b) for a in lowering for b in lowering}
    by_root = {root_of(g): g for g in gens}
    simple = [g for g in lowering if root_of(g) not in sums]
    return [by_root[-root_of(g)] for g in simple], simple


def pbw_sort_key(g: GenIndex):
    """Total order for PBW normal ordering.

    Lowering (negative-root) generators first, then Cartan F_{-n,-n}..
    F_{-1,-1}, then raising generators; within a class ordered by root
    coordinates, then by index pair.  The root coordinates are ints.
    """
    hit = _sort_key_memo.get(g)
    if hit is None:
        if g.is_cartan():
            hit = (1, (g.i, g.j))
        else:
            hit = (2 if is_raising(g) else 0, root_of(g).comps + (g.i, g.j))
        _sort_key_memo[g] = hit
    return hit


def bracket(a: GenIndex, b: GenIndex):
    """[F_a, F_b] as a list of (int coeff, canonical GenIndex).

    Four-delta commutation rule:
    [F_ij, F_kl] = d_kj F_il - d_il F_kj - d_{-k,i} F_{-j,l} + d_{-l,j} F_{k,-i}
    """
    i, j, k, l = a.i, a.j, b.i, b.j
    n = a.n
    raw = []
    if k == j:
        raw.append((1, i, l))
    if i == l:
        raw.append((-1, k, j))
    if -k == i:
        raw.append((-1, -j, l))
    if -l == j:
        raw.append((1, k, -i))
    acc: dict = {}
    for c, p, q in raw:
        sgn, g = canonicalize(p, q, n)
        if sgn == 0:
            continue
        acc[g] = acc.get(g, 0) + c * sgn
    return [(c, g) for g, c in sorted(acc.items(), key=lambda t: pbw_sort_key(t[0])) if c]


def defining_matrices(n: int):
    """The defining N x N representation: GenIndex -> LinOp.

    Basis ordered by index (-n, ..., n); entry convention
    F_ij = E_ij - E_{-j,-i}.  The two entries lie in different columns,
    since j != -i for a generator.
    """
    idx = index_range(n)
    pos = {v: t for t, v in enumerate(idx)}
    return {g: LinOp(len(idx), {pos[g.j]: {pos[g.i]: 1},
                                pos[-g.i]: {pos[-g.j]: -1}})
            for g in canonical_generators(n)}


def weyl_dimension(lam1, lam2) -> int:
    """Dimension of the o5 irrep with nonpositive highest weight (lam1, lam2).

    Uses the substitution a = -lam2, b = -lam1 to bridge to the standard
    dominant B2 convention: dim = (a-b+1)(a+b+2)(2a+3)(2b+1)/6, computed
    in integers on the doubled coordinates A = 2a, B = 2b as
    (A-B+2)(A+B+4)(A+3)(B+1)/24.
    """
    lam1, lam2 = exact(lam1), exact(lam2)
    if not (0 >= lam1 >= lam2):
        raise ValueError(f"invalid highest weight ({lam1},{lam2}): need 0 >= lam1 >= lam2")
    A, B = exact(-2 * lam2), exact(-2 * lam1)
    if type(A) is not int or type(B) is not int:
        raise ValueError("weights must be integers or half-integers")
    if (A - B) % 2:
        raise ValueError("weights must be simultaneously integer or half-integer")
    num = (A - B + 2) * (A + B + 4) * (A + 3) * (B + 1)
    if num % 24 or num <= 0:
        raise AssertionError(f"Weyl dimension {num}/24 of ({lam1},{lam2}) "
                             "is not a positive integer")
    return num // 24


def o3_subalgebra_generators(n: int):
    """Canonical F_ij with -n < i,j < n: the embedded o_{2n-1}."""
    return [g for g in canonical_generators(n) if abs(g.i) < n and abs(g.j) < n]
