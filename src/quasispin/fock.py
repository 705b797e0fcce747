"""Two-species fermionic Fock space for a single-j shell.

Modes are enumerated protons first (ascending m), then neutrons
(ascending m); a basis state is the occupation bitmask over that order.
Creation operators follow the Jordan-Wigner convention: applying
a+_k to a mask picks up (-1)^(number of occupied modes below k).

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
`report.write_genmap` undoes the scale to export the conventional
matrices.
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import bracket, canonical_generators, root_of
from .linalg import LinOp
from .scalars import rat

MAX_J_DEFAULT = Fraction(5, 2)

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


class FockSpace:
    """All creation/annihilation matrices for a single-j two-species shell."""

    def __init__(self, j, max_j=MAX_J_DEFAULT):
        j = rat(j)
        if (2 * j).denominator != 1 or j <= 0:
            raise ValueError(f"j must be a positive half-integer, got {j}")
        if j > max_j:
            raise ValueError(f"j={j} exceeds the configured cap {max_j}")
        self.j = j
        self.m_values = [j - k for k in range(int(2 * j) + 1)]
        self.m_values.reverse()  # ascending m
        self.modes = [("p", m) for m in self.m_values] + [("n", m) for m in self.m_values]
        self.nmodes = len(self.modes)
        self.dim = 1 << self.nmodes
        self.mode_pos = {mode: k for k, mode in enumerate(self.modes)}
        self._adag = [self._build_adag(k) for k in range(self.nmodes)]
        self._a = [op.transpose() for op in self._adag]

    def _build_adag(self, k: int) -> LinOp:
        op = LinOp(self.dim)
        bit = 1 << k
        below = bit - 1
        for mask in range(self.dim):
            if mask & bit:
                continue
            sign = -1 if bin(mask & below).count("1") % 2 else 1
            op.cols[mask] = {mask | bit: Fraction(sign)}
        return op

    def adag(self, species: str, m) -> LinOp:
        return self._adag[self.mode_pos[(species, rat(m))]]

    def a(self, species: str, m) -> LinOp:
        return self._a[self.mode_pos[(species, rat(m))]]

    def vacuum(self) -> dict:
        return {0: Fraction(1)}

    def car_violations(self):
        """Exhaustive CAR check; returns offending (relation, i, j) triples."""
        bad = []
        ident = LinOp.identity(self.dim)
        for i in range(self.nmodes):
            for k in range(i, self.nmodes):
                if not self._a[i].anticommutator(self._a[k]).is_zero():
                    bad.append(("{a,a}", i, k))
                if not self._adag[i].anticommutator(self._adag[k]).is_zero():
                    bad.append(("{a+,a+}", i, k))
                want = ident if i == k else LinOp(self.dim)
                if self._a[i].anticommutator(self._adag[k]) != want:
                    bad.append(("{a,a+}", i, k))
                if i != k and not self._a[k].anticommutator(self._adag[i]).is_zero():
                    bad.append(("{a,a+}", k, i))
        return bad


def quasispin_operators(space: FockSpace) -> dict:
    """The ten quasi-spin operators as exact matrices (corrected forms).

    A(0) and B(0) come without their 1/sqrt2 prefactor, which sits in
    `DICTIONARY`; every entry is an integer or a half-integer.
    """
    j = space.j
    dim = space.dim
    half = Fraction(1, 2)

    def sum_ops(terms) -> LinOp:
        acc = LinOp(dim)
        for t in terms:
            acc = acc + t
        return acc

    ap = {m: space.adag("p", m) for m in space.m_values}
    an = {m: space.adag("n", m) for m in space.m_values}
    bp = {m: space.a("p", m) for m in space.m_values}
    bn = {m: space.a("n", m) for m in space.m_values}
    pos_m = [m for m in space.m_values if m > 0]

    def phase(m) -> int:
        e = j - m
        if e.denominator != 1:
            raise AssertionError(f"j-m = {e} must be integral for m>0 sums")
        return -1 if int(e) % 2 else 1

    ops = {}
    ops["tau+"] = sum_ops(ap[m] @ bn[m] for m in space.m_values)
    ops["tau-"] = sum_ops(an[m] @ bp[m] for m in space.m_values)
    ops["tau0"] = sum_ops([(ap[m] @ bp[m]).scale(half) for m in space.m_values]
                          + [(an[m] @ bn[m]).scale(-half) for m in space.m_values])
    num = sum_ops([(ap[m] @ bp[m]).scale(half) for m in space.m_values]
                  + [(an[m] @ bn[m]).scale(half) for m in space.m_values])
    ops["N"] = num - LinOp.identity(dim).scale(Fraction(2 * j + 1, 2))

    ops["A(1)"] = sum_ops((ap[m] @ ap[-m]).scale(phase(m)) for m in pos_m)
    ops["A(-1)"] = sum_ops((an[m] @ an[-m]).scale(phase(m)) for m in pos_m)
    ops["A(0)"] = sum_ops(((ap[m] @ an[-m]) + (an[m] @ ap[-m])).scale(phase(m))
                          for m in pos_m)
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


def verify_representation(genmap: dict, n: int = 2):
    """Check [M_a, M_b] = M(bracket(a,b)) for every unordered pair.

    Returns the list of violating pairs (empty = exact representation).
    """
    gens = list(genmap)
    violations = []
    dim = next(iter(genmap.values())).dim
    for x in range(len(gens)):
        for y in range(x, len(gens)):
            a, b = gens[x], gens[y]
            lhs = genmap[a].commutator(genmap[b])
            rhs = LinOp(dim)
            for c, g in bracket(a, b):
                rhs = rhs + genmap[g].scale(Fraction(c))
            if lhs != rhs:
                violations.append((a, b))
    return violations


def build_o5_on_fock(j, max_j=MAX_J_DEFAULT):
    """Fock space, quasi-spin operators and the o5 generator map D F D^-1
    in the rescaled basis (see the module docstring)."""
    space = FockSpace(j, max_j)
    ops = quasispin_operators(space)
    genmap = dictionary_to_o5(ops)
    return space, ops, genmap
