"""Representation analysis for o_5.

Sources of representations (all with diagonal Cartan action in the
computational basis): fermionic Fock spaces, the trivial and defining
representations, irreps, and tensor products of sources.
`extract_irreps` splits a source into highest-weight irreducibles in two
steps per weight: the kernel of the raising operators there, then the
lowering orbit of each kernel vector.  `irrep_with_highest_weight` runs
the same two steps for the one irrep of a given highest weight, and
`irrep_of_weight` uses it to build V(lam) for any valid lam as a Cartan
product.  Each irrep is re-coordinatized on its own basis, where every
operator (generators, Pfaffians, the extremal projector, the reflection
intertwiner) is a sparse `LinOp`.  Every elimination runs on sparse
vectors, through `linalg.rref_rows` and `linalg.kernel_rows`: kernels
are taken of the stacked operator rows of a weight block
(`_stacked_rows`), `_coordinates` expresses sparse vectors in an RREF
basis by reading them at its pivots, with no elimination, and
`_map_on_span` reads a linear map fixed on a spanning set (the extremal
projector and Omega) from one RREF of the rows [x | y].  The one dense
`ExactMatrix` is `SliceMap.matrix`, which `tableaux` reads.

Conventions: the weight of a vector is (F_11-eigenvalue, F_22-eigenvalue)
= (tau_0, N); o3-highest means killed by the o3 raising operator
F_{-1,0}; slices V+_{T,N} collect o3-highest vectors of weight (T, N).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .fock import build_o5_on_fock
from .liealg import (GenIndex, Weight, canonical_generators, canonicalize,
                     defining_matrices, is_lowering, is_raising, root_of,
                     weyl_dimension)
from .linalg import (ExactMatrix, LinOp, kernel_rows, rank_and_kernel,
                     rref_rows, svec_add)
from .uea import (IndexSet, UEAElement, evaluate_in_representation, hat_set,
                  pfaffian)

N_RANK = 2  # everything here is o_5


class Representation:
    """An ambient representation: canonical generator -> sparse operator."""

    def __init__(self, label: str, dim: int, genmap: dict):
        self.label = label
        self.dim = dim
        self.genmap = genmap

    def __repr__(self):
        return f"<Representation {self.label}, dim {self.dim}>"


def trivial_representation() -> Representation:
    genmap = {g: LinOp(1) for g in canonical_generators(N_RANK)}
    return Representation("trivial", 1, genmap)


def defining_representation() -> Representation:
    return Representation("defining", 5, defining_matrices(N_RANK))


def tensor_product(a: Representation, b: Representation) -> Representation:
    """a (x) b, with e_i (x) e_j at index i * b.dim + j: each generator
    acts as g (x) 1 + 1 (x) g."""
    dim = a.dim * b.dim
    genmap = {}
    for g in canonical_generators(N_RANK):
        cols = {}
        for i in range(a.dim):
            for j in range(b.dim):
                col = {r * b.dim + j: x
                       for r, x in a.genmap[g].cols.get(i, {}).items()}
                for r, x in b.genmap[g].cols.get(j, {}).items():
                    col[i * b.dim + r] = col.get(i * b.dim + r, 0) + x
                cols[i * b.dim + j] = col
        genmap[g] = LinOp(dim, cols)
    return Representation(f"{a.label} x {b.label}", dim, genmap)


def tensor_power_representation(power: int) -> Representation:
    """Tensor power of the defining rep; power 0 is the trivial rep."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    if power == 0:
        return trivial_representation()
    rep = reduce(tensor_product, [defining_representation()] * power)
    return Representation(f"defining^{power}", rep.dim, rep.genmap)


def fock_representation(j) -> Representation:
    space, _, genmap = build_o5_on_fock(j)
    return Representation(f"fock({j})", space.dim, genmap)


class NonDiagonalCartan(Exception):
    """A Cartan generator is not diagonal in the computational basis: the
    source representation is broken (all supported sources are
    weight-diagonal, with rational eigenvalues since every entry is)."""


def weight_decompose(rep: Representation) -> dict:
    """Simultaneous Cartan eigenspaces: Weight -> sorted basis indices."""
    cartans = []
    for r in range(1, N_RANK + 1):
        op = rep.genmap[GenIndex(-r, -r, N_RANK)]
        if not op.is_diagonal():
            raise NonDiagonalCartan(f"F[{-r},{-r}] not diagonal on {rep.label}")
        cartans.append(op)
    buckets: dict = {}
    for k in range(rep.dim):
        w = Weight([-op.entry(k, k) for op in cartans])  # F_rr = -F_-r,-r
        buckets.setdefault(w, []).append(k)
    return buckets


class Irrep:
    """An extracted irreducible, re-coordinatized on its own basis.

    basis[i] is a sparse ambient vector; genmats[g] is the `LinOp` of
    generator g in that basis.  Basis vectors are grouped by
    weight, highest weight first; each weight block is the nonzero rows
    of its RREF in ambient coordinates, so the basis is canonical.
    """

    def __init__(self, source: str, highest_weight, basis, weights):
        self.source = source
        self.highest_weight = highest_weight  # (lam1, lam2) Fractions
        self.basis = basis
        self.weights = weights  # Weight per basis vector
        self.dim = len(basis)
        self.weight_positions: dict = {}
        for i, w in enumerate(weights):
            self.weight_positions.setdefault(w, []).append(i)
        self.genmats: dict = {}
        self._pf_cache: dict = {}
        self._slices = None  # filled by multiplicity_slices

    def __repr__(self):
        return f"<Irrep {self.highest_weight} dim {self.dim} from {self.source}>"

    def representation(self) -> Representation:
        """The irrep as a source, sharing its generator operators."""
        lam1, lam2 = self.highest_weight
        return Representation(f"V({lam1},{lam2})", self.dim, self.genmats)

    def matrix_of(self, x: UEAElement) -> LinOp:
        """Operator of a (normally ordered) U(o5) element, irrep basis."""
        return evaluate_in_representation(x, self.genmats, self.dim)

    def pf_matrix(self, sign: int) -> LinOp:
        """Operator of PfF_{2-hat} (sign=+1) or PfF_{-2-hat} (sign=-1)."""
        if sign not in self._pf_cache:
            self._pf_cache[sign] = self.matrix_of(pfaffian(hat_set(N_RANK, sign)))
        return self._pf_cache[sign]


def _weight_sort_key(w: Weight):
    # "higher" weights are reached by adding raising roots, which are
    # lex-negative on (e_n,...,e_1); so the highest weight is minimal in
    # reversed-tuple lex order and sorts first ascending.
    return tuple(reversed(w.comps))


def extract_irreps(rep: Representation):
    """Split into irreducibles by highest-weight theory.

    Two steps per weight, highest first: the vectors killed by every
    raising operator (the kernel of their `_stacked_rows`), then the
    lowering orbit of each (`_lowering_orbit`, which checks its
    dimension against the Weyl formula).  The irrep dimensions must also
    add up to the ambient one.  `irrep_with_highest_weight` runs the same
    steps for one irrep.
    """
    buckets = weight_decompose(rep)
    order = sorted(buckets, key=_weight_sort_key)
    raising, lowering = _root_generators(rep)
    irreps = [_lowering_orbit(rep, order, at, kv, lowering)
              for at, mu in enumerate(order)
              for kv in kernel_rows(_stacked_rows(raising, buckets[mu]),
                                    buckets[mu])]
    total = sum(irr.dim for irr in irreps)
    if total != rep.dim:
        raise AssertionError(
            f"irrep dimensions sum to {total}, ambient is {rep.dim}")
    _fill_generator_matrices(rep, irreps)
    return irreps


def irrep_with_highest_weight(rep: Representation, lam):
    """The first irrep of highest weight lam that `extract_irreps(rep)`
    yields (same basis, weights and genmats), built without the others;
    None when rep has no such irrep."""
    buckets = weight_decompose(rep)
    mu = Weight(lam)
    if mu not in buckets:
        return None
    raising, lowering = _root_generators(rep)
    kernel = kernel_rows(_stacked_rows(raising, buckets[mu]), buckets[mu])
    if not kernel:
        return None
    order = sorted(buckets, key=_weight_sort_key)
    irr = _lowering_orbit(rep, order, order.index(mu), kernel[0], lowering)
    _fill_generator_matrices(rep, [irr])
    return irr


def irrep_of_weight(lam) -> Irrep:
    """V(lam) for any valid highest weight, built as a Cartan product.

    (0,0), (0,-1) and (-1/2,-1/2) are the trivial, defining and spinor
    irreps (the last from Fock(1/2)).  Any other lam is (lam - mu) + mu
    with mu = (0,-1) if lam1 != lam2, else (-1/2,-1/2): lam is the top
    weight of V(lam - mu) (x) V(mu), of multiplicity one, so its irrep
    there is V(lam).  The Weyl-dimension check guards every step.
    """
    lam = (Fraction(lam[0]), Fraction(lam[1]))
    weyl_dimension(*lam)  # ValueError unless a valid highest weight
    half = Fraction(1, 2)
    base = {(0, 0): trivial_representation, (0, -1): defining_representation,
            (-half, -half): lambda: fock_representation(half)}
    if lam in base:
        return irrep_with_highest_weight(base[lam](), lam)
    mu = (0, -1) if lam[0] != lam[1] else (-half, -half)
    rest = irrep_of_weight((lam[0] - mu[0], lam[1] - mu[1]))
    return irrep_with_highest_weight(
        tensor_product(rest.representation(),
                       irrep_of_weight(mu).representation()), lam)


def _root_generators(rep: Representation):
    """(raising operators of rep, [(lowering operator, its root)])."""
    gens = canonical_generators(N_RANK)
    return ([rep.genmap[g] for g in gens if is_raising(g)],
            [(rep.genmap[g], root_of(g)) for g in gens if is_lowering(g)])


def _stacked_rows(ops, cols):
    """The rows of the operators ops on the columns cols, stacked: one
    sparse row {column: entry} per operator and row index it reaches.
    Their kernel is the common kernel of ops on the span of cols."""
    rows = []
    for op in ops:
        by_row: dict = {}
        for c in cols:
            for r, x in op.cols.get(c, {}).items():
                by_row.setdefault(r, {})[c] = x
        rows.extend(by_row.values())
    return rows


def _lowering_orbit(rep: Representation, order, at, kv, lowering):
    """The irrep generated by the highest-weight vector kv, a sparse
    ambient vector in the weight space order[at], one RREF per lower
    weight."""
    mu = order[at]
    lam = (mu.comps[0], mu.comps[1])
    if not (0 >= lam[0] >= lam[1]):
        raise AssertionError(
            f"highest weight {lam} violates 0 >= lam1 >= lam2; "
            "polarity convention broken")
    blocks = {mu: [kv]}
    # V_nu = sum over lowering f_alpha of f_alpha V_{nu - alpha}:
    # every nu - alpha is higher than nu, so its block is built
    for nu in order[at + 1:]:
        blocks[nu] = rref_rows(f.apply(v) for f, alpha in lowering
                               for v in blocks.get(nu - alpha, ()))
    basis = [v for nu in order[at:] for v in blocks[nu]]
    weights = [nu for nu in order[at:] for _ in blocks[nu]]
    expected = weyl_dimension(lam[0], lam[1])
    if len(basis) != expected:
        raise AssertionError(
            f"irrep {lam} in {rep.label}: span dim {len(basis)} != "
            f"Weyl dimension {expected}")
    return Irrep(rep.label, lam, basis, weights)


def _fill_generator_matrices(rep: Representation, irreps):
    """genmats[g], each block read at target pivots (`_coordinates`)."""
    gens = [(g, root_of(g)) for g in canonical_generators(N_RANK)]
    for irr in irreps:
        for g, alpha in gens:
            op = rep.genmap[g]
            m = LinOp(irr.dim)
            for w, cols in irr.weight_positions.items():
                images = [op.apply(irr.basis[c]) for c in cols]
                if not any(images):
                    continue
                rows = irr.weight_positions.get(w + alpha, [])
                coords = _coordinates([irr.basis[r] for r in rows], images)
                if coords is None:
                    raise AssertionError(
                        f"{g} image leaves the irrep span in {irr}")
                m.cols.update((c, {rows[t]: x for t, x in col.items()})
                              for c, col in zip(cols, coords) if col)
            irr.genmats[g] = m


def _coordinates(targets, images):
    """Coordinates of the sparse vectors images in the RREF rows targets,
    one sparse column {target position: coordinate} per image, or None
    when some image is outside their span.  Each target's pivot is its
    smallest key (else `AssertionError`): w has coordinates w[pivot], and
    is in the span iff they give back w."""
    pivots = [min(t, default=None) for t in targets]
    if any(p is None or t[p] != 1 or sum(p in u for u in targets) > 1
           for t, p in zip(targets, pivots)):
        raise AssertionError("coordinate basis is not in reduced echelon form")
    out = []
    for w in images:
        col: dict = {}
        span: dict = {}
        for r, (t, p) in enumerate(zip(targets, pivots)):
            x = w.get(p)
            if x:
                col[r] = x
                for k, y in t.items():
                    span[k] = span.get(k, 0) + x * y
        if {k: x for k, x in span.items() if x} != w:
            return None
        out.append(col)
    return out


def _map_on_span(pairs, src, dst):
    """The linear map x -> y fixed by pairs (x, y) of sparse vectors, x
    on the ascending indices src and y on dst, as sparse columns
    {s: image of s} (zero columns left out).  One RREF of the rows
    [x | y], keyed (0, s) before (1, d), gives [identity | map]; None
    unless its pivots are exactly the src columns, that is unless the xs
    span src and the ys agree with one map."""
    red = rref_rows({(0, k): v for k, v in x.items()}
                    | {(1, k): v for k, v in y.items()} for x, y in pairs)
    if [min(r) for r in red] != [(0, s) for s in src]:
        return None
    return {s: col for s, r in zip(src, red)
            if (col := {d: v for (side, d), v in r.items() if side})}


# -- o3 structure -----------------------------------------------------

O3_RAISING = GenIndex(-1, 0, N_RANK)
O3_LOWERING = GenIndex(0, -1, N_RANK)
O3_CARTAN = GenIndex(-1, -1, N_RANK)


class MultiplicitySlice:
    """V+_{T,N}: o3-highest vectors of weight (T, N) inside an irrep.

    basis vectors are sparse {index: value} vectors in irrep coordinates,
    like `Irrep.basis`, echelon-canonical, so every slice is deterministic.
    """

    def __init__(self, irrep: Irrep, T, N, basis):
        self.irrep = irrep
        self.T = T
        self.N = N
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"<Slice T={self.T} N={self.N} dim {self.dim}>"


def multiplicity_slices(irrep: Irrep):
    """All nonempty V+_{T,N}, keyed by (T, N); includes the dim sum check.

    Computed on the first call and cached on the irrep.
    """
    if irrep._slices is not None:
        return irrep._slices
    e = irrep.genmats[O3_RAISING]
    slices = {}
    covered = 0
    for w in sorted(irrep.weight_positions, key=_weight_sort_key):
        T, N = w.comps
        if T > 0:
            continue  # o3-highest vectors sit at tau0 = T <= 0
        cols = irrep.weight_positions[w]
        basis = kernel_rows(_stacked_rows([e], cols), cols)
        if not basis:
            continue
        slices[(T, N)] = MultiplicitySlice(irrep, T, N, basis)
        covered += len(basis) * int(-2 * T + 1)
    if covered != irrep.dim:
        raise AssertionError(
            f"slice dimension bookkeeping off: {covered} != {irrep.dim}")
    irrep._slices = slices
    return slices


class SliceMap:
    """Matrix of an operator between two multiplicity slices.

    Rank and kernel come from one elimination, made on first use.
    """

    def __init__(self, source: MultiplicitySlice, target, matrix: ExactMatrix):
        self.source = source
        self.target = target  # may be None for an empty target slice
        self.matrix = matrix
        self._rank_kernel = None

    def _factor(self):
        if self._rank_kernel is None:
            self._rank_kernel = rank_and_kernel(self.matrix)
        return self._rank_kernel

    @property
    def rank(self):
        return self._factor()[0]

    @property
    def nullity(self):
        return self.matrix.cols - self.rank

    def kernel(self):
        return self._factor()[1]


def _restrict_to_slices(op: LinOp, source: MultiplicitySlice,
                        target) -> SliceMap:
    """Express op: span(source) -> span(target) at the target's pivots;
    image containment is an assertion (weight shift + o3-commutation
    guarantee it).  An empty target (None) admits only zero images."""
    tbasis = target.basis if target is not None else []
    coords = _coordinates(tbasis, [op.apply(v) for v in source.basis])
    if coords is None:
        where = (f"({target.T},{target.N})" if target is not None
                 else "(empty)")
        raise AssertionError(
            f"image of slice ({source.T},{source.N}) not inside target "
            f"slice {where}")
    matrix = ExactMatrix(len(tbasis), len(coords))
    for c, col in enumerate(coords):
        for r, x in col.items():
            matrix.data[r][c] = x
    return SliceMap(source, target, matrix)


def pf_slice_maps(irrep: Irrep, T):
    """Per-N maps of PfF_{2-hat} (up) and PfF_{-2-hat} (down) at fixed T.

    Returns (ups, downs): ups[N] maps V+_{T,N} -> V+_{T,N+1}, downs[N]
    maps V+_{T,N} -> V+_{T,N-1}.  Empty targets are legal (zero maps).
    """
    slices = multiplicity_slices(irrep)
    mine = {N: s for (t, N), s in slices.items() if t == T}
    up_op = irrep.pf_matrix(+1)
    down_op = irrep.pf_matrix(-1)
    ups, downs = {}, {}
    for N, s in mine.items():
        ups[N] = _restrict_to_slices(up_op, s, mine.get(N + 1))
        downs[N] = _restrict_to_slices(down_op, s, mine.get(N - 1))
    return ups, downs


# -- extremal projector ------------------------------------------------


class ProjectorResult:
    def __init__(self, matrix: LinOp, singular_weights, series_checked):
        self.matrix = matrix
        self.singular_weights = singular_weights  # weights where the series
        # evaluation hits a vanishing denominator (reported, not fatal)
        self.series_checked = series_checked  # weights where series == matrix


def extremal_projector_o3(irrep: Irrep) -> ProjectorResult:
    """The o3 extremal projector p on the irrep, as an exact operator.

    p is realized as the unique projector with image ker(e) and kernel
    im(f) (the algebraic characterization p^2 = p, e p = p f = 0): on
    each weight block it fixes ker(e), spanned by the slice vectors there
    (`multiplicity_slices`; blocks with tau0 > 0 have none), and kills
    the f-images of the tau0 - 1 block.  The defining series with
    denominators (h + rho + t) is evaluated per weight block wherever
    those denominators are nonzero and compared against the algebraic
    projector; blocks with vanishing denominators are recorded as
    diagnostics (the R(h) localization of the series is not defined
    there).
    """
    e = irrep.genmats[O3_RAISING]
    f = irrep.genmats[O3_LOWERING]
    slices = multiplicity_slices(irrep)
    proj = LinOp(irrep.dim)
    singular = []
    checked = []
    for w in sorted(irrep.weight_positions, key=_weight_sort_key):
        cols = irrep.weight_positions[w]
        # f = F_{0,-1} has root +e_1: its images here come from tau0 - 1
        up = irrep.weight_positions.get(Weight((w.comps[0] - 1, w.comps[1])), [])
        kern = slices[w.comps].basis if w.comps in slices else []
        block = _map_on_span([(v, v) for v in kern]
                             + [(f.cols.get(u, {}), {}) for u in up],
                             cols, cols)
        if block is None:
            raise AssertionError(
                f"ker(e) and im(f) do not split weight {w} of {irrep}")
        proj.cols.update(block)
        # series cross-check on this block: h = 2 F_{-1,-1}, rho(h) = 1,
        # f normalized to 2 F_{0,-1} so that [e, f] = h
        mu_h = -2 * w.comps[0]
        # e-powers of the block basis vectors, up to nilpotency
        towers = []
        for c in cols:
            tower = [{c: Fraction(1)}]
            while tower[-1]:
                tower.append(e.apply(tower[-1]))
            towers.append(tower[:-1])
        kmax = max(len(t) - 1 for t in towers)
        if any(mu_h + 1 + t == 0 for t in range(1, kmax + 1)):
            singular.append(w)
            continue
        for tower in towers:
            acc = tower[0]
            coeff = Fraction(1)
            for k in range(1, len(tower)):
                coeff = coeff * Fraction(-1, k) / (mu_h + 1 + k)
                term = tower[k]
                for _ in range(k):
                    term = f.apply(term)
                acc = svec_add(acc, {r: 2 ** k * coeff * x
                                     for r, x in term.items()})
            if acc != proj.apply(tower[0]):
                raise AssertionError(
                    f"extremal projector series disagrees with the "
                    f"algebraic projector on weight {w} of {irrep}")
        checked.append(w)
    return ProjectorResult(proj, singular, checked)


# -- the reflection intertwiner ----------------------------------------


def omega_genindex(g: GenIndex):
    """The reflection automorphism: omega(F_ij) = -(-1)^{b2} F_ji.

    Here b2 is the e_2-component of the generator's root.  Any lift of
    the -1 Weyl element conjugates F_ij to a multiple of F_ji; lifts
    differ by torus characters.  The bare choice omega(F_ij) = -F_ji
    sends PfF_{-2hat} to +PfF_{2hat} (exact symbolic identity), so the
    lift is twisted by the character (-1)^{e_2-coordinate} to realize
    the standard sign convention omega(PfF_{-2hat}) = -PfF_{2hat}.

    Returns (coefficient, canonical generator).
    """
    s, h = canonicalize(g.j, g.i, g.n)
    b2 = root_of(g).comps[1]
    if b2.denominator != 1:
        raise AssertionError(f"root of {g} has a non-integral e_2 coordinate")
    twist = -1 if int(b2) % 2 else 1
    return (-Fraction(s * twist), h)


def omega_operator(irrep: Irrep) -> LinOp:
    """Intertwiner with Omega M(g) = M(omega(g)) Omega, unique up to scale.

    Fixed by sending the highest-weight vector to the lowest-weight one,
    then transported down one weight at a time, highest first: V_nu is
    spanned by the lowering images f v of the blocks already built, and
    Omega(f v) = omega(f) Omega(v): `_map_on_span` reads Omega on V_nu
    from these pairs, and fails when the f v miss part of V_nu or the
    images contradict each other.  Verified generator by generator at
    the end.  Maps every weight space V_lam onto V_{-lam}.

    The normalisation refers to basis vectors, so Omega's scale depends on
    the basis: conjugating the generator matrices by D = diag(t_nu) turns
    Omega into (t_lam / t_{-lam}) D Omega D^-1.  On Fock irreps, built in
    the rescaled basis of `fock` (t_nu = sqrt2^(nu_1 + nu_2)), the
    coefficient of x^(d-i) in its characteristic polynomial is therefore
    2^(i (lam1 + lam2)) times the one of the conventional basis.
    """
    # (root of f, M(f), c M(h)) for omega(f) = c h
    lowering = [(root_of(g), irrep.genmats[g], irrep.genmats[h].scale(c))
                for g in canonical_generators(N_RANK) if is_lowering(g)
                for c, h in [omega_genindex(g)]]
    lam = irrep.weights[0]  # basis[0] is the highest-weight vector
    low_positions = irrep.weight_positions.get(-lam)
    if not low_positions or len(low_positions) != 1:
        raise AssertionError("lowest weight space is not a line")
    omega = LinOp(irrep.dim, {0: {low_positions[0]: 1}})
    positions = irrep.weight_positions
    for nu in sorted(positions, key=_weight_sort_key)[1:]:
        block = _map_on_span([(down.cols.get(v, {}),
                               up.apply(omega.cols.get(v, {})))
                              for alpha, down, up in lowering
                              for v in positions.get(nu - alpha, ())],
                             positions[nu], positions.get(-nu, []))
        if block is None:
            raise AssertionError(
                f"lowering images fail to span V_{nu} or give inconsistent "
                f"Omega images on {irrep}")
        omega.cols.update(block)
    # posterior verification: the defining intertwining property
    for g in canonical_generators(N_RANK):
        c, h = omega_genindex(g)
        lhs = omega @ irrep.genmats[g]
        rhs = (irrep.genmats[h] @ omega).scale(Fraction(c))
        if lhs != rhs:
            raise AssertionError(f"omega fails to intertwine {g} on {irrep}")
    return omega


def theta_transport(irrep: Irrep, omega: LinOp, T) -> LinOp:
    """Theta = M(e)^{2|T|} . Omega : maps V+_{T,N} bijectively to V+_{T,-N}.

    Omega carries an o3-highest vector (tau0 = T) to an o3-lowest one
    (tau0 = -T); climbing back with the o3 raising operator returns to
    the o3-highest line of the same o3-irrep, with a T-dependent overall
    scale that drops out of every flag-level use.  Passed Theta_{T'} in
    place of Omega and T - T', it returns Theta_T.
    """
    steps = int(-2 * T)
    m = omega
    e = irrep.genmats[O3_RAISING]
    for _ in range(steps):
        m = e @ m
    return m


# -- probes -------------------------------------------------------------


def tps_scalar_probe(irrep: Irrep):
    """Scalar-action probes for the projected-Pfaffian statements.

    (a) PfF_{{-1,1}} acts on each o3-highest vector; measured scalar is
        compared to the F_11 eigenvalue T and to D_1(F_11) = F_11 + 1/2.
    (b) p PfF_{2hat} v = c(T) p F_{20} v is solved for c(T) wherever
        p F_{20} v != 0; the measured c values are reported rather than
        asserted (received closed forms for this scalar are ambiguous).
    """
    report = {"pf_sym_scalar": [], "c_constant": [], "anomalies": []}
    slices = multiplicity_slices(irrep)
    m_sym = irrep.matrix_of(pfaffian(IndexSet([-1, 1], N_RANK)))
    proj = extremal_projector_o3(irrep).matrix
    m_pf2 = proj @ irrep.pf_matrix(+1)
    m_f20 = proj @ irrep.matrix_of(UEAElement.of(2, 0, N_RANK))
    for (T, N), s in sorted(slices.items()):
        for v in s.basis:
            img = m_sym.apply(v)
            scal = _ratio(img, v)
            if scal is None:
                report["anomalies"].append((T, N, "PfF_{-1,1} not scalar on slice"))
                continue
            report["pf_sym_scalar"].append({
                "T": T, "N": N, "measured": scal,
                "matches_F11_eigenvalue": scal == T,
                "D1_prediction": T + Fraction(1, 2),
                "matches_D1": scal == T + Fraction(1, 2),
            })
            x = m_pf2.apply(v)
            y = m_f20.apply(v)
            if not y:
                continue
            c = _ratio(x, y)
            report["c_constant"].append({
                "T": T, "N": N,
                "c": c if c is not None else "not parallel",
            })
    # measured fit: every sample so far satisfies c(T) = 1 - T
    rows = report["c_constant"]
    report["c_fits_one_minus_T"] = bool(rows) and all(
        r["c"] == 1 - r["T"] for r in rows)
    return report


def _ratio(x, y):
    """x = c*y for sparse vectors: the scalar c, or None."""
    if x.keys() - y.keys():
        return None
    ratios = {x.get(k, 0) / b for k, b in y.items()}
    if not ratios:
        return Fraction(0)  # x = y = 0
    return ratios.pop() if len(ratios) == 1 else None
