"""Tableau combinatorics for o_5 states and the fourth quantum number.

A basis state of the irrep with nonpositive highest weight (lam1, lam2)
is a pattern (lam1, lam2; sigma, l21, l22; lam11; sigma1, l11).  The
three natural quantum numbers are T = lam11, tau0 = (-1)^sigma1 l11 and
N = sigma + 2(l21 + l22) - (lam1 + lam2) - lam11.

For fixed (lam, T) the second-row points (l21, l22) fill the rectangle
[max(lam1, T), 0] x [lam2, min(lam1, T)] on the weight grid; fixing N
cuts the rectangle with the line l21 + l22 = K and fixes the parity bit
sigma.  The raising
action of PfF_{2-hat} on the second row is modeled by an identity block
(sigma = 0) or a bidiagonal block with gamma-dependent coefficients
(sigma = 1); `predicted_slice_matrix` is the one builder of these model
maps, and its gamma-free skeleton (every coefficient 1) carries the A-D
case pattern.  Everything the model claims about actual representations
is compared through ranks, kernels and flag positions only, never
through matrix entries in an uncomputable basis.

`assign_k` builds the fourth quantum number as an image filtration over
the computed Pfaffian slice maps: states at level k of V+_{T,N} are
those in the image of the k-fold composed raising map, with labels for
N > 0 transported through the reflection intertwiner.  One upward
induction, `_upward_flags`, builds these filtrations from the computed
maps and, in `validate_against_representation`, from the model maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

from .liealg import weyl_dimension
from .linalg import (ExactMatrix, characteristic_polynomial, rank,
                     rank_and_kernel, row_basis)
from .replab import (Irrep, multiplicity_slices, omega_operator,
                     pf_slice_maps, theta_transport, _restrict_to_slices)
from .scalars import rat


@dataclass(frozen=True)
class GTMolevTableau:
    lam1: Fraction
    lam2: Fraction
    sigma: int
    l21: Fraction
    l22: Fraction
    lam11: Fraction
    sigma1: int
    l11: Fraction


def _grid(lo, hi):
    """Values lo, lo+1, ..., <= hi (the weight grid between two bounds)."""
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v = v + 1
    return out


def enumerate_tableaux(lam1, lam2):
    """All patterns for highest weight (lam1, lam2); count = Weyl dimension.

    The o3-weight lam11 is constrained only through the interlacing
    l21 >= lam11 >= l22 (a direct chain lam1 >= lam11 >= lam2 would
    undercount: the adjoint's T = 0 singlet needs lam11 > lam1; the
    dimension-count oracle pins the correct constraint set).
    """
    lam1, lam2 = rat(lam1), rat(lam2)
    weyl_dimension(lam1, lam2)  # validates the weight
    out = []
    for lam11 in _grid(lam2, Fraction(0)):
        for l21 in _grid(lam1, Fraction(0)):
            for l22 in _grid(lam2, lam1):
                if not (l21 >= lam11 >= l22):
                    continue
                for sigma in (0, 1):
                    if sigma == 1 and l21 == 0:
                        continue
                    for l11 in _grid(lam11, Fraction(0)):
                        for sigma1 in (0, 1):
                            if sigma1 == 1 and l11 == 0:
                                continue
                            out.append(GTMolevTableau(
                                lam1, lam2, sigma, l21, l22,
                                lam11, sigma1, l11))
    return out


def quantum_numbers(t: GTMolevTableau):
    """(T, tau0, N) of a tableau, by the three defining formulas."""
    T = t.lam11
    tau0 = -t.l11 if t.sigma1 else t.l11
    N = t.sigma + 2 * (t.l21 + t.l22) - (t.lam1 + t.lam2) - t.lam11
    return T, tau0, N


# -- rectangle / line geometry -----------------------------------------


class Rectangle:
    """Second-row geometry for fixed highest weight and T = lam11."""

    def __init__(self, lam1, lam2, T):
        self.lam1, self.lam2, self.T = rat(lam1), rat(lam2), rat(T)
        if not (0 >= self.T >= self.lam2):
            raise ValueError(f"T={T} incompatible with ({lam1},{lam2})")
        self.xs = _grid(max(self.lam1, self.T), Fraction(0))  # l21 values
        self.ys = _grid(self.lam2, min(self.lam1, self.T))    # l22 values
        self.offset = self.lam1 + self.lam2 + self.T  # N = sigma + 2K - offset

    def shape(self) -> str:
        if len(self.xs) == len(self.ys):
            return "square"
        return "narrow" if len(self.xs) > len(self.ys) else "wide"

    def contains(self, pt) -> bool:
        x, y = pt
        return self.xs[0] <= x <= self.xs[-1] and self.ys[0] <= y <= self.ys[-1]

    def slice_points(self, N):
        """(sigma, K, points) of the N-slice, or None when empty.

        Points are ordered "lower point" (largest l21) first.  sigma
        is forced by the parity of N + offset; sigma = 1 excludes points
        with l21 = 0.
        """
        N = rat(N)
        for sigma in (0, 1):
            two_k = N + self.offset - sigma
            if two_k.denominator != 1 or int(two_k) % 2:
                continue
            K = two_k / 2
            pts = [(x, K - x) for x in reversed(self.xs)
                   if self.contains((x, K - x))
                   and not (sigma == 1 and x == 0)]
            if pts:
                return sigma, K, pts
        return None

def case_of(lam1, lam2, T, N):
    """(case tag A|B|C|D, sigma) for the (T, N) slice.

    Narrow/wide comes from the rectangle sides; A/C mean the N-line cuts
    a corner (both corner-adjacent side constraints bind), B/D that it
    spans the middle.  Degenerate single-point lines count as corner.
    """
    rect = Rectangle(lam1, lam2, T)
    info = rect.slice_points(N)
    if info is None:
        raise ValueError(f"empty slice (T={T}, N={N})")
    sigma, K, pts = info
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    if rat(N) <= 0:
        corner = (xlo == rect.xs[0]) and (K - xhi == rect.ys[0])
    else:
        corner = (xhi == rect.xs[-1]) and (K - xlo == rect.ys[-1])
    shape = rect.shape()
    narrow = shape in ("narrow", "square")
    tag = ("A" if corner else "B") if narrow else ("C" if corner else "D")
    return tag, sigma


# -- the raising-action model -------------------------------------------

GAMMA_CONVENTIONS = ("definition", "proof-text")


def gammas(l21, l22, convention: str):
    """The two gamma parameters of a second-row point.

    definition: gamma_i = l2i + rho_i + 1/2 with rho = (1/2, 3/2);
    proof-text: gamma_1 = l21, gamma_2 = l22 - 1.
    """
    if convention == "definition":
        return l21 + 1, l22 + 2
    if convention == "proof-text":
        return l21, l22 - 1
    raise ValueError(f"unknown gamma convention {convention!r}")


class ModelMatrix:
    """Predicted slice-to-slice matrix of PfF_{2-hat} in tableau order."""

    def __init__(self, matrix, source_pts, target_pts, sigma, singular_points):
        self.matrix = matrix  # None when a coefficient is singular
        self.source_pts = source_pts
        self.target_pts = target_pts
        self.sigma = sigma
        self.singular_points = singular_points
        self.rank = self.nullity = None
        if matrix is not None:
            self.rank = rank(matrix)
            self.nullity = len(source_pts) - self.rank


def predicted_slice_matrix(lam1, lam2, T, N,
                           convention: str | None) -> ModelMatrix:
    """Model of PfF_{2-hat}: V+_{T,N} -> V+_{T,N+1} in tableau coordinates.

    sigma = 0 rows act as the identity on surviving points; sigma = 1
    rows act bidiagonally with coefficients c_1 = -g2^2/(g1^2 - g2^2) on
    l21+1 and c_2 = -g1^2/(g2^2 - g1^2) on l22+1.  Points leaving the
    rectangle (or hitting the sigma-excluded edge) are replaced by zero.
    Vanishing gamma denominators are reported as singular points.

    convention=None gives the gamma-free skeleton, every coefficient 1.
    For subset-identity and two-diagonal staircase patterns the rank of
    the all-ones filling equals the generic rank (no competing
    permutation paths), so the skeleton is the case-pattern rank
    prediction of the A-D analysis.
    """
    rect = Rectangle(lam1, lam2, T)
    src = rect.slice_points(N)
    if src is None:
        raise ValueError(f"empty source slice (T={T}, N={N})")
    sigma, K, pts = src
    tgt = rect.slice_points(rat(N) + 1)
    tpts = tgt[2] if tgt is not None else []
    tpos = {p: i for i, p in enumerate(tpts)}
    singular = []
    m = ExactMatrix(len(tpts), len(pts))
    for j, (x, y) in enumerate(pts):
        if sigma == 0:
            coeffs = {(x, y): Fraction(1)}
        elif convention is None:
            coeffs = {(x + 1, y): Fraction(1), (x, y + 1): Fraction(1)}
        else:
            g1, g2 = gammas(x, y, convention)
            d = g1 * g1 - g2 * g2
            if not d:
                singular.append((x, y))
                continue
            coeffs = {(x + 1, y): -g2 * g2 / d, (x, y + 1): g1 * g1 / d}
        for q, c in coeffs.items():
            if q in tpos:
                m.data[tpos[q]][j] = c
    return ModelMatrix(None if singular else m, pts, tpts, sigma, singular)


# -- flags and the fourth quantum number ---------------------------------


class Flag:
    """Decreasing filtration U_0 >= U_1 >= ... of a slice, in slice coords.

    levels[m] is the RREF basis (nonzero rows, dense coordinate vectors
    of length slice.dim) of U_m, so equal subspaces have equal levels;
    levels[0] is the full space.
    """

    def __init__(self, dim: int, levels=None):
        self.dim = dim
        if levels is None:
            levels = [ExactMatrix.identity(dim).data]
        self.levels = levels
        self._strip()

    def _strip(self):
        while len(self.levels) > 1 and not self.levels[-1]:
            self.levels.pop()

    def depth(self):
        return len(self.levels)

    def level_dim(self, m):
        return len(self.levels[m]) if m < len(self.levels) else 0

    def stratum_dims(self):
        out = []
        for m in range(self.depth()):
            nxt = self.level_dim(m + 1)
            out.append(self.level_dim(m) - nxt)
        return out

    def contains_all(self, m, vectors) -> bool:
        """Whether every vector lies in U_m (U_m = 0 beyond the depth):
        the level's rows are independent, so the vectors must add no rank."""
        level = self.levels[m] if m < self.depth() else []
        return rank(ExactMatrix.from_rows(level + vectors)) == len(level)


def _push_flag(flag: Flag, matrix: ExactMatrix, target_dim: int) -> Flag:
    """Image flag: levels'[0] = full target, levels'[m+1] = M(levels[m])."""
    return Flag(target_dim, [ExactMatrix.identity(target_dim).data]
                + _map_flag(flag, matrix, target_dim).levels)


def _map_flag(flag: Flag, matrix: ExactMatrix, target_dim: int) -> Flag:
    """Transport a flag through an isomorphism (no prefixed full level)."""
    return Flag(target_dim, [row_basis([matrix.apply(v) for v in lvl],
                                       target_dim)
                             for lvl in flag.levels])


def _upward_flags(ns, maps, dims) -> dict:
    """Image flags of the N <= 0 slices of one T, induced upwards.

    A slice with no slice at N - 1 carries the trivial flag; any other
    carries the push of the flag at N - 1 through maps[N - 1] (the
    raising map V_{N-1} -> V_N).  dims[N] is the dimension of slice N.
    """
    flags = {}
    for N in ns:
        if N <= 0:
            flags[N] = (_push_flag(flags[N - 1], maps[N - 1], dims[N])
                        if N - 1 in flags else Flag(dims[N]))
    return flags


class ClassifiedState:
    __slots__ = ("T", "tau0", "N", "k", "slice_dim", "case", "sigma")

    def __init__(self, T, tau0, N, k, slice_dim, case, sigma):
        self.T, self.tau0, self.N, self.k = T, tau0, N, k
        self.slice_dim, self.case, self.sigma = slice_dim, case, sigma

    def label(self):
        return (self.T, self.tau0, self.N, self.k)


class ClassificationError(AssertionError):
    """The computed maps contradict the expected classification pattern."""


def _raising_violation(source_flag: Flag, matrix: ExactMatrix,
                       target_flag: Flag):
    """First level m whose image misses target level m+1, else None."""
    for m in range(source_flag.depth()):
        images = [matrix.apply(v) for v in source_flag.levels[m]]
        if not target_flag.contains_all(m + 1, images):
            return m
    return None


def assign_k(irrep: Irrep):
    """The fourth quantum number on an irrep, from the actual slice maps.

    Filtration levels for N <= 0 come from the upward induction (images
    of composed PfF_{2-hat} maps starting at N_min); levels for N > 0
    are the reflection transports of the mirror slices, which coincide
    with the downward PfF_{-2-hat} induction from N_max.

    Returns (states, data): one ClassifiedState per basis state, plus
    the per-(T,N) flags/maps and an `anomalies` list.  The classical
    claim that the two N = 0 assignments coincide is checked as flag
    equality and recorded as an anomaly when it fails (the reflection
    restricted to a multiplicity slice at N = 0 need not be scalar: on
    the (-1,-2) irrep it has eigenvalues +1 and -1, so the two
    filtrations genuinely differ).  Their k-multisets always agree:
    since Omega PfF_{-2-hat} = -PfF_{2-hat} Omega, the bijection theta
    carries the from-below PfF_{2-hat} filtration of the N = 0 slice
    onto the from-above PfF_{-2-hat} one, level by level, so the level
    dimensions coincide and only the subspaces can differ.
    Hard contradictions of the classification pattern (label collisions,
    non-transverse kernels, broken raising) raise ClassificationError.
    """
    lam1, lam2 = irrep.highest_weight
    slices = multiplicity_slices(irrep)
    omega = omega_operator(irrep)
    states = []
    data = {"flags": {}, "ups": {}, "downs": {}, "theta": {}, "anomalies": []}
    Ts = sorted({t for (t, _) in slices})
    # theta(T) = e^{-2T} Omega, built from the theta of the T above
    thetas = {0: omega}
    for hi, T in pairwise([0] + Ts[::-1]):
        thetas[T] = theta_transport(irrep, thetas[hi], T - hi)
    for T in Ts:
        mine = {N: s for (t, N), s in slices.items() if t == T}
        ups, downs = pf_slice_maps(irrep, T)
        data["ups"].update({(T, N): m for N, m in ups.items()})
        data["downs"].update({(T, N): m for N, m in downs.items()})
        ns = sorted(mine)
        flags = _upward_flags(ns, {N: u.matrix for N, u in ups.items()},
                              {N: s.dim for N, s in mine.items()})
        # reflection transport for N > 0
        theta = thetas[T]
        for N in ns:
            if N <= 0:
                continue
            if -N not in mine:
                raise ClassificationError(
                    f"slice (T={T},N={N}) has no mirror at -N")
            tmap = _restrict_to_slices(theta, mine[-N], mine[N])
            data["theta"][(T, N)] = tmap
            if tmap.rank != mine[N].dim or mine[-N].dim != mine[N].dim:
                raise ClassificationError(
                    f"theta transport not bijective at (T={T},N={N})")
            flags[N] = _map_flag(flags[-N], tmap.matrix, mine[N].dim)
        # N = 0: compare the from-below flag with its reflection image
        seam_flag = None
        if 0 in mine:
            tmap = _restrict_to_slices(theta, mine[0], mine[0])
            data["theta"][(T, 0)] = tmap
            seam_flag = _map_flag(flags[0], tmap.matrix, mine[0].dim)
            # levels are RREF bases, so equal flags have equal levels
            if flags[0].levels != seam_flag.levels:
                below = [flags[0].level_dim(m) for m in range(flags[0].depth())]
                data["anomalies"].append({
                    "kind": "n0-two-sided-disagreement",
                    "T": T,
                    "level_dims": below,
                })
        data["flags"].update({(T, N): f for N, f in flags.items()})
        # raising property at filtration level (PfF_{2-hat} out of N < 0).
        # Steps that stay at N+1 <= 0 must hold (hard); steps crossing
        # into N+1 > 0 land in reflection-transported flags and inherit
        # the two-sided subtlety, so violations there are recorded.
        for N in ns:
            if N >= 0 or (N + 1) not in mine:
                continue
            bad = _raising_violation(flags[N], ups[N].matrix, flags[N + 1])
            if bad is not None:
                if N + 1 > 0:
                    data["anomalies"].append(
                        {"kind": "seam-raising-up", "T": T, "N": N,
                         "level": bad})
                else:
                    raise ClassificationError(
                        f"raising property fails at (T={T},N={N}) "
                        f"level {bad}")
        # mirrored property (PfF_{-2-hat} out of N > 0).  Landing at
        # N-1 >= 1 or at the reflected N = 0 flag is the conjugate of an
        # upward step (hard); crossing to N-1 < 0 hits from-below flags
        # and is recorded like the seam above.
        for N in ns:
            if N <= 0 or (N - 1) not in mine:
                continue
            if N - 1 == 0:
                target_flag = seam_flag
            else:
                target_flag = flags[N - 1]
            bad = _raising_violation(flags[N], downs[N].matrix, target_flag)
            if bad is not None:
                if N - 1 < 0:
                    data["anomalies"].append(
                        {"kind": "seam-raising-down", "T": T, "N": N,
                         "level": bad})
                else:
                    raise ClassificationError(
                        f"mirrored raising property fails at "
                        f"(T={T},N={N}) level {bad}")
        # kernel transversality (case D sigma=0 bookkeeping)
        for N in ns:
            if N <= 0 and flags[N].depth() > 1 and _meet_dim(
                    ups[N].kernel(), flags[N].levels[1], flags[N].dim):
                raise ClassificationError(
                    f"kernel of the raising map meets the image "
                    f"filtration at (T={T},N={N})")
        # emit labels
        for N in ns:
            f = flags[N]
            dims = f.stratum_dims()
            if any(d > 1 for d in dims):
                raise ClassificationError(
                    f"stratum of dimension > 1 at (T={T},N={N}): labels "
                    "would collide")
            tag, sigma = case_of(lam1, lam2, T, N)
            for m, d in enumerate(dims):
                if d == 0:
                    continue
                for tau0 in _grid(T, -T):
                    states.append(ClassifiedState(
                        T, tau0, N, m, mine[N].dim, tag, sigma))
    labels = [s.label() for s in states]
    if len(labels) != len(set(labels)):
        raise ClassificationError("duplicate (T,tau0,N,k) labels")
    if len(labels) != irrep.dim:
        raise ClassificationError(
            f"label count {len(labels)} != irrep dimension {irrep.dim}")
    return states, data


# -- model-vs-representation validation ----------------------------------


def _meet_dim(a, b, dim: int) -> int:
    """dim(span a intersect span b) for two independent lists of dense
    vectors, as dim(A) + dim(B) - dim(A+B)."""
    if not a or not b:
        return 0
    return len(a) + len(b) - rank(ExactMatrix(len(a) + len(b), dim, a + b))


def _kernel_level_dims(kernel_basis, flag: Flag):
    """dim(ker intersect U_m) for each flag level (invariant integers)."""
    return [len(kernel_basis)] + [_meet_dim(kernel_basis, flag.levels[m],
                                            flag.dim)
                                  for m in range(1, flag.depth())]


def validate_against_representation(irrep: Irrep):
    """Compare tableau-model predictions with the computed slice maps.

    Per (T, N): slice dimension vs tableau point count; rank/nullity and
    kernel flag-position of the actual raising map vs both gamma-model
    matrices and vs the A-D case pattern (via the gamma-free skeleton,
    checked on the upward maps for N < 0 and the mirrored downward maps
    for N > 0); two-step composed kernels; the round-trip endomorphism
    characteristic polynomials are recorded as probe data.  Returns a
    report dict; 'gamma_winner' names the convention consistent with
    all measured data (or 'tie'/'none').
    """
    lam1, lam2 = irrep.highest_weight
    states, data = assign_k(irrep)
    slices = multiplicity_slices(irrep)
    # every model map once: each gamma convention on every slice, and the
    # skeleton (None) on N < 0, where it also serves the mirrored N > 0
    models = {(T, N, conv): predicted_slice_matrix(lam1, lam2, T, N, conv)
              for (T, N) in slices
              for conv in GAMMA_CONVENTIONS + ((None,) if N < 0 else ())}
    report = {"slices": [], "gamma_mismatches": {c: [] for c in GAMMA_CONVENTIONS},
              "case_mismatches": [], "roundtrip_charpolys": {},
              "states": states, "anomalies": data["anomalies"]}
    roundtrip = irrep.pf_matrix(-1) @ irrep.pf_matrix(+1)
    for (T, N), s in sorted(slices.items()):
        pts = models[T, N, GAMMA_CONVENTIONS[0]].source_pts
        row = {"T": T, "N": N, "dim": s.dim, "model_dim": len(pts)}
        if s.dim != len(pts):
            row["dim_mismatch"] = True
        tag, sigma = case_of(lam1, lam2, T, N)
        row["case"], row["sigma"] = tag, sigma
        up = data["ups"][(T, N)]
        row["rank"], row["nullity"] = up.rank, up.nullity
        # A-D case pattern: up-steps out of N < 0, mirrored down-steps
        # out of N > 0 (sharing the mirror slice's structure)
        if N:
            skel = models[T, -abs(N), None]
            step = up if N < 0 else data["downs"][(T, N)]
            if (step.rank, step.nullity) != (skel.rank, skel.nullity):
                report["case_mismatches"].append(
                    {"T": T, "N": N, "case": tag, "sigma": sigma,
                     "direction": "up" if N < 0 else "down",
                     "expected": (skel.rank, skel.nullity),
                     "actual": (step.rank, step.nullity)})
        for conv in GAMMA_CONVENTIONS:
            model = models[T, N, conv]
            entry = {"T": T, "N": N}
            if model.matrix is None:
                entry["singular"] = [tuple(map(str, p))
                                     for p in model.singular_points]
                report["gamma_mismatches"][conv].append(entry)
                continue
            if model.rank != up.rank or model.nullity != up.nullity:
                entry["model_rank"] = (model.rank, model.nullity)
                entry["actual_rank"] = (up.rank, up.nullity)
                report["gamma_mismatches"][conv].append(entry)
                continue
            # two-step composition from sigma=0 starts
            if sigma == 0 and (T, N + 1) in data["ups"]:
                nmodel = models[T, N + 1, conv]
                if nmodel.matrix is None:
                    entry["singular_step2"] = [tuple(map(str, p))
                                               for p in nmodel.singular_points]
                    report["gamma_mismatches"][conv].append(entry)
                    continue
                comp_actual = data["ups"][(T, N + 1)].matrix @ up.matrix
                comp_model = nmodel.matrix @ model.matrix
                ra, rm = rank(comp_actual), rank(comp_model)
                if (ra, comp_actual.cols - ra) != (rm, comp_model.cols - rm):
                    entry["compose_rank"] = {"actual": ra, "model": rm}
                    report["gamma_mismatches"][conv].append(entry)
        # round-trip endomorphism spectra (probe content)
        rt = _restrict_to_slices(roundtrip, s, s)
        report["roundtrip_charpolys"][(T, N)] = characteristic_polynomial(rt.matrix)
        report["slices"].append(row)
    # flag-level comparison: push the model maps into their own image
    # filtrations and compare level dimensions and kernel positions with
    # the computed ones (all basis-independent integers)
    for T in sorted({t for (t, _) in slices}):
        ns = sorted(N for (t, N) in slices if t == T)
        for conv in GAMMA_CONVENTIONS:
            ladder = {N: models[T, N, conv] for N in ns}
            if any(mm.matrix is None for mm in ladder.values()):
                continue  # already recorded as a mismatch entry
            mflags = _upward_flags(
                ns, {N: mm.matrix for N, mm in ladder.items()},
                {N: len(mm.source_pts) for N, mm in ladder.items()})
            for N, mflag in mflags.items():
                actual_flag = data["flags"][(T, N)]
                a_dims = [actual_flag.level_dim(m)
                          for m in range(actual_flag.depth())]
                m_dims = [mflag.level_dim(m) for m in range(mflag.depth())]
                entry = {"T": T, "N": N}
                if a_dims != m_dims:
                    entry["flag_dims"] = {"actual": a_dims, "model": m_dims}
                    report["gamma_mismatches"][conv].append(entry)
                    continue
                a_ker = data["ups"][(T, N)].kernel()
                m_ker = rank_and_kernel(ladder[N].matrix)[1]
                a_pos = _kernel_level_dims(a_ker, actual_flag)
                m_pos = _kernel_level_dims(m_ker, mflag)
                if a_pos != m_pos:
                    entry["kernel_position"] = {"actual": a_pos, "model": m_pos}
                    report["gamma_mismatches"][conv].append(entry)
    survivors = [c for c in GAMMA_CONVENTIONS if not report["gamma_mismatches"][c]]
    if len(survivors) == 1:
        report["gamma_winner"] = survivors[0]
    elif survivors:
        report["gamma_winner"] = "tie"
    else:
        report["gamma_winner"] = "none"
    return report
