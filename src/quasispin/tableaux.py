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
case pattern.  Coordinates, labels and model coefficients follow the
scalar rule of `scalars.exact`: an int when integral, a Fraction
otherwise (never a float, so `/` is never applied to two ints).
Everything the model claims about actual representations is compared
through basis-independent data only, never through matrix
entries in an uncomputable basis: per T, the barcode of the chain of
PfF_{2-hat} slice maps against that of each gamma model's chain, the
skeleton's barcode against those of both computed chains (the
PfF_{2-hat} chain, and the PfF_{-2-hat} chain read with N -> -N), and
the characteristic polynomials of the round-trip endomorphisms.  Model
maps and slice maps alike are sparse columns {source position: {target
position: x}}; every rank and flag level is the length or the rows of
one `linalg.rref_rows`.

`assign_k` builds the fourth quantum number as an image filtration over
the computed Pfaffian slice maps: states at level k of V+_{T,N} are
those in the image of the k-fold composed PfF_{2-hat} map from below
for N <= 0, and of the k-fold composed PfF_{-2-hat} map from above for
N > 0 (at N = 0 both are built and compared).  One induction,
`_induced_flags`, builds these filtrations in either direction from the
computed maps and upwards from the model maps.  The up-flags hold the
rank of every composed map, and so the chain's barcode: its interval
decomposition as a representation of a type-A quiver (Gabriel), in
which a state at level k of V+_{T,N}, N <= 0, lies in an interval born
at N - k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .liealg import weyl_dimension
from .linalg import LinOp, characteristic_polynomial, rref_rows, svec_map
from .replab import Irrep, multiplicity_slices, pf_slice_maps
from .scalars import exact

HALF = Fraction(1, 2)


GTMolevTableau = namedtuple(
    "GTMolevTableau", "lam1 lam2 sigma l21 l22 lam11 sigma1 l11")


def _grid(lo, hi):
    """Values lo, lo+1, ..., <= hi (the weight grid between two bounds),
    ints when lo is integral."""
    lo = exact(lo)
    return [lo + i for i in range(math.floor(hi - lo) + 1)]


def enumerate_tableaux(lam1, lam2):
    """All patterns for highest weight (lam1, lam2); count = Weyl dimension.

    The o3-weight lam11 is constrained only through the interlacing
    l21 >= lam11 >= l22 (a direct chain lam1 >= lam11 >= lam2 would
    undercount: the adjoint's T = 0 singlet needs lam11 > lam1; the
    dimension-count oracle pins the correct constraint set).
    """
    lam1, lam2 = exact(lam1), exact(lam2)
    weyl_dimension(lam1, lam2)  # validates the weight
    out = []
    for lam11 in _grid(lam2, 0):
        for l21 in _grid(lam1, 0):
            for l22 in _grid(lam2, lam1):
                if not (l21 >= lam11 >= l22):
                    continue
                for sigma in (0, 1):
                    if sigma == 1 and l21 == 0:
                        continue
                    for l11 in _grid(lam11, 0):
                        for sigma1 in (0, 1):
                            if sigma1 == 1 and l11 == 0:
                                continue
                            out.append(GTMolevTableau(
                                lam1, lam2, sigma, l21, l22,
                                lam11, sigma1, l11))
    return out


# -- rectangle / line geometry -----------------------------------------


class Rectangle:
    """Second-row geometry for fixed highest weight and T = lam11."""

    def __init__(self, lam1, lam2, T):
        self.lam1, self.lam2, self.T = exact(lam1), exact(lam2), exact(T)
        if not (0 >= self.T >= self.lam2):
            raise ValueError(f"T={T} incompatible with ({lam1},{lam2})")
        self.xs = _grid(max(self.lam1, self.T), 0)          # l21 values
        self.ys = _grid(self.lam2, min(self.lam1, self.T))  # l22 values
        # N = sigma + 2K - offset
        self.offset = exact(self.lam1 + self.lam2 + self.T)

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
        N = exact(N)
        for sigma in (0, 1):
            two_k = exact(N + self.offset - sigma)
            if type(two_k) is not int or two_k % 2:
                continue
            K = two_k // 2
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
    if exact(N) <= 0:
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


# Predicted slice-to-slice map of PfF_{2-hat} in tableau order, as
# sparse columns {source point position: {target point position: x}}
# (None when a coefficient is singular), between the point lists of its
# two slices.
ModelMatrix = namedtuple(
    "ModelMatrix", "cols source_pts target_pts sigma singular_points")


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
    permutation paths), so the skeleton's chain over a ladder is the
    case-pattern prediction of the A-D analysis: its barcode fixes the
    rank of every step and of every composed map.
    """
    rect = Rectangle(lam1, lam2, T)
    src = rect.slice_points(N)
    if src is None:
        raise ValueError(f"empty source slice (T={T}, N={N})")
    sigma, K, pts = src
    tgt = rect.slice_points(exact(N) + 1)
    tpts = tgt[2] if tgt is not None else []
    tpos = {p: i for i, p in enumerate(tpts)}
    singular = []
    cols = {}
    for j, (x, y) in enumerate(pts):
        if sigma == 0:
            coeffs = {(x, y): 1}
        elif convention is None:
            coeffs = {(x + 1, y): 1, (x, y + 1): 1}
        else:
            g1, g2 = gammas(x, y, convention)
            d = g1 * g1 - g2 * g2
            if not d:
                singular.append((x, y))
                continue
            coeffs = {(x + 1, y): exact(Fraction(-g2 * g2) / d),
                      (x, y + 1): exact(Fraction(g1 * g1) / d)}
        col = {tpos[q]: c for q, c in coeffs.items() if q in tpos and c}
        if col:
            cols[j] = col
    return ModelMatrix(None if singular else cols, pts, tpts, sigma, singular)


# -- flags and the fourth quantum number ---------------------------------


class Flag:
    """Decreasing filtration U_0 >= U_1 >= ... of a slice, in slice coords.

    levels[m] is the RREF basis of U_m, the sparse rows that `rref_rows`
    returns over the slice positions, so equal subspaces have equal
    levels; levels[0] is the full space.
    """

    def __init__(self, levels):
        self.levels = levels
        self._strip()

    def _strip(self):
        while len(self.levels) > 1 and not self.levels[-1]:
            self.levels.pop()

    def depth(self):
        return len(self.levels)

    def level_dims(self):
        return [len(level) for level in self.levels]

    def stratum_dims(self):
        dims = self.level_dims() + [0]
        return [a - b for a, b in zip(dims, dims[1:])]

    def contains_all(self, m, vectors) -> bool:
        """Whether every vector lies in U_m (U_m = 0 beyond the depth):
        the level's rows are independent, so the vectors must add no rank."""
        level = self.levels[m] if m < self.depth() else []
        return len(rref_rows(level + vectors)) == len(level)


def _full(dim: int):
    """The RREF basis of the whole of a dim-dimensional slice."""
    return [{i: 1} for i in range(dim)]


def _push_flag(flag: Flag, cols: dict, target_dim: int) -> Flag:
    """Image flag: levels'[0] = full target, levels'[m+1] = M(levels[m])."""
    return Flag([_full(target_dim)]
                + [rref_rows(svec_map(cols, v) for v in lvl)
                   for lvl in flag.levels])


def _induced_flags(ns, maps, dims, step=1) -> dict:
    """Image flags of one T's slices, induced along the whole ladder from
    one end.

    step = +1 induces upwards, maps[N] being the PfF_{2-hat} map (or a
    model of it) V_N -> V_{N+1}; step = -1 induces downwards, maps[N]
    being the PfF_{-2-hat} map V_N -> V_{N-1}.  A slice with no slice at
    N - step carries the trivial flag; any other carries the push of the
    flag at N - step through maps[N - step].  dims[N] is the dimension
    of slice N.  Level m of the up-flag at b is the image of the composed
    map out of V_{b-m}, so its dimension is the rank r(b - m, b) that
    `barcode` reads.
    """
    flags = {}
    for N in ns[::step]:
        prev = N - step
        flags[N] = (_push_flag(flags[prev], maps[prev], dims[N])
                    if prev in flags else Flag([_full(dims[N])]))
    return flags


def barcode(ns, flags) -> dict:
    """The interval decomposition {(a, b): multiplicity} of one T's chain.

    A chain of maps V_a -> V_{a+1} -> ... is a representation of a type-A
    quiver, so by Gabriel's theorem it is, up to isomorphism, a direct
    sum of interval modules [a, b] (its persistence barcode).  The ranks
    r(a, b) of the composed maps, read from the chain's up-flags `flags`
    (`_induced_flags`), fix the multiplicities:
    mult[a, b] = r(a, b) - r(a-1, b) - r(a, b+1) + r(a-1, b+1).
    r(a, b) is level b - a of the up-flag at b, 0 off the ladder or
    beyond the flag's depth; the ladder is read in integer steps from
    its lowest N.
    """
    lo = ns[0]
    dims = {int(b - lo): flags[b].level_dims() for b in ns}

    def r(a, b):
        d = dims.get(b, ())
        return d[b - a] if b - a < len(d) else 0

    return {(lo + a, lo + b): mult for b in dims for a in dims if a <= b
            if (mult := r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1))}


class ClassifiedState:
    __slots__ = ("T", "tau0", "N", "k", "slice_dim", "case", "sigma")

    def __init__(self, T, tau0, N, k, slice_dim, case, sigma):
        self.T, self.tau0, self.N, self.k = T, tau0, N, k
        self.slice_dim, self.case, self.sigma = slice_dim, case, sigma

    def label(self):
        return (self.T, self.tau0, self.N, self.k)


class ClassificationError(AssertionError):
    """The computed maps contradict the expected classification pattern."""


def _raising_violation(source_flag: Flag, cols: dict, target_flag: Flag):
    """First level m whose image misses target level m+1, else None."""
    for m in range(source_flag.depth()):
        images = [svec_map(cols, v) for v in source_flag.levels[m]]
        if not target_flag.contains_all(m + 1, images):
            return m
    return None


def assign_k(irrep: Irrep):
    """The fourth quantum number on an irrep, from the actual slice maps.

    Filtration levels come from the two Pfaffian inductions: for N <= 0
    from below (images of composed PfF_{2-hat} maps starting at N_min),
    for N > 0 from above (images of composed PfF_{-2-hat} maps starting
    at N_max).  The from-above flags are the reflection transports of
    their mirrors at -N: theta = e^{2|T|} Omega maps V+_{T,-N} onto
    V+_{T,N}, e commutes with both Pfaffians, and omega^2 = 1 turns
    Omega PfF_{-2-hat} = -PfF_{2-hat} Omega into Omega PfF_{2-hat} =
    -PfF_{-2-hat} Omega, so theta carries the image of each composed
    PfF_{2-hat} chain ending at -N onto the image of the PfF_{-2-hat}
    chain of the same length ending at N.  Hence each N > 0 flag has
    the level dimensions of its mirror, and ClassificationError is
    raised where it has not.

    Returns (states, data): one ClassifiedState per basis state, plus
    the per-(T,N) flags/maps, the two barcodes of each T
    (data["barcodes"][T]["up"] of the PfF_{2-hat} chain, read from the
    from-below flags, and ["down"] of the PfF_{-2-hat} chain read with
    N -> -N, read from the from-above flags; theta makes the mirrored
    down chain an up chain, so both compare with one model chain) and
    an `anomalies` list.  The classical
    claim that the two N = 0 assignments coincide is checked as flag
    equality and recorded as an anomaly when it fails (theta restricted
    to a multiplicity slice at N = 0 need not be scalar: on the (-1,-2)
    irrep it has eigenvalues +1 and -1, so the two filtrations genuinely
    differ); their level dimensions, and so the k-multisets, always
    agree.  Every Pfaffian step inside one sign region of N is a push of
    its own induction; the steps across the half-integral seam
    N = -1/2 <-> +1/2 land in the other induction's flags and are
    recorded as anomalies where they break the raising property.
    Hard contradictions of the classification pattern (a mirror missing
    or of other level dimensions, label collisions, a raising kernel
    meeting the image U_1 at N <= 0, read off the up barcode)
    raise ClassificationError.
    """
    lam1, lam2 = irrep.highest_weight
    slices = multiplicity_slices(irrep)
    states = []
    data = {"flags": {}, "ups": {}, "downs": {}, "barcodes": {},
            "anomalies": []}
    for T in sorted({t for (t, _) in slices}):
        mine = {N: basis for (t, N), basis in slices.items() if t == T}
        ups, downs = pf_slice_maps(irrep, T)
        data["ups"].update({(T, N): m for N, m in ups.items()})
        data["downs"].update({(T, N): m for N, m in downs.items()})
        ns = sorted(mine)
        dims = {N: len(basis) for N, basis in mine.items()}
        below = _induced_flags(ns, ups, dims)
        above = _induced_flags(ns, downs, dims, -1)
        flags = {N: below[N] if N <= 0 else above[N] for N in ns}
        for N in ns:
            if N > 0 and (-N not in mine or flags[N].level_dims()
                          != flags[-N].level_dims()):
                raise ClassificationError(
                    f"slice (T={T},N={N}) has no mirror at -N with the "
                    "same flag level dimensions")
        # N = 0: levels are RREF bases, so equal flags have equal levels
        if 0 in mine and below[0].levels != above[0].levels:
            data["anomalies"].append({
                "kind": "n0-two-sided-disagreement",
                "T": T,
                "level_dims": below[0].level_dims(),
            })
        data["flags"].update({(T, N): f for N, f in flags.items()})
        data["barcodes"][T] = {
            "up": barcode(ns, below),
            "down": barcode([-N for N in ns[::-1]],
                            {-N: f for N, f in above.items()})}
        # raising property across the seam: PfF_{2-hat} out of N = -1/2
        # and PfF_{-2-hat} out of N = +1/2 each land in the other
        # induction's flag
        if -HALF in mine and HALF in mine:
            for kind, N, maps in (("seam-raising-up", -HALF, ups),
                                  ("seam-raising-down", HALF, downs)):
                bad = _raising_violation(flags[N], maps[N], flags[-N])
                if bad is not None:
                    data["anomalies"].append(
                        {"kind": kind, "T": T, "N": N, "level": bad})
        # kernel transversality (case D sigma=0 bookkeeping), read off
        # the up barcode: dim(ker(N -> N+1) meet U_1) = r(N-1, N) -
        # r(N-1, N+1) counts the intervals [a, N] with a < N
        ends = sorted(b for a, b in data["barcodes"][T]["up"] if a < b <= 0)
        if ends:
            raise ClassificationError(
                f"kernel of the raising map meets the image "
                f"filtration at (T={T},N={ends[0]})")
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
                        T, tau0, N, m, len(mine[N]), tag, sigma))
    labels = [s.label() for s in states]
    if len(labels) != len(set(labels)):
        raise ClassificationError("duplicate (T,tau0,N,k) labels")
    if len(labels) != irrep.dim:
        raise ClassificationError(
            f"label count {len(labels)} != irrep dimension {irrep.dim}")
    return states, data


# -- model-vs-representation validation ----------------------------------


def validate_against_representation(irrep: Irrep):
    """Compare tableau-model predictions with the computed slice maps.

    Per T, one barcode comparison per model: each model chain is built
    by `predicted_slice_matrix` on every N of the ladder and its barcode
    read from `_induced_flags`, so the model is compared through the
    dimension of every slice and the rank of every composed map.  The
    gamma-free skeleton (the A-D case pattern) is compared with both
    computed chains of `assign_k`, one 'case_mismatches' entry per
    differing direction; each gamma model with the up-chain, one
    'gamma_mismatches' entry per differing T, and a model singular
    anywhere on the ladder is one mismatch, with its singular points.
    The round-trip endomorphism characteristic polynomials are recorded
    per (T, N) as probe data.  Returns a report dict; 'gamma_winner'
    names the convention consistent with all measured data (or
    'tie'/'none').
    """
    lam1, lam2 = irrep.highest_weight
    states, data = assign_k(irrep)
    slices = multiplicity_slices(irrep)
    report = {"gamma_mismatches": {c: [] for c in GAMMA_CONVENTIONS},
              "case_mismatches": [], "roundtrip_charpolys": {},
              "states": states, "anomalies": data["anomalies"]}
    # round-trip endomorphism spectra (probe content): the down map out
    # of N + 1 after the up map, zero when there is no slice there
    for (T, N), basis in sorted(slices.items()):
        up, down = data["ups"][(T, N)], data["downs"].get((T, N + 1), {})
        rt = {c: svec_map(down, col) for c, col in up.items()}
        report["roundtrip_charpolys"][(T, N)] = characteristic_polynomial(
            LinOp(len(basis), rt))
    # one barcode per (T, model): basis-independent interval multiplicities
    for T, actual in data["barcodes"].items():
        ns = sorted(N for (t, N) in slices if t == T)
        for conv in GAMMA_CONVENTIONS + (None,):
            ladder = {N: predicted_slice_matrix(lam1, lam2, T, N, conv)
                      for N in ns}
            singular = [(str(N), *map(str, p)) for N, mm in ladder.items()
                        for p in mm.singular_points]
            if singular:  # a gamma model; the skeleton has no denominators
                report["gamma_mismatches"][conv].append(
                    {"T": T, "singular": singular})
                continue
            model = barcode(ns, _induced_flags(
                ns, {N: mm.cols for N, mm in ladder.items()},
                {N: len(mm.source_pts) for N, mm in ladder.items()}))
            if conv is None:
                report["case_mismatches"].extend(
                    {"T": T, "direction": direction,
                     "barcodes": {"actual": bars, "model": model}}
                    for direction, bars in actual.items() if bars != model)
            elif model != actual["up"]:
                report["gamma_mismatches"][conv].append(
                    {"T": T, "barcodes": {"actual": actual["up"],
                                          "model": model}})
    survivors = [c for c in GAMMA_CONVENTIONS if not report["gamma_mismatches"][c]]
    if len(survivors) == 1:
        report["gamma_winner"] = survivors[0]
    elif survivors:
        report["gamma_winner"] = "tie"
    else:
        report["gamma_winner"] = "none"
    return report
