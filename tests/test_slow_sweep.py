"""Classification sweep over every o_5 highest weight with |lam2| <= 6.

49 weights, 11 760 states, the largest irrep the 810-dimensional
(-4,-6); each irrep is built as a Cartan product by
`replab.irrep_of_weight`.  Run with QUASISPIN_SLOW=1 (and -s to see the
anomaly sites).  The gamma verdict and the case-pattern verdict of every
weight are compared with the step-by-step references of `test_tableaux`,
and the anomaly inventory is gated by two rules:
- integral lam: n0-two-sided-disagreement at exactly the T whose N = 0
  slice has dimension >= 2;
- half-integral lam: seam-raising-up at (T, -1/2) and seam-raising-down
  at (T, +1/2) for every T = -1/2, -3/2, ..., lam2;
and nothing else.
"""

from fractions import Fraction

import pytest

from quasispin.liealg import weyl_dimension
from quasispin.replab import irrep_of_weight, multiplicity_slices
from quasispin.tableaux import (enumerate_tableaux,
                                validate_against_representation)
from test_tableaux import (_old_case_mismatch_ts, _old_gamma_mismatch_ts,
                           gamma_mismatch_ts)

HALF = Fraction(1, 2)
DEPTH = 6


def dominant_weights(depth):
    """Every (lam1, lam2) with 0 >= lam1 >= lam2 >= -depth, integer or
    half-integer alike."""
    out = []
    for twice2 in range(0, -2 * depth - 1, -1):
        lam2 = Fraction(twice2, 2)
        out.extend((Fraction(twice1, 2), lam2)
                   for twice1 in range(0, twice2 - 1, -1)
                   if (twice1 - twice2) % 2 == 0)
    return out


def expected_anomalies(lam, irr):
    """The (kind, T, N) sites the two rules predict for V(lam)."""
    if lam[1].denominator == 1:
        return sorted(("n0-two-sided-disagreement", T, 0)
                      for (T, N), s in multiplicity_slices(irr).items()
                      if N == 0 and len(s) >= 2)
    Ts = [-HALF - t for t in range(int(-HALF - lam[1]) + 1)]
    return sorted([("seam-raising-up", T, -HALF) for T in Ts]
                  + [("seam-raising-down", T, HALF) for T in Ts])


def test_sweep_weights():
    weights = dominant_weights(DEPTH)
    assert len(weights) == 49
    assert sum(weyl_dimension(*lam) for lam in weights) == 11760
    assert max(weyl_dimension(*lam) for lam in weights) == weyl_dimension(
        -4, -6) == 810


@pytest.mark.slow
@pytest.mark.parametrize("lam", dominant_weights(DEPTH),
                         ids=lambda lam: f"{lam[0]},{lam[1]}")
def test_sweep(lam):
    irr = irrep_of_weight(lam)
    wd = weyl_dimension(*lam)
    assert len(enumerate_tableaux(*lam)) == wd == irr.dim
    result = validate_against_representation(irr)
    labels = [s.label() for s in result["states"]]
    assert len(labels) == len(set(labels)) == irr.dim
    assert result["case_mismatches"] == []
    assert _old_case_mismatch_ts(irr) == set()
    assert result["gamma_winner"] in ("proof-text", "tie")
    # the barcodes flag the T the four step comparisons flag
    assert gamma_mismatch_ts(result) == _old_gamma_mismatch_ts(irr)
    sites = sorted((a["kind"], a["T"], a.get("N", 0))
                   for a in result["anomalies"])
    print(f"\n({lam[0]},{lam[1]}) dim {irr.dim}: "
          f"gamma {result['gamma_winner']}, anomalies "
          f"{[(kind, str(T), str(N)) for kind, T, N in sites]}")
    assert sites == expected_anomalies(lam, irr)
