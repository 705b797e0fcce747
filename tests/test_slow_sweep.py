"""Classification sweep over every o_5 highest weight with |lam2| <= 4.

25 weights, 1 925 states, the largest irrep the 231-dimensional (-3,-4);
each irrep is built as a Cartan product by `replab.irrep_of_weight`.
Run with QUASISPIN_SLOW=1 (and -s to see the anomaly sites); about half
a minute.  The anomaly sites are printed, not pinned: criterion 7 pins
the corpus, and a site this sweep finds beyond it is a finding to
report, not a gate.
"""

import os
from fractions import Fraction

import pytest

from quasispin.liealg import weyl_dimension
from quasispin.replab import irrep_of_weight
from quasispin.tableaux import (enumerate_tableaux,
                                validate_against_representation)

slow = pytest.mark.skipif(not os.environ.get("QUASISPIN_SLOW"),
                          reason="set QUASISPIN_SLOW=1 to run the sweep")

ANOMALY_KINDS = {"n0-two-sided-disagreement", "seam-raising-up",
                 "seam-raising-down"}


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


def test_sweep_weights():
    weights = dominant_weights(4)
    assert len(weights) == 25
    assert sum(weyl_dimension(*lam) for lam in weights) == 1925


@slow
@pytest.mark.parametrize("lam", dominant_weights(4),
                         ids=lambda lam: f"{lam[0]},{lam[1]}")
def test_sweep(lam):
    irr = irrep_of_weight(lam)
    wd = weyl_dimension(*lam)
    assert len(enumerate_tableaux(*lam)) == wd == irr.dim
    result = validate_against_representation(irr)
    labels = [s.label() for s in result["states"]]
    assert len(labels) == len(set(labels)) == irr.dim
    assert result["case_mismatches"] == []
    assert result["gamma_winner"] in ("proof-text", "tie")
    sites = sorted((a["kind"], str(a["T"]), str(a.get("N", "")))
                   for a in result["anomalies"])
    assert {kind for kind, _, _ in sites} <= ANOMALY_KINDS
    print(f"\n({lam[0]},{lam[1]}) dim {irr.dim}: "
          f"gamma {result['gamma_winner']}, anomalies {sites}")
