"""Optional o_9 spot checks at |I| = 8: splitting, F_{ni} extraction,
C_2 centrality and a weight shift, each symbolic and in the 9x9 oracle.

Run with QUASISPIN_SLOW=1; measured ~2 s.
"""

import pytest

from quasispin.liealg import Weight, canonical_generators, defining_matrices
from quasispin.uea import (IndexSet, UEAElement, capelli, check_minorn,
                           check_split_formula, evaluate_in_representation,
                           pfaffian, weight_shift_of)

N9 = 4
ORACLE9 = (defining_matrices(N9), 9)
BIG = IndexSet([-4, -3, -2, -1, 0, 1, 2, 3], N9)


@pytest.mark.slow
def test_o9_split_size8():
    for p, q in ((2, 6), (4, 4)):
        r = check_split_formula(BIG, p, q)
        assert r, f"{r.name}: {r.witness!r}"
        assert r.matrix_oracle(*ORACLE9)


@pytest.mark.slow
def test_o9_minorn_size8():
    r = check_minorn(BIG)
    assert r, f"{r.name}: {r.witness!r}"
    assert r.matrix_oracle(*ORACLE9)


@pytest.mark.slow
def test_o9_c2_central():
    c2 = capelli(2, N9)
    for g in canonical_generators(N9):
        comm = c2.commutator(UEAElement.gen(g))
        assert comm.normal_order().is_zero(), g
        assert evaluate_in_representation(comm, *ORACLE9).is_zero(), g


@pytest.mark.slow
def test_o9_weight_shift_size8():
    want = Weight.zero(N9)
    for i in BIG:
        want = want - Weight.e(i, N9)
    assert weight_shift_of(pfaffian(BIG)) == want
