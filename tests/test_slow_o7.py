"""Optional o_7 spot checks (acceptance criterion 2's --slow clause).

Run with QUASISPIN_SLOW=1; budget is five minutes, measured ~1.6 s.
"""

from itertools import combinations

import pytest

from quasispin.liealg import defining_matrices
from quasispin.uea import (IndexSet, check_lemma_l2, check_minorn,
                           check_split_formula)

IDX7 = [-3, -2, -1, 0, 1, 2, 3]
ORACLE7 = (defining_matrices(3), 7)


@pytest.mark.slow
def test_o7_split_and_minor_size6():
    big = IndexSet([-3, -2, -1, 0, 1, 2], 3)
    for p, q in ((2, 4), (4, 2), (6, 0), (0, 6)):
        r = check_split_formula(big, p, q)
        assert r, f"{r.name}: {r.witness!r}"
        assert r.matrix_oracle(*ORACLE7)
    r = check_minorn(big)
    assert r and r.matrix_oracle(*ORACLE7)


@pytest.mark.slow
def test_o7_lemma_l2_size6_spot():
    for combo in list(combinations(IDX7, 6))[:3]:
        I = IndexSet(combo, 3)
        for j1, j2 in ((3, 1), (-3, 2), (1, -1), (0, 3)):
            r = check_lemma_l2(I, j1, j2)
            assert r, f"{r.name}: {r.witness!r}"


@pytest.mark.slow
def test_fock_five_halves_builds():
    from fractions import Fraction
    from quasispin.fock import FockSpace
    from quasispin.linalg import LinOp
    from fock_reference import annihilation, creation, quasispin_operators

    sp = FockSpace(Fraction(5, 2))
    assert sp.dim == 4096
    # spot CAR checks (the exhaustive loop is quadratic in modes)
    h = Fraction(5, 2)
    assert (creation(sp, "p", h) @ creation(sp, "p", h)).is_zero()
    a = annihilation(sp, "n", Fraction(1, 2))
    adag = creation(sp, "n", Fraction(1, 2))
    pair = a @ adag + adag @ a
    assert pair == LinOp.identity(sp.dim)
    ops = quasispin_operators(sp)
    assert ops["N"].apply(sp.vacuum()) == {0: -3}
