from fractions import Fraction

import pytest

from quasispin.fock import (DICTIONARY, FockSpace, build_o5_on_fock,
                            dictionary_to_o5, quasispin_operators,
                            verify_representation)
from quasispin.liealg import GenIndex, root_of
from quasispin.linalg import LinOp
from quasispin.uea import hat_set, pf_hat_star_expression, pfaffian

HALF = Fraction(1, 2)


def rep_of(x, genmap, dim):
    out = LinOp(dim)
    ident = LinOp.identity(dim)
    for w, c in x.terms.items():
        m = ident
        for g in w:
            m = m @ genmap[g]
        out = out + m.scale(Fraction(c))
    return out


def test_mode_layout_and_dimension():
    sp = FockSpace(HALF)
    assert sp.nmodes == 4 and sp.dim == 16
    assert sp.modes == [("p", -HALF), ("p", HALF), ("n", -HALF), ("n", HALF)]


def test_creation_nilpotent():
    sp = FockSpace(HALF)
    a = sp.adag("p", HALF)
    assert (a @ a).is_zero()


def test_cross_species_car():
    sp = FockSpace(HALF)
    assert sp.a("p", HALF).anticommutator(sp.adag("n", HALF)).is_zero()


def test_car_exhaustive():
    for j in (HALF, Fraction(3, 2)):
        assert FockSpace(j).car_violations() == []


def test_j_cap():
    with pytest.raises(ValueError):
        FockSpace(Fraction(7, 2))
    with pytest.raises(ValueError):
        FockSpace(Fraction(1, 3))


def test_number_operator_on_vacuum():
    sp = FockSpace(HALF)
    ops = quasispin_operators(sp)
    assert ops["N"].apply(sp.vacuum()) == {0: -1}


def test_a1_single_term():
    sp = FockSpace(HALF)
    ops = quasispin_operators(sp)
    want = sp.adag("p", HALF) @ sp.adag("p", -HALF)
    assert ops["A(1)"] == want


def test_tau0_on_one_proton():
    sp = FockSpace(HALF)
    ops = quasispin_operators(sp)
    onep = sp.adag("p", HALF).apply(sp.vacuum())
    got = ops["tau0"].apply(onep)
    assert got == {k: HALF * v for k, v in onep.items()}


def test_dictionary_entries():
    sp = FockSpace(HALF)
    ops = quasispin_operators(sp)
    genmap = dictionary_to_o5(ops)
    assert genmap[GenIndex(-2, -2, 2)] == ops["N"].scale(-1)
    assert genmap[GenIndex(-1, -1, 2)] == ops["tau0"].scale(-1)
    # F_{2,-1} = -F_{1,-2} = A(1) after the sign correction: the table
    # holds the conventional -1 * sqrt2^0 * A(1), and the rescaled basis
    # multiplies it by sqrt2^2 (root e_1 + e_2)
    assert DICTIONARY[(1, -2)] == ("A(1)", -1, 0)
    assert genmap[GenIndex(1, -2, 2)] == ops["A(1)"].scale(-2)


def test_rescaled_generators_are_rational_weight_vectors():
    from quasispin.replab import fock_representation, weight_decompose
    for j in (HALF, Fraction(3, 2)):
        rep = fock_representation(j)
        weight = {k: w for w, ks in weight_decompose(rep).items() for k in ks}
        nonzero = 0
        for g, op in rep.genmap.items():
            for c, col in op.cols.items():
                for r, x in col.items():
                    assert type(x) is Fraction
                    assert weight[r] - weight[c] == root_of(g), (g, r, c)
                    nonzero += 1
        assert nonzero == {HALF: 68, Fraction(3, 2): 1908}[j]


def test_b_operators_are_adjoints():
    sp = FockSpace(Fraction(3, 2))
    ops = quasispin_operators(sp)
    for x in ("1", "0", "-1"):
        assert ops[f"B({x})"] == ops[f"A({x})"].transpose()


def test_representation_no_violations():
    for j in (HALF, Fraction(3, 2)):
        _, _, genmap = build_o5_on_fock(j)
        assert verify_representation(genmap) == []


def test_represented_star_expressions():
    sp, _, genmap = build_o5_on_fock(HALF)
    for sign in (1, -1):
        lhs = rep_of(pfaffian(hat_set(2, sign)), genmap, sp.dim)
        rhs = rep_of(pf_hat_star_expression(2, sign), genmap, sp.dim)
        assert lhs == rhs


def test_pf_matrices_commute_with_o3_on_fock():
    from quasispin.liealg import o3_subalgebra_generators
    for j in (HALF, Fraction(3, 2)):
        sp, _, genmap = build_o5_on_fock(j)
        for sign in (1, -1):
            pf_op = rep_of(pfaffian(hat_set(2, sign)), genmap, sp.dim)
            for g in o3_subalgebra_generators(2):
                assert pf_op.commutator(genmap[g]).is_zero()
