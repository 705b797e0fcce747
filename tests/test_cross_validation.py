"""Cross-checks between independent realizations of the same irrep.

The Fock spaces and the tensor powers of the defining representation
are unrelated constructions; every basis-independent quantity computed
from them must coincide for irreps of equal highest weight.
"""

from fractions import Fraction

from quasispin.replab import fock_representation, tensor_power_representation
from quasispin.tableaux import assign_k, validate_against_representation
from quasispin.uea import capelli
from quasispin.linalg import characteristic_polynomial
from test_replab import extract_irreps

F = Fraction


def find(rep, hw):
    for irr in extract_irreps(rep):
        if irr.highest_weight == hw:
            return irr
    raise AssertionError(f"{hw} not found in {rep.label}")


def label_multiset(irr):
    states, _ = assign_k(irr)
    return sorted(s.label() for s in states)


def test_five_dim_same_labels_in_three_sources():
    hw = (F(0), F(-1))
    a = find(fock_representation(F(1, 2)), hw)
    b = find(tensor_power_representation(1), hw)
    c = find(fock_representation(F(3, 2)), hw)
    assert label_multiset(a) == label_multiset(b) == label_multiset(c)


def test_adjoint_same_labels_and_roundtrips():
    hw = (F(-1), F(-1))
    a = find(tensor_power_representation(2), hw)
    b = find(fock_representation(F(3, 2)), hw)
    assert label_multiset(a) == label_multiset(b)
    ra = validate_against_representation(a)["roundtrip_charpolys"]
    rb = validate_against_representation(b)["roundtrip_charpolys"]
    assert set(ra) == set(rb)
    for key in ra:
        assert ra[key] == rb[key]  # spectra are realization-independent


def test_fourteen_dim_roundtrips_agree():
    hw = (F(0), F(-2))
    a = find(tensor_power_representation(2), hw)
    b = find(fock_representation(F(3, 2)), hw)
    ra = validate_against_representation(a)["roundtrip_charpolys"]
    rb = validate_against_representation(b)["roundtrip_charpolys"]
    assert ra == rb


def test_capelli_scalars_match_across_sources():
    hw = (F(-1), F(-1))
    a = find(tensor_power_representation(2), hw)
    b = find(fock_representation(F(3, 2)), hw)
    for k in (2, 4):
        ck = capelli(k, 2)
        scalars = []
        for irr in (a, b):
            m = irr.matrix_of(ck)
            diag = m.entry(0, 0)
            off_ok = all(m.entry(i, j) == (diag if i == j else 0)
                         for i in range(irr.dim) for j in range(irr.dim))
            assert off_ok, f"C_{k} not scalar on {irr}"
            scalars.append(diag)
        assert scalars[0] == scalars[1]


def test_capelli_separates_some_irreps():
    # the C_2 eigenvalue is a genuine invariant: different on (0,-1) vs
    # (-1,-1), equal across realizations of the same weight
    five = find(tensor_power_representation(1), (F(0), F(-1)))
    adj = find(tensor_power_representation(2), (F(-1), F(-1)))
    c2 = capelli(2, 2)
    s_five = five.matrix_of(c2).entry(0, 0)
    s_adj = adj.matrix_of(c2).entry(0, 0)
    assert s_five != s_adj
