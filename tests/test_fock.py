from fractions import Fraction

import pytest

from quasispin import fock
from quasispin.fock import (DICTIONARY, FockSpace, bracket_violations,
                            dictionary_to_o5, evaluate_polynomial,
                            generator_polynomials)
from quasispin.liealg import (GenIndex, bracket, o3_subalgebra_generators,
                              root_of)
from quasispin.linalg import LinOp, transpose_cols
from quasispin.uea import (evaluate_in_representation, hat_set,
                           pf_hat_star_expression, pfaffian)
import fock_reference
from fock_reference import (annihilation, build_o5_on_fock, cleared, creation,
                            isum, quasispin_operators, verify_representation)
from test_linalg import commutator, follows_the_scalar_rule

HALF = Fraction(1, 2)
SHELLS = [HALF, Fraction(3, 2),
          pytest.param(Fraction(5, 2), marks=pytest.mark.slow)]


def transpose(op):
    return LinOp(op.dim, transpose_cols(op.cols))


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
    a = creation(sp, "p", HALF)
    assert (a @ a).is_zero()


def test_cross_species_car():
    sp = FockSpace(HALF)
    x, y = annihilation(sp, "p", HALF), creation(sp, "n", HALF)
    assert (x @ y + y @ x).is_zero()


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
    want = creation(sp, "p", HALF) @ creation(sp, "p", -HALF)
    assert ops["A(1)"] == want


def test_tau0_on_one_proton():
    sp = FockSpace(HALF)
    ops = quasispin_operators(sp)
    onep = creation(sp, "p", HALF).apply(sp.vacuum())
    got = ops["tau0"].apply(onep)
    assert got == {k: HALF * v for k, v in onep.items()}


def test_dictionary_entries():
    sp = FockSpace(HALF)
    ops = quasispin_operators(sp)
    genmap = dictionary_to_o5(sp)
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
                    assert weight[r] - weight[c] == root_of(g), (g, r, c)
                    nonzero += 1
            assert follows_the_scalar_rule(op), g
        assert nonzero == {HALF: 68, Fraction(3, 2): 1908}[j]


def test_b_operators_are_adjoints():
    sp = FockSpace(Fraction(3, 2))
    ops = quasispin_operators(sp)
    for x in ("1", "0", "-1"):
        assert ops[f"B({x})"] == transpose(ops[f"A({x})"])


def test_representation_no_violations():
    for j in (HALF, Fraction(3, 2)):
        _, _, genmap = build_o5_on_fock(j)
        assert verify_representation(genmap) == []


def test_bracket_table_takes_int_coefficients(monkeypatch):
    # the table must not depend on the scalar type bracket returns
    sp, _, genmap = build_o5_on_fock(HALF)
    for module in (fock, fock_reference):
        monkeypatch.setattr(module, "bracket", lambda a, b: [
            (int(c), g) for c, g in bracket(a, b)])
    assert verify_representation(genmap) == []
    assert bracket_violations(generator_polynomials(sp)) == []


def test_represented_star_expressions():
    sp, _, genmap = build_o5_on_fock(HALF)
    for sign in (1, -1):
        lhs = rep_of(pfaffian(hat_set(2, sign)), genmap, sp.dim)
        rhs = rep_of(pf_hat_star_expression(2, sign), genmap, sp.dim)
        assert lhs == rhs


def test_pf_matrices_commute_with_o3_on_fock():
    for j in (HALF, Fraction(3, 2)):
        sp, _, genmap = build_o5_on_fock(j)
        for sign in (1, -1):
            pf_op = rep_of(pfaffian(hat_set(2, sign)), genmap, sp.dim)
            for g in o3_subalgebra_generators(2):
                assert commutator(pf_op, genmap[g]).is_zero()


# -- reference: the LinOp-product construction of the three integer checks


def ref_car_violations(sp):
    adag = [creation(sp, *mode) for mode in sp.modes]
    a = [annihilation(sp, *mode) for mode in sp.modes]
    ident = LinOp.identity(sp.dim)
    bad = []
    for i in range(sp.nmodes):
        for k in range(i, sp.nmodes):
            if not (a[i] @ a[k] + a[k] @ a[i]).is_zero():
                bad.append(("{a,a}", i, k))
            if not (adag[i] @ adag[k] + adag[k] @ adag[i]).is_zero():
                bad.append(("{a+,a+}", i, k))
            want = ident if i == k else LinOp(sp.dim)
            if a[i] @ adag[k] + adag[k] @ a[i] != want:
                bad.append(("{a,a+}", i, k))
            if i != k and not (a[k] @ adag[i] + adag[i] @ a[k]).is_zero():
                bad.append(("{a,a+}", k, i))
    return bad


def ref_quasispin_operators(sp):
    half = Fraction(1, 2)

    def sum_ops(terms):
        acc = LinOp(sp.dim)
        for t in terms:
            acc = acc + t
        return acc

    ap = {m: creation(sp, "p", m) for m in sp.m_values}
    an = {m: creation(sp, "n", m) for m in sp.m_values}
    bp = {m: annihilation(sp, "p", m) for m in sp.m_values}
    bn = {m: annihilation(sp, "n", m) for m in sp.m_values}
    pos_m = [m for m in sp.m_values if m > 0]

    def phase(m):
        return -1 if int(sp.j - m) % 2 else 1

    ops = {}
    ops["tau+"] = sum_ops(ap[m] @ bn[m] for m in sp.m_values)
    ops["tau-"] = sum_ops(an[m] @ bp[m] for m in sp.m_values)
    ops["tau0"] = sum_ops([(ap[m] @ bp[m]).scale(half) for m in sp.m_values]
                          + [(an[m] @ bn[m]).scale(-half) for m in sp.m_values])
    num = sum_ops([(ap[m] @ bp[m]).scale(half) for m in sp.m_values]
                  + [(an[m] @ bn[m]).scale(half) for m in sp.m_values])
    ops["N"] = num - LinOp.identity(sp.dim).scale(Fraction(2 * sp.j + 1, 2))
    ops["A(1)"] = sum_ops((ap[m] @ ap[-m]).scale(phase(m)) for m in pos_m)
    ops["A(-1)"] = sum_ops((an[m] @ an[-m]).scale(phase(m)) for m in pos_m)
    ops["A(0)"] = sum_ops(((ap[m] @ an[-m]) + (an[m] @ ap[-m])).scale(phase(m))
                          for m in pos_m)
    for x in ("1", "0", "-1"):
        ops[f"B({x})"] = transpose(ops[f"A({x})"])
    return ops


def commutes(x, y):
    """Whether [x, y] = 0, decided in integers: a zero test needs no
    common scale, so each side is cleared on its own."""
    (_, ix), (_, iy) = cleared(x), cleared(y)
    return not isum([(1, ix, iy), (-1, iy, ix)])


def ref_verify_representation(genmap):
    gens = list(genmap)
    dim = next(iter(genmap.values())).dim
    violations = []
    for x in range(len(gens)):
        for y in range(x, len(gens)):
            a, b = gens[x], gens[y]
            rhs = LinOp(dim)
            for c, g in bracket(a, b):
                rhs = rhs + genmap[g].scale(Fraction(c))
            if commutator(genmap[a], genmap[b]) != rhs:
                violations.append((a, b))
    return violations


@pytest.mark.parametrize("j", SHELLS, ids=str)
def test_integer_checks_match_linop_reference(j):
    sp = FockSpace(j)
    ops = quasispin_operators(sp)
    assert ops == ref_quasispin_operators(sp)
    # a+ and a are integer columns; so is every operator but the halved
    # tau0 and N, whose integral entries stay ints too
    assert all(type(x) is int for mode in sp.modes
               for op in (creation(sp, *mode), annihilation(sp, *mode))
               for col in op.cols.values() for x in col.values())
    assert all(follows_the_scalar_rule(op) for op in ops.values())
    assert all(type(x) is int for name, op in ops.items()
               if name not in ("tau0", "N")
               for col in op.cols.values() for x in col.values())
    assert sp.car_violations() == ref_car_violations(sp) == []
    genmap = dictionary_to_o5(sp)
    assert verify_representation(genmap) == ref_verify_representation(genmap) == []


def test_bracket_table_catches_a_flipped_entry():
    _, _, genmap = build_o5_on_fock(Fraction(3, 2))
    g = GenIndex(0, -1, 2)
    c, col = next(iter(genmap[g].cols.items()))
    r = next(iter(col))
    broken = LinOp(genmap[g].dim, genmap[g].cols)
    broken.cols[c] = {**col, r: -col[r]}
    genmap[g] = broken
    got = verify_representation(genmap)
    assert got == ref_verify_representation(genmap)
    assert len(got) == 9


def test_car_check_catches_a_flipped_jordan_wigner_sign():
    # a+_3 |0> = -|8> and, a_3 being its transpose, a_3 |8> = -|0>
    sp = FockSpace(Fraction(3, 2))
    sp._adag[3][0][8] = sp._a[3][8][0] = -1
    got = sp.car_violations()
    assert got == ref_car_violations(sp)
    assert len(got) == 28


@pytest.mark.parametrize("extra", [{1: 1}, {0: 2}], ids=["second-entry",
                                                         "entry-2"])
def test_car_check_reports_a_malformed_column_first(extra):
    # column 4 of a_2 is a_2 |4> = |0>; an extra or doubled entry leaves
    # the signed partial permutations, and the old check fails it too
    sp = FockSpace(HALF)
    sp._a[2][4].update(extra)
    got = sp.car_violations()
    assert got[0] == ("shape", "a", 2)
    assert [v for v in got if v[0] == "shape"] == [("shape", "a", 2)]
    assert ref_car_violations(sp)


def test_o3_commutation_catches_a_flipped_pfaffian_entry():
    sp, _, genmap = build_o5_on_fock(Fraction(3, 2))
    pf = rep_of(pfaffian(hat_set(2, 1)), genmap, sp.dim)
    sub = o3_subalgebra_generators(2)
    assert [commutes(pf, genmap[g]) for g in sub] == [True] * 3
    c, col = next(iter(pf.cols.items()))
    r = next(iter(col))
    broken = LinOp(pf.dim, pf.cols)
    broken.cols[c] = {**col, r: -col[r]}
    got = [commutes(broken, genmap[g]) for g in sub]
    assert got == [commutator(broken, genmap[g]).is_zero() for g in sub]
    # the flip keeps the weight shift, so only the Cartan F[-1,-1] commutes
    assert got == [False, True, False]


# -- second quantization: the polynomial checks against the whole space
# `fock build` decides its bracket table, star expressions and o3 checks
# on the polynomials and exports the matrices read off them; these tests
# are what ties the two, so j = 1/2 and 3/2 stay out of the slow set.


def poly_op(sp, poly):
    """A fermion polynomial as a LinOp: each monomial multiplied out in
    LinOp products of sp.adag and sp.a."""
    out = LinOp(sp.dim)
    for (cre, ann), x in poly.items():
        m = LinOp.identity(sp.dim)
        for k in cre:
            m = m @ creation(sp, *sp.modes[k])
        for k in ann:
            m = m @ annihilation(sp, *sp.modes[k])
        out = out + m.scale(x)
    return out


@pytest.mark.parametrize("j", SHELLS, ids=str)
def test_polynomials_are_the_whole_space_operators(j):
    sp, _, genmap = build_o5_on_fock(j)
    polys = generator_polynomials(sp)
    assert list(polys) == list(genmap)
    assert all(poly_op(sp, polys[g]) == op for g, op in genmap.items())
    for sign in (1, -1):
        for x in (pfaffian(hat_set(2, sign)), pf_hat_star_expression(2, sign)):
            assert (poly_op(sp, evaluate_polynomial(x, polys))
                    == evaluate_in_representation(x, genmap, sp.dim))


@pytest.mark.parametrize("j", SHELLS, ids=str)
def test_polynomial_table_matches_the_whole_space_table(j):
    sp, _, genmap = build_o5_on_fock(j)
    polys = generator_polynomials(sp)
    assert bracket_violations(polys) == verify_representation(genmap) == []
    # N shifted by 1/2, that is F[-2,-2] = -N by -1/2
    n, one = GenIndex(-2, -2, 2), ((), ())
    shifted = {**polys, n: {**polys[n], one: polys[n][one] - HALF}}
    got = bracket_violations(shifted)
    assert got == verify_representation(
        {**genmap, n: genmap[n] - LinOp.identity(sp.dim).scale(HALF)})
    assert len(got) == 3
    for g in genmap:
        negated = {**polys, g: {k: -x for k, x in polys[g].items()}}
        got = bracket_violations(negated)
        assert got == verify_representation({**genmap, g: -genmap[g]})
        assert got


@pytest.mark.parametrize("j", SHELLS, ids=str)
def test_o3_verdicts_match_the_whole_space_on_a_flipped_pfaffian(j):
    sp, _, genmap = build_o5_on_fock(j)
    polys = generator_polynomials(sp)
    sub = o3_subalgebra_generators(2)
    for sign in (1, -1):
        pf = evaluate_polynomial(pfaffian(hat_set(2, sign)), polys)
        assert not any(fock.commutator(polys[g], pf) for g in sub)
        key = next(iter(pf))
        broken = {**pf, key: -pf[key]}
        got = [not fock.commutator(polys[g], broken) for g in sub]
        op = poly_op(sp, broken)
        assert got == [commutator(op, genmap[g]).is_zero() for g in sub]
        # the flip keeps the weight shift: only the Cartan F[-1,-1] commutes
        assert got == [False, True, False]
