"""An exact entry is an int when integral: `scalars.exact` applies the rule.

The rule lives in `scalars.py` alone, so a module that restates it
(`x.numerator if x.denominator == 1 else x`) is a second copy that can
drift from the first, or a translation between two rules that should
not exist.  This scan fails on that idiom anywhere in the package but
`scalars.py`, in either branch order.

Labels follow the same rule as matrix entries: weights, highest
weights, slice keys (T, N), tableau coordinates, model coefficients and
the (T, tau0, N) of every classified state are ints when integral and
Fractions otherwise, never floats.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import quasispin
from quasispin import liealg
from quasispin.replab import (fock_representation, irrep_of_weight,
                              isotypic_types, multiplicity_slices,
                              tensor_power_representation)
from quasispin.scalars import rat
from quasispin.tableaux import (GAMMA_CONVENTIONS, Rectangle, assign_k,
                                predicted_slice_matrix)

PACKAGE = Path(quasispin.__file__).parent


def _restates_the_rule(node) -> bool:
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Attribute)
            and node.test.left.attr == "denominator"):
        return False
    x = ast.dump(node.test.left.value)
    for num, other in ((node.body, node.orelse), (node.orelse, node.body)):
        if (isinstance(num, ast.Attribute) and num.attr == "numerator"
                and ast.dump(num.value) == x == ast.dump(other)):
            return True
    return False


def test_only_scalars_states_the_int_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _restates_the_rule(node)]
    assert not found, f"int/Fraction normalisation outside scalars.py: {found}"


def test_the_scan_finds_the_idiom():
    for src in ("y = x.numerator if x.denominator == 1 else x",
                "y = c if c.denominator != 1 else c.numerator"):
        assert any(map(_restates_the_rule, ast.walk(ast.parse(src)))), src
    scalars = ast.parse((PACKAGE / "scalars.py").read_text())
    assert any(map(_restates_the_rule, ast.walk(scalars)))


HALF = Fraction(1, 2)
CORPUS = ((0, 0), (0, -1), (-HALF, -HALF), (0, -2), (-1, -1),
          (-HALF, -3 * HALF), (0, -3), (-1, -2), (-3 * HALF, -7 * HALF))


def _obeys_the_rule(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _label_violations(irr):
    """(where, value) of every label of irr that breaks the scalar rule."""
    lam1, lam2 = irr.highest_weight
    labels = [("highest weight", x) for x in irr.highest_weight]
    labels += [("weight", x) for w in irr.weight_positions for x in w.comps]
    slices = multiplicity_slices(irr)
    labels += [("slice key", x) for key in slices for x in key]
    for T, N in slices:
        sigma, K, pts = Rectangle(lam1, lam2, T).slice_points(N)
        labels += [("slice K", K)]
        labels += [("slice point", x) for pt in pts for x in pt]
        for conv in GAMMA_CONVENTIONS + (None,):
            model = predicted_slice_matrix(lam1, lam2, T, N, conv)
            labels += [("model coefficient", x) for col in
                       (model.cols or {}).values() for x in col.values()]
    states, _ = assign_k(irr)
    labels += [("state", x) for s in states for x in (s.T, s.tau0, s.N)]
    return [(where, x) for where, x in labels if not _obeys_the_rule(x)]


def _label_corpus():
    sources = [fock_representation(HALF), fock_representation(3 * HALF)]
    sources += [tensor_power_representation(p) for p in range(4)]
    return ([irr for rep in sources for irr, _ in isotypic_types(rep)]
            + [irrep_of_weight(lam) for lam in CORPUS])


def test_labels_follow_the_scalar_rule():
    irreps = _label_corpus()
    assert any(type(irr.highest_weight[0]) is Fraction for irr in irreps)
    bad = {repr(irr): found[:3] for irr in irreps
           if (found := _label_violations(irr))}
    assert not bad


def test_the_label_walk_finds_integral_fractions(monkeypatch):
    # weights coerced to Fraction, as before the rule covered labels
    def fraction_weight(self, comps):
        self.comps = tuple(rat(c) for c in comps)
        self._hash = hash(self.comps)

    monkeypatch.setattr(liealg.Weight, "__init__", fraction_weight)
    found = _label_violations(irrep_of_weight((0, -1)))
    assert ("weight", Fraction(-1)) in found
    assert all(type(x) is Fraction for _, x in found)


@pytest.mark.parametrize("value, ok", [(1, True), (Fraction(1, 2), True),
                                       (Fraction(2), False), (0.5, False),
                                       (True, False)])
def test_the_rule_check_itself(value, ok):
    assert _obeys_the_rule(value) is ok
