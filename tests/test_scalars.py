from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasispin.scalars import exact, format_rational, rat

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(rationals)
def test_rational_serialization_roundtrip(x):
    assert Fraction(format_rational(x)) == x


def test_minus_half_wire_format():
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_coercion():
    assert rat(3) == Fraction(3) and type(rat(3)) is Fraction
    assert rat("-3/2") == Fraction(-3, 2)
    x = Fraction(5, 7)
    assert rat(x) is x
    for bad in (0.5, 1.0, None, 1j):
        with pytest.raises(TypeError):
            rat(bad)


def test_exact_entries_are_int_when_integral():
    assert exact(3) == 3 and type(exact(Fraction(6, 2))) is int
    assert type(exact("4/2")) is int
    x = Fraction(5, 7)
    assert exact(x) is x
    for bad in (0.5, 1.0, None, 1j):
        with pytest.raises(TypeError):
            exact(bad)
