"""Exact scalars: every number in this package is a ``fractions.Fraction``,
with one exception: the coefficients of ``uea`` elements, and the
columns its evaluator pushes, are ``int`` when integral (a ``Fraction``
product costs hundreds of times an ``int`` one, and the brackets of o_N
are integral).  Every matrix that leaves ``uea`` is a ``LinOp`` built by
its constructor, so it holds ``Fraction``s again.

The quasi-spin dictionary carries factors 1/sqrt 2, but the Fock
realization is used in a rescaled basis where all of them cancel (see
``fock``), so every matrix entry is rational.  Nothing is ever rounded;
equality always means exact equality.  ``rat`` is the single coercion
point and refuses floats; ``uea`` coerces through it too.
"""

from __future__ import annotations

from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce an int, string like '-3/2', or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
