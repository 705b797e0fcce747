"""Exact scalars, one rule: an entry is an ``int`` when it is integral
and a ``fractions.Fraction`` otherwise.  The Pfaffians, slice maps and
brackets of o_N are integral almost everywhere, and an ``int`` product
costs a small part of a ``Fraction`` one.  ``exact`` is the one entry
normaliser: every ``LinOp`` entry, every ``uea`` coefficient and every
scale factor goes through it, and so do the labels: weight components,
highest weights, the slice keys (T, N) and tableau coordinates.
``Fraction(3) == 3`` and both hash alike, so the rule changes no value;
the report boundary (``report``) writes a ``Fraction`` as "p/q" and an
``int`` as a JSON number, so a label that reaches a witness goes there
as a ``Fraction`` (``cli``) and always travels as "p/q" text.

The quasi-spin dictionary carries factors 1/sqrt 2, but the Fock
realization is used in a rescaled basis where all of them cancel (see
``fock``), so every matrix entry is rational.  Nothing is ever rounded;
equality always means exact equality.  ``rat`` is the single coercion
point and refuses floats; ``exact`` coerces through it.
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


def exact(x):
    """x as an exact entry: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = rat(x)
    return x.numerator if x.denominator == 1 else x


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
