"""Exact-arithmetic toolkit for the five-dimensional quasi-spin algebra.

Noncommutative Pfaffians in U(o_N) with symbolic identity verification,
fermionic Fock realizations of the quasi-spin operators, representation
analysis, and the fourth-quantum-number classification of o_5 states.
All arithmetic is exact over Q: the Fock realization is built in a
basis rescaled by sqrt2^(tau0 + N), where the dictionary's factors
1/sqrt2 cancel (see `fock`).
"""

__version__ = "0.1.0"
