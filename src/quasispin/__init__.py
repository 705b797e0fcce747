"""Exact-arithmetic toolkit for the five-dimensional quasi-spin algebra.

Noncommutative Pfaffians in U(o_N) with symbolic identity verification,
fermionic Fock realizations of the quasi-spin operators, representation
analysis, and the fourth-quantum-number classification of o_5 states.
All arithmetic is exact over Q: the Fock realization is built in a
basis rescaled by sqrt2^(tau0 + N), where the dictionary's factors
1/sqrt2 cancel (see `fock`).
"""

from .linalg import LinOp, characteristic_polynomial
from .liealg import (GenIndex, Weight, bracket, canonical_generators,
                     canonicalize, defining_matrices, root_of, weyl_dimension)
from .uea import (IndexSet, UEAElement, capelli, check_corollary_split,
                  check_lemma_l2, check_minorn, check_split_formula, hat_set,
                  pfaffian, star, weight_shift_of)
from .fock import (FockSpace, build_o5_on_fock, dictionary_to_o5,
                   quasispin_operators, verify_representation)
from .replab import (Irrep, Representation, extremal_projector_o3,
                     fock_representation, irrep_of_weight, isotypic_types,
                     multiplicity_slices, omega_operator, pf_slice_maps,
                     tensor_power_representation, tensor_product,
                     tps_scalar_probe, weight_decompose)
from .tableaux import (GTMolevTableau, Rectangle, assign_k, case_of,
                       enumerate_tableaux, predicted_slice_matrix,
                       quantum_numbers, validate_against_representation)

__version__ = "0.1.0"
