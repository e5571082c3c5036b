"""rfva: residual finiteness growth exponents of virtually abelian groups.

Given an integral representation phi: H -> GL(m, Z) of a finite group, the
toolkit computes the exponent k with RF = log^k by three cross-checking
routes (mod-p splitting, character tables, brute force over lattice
families) and verifies the constructive lemmas behind the bound.
"""

from .catalog import catalog_character_table, catalog_matrix, catalog_rep
from .errors import RfvaError
from .exactalg import (
    IntMatrix,
    IntPoly,
    Lattice,
    adjugate,
    charpoly,
    det,
    hnf,
    minpoly,
    snf,
)
from .grouprep import (
    Rep,
    character_of_rep,
    close_group,
    conjugacy_classes,
    is_abelian_image,
    validate_rep,
)
from .lattice import (
    FamilySpec,
    Witness,
    contains,
    enumerate_family,
    enumerate_sublattices,
    is_invariant_lattice,
    lattice_from_matrix,
    upper_bound_witness,
)
from .repdecomp import (
    CharacterTable,
    commutant_basis,
    commutant_certificate,
    conjugate_rep,
    exponent_k,
    exponent_report,
    inner_product,
    k_from_character_table,
    q_split,
    split_mod_p,
)
from .rfgrowth import (
    RFProfile,
    chebyshev_psi,
    divisibility,
    exponent_fit,
    lower_bound_certificate,
    rf_profile,
    smallest_valid_prime,
)

__version__ = "0.1.0"
