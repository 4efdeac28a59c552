"""Finite doubling-construction algebras over Z/nZ.

Build towers of not-necessarily-associative algebras by repeatedly doubling
Z/nZ, compute their associative centers, centers, commutator ideals, and
annihilators exactly (Howell-form linear algebra, composite moduli
included), and decide centrally essential / N-essential properties both by
definition and by closed-form criteria that are cross-checked against each
other.
"""

from .algebra import (
    CentralScalar,
    FiniteAlgebra,
    certify_central_scalar,
    is_alternative,
    is_associative,
    is_central,
    is_commutative,
    is_invertible,
    is_left_alternative,
    is_right_alternative,
    is_symmetric,
    scalar_ring,
    validate_algebra,
)
from .analysis import (
    CenterReport,
    EssentialityData,
    annihilator,
    associative_center,
    center,
    commutative_center,
    commutator_ideal,
    essentiality_data,
    identity_conditions,
    n_membership_by_identities,
    pair_coordinates,
    predicted_associative_center,
    predicted_center,
    skew_annihilator,
    skew_span,
    symmetric_center,
)
from .document import (
    algebra_to_document,
    document_to_algebra,
    load_algebra,
    save_algebra,
)
from .doubling import TowerSpec, build_tower, double, embed, nu, split, tower
from .errors import (
    AlgebraError,
    CertificationError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    InvalidAlgebra,
    ModulusTooLarge,
    NotCentral,
    NotInvertible,
    NotSymmetric,
    RankBudgetExceeded,
    StageMismatch,
)
from .essentiality import (
    EssentialityVerdict,
    centrally_essential_criterion,
    is_centrally_essential,
    is_essential_ideal,
    is_essential_submodule,
    is_left_n_essential,
    is_right_n_essential,
    n_essential_criterion,
    octonion_criterion,
    quaternion_criterion,
)
from .presentations import (
    BasisMap,
    octonion_algebra,
    octonion_tower_map,
    quaternion_algebra,
    quaternion_tower_map,
    verify_basis_map,
)
from .residue import (
    DEFAULT_ENUMERATION_BUDGET,
    ResidueMatrix,
    Submodule,
    all_vectors,
    canonicalize,
    intersect,
    kernel,
    solve_left,
)
from .suites import SUITES, VerificationReport, run_suite

__version__ = "0.1.0"
