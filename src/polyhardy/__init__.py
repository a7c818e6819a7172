"""Capped-grade toolkit for invariant subspaces of vector-valued Hardy
spaces over polydiscs: orbit construction, wandering subspaces, multiplier
symbol extraction, verification, and classification."""
from __future__ import annotations

from .blh import (
    ConsistencyReport,
    IntertwineReport,
    MatrixPolynomial,
    MultiplierReport,
    adjoint_convolution,
    convolve,
    extract_phi,
    extract_phi_via_theta,
    extract_theta,
    inner_slot_shift,
    is_isometric_multiplier,
    kappa_polynomial,
    multiplier_commutation,
    verify_intertwining,
    wold_multiplication_consistency,
)
from .classify import (
    BesselReport,
    DoubleCommuteReport,
    EquivalenceCertificate,
    FactorizationCertificate,
    LowerBoundReport,
    ModuleMapReport,
    bessel_diagnostics,
    coincide,
    doubly_commuting_classification,
    isometric_module_map_lower_bound,
    module_map_check,
    nested_factor,
    sylvester_nullspace,
    uniqueness_tau,
)
from .errors import (
    CapacityError,
    DegenerateInputError,
    FlaggedWanderingError,
    GradeError,
    NotInvariantError,
    NotIsometricError,
    PipelineError,
    PolynomialParseError,
    ToolkitError,
)
from .grading import (
    Grade,
    HardyVector,
    MultiIndex,
    PolydiscIndex,
    dense_matrix,
    hardy_basis_vector,
    inner_product,
    reindex_to_disc,
    reindex_to_polydisc,
)
from .operators import (
    DefectReport,
    defect_rank,
    defect_sum,
    model_tuple,
    shift,
    shift_adjoint,
    shift_matrix,
    spectral_norm,
)
from .parsing import parse_polynomial, polynomial_to_string
from .scenarios import (
    Scenario,
    builtin_corpus,
    dump_scenario,
    load_scenario,
    named_corpus,
    random_homogeneous_generators,
    random_pair_scenario,
    scenario_from_json,
    scenario_to_json,
)
from .subspace import (
    InvarianceReport,
    Provenance,
    SubspaceBasis,
    WoldReport,
    build_from_theta,
    canonical_basis,
    check_invariant,
    max_principal_angle_sine,
    orbit_span,
    orbit_stability,
    subspace_from_columns,
    wandering_subspace,
    wold_reconstruction,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
