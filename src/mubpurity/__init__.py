"""Mutually unbiased bases, purity conservation checks, and a swap-test simulator."""

from .expsim import (
    NOISELESS,
    PANEL_FIELDS,
    NoiseModel,
    PurityPanel,
    apply_gate,
    calibration_factors,
    rescale,
    run_protocol,
)
from .linalg import (
    DensityMatrix,
    density_from_json,
    density_to_json,
    hermitian_eigenvalues,
    partial_trace_matrix,
    partial_transpose,
    purity,
)
from .mub import (
    MubSet,
    MubValidationError,
    MubValidationReport,
    construct_mubs,
    is_prime,
    load_mubs,
    save_mubs,
    validate_mubs,
)
from .relations import (
    BipartiteBasis,
    PtIdentityReport,
    RelationReport,
    build_bipartite_basis,
    check_pt_identities,
    gamma_direct,
    gamma_via_projector,
    post_measurement_state,
    relation_report,
)
from .states import (
    psi_alpha,
    random_density,
    rho_family,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteBasis",
    "DensityMatrix",
    "MubSet",
    "MubValidationError",
    "MubValidationReport",
    "NoiseModel",
    "NOISELESS",
    "PANEL_FIELDS",
    "PtIdentityReport",
    "PurityPanel",
    "RelationReport",
    "apply_gate",
    "build_bipartite_basis",
    "calibration_factors",
    "check_pt_identities",
    "construct_mubs",
    "density_from_json",
    "density_to_json",
    "gamma_direct",
    "gamma_via_projector",
    "hermitian_eigenvalues",
    "is_prime",
    "load_mubs",
    "partial_trace_matrix",
    "partial_transpose",
    "post_measurement_state",
    "psi_alpha",
    "purity",
    "random_density",
    "relation_report",
    "rescale",
    "rho_family",
    "run_protocol",
    "save_mubs",
    "validate_mubs",
]
