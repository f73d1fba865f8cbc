"""Mutually unbiased bases, purity conservation checks, and a swap-test simulator."""

from .expsim import (
    PANEL_FIELDS,
    NoiseModel,
    PurityPanel,
    run_protocol,
)
from .linalg import (
    DensityMatrix,
    density_from_json,
    hermitian_eigenvalues,
    partial_transpose,
)
from .mub import (
    MubSet,
    MubValidationError,
    MubValidationReport,
    construct_mubs,
    load_mubs,
    save_mubs,
)
from .relations import (
    BipartiteBasis,
    RelationReport,
    build_bipartite_basis,
    check_pt_identities,
    gamma_direct,
    gamma_via_projector,
    relation_report,
    verify_relations,
)
from .states import random_density, rho_family

__version__ = "0.1.0"

__all__ = [
    "BipartiteBasis",
    "DensityMatrix",
    "MubSet",
    "MubValidationError",
    "MubValidationReport",
    "NoiseModel",
    "PANEL_FIELDS",
    "PurityPanel",
    "RelationReport",
    "build_bipartite_basis",
    "check_pt_identities",
    "construct_mubs",
    "density_from_json",
    "gamma_direct",
    "gamma_via_projector",
    "hermitian_eigenvalues",
    "load_mubs",
    "partial_transpose",
    "random_density",
    "relation_report",
    "rho_family",
    "run_protocol",
    "save_mubs",
    "verify_relations",
]
