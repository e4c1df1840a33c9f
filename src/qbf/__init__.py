"""Exact computations on the dual of a q-deformed compact semisimple Lie group.

The library computes weight-lattice geometry, fusion rules, central-weight
validation, quantum norm exponents and the completely-bounded extension region
for the weighted Fourier algebras of such quantum groups, together with an
independent exact U_q(sl2) oracle for the central norm formula.
"""

from .root_system import (
    LieType,
    LieTypeError,
    RootSystem,
    Weight,
    build_root_system,
)
from .characters import Character, character_product_decompose, full_weights, weight_multiplicities
from .fusion import FusionDecomposition, contains_trivial, tensor_decompose
from .central_weights import (
    CentralWeightSpec,
    SubadditivityReport,
    ValidationReport,
    Violation,
    casimir_subadditivity_check,
    eval_weight,
    validate_central_weight,
)
from .qnorm import (
    QExponent,
    SessionConfig,
    i_norm_exponent,
    lminus_norm_exponent,
    rmatrix_exponent_details,
    rmatrix_sup_exponent,
)
from .cb_region import CBDecision, ScanReport, cb_extends, cb_region_enumerate, sup_ratio_scan
from .sl2_oracle import RMatrixBlock, Sl2Rep, build_rmatrix_block, build_sl2_rep, verify_norm_formula

__version__ = "0.1.0"

__all__ = [
    "LieType",
    "LieTypeError",
    "RootSystem",
    "Weight",
    "build_root_system",
    "Character",
    "weight_multiplicities",
    "full_weights",
    "character_product_decompose",
    "FusionDecomposition",
    "tensor_decompose",
    "contains_trivial",
    "CentralWeightSpec",
    "Violation",
    "ValidationReport",
    "SubadditivityReport",
    "eval_weight",
    "validate_central_weight",
    "casimir_subadditivity_check",
    "QExponent",
    "SessionConfig",
    "lminus_norm_exponent",
    "rmatrix_sup_exponent",
    "rmatrix_exponent_details",
    "i_norm_exponent",
    "CBDecision",
    "ScanReport",
    "cb_extends",
    "cb_region_enumerate",
    "sup_ratio_scan",
    "Sl2Rep",
    "RMatrixBlock",
    "build_sl2_rep",
    "build_rmatrix_block",
    "verify_norm_formula",
]
