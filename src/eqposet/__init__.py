"""p-equipped posets, their two attached peak algebras, and the knitted
Auslander-Reiten components of the simple projective, with an exact
finite-field oracle for everything the numerics claim."""

from .fields import Tower, default_tower
from .forms import RatVec, bilinear, gram_matrix, quadratic
from .knitter import (FINITE, TRUNCATED, ArArrow, ArVertex, ComponentGraph,
                      KnitError, knit)
from .model import (AlgebraModel, Flavor, InjectiveProfile, Label, ModelError,
                    RadicalInfo, build_model, injective_profiles, is_hereditary,
                    projective_cd, projective_udimF, radical_info)
from .oracle import (OracleError, OracleReport, RFamily, build_family,
                     oracle_hom_dim, oracle_radical, run_verification,
                     verify_admissible, verify_dims)
from .pairing import PairingReport, pair_components
from .poset import (EquippedPoset, ParameterError, PosetError, ValidationReport, Violation,
                    augment, load_poset, min_equipment_closure, parse_poset, validate)

__version__ = "0.1.0"

__all__ = [
    "AlgebraModel", "ArArrow", "ArVertex", "ComponentGraph", "EquippedPoset",
    "FINITE", "Flavor", "InjectiveProfile", "KnitError", "Label",
    "ModelError", "OracleError", "OracleReport", "PairingReport",
    "ParameterError", "PosetError", "RFamily", "RadicalInfo", "RatVec",
    "TRUNCATED", "Tower", "ValidationReport", "Violation", "augment",
    "bilinear", "build_family", "build_model", "default_tower", "gram_matrix",
    "injective_profiles", "is_hereditary", "knit", "load_poset",
    "min_equipment_closure", "oracle_hom_dim", "oracle_radical",
    "pair_components", "parse_poset", "projective_cd", "projective_udimF",
    "quadratic", "radical_info", "run_verification", "validate",
    "verify_admissible", "verify_dims",
]
