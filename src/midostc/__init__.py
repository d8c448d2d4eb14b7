"""Full-rate space-time codes for four transmit and two receive antennas.

The package builds 4x4 codeword matrices from crossed-product algebras
over biquadratic number fields, certifies the underlying algebraic
conditions exactly, and provides a reduced-complexity decoder whose
output provably matches exhaustive maximum likelihood.
"""

from .numberfield import ContextMismatchError, FieldContext, FieldElement
from .algebra import (
    CodeParams,
    ConditionsReport,
    DegenerateAlgebraError,
    DivisionCertificate,
    UnsupportedBranchError,
    UnsupportedFormError,
    build_params,
    catalog,
    catalog_entry,
    derive_ab,
    division_check,
    division_table,
    normalized_codeword,
    permuted_representation,
    representation,
    representation_det_exact,
)
from .codebook import (
    DispersionCode,
    MinDetResult,
    SymbolBasis,
    UnsupportedBasisError,
    UnsupportedVariantError,
    build_code,
    c4_transform,
    encode,
    make_basis,
    min_det_search,
)
from .fastdecode import (
    BudgetExceededError,
    DecodeResult,
    GroupStructure,
    StructureInvalidError,
    adjacency,
    conditional_group_decode,
    detect_groups,
    hurwitz_radon,
    ml_exhaustive,
    pam_levels,
    real_channel,
    stack_real,
)
from .channel import (
    WerRecord,
    simulate_wer,
    snr_to_sigma2,
    wilson_interval,
    write_wer_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ContextMismatchError", "FieldContext", "FieldElement",
    "CodeParams", "ConditionsReport", "DegenerateAlgebraError",
    "DivisionCertificate", "UnsupportedBranchError", "UnsupportedFormError",
    "build_params", "catalog", "catalog_entry", "derive_ab", "division_check",
    "division_table", "normalized_codeword", "permuted_representation",
    "representation", "representation_det_exact",
    "DispersionCode", "MinDetResult", "SymbolBasis",
    "UnsupportedBasisError", "UnsupportedVariantError",
    "build_code", "c4_transform", "encode", "make_basis", "min_det_search",
    "BudgetExceededError", "DecodeResult", "GroupStructure",
    "StructureInvalidError", "adjacency", "conditional_group_decode",
    "detect_groups", "hurwitz_radon", "ml_exhaustive", "pam_levels",
    "real_channel", "stack_real",
    "WerRecord", "simulate_wer", "snr_to_sigma2", "wilson_interval", "write_wer_csv",
    "__version__",
]
