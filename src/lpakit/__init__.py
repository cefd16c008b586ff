"""Finite-truncation diagnostics for least-squares projection approximations.

The package answers, for a concrete operator truncation and a sequence of
approximation subspaces, the questions that decide convergence of the
projected least-squares scheme: does the subspace sequence capture the
kernel, does the offset angle between the two relevant image subspaces stay
away from a right angle, and do the per-instance error bounds hold.
"""

from .analysis import (
    LpaDiagnostics,
    LpaInstance,
    OffsetAngle,
    PreconditionError,
    TruncationFactor,
    coercive_bound_check,
    diagnose,
    du_divergence_check,
    error_bound_check,
    error_identity_check,
    kernel_core,
    make_lpa,
    norm_tn_dag_t,
    offset_angle,
    tn_pinv_apply,
    zero_offset_characterization,
)
from .config import (
    ConfigError,
    OutputSpec,
    ScanConfig,
    Tolerances,
    load_scan_config,
    resolve_m,
    scan_config_from_dict,
)
from .linalg import (
    Subspace,
    canonical_angles,
    deficiency,
    gap,
    kernel_basis,
    oblique_projector_norm_identity,
    orthonormal_range,
    projector,
    pseudo_inverse,
    svd,
)
from .operators import (
    FAMILY_NAMES,
    OperatorFamily,
    SingularSystem,
    du_bad_y,
    du_vector_e,
    from_singular_system,
    get_family,
    random_finite_kernel,
)
from .scan import (
    CSV_HEADER,
    ScanNumericalError,
    ScanReport,
    render_csv,
    render_json,
    run_scan,
    write_outputs,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "FAMILY_NAMES",
    "LpaDiagnostics",
    "LpaInstance",
    "OffsetAngle",
    "OperatorFamily",
    "OutputSpec",
    "PreconditionError",
    "ScanConfig",
    "ScanNumericalError",
    "ScanReport",
    "SingularSystem",
    "Subspace",
    "Tolerances",
    "TruncationFactor",
    "canonical_angles",
    "coercive_bound_check",
    "deficiency",
    "diagnose",
    "du_bad_y",
    "du_divergence_check",
    "du_vector_e",
    "error_bound_check",
    "error_identity_check",
    "from_singular_system",
    "gap",
    "get_family",
    "kernel_basis",
    "kernel_core",
    "load_scan_config",
    "make_lpa",
    "norm_tn_dag_t",
    "oblique_projector_norm_identity",
    "offset_angle",
    "orthonormal_range",
    "projector",
    "pseudo_inverse",
    "random_finite_kernel",
    "resolve_m",
    "render_csv",
    "render_json",
    "run_scan",
    "scan_config_from_dict",
    "svd",
    "tn_pinv_apply",
    "write_outputs",
    "zero_offset_characterization",
    "__version__",
]
