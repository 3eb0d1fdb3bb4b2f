"""Schrodinger propagator kernels on product cones with inverse-square
potentials: certified series evaluation, stationary-phase critical sets,
large- and small-argument envelopes, and quantitative verification.

Quick start::

    from conekernel import ConeParams, KernelPoint, eval_I
    params = ConeParams(rho=2/3, n=3, c=0.0)
    result = eval_I(params, KernelPoint(x=50.0, phi=3.14159))
    print(abs(result.value))
"""

from .asymptotics import (
    PrincipalTerm,
    dispersive_envelope,
    envelope_general,
    envelope_interior,
    principal_prediction,
    principal_terms,
)
from .critical_points import (
    BranchLabel,
    ClassificationRecord,
    CriticalDatum,
    classify,
    conjugate_frequencies,
    critical_data_to_json,
    critical_set,
    critical_set_union,
    is_resonant_rho,
    q_bound,
)
from .errors import (
    CapacityError,
    DomainError,
    InputError,
    PrecisionError,
    UnsupportedRegimeError,
)
from .harness import (
    CSV_HEADER,
    BoundReport,
    FitResult,
    ScanRow,
    ScanTable,
    csv_lines,
    dominant_frequency,
    fit_decay_exponent,
    make_grid,
    octave_maxima,
    scan,
    verify_bound,
    write_csv,
)
from .kernel_series import (
    KernelPoint,
    PhysicalPoint,
    SeriesResult,
    eval_I,
    eval_I_multi,
    eval_kernel,
    kappa,
    kernel_prefactor,
    truncation_index,
)
from .specfun import (
    DEFAULT_TOL,
    Tolerance,
    acos_unit,
    bessel_j,
    gegenbauer_all,
    log_gamma,
)
from .spectrum import ConeParams, nu_many

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and spectrum
    "ConeParams",
    "nu_many",
    # special functions
    "Tolerance",
    "DEFAULT_TOL",
    "bessel_j",
    "gegenbauer_all",
    "log_gamma",
    "acos_unit",
    # series evaluation
    "KernelPoint",
    "PhysicalPoint",
    "SeriesResult",
    "eval_I",
    "eval_I_multi",
    "eval_kernel",
    "kernel_prefactor",
    "kappa",
    "truncation_index",
    # critical sets
    "BranchLabel",
    "CriticalDatum",
    "ClassificationRecord",
    "critical_set",
    "critical_set_union",
    "conjugate_frequencies",
    "classify",
    "q_bound",
    "is_resonant_rho",
    "critical_data_to_json",
    # asymptotics and envelopes
    "PrincipalTerm",
    "principal_terms",
    "principal_prediction",
    "envelope_interior",
    "envelope_general",
    "dispersive_envelope",
    # measurement harness
    "ScanRow",
    "CSV_HEADER",
    "ScanTable",
    "FitResult",
    "BoundReport",
    "make_grid",
    "scan",
    "csv_lines",
    "write_csv",
    "octave_maxima",
    "fit_decay_exponent",
    "dominant_frequency",
    "verify_bound",
    # errors
    "DomainError",
    "PrecisionError",
    "CapacityError",
    "UnsupportedRegimeError",
    "InputError",
]
