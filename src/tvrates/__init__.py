"""tvrates: probability-metric distances with explicit-constant rate
certificates.

The toolkit computes weighted total-variation, total-variation and
q-Wasserstein distances between Gaussian-mixture laws (analytically, on
grids, and on weighted atom sets), measures polynomial and exponential decay
envelopes of densities and characteristic functions, and assembles fully
explicit empirical certificates of the bounds

    rho_p <= C * W_q^(1 - epsilon)          (polynomial-decay regime)
    rho_p <= C * W_q * |ln W_q|^3           (exponential-decay regime)

on analytic test families, together with a sweep harness that validates the
certified rates against measured ones.
"""

# Set before the submodule imports: harness stamps it into every report.
__version__ = "0.1.0"

from .bounds import (
    BoundCertificate,
    BoundParams,
    ConstantLedger,
    PairEvaluation,
    choose_l,
    exponential_rate_certificate,
    pointwise_certificate,
    polynomial_rate_certificate,
)
from .distributions import (
    AtomSet,
    GaussianMixture,
    GridDensity,
    SpaceGrid,
    common_grid,
    discretize,
    gaussian,
)
from .errors import (
    ConvergenceError,
    DecayError,
    MassDefectError,
    NumericalError,
    PreconditionError,
    ResolutionError,
    TvratesError,
)
from .harness import (
    Scenario,
    SweepReport,
    default_scenarios,
    emit_report,
    run_sweep,
)
from .spectral import (
    CharGrid,
    ExpEnvelopeTable,
    PolyEnvelopeTable,
    char_fn_grid,
    delta_p_char,
    density_derivative,
    exp_envelope,
    poly_envelope,
    weighted_diff_reconstruct,
)
from .transport import (
    DistanceResult,
    TransportPlan,
    fm_upper,
    ot_entropic,
    ot_exact,
    rho_p,
    tv_mass,
    wasserstein_1d,
)

__all__ = [
    "AtomSet",
    "BoundCertificate",
    "BoundParams",
    "CharGrid",
    "ConstantLedger",
    "ConvergenceError",
    "DecayError",
    "DistanceResult",
    "ExpEnvelopeTable",
    "GaussianMixture",
    "GridDensity",
    "MassDefectError",
    "NumericalError",
    "PairEvaluation",
    "PolyEnvelopeTable",
    "PreconditionError",
    "ResolutionError",
    "Scenario",
    "SpaceGrid",
    "SweepReport",
    "TransportPlan",
    "TvratesError",
    "char_fn_grid",
    "choose_l",
    "common_grid",
    "default_scenarios",
    "delta_p_char",
    "density_derivative",
    "discretize",
    "emit_report",
    "exp_envelope",
    "exponential_rate_certificate",
    "fm_upper",
    "gaussian",
    "ot_entropic",
    "ot_exact",
    "pointwise_certificate",
    "poly_envelope",
    "polynomial_rate_certificate",
    "rho_p",
    "run_sweep",
    "tv_mass",
    "wasserstein_1d",
    "weighted_diff_reconstruct",
]
