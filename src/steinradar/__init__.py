"""Finite-size detection-error bounds for coherent-state target detection.

The library covers the full pipeline: Gaussian-state relative-entropy
quantities (D, V), the third absolute log-likelihood moment T from the
Skellam law of the Fock-index difference, first/second/third-order bounds
on the mis-detection probability in asymmetric hypothesis testing, the
classical heterodyne Marcum-Q benchmark, and an SNR-scan driver with a CLI.
"""

from .bounds import (
    BERRY_ESSEEN_C,
    DetectionParams,
    MDBounds,
    error_exponent,
    first_order_log_pmd,
    inv_std_normal_cdf,
    lambda_bracket,
    refined_bracket,
    std_normal_cdf,
)
from .displaced import (
    ThirdMomentResult,
    TruncationPolicy,
    spectral_oracle,
    third_moment,
    transition_prob,
)
from .errors import (
    CapExceeded,
    ConsistencyError,
    DegenerateVariance,
    MassDeficit,
    ModeMismatch,
    SingularGibbs,
    SteinRadarError,
)
from .gaussian import (
    GaussianState,
    RelEntStats,
    ThermalScenario,
    gibbs_matrix,
    rel_entropy,
    rel_entropy_variance,
    scenario_states,
    sigma_fn,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_closed_forms,
)
from .marcum import MarcumArgs, bessel_i0_scaled, heterodyne_log_pmd, marcum_q
from .scan import ScanConfig, ScanRow, emit, run_scan

__all__ = [
    "BERRY_ESSEEN_C",
    "CapExceeded",
    "ConsistencyError",
    "DegenerateVariance",
    "DetectionParams",
    "GaussianState",
    "MDBounds",
    "MarcumArgs",
    "MassDeficit",
    "ModeMismatch",
    "RelEntStats",
    "ScanConfig",
    "ScanRow",
    "SingularGibbs",
    "SteinRadarError",
    "ThermalScenario",
    "ThirdMomentResult",
    "TruncationPolicy",
    "bessel_i0_scaled",
    "emit",
    "error_exponent",
    "first_order_log_pmd",
    "gibbs_matrix",
    "heterodyne_log_pmd",
    "inv_std_normal_cdf",
    "lambda_bracket",
    "marcum_q",
    "refined_bracket",
    "rel_entropy",
    "rel_entropy_variance",
    "run_scan",
    "scenario_states",
    "sigma_fn",
    "spectral_oracle",
    "std_normal_cdf",
    "symplectic_eigenvalues",
    "symplectic_form",
    "thermal_closed_forms",
    "third_moment",
    "transition_prob",
]

__version__ = "0.1.0"
