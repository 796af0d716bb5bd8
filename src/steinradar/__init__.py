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
    inv_std_normal_cdf,
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
    thermal_closed_forms,
)
from .marcum import MarcumArgs, heterodyne_log_pmd, marcum_q

__all__ = [
    "BERRY_ESSEEN_C",
    "CapExceeded",
    "ConsistencyError",
    "DegenerateVariance",
    "DetectionParams",
    "GaussianState",
    "MDBounds",
    "MarcumArgs",
    "RelEntStats",
    "ScanConfig",
    "ScanRow",
    "SingularGibbs",
    "SteinRadarError",
    "ThermalScenario",
    "ThirdMomentResult",
    "TruncationPolicy",
    "emit",
    "error_exponent",
    "gibbs_matrix",
    "heterodyne_log_pmd",
    "inv_std_normal_cdf",
    "marcum_q",
    "refined_bracket",
    "rel_entropy",
    "rel_entropy_variance",
    "run_scan",
    "scenario_states",
    "spectral_oracle",
    "std_normal_cdf",
    "thermal_closed_forms",
    "third_moment",
    "transition_prob",
]

__version__ = "0.1.0"

# The scan module loads on first use, so that importing the library does not
# pull in argparse and json, and `python -m steinradar.scan` finds
# steinradar.scan not yet imported.
_SCAN_NAMES = ("ScanConfig", "ScanRow", "emit", "run_scan")


def __getattr__(name):
    if name in _SCAN_NAMES:
        from . import scan
        return getattr(scan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
