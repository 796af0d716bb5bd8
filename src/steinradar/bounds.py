"""Finite-size bounds on the mis-detection probability.

Given the relative-entropy moments (D, V, T) of the two hypothesis states
and the test parameters (false-alarm level, copy count M, Berry-Esseen
constant C), this module produces the first-order exponential decay, the
second-order bracket around it, and the Berry-Esseen-corrected bracket with
its validity thresholds.  Every probability is carried as a natural log end
to end: the interesting regimes have p_MD ~ e^-4700, far below the floating
range, and only the exponents are ever plotted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import log, sqrt
from statistics import NormalDist

from .errors import DegenerateVariance
from .gaussian import RelEntStats

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)

BERRY_ESSEEN_C = 0.4748


@dataclass(frozen=True)
class DetectionParams:
    """Test parameters: false-alarm probability, copy count, BE constant."""

    p_fa: float
    m: int
    c: float = BERRY_ESSEEN_C

    def __post_init__(self):
        if not (0.0 < self.p_fa < 1.0):
            raise ValueError("p_fa must lie in (0, 1)")
        if not (isinstance(self.m, numbers.Integral) and 1 <= self.m <= 2**53):
            raise ValueError("m must be an integer in [1, 2^53]")
        if not (0.0 < self.c <= BERRY_ESSEEN_C):
            raise ValueError(f"c must lie in (0, {BERRY_ESSEEN_C}]")


@dataclass(frozen=True)
class MDBounds:
    """Log-domain bounds on p_MD at each expansion order.

    Sides of the refined bracket that fall outside their validity domain
    (theta_u not in (0,1) for the upper side, theta_l not in (0,1) for the
    lower) are None with the matching flag False - never a fabricated
    number.  log_lambda_lower is exactly log_lambda_upper - 2 ln M.
    """

    log_first_order: float
    log_lambda_upper: float
    log_lambda_lower: float
    theta_l: float
    theta_u: float
    refined_upper_valid: bool
    refined_lower_valid: bool
    log_refined_upper: float | None = None
    log_refined_lower: float | None = None


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function, which keeps
    the lower tail (NormalDist.cdf goes through erf and loses it)."""
    return 0.5 * math.erfc(-x / _SQRT2)


_STD_NORMAL = NormalDist()


def inv_std_normal_cdf(eps: float) -> float:
    """Inverse standard normal CDF, Wichura's AS241 via statistics.NormalDist
    (relative error near 1e-16 across (0, 1))."""
    if not (0.0 < eps < 1.0):
        raise ValueError("argument must lie in (0, 1)")
    return _STD_NORMAL.inv_cdf(eps)


def first_order_log_pmd(d: float, params: DetectionParams) -> float:
    """First-order decay ln p_MD = -M D."""
    if not (0.0 <= d < math.inf):
        raise ValueError("d must be finite and >= 0")
    return -params.m * d


def lambda_bracket(d: float, v: float, params: DetectionParams) -> tuple[float, float]:
    """Second-order bracket (ln lower, ln upper) on p_MD.

    ln upper = -M d - sqrt(M v) * Phi^-1(p_fa); the lower bound sits exactly
    2 ln M below it.  Note Phi^-1(p_fa) < 0 for small p_fa, so the
    second-order term weakens the first-order exponent.
    """
    if not (0.0 <= d < math.inf and 0.0 <= v < math.inf):
        raise ValueError("d and v must be finite and >= 0")
    ln_upper = -params.m * d - sqrt(params.m * v) * inv_std_normal_cdf(params.p_fa)
    return ln_upper - 2.0 * log(params.m), ln_upper


def refined_bracket(stats: RelEntStats, params: DetectionParams) -> MDBounds:
    """Berry-Esseen-corrected bracket on p_MD with validity thresholds.

    theta_u = p_fa - C T / (sqrt(M) V^(3/2)) and
    theta_l = p_fa + (C T / V^(3/2) + 2) / sqrt(M) shift the false-alarm
    argument of Phi^-1; each side is emitted only while its theta lies in
    (0, 1), otherwise that side is flagged invalid and left unset (the
    matching log field is None).  The first-order and second-order fields
    are always populated.
    """
    if stats.v <= 0.0:
        raise DegenerateVariance("refined bracket requires v > 0")
    if stats.t is None:
        raise ValueError("refined bracket requires the third moment t")
    if not (0.0 <= stats.t < math.inf):
        raise ValueError("t must be finite and >= 0")
    m = params.m
    sqrt_m = sqrt(m)
    try:
        ratio = params.c * stats.t / stats.v**1.5
    except OverflowError:
        raise ValueError("v^(3/2) is beyond the float range") from None
    theta_u = params.p_fa - ratio / sqrt_m
    theta_l = params.p_fa + (ratio + 2.0) / sqrt_m
    log_first = first_order_log_pmd(stats.d, params)
    log_lambda_lower, log_lambda_upper = lambda_bracket(stats.d, stats.v, params)
    sqrt_mv = sqrt(m * stats.v)

    upper_valid = 0.0 < theta_u < 1.0
    lower_valid = 0.0 < theta_l < 1.0
    log_refined_upper = (
        log_first - sqrt_mv * inv_std_normal_cdf(theta_u) if upper_valid else None
    )
    log_refined_lower = (
        -9.0 * _LN2 - 2.0 * log(m) + log_first - sqrt_mv * inv_std_normal_cdf(theta_l)
        if lower_valid
        else None
    )
    return MDBounds(
        log_first_order=log_first,
        log_lambda_upper=log_lambda_upper,
        log_lambda_lower=log_lambda_lower,
        theta_l=theta_l,
        theta_u=theta_u,
        refined_upper_valid=upper_valid,
        refined_lower_valid=lower_valid,
        log_refined_upper=log_refined_upper,
        log_refined_lower=log_refined_lower,
    )


def error_exponent(log_pmd: float, m: int) -> float:
    """Per-copy error exponent -ln(p_MD) / M."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return -log_pmd / m
