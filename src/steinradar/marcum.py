"""Classical heterodyne radar benchmark via the Marcum Q-function.

Q(x, y) = int_y^inf t exp(-(t^2+x^2)/2) I0(t x) dt is the tail of a Rician
density; the coherent-pulse + heterodyne receiver has
p_MD = 1 - Q(sqrt(2 gamma), sqrt(-2 ln p_FA)).

heterodyne_log_pmd reads p_MD as a Skellam cdf and sums it, or its
complement, from the Bessel ratios of displaced's Miller recurrence, in
log form so that it stays finite at large SNR, and stops on an explicit
bound on the remaining tail.  marcum_q computes Q and 1 - Q by their own
positive-term Poisson series on numpy arrays (running products and
compensated prefix sums); it shares no code with that route: its
independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, log, log1p, sqrt

import numpy as np

from .displaced import _asinh_edge, _bessel_ln_ratios, _miller_start, _skellam_ln_p0, _sum


@dataclass(frozen=True)
class MarcumArgs:
    """Noncentrality and threshold arguments of Q(x, y), both >= 0."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x >= 0.0 and math.isfinite(self.x)):
            raise ValueError("x must be finite and >= 0")
        if not (self.y >= 0.0 and math.isfinite(self.y)):
            raise ValueError("y must be finite and >= 0")


def _poisson_window(mu: float, lo: int, hi: int) -> np.ndarray:
    """Poisson pmf over [lo, hi], normalized to unit mass on the window.

    Values come from the exact multiplicative recurrence outward from the
    mode, running products of mu/i upward and (i+1)/mu downward, so no
    log-domain cancellation enters even at mu ~ 1e12; the window is chosen
    wide enough that the outside mass is ~e^-70.
    """
    raw = np.zeros(hi - lo + 1)
    i0 = min(max(int(mu), lo), hi)             # mu = 0: i0 = lo = 0, raw[1:] = 0
    raw[i0 - lo] = 1.0
    raw[i0 - lo + 1 :] = np.multiply.accumulate(mu / np.arange(i0 + 1, hi + 1, dtype=np.float64))
    raw[: i0 - lo][::-1] = np.multiply.accumulate(np.arange(i0, lo, -1, dtype=np.float64) / mu)
    return raw / math.fsum(raw.tolist())


def _cdf(pmf: np.ndarray) -> np.ndarray:
    """[0, P(<= lo), ..., P(<= hi)] for a pmf over [lo, hi]: running sums plus
    the running sum of each step's rounding error, recovered exactly by TwoSum
    (as in Ogita, Rump & Oishi's Sum2), each within about an ulp of exact."""
    s = np.add.accumulate(pmf)
    bb = s[1:] - s[:-1]
    e = (s[:-1] - (s[1:] - bb)) + (pmf[1:] - bb)
    s[1:] += np.cumsum(e)
    return np.concatenate(([0.0], s))


def marcum_q(args: MarcumArgs) -> tuple[float, float]:
    """Marcum Q(x, y) and its complement P = 1 - Q, each by its own route.

    With a = x^2/2 and b = y^2/2,
        Q = sum_i Pois_a(i) * P[Pois_b <= i]
        P = sum_j Pois_b(j) * P[Pois_a <= j-1]
    (the second is the first with the summation order swapped), so both are
    positive-term series sharing the same Poisson building blocks and
    q + p = 1 holds to the truncation tails.  Each Poisson only matters
    inside its own window; each cdf is a compensated prefix sum over it,
    read at the other window's indices as 0 below its window and as its
    last entry above, and each series is summed by math.fsum.
    """
    a = 0.5 * args.x * args.x
    b = 0.5 * args.y * args.y
    if b == 0.0:
        return 1.0, 0.0

    def window(mu):
        half = 12.0 * sqrt(mu + 1.0) + 60.0
        return max(0, int(mu - half)), int(mu + half)

    (lo_a, hi_a), (lo_b, hi_b) = window(a), window(b)
    pa, pb = _poisson_window(a, lo_a, hi_a), _poisson_window(b, lo_b, hi_b)
    cdf_b = _cdf(pb)[np.clip(np.arange(lo_a - lo_b + 1, hi_a - lo_b + 2), 0, len(pb))]
    cdf_a = _cdf(pa)[np.clip(np.arange(lo_b - lo_a, hi_b - lo_a + 1), 0, len(pa))]
    return min(math.fsum((pa * cdf_b).tolist()), 1.0), min(math.fsum((pb * cdf_a).tolist()), 1.0)


_LN_TAIL_TOL = -46.0    # ln of the tail a sum may drop, relative to it: below its rounding


def _ln_skellam_side(z: float, ln_rho: float, first: int) -> float:
    """ln sum_(k >= first) t_k, t_k = rho^k I_k(z) / I_0(z), z > 0.  The ratio
    t_(k+1) / t_k = rho I_(k+1) / I_k falls with k, so past t_n, at
    q = t_n / t_(n-1) < 1, the tail is at most t_n q / (1 - q), which must
    fall below e^_LN_TAIL_TOL of the sum.  n starts where the integral of
    asinh(t/z) - ln rho from the largest term reaches that tolerance
    (I_k / I_(k-1) ~ exp(-asinh(k/z))), and doubles until the bound holds."""
    peak = max(first, z * math.sinh(ln_rho))   # the terms rise up to here
    n_hi = _asinh_edge(z, peak, -ln_rho, -_LN_TAIL_TOL)
    while True:
        ln_t = _bessel_ln_ratios(z, n_hi, _miller_start(z, n_hi))[first:]
        ln_t += ln_rho * np.arange(first, n_hi + 1)
        ln_s = log(_sum(np.exp(ln_t)))
        ln_q = ln_t[-1] - ln_t[-2]
        if ln_q < 0.0 and ln_t[-1] + ln_q - log(-math.expm1(ln_q)) < ln_s + _LN_TAIL_TOL:
            return ln_s
        n_hi *= 2


def heterodyne_log_pmd(gamma: float, p_fa: float) -> float:
    """ln p_MD of the coherent-state + heterodyne receiver at SNR gamma.

    p_MD = P(sqrt(2 gamma), sqrt(-2 ln p_fa)) = P(X >= 1) for the Skellam
    difference X = N_b - N_a of N_a ~ Pois(a = gamma), N_b ~ Pois(b = -ln p_fa),
    third_moment's law: with z = 2 sqrt(a b), P(X = k) = P(0) (b/a)^(k/2)
    I_|k|(z) / I_0(z), ln P(0) = ln(e^-z I_0(z)) - (sqrt(a) - sqrt(b))^2.
    The one of p_MD and Q = P(X <= 0) below 1/2 is summed (Gil, Segura &
    Temme, ACM TOMS 40:20, 2014): p_MD if a >= b, else Q, returning
    log1p(-Q), unless Q > 1/2.  So ln p_MD <= 0, finite where p_MD underflows.

    Error budget: the dropped tail is below e^-46 of the sum; ln P(0) rounds
    by a few eps (1 + (sqrt(a) - sqrt(b))^2); each term's exponent
    L_k + k ln rho by the _bessel_ln_ratios bound on L_k plus eps k |ln rho|;
    the sum by one ulp.  Through log1p(-Q) the relative error of ln p_MD is
    at most twice that of Q.  CapExceeded where the Bessel recurrence would
    start past K_MAX_CAP (gamma ~ 2e16 at p_fa = 1e-3).
    """
    if not (0.0 <= gamma < math.inf):
        raise ValueError("gamma must be finite and >= 0")
    if not (0.0 < p_fa < 1.0):
        raise ValueError("p_fa must lie in (0, 1)")
    if gamma == 0.0:
        return log1p(-p_fa)                        # p_MD = 1 - p_fa exactly
    a, b = gamma, -log(p_fa)
    z = 2.0 * sqrt(a) * sqrt(b)                    # never underflows
    ln_p0 = _skellam_ln_p0(b - a, a, b)
    ln_rho = 0.5 * (log(b) - log(a))
    if a < b:
        q = exp(ln_p0 + _ln_skellam_side(z, -ln_rho, 0))
        if q <= 0.5:
            return log1p(-q)
    return ln_p0 + _ln_skellam_side(z, ln_rho, 1)
