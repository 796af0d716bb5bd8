"""Classical heterodyne radar benchmark via the Marcum Q-function.

Q(x, y) = int_y^inf t exp(-(t^2+x^2)/2) I0(t x) dt is the tail of a Rician
density; the coherent-pulse + heterodyne receiver has
p_MD = 1 - Q(sqrt(2 gamma), sqrt(-2 ln p_FA)).

heterodyne_log_pmd reads p_MD as a Skellam cdf and takes it, or its
complement, as one log tail from displaced._skellam_ln_tail, so that it
stays finite at large SNR.  marcum_q computes Q and 1 - Q by their own
positive-term Poisson series on numpy arrays (running products and
compensated prefix sums); it shares no code with that route (only the
constant K_MAX_CAP): its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, log, log1p, sqrt

import numpy as np

from .displaced import K_MAX_CAP, _skellam_ln_tail
from .errors import CapExceeded


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


def _poisson_window(mu: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pmf over [lo, hi] and its cdf as _cdf lays it out, both
    normalized to unit mass on the window by the last entry of one _cdf.

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
    cdf = _cdf(raw)
    return raw / cdf[-1], cdf / cdf[-1]


def _cdf(pmf: np.ndarray) -> np.ndarray:
    """[0, P(<= lo), ..., P(<= hi)] for a pmf over [lo, hi]: running sums plus
    the running sum of each step's rounding error, recovered exactly by TwoSum
    (as in Ogita, Rump & Oishi's Sum2), each within about an ulp of exact."""
    s = np.zeros(len(pmf) + 1)
    np.add.accumulate(pmf, out=s[1:])
    bb = s[2:] - s[1:-1]
    e = (s[1:-1] - (s[2:] - bb)) + (pmf[1:] - bb)
    s[2:] += np.cumsum(e)
    return s


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
    last entry above.  The two windows' cdfs, whose last entries are their
    normalising totals, and the two series are compensated prefix sums,
    four in all, each within about an ulp of the correctly rounded sum for
    these nonnegative terms.  CapExceeded, judged on the half-widths before
    any window is formed, where a window would reach K_MAX_CAP: for every
    finite x or y from about 11,800 (with y > 0).
    """
    a = 0.5 * args.x * args.x
    b = 0.5 * args.y * args.y
    if b == 0.0:
        return 1.0, 0.0

    half_a, half_b = 12.0 * sqrt(a + 1.0) + 60.0, 12.0 * sqrt(b + 1.0) + 60.0
    if 2.0 * max(half_a, half_b) >= K_MAX_CAP:
        raise CapExceeded(f"Poisson window wider than K_MAX_CAP={K_MAX_CAP} "
                          f"(x={args.x:g}, y={args.y:g})")
    lo_a, hi_a = max(0, int(a - half_a)), int(a + half_a)
    lo_b, hi_b = max(0, int(b - half_b)), int(b + half_b)
    (pa, ca), (pb, cb) = _poisson_window(a, lo_a, hi_a), _poisson_window(b, lo_b, hi_b)
    at_b = np.arange(lo_a - lo_b + 1, hi_a - lo_b + 2)
    at_a = np.arange(lo_b - lo_a, hi_b - lo_a + 1)
    # clamped in place, two ufunc calls each: np.clip's Python wrapper costs more
    cdf_b = cb[np.minimum(np.maximum(at_b, 0, out=at_b), len(pb), out=at_b)]
    cdf_a = ca[np.minimum(np.maximum(at_a, 0, out=at_a), len(pa), out=at_a)]
    return min(float(_cdf(pa * cdf_b)[-1]), 1.0), min(float(_cdf(pb * cdf_a)[-1]), 1.0)


def heterodyne_log_pmd(gamma: float, p_fa: float) -> float:
    """ln p_MD of the coherent-state + heterodyne receiver at SNR gamma.

    p_MD = P(sqrt(2 gamma), sqrt(-2 ln p_fa)) = P(X >= 1) for the Skellam
    difference X = N_b - N_a of N_a ~ Pois(a = gamma), N_b ~ Pois(b = -ln p_fa),
    third_moment's law, whose tails displaced._skellam_ln_tail sums.  The one
    of p_MD and Q = P(X <= 0) = P(-X >= 0) below 1/2 is summed (Gil, Segura &
    Temme, ACM TOMS 40:20, 2014): p_MD if a >= b, else Q, returning
    log1p(-Q), unless Q > 1/2.  So ln p_MD <= 0, finite where p_MD underflows.

    Error budget: the dropped tail is below e^-46 of the sum; ln P(0) rounds
    by a few eps (1 + (sqrt(a) - sqrt(b))^2); each term's exponent
    L_k + k ln rho by the _skellam_ln_tail bound on L_k, whose Perron seed
    is certified by its bracket, plus eps k |ln rho|; the sum by one ulp.
    Through log1p(-Q) the relative error of ln p_MD is at most twice that of
    Q.  No start or window caps the route: every finite gamma returns, in
    microseconds (gamma = 1.7e308 included).
    """
    if not (0.0 <= gamma < math.inf):
        raise ValueError("gamma must be finite and >= 0")
    if not (0.0 < p_fa < 1.0):
        raise ValueError("p_fa must lie in (0, 1)")
    if gamma == 0.0:
        return log1p(-p_fa)                        # p_MD = 1 - p_fa exactly
    a, b = gamma, -log(p_fa)
    if a < b:
        q = exp(_skellam_ln_tail(a, b, 0))
        if q <= 0.5:
            return log1p(-q)
    return _skellam_ln_tail(b, a, 1)
