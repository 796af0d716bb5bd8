"""Classical heterodyne radar benchmark via the Marcum Q-function.

Q(x, y) = int_y^inf t exp(-(t^2+x^2)/2) I0(t x) dt is the tail of a Rician
density; the coherent-pulse + heterodyne receiver has
p_MD = 1 - Q(sqrt(2 gamma), sqrt(-2 ln p_FA)).  Both Q and its complement
are computed by their own positive-term series (no 1 - Q cancellation), and
the mis-detection log-probability has a dedicated log-domain route that
stays finite at large SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt

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


_I0_CROSSOVER = 19.0


def bessel_i0_scaled(t: float) -> float:
    """Exponentially scaled modified Bessel function e^-t I0(t).

    Power series below the crossover (all terms positive, so the scaled
    result is correct to machine epsilon), asymptotic series in 1/(8t)
    beyond, where its optimally-truncated remainder is below 1e-15.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t < _I0_CROSSOVER:
        q = 0.25 * t * t
        term = 1.0
        s = 1.0
        k = 1
        while True:
            term *= q / (k * k)
            s += term
            if term < s * 1e-18:
                break
            k += 1
        return exp(-t) * s
    u = 1.0 / (8.0 * t)
    term = 1.0
    s = 1.0
    for k in range(1, 40):
        nxt = term * (2.0 * k - 1.0) ** 2 * u / k
        if nxt >= term:        # asymptotic series started diverging
            break
        term = nxt
        s += term
        if term < s * 1e-18:
            break
    return s / sqrt(2.0 * math.pi * t)


def _poisson_ln_pmf(mu: float, ln_mu: float, i: int) -> float:
    return -mu + i * ln_mu - lgamma(i + 1.0)


def _poisson_window(mu: float, lo: int, hi: int) -> list[float]:
    """Poisson pmf over [lo, hi], normalized to unit mass on the window.

    Values come from the exact multiplicative recurrence outward from the
    mode, so no log-domain cancellation enters even at mu ~ 1e12; the
    window is chosen wide enough that the outside mass is ~e^-70.
    """
    size = hi - lo + 1
    if mu == 0.0:
        return [1.0 if i == 0 else 0.0 for i in range(lo, hi + 1)]
    raw = [0.0] * size
    i0 = min(max(int(mu), lo), hi)
    raw[i0 - lo] = 1.0
    cur = 1.0
    for i in range(i0 + 1, hi + 1):
        cur *= mu / i
        raw[i - lo] = cur
    cur = 1.0
    for i in range(i0 - 1, lo - 1, -1):
        cur *= (i + 1) / mu
        raw[i - lo] = cur
    total = math.fsum(raw)
    return [r / total for r in raw]


def marcum_q(args: MarcumArgs) -> tuple[float, float]:
    """Marcum Q(x, y) and its complement P = 1 - Q, each by its own route.

    With a = x^2/2 and b = y^2/2,
        Q = sum_i Pois_a(i) * P[Pois_b <= i]
        P = sum_j Pois_b(j) * P[Pois_a <= j-1]
    (the second is the first with the summation order swapped), so both are
    positive-term series sharing the same Poisson building blocks and
    q + p = 1 holds to the truncation tails.
    """
    a = 0.5 * args.x * args.x
    b = 0.5 * args.y * args.y
    if b == 0.0:
        return 1.0, 0.0

    # Each Poisson only matters inside its own bulk; iterate over the union
    # of the two windows and carry the cumulative sums across the gap
    # (below a bulk the cumulative is 0 to double precision, above it 1).
    def window(mu):
        half = 12.0 * sqrt(mu + 1.0) + 60.0
        return max(0, int(mu - half)), int(mu + half)

    lo_a, hi_a = window(a)
    lo_b, hi_b = window(b)
    pa_win = _poisson_window(a, lo_a, hi_a)
    pb_win = _poisson_window(b, lo_b, hi_b)
    (lo1, hi1), (lo2, hi2) = sorted([(lo_a, hi_a), (lo_b, hi_b)])
    if hi1 >= lo2:
        spans = [(lo1, max(hi1, hi2))]
    else:
        spans = [(lo1, hi1), (lo2, hi2)]

    # compensated cumulative streams keep the long sums at round-off
    cum_a = carry_a = 0.0   # P[Pois_a <= i-1] entering iteration i
    cum_b = carry_b = 0.0   # P[Pois_b <= i] after adding pb_i
    q_terms = []
    p_terms = []
    for lo, hi in spans:
        for i in range(lo, hi + 1):
            pa = pa_win[i - lo_a] if lo_a <= i <= hi_a else 0.0
            pb = pb_win[i - lo_b] if lo_b <= i <= hi_b else 0.0
            p_terms.append(pb * cum_a)
            y = pa + carry_a
            t = cum_a + y
            carry_a = y - (t - cum_a)
            cum_a = t
            y = pb + carry_b
            t = cum_b + y
            carry_b = y - (t - cum_b)
            cum_b = t
            q_terms.append(pa * cum_b)
    return min(math.fsum(q_terms), 1.0), min(math.fsum(p_terms), 1.0)


def _logaddexp(u: float, v: float) -> float:
    if u == -math.inf:
        return v
    if v == -math.inf:
        return u
    if u < v:
        u, v = v, u
    return u + log1p(exp(v - u))


# The heterodyne series peaks near term sqrt(a b) and ends soon after.
_MAX_TERMS = 10**7


def heterodyne_log_pmd(gamma: float, p_fa: float) -> float:
    """ln p_MD of the coherent-state + heterodyne receiver at SNR gamma.

    p_MD = P(sqrt(2 gamma), sqrt(-2 ln p_fa)) evaluated through the direct
    complement series in the log domain, so there is no 1 - Q cancellation
    and the result stays finite when p_MD underflows double precision.
    Raises CapExceeded up front if the series would peak past _MAX_TERMS.
    """
    if not (0.0 <= gamma < math.inf):
        raise ValueError("gamma must be finite and >= 0")
    if not (0.0 < p_fa < 1.0):
        raise ValueError("p_fa must lie in (0, 1)")
    a = gamma
    b = -log(p_fa)
    if sqrt(a * b) > _MAX_TERMS:
        raise CapExceeded(f"heterodyne series peaks past {_MAX_TERMS:g} terms "
                          f"(gamma={gamma:g}, p_fa={p_fa:g})")
    ln_a = log(a) if a > 0.0 else -math.inf
    ln_b = log(b)
    ln_cum_a = 0.0 if a == 0.0 else _poisson_ln_pmf(a, ln_a, 0)
    total = -math.inf
    peak = -math.inf
    j_min = int(b + 10.0 * sqrt(b) + 10.0)
    decline = 0
    j = 1
    while True:
        term = _poisson_ln_pmf(b, ln_b, j) + ln_cum_a
        total = _logaddexp(total, term)
        if term > peak:
            peak = term
            decline = 0
        else:
            decline += 1
        if j >= j_min and decline >= 3 and term < total - 46.0:
            break
        if j > 2 * _MAX_TERMS:  # pragma: no cover - ends soon after the peak
            raise CapExceeded(f"heterodyne series did not end by term {j}")
        if a > 0.0:
            ln_cum_a = _logaddexp(ln_cum_a, _poisson_ln_pmf(a, ln_a, j))
        j += 1
    return total
