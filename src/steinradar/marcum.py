"""Classical heterodyne radar benchmark via the Marcum Q-function.

Q(x, y) = int_y^inf t exp(-(t^2+x^2)/2) I0(t x) dt is the tail of a Rician
density; the coherent-pulse + heterodyne receiver has
p_MD = 1 - Q(sqrt(2 gamma), sqrt(-2 ln p_FA)).  Both Q and its complement
are computed by their own positive-term series (no 1 - Q cancellation), and
the mis-detection log-probability has a dedicated log-domain route that
stays finite at large SNR.

That route, heterodyne_log_pmd, sums its series in numpy blocks of at most
_BLOCK terms, so its memory is O(_BLOCK) however far the series runs, and
stops on an explicit bound on the remaining tail rather than on a count of
declining terms.  marcum_q, on numpy arrays too (running products and
compensated prefix sums), shares no code with it: its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt

import numpy as np

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
    if not (t >= 0.0):
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


# The heterodyne series peaks near term max(b, sqrt(a b)); past _MAX_TERMS
# it is refused up front.  It is summed in blocks of at most _BLOCK terms, so
# memory stays O(_BLOCK) however long the series runs.
_MAX_TERMS = 10**7
_BLOCK = 1 << 16
# ln of the dropped tail relative to the running total at which the series
# stops: e^-46 ~ 1e-20, below the rounding of the sum.
_LN_TAIL_TOL = -46.0

# ln n! from an exact lgamma table below _STIRLING_FROM, which covers the
# whole series up to gamma ~ 1e6 at p_fa = 1e-3, and the Stirling series
# beyond, whose first omitted term 1/(1188 n^9) is below 1e-35 there.
_STIRLING_FROM = 4096
_LN_FACT_TABLE = np.array([lgamma(n + 1.0) for n in range(_STIRLING_FROM)])
_HALF_LN_2PI = 0.5 * log(2.0 * math.pi)


def _ln_factorial(lo: int, hi: int) -> np.ndarray:
    """ln n! for n = lo, ..., hi - 1 (0 <= lo < hi)."""
    if hi <= _STIRLING_FROM:
        return _LN_FACT_TABLE[lo:hi]
    x = np.arange(max(lo, _STIRLING_FROM), hi, dtype=float)
    r = 1.0 / x
    r2 = r * r
    series = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))
    out = (x + 0.5) * np.log(x) - x + _HALF_LN_2PI + series
    if lo < _STIRLING_FROM:
        out = np.concatenate((_LN_FACT_TABLE[lo:], out))
    return out


def heterodyne_log_pmd(gamma: float, p_fa: float) -> float:
    """ln p_MD of the coherent-state + heterodyne receiver at SNR gamma.

    p_MD = P(sqrt(2 gamma), sqrt(-2 ln p_fa)) evaluated through the direct
    complement series in the log domain, so there is no 1 - Q cancellation
    and the result stays finite when p_MD underflows double precision.
    With a = gamma and b = -ln p_fa,

        ln p_MD = logsumexp_{j >= 1} [ln Pois_b(j) + ln F_a(j - 1)],

    F_a being the Poisson(a) cdf, built by a running log-sum-exp.  The
    terms are evaluated in numpy blocks of at most _BLOCK, carrying ln F_a
    and the total from block to block; the first block is sized from the
    peak so that one usually suffices.  The sum stops on a certificate:
    F_a(j)/F_a(j-1) <= 1 + a/j, so the term ratio t_(j+1)/t_j is at most
    r_J = b (J + a) / (J (J + 1)) for every j >= J, and once r_J < 1 the
    whole tail past J is at most t_J r_J / (1 - r_J), which must fall
    below e^_LN_TAIL_TOL of the total.
    Raises CapExceeded up front if the series would peak past _MAX_TERMS.
    """
    if not (0.0 <= gamma < math.inf):
        raise ValueError("gamma must be finite and >= 0")
    if not (0.0 < p_fa < 1.0):
        raise ValueError("p_fa must lie in (0, 1)")
    a = gamma
    b = -log(p_fa)
    peak = max(b, sqrt(a * b))
    if peak > _MAX_TERMS:
        raise CapExceeded(f"heterodyne series peaks past {_MAX_TERMS:g} terms "
                          f"(gamma={gamma:g}, p_fa={p_fa:g})")
    ln_a = log(a) if a > 0.0 else 0.0
    ln_b = log(b)
    size = min(_BLOCK, int(peak + 12.0 * sqrt(peak)) + 64)
    j0 = 1
    while True:
        i = np.arange(j0 - 1, j0 + size)          # every j - 1 and the last j
        ln_fact = _ln_factorial(j0 - 1, j0 + size)
        terms = -b + i[1:] * ln_b - ln_fact[1:]    # ln Pois_b(j)
        if a > 0.0:                                # else F_a = 1 for j >= 1
            ln_pois_a = -a + i[:-1] * ln_a - ln_fact[:-1]    # ln Pois_a(j - 1)
            if j0 > 1:                             # carry in ln F_a(j0 - 2)
                ln_pois_a[0] = np.logaddexp(ln_cum_a, ln_pois_a[0])
            ln_cum = np.logaddexp.accumulate(ln_pois_a)
            ln_cum_a = ln_cum[-1]
            terms += ln_cum
        ln_t_last = terms[-1]
        if j0 > 1:                                 # carry in the earlier blocks
            terms[0] = np.logaddexp(total, terms[0])
        # a sequential logaddexp: each step rounds relative to the running
        # total, not to the largest term as a shifted sum of exps would
        total = np.logaddexp.accumulate(terms)[-1]
        last = j0 + size - 1
        r = b * (last + a) / (last * (last + 1.0))
        if r < 1.0 and ln_t_last + log(r) - log1p(-r) < total + _LN_TAIL_TOL:
            return float(total)
        j0 = last + 1
        if j0 > 2 * _MAX_TERMS:  # pragma: no cover - the tail bound ends it first
            raise CapExceeded(f"heterodyne series did not end by term {j0}")
        size = _BLOCK
