"""Displaced-number-state transition probabilities and log-likelihood moments.

For a thermal state hit by a phase-space displacement, the joint distribution
p(k, l) = gamma_k |<k|D(beta)|l>|^2 drives every finite-size quantity beyond
second order: the log-likelihood ratio between the two detection hypotheses
is a function of k - l alone, and its third absolute central moment is the
input to the Berry-Esseen-corrected bounds.

third_moment uses the law of that difference directly: d = k - l is
Skellam(x nb, x (nb+1)), a difference of independent Poissons, whose pmf is
a ratio chain of Bessel functions I_n anchored at bessel_i0_scaled.  The
chain comes from Miller's backward recurrence, whose coefficients are all
positive: short recurrences run as a scalar loop, long ones in vectorised
blocks stitched at their edges.  _skellam_ln_tail sums the law's log tails
for marcum's heterodyne benchmark.  The support window is certified by a
Chernoff bound that covers the cubic-weighted tail, so the cost is linear in
the window width.  Its sums and both routes' captured-mass sums go through
_sum, a vectorised compensated summation within an ulp of math.fsum.

spectral_oracle is the independent cross-check: it sums D, V and T from the
transition probabilities themselves, and adds them with math.fsum rather
than _sum, so its moments share neither the masses nor the adder with
third_moment.  The transition probabilities involve associated Laguerre
polynomials whose binomial-sum definition cancels catastrophically at large
argument, so every evaluation here runs on a three-term recurrence, in
amplitude form A(n, m) = |<n+m|D|n>|, which keeps every value in [-1, 1].
One amplitude recurrence serves both: the public scalar transition_prob
reads one diagonal of it, and the double sum behind spectral_oracle sweeps
the diagonals |d| of third_moment's certified window at once, so both
routes sum over one support, checking the probability mass it captures
against a derived rounding allowance, on both sides of 1, rather than
trusting truncation blindly.  It refuses any index past K_MAX_CAP.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapExceeded, ConsistencyError, MassDeficit
from .gaussian import RelEntStats, ThermalScenario

_LN_TINY = log(1e-250)       # seed floor for underflowed diagonal starts
_RESCALE_AT = 1e100
_RESCALE_BY = 1e-150
_LN_RESCALE = -log(_RESCALE_BY)
_BLOCK_ROWS = 16             # _amplitude_rows: rows per block, and the rescale period
K_MAX_CAP = 200_000          # hard cap on every summation index and window width
_FSUM_BELOW = 512            # _sum: shorter arrays go to math.fsum over a list
_I0_CROSSOVER = 19.0         # bessel_i0_scaled: power series below, asymptotic beyond


@dataclass(frozen=True)
class TruncationPolicy:
    """Requested bound on neglected probability mass."""

    tail_tol: float = 1e-10

    def __post_init__(self):
        if not (2.0**-52 <= self.tail_tol < 1.0):   # 2^-52 resolves unit mass
            raise ValueError("tail_tol must lie in [2^-52, 1)")


def _sum(x: np.ndarray) -> float:
    """Sum of a 1-D float64 array, as accurate as summing in twice the
    working precision (Ogita, Rump & Oishi's Sum2, SIAM J. Sci. Comput.
    26:1955, 2005, vectorised).  Precondition: every element is finite, as
    the masses and weighted masses of this module are by construction.

    np.add.accumulate gives the sequential partial sums s_i, and Knuth's
    TwoSum recovers the rounding error of each step s_(i-1) + x_i exactly:
    with b = s_i - s_(i-1), e_i = (s_(i-1) - (s_i - b)) + (x_i - b).  The
    result is s_n + sum(e).  With u = 2^-53 and g_k = k u / (1 - k u),

        |result - sum(x)| <= u |sum(x)| + g_(n-1)^2 sum(|x|)

    (Ogita et al., Prop. 4.5; summing the e_i pairwise only tightens it), so
    for nonnegative terms the result is within one ulp of math.fsum.
    Arrays shorter than _FSUM_BELOW go to math.fsum over a list instead,
    which is correctly rounded and at that size cheaper than the kernel.
    """
    if len(x) < _FSUM_BELOW:
        return math.fsum(x.tolist())
    s = np.add.accumulate(x)
    bb = np.subtract(s[1:], s[:-1])
    e = np.subtract(s[1:], bb)
    np.subtract(s[:-1], e, out=e)
    np.subtract(x[1:], bb, out=bb)
    e += bb
    return float(s[-1] + np.sum(e))


def _amplitude_rows(x: float, m_lo: int, m_hi: int,
                    n_max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows n = 0, 1, ..., max(n_max, 1) of the amplitudes
    A(n, m) = |<n+m|D(beta)|n>| (up to sign), x = |beta|^2 > 0, on the
    diagonals m = m_lo..m_hi, in consecutive blocks of up to _BLOCK_ROWS rows.

    Each block is (blk, ls) with A(n, m) = blk[j, m - m_lo] e^ls[m - m_lo]
    for its j-th row.  The recurrence

        A(n+1, m) = alpha(n, m) A(n, m) - beta(n, m) A(n-1, m),
        alpha = (m+2n+1-x) / sqrt((n+1)(n+m+1)),
        beta = sqrt(n(n+m) / ((n+1)(n+m+1)))

    runs vectorized over the diagonals from the seeds
    A(0, m) = e^(-x/2) x^(m/2) / sqrt(m!).  Per block, alpha and beta are
    built as tables from sliding-window views of 1/sqrt(j), sqrt(j/(j+1))
    and j + m_lo + 1 - x (stepping 2 a row), with no gathers, so each row
    costs three ufunc calls on row views bound once.  ls <= 0 absorbs seeds far
    below the representable range, and at each block end the entries past
    _RESCALE_AT are scaled down into ls, then a new array (so a consumer may
    cache functions of it by identity).  The buffer is reused: read a block
    before drawing the next.  CapExceeded if n_max + m_hi passes K_MAX_CAP.
    """
    if n_max + m_hi > K_MAX_CAP:
        raise CapExceeded(f"required indices {n_max + m_hi} exceed K_MAX_CAP={K_MAX_CAP} (x={x})")
    marr = np.arange(m_lo, m_hi + 1, dtype=np.float64)
    lg = np.array([lgamma(m + 1.0) for m in range(m_lo, m_hi + 1)])
    ln_a0 = -0.5 * x + 0.5 * marr * log(x) - 0.5 * lg
    ls = np.where(ln_a0 < _LN_TINY, ln_a0 - _LN_TINY, 0.0)
    jmax, n_last = n_max + m_hi + 2, max(n_max, 1)
    n_blk = min(_BLOCK_ROWS, n_last - 1)       # the most rows a block holds
    buf = np.empty((n_blk + 2, len(marr)))     # rows n-1, n, then the block
    buf[0] = np.exp(ln_a0 - ls)
    buf[1] = buf[0] * (1.0 + marr - x) / np.sqrt(marr + 1.0)

    coef = np.zeros((3, max(jmax + 1, 2 * n_last + len(marr))))
    rsq, gr, v = coef                          # 1/sqrt(j), sqrt(j / (j+1)), j + m_lo + 1 - x
    sq = np.sqrt(np.arange(jmax + 1, dtype=np.float64))
    rsq[1 : jmax + 1] = 1.0 / sq[1:]
    gr[:jmax] = sq[:jmax] * rsq[1 : jmax + 1]
    v[:] = np.arange(len(v), dtype=np.float64) + (m_lo + 1.0 - x)
    rsq_w, gr_w, v_w = sliding_window_view(coef, len(marr), axis=1)   # rsq_w[j] = rsq[j : j+width]
    v_w = v_w[::2]                             # v_w[n] = m + 2n + 1 - x over the diagonals
    (alpha, beta), t = np.empty((2, n_blk, len(marr))), np.empty(len(marr))
    rows, al, be = list(buf), list(alpha), list(beta)   # row views, bound once
    n, first, k = 1, 0, _BLOCK_ROWS - 2
    while True:                                # the block holds rows n+1..n+k
        k = min(k, n_last - n)
        a, bt = alpha[:k], beta[:k]
        np.multiply(v_w[n : n + k], rsq_w[n + 1 + m_lo : n + 1 + m_lo + k], out=a)
        a *= rsq[n + 1 : n + 1 + k, None]
        np.multiply(gr_w[n + m_lo : n + m_lo + k], gr[n : n + k, None], out=bt)
        for j in range(k):
            np.multiply(al[j], rows[j + 1], out=rows[j + 2])
            np.multiply(be[j], rows[j], out=t)
            np.subtract(rows[j + 2], t, out=rows[j + 2])
        yield buf[first : k + 2], ls
        n += k
        if n == n_last:
            return
        buf[:2] = buf[k : k + 2]
        first, k = 2, _BLOCK_ROWS
        if np.abs(buf[1], out=t).max() > _RESCALE_AT:
            idx = t > _RESCALE_AT
            buf[:2] *= np.where(idx, _RESCALE_BY, 1.0)
            ls = ls + np.where(idx, _LN_RESCALE, 0.0)


def transition_prob(k: int, l: int, x: float) -> float:
    """|<k|D(beta)|l>|^2 with x = |beta|^2, symmetric in k <-> l.

    Row min(k, l) of _amplitude_rows on the single diagonal |k - l|, taken
    in log form ln p = 2 (ln|b| + ls), so nothing overflows.  Returns 0.0
    below the double-precision underflow threshold.  Two cases skip the
    sweep: x = 0 (the Kronecker delta) and x >= 32 max(k, l) + 2980, where a
    Chernoff bound puts p below e^-745.  ValueError unless k and l are
    integers >= 0 and x is finite and >= 0; CapExceeded if the sweep would
    pass K_MAX_CAP, that is if max(k, l) > K_MAX_CAP.
    """
    if not all(isinstance(i, numbers.Integral) and i >= 0 for i in (k, l)):
        raise ValueError("Fock indices must be integers >= 0")
    k, l = int(k), int(l)
    if not (0.0 <= x < math.inf):
        raise ValueError("x must be finite and >= 0")
    if x == 0.0:
        return 1.0 if k == l else 0.0
    # With l >= k (symmetry) and N the photon number of D|l>, p <= 2^k E[2^-N]
    # = 2^(k-l) e^(-x/2) L_l(-x/2) <= exp(sqrt(2 l x) - x/2) <= e^(-x/4) here.
    if x >= 32 * max(k, l) + 2980:
        return 0.0
    n, m = (k, l - k) if k <= l else (l, k - l)
    for blk, ls in _amplitude_rows(x, m, m, n):
        pass                                   # row n ends the last block (n = 0: row 1 does)
    b = blk[-2 if n == 0 else -1, 0]
    ln_p = 2.0 * (log(abs(b)) + ls[0]) if b else -math.inf
    return min(exp(ln_p), 1.0) if ln_p >= -745.0 else 0.0


def _thermal_cutoff(nb: float, tail_tol: float) -> int:
    """Smallest K with thermal tail (nb/(nb+1))^(K+1) <= tail_tol / 2."""
    lnw = -log1p(1.0 / nb)
    k = math.ceil(log(tail_tol / 2.0) / lnw) - 1
    return max(k, 0)


def _sweep_rows(nb: float, tail_tol: float) -> int:
    """Rows n_max of the _difference_masses sweep: the thermal cutoff plus a
    margin, since the cubic weights amplify the n > k_th tail by roughly
    ((2 k_th + 1) / (2 nb + 1))^(3/2)."""
    k_th = _thermal_cutoff(nb, tail_tol)
    amp = 1.5 * log(max((2.0 * k_th + 1.0) / (2.0 * nb + 1.0), 1.0))
    return k_th + math.ceil(amp / log1p(1.0 / nb))


def _difference_masses(
    nb: float, x: float, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, Callable[[], float]]:
    """Probability masses of the difference d = k - l under p(k, l), over
    the certified window of _skellam_window, the same support third_moment
    sums over.

    Returns (d, mass, rounding) for d in [lo, hi].  The mass at d = -m sums
    gamma_n A(n, m)^2 over the thermal rows n <= n_max = _sweep_rows; at
    d = +m it is the same sum with thermal weight gamma_(n+m) = w^m gamma_n,
    an exact identity of the geometric weights.  The amplitudes come from one
    _amplitude_rows sweep over the diagonals m = |d| of the window, and each
    block of rows joins the sum in one step, as the product of its thermal
    weights with its squared amplitudes.

    rounding() bounds the rounding error of the sum of the masses: the seed
    ln A(0, m) = -x/2 + (m/2) ln x - ln(m!)/2 is built from parts of size at
    most S_m = (x + m (|ln x| + ln(m+1))) / 2, so its exponential is off by a
    relative eps S_m; each of the n_max rows adds a recurrence step and an
    accumulation, about eps each, and the thermal weights and w^d a few eps
    more.  Squared into a probability, mass_d is thus off by a relative
    2 eps (S_|d| + n_max + 4) at most, and the sum by that weighted by mass.
    """
    win = _skellam_window(nb, x, policy)
    m_lo, m_hi = max(0, -win.hi), max(-win.lo, win.hi)
    n_max = _sweep_rows(nb, policy.tail_tol)
    g = np.exp(-log(nb + 1.0) - log1p(1.0 / nb) * np.arange(max(n_max, 1) + 1))
    acc = np.zeros(m_hi - m_lo + 1)
    sq = np.empty((_BLOCK_ROWS, len(acc)))
    n, ls_seen = 0, None
    for blk, ls in _amplitude_rows(x, m_lo, m_hi, n_max):
        if ls is not ls_seen:
            ls_seen, exp2ls = ls, np.exp(2.0 * ls)
        k = len(blk)
        np.multiply(blk, blk, out=sq[:k])
        acc += (g[n : n + k] @ sq[:k]) * exp2ls
        n += k

    d = np.arange(win.lo, win.hi + 1)
    mass = acc[np.abs(d) - m_lo] * np.power(nb / (nb + 1.0), np.maximum(d, 0))

    def rounding() -> float:
        m = np.abs(d).astype(np.float64)
        size = 0.5 * (x + m * (abs(log(x)) + np.log(m + 1.0)))
        return 2.0 * 2.0**-52 * float(np.sum(mass * (size + n_max + 4.0)))

    return d, mass, rounding


class ThirdMomentResult(NamedTuple):
    """Third absolute moment with its truncation diagnostic."""

    t: float
    captured_mass: float


def _captured_mass(mass: np.ndarray, nb: float, x: float, tail_tol: float,
                   rounding: Callable[[], float]) -> float:
    """Sum of the masses; MassDeficit if it falls below 1 - 10*tail_tol,
    ConsistencyError if it passes 1.

    The sum is _sum's, within one ulp of the correctly rounded one.
    `rounding`, called only when the sum falls short or passes 1, bounds the
    error the masses carry from their own evaluation.  A shortfall within it
    is not a deficit; truncation only ever drops mass, so an excess beyond
    it is a bug, such as masses counted twice.  Both routes' allowances are
    at least 8 eps of the mass, so a smaller excess never calls `rounding`.
    """
    captured = _sum(mass)
    floor = 1.0 - 10.0 * tail_tol
    if captured < floor and captured < floor - rounding():
        raise MassDeficit(
            f"captured mass {captured} < 1 - 10*tail_tol (nb={nb}, x={x})"
        )
    if captured - 1.0 > 8.0 * 2.0**-52 and captured - 1.0 > rounding():
        raise ConsistencyError(f"captured mass {captured} > 1 past rounding (nb={nb}, x={x})")
    return captured


class _SkellamWindow(NamedTuple):
    """Kept support [lo, hi] of d = k - l and certified bounds on what it
    drops: the probability mass, and the mass weighted by |d - mean|^3."""

    lo: int
    hi: int
    tail_mass: float
    tail_cubic: float


_EDGE_NEWTON_STEPS = 64      # _tail_edge: a bound on its Newton steps, which converge in a few


def _chernoff_ln_tail(m1: float, m2: float, a: float) -> tuple[float, float]:
    """(ln bound on P(d >= a), optimal s) for d ~ Skellam(m1, m2), a > m1 - m2.

    The bound is min_s exp(m1 (e^s - 1) + m2 (e^-s - 1) - s a), attained at
    e^s = (a + r) / (2 m1) with r = sqrt(a^2 + 4 m1 m2); there the exponent
    is r - m1 - m2 - s a, written without cancellation.
    """
    mean = m1 - m2
    r = math.hypot(a, 2.0 * math.sqrt(m1 * m2))
    a_plus_r = a + r if a >= 0.0 else 4.0 * m1 * m2 / (r - a)
    s = log(a_plus_r / (2.0 * m1))
    return (a - mean) * (a + mean) / (r + m1 + m2) - s * a, s


def _tail_edge(m1: float, m2: float, ln_mass_tol: float,
               ln_cubic_tol: float) -> tuple[int, float, float]:
    """Smallest integer a above the mean of d ~ Skellam(m1, m2) whose upper
    tail d >= a has certified mass <= e^ln_mass_tol and certified cubic
    weight sum P(d) |d - mean|^3 <= e^ln_cubic_tol.

    For d >= a > mean, |d - mean|^3 <= (3/(e t))^3 e^(t (d - mean)) for any
    t > 0; with t = 3/(a - mean) <= s this turns the Chernoff bound C(a)
    into (a - mean)^3 C(a).  Both conditions, and s (a - mean) >= 3, only
    improve as a grows.  Both log bounds are concave in a, with slopes -s
    and 3/(a - mean) - s, so Newton's method on the larger of their excesses
    over the tolerances, from the Gaussian edge, ends at or just above the
    edge.  The integer condition then settles it, walking down while a - 1
    qualifies, or galloping and bisecting up if a does not, so the edge is
    the one a search over that condition alone would find.
    Returns (a, mass bound, cubic bound).
    """
    mean = m1 - m2
    base = math.floor(mean)           # base <= mean never qualifies

    def bounds(a: int):
        ln_c, s = _chernoff_ln_tail(m1, m2, a)
        u = a - mean
        if s * u < 3.0 or ln_c > ln_mass_tol or 3.0 * log(u) + ln_c > ln_cubic_tol:
            return None
        return exp(ln_c), u**3 * exp(ln_c)

    # u = a - mean starts at the Gaussian edge, where ln C ~ -u^2 / (2 var):
    # the mass bound's, or one fixed-point step to the cubic bound's beyond.
    var = m1 + m2
    u = sqrt(-2.0 * ln_mass_tol * var)
    u = max(u, sqrt(2.0 * var * max(0.0, 3.0 * log(u) - ln_cubic_tol)))
    for _ in range(_EDGE_NEWTON_STEPS):
        ln_c, s = _chernoff_ln_tail(m1, m2, mean + u)
        mass_excess = ln_c - ln_mass_tol
        cubic_excess = 3.0 * log(u) + ln_c - ln_cubic_tol
        if mass_excess >= cubic_excess:
            step = mass_excess / -s
        elif s * u > 3.0:
            step = cubic_excess / (3.0 / u - s)
        else:                         # left of the cubic bound's peak: climb below
            break
        # Where the cubic bound stays below its tolerance, its tangent can
        # point past the mean: go at most half way there.
        step = min(step, 0.5 * u)
        u -= step
        if abs(step) < 0.5:
            break
    k = max(1, math.ceil(mean + u) - base)
    found = bounds(base + k)
    if found is None:
        stride = 1
        while (found := bounds(base + k + stride)) is None:
            k, stride = k + stride, 2 * stride
        lo, hi = k, k + stride
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (mid_found := bounds(base + mid)) is None:
                lo = mid
            else:
                hi, found = mid, mid_found
        k = hi
    else:
        while k > 1 and (below := bounds(base + k - 1)) is not None:
            k, found = k - 1, below
    return (base + k, *found)


def _skellam_window(nb: float, x: float, policy: TruncationPolicy) -> _SkellamWindow:
    """Certified support window of d = k - l ~ Skellam(x nb, x (nb+1)).

    Each side drops at most tail_tol/4 of the mass and at most
    tail_tol/4 * sigma^3 of the cubic weight, sigma^2 = x (2 nb + 1) being
    the variance of d.  Since E|d - mean|^3 >= sigma^3 (Lyapunov), the
    truncated T is low by at most tail_tol/2 relative.  CapExceeded if the
    variance reaches K_MAX_CAP^2, where one sigma alone passes K_MAX_CAP;
    ConsistencyError if mu1 mu2 underflows (no Bessel argument 2 sqrt(mu1 mu2)).
    """
    m1, m2 = x * nb, x * (nb + 1.0)
    if not m1 + m2 < float(K_MAX_CAP) ** 2:
        raise CapExceeded(f"Skellam variance {m1 + m2:g} exceeds K_MAX_CAP^2 (nb={nb}, x={x})")
    if m1 * m2 == 0.0:
        raise ConsistencyError(f"Bessel argument 2 sqrt(mu1 mu2) underflows (nb={nb}, x={x})")
    ln_mass_tol = log(policy.tail_tol / 4.0)
    ln_cubic_tol = ln_mass_tol + 1.5 * log(m1 + m2)
    a, up_mass, up_cubic = _tail_edge(m1, m2, ln_mass_tol, ln_cubic_tol)
    b, lo_mass, lo_cubic = _tail_edge(m2, m1, ln_mass_tol, ln_cubic_tol)
    return _SkellamWindow(lo=1 - b, hi=a - 1, tail_mass=up_mass + lo_mass,
                          tail_cubic=up_cubic + lo_cubic)


# The backward recurrence starts where the Bessel ratios it skips would damp
# a unit error below exp(-2 * _MILLER_LN_DAMP) by the window edge.
_MILLER_LN_DAMP = 25.0
_BLOCKED_FROM = 512          # _bessel_ln_ratios: recurrences this long run in blocks


def _asinh_edge(z: float, lo: float, c: float, goal: float) -> int:
    """ceil(t) for the t > lo with int_lo^t (asinh(u/z) + c) du = goal > 0,
    z > 0, the integrand >= 0 at lo.  The integrand lies below its tangent at
    lo (asinh is concave), so Newton's method on the convex integral starts
    from the root of that quadratic model, steps past t and falls back."""
    def f(t):
        return t * (math.asinh(t / z) + c) - t * t / (math.hypot(t, z) + z)

    target = f(lo) + goal
    s, kappa = max(math.asinh(lo / z) + c, 0.0), 1.0 / math.hypot(lo, z)
    t = lo + 2.0 * goal / (s + sqrt(s * s + 2.0 * kappa * goal))
    step = math.inf
    while abs(step) > 1e-9 * t:
        step = (f(t) - target) / (math.asinh(t / z) + c)
        t -= step
    return math.ceil(t)


def _miller_start(z: float, n_hi: int) -> int:
    """Least N with int_(n_hi)^N asinh(t/z) dt >= _MILLER_LN_DAMP, the start of
    the Miller recurrence for Bessel ratios up to n_hi: a unit error at N is
    damped by about exp(-2 asinh(j/z)) on each step j down to n_hi, and as
    asinh rises the integral bounds the sum of those exponents from below.
    For n_hi << z, N ~ sqrt(n_hi^2 + 50 z).  CapExceeded past K_MAX_CAP."""
    n = _asinh_edge(z, n_hi, 0.0, _MILLER_LN_DAMP)
    if n > K_MAX_CAP:
        raise CapExceeded(f"Bessel recurrence start {n} exceeds K_MAX_CAP={K_MAX_CAP} (z={z:g})")
    return n


def _miller_block(z: float, n_start: int) -> int:
    """Block length l of _bessel_ln_ratios: 1 (the scalar loop) below
    _BLOCKED_FROM, else about sqrt(n_start / 8), which balances the l
    vectorised steps against the n_start / l block edges.  Within a block the
    values grow by at most (1 + 2N/z)^l, N < 2 n_start the rounded-up start,
    and the stitching ratio adds at most z/2 < e^25 (z <= n_start^2 / 50 by
    _miller_start), so l is capped at 650 / ln(1 + 4 n_start/z) to stay finite."""
    if n_start < _BLOCKED_FROM:
        return 1
    return max(1, min(math.isqrt(n_start // 8), int(650.0 / log1p(4.0 * n_start / z))))


def _bessel_ln_ratios(z: float, n_hi: int) -> np.ndarray:
    """ln(I_n(z) / I_0(z)) for n = 0..n_hi, z > 0, by Miller's backward
    recurrence from n_start = _miller_start(z, n_hi) (Gautschi, SIAM Rev.
    9:24, 1967); CapExceeded if that start passes K_MAX_CAP.

    With l = _miller_block(z, n_start) = 1 it runs the ratio form
    rho_n = z / (2n + z rho_(n+1)) from rho_(n_start+1) = 0 as a scalar loop
    and returns cumsum(ln rho).  Longer recurrences run the linear form
    y_(n-1) = (2n/z) y_n + y_(n+1) from y_(N+1) = 0, y_N = 1, N = B l the
    start rounded up to whole blocks.  Its coefficients are all positive, so
    the N steps can be cut into B blocks of l without cancellation: two
    solutions per block, from (y_(T+1), y_T) = (0, 1) and (1, 0) at the
    block's top T, advance together in l numpy steps over arrays of length B;
    a scalar pass down the block edges combines them into the ratio
    q = y_(T+1) / y_T entering each block and the growth g = y_(T-l) / y_T
    across it.  For n in the block with top T and T - l < n <= T,

        ln(I_n / I_0) = ln(y_n / y_(T-l)) - (sum of ln g over lower blocks),

    two terms of one sign wherever the ratios are below 1, as they are up to
    n_hi, so nothing cancels.  Rounding: with k_n = ceil(n / l) + 1 and
    D_n = 2 / (1 - exp(-2 asinh(n / z))), each returned value is within
    eps (k_n |L_n| + 4 (n + l) + D_n) of the exact Miller value L_n
    (L_0 = 0 exactly).  The logs, and the at most k_n additions, act on
    parts and partial sums of one sign no larger than |L_n|; each recurrence
    step from the top of n's block down to 0 adds a few eps; and a rounding
    made j steps further up reaches L_n damped by the squared ratios there,
    at most exp(-2 j asinh(n / z)), which sums to D_n.
    """
    n_start = _miller_start(z, n_hi)
    ell = _miller_block(z, n_start)
    if ell == 1:
        r = 0.0
        for n in range(n_start, n_hi, -1):   # the ratios above n_hi are not kept
            r = z / (2.0 * n + z * r)
        rho = [1.0] * (n_hi + 1)      # rho[0] = 1, so that cumsum(log(rho))[n] = ln(I_n / I_0)
        for n in range(n_hi, 0, -1):
            r = z / (2.0 * n + z * r)
            rho[n] = r
        return np.cumsum(np.log(rho))

    nblk = -(-n_start // ell)
    tops = float(nblk * ell) - ell * np.arange(nblk, dtype=np.float64)
    coef = (2.0 / z) * (tops - np.arange(ell, dtype=np.float64)[:, None])
    w = np.empty((ell + 2, 2, nblk))  # w[j + 1, :, b] = both solutions at T_b - j
    w[0, 0], w[0, 1], w[1, 0], w[1, 1] = 0.0, 1.0, 1.0, 0.0
    for j in range(ell):
        np.multiply(coef[j], w[j + 1], out=w[j + 2])
        w[j + 2] += w[j]

    u1, v1 = w[ell, 0].tolist(), w[ell, 1].tolist()
    u0, v0 = w[ell + 1, 0].tolist(), w[ell + 1, 1].tolist()
    q, g = [0.0] * nblk, [0.0] * nblk
    r = 0.0
    for b in range(nblk):
        q[b] = r
        g[b] = u0[b] + r * v0[b]
        r = (u1[b] + r * v1[b]) / g[b]
    q, g = np.array(q), np.array(g)

    b0 = (nblk * ell - n_hi) // ell   # first block holding an n <= n_hi
    ln_g = np.log(g)
    below = np.zeros(nblk)            # sum of ln g over the blocks below
    below[:-1] = np.cumsum(ln_g[:0:-1])[::-1]
    y = np.multiply(w[1 : ell + 1, 1, b0:], q[b0:])
    y += w[1 : ell + 1, 0, b0:]
    y /= g[b0:]
    np.log(y, out=y)
    y -= below[b0:]
    out = np.empty(n_hi + 1)
    out[0] = 0.0
    out[1:] = y.ravel(order="F")[: -n_hi - 1 : -1]   # n = T_b - j runs down the columns
    return out


def bessel_i0_scaled(t: float) -> float:
    """Exponentially scaled modified Bessel function e^-t I0(t).

    Power series below the crossover (all terms positive, so the scaled
    result is correct to machine epsilon), asymptotic series in 1/(8t)
    beyond, where its optimally-truncated remainder is below 1e-15.
    """
    if not (t >= 0.0):
        raise ValueError("t must be >= 0")
    if t < _I0_CROSSOVER:
        q, term, s, k = 0.25 * t * t, 1.0, 1.0, 1
        while True:
            term *= q / (k * k)
            s += term
            if term < s * 1e-18:
                return exp(-t) * s
            k += 1
    u, term, s = 1.0 / (8.0 * t), 1.0, 1.0
    for k in range(1, 40):
        nxt = term * (2.0 * k - 1.0) ** 2 * u / k
        if nxt >= term:        # asymptotic series started diverging
            break
        term = nxt
        s += term
        if term < s * 1e-18:
            break
    return s / sqrt(2.0 * math.pi * t)


def _skellam_ln_p0(x: float, m1: float, m2: float) -> float:
    """ln P(d = 0) = ln(e^-z I_0(z)) + z - m1 - m2, z = 2 sqrt(m1 m2), with
    z - m1 - m2 written without cancellation as -x^2 / (sqrt(m1) + sqrt(m2))^2."""
    z = 2.0 * math.sqrt(m1 * m2)
    return log(bessel_i0_scaled(z)) - x * x / (math.sqrt(m1) + math.sqrt(m2)) ** 2


_LN_TAIL_TOL = -46.0    # ln of the tail _skellam_ln_tail may drop, relative to its sum


def _skellam_ln_tail(m1: float, m2: float, first: int) -> float:
    """ln P(Y >= first) for Y ~ Skellam(m1, m2), m1, m2 > 0, first >= 0:
    ln P(0) + ln sum_(k >= first) t_k, t_k = rho^k I_k(z) / I_0(z), with
    rho = sqrt(m1 / m2) and z = 2 sqrt(m1 m2).  t_(k+1) / t_k = rho I_(k+1) / I_k
    falls with k, so past t_n, at q = t_n / t_(n-1) < 1, the rest is at most
    t_n q / (1 - q), which must fall below e^_LN_TAIL_TOL of the sum.  n starts
    where the integral of asinh(t/z) - ln rho from the largest term reaches that
    tolerance (I_k / I_(k-1) ~ exp(-asinh(k/z))), and doubles until the bound
    holds.  CapExceeded where the Miller recurrence would start past K_MAX_CAP."""
    ln_p0 = _skellam_ln_p0(m1 - m2, m1, m2)
    z = 2.0 * sqrt(m1) * sqrt(m2)              # never underflows
    ln_rho = 0.5 * (log(m1) - log(m2))
    peak = max(first, z * math.sinh(ln_rho))   # the terms rise up to here
    n_hi = _asinh_edge(z, peak, -ln_rho, -_LN_TAIL_TOL)
    while True:
        ln_t = _bessel_ln_ratios(z, n_hi)[first:]
        ln_t += ln_rho * np.arange(first, n_hi + 1)
        ln_s = log(_sum(np.exp(ln_t)))
        ln_q = ln_t[-1] - ln_t[-2]
        if ln_q < 0.0 and ln_t[-1] + ln_q - log(-math.expm1(ln_q)) < ln_s + _LN_TAIL_TOL:
            return ln_p0 + ln_s
        n_hi *= 2


def _skellam_masses(
    nb: float, x: float, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, Callable[[], float]]:
    """Probability masses of d = k - l under p(k, l), over a certified window.

    d is Skellam(mu1, mu2) with mu1 = x nb, mu2 = x (nb+1), z = 2 sqrt(mu1 mu2):

        P(d) = e^(z - mu1 - mu2) (mu1/mu2)^(d/2) e^-z I_|d|(z).

    ln(I_n(z) / I_0(z)) comes from _bessel_ln_ratios, Miller's backward
    recurrence started at _miller_start; e^-z I_0(z) fixes the absolute scale
    and z - mu1 - mu2 = -x^2 / (sqrt(mu1) + sqrt(mu2))^2 avoids cancellation.
    The masses are not renormalised, so their sum is a real diagnostic.
    Returns (d, mass, rounding) for d in [lo, hi].

    rounding() bounds the rounding error of the sum of the masses.  Here
    ln mass_d = ln P(0) + L_|d| - h d, with L_n = ln(I_n / I_0) and
    h = ln(1 + 1/nb) / 2.  With l the recurrence's block length, L_n is
    within eps (k_n |L_n| + 4 (n + l) + D_n) of exact, k_n = ceil(n / l) + 1
    and D_n its damped rounding from above (see _bessel_ln_ratios).  Every
    partial sum formed on the way is at most S_d = |ln P(0)| + |L_|d|| + h |d|
    in size (the log-ratios share a sign), so the two additions and the
    product that assemble the exponent round by at most eps S_d each, and
    its exponential and h add a few eps more.  mass_d is thus off by a
    relative eps ((k_|d| + 2) S_d + 4 (|d| + l + 2) + D_|d|) at most, and the
    sum by that weighted by mass.  For the scalar loop (l = 1), k_|d| =
    |d| + 1 counts its cumulative sum of log-ratios; in blocks, the
    ceil(|d| / l) block scales summed take their place.  rounding() recomputes
    the log-ratios, bit for bit, rather than hold them: held, they slow T's
    sums, and rounding() is rarely called.  Over random nb in [1e-8, 1e7] and
    x in [1e-3, 1e6] the observed |1 - sum| stayed below 1/8 of this bound.
    """
    m1, m2 = x * nb, x * (nb + 1.0)
    win = _skellam_window(nb, x, policy)
    z = 2.0 * math.sqrt(m1 * m2)
    n_hi = max(-win.lo, win.hi, 1)
    if win.hi - win.lo >= K_MAX_CAP:
        raise CapExceeded(f"support window [{win.lo}, {win.hi}] exceeds K_MAX_CAP={K_MAX_CAP} "
                          f"(nb={nb}, x={x}, tail_tol={policy.tail_tol})")

    ln_ratio = _bessel_ln_ratios(z, n_hi)
    ln_p0 = _skellam_ln_p0(x, m1, m2)
    h = 0.5 * log1p(1.0 / nb)
    d = np.arange(win.lo, win.hi + 1)
    mass = np.exp(ln_p0 + ln_ratio[np.abs(d)] - h * d)

    def rounding() -> float:
        n = np.abs(d)
        ell = _miller_block(z, _miller_start(z, n_hi))
        size = abs(ln_p0) + np.abs(_bessel_ln_ratios(z, n_hi)[n]) + h * n
        damped = np.where(n > 0, 2.0 / -np.expm1(-2.0 * np.arcsinh(np.maximum(n, 1) / z)), 0.0)
        per_mass = (-(-n // ell) + 3.0) * size + 4.0 * (n + ell + 2.0) + damped
        return 2.0**-52 * float(np.sum(mass * per_mass))

    return d, mass, rounding


def third_moment(
    s: ThermalScenario, policy: TruncationPolicy = TruncationPolicy()
) -> ThirdMomentResult:
    """Third absolute moment T = sum p(k,l) |(k-l+x) ln(nb/(nb+1))|^3.

    x = eta*ns is the displaced mean photon number.  T is summed over the
    Skellam law of d = k - l on a window whose dropped share of T is
    certified below tail_tol/2.  Both sums over the window (T and the
    captured mass) go through _sum, which adds at most one ulp against
    that truncation allowance.  The captured probability mass is returned
    alongside; below 1 - 10*tail_tol, by more than the rounding the masses
    carry (as _skellam_masses bounds it), the sum is considered buggy and
    MassDeficit is raised, and above 1 by more than that rounding,
    ConsistencyError.
    """
    x = s.eta * s.ns
    if x == 0.0:
        return ThirdMomentResult(0.0, 1.0)
    d, mass, rounding = _skellam_masses(s.nb, x, policy)
    captured = _captured_mass(mass, s.nb, x, policy.tail_tol, rounding)
    lt = log1p(1.0 / s.nb)
    u = np.abs((d + x) * lt)
    t = _sum(mass * u**3)
    return ThirdMomentResult(t, captured)


def spectral_oracle(
    s: ThermalScenario, policy: TruncationPolicy = TruncationPolicy()
) -> RelEntStats:
    """D, V, T as raw moments of the log-likelihood ratio ln(gamma_k/gamma_l).

    Uses ln(gamma_k / gamma_l) = (k - l) ln(nb/(nb+1)) under the same joint
    distribution as third_moment, summed from the Laguerre transition
    probabilities instead of the Skellam law, so it cross-checks the
    Gaussian closed forms (first and second moments) and third_moment
    along a fully independent route.
    """
    x = s.eta * s.ns
    if x == 0.0:
        return RelEntStats(d=0.0, v=0.0, t=0.0)
    d, mass, rounding = _difference_masses(s.nb, x, policy)
    _captured_mass(mass, s.nb, x, policy.tail_tol, rounding)
    llr = -d * log1p(1.0 / s.nb)
    d1 = math.fsum((mass * llr).tolist())
    centered = llr - d1
    v = math.fsum((mass * centered**2).tolist())
    t = math.fsum((mass * np.abs(centered) ** 3).tolist())
    return RelEntStats(d=d1, v=v, t=t)
