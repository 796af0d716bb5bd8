"""Displaced-number-state transition probabilities and log-likelihood moments.

For a thermal state hit by a phase-space displacement, the joint distribution
p(k, l) = gamma_k |<k|D(beta)|l>|^2 drives every finite-size quantity beyond
second order: the log-likelihood ratio between the two detection hypotheses
is a function of k - l alone, and its third absolute central moment is the
input to the Berry-Esseen-corrected bounds.

third_moment uses the law of that difference directly: d = k - l is
Skellam(x nb, x (nb+1)), a difference of independent Poissons, whose pmf is
a ratio chain of Bessel functions I_n anchored at _bessel_i0_scaled.  The
chain comes from a backward recurrence, whose coefficients are all positive,
seeded at its top by one ratio that Perron's continued fraction brackets to
an ulp in a few dozen levels: short recurrences run as a scalar loop, long
ones in vectorised blocks stitched at their edges.  _skellam_ln_tail sums
the law's log tails from the same chain, for marcum's heterodyne benchmark.
_skellam_masses forms the masses' exponent over a support window, which the
law's log-concavity certifies from the two log-masses at each edge of that
exponent, so the cost is linear in its width.  T comes from a Poisson Stein
identity, which needs the cdf at the mean and three masses next to it: so
third_moment sums the masses alone, in two parts either side of the mean,
and never forms cubic weights.  One inequality per edge bounds the dropped
mass, keeping T within about 1e-13 of exact, and the dropped cubic weight,
which spectral_oracle sums over the same window.  Both routes' mass sums go
through _sum, math.fsum of numpy's sums of 128-term blocks, within about
64 eps of the sum: sized to the masses, whose own rounding on wide windows
is ten times that or more, and which T's error budget carries anyway.

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
from numpy.lib.stride_tricks import as_strided

from .errors import CapExceeded, ConsistencyError
from .gaussian import RelEntStats, ThermalScenario

_LN_TINY = log(1e-250)       # seed floor for underflowed diagonal starts
_RESCALE_AT = 1e100
_RESCALE_BY = 1e-150
_LN_RESCALE = -log(_RESCALE_BY)
_BLOCK_ROWS = 16             # _amplitude_rows: rows per block, and the rescale period
_TABLE_ENTRIES = 2**13       # _amplitude_rows: entries per coefficient table and chunk
K_MAX_CAP = 200_000          # hard cap on every summation index and window width
_FSUM_BELOW = 512            # _sum: shorter arrays go to math.fsum over a list
_SUM_BLOCK = 128             # _sum: terms per block numpy sums
_SUM_REL = 2.0**-53 * (1.0 + (_SUM_BLOCK - 1) / (1.0 - (_SUM_BLOCK - 1) * 2.0**-53))   # u + g_127
_I0_CROSSOVER = 19.0         # _bessel_i0_scaled: power series below, asymptotic beyond


@dataclass(frozen=True)
class TruncationPolicy:
    """Requested bound on neglected probability mass."""

    tail_tol: float = 1e-10

    def __post_init__(self):
        if not (2.0**-52 <= self.tail_tol < 1.0):   # 2^-52 resolves unit mass
            raise ValueError("tail_tol must lie in [2^-52, 1)")
        # _edge_start's Gaussian fixed point v(t), t = -ln(tail_tol/4), which
        # every window needs: kept as an attribute outside the fields, so
        # equality, hashing and repr ignore it
        t = -log(self.tail_tol / 4.0)
        v = sqrt(2.0 * t)
        for _ in range(3):
            v = sqrt(2.0 * t + 6.0 * log(v))
        object.__setattr__(self, "_edge_v", v)


def _sum(x: np.ndarray) -> float:
    """Sum of a 1-D float64 array whose elements are finite and nonnegative,
    as the masses and tail terms of this module are by construction, within

        |result - sum(x)| <= u sum(x) + g_127 sum(x),   g_k = k u / (1 - k u),

    u = 2^-53, that is _SUM_REL sum(x); within u sum(x) below _FSUM_BELOW
    terms, which go to math.fsum over a list, correctly rounded.  Longer
    arrays are cut into blocks of _SUM_BLOCK terms, which numpy sums in any
    order it likes: n - 1 additions of nonnegative terms, in any order, err
    by at most (n - 1) u of their sum (Jeannerod & Rump, SIAM J. Matrix
    Anal. Appl. 34:338, 2013).  math.fsum of the block sums and the leftover
    terms rounds once more, by u (1 + 127 u) sum(x), and 127 u (1 + u) <=
    g_127.  Where a block sum or their total overflows, math.fsum over the
    list decides.
    """
    n = len(x)
    if n >= _FSUM_BELOW:
        k = n - n % _SUM_BLOCK
        with np.errstate(over="ignore"):
            blocks = x[:k].reshape(-1, _SUM_BLOCK).sum(axis=1)
        try:
            total = math.fsum(blocks.tolist() + x[k:].tolist())
        except OverflowError:                  # the block sums' total overflows
            total = math.inf
        if total < math.inf:                   # an overflowed block sum is inf here
            return total
    return math.fsum(x.tolist())


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
    A(0, m) = e^(-x/2) x^(m/2) / sqrt(m!).  alpha and beta are built as
    tables from one strided view of 1/sqrt(j), sqrt(j/(j+1)) and
    j + m_lo + 1 - x (stepping 2 a row), with no gathers, a chunk of rows at
    a time: as many as fill about _TABLE_ENTRIES entries each, a multiple of
    _BLOCK_ROWS and at most the sweep.  They are stored interleaved, row n
    as the pair (beta, alpha), so that one product with the pair of rows
    (A(n-1), A(n)) gives both terms, and a row costs two ufunc calls on
    views bound once: that product, then the difference of its halves.
    ls <= 0 absorbs seeds far below the representable range, and at each
    block end the entries past _RESCALE_AT are scaled down into ls, then a
    new array (so a consumer may cache functions of it by identity).  The
    buffer is reused: read a block before drawing the next.  CapExceeded if
    n_max + m_hi passes K_MAX_CAP.
    """
    if n_max + m_hi > K_MAX_CAP:
        raise CapExceeded(f"required indices {n_max + m_hi} exceed K_MAX_CAP={K_MAX_CAP} (x={x})")
    width = m_hi - m_lo + 1
    marr = np.arange(m_lo, m_hi + 1, dtype=np.float64)
    lg = np.array([lgamma(m + 1.0) for m in range(m_lo, m_hi + 1)])
    ln_a0 = -0.5 * x + 0.5 * marr * log(x) - 0.5 * lg
    ls = np.where(ln_a0 < _LN_TINY, ln_a0 - _LN_TINY, 0.0)
    jmax, n_last = n_max + m_hi + 2, max(n_max, 1)
    n_blk = min(_BLOCK_ROWS, n_last - 1)       # the most rows a block holds
    buf = np.empty((n_blk + 2, width))         # rows n-1, n, then the block
    buf[0] = np.exp(ln_a0 - ls)
    buf[1] = buf[0] * (1.0 + marr - x) / np.sqrt(marr + 1.0)

    coef = np.zeros((3, max(jmax + 1, 2 * n_last + width)))
    rsq, gr, v = coef                          # 1/sqrt(j), sqrt(j / (j+1)), j + m_lo + 1 - x
    sq = np.sqrt(np.arange(jmax + 1, dtype=np.float64))
    rsq[1 : jmax + 1] = 1.0 / sq[1:]
    gr[:jmax] = sq[:jmax] * rsq[1 : jmax + 1]
    v[:] = np.arange(len(v), dtype=np.float64) + (m_lo + 1.0 - x)
    rsq_w, gr_w, v_w = as_strided(coef, (3, coef.shape[1] - width + 1, width),
                                  (coef.strides[0], 8, 8), writeable=False)   # rsq_w[j] = rsq[j : j+width]
    v_w = v_w[::2]                             # v_w[n] = m + 2n + 1 - x over the diagonals
    chunk = max(1, _TABLE_ENTRIES // (_BLOCK_ROWS * width)) * _BLOCK_ROWS
    cf = np.empty((min(chunk, n_last - 1), 2, width))   # cf[n - tab] = (beta, alpha) of row n
    prod, t = np.empty((2, width)), np.empty(width)
    b_prev, a_cur = prod                       # beta A(n-1), alpha A(n)
    pairs = [buf[j : j + 2] for j in range(n_blk)]      # views bound once
    outs, cfs = list(buf[2:]), list(cf)
    n, first, k, tab, tab_end = 1, 0, _BLOCK_ROWS - 2, 0, 0
    while True:                                # the block holds rows n+1..n+k
        k = min(k, n_last - n)
        if n + k > tab_end:                    # tables for rows n+1..n+r
            r = min(len(cf), n_last - n)
            a, bt = cf[:r, 1], cf[:r, 0]
            np.multiply(v_w[n : n + r], rsq_w[n + 1 + m_lo : n + 1 + m_lo + r], out=a)
            a *= rsq[n + 1 : n + 1 + r, None]
            np.multiply(gr_w[n + m_lo : n + m_lo + r], gr[n : n + r, None], out=bt)
            tab, tab_end = n, n + r
        for c, pair, row in zip(cfs[n - tab : n - tab + k], pairs, outs):
            np.multiply(c, pair, prod)
            np.subtract(a_cur, b_prev, row)
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
    the certified window of _skellam_masses (its d only), the same support
    third_moment sums over.

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
    d = _skellam_masses(nb, x, policy)[0]
    lo, hi = d.item(0), d.item(-1)
    m_lo, m_hi = max(0, -hi), max(-lo, hi)
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


def _captured_mass(captured: float, nb: float, x: float, tail_tol: float,
                   rounding: Callable[[], float], terms: int) -> float:
    """`captured`, the sum of the masses, once checked: ConsistencyError if
    it falls below 1 - 10*tail_tol or passes 1.

    `rounding`, called only when the sum falls short or passes 1, bounds the
    error the masses carry from their own evaluation.  The callers add the
    `terms` masses by _sum, in at most two parts and one addition, so the
    allowance adds _sum's bound and 2 eps for the addition (with room for
    second-order terms).  A shortfall within it
    is not a deficit; truncation only ever drops mass, so an excess beyond
    it is a bug, such as masses counted twice.  Both routes' allowances are
    at least 8 eps of the mass, so a smaller excess never calls `rounding`.
    """
    floor = 1.0 - 10.0 * tail_tol
    if captured < floor or captured - 1.0 > 8.0 * 2.0**-52:
        bound = floor if captured < floor else 1.0
        adder = (_SUM_REL if terms >= _FSUM_BELOW else 2.0**-53) + 2.0**-52
        if abs(captured - bound) > rounding() + adder * captured:
            raise ConsistencyError(f"captured mass {captured} misses its bound {bound} "
                                   f"past rounding (nb={nb}, x={x})")
    return captured


def _edge_start(m1: float, m2: float, t: float, v: float) -> float:
    """Where one side of _skellam_masses' window starts, for
    d ~ Skellam(m1, m2), t = -ln(tail_tol/4) > ln 4 and v = v(t) as
    TruncationPolicy keeps it: an estimate of the
    u = a - mean at which the Chernoff bound C(a) on the mass of d >= a,
    times (u/sigma)^3, sigma^2 = m1 + m2, falls to e^-t: _edge_steps' one
    inequality, which bounds both the mass past the edge and its cubic weight.

    Near the mean the tail is near Gaussian, -ln C ~ u^2 / (2 sigma^2), and
    v = u / sigma solves v^2 = 2t + 6 ln v; three fixed-point steps from
    sqrt(2t) leave v(t) within 1.1e-4 of it at tail_tol = 1e-10 (0.04 at
    0.49).  Where the optimal s ~ u / sigma^2 passes 1, the tail is the m1
    Poisson's, -ln C ~ a ln(a / m1) - a + m1 + m2, and with the cubic term
    held at 3 ln v, r = t + 3 ln v - m1 - m2 gives a = r / W(r / (e m1)),
    W Lambert's function by Winitzki's uniform approximation (within 2 %;
    Lect. Notes Comput. Sci. 2667:780, 2003); where r / (e m1) overflows,
    at a subnormal m1, the Gaussian estimate stands.  The certificate of
    _edge_steps is tighter than C: the start, one integer past this
    estimate, lies 0 to 3 terms past the narrowest edge it certifies on the
    low-background scan grid (nb = 0.1) and 0.39 sigma past it on the
    default grid (nb = 600); on the crosscheck grid (nb = 10) 10 of 200
    windows start one or two terms short on a side.
    """
    u, var = sqrt(m1 + m2) * v, m1 + m2
    r = t + 3.0 * log(v) - var
    if u <= var or not r > 0.0:
        return u
    lw = log1p(r / (math.e * m1))
    if lw == math.inf:
        return u
    return r / (lw * (1.0 - log1p(lw) / (2.0 + lw))) - (m1 - m2)


def _ln_geometric_tail(ln_last: float, ln_prev: float) -> float:
    """ln(t_n q / (1 - q)), q = t_n / t_(n-1), from ln t_n and ln t_(n-1):
    a bound on sum_(k > n) t_k wherever the ratios t_(k+1) / t_k fall, as in
    a log-concave sequence; inf where q >= 1."""
    ln_q = ln_last - ln_prev
    if not ln_q < 0.0:
        return math.inf
    return ln_last + ln_q - log(-math.expm1(ln_q))


def _edge_steps(ln_last: float, ln_prev: float, u: float, sigma: float, ln_tol: float) -> int:
    """Steps by which an edge of _skellam_masses' window moves out, from the
    last two kept masses, e^ln_last at distance u > 0 from the mean and
    e^ln_prev next to it: 0 where P(edge) max(u/sigma, 1)^3 q'/(1 - q') <=
    e^ln_tol, q' = q e^(3/u), q = e^(ln_last - ln_prev).  Past the edge each
    mass is at most the last times q^j (log-concavity) and (u + j)^3 <=
    u^3 e^(3j/u), so that holds the dropped mass to e^ln_tol min(1, (sigma/u)^3)
    and its cubic weight P(d) |d - mean|^3 to e^ln_tol sigma^3.  j steps out
    scale the bound by at most q'^j: a miss moves the edge by the j that q'
    certifies, or by u where q' >= 1."""
    ln_q = ln_last - ln_prev + 3.0 / u
    miss = _ln_geometric_tail(ln_last, ln_prev - 3.0 / u) + 3.0 * max(log(u / sigma), 0.0) - ln_tol
    if not miss > 0.0:
        return 0
    return math.ceil(miss / -ln_q) if ln_q < 0.0 else math.ceil(u)


_BLOCKED_FROM = 512          # _bessel_ln_ratios: recurrences this long run in blocks
_SEED_ERR = 6.5              # _bessel_ln_ratios: its seed's relative error c, in eps


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


def _miller_block(z: float, n: int) -> int:
    """Block length l of _bessel_ln_ratios for a recurrence seeded at n:
    1 (the scalar loop) below _BLOCKED_FROM, else about sqrt(n / 8), which
    balances the l vectorised steps against the n / l block edges.  Within
    a block the two solutions grow by at most (1 + 2N/z)^l, N < 2n the top
    rounded up to whole blocks, and the ratio entering the block, within its
    seed's relative error of a Bessel ratio below 1, adds a factor below 3,
    so l is capped at 650 / ln(1 + 4n/z) to stay finite."""
    if n < _BLOCKED_FROM:
        return 1
    return max(1, min(math.isqrt(n // 8), int(650.0 / log1p(4.0 * n / z))))


def _bessel_ln_ratios(z: float, n_hi: int) -> np.ndarray:
    """ln(I_n(z) / I_0(z)) for n = 0..n_hi, z > 0, for both Skellam laws, by
    the backward recurrence for Bessel ratios (Gautschi, SIAM Rev. 9:24,
    1967) seeded at N + 1 by the midpoint of _perron_bracket(z, N + 1), so
    for any z the cost is the N steps and a few dozen levels; the callers
    bound n_hi.

    With l = _miller_block(z, n_hi + 1) = 1, N = n_hi and the ratios
    rho_n = I_n / I_(n-1) = z / (2n + z rho_(n+1)) run down to n = 1 as a
    scalar loop, then cumsum(ln rho).  Longer recurrences run the linear
    form y_(n-1) = (2n/z) y_n + y_(n+1), whose coefficients are all
    positive, so its N = B l >= n_hi steps can be cut into B blocks of l
    without cancellation: two solutions per block, from (y_(T+1), y_T) =
    (0, 1) and (1, 0) at the block's top T, advance together in l numpy
    steps over arrays of length B; a scalar pass down the block edges, from
    the seed, combines them into the ratio q = y_(T+1) / y_T entering each
    block, and from it a numpy step gives the growth g = y_(T-l) / y_T
    across each.  For n in the block with top T and T - l < n <= T,

        ln(I_n / I_0) = ln(y_n / y_(T-l)) - (sum of ln g over lower blocks),

    two terms of one sign, as the ratios are below 1, so nothing cancels.

    Rounding, eps = 2^-52: with k_n = ceil(n / l) + 1 and
    D_n = 2 / (1 - exp(-2 asinh(n / z))) + c exp(-2 (N + 1 - n) asinh(n / z)),
    each returned value is within eps (k_n |L_n| + 4 (n + l) + D_n) of the
    exact L_n = ln(I_n / I_0) (L_0 = 0 exactly).  The logs, and the at most
    k_n additions, act on parts and partial sums of one sign no larger than
    |L_n|; each recurrence step from the top of n's block down to 0 adds a
    few eps; and an error in one ratio reaches those below it with
    alternating sign, damped by the squared ratios between, at most
    exp(-2 j asinh(n / z)) over j steps.  So the roundings above n sum to
    the first term of D_n, and the seed gives the second: its bracket is at
    most ulp + 2 e wide, so it is within c eps of exact, c = 1/2 + (3 + 5 S)
    with _perron_bracket's S (c < 6.5 where S < 0.6).
    """
    ell = _miller_block(z, n_hi + 1)
    nblk = -(-n_hi // ell)
    lo, hi, _ = _perron_bracket(z, nblk * ell + 1)
    r = 0.5 * (lo + hi)               # I_(N+1) / I_N
    if ell == 1:
        rho = [1.0] * (n_hi + 1)      # rho[0] = 1, so that cumsum(log(rho))[n] = ln(I_n / I_0)
        for n in range(n_hi, 0, -1):
            r = z / (2.0 * n + z * r)
            rho[n] = r
        return np.log(rho).cumsum()

    tops = float(nblk * ell) - ell * np.arange(nblk, dtype=np.float64)
    coef = (2.0 / z) * (tops - np.arange(ell, dtype=np.float64)[:, None])
    w = np.empty((ell + 2, 2, nblk))  # w[j + 1, :, b] = both solutions at T_b - j
    w[0, 0], w[0, 1], w[1, 0], w[1, 1] = 0.0, 1.0, 1.0, 0.0
    rows = list(w)                    # row views, bound once
    for c, lo, mid, hi in zip(coef, rows, rows[1:], rows[2:]):
        np.multiply(c, mid, out=hi)
        np.add(hi, lo, out=hi)

    q = []
    for u1, v1, u0, v0 in zip(*w[ell].tolist(), *w[ell + 1].tolist()):
        q.append(r)
        r = (u1 + r * v1) / (u0 + r * v0)
    q = np.array(q)
    g = q * w[ell + 1, 1]
    g += w[ell + 1, 0]

    b0 = (nblk * ell - n_hi) // ell   # first block holding an n <= n_hi
    ln_g = np.log(g)
    below = np.zeros(nblk)            # sum of ln g over the blocks below
    below[:-1] = np.cumsum(ln_g[:0:-1])[::-1]
    y = np.empty((nblk - b0, ell))    # y[b, j] at n = T_b - j
    np.multiply(w[1 : ell + 1, 1, b0:].T, q[b0:, None], out=y)
    y += w[1 : ell + 1, 0, b0:].T
    y /= g[b0:, None]
    np.log(y, out=y)
    y -= below[b0:, None]
    out = np.empty(n_hi + 1)
    out[0] = 0.0
    out[1:] = y.ravel()[: -n_hi - 1 : -1]
    return out


def _bessel_i0_scaled(t: float) -> float:
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


_LN_TAIL_TOL = -46.0    # ln of the tail _skellam_ln_tail may drop, relative to its sum
_LN_SUMMABLE = 690.0    # _skellam_ln_tail: K_MAX_CAP terms below e^690 sum below 1e306


def _perron_bracket(z: float, nu: int) -> tuple[float, float, float]:
    """(lo, hi, e) with lo (1 - e) <= I_nu(z) / I_(nu-1)(z) <= hi (1 + e),
    z > 0 finite, nu >= 1, from Perron's continued fraction (Gautschi &
    Slavik, Math. Comp. 32:865, 1978), fast where z >> nu:

        r = z / (2 nu + z - p_1),  p_k = a_k / (b_k - p_(k+1)),
        a_k = (2 nu + 2k - 1) z,   b_k = 2 nu + k + 2z.

    [0, 2z] is invariant under p -> a_k / (b_k - p), which rises there, as
    a_k / (2 nu + k) <= 2z for 2 nu >= -1, so it holds the exact tails, and
    K levels evaluated down from the tails p_(K+1) = 0 and 2z bracket p_1,
    and r: lo from 0, hi from 2z.  The step from 2z is written
    a_K / (2 nu + K), as b_K - 2z cancels to 0 once z is large; and
    p_1 <= a_1 / (2 nu + 1) = z keeps the outer denominator at least 2 nu.
    Rounding: 2 nu + k and 2 nu + 2k - 1 are
    exact, and each level rounds b_k, a_k, the difference and the quotient,
    and scales the relative error of p_(k+1) by q_k = p_(k+1) / (b_k -
    p_(k+1)); the outer level rounds three times and scales that of p_1 by
    q_0 = p_1 / (2 nu + z - p_1).  So to first order in u = 2^-53 lo and hi
    are each off by at most e = (3 + 5 S) u relative, S = q_0 (1 + q_1 (1 +
    ... (1 + q_(K-1)))), summed on the path from 2z, whose q_k are the
    larger as they rise with p_(k+1); S stayed below 0.6 on 6,000 draws
    over nu in [1, 1e4] and z in [1e-300, 1e300], and below 0.33 on 6,000
    with nu up to 2e5, past K_MAX_CAP.

    K doubles until hi - lo <= ulp(hi) + e (lo + hi).  It starts where the
    bracket should first close, as one level scales the width by about
    rho = p^2 / a = 2x / (1 + x + sqrt(1 + x^2))^2, x = z / n, at the fixed
    point p = a / (b - p) of a level with a = 2nz, b = 2(n + z), n ~ nu + k:
    at K = ceil(42 / ln(1/rho)) with n = nu + 8, where e^-42 leaves room
    for the levels deeper than 8, at least 2 (one level from 2z leaves
    p_1 = z, and the outer denominator 2 nu + z - z can round to 0).  On
    the 3,611 seeds that T and the heterodyne tail (both conventions) take
    on the low-background and default scan grids it never fell short, and
    passed the fewest closing K by 1.1 to 2.2 levels on average, where 16
    levels, doubled on a miss, passed it by 2.9 to 11.1.
    """
    c, tz = 2.0 * nu, 2.0 * z
    x = z / (nu + 8.0)
    levels = max(2, math.ceil(42.0 / (2.0 * log1p(x + math.hypot(1.0, x)) - log(2.0 * x))))
    while True:
        k = levels
        p_lo = (c + 2 * k - 1) * z / (c + k + tz)
        p_hi = (c + 2 * k - 1) * z / (c + k)
        s = 0.0
        for k in range(levels - 1, 0, -1):
            b = c + k + tz
            a = (c + 2 * k - 1) * z
            d = b - p_hi
            s = p_hi / d * (1.0 + s)
            p_hi = a / d
            p_lo = a / (b - p_lo)
        d = c + z - p_hi
        s = p_hi / d * (1.0 + s)
        lo, hi = z / (c + z - p_lo), z / d
        e = (3.0 + 5.0 * s) * 2.0**-53
        if hi - lo <= math.ulp(hi) + e * (lo + hi):
            return lo, hi, e
        levels *= 2


def _skellam_ln_tail(m1: float, m2: float, first: int) -> float:
    """ln P(Y >= first) for Y ~ Skellam(m1, m2), m1, m2 > 0, first >= 0:
    ln P(0) + ln sum_(k >= first) t_k, t_k = rho^k I_k(z) / I_0(z), with
    rho = sqrt(m1 / m2) and z = 2 sqrt(m1 m2).  t_(k+1) / t_k = rho I_(k+1) / I_k
    falls with k, so past t_n the rest is at most _ln_geometric_tail's
    t_n q / (1 - q), q = t_n / t_(n-1), which must fall below e^_LN_TAIL_TOL
    of the sum.  n starts where the integral of asinh(t/z) - ln rho from the
    largest term reaches that tolerance (I_k / I_(k-1) ~ exp(-asinh(k/z))),
    and doubles until the bound holds.  The ratios come from _bessel_ln_ratios(z, n), seeded at the top
    by _perron_bracket, so the cost is the n steps and a few dozen levels at
    most, for any z, and each L_k = ln(I_k / I_0) is within the rounding
    budget stated there.  z and ln P(0) = ln(e^-z I_0(z)) -
    (sqrt(m1) - sqrt(m2))^2 take no product m1 m2, so neither over- nor
    underflows while m1 and m2 are finite, as far as heterodyne m = 1.8e308.
    Where m1 <= m2, as in the heterodyne, every t_k <= 1; where m1 > m2 the
    terms t_k = P(k) / P(0) can pass the float range, and a pass whose
    largest exceeds e^_LN_SUMMABLE fails the tail test unsummed.
    CapExceeded once n would pass K_MAX_CAP.
    """
    z = 2.0 * sqrt(m1) * sqrt(m2)              # never underflows
    ln_p0 = log(_bessel_i0_scaled(z)) - (sqrt(m1) - sqrt(m2)) ** 2
    ln_rho = 0.5 * (log(m1) - log(m2))
    peak = max(first, z * math.sinh(ln_rho))   # the terms rise up to here
    n_hi = _asinh_edge(z, peak, -ln_rho, -_LN_TAIL_TOL)
    while n_hi <= K_MAX_CAP:
        ln_t = _bessel_ln_ratios(z, n_hi)[first:]
        ln_t += ln_rho * np.arange(first, n_hi + 1)
        if ln_rho <= 0.0 or ln_t.max() < _LN_SUMMABLE:
            ln_s = log(_sum(np.exp(ln_t)))
            if _ln_geometric_tail(ln_t.item(-1), ln_t.item(-2)) < ln_s + _LN_TAIL_TOL:
                return ln_p0 + ln_s
        n_hi *= 2
    raise CapExceeded(f"Skellam tail past K_MAX_CAP={K_MAX_CAP} terms (m1={m1}, m2={m2})")


def _mass_rounding(n, ln_ratio, ln_p0, h, ell, damped):
    """The rounding of _skellam_masses' mass at |d| = n, in eps = 2^-52
    relative, on floats or arrays alike.  L_n = ln_ratio is within
    eps (k_n |L_n| + 4 (n + l) + D_n) of exact, l = ell, k_n = ceil(n / l) + 1
    and D_n = damped its damped rounding and seed error, the budget
    _bessel_ln_ratios states (c = _SEED_ERR there).  Every partial sum formed
    on the way is at most S_d = |ln P(0)| + |L_n| + h n in size (the
    log-ratios share a sign), so the two additions and the product that
    assemble the exponent round by at most eps S_d each, and its exponential
    and h add a few eps more: mass_d is off by a relative
    eps ((k_n + 2) S_d + 4 (n + l + 2) + D_n) at most, and the sum of the
    masses by that weighted by mass.  For the scalar loop (l = 1), k_n = n + 1
    counts its cumulative sum of log-ratios; in blocks, the ceil(n / l)
    block scales summed take their place.  Over random nb in [1e-8, 1e7] and
    x in [1e-3, 1e6] the observed |1 - sum| stayed below 1/8 of that.
    """
    return (-(-n // ell) + 3.0) * (abs(ln_p0) + abs(ln_ratio) + h * n) + 4.0 * (n + ell + 2.0) + damped


def _skellam_masses(
    nb: float, x: float, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, Callable[[], float]]:
    """Probability masses of d = k - l under p(k, l), over a support window
    [lo, hi] that the law's log-concavity certifies.

    d is Skellam(mu1, mu2) with mu1 = x nb, mu2 = x (nb+1), z = 2 sqrt(mu1 mu2):

        P(d) = e^(z - mu1 - mu2) (mu1/mu2)^(d/2) e^-z I_|d|(z),

    so ln mass_d = ln P(0) + L_|d| - h d, with the chain L_n = ln(I_n / I_0)
    of _bessel_ln_ratios(z, max(-lo, hi)), h = ln(1 + 1/nb) / 2 and
    ln P(0) = ln(e^-z I_0(z)) - x^2 / (sqrt(mu1) + sqrt(mu2))^2, free of
    cancellation.  The masses are not renormalised, so their sum is a real
    diagnostic.  Returns (d, mass, rounding) for d in [lo, hi], rounding()
    the bound _mass_rounding puts on the rounding of the masses' sum.

    Each side of the window, its edge at distance u from the mean, drops at
    most tail_tol/4 min(1, (sigma/u)^3) of the mass, which bounds
    third_moment's truncation, and tail_tol/4 sigma^3 of the cubic weight,
    sigma^2 = x (2 nb + 1), so (Lyapunov: E|d - mean|^3 >= sigma^3) a T
    summed by cubic weights over it, as spectral_oracle's, is low by at most
    tail_tol/2 relative.  The Skellam pmf is log-concave, as a convolution
    of two Poisson pmfs (Keilson & Gerber, JASA 66:386, 1971), so the one
    inequality of _edge_steps certifies both from the two log-masses at each
    edge, read off the exponent before it is exponentiated and moved by
    _mass_rounding's bound at its largest over the four (at n_hi: |L| rises
    along the chain), the way that enlarges the tail.  Each side starts one
    integer past _edge_start, the window widened to hold d = -ceil(x) ..
    2 - ceil(x), the three masses next to the mean -x that third_moment
    reads.  A side that misses moves out by _edge_steps and the chain and
    exponent are built again: on the low-background and default scan grids
    never, and at the windows kept the bound lies at least e^0.23 and e^2.93
    below its target there.  CapExceeded if the variance reaches
    K_MAX_CAP^2, or once [lo, hi] reaches past K_MAX_CAP or is K_MAX_CAP
    wide, which bounds the chain; ConsistencyError if mu1 mu2 underflows
    (no Bessel argument).
    """
    m1, m2 = x * nb, x * (nb + 1.0)
    if not m1 + m2 < float(K_MAX_CAP) ** 2:
        raise CapExceeded(f"Skellam variance {m1 + m2:g} exceeds K_MAX_CAP^2 (nb={nb}, x={x})")
    if m1 * m2 == 0.0:
        raise ConsistencyError(f"Bessel argument 2 sqrt(mu1 mu2) underflows (nb={nb}, x={x})")
    z, h, sigma = 2.0 * math.sqrt(m1 * m2), 0.5 * log1p(1.0 / nb), sqrt(m1 + m2)
    ln_p0 = log(_bessel_i0_scaled(z)) - x * x / (math.sqrt(m1) + math.sqrt(m2)) ** 2
    ln_tol, mean = log(policy.tail_tol / 4.0), m1 - m2
    v = policy._edge_v
    hi = max(math.ceil(mean + _edge_start(m1, m2, -ln_tol, v) + 0.75) - 1, 2 - math.ceil(x))
    lo = min(1 - math.ceil(_edge_start(m2, m1, -ln_tol, v) - mean + 0.75), -math.ceil(x))
    while True:
        n_hi = max(-lo, hi)
        if n_hi > K_MAX_CAP or hi - lo >= K_MAX_CAP:
            raise CapExceeded(f"support window [{lo}, {hi}] exceeds K_MAX_CAP={K_MAX_CAP} "
                              f"(nb={nb}, x={x}, tail_tol={policy.tail_tol})")
        ln_ratio = _bessel_ln_ratios(z, n_hi)
        d = np.arange(lo, hi + 1)
        # ln_p0 + L_|d| - h d; L_|d| is read by two slices, the one below
        # d = 0 reversed (lo < 0 always, hi may be too), mass[split:] from d = 0
        mass, split = np.empty(hi - lo + 1), min(hi, -1) + 1 - lo
        np.add(ln_ratio[-lo : max(-hi, 1) - 1 : -1], ln_p0, out=mass[:split])
        np.add(ln_ratio[: max(hi + 1, 0)], ln_p0, out=mass[split:])
        mass -= h * d
        # rounding()'s bound at its largest over the edges: |L| peaks at n_hi
        ell = _miller_block(z, n_hi + 1)
        near = max(1, min(abs(hi), abs(hi - 1), -lo - 1))
        damped = 2.0 / -math.expm1(-2.0 * math.asinh(near / z)) + _SEED_ERR
        slack = 2.0**-52 * _mass_rounding(n_hi, ln_ratio.item(-1), ln_p0, h, ell, damped)
        hi_steps = _edge_steps(mass.item(-1) + slack, mass.item(-2) - slack, hi + x, sigma, ln_tol)
        lo_steps = _edge_steps(mass.item(0) + slack, mass.item(1) - slack, -x - lo, sigma, ln_tol)
        if hi_steps == lo_steps == 0:
            break
        hi, lo = hi + hi_steps, lo - lo_steps
    np.exp(mass, out=mass)

    def rounding() -> float:
        n = np.abs(d)
        seed_at = -(-n_hi // ell) * ell + 1    # N + 1
        ash = 2.0 * np.arcsinh(np.maximum(n, 1) / z)
        damped = np.where(n > 0, 2.0 / -np.expm1(-ash) + _SEED_ERR * np.exp((n - seed_at) * ash), 0.0)
        return 2.0**-52 * float(np.sum(mass * _mass_rounding(n, ln_ratio[n], ln_p0, h, ell, damped)))

    return d, mass, rounding


def third_moment(
    s: ThermalScenario, policy: TruncationPolicy = TruncationPolicy()
) -> ThirdMomentResult:
    """Third absolute moment T = sum p(k,l) |(k-l+x) ln(nb/(nb+1))|^3.

    x = eta*ns is the displaced mean photon number.  T = ln(1 + 1/nb)^3
    E|W|^3 with W = e - x, where e = l - k = -d is the difference
    N_a - N_b of independent Poissons of means mu_a = x (nb+1) and
    mu_b = x nb.  With c = ceil(x) - 1, W < 0 exactly where e <= c, and
    E[W^3] = mu_a - mu_b = x, so E|W|^3 = x - 2 E[W^3; e <= c].  The
    Poisson Stein identities E[N_a f(e)] = mu_a E[f(e+1)] and
    E[N_b f(e)] = mu_b E[f(e-1)] (Chen, Ann. Probab. 3:534, 1975) reduce
    that partial moment to the pmf p and cdf F of e:

        E|W|^3 = x (1 - 2 F(c)) + 2 [2 mu_a^2 p(c-1) + 4 mu_a mu_b p(c)
                 + 2 mu_b^2 p(c+1) + (c - x)^2 (mu_a p(c) + mu_b p(c+1))
                 + mu_a p(c)].

    The bracket's terms are all positive, and the one difference,
    x (1 - 2 F(c)), is at most x <= E|W|^3 in size (|W|^3 >= W^3).  p and F
    are the Skellam masses of _skellam_masses divided by the mass they
    capture, which is the sum of the two _sums either side of d = -c; the
    two parts give F(c) and 1 - F(c).

    Truncation: the window drops mass dl below it and dh above it, each at
    most delta = tail_tol/4 min(1, (sigma/u)^3) by its certificate, u that
    edge's distance from the mean -x, sigma^2 = x (2 nb + 1).  With exact
    masses the identity then returns T (1 + (dl (1 - r) + dh (1 + r)) /
    (1 - dl - dh)), r = x / E|W|^3 in (0, 1], so T is never low, and high
    by at most max(delta_l + delta_h, 2 delta_h) / (1 - delta_l - delta_h)
    relative, below tail_tol / (2 - tail_tol) and, at the default, at most
    1.8e-13 on the scan grids.  Rounding, eps = 2^-52: with a the largest
    relative error bound of the three masses, R = rounding() / captured,
    their mass-weighted mean (both by _mass_rounding), and b = _SUM_REL =
    64 eps the bound of _sum, T is within 2 (a + R + b) + 16 eps of that,
    relative (b <= R/10 on the default grid).  An error up to a moves the bracket, one up to R + b the
    captured mass, and one up to (R + b) x <= (R + b) E|W|^3 the
    difference; the addition of the two parts, the products of positive
    terms and ln(1 + 1/nb)^3 add a few eps.  The
    captured probability mass (unnormalised) is returned alongside; below
    1 - 10*tail_tol, or above 1, by more than the rounding the masses carry,
    the sum is considered buggy and ConsistencyError is raised.
    """
    x = s.eta * s.ns
    if x == 0.0:
        return ThirdMomentResult(0.0, 1.0)
    nb = s.nb
    d, mass, rounding = _skellam_masses(nb, x, policy)
    c = math.ceil(x) - 1
    i = -c - int(d[0])                         # mass[i] is at d = -c, that is e = c
    above, upto = _sum(mass[:i]), _sum(mass[i:])   # 1 - F(c) and F(c), times the mass
    captured = _captured_mass(above + upto, nb, x, policy.tail_tol, rounding, len(mass))
    p_up, p_c, p_down = mass[i - 1 : i + 2].tolist()   # p(c+1), p(c), p(c-1), times the mass
    mu_a, mu_b, w = x * (nb + 1.0), x * nb, (c - x) ** 2
    bracket = (2.0 * mu_a * mu_a * p_down + mu_a * p_c * (4.0 * mu_b + w + 1.0)
               + mu_b * p_up * (2.0 * mu_b + w))
    ew3 = (x * (above - upto) + 2.0 * bracket) / captured
    return ThirdMomentResult(log1p(1.0 / nb) ** 3 * ew3, captured)


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
    _captured_mass(_sum(mass), s.nb, x, policy.tail_tol, rounding, len(mass))
    llr = -d * log1p(1.0 / s.nb)
    d1 = math.fsum((mass * llr).tolist())
    centered = llr - d1
    v = math.fsum((mass * centered**2).tolist())
    t = math.fsum((mass * np.abs(centered) ** 3).tolist())
    return RelEntStats(d=d1, v=v, t=t)
