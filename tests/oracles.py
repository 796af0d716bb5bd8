"""Independent oracles and frozen reference values for the test suite.

Frozen constants were computed with mpmath at 50 significant digits via the
recompute_* functions below (kept runnable under the `slow` marker), except
T_ORACLE_NB1P5E4_85DB, at 30 digits, and BE_SUP_FROZEN, which comes from
scipy through skellam_normal_distance;
quadratures use mpmath.quad on the defining integrals.  None of the oracle
code shares an evaluation path with the library: Laguerre values come from
the plain binomial sum or mpmath.laguerre, Skellam masses from an mpmath
Miller recurrence anchored at mpmath.besseli, thermal relative entropies from
truncated Fock-space sums, normal-CDF inverses from bisection or from Newton
steps on mpmath's CDF, the heterodyne ln p_MD from mpmath Poisson series
(of p_MD or of its complement) or from a sum of mpmath.besseli values.
heterodyne_log_pmd_loop and difference_masses_rowwise are the deliberate
exceptions: they keep the per-term Poisson loop that the library's Skellam
route replaced and the one-row-at-a-time Laguerre recurrence that its
blocked sweep replaced, as double-precision references.
"""

from __future__ import annotations

import math
from math import exp, factorial, log, log1p

# --- frozen extended-precision references (mpmath, dps=50) ---------------

# Direct double sum over the displaced-Fock joint distribution, nb=1,
# x = eta*ns = 1, K=120 (thermal weights 2^-(k+1): the omitted tail is
# < 4e-37, unresolvable at 50 digits).
T_ORACLE_NB1_X1 = 2.874330588157445722269591688

# mpmath.quad of t*exp(-(t^2+x^2)/2)*I0(t x) over [2, inf) and [0, 2].
MARCUM_Q_1_2 = 0.2690120600359099966785
MARCUM_P_1_2 = 0.7309879399640900033215

# ln of the quadrature of the same integrand over [0, sqrt(-2 ln 1e-3)]
# at x = sqrt(20)  (heterodyne mis-detection, gamma=10, p_fa=1e-3).
HET_LN_PMD_G10 = -1.662271203909955071952

# ln p_MD of the heterodyne receiver at gamma = 500 and 5e5, p_fa=1e-3 (the
# two ends of the M*gamma range of a total-M scan at M=5000 over -10..20 dB),
# from recompute_het_ln_pmd.
HET_LN_PMD_G500 = -394.6916659893738692930847
HET_LN_PMD_G5E5 = -496300.6060684678286103469

# ln p_MD = log1p(-Q) at (gamma, p_fa), from recompute_het_ln_pmd_q: where
# p_MD rounds to 1 (Q ~ 1e-50), near it, where Q ~ 1/4 at the smallest p_fa,
# and where Q ~ 1 - 1e-6, so that the library sums p_MD instead.
HET_LN_PMD_Q_FROZEN = {
    (1e-6, 1e-50): -1.000115132510811601095615e-50,
    (1e-4, 1e-5): -1.001156577928462178902154e-5,
    (665.0, 1e-300): -0.2826372845636267824427714,
    (1e-7, 0.999999): -13.81551065793546843957548,
}

# ln p_MD at p_fa = 1e-3 and huge gamma, from recompute_het_ln_pmd_bessel.
HET_LN_PMD_BESSEL_FROZEN = {
    1e12: -999994743506.6436125670398,
    4e13: -39999966754868.45464904378,
    1e16: -9999999474347858.345434112,
}

# exp(-t) I0(t)
I0E_1 = 0.4657596075936404365019
I0E_7_5 = 0.1483158300773955028384
I0E_19 = 0.0921446572117187577747
I0E_500 = 0.01784570650015316723654

# inverse standard normal CDF (erfinv route, confirmed by 220-step bisection
# of the mpmath CDF)
INV_PHI_1E3 = -3.09023230616781354154
INV_PHI_1E5 = -4.264890793922824628499

# Phi^-1(p) at the exact binary value of each double p, from
# recompute_inv_phi: the center, both shoulders, a deep tail on each side
# and the far lower tail.
INV_PHI_FROZEN = {
    0.5 - 2.0**-26: -3.735167197333277888996032335e-08,
    0.3: -0.5244005127080408159694543623,
    0.75: 0.6744897501960817432022270145,
    1e-3: -3.090232306167813535358004576,
    1.0 - 1e-10: 6.361340889697421864155441787,
    1e-300: -37.0470962993611992365470425,
}

# |<k|D|l>|^2 at x = |beta|^2, from recompute_transition_prob: min(k, l)
# from 30 to 3000, |k - l| in {5, 300}, x in {50, 600, 1e4}, every point of
# that grid whose value exceeds 1e-300, both orientations of k and l.
TP_FROZEN = {
    (30, 35, 50.0): 8.146142308561950198735e-4,
    (35, 30, 600.0): 9.038403195998414188198e-155,
    (30, 330, 50.0): 1.766906573355059243479e-89,
    (330, 30, 600.0): 4.590969127962906713666e-6,
    (300, 305, 50.0): 2.469877037654663967374e-3,
    (305, 300, 600.0): 5.529413601519162478782e-4,
    (300, 600, 50.0): 1.093308660838727499967e-3,
    (600, 300, 600.0): 3.847832653726930223449e-4,
    (3000, 3005, 50.0): 4.602458219771206881603e-4,
    (3005, 3000, 600.0): 3.567685774175824069674e-5,
    (3000, 3005, 1e4): 1.388398173175440091769e-4,
    (3300, 3000, 50.0): 6.545196998056748327537e-7,
    (3000, 3300, 600.0): 2.059713985153097035545e-4,
    (3300, 3000, 1e4): 1.547333485927450463907e-5,
}

# Lower bounds on sup |F_M - Phi| for the standardised M-copy law
# Skellam(M x nb, M x (nb+1)) of the Fock-index difference, keyed by
# (M, nb, x), from skellam_normal_distance over every lattice point within
# 8 standard deviations.  The law depends on M x and nb alone, so grid
# points sharing them share a value.
BE_SUP_FROZEN = {
    (1, 0.1, 1e-2): 0.5254389162676997,
    (1, 0.1, 1.0): 0.2185424353679234,
    (1, 0.1, 100.0): 0.02325940483186345,
    (1, 1.0, 1e-2): 0.5034138994530016,
    (1, 1.0, 1.0): 0.13276029737862866,
    (1, 1.0, 100.0): 0.012800723406914571,
    (1, 600.0, 1e-2): 0.05820026394568473,
    (1, 600.0, 1.0): 0.005758035217562629,
    (1, 600.0, 100.0): 0.0005757441564419041,
    (10, 0.1, 1e-2): 0.5103999150208949,
    (10, 0.1, 1.0): 0.07330200574906248,
    (10, 0.1, 100.0): 0.007357500988862564,
    (10, 1.0, 1e-2): 0.40682397250721203,
    (10, 1.0, 1.0): 0.04061289193132828,
    (10, 1.0, 100.0): 0.0040466223888473984,
    (10, 600.0, 1e-2): 0.018223630711747374,
    (10, 600.0, 1.0): 0.0018206799430208753,
    (10, 600.0, 100.0): 0.00018206611781251825,
    (100, 0.1, 1e-2): 0.2185424353679234,
    (100, 0.1, 1.0): 0.02325940483186345,
    (100, 0.1, 100.0): 0.0023267157777014935,
    (100, 1.0, 1e-2): 0.13276029737862866,
    (100, 1.0, 1.0): 0.012800723406914571,
    (100, 1.0, 100.0): 0.0012796126002871389,
    (100, 600.0, 1e-2): 0.005758035217562629,
    (100, 600.0, 1.0): 0.0005757441564419041,
    (100, 600.0, 100.0): 5.757435632264274e-05,
    (5000, 0.1, 1e-2): 0.032882411640075326,
    (5000, 0.1, 1.0): 0.0032904620712566057,
    (5000, 0.1, 100.0): 0.00032904837244368546,
    (5000, 1.0, 1e-2): 0.0181095368488966,
    (5000, 1.0, 1.0): 0.0018096520549757966,
    (5000, 1.0, 100.0): 0.00018096390642141635,
    (5000, 600.0, 1e-2): 0.0008142260421424852,
    (5000, 600.0, 1.0): 8.142243639697178e-05,
    (5000, 600.0, 100.0): 8.14224359435567e-06,
}

# T summed exactly over third_moment's certified window [-49148, -45742] at
# nb = 1.5e-4, 85 dB (x = eta*ns = 1.5e-4 * 10**8.5), default tail_tol, from
# recompute_t_skellam at dps 30 (dps 50 agrees to every digit of the double).
# The masses' exponent there is built from parts of size ~2e5, so this
# checks their rounding, not the truncation.
T_ORACLE_NB1P5E4_85DB = 11258873237.239769

# thermal closed forms at nb=600, gamma=1
D_600_G1 = 0.9991675914367262547721
V_600_G1 = 1.998335644681233223212


# --- independent oracle implementations -----------------------------------

def laguerre_binomial(n: int, m: int, x: float) -> float:
    """Associated Laguerre polynomial by the alternating binomial sum.

    Only safe where the sum does not cancel catastrophically (small x);
    that is exactly what makes it independent of the recurrence route.
    """
    return math.fsum(
        math.comb(n + m, n - j) * (-x) ** j / factorial(j) for j in range(n + 1)
    )


def thermal_fock_d(n0: float, n1: float, levels: int = 400) -> float:
    """D between zero-mean thermal states from truncated Fock sums."""
    return math.fsum(
        _geom(n0, k) * (_log_geom(n0, k) - _log_geom(n1, k)) for k in range(levels)
    )


def thermal_fock_v(n0: float, n1: float, levels: int = 400) -> float:
    """V between zero-mean thermal states from truncated Fock sums."""
    d = thermal_fock_d(n0, n1, levels)
    second = math.fsum(
        _geom(n0, k) * (_log_geom(n0, k) - _log_geom(n1, k)) ** 2 for k in range(levels)
    )
    return second - d * d


def _geom(nbar: float, k: int) -> float:
    return exp(_log_geom(nbar, k))


def _log_geom(nbar: float, k: int) -> float:
    return k * log(nbar) - (k + 1) * log(nbar + 1.0)


def bisect_inverse_cdf(cdf, target: float, lo: float = -60.0, hi: float = 60.0,
                       width: float = 1e-12) -> float:
    """Bisection inverse of a monotone CDF to the requested interval width."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def marcum_quadrature(x: float, y: float) -> tuple[float, float]:
    """(Q, P) by adaptive quadrature of the defining integral.

    The integrand is rewritten as t exp(-(t-x)^2/2) [e^(-tx) I0(tx)] so it
    never overflows; scipy's scaled Bessel is an implementation unrelated to
    the library's series.
    """
    from scipy.integrate import quad
    from scipy.special import i0e

    def f(t):
        return t * exp(-0.5 * (t - x) ** 2) * i0e(t * x)

    hi = max(y, x) + 60.0
    q, _ = quad(f, y, hi, limit=400, epsabs=1e-14, epsrel=1e-12)
    p, _ = quad(f, 0.0, y, limit=400, epsabs=1e-14, epsrel=1e-12)
    return q, p


def skellam_log_pmf(d: int, mu_plus: float, mu_minus: float) -> float:
    """ln pmf of a difference of independent Poissons, via the scaled Bessel.

    The difference k - l under the displaced-thermal joint distribution
    follows this law with mu_plus = x*nb, mu_minus = x*(nb+1): the
    displacement characteristic function factors into two Poisson ones.
    Entirely independent of the Laguerre machinery.
    """
    from scipy.special import ive

    z = 2.0 * math.sqrt(mu_plus * mu_minus)
    bess = ive(abs(d), z)
    return 0.5 * d * (log(mu_plus) - log(mu_minus)) + z - mu_plus - mu_minus + log(bess)


def skellam_normal_distance(mu1: float, mu2: float) -> float:
    """Lower bound on sup_y |F(y) - Phi((y - mean) / sigma)| for the law F of
    d ~ Skellam(mu1, mu2), mean = mu1 - mu2, sigma^2 = mu1 + mu2.

    At each lattice point d within 8 sigma of the mean, with
    z_d = (d - mean) / sigma, F jumps from F(d - 1) to F(d) while Phi passes
    Phi(z_d); the largest of |F(d) - Phi(z_d)| and |F(d - 1) - Phi(z_d)| is
    returned.  F is scipy.stats.skellam.cdf, whose cost per point grows with
    the means (about 0.3 ms at mu1 + mu2 = 1e7).
    """
    import numpy as np
    from scipy.special import ndtr
    from scipy.stats import skellam

    mean, sd = mu1 - mu2, math.sqrt(mu1 + mu2)
    d = np.arange(math.ceil(mean - 8.0 * sd) - 1, math.floor(mean + 8.0 * sd) + 1)
    f = skellam.cdf(d, mu1, mu2)          # f[i - 1] = F(d_i - 1)
    phi = ndtr((d[1:] - mean) / sd)
    return float(max(np.max(np.abs(f[1:] - phi)), np.max(np.abs(f[:-1] - phi))))


def heterodyne_log_pmd_loop(gamma: float, p_fa: float) -> float:
    """ln p_MD by the per-term log-domain Poisson loop that the library's
    Skellam route replaced: the terms ln Pois_b(j) + ln F_a(j - 1), with
    lgamma for every ln j! and a running logaddexp, stopped once the terms
    have declined past the peak and fallen e^-46 below the total.  Each
    exponent rounds at about eps*b absolute, so it resolves ln p_MD only
    where p_MD <= 1/2, gamma >= b; it is a reference there alone."""
    from math import lgamma

    def logaddexp(u, v):
        if u == -math.inf:
            return v
        if v == -math.inf:
            return u
        if u < v:
            u, v = v, u
        return u + log1p(exp(v - u))

    a, b = gamma, -log(p_fa)
    ln_a = log(a) if a > 0.0 else -math.inf
    ln_b = log(b)
    ln_cum_a = 0.0 if a == 0.0 else -a
    total = peak = -math.inf
    j_min = int(b + 10.0 * math.sqrt(b) + 10.0)
    decline = 0
    j = 1
    while True:
        term = -b + j * ln_b - lgamma(j + 1.0) + ln_cum_a
        total = logaddexp(total, term)
        if term > peak:
            peak, decline = term, 0
        else:
            decline += 1
        if j >= j_min and decline >= 3 and term < total - 46.0:
            return total
        if a > 0.0:
            ln_cum_a = logaddexp(ln_cum_a, -a + j * ln_a - lgamma(j + 1.0))
        j += 1


def tail_edge_bisect(m1: float, m2: float, ln_mass_tol: float, ln_cubic_tol: float):
    """displaced._tail_edge by the search it ran before its Newton start:
    the same integer condition on the same Chernoff bound, whose least
    qualifying offset above floor(mean) is bracketed by doubling from
    5 sigma and then bisected.  Returns (a, mass bound, cubic bound)."""
    from steinradar.displaced import _chernoff_ln_tail

    mean = m1 - m2
    base = math.floor(mean)

    def bounds(a: int):
        ln_c, s = _chernoff_ln_tail(m1, m2, a)
        u = a - mean
        if s * u < 3.0 or ln_c > ln_mass_tol or 3.0 * log(u) + ln_c > ln_cubic_tol:
            return None
        return exp(ln_c), u**3 * exp(ln_c)

    lo, hi = 0, max(1, int(5.0 * math.sqrt(m1 + m2)))
    while bounds(base + hi) is None:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bounds(base + mid) is None:
            lo = mid
        else:
            hi = mid
    return (base + hi, *bounds(base + hi))


def difference_masses_rowwise(nb: float, x: float, tail_tol: float):
    """The masses of displaced._difference_masses, by the recurrence it ran
    before its rows were blocked: one numpy step per row, each row's squared
    amplitudes added to the sum with their thermal weight as they come.

    Same window, rows, seeds, floor and rescale rule (entries past 1e100,
    checked every 16 rows, scaled by 1e-150 into a per-diagonal log scale)
    as the library.  Returns (d, mass, rescales, floored): the number of
    rescales and of seeds that started at the floor, so a test can show
    that it exercised both.
    """
    import numpy as np

    from steinradar import TruncationPolicy
    from steinradar.displaced import _skellam_window, _sweep_rows

    ln_tiny, rescale_at, rescale_by = log(1e-250), 1e100, 1e-150
    win = _skellam_window(nb, x, TruncationPolicy(tail_tol=tail_tol))
    m_lo, m_hi = max(0, -win.hi), max(-win.lo, win.hi)
    n_max = _sweep_rows(nb, tail_tol)
    marr = np.arange(m_lo, m_hi + 1, dtype=np.float64)
    lg = np.array([math.lgamma(m + 1.0) for m in range(m_lo, m_hi + 1)])
    ln_a0 = -0.5 * x + 0.5 * marr * log(x) - 0.5 * lg
    ls = np.where(ln_a0 < ln_tiny, ln_a0 - ln_tiny, 0.0)
    floored, rescales = int(np.count_nonzero(ls)), 0
    b0 = np.exp(ln_a0 - ls)
    b1 = b0 * (1.0 + marr - x) / np.sqrt(marr + 1.0)
    jmax = n_max + m_hi + 2
    sq = np.sqrt(np.arange(jmax + 1, dtype=np.float64))
    rsq = np.zeros(jmax + 1)
    rsq[1:] = 1.0 / sq[1:]
    gr = np.zeros(jmax + 1)                    # gr[j] = sqrt(j / (j+1))
    gr[:jmax] = sq[:jmax] * rsq[1 : jmax + 1]
    lnw, ln_g0 = -log1p(1.0 / nb), -log(nb + 1.0)
    exp2ls = np.exp(2.0 * ls)
    acc = b0 * b0 * exp2ls * exp(ln_g0) + b1 * b1 * exp2ls * exp(ln_g0 + lnw)
    for n in range(1, n_max):
        t = (marr + (2.0 * n + 1.0 - x)) * rsq[n + 1 + m_lo : n + 2 + m_hi] * b1 * rsq[n + 1]
        t -= b0 * gr[n + m_lo : n + 1 + m_hi] * gr[n]
        b0, b1 = b1, t
        acc += b1 * b1 * exp2ls * exp(ln_g0 + (n + 1) * lnw)
        if (n & 15) == 0 and np.abs(b1).max() > rescale_at:
            idx = np.abs(b1) > rescale_at
            b1[idx] *= rescale_by
            b0[idx] *= rescale_by
            ls = ls.copy()
            ls[idx] -= log(rescale_by)
            exp2ls = np.exp(2.0 * ls)
            rescales += 1
    d = np.arange(win.lo, win.hi + 1)
    mass = acc[np.abs(d) - m_lo] * np.power(nb / (nb + 1.0), np.maximum(d, 0))
    return d, mass, rescales, floored


# --- slow recomputation of the frozen values ------------------------------

def recompute_t_oracle(nb: float = 1.0, x: float = 1.0, k_max: int = 120, dps: int = 50):
    """Extended-precision direct double sum for T (and D, V, mass).

    Exact factorial ratios, binomial-sum Laguerre values, no recurrence or
    banding shortcuts.  P(k, l) depends on (min(k, l), |k - l|) alone, so
    each of those probabilities is summed once and shared by (k, l) and
    (l, k).  Returns (d, v, t, mass) as floats.
    """
    import mpmath as mp

    with mp.workdps(dps):
        nb_, x_ = mp.mpf(nb), mp.mpf(x)
        lt = mp.log(nb_ / (nb_ + 1))
        ex = mp.e ** (-x_)
        fact = [mp.mpf(factorial(i)) for i in range(k_max + 1)]
        coef = [(-x_) ** j / fact[j] for j in range(k_max + 1)]   # (-x)^j / j!
        prob = {}
        for n in range(k_max + 1):
            for m in range(k_max + 1 - n):
                lag = mp.fdot([math.comb(n + m, n - j) for j in range(n + 1)], coef[: n + 1])
                prob[n, m] = fact[n] / fact[n + m] * x_**m * ex * lag**2
        d = v = t = mass = mp.mpf(0)
        for k in range(k_max + 1):
            gk = nb_**k / (nb_ + 1) ** (k + 1)
            for l in range(k_max + 1):
                w = gk * prob[min(k, l), abs(k - l)]
                u = (k - l + x_) * lt
                mass += w
                d += w * (k - l) * lt
                v += w * u * u
                t += w * abs(u) ** 3
        return float(d), float(v), float(t), float(mass)


def recompute_t_skellam(nb: float, x: float, lo: int, hi: int,
                        dps: int = 30) -> tuple[float, float]:
    """T and the probability mass of d = k - l ~ Skellam(x nb, x (nb+1)) over
    the window lo <= d <= hi, in mpmath.

    P(d) = e^-(mu1+mu2) (mu1/mu2)^(d/2) I_|d|(z), z = 2 sqrt(mu1 mu2), with
    I_0(z) from mpmath.besseli and I_n/I_0 = y_n/y_0 from Miller's linear
    recurrence y_(n-1) = (2n/z) y_n + y_(n+1), y_(N+1) = 0, y_N = 1, started
    where the ratios past the window damp its start error below e^-80 (so
    far below the working precision).  nb and x are taken at their exact
    binary values.  Returns (T, mass) as floats.
    """
    import mpmath as mp

    with mp.workdps(dps):
        nb_, x_ = mp.mpf(nb), mp.mpf(x)
        mu1, mu2 = x_ * nb_, x_ * (nb_ + 1)
        z = 2 * mp.sqrt(mu1 * mu2)
        n_hi = max(abs(lo), abs(hi))
        n_lo = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        n_start, damp = n_hi, mp.mpf(0)
        while damp < 40:
            n_start += 1
            damp += mp.asinh(n_start / z)
        y_next, y = mp.mpf(0), mp.mpf(1)
        kept = {}
        for n in range(n_start, 0, -1):
            if n_lo <= n <= n_hi:
                kept[n] = y
            y_next, y = y, 2 * n / z * y + y_next
        i0 = mp.besseli(0, z)
        kept[0] = y
        lt = mp.log1p(1 / nb_)
        t = mass = mp.mpf(0)
        for d in range(lo, hi + 1):
            p = mp.exp(-mu1 - mu2 - d * lt / 2) * i0 * kept[abs(d)] / y
            mass += p
            t += p * abs((d + x_) * lt) ** 3
        return float(t), float(mass)


def recompute_transition_prob(k: int, l: int, x: float, dps: int = 50) -> float:
    """|<k|D|l>|^2 = n!/(n+m)! x^m e^-x L_n^(m)(x)^2, n = min(k, l),
    m = |k - l|, with mpmath.laguerre (a hypergeometric series whose
    cancellation mpmath detects and absorbs by raising its precision)."""
    import mpmath as mp

    with mp.workdps(dps):
        n, m = min(k, l), abs(k - l)
        x_ = mp.mpf(x)
        lag = mp.laguerre(n, m, x_)
        ln_scale = mp.loggamma(n + 1) - mp.loggamma(n + m + 1) + m * mp.log(x_) - x_
        return float(mp.exp(ln_scale) * lag**2)


def recompute_inv_phi(p: float, dps: int = 50) -> float:
    """Phi^-1(p) by Newton steps on ln Phi(x) = ln q in mpmath, q = min(p, 1 - p).

    ln Phi is concave, so Newton from the tail asymptote -sqrt(-2 ln q)
    converges monotonically; the steps run until they fall below 10^-(dps+5)
    relative.  p is taken at its exact binary value.
    """
    import mpmath as mp

    with mp.workdps(dps + 10):
        p_ = mp.mpf(p)
        q = min(p_, 1 - p_)
        x = -mp.sqrt(-2 * mp.log(q))
        for _ in range(200):
            step = (mp.log(mp.ncdf(x)) - mp.log(q)) * mp.ncdf(x) / mp.npdf(x)
            x -= step
            if abs(step) <= abs(x) * mp.mpf(10) ** (-dps - 5):
                return float(x if p_ < 0.5 else -x)
        raise ArithmeticError("inverse normal CDF oracle not converged")


def recompute_het_ln_pmd(gamma: float, p_fa: float, dps: int = 50) -> float:
    """ln p_MD of the heterodyne receiver by the complement series in mpmath.

    p_MD = sum_{j>=1} Pois_b(j) P[Pois_a <= j-1], a = gamma, b = -ln p_fa,
    with both Poisson pmfs carried by their multiplicative recurrences from
    exp(-mu) in extended precision.  The sum runs a fixed 40 standard
    deviations past the larger of the two peaks b and sqrt(a b); the last
    term is checked to be negligible at the working precision.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(gamma)
        b = -mp.log(mp.mpf(p_fa))
        peak = max(b, mp.sqrt(a * b))
        n_terms = int(peak + 40 * mp.sqrt(peak)) + 200
        pois_a = mp.exp(-a)           # Pois_a(j - 1)
        pois_b = mp.exp(-b)           # Pois_b(j - 1)
        cdf_a = total = term = mp.mpf(0)
        for j in range(1, n_terms + 1):
            cdf_a += pois_a
            pois_b *= b / j
            term = pois_b * cdf_a
            total += term
            pois_a *= a / j
        if not term < total * mp.mpf(10) ** (-dps - 5):
            raise ArithmeticError("heterodyne oracle series not converged")
        return float(mp.log(total))


def recompute_het_ln_pmd_q(gamma: float, p_fa: float, dps: int = 50) -> float:
    """ln p_MD = log1p(-Q) of the heterodyne receiver, with the detection
    probability Q = sum_(i>=0) Pois_a(i) P[Pois_b <= i], a = gamma,
    b = -ln p_fa, summed in mpmath.

    Q is a positive-term series, so it keeps its relative precision where Q
    is far below the working precision and p_MD rounds to 1, which
    recompute_het_ln_pmd cannot resolve.  The sum runs a fixed 40 standard
    deviations past the larger of a and b; the last term is checked to be
    negligible at the working precision.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(gamma)
        b = -mp.log(mp.mpf(p_fa))
        peak = max(a, b)
        n_terms = int(peak + 40 * mp.sqrt(peak)) + 200
        pois_a, pois_b = mp.exp(-a), mp.exp(-b)     # Pois_a(i), Pois_b(i)
        cdf_b = total = term = mp.mpf(0)
        for i in range(n_terms + 1):
            cdf_b += pois_b
            term = pois_a * cdf_b
            total += term
            pois_a *= a / (i + 1)
            pois_b *= b / (i + 1)
        if not term < total * mp.mpf(10) ** (-dps - 5):
            raise ArithmeticError("heterodyne Q oracle series not converged")
        return float(mp.log1p(-total))


def recompute_het_ln_pmd_bessel(gamma: float, p_fa: float, dps: int = 50) -> float:
    """ln p_MD = ln sum_(k>=1) P(X = k) of the heterodyne receiver, X =
    N_b - N_a the Skellam difference of N_a ~ Pois(gamma) and
    N_b ~ Pois(-ln p_fa), with each P(X = k) = e^-(a+b) (b/a)^(k/2) I_k(z),
    z = 2 sqrt(a b), from mpmath.besseli rather than a recurrence.  Meant
    for gamma >> -ln p_fa, where the terms fall by about sqrt(b/a) each; the
    sum stops once a term drops below the working precision.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(gamma)
        b = -mp.log(mp.mpf(p_fa))
        z = 2 * mp.sqrt(a * b)
        scale = -(a + b)
        total = mp.mpf(0)
        k = 1
        while True:
            term = mp.exp(scale + k * (mp.log(b) - mp.log(a)) / 2) * mp.besseli(k, z)
            total += term
            if term < total * mp.mpf(10) ** (-dps - 5):
                return float(mp.log(total))
            k += 1
