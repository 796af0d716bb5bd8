"""Hypothesis properties: the Skellam law against the closed forms, the
Lyapunov bound on T, T by the Stein identity against mpmath, the window
certificate against the dropped tails, the blocked Bessel-ratio recurrence
against the scalar loop, the window summation against math.fsum, the
monotonicity in SNR of the bound exponents and of the heterodyne exponent,
the heterodyne exponent's sign, the general N-mode D and V against the
thermal closed forms, and the CLI exit-code contract on arbitrary input."""

import contextlib
import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steinradar import (
    CapExceeded,
    DetectionParams,
    RelEntStats,
    SteinRadarError,
    ThermalScenario,
    TruncationPolicy,
    error_exponent,
    heterodyne_log_pmd,
    inv_std_normal_cdf,
    refined_bracket,
    rel_entropy,
    rel_entropy_variance,
    scenario_states,
    std_normal_cdf,
    thermal_closed_forms,
    third_moment,
)
from steinradar import displaced as displaced_mod
from steinradar.displaced import (
    _BLOCKED_FROM,
    _FSUM_BELOW,
    K_MAX_CAP,
    _bessel_ln_ratios,
    _edge_steps,
    _miller_block,
    _perron_bracket,
    _skellam_masses,
    _sum,
)
from steinradar.marcum import _cdf
from steinradar.scan import PER_COPY, TOTAL, main

from oracles import bessel_ratio_mp, recompute_t_skellam

# Skellam windows stay far inside K_MAX_CAP here, so an example costs ms.
nbs = st.floats(1e-2, 1e3)
gammas = st.floats(1e-3, 10.0)


@settings(max_examples=40, deadline=None)
@given(nb=nbs, gamma=gammas)
def test_skellam_mean_and_variance_reproduce_d_and_v(nb, gamma):
    # the log-likelihood ratio is -d ln(1 + 1/nb)
    s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
    d, mass, _ = _skellam_masses(nb, s.ns, TruncationPolicy())
    lt = math.log1p(1.0 / nb)
    mean = math.fsum(mass * d)
    var = math.fsum(mass * (d - mean) ** 2)
    closed = thermal_closed_forms(s)
    assert -mean * lt == pytest.approx(closed.d, rel=1e-8)
    assert var * lt * lt == pytest.approx(closed.v, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(nb=nbs, gamma=gammas)
def test_lyapunov(nb, gamma):
    s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
    assert third_moment(s).t >= thermal_closed_forms(s).v ** 1.5


# nb and x log-uniform in [1e-4, 1e3], so the mpmath sum stays under 10^5
# terms; tail_tol log-uniform in [2^-52, 0.49].
@settings(max_examples=40, deadline=None)
@given(nb=st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
       x=st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
       tail_tol=st.floats(-52.0, math.log2(0.49)).map(lambda e: 2.0**e))
# the window [-2, 0] misses d = +1, one of the identity's masses
@example(nb=2.0**-9, x=2.0**-9, tail_tol=0.49)
# rows of the benchmark grids at the default tail_tol: crosscheck (nb = 10,
# x = 1.39 and 5 dB), low-background (nb = 0.1, -10 and 20 dB) and default
# (nb = 600, -15 dB); windows cut by the mass alone fail the two at nb = 10
# and the one at nb = 600
@example(nb=10.0, x=1.39, tail_tol=1e-10)
@example(nb=10.0, x=10.0 ** 0.5 * 10.0, tail_tol=1e-10)
@example(nb=0.1, x=10.0 ** -1.0 * 0.1, tail_tol=1e-10)
@example(nb=0.1, x=10.0 ** 2.0 * 0.1, tail_tol=1e-10)
@example(nb=600.0, x=10.0 ** -1.5 * 600.0, tail_tol=1e-10)
def test_stein_identity_within_derived_bound(nb, x, tail_tol):
    # T by the Stein identity against an mpmath sum over the window at
    # tail_tol = 4e-16, divided by its mass: never low past the rounding,
    # never high past the truncation bound and the rounding, both as
    # third_moment derives them
    policy = TruncationPolicy(tail_tol=tail_tol)
    res = third_moment(ThermalScenario(nb=nb, eta=1.0, ns=x), policy)
    lo, hi = _skellam_masses(nb, x, TruncationPolicy(tail_tol=4e-16))[0][[0, -1]].tolist()
    t_ref, m_ref = recompute_t_skellam(nb, x, lo, hi)
    ref = t_ref / m_ref

    d, mass, rounding = _skellam_masses(nb, x, policy)
    # each side drops at most tail_tol/4 min(1, (sigma/u)^3) of the mass,
    # u its edge's distance from the mean -x
    sigma = math.sqrt(x * (2.0 * nb + 1.0))
    dl, dh = (tail_tol / 4.0 * min(1.0, (sigma / u) ** 3) for u in (-x - d[0], d[-1] + x))
    truncation = max(dl + dh, 2.0 * dh) / (1.0 - dl - dh)
    r_mean = rounding() / res.captured_mass
    i = -(math.ceil(x) - 1) - int(d[0])            # mass[i] is at d = -c
    near = mass[i - 1 : i + 2].copy()
    mass[:] = 0.0       # rounding() weights each mass's bound by the mass it reads
    mass[i - 1 : i + 2] = near
    a_near = rounding() / near.min()
    # + the reference's own truncation (2e-16) and conversion to a float
    slack = 2.0 * (a_near + r_mean) + 16.0 * 2.0**-52 + 4e-16
    assert ref * (1.0 - slack) <= res.t
    assert res.t <= ref * (1.0 + truncation) * (1.0 + slack)


# sigma log-uniform in [1e-2, 1e4] and u/sigma in [1e-2, 1e2], so u < sigma
# and u > sigma both; the last ratio q' = q e^(3/u) in [e^-30, e^-1e-6]; the
# edge mass e^offset times the one that meets tail_tol/4 at q' alone, so the
# inequality passes and misses both.
@settings(max_examples=100, deadline=None)
@given(ln_qc=st.floats(-30.0, -1e-6), sigma=st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
       ratio=st.floats(-2.0, 2.0).map(lambda e: 10.0**e), offset=st.floats(-60.0, 10.0),
       tail_tol=st.floats(-52.0, math.log2(0.49)).map(lambda e: 2.0**e))
@example(ln_qc=-0.5, sigma=2.0, ratio=0.25, offset=0.0, tail_tol=1e-10)
# u < sigma, where a weight 3 ln(u/sigma) not floored at 0 would pass
@example(ln_qc=-0.5, sigma=1e3, ratio=0.01, offset=10.0, tail_tol=0.49)
@example(ln_qc=-0.05, sigma=8.0, ratio=7.5, offset=-6.0, tail_tol=1e-10)
def test_edge_inequality_bounds_mass_and_cubic_weight(ln_qc, sigma, ratio, offset, tail_tol):
    # Where _edge_steps' one inequality passes, a tail that falls from the
    # edge mass p geometrically at the last ratio q, as fast as a log-concave
    # tail may, has mass at most tail_tol/4 min(1, (sigma/u)^3) and cubic
    # weight sum_(j >= 1) p q^j (u + j)^3 at most tail_tol/4 sigma^3, both
    # summed here in closed form in mpmath, from sum_(j >= 1) q^j j^k
    import mpmath as mp
    u, ln_tol = ratio * sigma, math.log(tail_tol / 4.0)
    ln_last = ln_tol - (ln_qc - math.log(-math.expm1(ln_qc))) + offset
    ln_q = ln_qc - 3.0 / u
    assume(_edge_steps(ln_last, ln_last - ln_q, u, sigma, ln_tol) == 0)
    with mp.workdps(40):
        q, u_, s = mp.exp(ln_q), mp.mpf(u), mp.mpf(sigma)
        s0, s1 = q / (1 - q), q / (1 - q) ** 2
        s2, s3 = q * (1 + q) / (1 - q) ** 3, q * (1 + 4 * q + q * q) / (1 - q) ** 4
        p, tol = mp.exp(ln_last), mp.mpf(tail_tol) / 4
        mass = p * s0
        cubic = p * (u_**3 * s0 + 3 * u_**2 * s1 + 3 * u_ * s2 + s3)
        # 1e-12: the float rounding of the inequality where it passes narrowly
        assert mass <= tol * min(1, (s / u_) ** 3) * (1 + mp.mpf(1e-12))
        assert cubic <= tol * s**3 * (1 + mp.mpf(1e-12))


# Terms of each dropped tail summed one by one; a geometric series bounds the rest.
_TAIL_TERMS = 256


# nb log-uniform in [1e-6, 1e3], x log-uniform from 1e-4 up to the variance
# x (2 nb + 1) = 1e8, tail_tol log-uniform in [2^-52, 0.49].
@settings(max_examples=40, deadline=None)
@given(nb=st.floats(-6.0, 3.0).map(lambda e: 10.0**e), frac=st.floats(0.0, 1.0),
       tail_tol=st.floats(-52.0, math.log2(0.49)).map(lambda e: 2.0**e))
@example(nb=1e-6, frac=0.0, tail_tol=0.49)
@example(nb=1e3, frac=1.0, tail_tol=2.0**-52)
@example(nb=10.0, frac=0.388, tail_tol=1e-10)   # x = 1.39: the start misses, and widens
def test_window_certificate_covers_dropped_tails(nb, frac, tail_tol):
    # The Skellam pmf is log-concave, as a convolution of Poisson pmfs, and
    # so is pmf(d) |d + x|^3 beyond the mean -x, where both tails lie.  Past
    # the summed terms, each tail thus shrinks at least geometrically at its
    # last ratio, so the sums below are upper bounds on what the window drops:
    # on each side at most tail_tol/4 of the mass and tail_tol/4 sigma^3 of
    # the cubic weight.
    from scipy.special import logsumexp
    from scipy.stats import skellam

    x = 10.0 ** (-4.0 + frac * (12.0 - math.log10(2.0 * nb + 1.0)))
    m1, m2 = x * nb, x * (nb + 1.0)
    try:
        lo, hi = _skellam_masses(nb, x, TruncationPolicy(tail_tol=tail_tol))[0][[0, -1]].tolist()
    except CapExceeded:      # its chain would pass K_MAX_CAP: no window, no T
        assert x + 20.0 * math.sqrt(m1 + m2) > K_MAX_CAP
        return
    ln_tol = math.log(tail_tol / 4.0)
    steps = np.arange(_TAIL_TERMS)
    for d in (hi + 1 + steps, lo - 1 - steps):
        ln_p = skellam.logpmf(d, m1, m2)
        for ln_w, ln_bound in ((ln_p, ln_tol),
                               (ln_p + 3.0 * np.log(np.abs(d + x)), ln_tol + 1.5 * math.log(m1 + m2))):
            parts = [logsumexp(ln_w)]
            if ln_w[-1] > -math.inf:
                ln_r = ln_w[-1] - ln_w[-2]
                assert ln_r < 0.0
                parts.append(ln_w[-1] + ln_r - math.log(-math.expm1(ln_r)))
            # 1e-9: the relative error of scipy's pmf
            assert logsumexp(parts) <= ln_bound + 1e-9


def _ln_ratio_bound(z: float, ln_ratio: np.ndarray, ell: int, c: float = 6.5) -> np.ndarray:
    """The rounding bound _bessel_ln_ratios states, at block length ell:
    eps (k_n |L_n| + 4 (n + ell) + D_n), k_n = ceil(n / ell) + 1,
    D_n = 2 / (1 - exp(-2 asinh(n / z))) + c exp(-2 (N + 1 - n) asinh(n / z)),
    N = ceil(n_hi / ell) ell, and L_0 = 0 exactly.  c = 0 for a Miller run
    started where its start's error is damped far below eps."""
    n = np.arange(len(ln_ratio), dtype=np.float64)
    top = -(-(len(ln_ratio) - 1) // ell) * ell
    ash = 2.0 * np.arcsinh(np.maximum(n, 1.0) / z)
    damped = 2.0 / -np.expm1(-ash) + c * np.exp(-(top + 1 - n) * ash)
    bound = 2.0**-52 * ((np.ceil(n / ell) + 1.0) * np.abs(ln_ratio) + 4.0 * (n + ell) + damped)
    bound[0] = 0.0
    return bound


# z over 1e-8..1e7 and recurrences up to ~1e5 steps, on both sides of the
# switch; the examples are nb=1e-6, x=1e5, where 2N/z ~ 1e3 caps the block
# length (85, against sqrt(N/8) = 113) so that the blocks stay finite, and
# a z far above the chain, where every ratio is near 1.
@settings(max_examples=40, deadline=None)
@given(z=st.floats(-8.0, 7.0).map(lambda e: 10.0**e),
       n_hi=st.integers(1, 400) | st.integers(1, 40_000))
@example(z=200.000099999975, n_hi=102_483)
@example(z=1e12, n_hi=40_000)
def test_blocked_bessel_ln_ratios_match_scalar_loop(z, n_hi):
    with mock.patch.object(displaced_mod, "_BLOCKED_FROM", 0):
        ell = _miller_block(z, n_hi + 1)
        blocked = _bessel_ln_ratios(z, n_hi)
    with mock.patch.object(displaced_mod, "_BLOCKED_FROM", K_MAX_CAP + 1):
        loop = _bessel_ln_ratios(z, n_hi)
    got = _bessel_ln_ratios(z, n_hi)
    assert np.array_equal(got, blocked if n_hi + 1 >= _BLOCKED_FROM else loop)
    assert np.all(np.isfinite(blocked)) and np.all(np.isfinite(loop))
    bound = _ln_ratio_bound(z, loop, ell) + _ln_ratio_bound(z, loop, 1)
    assert np.all(np.abs(blocked - loop) <= bound)


def _full_store_ln_ratios(z: float, n_hi: int) -> np.ndarray:
    """ln(I_n / I_0), n = 0..n_hi, by the scalar Miller loop from a zero
    ratio at the least N whose ratios above n_hi damp that start's error by
    e^-80 or more, storing every ratio down from N."""
    n_start, damp = n_hi, 0.0
    while damp < 40.0:
        n_start += 1
        damp += math.asinh(n_start / z)
    rho = np.empty(n_start + 1)
    rho[0] = 1.0
    r = 0.0
    for n in range(n_start, 0, -1):
        r = z / (2.0 * n + z * r)
        rho[n] = r
    return np.cumsum(np.log(rho[: n_hi + 1]))


# z over 1e-8..4e3 and chains on the scalar side of the switch; the example
# is the low-background grid's largest heterodyne z with a short chain.
@settings(max_examples=200, deadline=None)
@given(z=st.floats(-8.0, 3.6).map(lambda e: 10.0**e), n_hi=st.integers(1, 500))
@example(z=3717.0, n_hi=10)
def test_scalar_bessel_ln_ratios_match_full_store_loop(z, n_hi):
    assume(n_hi + 1 < _BLOCKED_FROM)
    got = _bessel_ln_ratios(z, n_hi)
    want = _full_store_ln_ratios(z, n_hi)
    assert np.all(np.abs(got - want) <= _ln_ratio_bound(z, want, 1) + _ln_ratio_bound(z, want, 1, c=0.0))


# nu and z over the whole range _perron_bracket admits; the examples are
# the cancelling first step from the tail 2z and the low-background grid's
# smallest, middle and largest z with the nu its heterodyne tails seed.
@settings(max_examples=100, deadline=None)
@given(nu=st.integers(1, 40) | st.integers(1, 10_000),
       z=st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
@example(nu=2, z=1e150)
@example(nu=11, z=1.56)
@example(nu=23, z=117.53940002383999)
@example(nu=11, z=3716.9221888498387)
def test_perron_bracket_contains_the_bessel_ratio(nu, z):
    import mpmath as mp

    lo, hi, e = _perron_bracket(z, nu)
    want = bessel_ratio_mp(nu, z)
    assert mp.mpf(lo) * (1 - mp.mpf(e)) <= want <= mp.mpf(hi) * (1 + mp.mpf(e))
    assert hi - lo <= math.ulp(hi) + e * (lo + hi)
    assert e < 8.0 * 2.0**-53                  # S < 1


def _exact_sum(values) -> Fraction:
    """Exact sum of finite floats: each is an integer multiple of 2^-1074."""
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()
        total += num << (1075 - den.bit_length())
    return Fraction(total, 1 << 1074)


# Lengths on both sides of the fsum switch, magnitudes 10^lo..10^(lo+span)
# within [1e-300, 1e3], nonnegative as _sum's precondition asks.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4096) | st.integers(0, 20_000), seed=st.integers(0, 2**32 - 1),
       lo=st.floats(-300.0, 3.0), span=st.floats(0.0, 303.0))
@example(n=_FSUM_BELOW - 1, seed=0, lo=-3.0, span=3.0)
@example(n=_FSUM_BELOW, seed=0, lo=-3.0, span=3.0)
@example(n=_FSUM_BELOW, seed=1, lo=-300.0, span=303.0)
def test_sum_within_stated_bound_of_exact(n, seed, lo, span):
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(lo, min(lo + span, 3.0), n)
    got = _sum(x)
    want = math.fsum(x.tolist())
    exact = _exact_sum(x.tolist())
    u = Fraction(1, 2**53)
    g = (n - 1) * u / (1 - (n - 1) * u)
    assert abs(Fraction(got) - exact) <= u * abs(exact) + g * g * _exact_sum(np.abs(x).tolist())
    if n < _FSUM_BELOW:
        assert got == want
    else:
        assert abs(got - want) <= math.ulp(want)


def _edge_sum_inputs():
    # nonnegative, as _sum's precondition asks
    rng = np.random.default_rng(20)
    huge = rng.uniform(0.0, 1e304, 600)
    huge[17] = 1.5e308                                  # sigma would pass 2^1023: fsum
    return {
        "zeros": np.zeros(4096),
        "subnormal": rng.integers(1, 2**40, 4096) * 5e-324,
        "near-1e308": huge,
        # sigma = 2^1023, the kernel's largest
        "largest-sigma": 2.0 ** rng.uniform(1012.0, 1013.0, 600),
        "fsum-switch": 10.0 ** rng.uniform(-3.0, 0.0, _FSUM_BELOW),
    }


@pytest.mark.parametrize("name", list(_edge_sum_inputs()))
def test_sum_edge_cases_within_stated_bound_of_exact(name):
    x = _edge_sum_inputs()[name]
    n = len(x)
    got = _sum(x)
    exact = _exact_sum(x.tolist())
    u = Fraction(1, 2**53)
    g = (n - 1) * u / (1 - (n - 1) * u)
    assert math.isfinite(got)
    assert abs(Fraction(got) - exact) <= u * abs(exact) + g * g * _exact_sum(np.abs(x).tolist())
    if name in ("zeros", "subnormal", "near-1e308"):
        # exact sums, and the fsum fallback, leave nothing to round
        assert got == math.fsum(x.tolist())


# Nonnegative arrays of 1 to 5,000 terms, magnitudes 10^lo..10^(lo+span)
# within [1e-300, 1], some of them exact zeros, as in a Poisson window's tails.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       lo=st.floats(-300.0, 0.0), span=st.floats(0.0, 300.0), zeros=st.booleans())
@example(n=1, seed=0, lo=0.0, span=0.0, zeros=False)
@example(n=5000, seed=1, lo=-300.0, span=300.0, zeros=True)
def test_marcum_cdf_total_within_an_ulp_of_fsum(n, seed, lo, span, zeros):
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(lo, min(lo + span, 0.0), n)
    if zeros:
        x[rng.random(n) < 0.2] = 0.0
    want = math.fsum(x.tolist())
    assert abs(_cdf(x)[-1] - want) <= math.ulp(want)


# eps_lambda = D + sqrt(V/M) Phi^-1(p_fa) = a g - b sqrt(g) in the SNR g, with
# a = nb lt and b = -sqrt(nb (2nb+1) / M) lt Phi^-1(p_fa), lt = ln(1 + 1/nb).
# For p_fa < 1/2 it falls to a single minimum at g* = b^2 / (4 a^2)
# = Phi^-1(p_fa)^2 (2nb+1) / (4 M nb) and rises after; eps_first_order = D
# rises everywhere.  SNRs are drawn 0..40 dB above or below g*.
@settings(max_examples=80, deadline=None)
@given(nb=st.floats(1e-2, 1e3), m=st.integers(1, 10**6),
       p_fa=st.sampled_from([1e-6, 1e-3]) | st.floats(1e-6, 0.49),
       db1=st.floats(0.0, 40.0), db2=st.floats(0.0, 40.0), above=st.booleans())
def test_bound_exponents_monotone_in_snr(nb, m, p_fa, db1, db2, above):
    params = DetectionParams(p_fa=p_fa, m=m)
    q = inv_std_normal_cdf(p_fa)
    g_star = q * q * (2.0 * nb + 1.0) / (4.0 * m * nb)
    sign = 1.0 if above else -1.0
    g1, g2 = sorted(g_star * 10.0 ** (sign * db / 10.0) for db in (db1, db2))
    lt = math.log1p(1.0 / nb)
    a = nb * lt
    b = -math.sqrt(nb * (2.0 * nb + 1.0) / m) * lt * q
    r1, r2 = math.sqrt(g1), math.sqrt(g2)
    # f(g2) - f(g1) = (r2 - r1) (a (r1 + r2) - b); the rounding of each
    # exponent is a few ulps of its largest term
    gap = (r2 - r1) * (a * (r1 + r2) - b)
    scale = a * g2 + b * r2 + 2.0 * math.log(m) / m
    assume(abs(gap) > 1e-10 * scale)

    def exponents(g):
        stats = thermal_closed_forms(ThermalScenario(nb=nb, eta=1.0, ns=g * nb))
        b = refined_bracket(stats.with_t(stats.v ** 1.5), params)
        return (stats.d, error_exponent(b.log_lambda_upper, m),
                error_exponent(b.log_lambda_lower, m))

    (first1, up1, low1), (first2, up2, low2) = exponents(g1), exponents(g2)
    assert first1 < first2
    if above:
        assert up1 < up2 and low1 < low2
    else:
        assert up1 > up2 and low1 > low2


# Up to gamma ~ 1e9, and on to 1e16, where z = 2 sqrt(gamma b) ~ 5e8 lies
# far above the heterodyne's short Perron-seeded Bessel chain.
snrs = st.floats(0.0, 1e9) | st.floats(5e8, 1e9) | st.floats(1e9, 1e16)


@settings(max_examples=60, deadline=None)
@given(g1=snrs, g2=snrs, p_fa=st.sampled_from([1e-6, 1e-3]) | st.floats(1e-6, 0.5))
def test_heterodyne_log_pmd_decreases_in_snr(g1, g2, p_fa):
    lo, hi = sorted((g1, g2))
    # a gap that moves ln p_MD by >= ~1e-11, far past its rounding (a few
    # eps relative, the error budget heterodyne_log_pmd states)
    assume(hi - lo > 1e-6 * (1.0 + hi))
    assert heterodyne_log_pmd(lo, p_fa) > heterodyne_log_pmd(hi, p_fa)


# p_MD <= 1 over the whole range, down to p_fa = 1e-300 and gamma near 0,
# where p_MD rounds to 1 and the route sums its complement Q instead.
@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(0.0, 1e12) | st.floats(-12.0, 2.0).map(lambda e: 10.0**e),
       p_fa=st.floats(1e-300, 0.9) | st.floats(-300.0, -0.05).map(lambda e: 10.0**e))
@example(gamma=1e-6, p_fa=1e-50)
def test_heterodyne_log_pmd_nonpositive(gamma, p_fa):
    assert heterodyne_log_pmd(gamma, p_fa) <= 0.0


# The value contract of the public numeric functions: each call raises
# ValueError or SteinRadarError, or returns finite numbers in range.  Floats
# are drawn over the whole line, NaN, +-inf, 0 and subnormals included, with
# the edges of the float range sampled directly.
any_float = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.1, 0.5,
     1.0, 2.0**53, 1e150, 1e160, 1e300, 1e308, -1.0])
any_m = st.integers(-2, 2**54) | st.sampled_from([1, 5, 2**53]) | any_float


def _refused(call, *args):
    """call(*args), or None where it raises ValueError or SteinRadarError."""
    try:
        return call(*args)
    except (ValueError, SteinRadarError):
        return None


@settings(max_examples=150, deadline=None)
@given(d=any_float, v=any_float, t=any_float | st.none(), p_fa=any_float, m=any_m)
@example(d=1e300, v=1.0, t=1.0, p_fa=0.1, m=2**53)     # -M d once came back -inf
def test_moments_and_bracket_keep_the_contract(d, v, t, p_fa, m):
    stats = _refused(RelEntStats, d, v, t)
    if stats is None:
        return
    assert all(0.0 <= x < math.inf for x in (stats.d, stats.v))
    assert stats.t is None or 0.0 <= stats.t < math.inf
    params = _refused(DetectionParams, p_fa, m)
    if params is None:
        return
    b = _refused(refined_bracket, stats, params)
    if b is None:
        return
    # the logs bound p_MD, so may exceed 0 where a bound exceeds 1
    for x in (b.log_first_order, b.log_lambda_upper, b.log_lambda_lower, b.theta_u,
              b.theta_l, b.log_refined_upper, b.log_refined_lower):
        assert x is None or math.isfinite(x)
    assert b.log_first_order <= 0.0


@settings(max_examples=150, deadline=None)
@given(x=any_float, m=any_m)
@example(x=math.nan, m=5)       # error_exponent and std_normal_cdf once returned NaN
@example(x=-1.0, m=1.5)         # error_exponent once took m = 1.5
def test_scalar_functions_keep_the_contract(x, m):
    e = _refused(error_exponent, x, m)
    assert e is None or math.isfinite(e)
    if isinstance(m, float):
        assert e is None
    p = _refused(std_normal_cdf, x)
    assert (p is None) == math.isnan(x)
    assert p is None or 0.0 <= p <= 1.0
    q = _refused(inv_std_normal_cdf, x)
    assert (q is None) != (0.0 < x < 1.0)
    assert q is None or math.isfinite(q)


@settings(max_examples=150, deadline=None)
@given(nb=any_float, eta=any_float, ns=any_float)
@example(nb=1e160, eta=1.0, ns=1e150)     # v once overflowed to inf
def test_closed_forms_keep_the_contract(nb, eta, ns):
    scenario = _refused(ThermalScenario, nb, eta, ns)
    if scenario is None:
        return
    stats = _refused(thermal_closed_forms, scenario)
    if stats is not None:
        assert 0.0 <= stats.d < math.inf and 0.0 <= stats.v < math.inf


@settings(max_examples=150, deadline=None)
@given(nb=any_float, eta=any_float, ns=any_float)
@example(nb=1e16, eta=1.0, ns=1e16)       # the Gibbs matrix once rounded to 0 here
@example(nb=10.0, eta=1.0, ns=1e-8)       # D once cancelled to 3e-7 off at -90 dB
@example(nb=1.0, eta=1.0, ns=1e308)       # the mean sqrt(2 ns) overflows
def test_general_formulas_keep_the_contract(nb, eta, ns):
    scenario = _refused(ThermalScenario, nb, eta, ns)
    states = scenario and _refused(scenario_states, scenario)
    if states is None:
        return
    d = _refused(rel_entropy, *states)
    v = _refused(rel_entropy_variance, *states)
    assert all(x is None or 0.0 <= x < math.inf for x in (d, v))
    closed = _refused(thermal_closed_forms, scenario)
    if None in (d, v, closed) or not (1e-6 <= nb <= 1e20 and scenario.snr >= 1e-12):
        return
    assert d == pytest.approx(closed.d, rel=1e-9)
    assert v == pytest.approx(closed.v, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(gamma=any_float, p_fa=any_float)
@example(gamma=3e307, p_fa=1e-3)         # a b once overflowed ln P(0) into log(0)
@example(gamma=1e306, p_fa=1e-300)
def test_heterodyne_keeps_the_contract(gamma, p_fa):
    # a ValueError only outside the documented domain, a SteinRadarError only inside
    if not (0.0 <= gamma < math.inf and 0.0 < p_fa < 1.0):
        with pytest.raises(ValueError):
            heterodyne_log_pmd(gamma, p_fa)
        return
    try:
        ln_pmd = heterodyne_log_pmd(gamma, p_fa)
    except SteinRadarError:
        return
    assert -math.inf < ln_pmd <= 0.0


def _floats_or_specials(lo, hi):
    return st.floats(lo, hi) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


# SNR draws span -100..3100 dB: the heterodyne route takes a few us a row
# at any finite gamma, and past the float range the config rejects the grid
# at once.  The worker count is pinned to 1, never drawn.
@settings(max_examples=60, deadline=None)
@given(
    nb=_floats_or_specials(-1e3, 1e4) | st.floats(1e-320, 1e308),
    snr_lo=_floats_or_specials(-100.0, 3100.0),
    snr_hi=_floats_or_specials(-100.0, 3100.0),
    points=st.integers(2, 4),
    tail_tol=_floats_or_specials(1e-20, 2.0),
    convention=st.sampled_from([PER_COPY, TOTAL]),
)
# 2 nb overflows: V must stay finite, so that T's CapExceeded ends the row (exit 3)
@example(nb=1e308, snr_lo=-20.0, snr_hi=-10.0, points=2, tail_tol=1e-10, convention=PER_COPY)
# the heterodyne a b passes the float range, but z and ln P(0) take no
# product a b, so the table is finite (exit 0)
@example(nb=1e-306, snr_lo=3075.0, snr_hi=3076.0, points=2, tail_tol=1e-10, convention=PER_COPY)
# T's window [-2, 0] misses d = +1, a mass its Stein identity reads (exit 0)
@example(nb=2.0**-9, snr_lo=0.0, snr_hi=1.0, points=2, tail_tol=0.49, convention=PER_COPY)
def test_main_exit_code_contract(nb, snr_lo, snr_hi, points, tail_tol, convention):
    argv = [f"--nb={nb!r}", f"--snr-db-min={snr_lo!r}", f"--snr-db-max={snr_hi!r}",
            f"--points={points}", f"--tail-tol={tail_tol!r}",
            f"--benchmark-m-convention={convention}", "--workers=1"]
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse rejected the argument vector
            code = exc.code
    assert code in (0, 2, 3)
    if code == 0:                     # a finished table holds no NaN or inf
        out.flush()
        table = out.buffer.getvalue()
        assert b"nan" not in table and b"inf" not in table
