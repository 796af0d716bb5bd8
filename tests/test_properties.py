"""Hypothesis properties: the Skellam law against the closed forms, the
Lyapunov bound on T, the window certificate against the dropped tails, the
window edges against a search by bisection, the blocked Bessel-ratio recurrence against the scalar loop, the window
summation against math.fsum, the monotonicity in SNR of the bound exponents
and of the heterodyne exponent, the heterodyne exponent's sign, and the CLI
exit-code contract on arbitrary input."""

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
    DetectionParams,
    ThermalScenario,
    TruncationPolicy,
    error_exponent,
    heterodyne_log_pmd,
    inv_std_normal_cdf,
    thermal_closed_forms,
    third_moment,
)
from steinradar.bounds import lambda_bracket
from steinradar import displaced as displaced_mod
from steinradar.displaced import (
    _BLOCKED_FROM,
    _FSUM_BELOW,
    K_MAX_CAP,
    _bessel_ln_ratios,
    _miller_block,
    _miller_start,
    _skellam_masses,
    _skellam_window,
    _sum,
    _tail_edge,
)
from steinradar.marcum import _cdf
from steinradar.scan import PER_COPY, TOTAL, main

from oracles import tail_edge_bisect

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


# Terms of each dropped tail summed one by one; a geometric series bounds the rest.
_TAIL_TERMS = 256


# nb log-uniform in [1e-6, 1e3], x log-uniform from 1e-4 up to the variance
# x (2 nb + 1) = 1e8, tail_tol log-uniform in [2^-52, 0.49].
@settings(max_examples=40, deadline=None)
@given(nb=st.floats(-6.0, 3.0).map(lambda e: 10.0**e), frac=st.floats(0.0, 1.0),
       tail_tol=st.floats(-52.0, math.log2(0.49)).map(lambda e: 2.0**e))
@example(nb=1e-6, frac=0.0, tail_tol=0.49)
@example(nb=1e3, frac=1.0, tail_tol=2.0**-52)
def test_window_certificate_covers_dropped_tails(nb, frac, tail_tol):
    # The Skellam pmf is log-concave, as a convolution of Poisson pmfs, and
    # so is pmf(d) |d + x|^3 beyond the mean -x, where both tails lie.  Past
    # the summed terms, each tail thus shrinks at least geometrically at its
    # last ratio, so the sums below are upper bounds on what the window drops.
    from scipy.special import logsumexp
    from scipy.stats import skellam

    x = 10.0 ** (-4.0 + frac * (12.0 - math.log10(2.0 * nb + 1.0)))
    m1, m2 = x * nb, x * (nb + 1.0)
    win = _skellam_window(nb, x, TruncationPolicy(tail_tol=tail_tol))
    steps = np.arange(_TAIL_TERMS)
    ln_mass, ln_cubic = [], []
    for d in (win.hi + 1 + steps, win.lo - 1 - steps):
        ln_p = skellam.logpmf(d, m1, m2)
        for ln_w, parts in ((ln_p, ln_mass), (ln_p + 3.0 * np.log(np.abs(d + x)), ln_cubic)):
            parts.append(logsumexp(ln_w))
            if ln_w[-1] > -math.inf:
                ln_r = ln_w[-1] - ln_w[-2]
                assert ln_r < 0.0
                parts.append(ln_w[-1] + ln_r - math.log(-math.expm1(ln_r)))
    # 1e-9: the relative error of scipy's pmf
    assert logsumexp(ln_mass) <= math.log(win.tail_mass) + 1e-9
    assert logsumexp(ln_cubic) <= math.log(win.tail_cubic) + 1e-9
    # the window's own promise; 1e-12 for exp of its log-space comparison
    assert win.tail_mass <= tail_tol / 2.0
    assert win.tail_cubic <= tail_tol / 2.0 * (m1 + m2) ** 1.5 * (1.0 + 1e-12)


# nb log-uniform in [1e-8, 1e4] and x in [1e-4, 1e6], at tolerances from
# unit mass resolution to loose; both edges of the window.
@settings(max_examples=200, deadline=None)
@given(nb=st.floats(-8.0, 4.0).map(lambda e: 10.0**e),
       x=st.floats(-4.0, 6.0).map(lambda e: 10.0**e),
       tail_tol=st.sampled_from([2.0**-52, 1e-10, 1e-6, 1e-3]))
@example(nb=1e-8, x=1e-4, tail_tol=2.0**-52)
@example(nb=1e4, x=1e6, tail_tol=1e-3)
@example(nb=0.32258461389977083, x=0.00045215630630056645, tail_tol=2.0**-52)  # climbs
@example(nb=4.263088740576631e-05, x=1.302119287544607, tail_tol=2.0**-52)    # walks down
def test_tail_edge_matches_bisection(nb, x, tail_tol):
    m1, m2 = x * nb, x * (nb + 1.0)
    ln_mass_tol = math.log(tail_tol / 4.0)
    ln_cubic_tol = ln_mass_tol + 1.5 * math.log(m1 + m2)
    for upper, lower in ((m1, m2), (m2, m1)):
        assert (_tail_edge(upper, lower, ln_mass_tol, ln_cubic_tol)
                == tail_edge_bisect(upper, lower, ln_mass_tol, ln_cubic_tol))


def _ln_ratio_bound(z: float, ln_ratio: np.ndarray, ell: int) -> np.ndarray:
    """The rounding bound _bessel_ln_ratios states, at block length ell:
    eps (k_n |L_n| + 4 (n + ell) + D_n), k_n = ceil(n / ell) + 1,
    D_n = 2 / (1 - exp(-2 asinh(n / z))), and L_0 = 0 exactly."""
    n = np.arange(len(ln_ratio), dtype=np.float64)
    damped = 2.0 / -np.expm1(-2.0 * np.arcsinh(np.maximum(n, 1.0) / z))
    bound = 2.0**-52 * ((np.ceil(n / ell) + 1.0) * np.abs(ln_ratio) + 4.0 * (n + ell) + damped)
    bound[0] = 0.0
    return bound


# z over 1e-8..1e7 and recurrences up to ~1e5 steps, on both sides of the
# switch; the example is nb=1e-6, x=1e5, where 2N/z ~ 1e3 caps the block
# length (85, against sqrt(N/8) = 113) so that the blocks stay finite.
@settings(max_examples=40, deadline=None)
@given(z=st.floats(-8.0, 7.0).map(lambda e: 10.0**e),
       n_hi=st.integers(1, 400) | st.integers(1, 40_000))
@example(z=200.000099999975, n_hi=102_483)
def test_blocked_bessel_ln_ratios_match_scalar_loop(z, n_hi):
    n_start = _miller_start(z, n_hi)
    assume(n_start <= 120_000)
    with mock.patch.object(displaced_mod, "_BLOCKED_FROM", 0):
        ell = _miller_block(z, n_start)
        blocked = _bessel_ln_ratios(z, n_hi)
    with mock.patch.object(displaced_mod, "_BLOCKED_FROM", K_MAX_CAP + 1):
        loop = _bessel_ln_ratios(z, n_hi)
    got = _bessel_ln_ratios(z, n_hi)
    assert np.array_equal(got, blocked if n_start >= _BLOCKED_FROM else loop)
    assert np.all(np.isfinite(blocked)) and np.all(np.isfinite(loop))
    bound = _ln_ratio_bound(z, loop, ell) + _ln_ratio_bound(z, loop, 1)
    assert np.all(np.abs(blocked - loop) <= bound)


def _full_store_ln_ratios(z: float, n_hi: int, n_start: int) -> np.ndarray:
    """The scalar Miller loop storing every ratio down from n_start, as
    _bessel_ln_ratios first ran it."""
    rho = np.empty(n_start + 1)
    rho[0] = 1.0
    r = 0.0
    for n in range(n_start, 0, -1):
        r = z / (2.0 * n + z * r)
        rho[n] = r
    return np.cumsum(np.log(rho[: n_hi + 1]))


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-8.0, 3.6).map(lambda e: 10.0**e), n_hi=st.integers(1, 500))
@example(z=3717.0, n_hi=10)
def test_scalar_bessel_ln_ratios_match_full_store_loop(z, n_hi):
    n_start = _miller_start(z, n_hi)
    assume(n_start < _BLOCKED_FROM)
    got = _bessel_ln_ratios(z, n_hi)
    assert got.tobytes() == _full_store_ln_ratios(z, n_hi, n_start).tobytes()


def _exact_sum(values) -> Fraction:
    """Exact sum of finite floats: each is an integer multiple of 2^-1074."""
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()
        total += num << (1075 - den.bit_length())
    return Fraction(total, 1 << 1074)


# Lengths on both sides of the fsum switch, magnitudes 10^lo..10^(lo+span)
# within [1e-300, 1e3].
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4096) | st.integers(0, 20_000), seed=st.integers(0, 2**32 - 1),
       lo=st.floats(-300.0, 3.0), span=st.floats(0.0, 303.0), signed=st.booleans())
@example(n=_FSUM_BELOW - 1, seed=0, lo=-3.0, span=3.0, signed=False)
@example(n=_FSUM_BELOW, seed=0, lo=-3.0, span=3.0, signed=False)
@example(n=_FSUM_BELOW, seed=1, lo=-300.0, span=303.0, signed=True)
def test_sum_within_stated_bound_of_exact(n, seed, lo, span, signed):
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(lo, min(lo + span, 3.0), n)
    if signed:
        x *= rng.choice([-1.0, 1.0], n)
    got = _sum(x)
    want = math.fsum(x.tolist())
    exact = _exact_sum(x.tolist())
    u = Fraction(1, 2**53)
    g = (n - 1) * u / (1 - (n - 1) * u)
    assert abs(Fraction(got) - exact) <= u * abs(exact) + g * g * _exact_sum(np.abs(x).tolist())
    if n < _FSUM_BELOW:
        assert got == want
    elif not signed:
        assert abs(got - want) <= math.ulp(want)


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
        lower, upper = lambda_bracket(stats.d, stats.v, params)
        return stats.d, error_exponent(upper, m), error_exponent(lower, m)

    (first1, up1, low1), (first2, up2, low2) = exponents(g1), exponents(g2)
    assert first1 < first2
    if above:
        assert up1 < up2 and low1 < low2
    else:
        assert up1 > up2 and low1 > low2


# Up to gamma ~ 1e9, and on to 1e16, near the heterodyne route's cap, where
# its Bessel recurrence starts near sqrt(50 z), z = 2 sqrt(gamma b) ~ 5e8.
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


def _floats_or_specials(lo, hi):
    return st.floats(lo, hi) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


# SNR draws span -100..3100 dB: the heterodyne route takes at most about
# 0.5 ms a row and raises CapExceeded past gamma ~ 2e16, and past the float
# range the config rejects the grid at once.  The worker count is pinned to 1, never
# drawn.
@settings(max_examples=60, deadline=None)
@given(
    nb=_floats_or_specials(-1e3, 1e4) | st.floats(1e-320, 1e308),
    snr_lo=_floats_or_specials(-100.0, 3100.0),
    snr_hi=_floats_or_specials(-100.0, 3100.0),
    points=st.integers(2, 4),
    tail_tol=_floats_or_specials(1e-20, 2.0),
    convention=st.sampled_from([PER_COPY, TOTAL]),
)
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
