"""Scaled Bessel, dual-route Marcum Q, and the heterodyne benchmark."""

import math
import sys
import time
import tracemalloc
import warnings
from math import exp, log, log1p, sqrt

import numpy as np
import pytest

from steinradar import CapExceeded, MarcumArgs, heterodyne_log_pmd, marcum_q
from steinradar import displaced as displaced_mod
from steinradar import marcum as marcum_mod
from steinradar.displaced import _bessel_i0_scaled

from oracles import (
    HET_LN_PMD_G10,
    HET_LN_PMD_G500,
    HET_LN_PMD_BESSEL_FROZEN,
    HET_LN_PMD_G5E5,
    HET_LN_PMD_PAST_CAP_FROZEN,
    HET_LN_PMD_Q_FROZEN,
    I0E_1,
    I0E_7_5,
    I0E_19,
    I0E_500,
    MARCUM_P_1_2,
    MARCUM_Q_1_2,
    heterodyne_log_pmd_loop,
    marcum_quadrature,
    recompute_het_ln_pmd,
    recompute_het_ln_pmd_bessel,
    recompute_het_ln_pmd_q,
    skellam_ln_tail_miller,
)


class TestBesselI0Scaled:
    def test_origin(self):
        assert _bessel_i0_scaled(0.0) == 1.0

    def test_reference_values(self):
        assert _bessel_i0_scaled(1.0) == pytest.approx(I0E_1, rel=1e-14)
        assert _bessel_i0_scaled(7.5) == pytest.approx(I0E_7_5, rel=1e-14)
        assert _bessel_i0_scaled(19.0) == pytest.approx(I0E_19, rel=1e-14)
        assert _bessel_i0_scaled(500.0) == pytest.approx(I0E_500, rel=1e-14)

    def test_against_scipy_grid(self):
        from scipy.special import i0e

        for t in np.concatenate((np.linspace(0, 30, 61), [100.0, 250.0, 700.0])):
            assert _bessel_i0_scaled(float(t)) == pytest.approx(
                float(i0e(t)), rel=5e-14
            )

    def test_rejects_negative(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError):
                _bessel_i0_scaled(t)
        assert _bessel_i0_scaled(math.inf) == 0.0   # the limit, not a reject


class TestMarcumArgs:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarcumArgs(-1.0, 2.0)
        with pytest.raises(ValueError):
            MarcumArgs(1.0, math.inf)


def _fsum_marcum_q(x: float, y: float) -> tuple[float, float]:
    """marcum_q's two series with math.fsum, not its own prefix sums, as the
    adder of the windows' normalising totals and of both series."""
    def window(mu):
        half = 12.0 * sqrt(mu + 1.0) + 60.0
        lo, hi = max(0, int(mu - half)), int(mu + half)
        raw = np.zeros(hi - lo + 1)
        i0 = min(max(int(mu), lo), hi)
        raw[i0 - lo] = 1.0
        raw[i0 - lo + 1 :] = np.multiply.accumulate(mu / np.arange(i0 + 1, hi + 1, dtype=float))
        raw[: i0 - lo][::-1] = np.multiply.accumulate(np.arange(i0, lo, -1, dtype=float) / mu)
        return lo, raw / math.fsum(raw.tolist())

    (lo_a, pa), (lo_b, pb) = window(0.5 * x * x), window(0.5 * y * y)
    ia, ib = np.arange(len(pa)), np.arange(len(pb))
    cdf_b = marcum_mod._cdf(pb)[np.clip(ia + lo_a - lo_b + 1, 0, len(pb))]
    cdf_a = marcum_mod._cdf(pa)[np.clip(ib + lo_b - lo_a, 0, len(pa))]
    return math.fsum((pa * cdf_b).tolist()), math.fsum((pb * cdf_a).tolist())


class TestMarcumQ:
    def test_zero_noncentrality_closed_form(self):
        for y in np.linspace(0.0, 20.0, 41):
            q, p = marcum_q(MarcumArgs(0.0, float(y)))
            want = exp(-0.5 * y * y)
            assert q == pytest.approx(want, rel=1e-13)
            assert p == pytest.approx(1.0 - want, rel=1e-12, abs=1e-15)

    def test_zero_threshold(self):
        for x in (0.0, 1.0, 10.0, 30.0):
            assert marcum_q(MarcumArgs(x, 0.0)) == (1.0, 0.0)

    def test_reference_point(self):
        q, p = marcum_q(MarcumArgs(1.0, 2.0))
        assert q == pytest.approx(MARCUM_Q_1_2, rel=1e-8)
        assert p == pytest.approx(MARCUM_P_1_2, rel=1e-8)

    def test_against_quadrature_oracle(self):
        for x, y in [(1.0, 2.0), (3.5, 1.2), (0.7, 6.0), (12.0, 10.5)]:
            q, p = marcum_q(MarcumArgs(x, y))
            q_want, p_want = marcum_quadrature(x, y)
            assert q == pytest.approx(q_want, rel=1e-8, abs=1e-12)
            assert p == pytest.approx(p_want, rel=1e-8, abs=1e-12)

    def test_against_scipy_ncx2(self):
        # Q(x, y) is the ncx2(df=2, nc=x^2) survival function at y^2
        from scipy.stats import ncx2

        for x, y in [(1.0, 2.0), (2.0, 2.5), (5.0, 4.0), (0.5, 0.5)]:
            q, _ = marcum_q(MarcumArgs(x, y))
            assert q == pytest.approx(float(ncx2.sf(y * y, 2, x * x)), rel=1e-9)

    def test_huge_arguments_windowed(self):
        # the windowed sums stay exact far beyond exp(-x^2/2) underflow
        from scipy.stats import ncx2

        q, p = marcum_q(MarcumArgs(1500.0, 1450.0))
        assert abs(q + p - 1.0) < 1e-12
        assert q == pytest.approx(float(ncx2.sf(1450.0**2, 2, 1500.0**2)), rel=1e-7)

    def test_complementarity_random(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            x = float(rng.uniform(0.0, 30.0))
            y = float(rng.uniform(0.0, 30.0))
            q, p = marcum_q(MarcumArgs(x, y))
            assert abs(q + p - 1.0) < 1e-12
            assert 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0

    def test_against_scipy_skellam(self):
        # a third, independent oracle: with a = x^2/2 and b = y^2/2,
        # Q = P(Pois_a - Pois_b >= 0) and P = P(Pois_a - Pois_b <= -1), over
        # the per-copy and total-M arguments of the perfbench crosscheck grid
        # (nb = 10, -15 to 5 dB, p_fa = 1e-3, M = 5000) and random (x, y)
        from scipy.stats import skellam

        y = sqrt(-2.0 * log(1e-3))
        gammas = 10.0 ** (np.linspace(-15.0, 5.0, 200) / 10.0)
        args = [(sqrt(2.0 * g * m), y) for g in gammas for m in (1.0, 5000.0)]
        args += [tuple(xy) for xy in np.random.default_rng(13).uniform(0.0, 30.0, (300, 2))]
        for x, y in args:
            q, p = marcum_q(MarcumArgs(float(x), float(y)))
            a, b = 0.5 * x * x, 0.5 * y * y
            assert abs(q - float(skellam.sf(-1, a, b))) <= 1e-14
            assert abs(p - float(skellam.cdf(-1, a, b))) <= 1e-14

    def test_window_past_cap_fails_fast(self):
        # windows of about 24 sqrt(x^2/2 + 1) + 120 terms: 1.7e6 at x = 1e5,
        # refused before anything is allocated; at 11,700 they still fit.
        # From about 2e17 the ulp of x^2/2 passes the half-width, and past
        # 1.9e154 x^2/2 is inf: refused on the half-widths all the same
        for x, y in ((1e5, 3.7), (3.7, 1e5), (11_900.0, 1.0),
                     (2.1e17, 1.0), (3.7, 5.2e17), (1e200, 1.0)):
            start = time.perf_counter()
            with pytest.raises(CapExceeded):
                marcum_q(MarcumArgs(x, y))
            assert time.perf_counter() - start < 0.1
        q, p = marcum_q(MarcumArgs(11_700.0, 11_700.0))
        assert abs(q + p - 1.0) < 1e-12

    def test_matches_fsum_series_within_two_ulps(self):
        # the compensated prefix sums against math.fsum, at the crosscheck's
        # total-M arguments (nb = 10, -15 to 5 dB, p_fa = 1e-3, M = 5000),
        # whose windows reach 3,138 terms, and at the widest window in reach
        y = sqrt(-2.0 * log(1e-3))
        gammas = 10.0 ** (np.linspace(-15.0, 5.0, 200) / 10.0)
        args = [(sqrt(2.0 * 5000.0 * g), y) for g in gammas] + [(11_700.0, 11_700.0)]
        for x, y in args:
            got = marcum_q(MarcumArgs(float(x), float(y)))
            for v, want in zip(got, _fsum_marcum_q(float(x), float(y))):
                assert abs(v - min(want, 1.0)) <= 2.0 * math.ulp(want)

    def test_returns_python_floats(self):
        for x, y in ((0.0, 2.0), (1.0, 2.0), (180.0, 3.7), (3.0, 0.0)):
            q, p = marcum_q(MarcumArgs(x, y))
            assert type(q) is float and type(p) is float

    def test_monotone_in_threshold_and_signal(self):
        # 1e-13 headroom: the pmf building blocks carry ~1e-14 round-off
        ys = np.linspace(0.0, 12.0, 25)
        qs = [marcum_q(MarcumArgs(2.0, float(y)))[0] for y in ys]
        assert all(a >= b - 1e-13 for a, b in zip(qs, qs[1:]))
        xs = np.linspace(0.0, 12.0, 25)
        qx = [marcum_q(MarcumArgs(float(x), 3.0))[0] for x in xs]
        assert all(b >= a - 1e-13 for a, b in zip(qx, qx[1:]))


class TestHeterodyne:
    def test_zero_snr_pure_false_alarm(self):
        # p_MD = 1 - p_fa exactly, so ln p_MD is log1p(-p_fa) to the bit
        for p_fa in (1e-300, 1e-50, 1e-5, 1e-3, 0.1, 0.9):
            assert heterodyne_log_pmd(0.0, p_fa) == log1p(-p_fa)

    def test_reference_point(self):
        assert heterodyne_log_pmd(10.0, 1e-3) == pytest.approx(HET_LN_PMD_G10, rel=1e-8)

    def test_large_gamma_frozen_oracles(self):
        # the two ends of a total-M scan's M*gamma range at M=5000, -10..20 dB
        assert heterodyne_log_pmd(500.0, 1e-3) == pytest.approx(HET_LN_PMD_G500, rel=1e-12)
        assert heterodyne_log_pmd(5e5, 1e-3) == pytest.approx(HET_LN_PMD_G5E5, rel=1e-12)

    def test_matches_per_term_loop(self):
        # the loop sums p_MD term by term, rounding each exponent at about
        # eps*b absolute, so it resolves ln p_MD only where p_MD <= 1/2, that
        # is gamma >= b; below, where the library sums Q instead, it is held
        # to the mpmath Q series
        for p_fa in (1e-5, 1e-3, 0.1):
            for gamma in np.logspace(-3, 6, 19):
                got = heterodyne_log_pmd(float(gamma), p_fa)
                if gamma >= -log(p_fa):
                    want = heterodyne_log_pmd_loop(float(gamma), p_fa)
                    assert got == pytest.approx(want, rel=1e-14, abs=1e-15)
                else:
                    want = recompute_het_ln_pmd_q(float(gamma), p_fa)
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        for gamma in (1e7, 1e8):
            want = heterodyne_log_pmd_loop(gamma, 1e-3)
            assert heterodyne_log_pmd(gamma, 1e-3) == pytest.approx(want, rel=1e-13)

    def test_q_series_oracle_corners(self):
        # where p_MD rounds to 1 the library sums Q; where Q passes 1/2 it
        # sums p_MD again
        for (gamma, p_fa), want in HET_LN_PMD_Q_FROZEN.items():
            assert heterodyne_log_pmd(gamma, p_fa) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_bessel_sum_oracle_huge_gamma(self):
        for gamma, want in HET_LN_PMD_BESSEL_FROZEN.items():
            assert heterodyne_log_pmd(gamma, 1e-3) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_matches_marcum_complement(self):
        for gamma in (0.1, 1.0, 5.0, 50.0):
            _, p = marcum_q(MarcumArgs(sqrt(2.0 * gamma), sqrt(-2.0 * log(1e-3))))
            assert heterodyne_log_pmd(gamma, 1e-3) == pytest.approx(log(p), rel=1e-10)

    def test_matches_scipy_skellam_logcdf(self):
        # p_MD = P(Pois_gamma - Pois_b <= -1) with b = -ln p_fa.  At
        # gamma = 0.5, ln p_MD = -0.0069: against the mpmath Q series scipy
        # is 2.5e-14 off there and the library 1.4e-15, so 1e-13 between them
        from scipy.stats import skellam

        b = -log(1e-3)
        for gamma, rel in ((0.5, 1e-13), (3.0, 1e-14), (10.0, 1e-14)):
            want = float(skellam.logcdf(-1, gamma, b))
            assert heterodyne_log_pmd(gamma, 1e-3) == pytest.approx(want, rel=rel, abs=0.0)

    def test_strictly_decreasing_in_snr(self):
        gammas = np.logspace(-3, 2, 50)
        vals = [heterodyne_log_pmd(float(g), 1e-3) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_log_domain_survives_huge_snr(self):
        # p_MD underflows double precision here; the log route must not
        got = heterodyne_log_pmd(2000.0, 1e-3)
        assert math.isfinite(got)
        assert got < -1500.0

    def test_domain(self):
        with pytest.raises(ValueError):
            heterodyne_log_pmd(-1.0, 1e-3)
        with pytest.raises(ValueError):
            heterodyne_log_pmd(1.0, 0.0)
        with pytest.raises(ValueError):
            heterodyne_log_pmd(1.0, 1.0)

    def test_huge_gamma_is_fast_and_matches_mpmath(self):
        # a Miller recurrence would start near sqrt(50 z) ~ 2.9e5, z ~ 1.7e9,
        # past K_MAX_CAP; the Perron seed needs no start
        start = time.perf_counter()
        got = heterodyne_log_pmd(1e17, 1e-3)
        assert time.perf_counter() - start < 0.1
        assert got == pytest.approx(HET_LN_PMD_PAST_CAP_FROZEN[1e17], rel=1e-15, abs=0.0)

    def test_float_range_gamma_matches_mpmath(self):
        # z ~ 5e150 and 7e154: the first Perron step from the tail 2z is
        # written a_K / (2 nu + K), where b_K - 2z would cancel to 0
        for gamma in (1e300, 1.7e308):
            got = heterodyne_log_pmd(gamma, 1e-3)
            assert got == pytest.approx(HET_LN_PMD_PAST_CAP_FROZEN[gamma], rel=1e-15, abs=0.0)
        top = heterodyne_log_pmd(sys.float_info.max, 1e-3)   # the largest finite gamma
        assert -math.inf < top < -1.79e308

    def test_cost_and_memory_near_cap(self):
        # a per-term loop over the Poisson series takes seconds here
        start = time.perf_counter()
        got = heterodyne_log_pmd(1e12, 1e-3)
        assert time.perf_counter() - start < 2.0
        assert math.isfinite(got) and got < -9.9e11
        # the Perron-seeded chain holds a few ratios: about 1 kB here
        tracemalloc.start()
        try:
            heterodyne_log_pmd(1e12, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_388_608

    def test_tail_retry_doubles_to_the_same_sum(self, monkeypatch):
        # a first n two terms past the peak fails the geometric tail bound, so
        # _skellam_ln_tail doubles n until it holds, seeds each try afresh at
        # n + 1, and sums the same ln p_MD
        cases = ((0.03, 1e-3), (3.2, 1e-3), (500.0, 1e-3), (5e5, 1e-3),
                 (1e-7, 0.999999), (665.0, 1e-300))
        calls = []
        seed = displaced_mod._perron_bracket
        monkeypatch.setattr(displaced_mod, "_perron_bracket",
                            lambda *args: calls.append(args) or seed(*args))
        unpatched = {}
        for case in cases:
            calls.clear()
            unpatched[case] = heterodyne_log_pmd(*case), len(calls)
        monkeypatch.setattr(displaced_mod, "_asinh_edge", lambda z, lo, c, goal: math.ceil(lo) + 2)
        for case in cases:
            calls.clear()
            got = heterodyne_log_pmd(*case)
            want, want_calls = unpatched[case]
            assert len(calls) > want_calls
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_tail_past_the_float_range_raises_fast(self):
        # m1 >> m2, which the heterodyne never passes: at (1e3, 1) the terms
        # P(k) / P(0) pass the float range, at (1e8, 1) the first n passes
        # K_MAX_CAP; both end in CapExceeded at once, with no RuntimeWarning
        for m1 in (1e3, 1e8):
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(CapExceeded):
                    displaced_mod._skellam_ln_tail(m1, 1.0, 1)
            assert time.perf_counter() - start < 1.0

    def test_perron_tail_matches_miller_on_benchmark_grids(self):
        # the low-background scan's 1,000 total-M and 1,000 per-copy gammas:
        # every tail the heterodyne sums, seeded by Perron's continued
        # fraction, has the bits the Miller-started recurrence gave; a gamma
        # whose tail moved would have to stay within 1e-14 of mpmath, as the
        # frozen oracles above hold it
        snr = [float(s) for s in np.linspace(-10.0, 20.0, 1000)]
        b = -log(1e-3)
        moved = []
        for gamma in [5000 * 10.0 ** (s / 10.0) for s in snr] + [10.0 ** (s / 10.0) for s in snr]:
            tails = ([(gamma, b, 0)] if gamma < b else []) + [(b, gamma, 1)]
            if any(displaced_mod._skellam_ln_tail(*t) != skellam_ln_tail_miller(*t)
                   for t in tails):
                moved.append(gamma)
        for gamma in moved:
            want = recompute_het_ln_pmd(gamma, 1e-3)
            assert heterodyne_log_pmd(gamma, 1e-3) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_rejects_non_finite_snr(self):
        # rejected up front, before the series loop can start
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValueError):
                heterodyne_log_pmd(gamma, 1e-3)


def _raise(*args, **kwargs):
    raise AssertionError("the other route's code was called")


class TestRouteIndependence:
    """marcum_q checks heterodyne_log_pmd only while the two share no code:
    each must return the same numbers with the other's code broken, on the
    arguments the benchmark workloads give them (p_fa = 1e-3, M = 5000)."""

    def test_marcum_q_without_displaced(self, monkeypatch):
        # the crosscheck workload's 400 arguments, per-copy and total-M over
        # -15..5 dB, and a window near K_MAX_CAP
        y = sqrt(-2.0 * log(1e-3))
        args = [MarcumArgs(sqrt(2.0 * m * 10.0 ** (s / 10.0)), y)
                for s in np.linspace(-15.0, 5.0, 200).tolist() for m in (1, 5000)]
        args.append(MarcumArgs(11_700.0, 11_700.0))
        want = [marcum_q(a) for a in args]
        shared = [name for name, obj in vars(marcum_mod).items()
                  if callable(obj) and obj is getattr(displaced_mod, name, None)
                  and getattr(obj, "__module__", "").startswith("steinradar.")]
        assert "_skellam_ln_tail" in shared
        for name in shared:
            monkeypatch.setattr(marcum_mod, name, _raise)
        for name, obj in list(vars(displaced_mod).items()):
            if getattr(obj, "__module__", None) == displaced_mod.__name__ and callable(obj):
                monkeypatch.setattr(displaced_mod, name, _raise)
        with pytest.raises(AssertionError):
            heterodyne_log_pmd(1.0, 1e-3)
        assert [marcum_q(a) for a in args] == want

    def test_heterodyne_without_marcum_q(self, monkeypatch):
        # the default scan's 200 per-copy SNRs over -15..5 dB and the
        # low-background scan's 1,000 total-M ones over -10..20 dB
        gammas = [10.0 ** (s / 10.0) for s in np.linspace(-15.0, 5.0, 200).tolist()]
        gammas += [5000 * 10.0 ** (s / 10.0) for s in np.linspace(-10.0, 20.0, 1000).tolist()]
        want = [heterodyne_log_pmd(g, 1e-3) for g in gammas]
        for name in ("_poisson_window", "_cdf", "marcum_q"):
            monkeypatch.setattr(marcum_mod, name, _raise)
        assert [heterodyne_log_pmd(g, 1e-3) for g in gammas] == want


@pytest.mark.slow
def test_recompute_frozen_heterodyne_oracles():
    """Re-derive the frozen large-gamma ln p_MD values with mpmath."""
    assert recompute_het_ln_pmd(500.0, 1e-3) == pytest.approx(HET_LN_PMD_G500, rel=1e-15)
    assert recompute_het_ln_pmd(5e5, 1e-3) == pytest.approx(HET_LN_PMD_G5E5, rel=1e-15)
    assert recompute_het_ln_pmd(10.0, 1e-3) == pytest.approx(HET_LN_PMD_G10, rel=1e-15)


@pytest.mark.slow
def test_recompute_frozen_corner_oracles():
    """Re-derive the frozen Q-series and Bessel-sum ln p_MD values with mpmath."""
    for (gamma, p_fa), want in HET_LN_PMD_Q_FROZEN.items():
        assert recompute_het_ln_pmd_q(gamma, p_fa) == pytest.approx(want, rel=1e-15, abs=0.0)
    for gamma, want in HET_LN_PMD_BESSEL_FROZEN.items():
        assert recompute_het_ln_pmd_bessel(gamma, 1e-3) == pytest.approx(want, rel=1e-15)


@pytest.mark.slow
def test_recompute_past_cap_oracles():
    """Re-derive the frozen ln p_MD values past the old recurrence cap with mpmath."""
    for gamma, want in HET_LN_PMD_PAST_CAP_FROZEN.items():
        assert recompute_het_ln_pmd_bessel(gamma, 1e-3) == pytest.approx(want, rel=1e-15)
