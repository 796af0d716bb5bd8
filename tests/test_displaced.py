"""Transition probabilities, truncation, the Skellam route to T, and the
Laguerre-sum spectral oracle it is checked against."""

import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from math import exp, factorial, log, sqrt
from pathlib import Path

import numpy as np
import pytest

from steinradar import (
    CapExceeded,
    ConsistencyError,
    ThermalScenario,
    TruncationPolicy,
    spectral_oracle,
    thermal_closed_forms,
    third_moment,
    transition_prob,
)
from steinradar import displaced as displaced_mod
from steinradar.displaced import (
    K_MAX_CAP,
    _SUM_REL,
    _difference_masses,
    _edge_steps,
    _ln_geometric_tail,
    _skellam_masses,
    _sum,
    _thermal_cutoff,
)

from oracles import (
    T_ORACLE_NB1_X1,
    T_ORACLE_NB1P5E4_85DB,
    T_ORACLE_NB1P7E3_80DB,
    TP_FROZEN,
    difference_masses_rowwise,
    exact_sum,
    laguerre_binomial,
    skellam_log_pmf,
)

DATA = Path(__file__).parent / "data"


class TestTruncationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=1.5)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=5e-324)   # tail_tol / 4 underflows to 0

    def test_kept_edge_fixed_point(self):
        # v(t), t = -ln(tail_tol/4), bit for bit the three fixed-point steps
        # of _edge_start's Gaussian estimate, over random tail_tol and both ends
        rng = np.random.default_rng(34)
        tols = [2.0**-52, 1e-10, 0.49, math.nextafter(1.0, 0.0)]
        tols += (2.0 ** rng.uniform(-52.0, 0.0, 2000)).tolist()
        for tail_tol in tols:
            t = -log(tail_tol / 4.0)
            v = sqrt(2.0 * t)
            for _ in range(3):
                v = sqrt(2.0 * t + 6.0 * log(v))
            assert TruncationPolicy(tail_tol=tail_tol)._edge_v == v

    def test_kept_constant_outside_the_fields(self):
        # ==, hash and repr read tail_tol alone, and a pickle round trip
        # keeps v(t) with it
        policy, other = TruncationPolicy(tail_tol=1e-8), TruncationPolicy(tail_tol=1e-8)
        object.__setattr__(other, "_edge_v", 0.0)
        assert policy == other and hash(policy) == hash(other)
        assert repr(policy) == repr(other) == "TruncationPolicy(tail_tol=1e-08)"
        back = pickle.loads(pickle.dumps(policy))
        assert back == policy and back._edge_v == policy._edge_v


class TestTransitionProb:
    def test_zero_displacement_is_kronecker(self):
        assert transition_prob(3, 3, 0.0) == 1.0
        assert transition_prob(3, 4, 0.0) == 0.0

    def test_poisson_case(self):
        assert transition_prob(3, 0, 1.0) == pytest.approx(exp(-1.0) / 6.0, rel=1e-12)
        assert transition_prob(0, 3, 1.0) == pytest.approx(exp(-1.0) / 6.0, rel=1e-12)

    def test_against_binomial_sum(self):
        # P(n, n+m, x) = n!/(n+m)! x^m e^-x L_n^(m)(x)^2, with L from the
        # alternating binomial sum (exact at these small n and x)
        for n in (0, 1, 2, 3, 5, 8, 12):
            for m in (0, 1, 2, 5, 9):
                for x in (0.0, 0.25, 1.0, 3.5):
                    lag = laguerre_binomial(n, m, x)
                    want = factorial(n) / factorial(n + m) * x**m * exp(-x) * lag * lag
                    got = transition_prob(n, n + m, x)
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_poisson_reduction_log_domain(self):
        for x in (0.5, 5.0, 50.0, 600.0):
            for k in (0, 1, 2, 7, 30, 120, 600):
                got = transition_prob(k, 0, x)
                ln_want = -x + k * log(x) - math.lgamma(k + 1.0)
                if ln_want < -745.0:
                    assert got == 0.0
                else:
                    assert log(got) == pytest.approx(ln_want, abs=1e-12 * max(1.0, abs(ln_want)))

    def test_symmetry_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(0, 400))
            l = int(rng.integers(0, 400))
            x = float(rng.uniform(0.0, 700.0))
            a = transition_prob(k, l, x)
            b = transition_prob(l, k, x)
            assert a == b  # mapped to identical (min, |diff|) evaluation

    def test_row_normalization(self):
        # row l of |<k|D|l>|^2 is classically allowed up to
        # k = (sqrt(x) + sqrt(l))^2 and decays past it like a Gaussian in
        # sqrt(k) of width ~1/2, so 8 more units of sqrt(k) leave a tail
        # far below the tolerance
        policy = TruncationPolicy()
        for x in (0.5, 5.0, 50.0, 600.0):
            cutoff = math.ceil((sqrt(x) + sqrt(50.0) + 8.0) ** 2)
            for l in (0, 1, 3, 8, 21, 50):
                total = math.fsum(transition_prob(k, l, x) for k in range(cutoff + 1))
                assert abs(total - 1.0) < 10.0 * policy.tail_tol

    def test_probability_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = transition_prob(int(rng.integers(0, 50)), int(rng.integers(0, 50)),
                                float(rng.uniform(0, 100)))
            assert 0.0 <= p <= 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            transition_prob(-1, 0, 1.0)
        with pytest.raises(ValueError):
            transition_prob(0, 0, -1.0)
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError):
                transition_prob(1, 2, x)
        for k, l in ((2.5, 1), (1, 2.5), (2.0, 1)):
            with pytest.raises(ValueError):
                transition_prob(k, l, 1.0)
        # numpy integers are indices like any other
        assert transition_prob(np.int64(7), np.uint8(3), 2.5) == transition_prob(7, 3, 2.5)

    def test_frozen_mpmath_values(self):
        # rows where the recurrence runs 30 to 3000 steps, off two diagonals
        for (k, l, x), want in TP_FROZEN.items():
            assert transition_prob(k, l, x) == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_far_past_the_band_is_zero(self):
        # x far past (sqrt(k) + sqrt(l))^2: p underflows, and is 0.0 rather
        # than the NaN of an overflowed recurrence
        for k, l, x in ((1000, 1000, 1e13), (10, 10, 1e300), (3, 5, 1.7e308)):
            assert transition_prob(k, l, x) == 0.0

    def test_survives_extreme_arguments(self):
        # the scaled path is contract-bound up to x ~ 1e5 and huge indices
        p = transition_prob(100_000, 100_300, 1e5)
        assert math.isfinite(p) and 0.0 <= p <= 1.0
        assert p > 1e-12  # well inside the classically allowed band


class TestTruncationRadius:
    """Rows of the spectral_oracle sweep: the thermal cutoff and the cap."""

    def test_pure_thermal_geometric(self):
        # smallest K with 2^-(K+1) <= 5e-11 is K = 34
        assert _thermal_cutoff(1.0, 1e-10) == 34

    def test_loose_tolerance(self):
        assert _thermal_cutoff(1.0, 0.5) <= 1

    def test_cap_exceeded(self):
        # the thermal cutoff alone is ~4.7e5 rows, past K_MAX_CAP
        with pytest.raises(CapExceeded):
            spectral_oracle(ThermalScenario(nb=2e4, eta=1.0, ns=2e4))
        # transition_prob runs the same sweep, on one diagonal
        for k, l in ((K_MAX_CAP + 1, 0), (0, K_MAX_CAP + 1), (10**400, 0)):
            with pytest.raises(CapExceeded):
                transition_prob(k, l, 1.0)


class TestThirdMoment:
    def test_zero_snr(self):
        res = third_moment(ThermalScenario(nb=1.0, eta=1.0, ns=0.0))
        assert res.t == 0.0 and res.captured_mass == 1.0

    def test_against_brute_force_oracle(self):
        # the Stein identity reads 3.1e-16 off here
        res = third_moment(ThermalScenario(nb=1.0, eta=1.0, ns=1.0))
        assert res.t == pytest.approx(T_ORACLE_NB1_X1, rel=2e-15)
        assert res.captured_mass >= 1.0 - 1e-10

    def test_second_moment_identity(self):
        # the same joint distribution must reproduce V
        for nb, gamma in [(0.5, 1.0), (1.0, 0.1), (10.0, 1.0), (600.0, 1.0)]:
            s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
            assert spectral_oracle(s).v == pytest.approx(
                thermal_closed_forms(s).v, rel=1e-6
            )

    def test_deterministic(self):
        s = ThermalScenario(nb=20.0, eta=1.0, ns=15.0)
        a = third_moment(s)
        b = third_moment(s)
        assert a.t == b.t and a.captured_mass == b.captured_mass

    def test_rounding_is_not_a_deficit(self):
        # 1 - sum(mass) here is the masses' own rounding: 3.3e-15 at a
        # tail_tol of 2.3e-16, and ~2.0e-10 at a tail_tol of 1e-12 for
        # nb=1.5e-4 at 90 dB, both past 10*tail_tol
        for nb, snr_db, tail_tol in ((600.0, 5.0, 2.3e-16), (1.5e-4, 90.0, 1e-12)):
            s = ThermalScenario(nb=nb, eta=1.0, ns=nb * 10.0 ** (snr_db / 10.0))
            res = third_moment(s, TruncationPolicy(tail_tol=tail_tol))
            assert res.captured_mass < 1.0 - 10.0 * tail_tol
            assert res.t >= thermal_closed_forms(s).v ** 1.5

    def test_extreme_means_raise_library_errors(self):
        # x nb underflows (Bessel argument z = 0), or x nb overflows; the
        # spectral oracle reads the same window, so it refuses the same inputs
        for route in (third_moment, spectral_oracle):
            with pytest.raises(ConsistencyError):
                route(ThermalScenario(nb=1e-300, eta=1.0, ns=1e-300))
            with pytest.raises(CapExceeded):
                route(ThermalScenario(nb=1e300, eta=1.0, ns=1e300))

    def test_mass_deficit_detected(self, monkeypatch):
        def half_masses(nb, x, policy):
            d, mass, rounding = _skellam_masses(nb, x, policy)
            return d, 0.5 * mass, rounding

        s = ThermalScenario(nb=1.0, eta=1.0, ns=1.0)
        halved = 0.5 * third_moment(s).captured_mass      # halving a sum is exact
        monkeypatch.setattr(displaced_mod, "_skellam_masses", half_masses)
        with pytest.raises(ConsistencyError, match=f"captured mass {halved} misses"):
            third_moment(s)

    def test_mass_excess_detected(self, monkeypatch):
        # truncation only drops mass, so a sum of 2 is a bug, not rounding
        def double_masses(nb, x, policy):
            d, mass, rounding = _skellam_masses(nb, x, policy)
            return d, 2.0 * mass, rounding

        monkeypatch.setattr(displaced_mod, "_skellam_masses", double_masses)
        with pytest.raises(ConsistencyError):
            third_moment(ThermalScenario(nb=1.0, eta=1.0, ns=1.0))


class TestSpectralOracle:
    def test_zero_snr(self):
        stats = spectral_oracle(ThermalScenario(nb=5.0, eta=0.0, ns=3.0))
        assert (stats.d, stats.v, stats.t) == (0.0, 0.0, 0.0)

    def test_closure_against_closed_forms(self):
        cases = [(nb, g) for nb in (0.5, 1.0, 10.0) for g in (0.1, 1.0, 10.0)]
        cases += [(600.0, 0.1), (600.0, 1.0)]
        for nb, gamma in cases:
            s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
            closed = thermal_closed_forms(s)
            got = spectral_oracle(s)
            assert got.d == pytest.approx(closed.d, rel=1e-6)
            assert got.v == pytest.approx(closed.v, rel=1e-6)

    def test_third_moment_same_distribution(self):
        s = ThermalScenario(nb=1.0, eta=1.0, ns=1.0)
        assert spectral_oracle(s).t == pytest.approx(third_moment(s).t, rel=1e-10)

    def test_rounding_is_not_a_deficit(self):
        # 1 - sum(mass) is 8.8e-14 and 2.5e-13 here, the sweep's own
        # rounding, past 10*tail_tol
        policy = TruncationPolicy(tail_tol=2.3e-16)
        for nb, ns in ((600.0, 60.0), (0.1, 1000.0)):
            s = ThermalScenario(nb=nb, eta=1.0, ns=ns)
            stats = spectral_oracle(s, policy)
            assert stats.t == pytest.approx(third_moment(s, policy).t, rel=1e-10)

    def test_rounding_bound_covers_mass_error(self):
        # at the finest tail_tol, |1 - sum| is the sweep's rounding plus a
        # dropped tail below 2^-53; the allowance must cover it 3 times over
        # (the worst case, nb=0.01 at x=3e3, has 0.24 of it)
        policy = TruncationPolicy(tail_tol=2.0**-52)
        cases = [(nb, gamma * nb) for nb in (0.01, 0.1, 1.0, 10.0, 100.0)
                 for gamma in (0.01, 0.1, 1.0, 3.0, 10.0, 30.0)]
        cases += [(nb, x) for nb in (0.01, 1.0, 10.0) for x in (3e3, 1e4)]
        for nb, x in cases:
            d, mass, rounding = _difference_masses(nb, x, policy)
            assert abs(1.0 - math.fsum(mass)) <= rounding() / 3.0

    def test_mass_excess_detected(self, monkeypatch):
        def double_masses(nb, x, policy):
            d, mass, rounding = _difference_masses(nb, x, policy)
            return d, 2.0 * mass, rounding

        monkeypatch.setattr(displaced_mod, "_difference_masses", double_masses)
        with pytest.raises(ConsistencyError):
            spectral_oracle(ThermalScenario(nb=1.0, eta=1.0, ns=1.0))

    def test_blocked_sweep_matches_rowwise_reference(self):
        # the blocked rows against the one-row-at-a-time recurrence: nb=600
        # starts thousands of diagonals at the seed floor and rescales them
        # hundreds of times; nb <= 1 at x = 1e4 to 1e5 runs few, wide rows
        policy = TruncationPolicy()
        rescaled = floored = 0
        for nb, x in ((600.0, 60.0), (600.0, 600.0), (600.0, 6e3), (1.0, 1e4),
                      (1.0, 1e5), (0.1, 1e5), (1e-3, 1e4), (10.0, 3.0)):
            d_ref, want, rescales, floors = difference_masses_rowwise(nb, x, policy.tail_tol)
            d, mass, rounding = _difference_masses(nb, x, policy)
            assert np.array_equal(d, d_ref)
            assert math.fsum(np.abs(mass - want)) <= rounding()
            rescaled += rescales > 0
            floored += floors > 0
        assert rescaled >= 3 and floored >= 3

    def test_one_support_with_skellam_route(self, monkeypatch):
        # the sweep's d is T's certified window on the crosscheck grid
        # (nb = 10, -15..5 dB, 200 points), 10 of whose windows widen, and at
        # x = 1.39, where the start misses
        chain = displaced_mod._bessel_ln_ratios
        calls = []
        monkeypatch.setattr(displaced_mod, "_bessel_ln_ratios",
                            lambda z, n_hi: calls.append(n_hi) or chain(z, n_hi))
        policy, widened = TruncationPolicy(), 0
        for x in [10.0 ** (db / 10.0) * 10.0 for db in np.linspace(-15.0, 5.0, 200).tolist()] + [1.39]:
            calls.clear()
            d = _skellam_masses(10.0, x, policy)[0]
            widened += len(calls) > 1
            assert np.array_equal(_difference_masses(10.0, x, policy)[0], d), x
        assert widened == 11

    def test_bits_frozen(self):
        # the crosscheck grid's every 10th point, the eight sweeps above and
        # three transition_prob calls, as float.hex: any moved bit fails
        lines = [ln for ln in (DATA / "spectral_oracle_hex.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "call,args,hex"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [call for call, _, _ in rows] == ["spectral_oracle"] * 28 + ["transition_prob"] * 3
        for call, args, want in rows:
            if call == "spectral_oracle":
                nb, ns = map(float, args.split())
                r = spectral_oracle(ThermalScenario(nb=nb, eta=1.0, ns=ns))
                got = f"{r.d.hex()} {r.v.hex()} {r.t.hex()}"
            else:
                k, l, x = args.split()
                got = transition_prob(int(k), int(l), float(x)).hex()
            assert got == want, (call, args)

    def test_bright_displacement_matches_closed_forms(self):
        # x = 1e5: the certified window spans diagonals ~9e4 to ~1.1e5
        for nb in (1e-6, 0.1, 1.0):
            s = ThermalScenario(nb=nb, eta=1.0, ns=1e5)
            closed = thermal_closed_forms(s)
            got = spectral_oracle(s)
            assert got.d == pytest.approx(closed.d, rel=1e-6)
            assert got.v == pytest.approx(closed.v, rel=1e-6)

    def test_moment_ordering_holder(self):
        # V <= T^(2/3) mass^(1/3) for the 2nd/3rd absolute central moments
        for nb, gamma in [(0.5, 0.5), (1.0, 1.0), (10.0, 2.0), (600.0, 1.0)]:
            s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
            stats = spectral_oracle(s)
            mass = third_moment(s).captured_mass
            assert stats.v <= stats.t ** (2.0 / 3.0) * mass ** (1.0 / 3.0) * (1 + 1e-12)


class TestDifferenceLaw:
    def test_skellam_identity_bright(self):
        # k - l is distributed as a difference of independent Poissons with
        # means (x nb, x (nb+1)); scipy's scaled Bessel gives its pmf.
        nb = x = 600.0
        d, mass, _ = _difference_masses(nb, x, TruncationPolicy())
        idx = {int(v): i for i, v in enumerate(d)}
        for dd in (-3000, -1200, -600, -300, 0, 300, 900, 2500):
            got = mass[idx[dd]]
            want = exp(skellam_log_pmf(dd, x * nb, x * (nb + 1.0)))
            assert got == pytest.approx(want, rel=1e-8)

    def test_skellam_identity_moderate(self):
        nb, x = 3.0, 7.0
        d, mass, _ = _difference_masses(nb, x, TruncationPolicy())
        idx = {int(v): i for i, v in enumerate(d)}
        for dd in (-25, -10, -7, -2, 0, 3, 12):
            got = mass[idx[dd]]
            want = exp(skellam_log_pmf(dd, x * nb, x * (nb + 1.0)))
            assert got == pytest.approx(want, rel=1e-9)


class TestEdgeSteps:
    # an edge of T's window whose last two masses fall by q = e^-1, at u = 3
    # from the mean, so q' = q e^(3/u) = 1 exactly
    LN_LAST, LN_PREV, U, SIGMA, LN_TOL = -10.0, -9.0, 3.0, 1.0, math.log(2.5e-11)

    def test_geometric_tail_infinite_where_terms_do_not_fall(self):
        assert _ln_geometric_tail(-1.0, -2.0) == math.inf
        assert _ln_geometric_tail(-5.0, -5.0) == math.inf

    def test_moves_by_u_where_q_prime_reaches_one(self):
        # no geometric tail past the edge: it moves out by ceil(u)
        assert _edge_steps(self.LN_LAST, self.LN_PREV, self.U, self.SIGMA, self.LN_TOL) == 3
        assert _edge_steps(self.LN_LAST, self.LN_PREV, 2.5, self.SIGMA, self.LN_TOL) == 3

    @pytest.mark.parametrize("ln_prev", [-9.0 + 1e-3, -9.0 + 1e-9], ids=["1e-3", "1e-9"])
    def test_moves_by_certified_steps_just_below(self, ln_prev):
        # q' just below 1: the fewest j steps for which q'^j scales the missed
        # bound down to the target
        ln_q = self.LN_LAST - ln_prev + 3.0 / self.U
        assert ln_q < 0.0
        miss = (_ln_geometric_tail(self.LN_LAST, ln_prev - 3.0 / self.U)
                + 3.0 * math.log(self.U / self.SIGMA) - self.LN_TOL)
        j = _edge_steps(self.LN_LAST, ln_prev, self.U, self.SIGMA, self.LN_TOL)
        assert isinstance(j, int) and j > 3
        assert miss + j * ln_q <= 0.0 < miss + (j - 1) * ln_q


class TestSkellamRoute:
    # nb x gamma grid on which the Skellam T is held against the Laguerre route
    GRID = [(nb, g) for nb in (0.1, 1.0, 10.0, 600.0) for g in (0.03, 1.0, 3.2)]

    def test_masses_match_skellam_pmf(self):
        cases = [
            (600.0, 600.0, (-3000, -1200, -600, -300, 0, 300, 900, 2500)),
            (3.0, 7.0, (-25, -10, -7, -2, 0, 3, 12)),
        ]
        for nb, x, points in cases:
            d, mass, _ = _skellam_masses(nb, x, TruncationPolicy())
            idx = {int(v): i for i, v in enumerate(d)}
            for dd in points:
                want = exp(skellam_log_pmf(dd, x * nb, x * (nb + 1.0)))
                assert mass[idx[dd]] == pytest.approx(want, rel=1e-9)

    def test_matches_spectral_oracle(self):
        for nb, gamma in self.GRID:
            s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
            assert third_moment(s).t == pytest.approx(spectral_oracle(s).t, rel=1e-10)

    def test_lyapunov(self):
        for nb, gamma in self.GRID:
            s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
            assert third_moment(s).t >= thermal_closed_forms(s).v ** 1.5

    def test_dropped_tail_within_certified_bound(self):
        # the whole pmf outside the window, from scipy's scaled Bessel: each
        # side drops at most tail_tol/4 of the mass and tail_tol/4 sigma^3 of
        # the cubic weight
        from scipy.special import ive

        nb, x = 600.0, 1897.0
        m1, m2 = x * nb, x * (nb + 1.0)
        z = 2.0 * sqrt(m1 * m2)
        tol = TruncationPolicy().tail_tol / 4.0
        lo, hi = _skellam_masses(nb, x, TruncationPolicy())[0][[0, -1]].tolist()
        reach = int(20.0 * sqrt(m1 + m2))
        for d in (np.arange(lo - reach, lo), np.arange(hi + 1, hi + reach + 1)):
            d = d.astype(float)
            pmf = np.exp(0.5 * d * log(m1 / m2) + z - m1 - m2) * ive(np.abs(d), z)
            assert 0.0 < math.fsum(pmf) <= tol
            assert 0.0 < math.fsum(pmf * np.abs(d + x) ** 3) <= tol * (m1 + m2) ** 1.5

    def test_small_nb_against_frozen_oracle(self):
        # nb=1.5e-4 at 85 dB: the masses' exponent is built from parts of
        # ~2e5, whose rounding (not the truncation: the oracle sums the same
        # window) T's division by the captured mass cancels to 9.7e-12; the
        # identity reads three masses at the mode, whose error is not the
        # window's mass-weighted mean
        s = ThermalScenario(nb=1.5e-4, eta=1.0, ns=1.5e-4 * 10.0 ** (85.0 / 10.0))
        assert third_moment(s).t == pytest.approx(T_ORACLE_NB1P5E4_85DB, rel=1e-11)

    def test_mass_rounding_cancels_in_t(self):
        # here the masses sum to 1 + 8.1e-10 from rounding alone, which an
        # unnormalised T carried (7.8e-10 off); T over its captured mass is
        # 1.6e-11 off
        nb = 0.001708622281030649
        res = third_moment(ThermalScenario(nb=nb, eta=1.0, ns=nb * 10.0 ** (80.35 / 10.0)))
        assert res.captured_mass > 1.0 + 5e-10
        assert res.t == pytest.approx(T_ORACLE_NB1P7E3_80DB, rel=1e-10)

    def test_rounding_bound_covers_mass_error(self):
        # at the finest tail_tol, |1 - sum| is the masses' rounding plus a
        # dropped tail below 2^-53; the bound must cover it with room
        policy = TruncationPolicy(tail_tol=2.0**-52)
        for nb in (1e-6, 1.5e-4, 0.1, 10.0, 600.0):
            for x in (1e-2, 1.0, 1e2, 1e4, 1e5):
                if x * (2.0 * nb + 1.0) > 1e8:
                    continue          # the window would pass K_MAX_CAP
                d, mass, rounding = _skellam_masses(nb, x, policy)
                assert abs(1.0 - math.fsum(mass)) <= rounding() / 4.0

    def test_one_chain_per_t_on_scan_grids(self, monkeypatch):
        # every window on the low-background grid (nb = 0.1, -10..20 dB,
        # 1,000 points) and the default grid (nb = 600, -15..5 dB, 200
        # points) is certified where it starts, so T builds one Bessel chain;
        # at nb = 10, x = 1.39 the start misses, and the window is built twice
        chain = displaced_mod._bessel_ln_ratios
        calls = []
        monkeypatch.setattr(displaced_mod, "_bessel_ln_ratios",
                            lambda z, n_hi: calls.append(n_hi) or chain(z, n_hi))
        for nb, lo_db, hi_db, points in ((0.1, -10.0, 20.0, 1000), (600.0, -15.0, 5.0, 200)):
            for snr_db in np.linspace(lo_db, hi_db, points):
                calls.clear()
                third_moment(ThermalScenario(nb=nb, eta=1.0, ns=10.0 ** (snr_db / 10.0) * nb))
                assert len(calls) == 1, (nb, snr_db)
        calls.clear()
        third_moment(ThermalScenario(nb=10.0, eta=1.0, ns=1.39))
        assert len(calls) == 2 and calls[1] > calls[0]

    def test_sum_within_stated_bound_on_default_grid(self):
        # every window the default scan sums (2,363 to 23,613 wide, all past
        # the fsum switch): the masses whole and in the two parts T sums
        # either side of d = -c, each within _sum's stated bound of its
        # exact sum
        nb = 600.0
        for snr_db in np.linspace(-15.0, 5.0, 200):
            x = 10.0 ** (snr_db / 10.0) * nb
            d, mass, _ = _skellam_masses(nb, x, TruncationPolicy())
            assert len(mass) >= displaced_mod._FSUM_BELOW
            i = -(math.ceil(x) - 1) - int(d[0])
            parts = [exact_sum(part.tolist()) for part in (mass[:i], mass[i:])]
            for part, exact in zip((mass, mass[:i], mass[i:]), (sum(parts), *parts)):
                assert len(part) >= displaced_mod._FSUM_BELOW
                assert abs(Fraction(_sum(part)) - exact) <= Fraction(_SUM_REL) * exact

    def test_adder_bound_within_a_tenth_of_mass_rounding(self):
        # the adder's stated bound on the two parts T sums, against the
        # masses' own rounding bound, on every window of _FSUM_BELOW terms or
        # more at nb = 600: the default grid (-15..5 dB; at least 20 times
        # below it) and on up to 20 dB.  Wider blocks, or a looser adder,
        # would eat into T's budget 2 (a + R + b) here first
        nb = 600.0
        for snr_db in [*np.linspace(-15.0, 5.0, 200), *np.linspace(5.0, 20.0, 16)]:
            x = 10.0 ** (snr_db / 10.0) * nb
            d, mass, rounding = _skellam_masses(nb, x, TruncationPolicy())
            assert len(mass) >= displaced_mod._FSUM_BELOW
            i = -(math.ceil(x) - 1) - int(d[0])
            adder = _SUM_REL * (_sum(mass[:i]) + _sum(mass[i:]))
            assert adder <= rounding() / 10.0, snr_db

    def test_bits_frozen_on_scan_grids(self):
        # the default scan's grid, nb=600, and every 20th point of nb=0.1,
        # -10..20 dB, 1000 points: wide windows on _sum's block sums, narrow
        # ones on math.fsum
        lines = [ln for ln in (DATA / "third_moment_hex.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "nb,snr_db,t,captured_mass"
        rows = [ln.split(",") for ln in lines[1:]]
        grids = [(600.0, s) for s in np.linspace(-15.0, 5.0, 200).tolist()]
        grids += [(0.1, s) for s in np.linspace(-10.0, 20.0, 1000).tolist()[::20]]
        assert [(float(nb), float(snr_db)) for nb, snr_db, _, _ in rows] == grids
        for nb, snr_db, t, captured in rows:
            gamma = 10.0 ** (float(snr_db) / 10.0)
            got = third_moment(ThermalScenario(nb=float(nb), eta=1.0, ns=gamma * float(nb)))
            assert (got.t.hex(), got.captured_mass.hex()) == (t, captured), (nb, snr_db)

    def test_width_cap(self):
        # window [-5175749, -4824251]: past K_MAX_CAP, refused before any sum
        with pytest.raises(CapExceeded):
            third_moment(ThermalScenario(nb=50.0, eta=1.0, ns=50e5))

    def test_index_cap(self):
        # the Bessel chain runs from the window's edge farthest from 0, so a
        # window past K_MAX_CAP is refused however narrow: 7,169 wide at
        # nb=1e-6, 111,155 at nb=50
        for nb, x, window in ((1e-6, 2.1e5, "[-213584, -206416]"),
                              (50.0, 5e5, "[-555577, -444423]")):
            with pytest.raises(CapExceeded, match=re.escape(f"support window {window}")):
                third_moment(ThermalScenario(nb=nb, eta=1.0, ns=x))
        # windows within it return, among them [-185707, -14293] at nb=600,
        # whose Miller start (201,228) once passed K_MAX_CAP
        for nb, x in ((1e-6, 1.9e5), (600.0, 1e5)):
            res = third_moment(ThermalScenario(nb=nb, eta=1.0, ns=x))
            assert math.isfinite(res.t) and abs(res.captured_mass - 1.0) < 1e-9

    def test_window_at_subnormal_mean(self):
        # x nb is subnormal, so r / (e x nb) in _edge_start's Poisson estimate
        # overflows; the window starts from the Gaussian one instead, and
        # still drops at most tail_tol/2
        policy = TruncationPolicy(tail_tol=0.0032577830746079203)
        res = third_moment(ThermalScenario(nb=4.981047290676048e-299, eta=1.0,
                                           ns=4.5337476774662653e-13), policy)
        assert math.isfinite(res.t)
        assert 1.0 - policy.tail_tol / 2.0 <= res.captured_mass <= 1.0

    def test_runtime_imports_numpy_only(self):
        code = (
            "import sys\n"
            "from steinradar import ThermalScenario, third_moment\n"
            "third_moment(ThermalScenario(nb=600.0, eta=1.0, ns=600.0))\n"
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(displaced_mod.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


@pytest.mark.slow
def test_recompute_frozen_transition_probs():
    """Re-derive TP_FROZEN with mpmath.laguerre (well under a second)."""
    from oracles import recompute_transition_prob

    for (k, l, x), want in TP_FROZEN.items():
        assert recompute_transition_prob(k, l, x) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.slow
def test_recompute_frozen_small_nb_t():
    """Re-derive the two small-nb T oracles with an mpmath Miller recurrence (about a second)."""
    from oracles import recompute_t_skellam

    cases = ((1.5e-4, 85.0, (-49138, -45730), T_ORACLE_NB1P5E4_85DB),
             (0.001708622281030649, 80.35, (-188574, -181831), T_ORACLE_NB1P7E3_80DB))
    for nb, snr_db, window, want in cases:
        x = nb * 10.0 ** (snr_db / 10.0)
        lo, hi = _skellam_masses(nb, x, TruncationPolicy())[0][[0, -1]].tolist()
        assert (lo, hi) == window
        t, mass = recompute_t_skellam(nb, x, lo, hi)
        assert t == pytest.approx(want, rel=1e-15)
        assert 1.0 - TruncationPolicy().tail_tol / 2.0 <= mass <= 1.0


@pytest.mark.slow
def test_recompute_frozen_t_oracle():
    """Re-derive the frozen brute-force T value (about half a second of mpmath work)."""
    from oracles import recompute_t_oracle

    d, v, t, mass = recompute_t_oracle(nb=1.0, x=1.0, k_max=120, dps=50)
    assert t == pytest.approx(T_ORACLE_NB1_X1, rel=1e-12)
    assert d == pytest.approx(log(2.0), rel=1e-12)
    assert v == pytest.approx(3.0 * log(2.0) ** 2, rel=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-20)
