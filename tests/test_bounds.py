"""Normal CDF pair, finite-size brackets, and exponent behavior."""

import math
from math import exp, log, sqrt

import numpy as np
import pytest

from steinradar import (
    BERRY_ESSEEN_C,
    DegenerateVariance,
    DetectionParams,
    RelEntStats,
    ThermalScenario,
    error_exponent,
    inv_std_normal_cdf,
    refined_bracket,
    std_normal_cdf,
    thermal_closed_forms,
    third_moment,
)
from steinradar.bounds import first_order_log_pmd, lambda_bracket

from oracles import (
    BE_SUP_FROZEN,
    D_600_G1,
    INV_PHI_1E3,
    INV_PHI_1E5,
    INV_PHI_FROZEN,
    V_600_G1,
    bisect_inverse_cdf,
)

FIG1 = DetectionParams(p_fa=1e-3, m=5000)


class TestNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_deep_tail_positive_monotone(self):
        # subnormal-or-zero far out, strictly positive where representable
        vals = [std_normal_cdf(x) for x in (-40.0, -39.0, -38.0, -37.0)]
        assert all(v >= 0.0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[-1] < 1e-290

    def test_milli_quantile(self):
        assert std_normal_cdf(-3.090232306167813) == pytest.approx(1e-3, rel=1e-9)

    def test_against_quadrature(self):
        from scipy.integrate import quad

        for x in (-3.0, -1.2, -0.3, 0.7, 2.5):
            want, _ = quad(lambda u: exp(-0.5 * u * u) / sqrt(2 * math.pi), -40.0, x,
                           epsabs=1e-15, epsrel=1e-13)
            assert std_normal_cdf(x) == pytest.approx(want, abs=1e-13)


class TestInverseCdf:
    def test_center(self):
        assert inv_std_normal_cdf(0.5) == 0.0

    def test_reference_quantiles(self):
        assert inv_std_normal_cdf(1e-3) == pytest.approx(INV_PHI_1E3, abs=1e-8)
        assert inv_std_normal_cdf(1e-5) == pytest.approx(INV_PHI_1E5, abs=1e-8)

    def test_against_bisection_oracle(self):
        for eps in (1e-3, 1e-5):
            want = bisect_inverse_cdf(std_normal_cdf, eps)
            assert inv_std_normal_cdf(eps) == pytest.approx(want, abs=1e-8)

    def test_frozen_mpmath_quantiles(self):
        for p, want in INV_PHI_FROZEN.items():
            assert inv_std_normal_cdf(p) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(ValueError):
                inv_std_normal_cdf(bad)

    def test_round_trip_identity(self):
        # 200 log-spaced quantiles covering both tails
        half = np.logspace(-8, math.log10(0.5), 100)
        for eps in np.concatenate((half, 1.0 - half)):
            x = inv_std_normal_cdf(float(eps))
            assert std_normal_cdf(x) == pytest.approx(
                float(eps), abs=1e-12 * max(eps, 1.0 - eps)
            )

    def test_residual_accuracy(self):
        for eps in (1e-8, 1e-5, 1e-3, 0.02425, 0.3, 0.5, 0.75, 1 - 1e-6):
            x = inv_std_normal_cdf(eps)
            assert abs(std_normal_cdf(x) - eps) <= 1e-14 * max(eps, 1.0 - eps)


class TestFirstOrder:
    def test_zero_entropy(self):
        assert first_order_log_pmd(0.0, FIG1) == 0.0

    def test_headline_product(self):
        got = first_order_log_pmd(D_600_G1, FIG1)
        assert got == pytest.approx(-5000.0 * D_600_G1, rel=1e-15)
        assert got == pytest.approx(-4995.838, abs=5e-3)

    def test_linear_in_copies(self):
        d = 0.37
        double = DetectionParams(p_fa=1e-3, m=10000)
        assert first_order_log_pmd(d, double) == 2.0 * first_order_log_pmd(d, FIG1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            first_order_log_pmd(-0.1, FIG1)


class TestLambdaBracket:
    def test_degenerate_unit(self):
        lo, hi = lambda_bracket(0.0, 0.0, FIG1)
        assert hi == 0.0
        assert lo == -2.0 * log(5000.0)

    def test_headline_value(self):
        lo, hi = lambda_bracket(D_600_G1, V_600_G1, FIG1)
        want = -5000.0 * D_600_G1 - sqrt(5000.0 * V_600_G1) * INV_PHI_1E3
        assert hi == pytest.approx(want, rel=1e-12)
        assert hi == pytest.approx(-4686.9, abs=0.1)

    def test_width_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d, v = rng.uniform(0, 3), rng.uniform(0, 5)
            m = int(rng.integers(2, 10**6))
            params = DetectionParams(p_fa=float(rng.uniform(1e-6, 0.4)), m=m)
            lo, hi = lambda_bracket(d, v, params)
            assert lo == hi - 2.0 * log(m)


class TestRefinedBracket:
    def test_zero_third_moment_reduces_to_lambda(self):
        stats = RelEntStats(d=0.5, v=1.0, t=0.0)
        params = DetectionParams(p_fa=0.05, m=400)
        bounds = refined_bracket(stats, params)
        assert bounds.theta_u == params.p_fa
        assert bounds.theta_l == params.p_fa + 2.0 / sqrt(400.0)
        assert bounds.refined_upper_valid
        assert bounds.log_refined_upper == bounds.log_lambda_upper

    def test_fig1_regime_upper_invalid(self):
        stats = RelEntStats(d=D_600_G1, v=V_600_G1, t=4.5078845)
        bounds = refined_bracket(stats, FIG1)
        assert bounds.theta_u < 0.0
        assert not bounds.refined_upper_valid
        assert bounds.log_refined_upper is None
        assert bounds.refined_lower_valid
        assert bounds.log_refined_lower is not None

    def test_theta_monotonicity_and_ordering(self):
        params = DetectionParams(p_fa=0.05, m=5000)
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.uniform(0.5, 3.0)
            t = rng.uniform(0.0, 1.2) * v**1.5  # keeps theta_u positive
            stats = RelEntStats(d=rng.uniform(0.01, 2.0), v=v, t=t)
            bounds = refined_bracket(stats, params)
            assert bounds.theta_u <= params.p_fa <= bounds.theta_l
            if bounds.refined_upper_valid and bounds.refined_lower_valid:
                assert inv_std_normal_cdf(bounds.theta_u) <= inv_std_normal_cdf(params.p_fa)
                assert inv_std_normal_cdf(params.p_fa) <= inv_std_normal_cdf(bounds.theta_l)
                assert bounds.log_refined_lower <= bounds.log_refined_upper
                assert bounds.log_refined_lower <= bounds.log_lambda_upper

    def test_lambda_fields_match_lambda_bracket(self):
        stats = RelEntStats(d=0.8, v=1.6, t=2.0)
        bounds = refined_bracket(stats, FIG1)
        lo, hi = lambda_bracket(stats.d, stats.v, FIG1)
        assert bounds.log_lambda_upper == hi
        assert bounds.log_lambda_lower == lo
        assert bounds.log_first_order == -FIG1.m * stats.d

    def test_upper_exponent_below_first_order_when_theta_small(self):
        # whenever theta_u < 1/2, Phi^-1(theta_u) < 0 weakens the exponent
        params = DetectionParams(p_fa=0.05, m=5000)
        for t_scale in (0.0, 0.5, 1.0, 2.0):
            stats = RelEntStats(d=1.0, v=2.0, t=t_scale * 2.0**1.5)
            bounds = refined_bracket(stats, params)
            if bounds.refined_upper_valid and bounds.theta_u < 0.5:
                eps_upper = error_exponent(bounds.log_refined_upper, params.m)
                assert eps_upper <= stats.d

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            refined_bracket(RelEntStats(d=1.0, v=0.0, t=1.0), FIG1)

    def test_rejects_non_finite_d(self):
        for d in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                refined_bracket(RelEntStats(d=d, v=1.0, t=1.0), FIG1)

    def test_rejects_non_finite_v(self):
        # v = 0 stays DegenerateVariance
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                refined_bracket(RelEntStats(d=1.0, v=v, t=1.0), FIG1)

    def test_rejects_v_beyond_float_range(self):
        # v^(3/2) overflows: ValueError, not a bare OverflowError
        with pytest.raises(ValueError, match="float range"):
            refined_bracket(RelEntStats(d=1e300, v=1e300, t=1e300), DetectionParams(0.1, 2**53))

    def test_missing_t(self):
        with pytest.raises(ValueError):
            refined_bracket(RelEntStats(d=1.0, v=1.0), FIG1)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError):
                refined_bracket(RelEntStats(d=1.0, v=1.0, t=t), FIG1)

    def test_exponent_convergence_in_copies(self):
        # every bound's exponent approaches D within a C/sqrt(M) envelope,
        # with C fitted per bound at the smallest M where that bound exists
        # (the refined upper side only enters once theta_u > 0)
        stats = RelEntStats(d=1.0, v=2.0, t=0.5)
        p_fa = 1e-3

        def exponent_gaps(m):
            params = DetectionParams(p_fa=p_fa, m=m)
            bounds = refined_bracket(stats, params)
            gaps = {
                "lambda_upper": error_exponent(bounds.log_lambda_upper, m),
                "lambda_lower": error_exponent(bounds.log_lambda_lower, m),
            }
            if bounds.refined_upper_valid:
                gaps["refined_upper"] = error_exponent(bounds.log_refined_upper, m)
            if bounds.refined_lower_valid:
                gaps["refined_lower"] = error_exponent(bounds.log_refined_lower, m)
            return {name: abs(e - stats.d) for name, e in gaps.items()}

        grid = (10**3, 10**4, 10**5, 10**6)
        per_type = {}
        for m in grid:
            for name, gap in exponent_gaps(m).items():
                per_type.setdefault(name, []).append((m, gap))
        assert set(per_type) == {
            "lambda_upper", "lambda_lower", "refined_upper", "refined_lower"
        }
        # leading constant for every bound: sqrt(V) |Phi^-1(.)| plus the
        # ln(M)/sqrt(M) remainders; 2x headroom makes the envelope analytic
        ceiling = 2.0 * sqrt(stats.v) * abs(inv_std_normal_cdf(p_fa)) + 1.0
        for name, series in per_type.items():
            gaps = [g for _, g in series]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), name
            assert all(g * sqrt(m) <= ceiling for m, g in series), name


class TestErrorExponent:
    def test_zero(self):
        assert error_exponent(0.0, 5000) == 0.0

    def test_headline(self):
        assert error_exponent(-4686.9, 5000) == pytest.approx(0.93738, abs=1e-5)

    def test_first_order_round_trip(self):
        d = D_600_G1
        assert error_exponent(first_order_log_pmd(d, FIG1), FIG1.m) == pytest.approx(
            d, rel=1e-15
        )

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            error_exponent(-1.0, 0)


class TestDetectionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionParams(p_fa=0.0, m=100)
        with pytest.raises(ValueError):
            DetectionParams(p_fa=0.5, m=0)
        with pytest.raises(ValueError):
            DetectionParams(p_fa=0.5, m=100, c=0.5)
        with pytest.raises(ValueError):
            DetectionParams(p_fa=0.5, m=100, c=0.0)
        with pytest.raises(ValueError):
            DetectionParams(p_fa=0.5, m=2.5)
        with pytest.raises(ValueError):
            DetectionParams(p_fa=0.5, m=10**400)   # not representable as a float
        assert DetectionParams(p_fa=0.5, m=np.int64(100)).m == 100


class TestBerryEsseenStep:
    """The refined bracket replaces the law of the M-copy log-likelihood by
    Phi plus the slack C T / (V^(3/2) sqrt(M)).  That law is exactly
    -ln(1 + 1/nb) times Skellam(M x nb, M x (nb+1)), so the Berry-Esseen
    inequality can be checked against it with the library's T and V: a T
    too small or a V too large shows as a distance past the slack."""

    def test_slack_covers_exact_law(self):
        # BE_SUP_FROZEN holds lower bounds on sup |F_M - Phi| from
        # scipy.stats.skellam.cdf; the tightest point, M=5000, nb=0.1,
        # x=0.01, uses 0.53 of its slack
        for (m, nb, x), dist in BE_SUP_FROZEN.items():
            s = ThermalScenario(nb=nb, eta=1.0, ns=x)
            v = thermal_closed_forms(s).v
            slack = BERRY_ESSEEN_C * third_moment(s).t / (v**1.5 * sqrt(m))
            assert dist <= slack

    def test_exact_law_leaves_upper_side_open(self):
        # At the headline nb = 600, M = 5000, every row leaves
        # eps_refined_upper blank: theta_u < 0.  With the exact law's distance
        # in place of the slack C T / (V^(3/2) sqrt(M)), p_fa - sup lies in
        # (0, 1), so the blank comes from the constant, not from the law.
        for x in (1e-2, 1.0, 100.0):
            sup = BE_SUP_FROZEN[(FIG1.m, 600.0, x)]
            s = ThermalScenario(nb=600.0, eta=1.0, ns=x)
            b = refined_bracket(thermal_closed_forms(s).with_t(third_moment(s).t), FIG1)
            exact_u = FIG1.p_fa - sup
            exact_l = FIG1.p_fa + sup + 2.0 / sqrt(FIG1.m)
            print(f"\n{10.0 * math.log10(x / 600.0):6.1f} dB: Berry-Esseen theta_u = "
                  f"{b.theta_u:.3g}, theta_l = {b.theta_l:.4g}; exact law "
                  f"theta_u = {exact_u:.3g}, theta_l = {exact_l:.4g}")
            assert b.theta_u < 0.0 < exact_u < 1.0


@pytest.mark.slow
def test_recompute_frozen_be_distances():
    """Re-derive BE_SUP_FROZEN with scipy.stats.skellam.cdf at every grid
    point whose law has variance <= 1e6 (about half a second).  The five
    points past it cost 1 s to minutes each and were computed once with
    the same function."""
    from oracles import skellam_normal_distance

    for (m, nb, x), dist in BE_SUP_FROZEN.items():
        mu1, mu2 = m * x * nb, m * x * (nb + 1.0)
        if mu1 + mu2 <= 1e6:
            assert skellam_normal_distance(mu1, mu2) == pytest.approx(dist, rel=1e-6)


@pytest.mark.slow
def test_recompute_frozen_inv_phi():
    """Re-derive the frozen inverse-CDF quantiles in mpmath."""
    from oracles import recompute_inv_phi

    for p, want in INV_PHI_FROZEN.items():
        assert recompute_inv_phi(p) == pytest.approx(want, rel=1e-15, abs=0.0)
