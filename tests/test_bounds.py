"""Normal CDF pair, finite-size brackets, and exponent behavior."""

import math
import pickle
from math import exp, log, sqrt

import numpy as np
import pytest

from steinradar import (
    BERRY_ESSEEN_C,
    DegenerateVariance,
    DetectionParams,
    MDBounds,
    RelEntStats,
    ThermalScenario,
    error_exponent,
    inv_std_normal_cdf,
    refined_bracket,
    std_normal_cdf,
    thermal_closed_forms,
    third_moment,
)

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


def bracket(d, v=1.0, params=FIG1):
    """refined_bracket at T = V^(3/2), for its first- and second-order fields,
    which do not depend on T."""
    return refined_bracket(RelEntStats(d=d, v=v, t=v**1.5), params)


class TestNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            std_normal_cdf(math.nan)
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_cdf(math.inf) == 1.0

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
        assert bracket(0.0).log_first_order == 0.0

    def test_headline_product(self):
        got = bracket(D_600_G1, V_600_G1).log_first_order
        assert got == pytest.approx(-5000.0 * D_600_G1, rel=1e-15)
        assert got == pytest.approx(-4995.838, abs=5e-3)

    def test_linear_in_copies(self):
        d = 0.37
        double = DetectionParams(p_fa=1e-3, m=10000)
        assert bracket(d, params=double).log_first_order == 2.0 * bracket(d).log_first_order

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            RelEntStats(d=-0.1, v=1.0, t=1.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            RelEntStats(d=1.0, v=-0.1)
        with pytest.raises(ValueError, match="finite and >= 0"):
            RelEntStats(d=1.0, v=1.0, t=-0.1)


class TestLambdaBracket:
    def test_degenerate_unit(self):
        # zero entropy at p_fa = 1/2, where Phi^-1 vanishes: the bracket is
        # [M^-2, 1] (v = 0 is refused; see test_degenerate_variance)
        b = bracket(0.0, params=DetectionParams(p_fa=0.5, m=5000))
        assert b.log_lambda_upper == 0.0
        assert b.log_lambda_lower == -2.0 * log(5000.0)

    def test_headline_value(self):
        hi = bracket(D_600_G1, V_600_G1).log_lambda_upper
        want = -5000.0 * D_600_G1 - sqrt(5000.0 * V_600_G1) * INV_PHI_1E3
        assert hi == pytest.approx(want, rel=1e-12)
        assert hi == pytest.approx(-4686.9, abs=0.1)

    def test_width_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d, v = rng.uniform(0, 3), rng.uniform(0, 5)
            m = int(rng.integers(2, 10**6))
            params = DetectionParams(p_fa=float(rng.uniform(1e-6, 0.4)), m=m)
            b = bracket(d, v, params)
            assert b.log_lambda_lower == b.log_lambda_upper - 2.0 * log(m)


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
        # the second-order formula, operation for operation
        stats = RelEntStats(d=0.8, v=1.6, t=2.0)
        bounds = refined_bracket(stats, FIG1)
        hi = -FIG1.m * stats.d - sqrt(FIG1.m * stats.v) * inv_std_normal_cdf(FIG1.p_fa)
        assert bounds.log_lambda_upper == hi
        assert bounds.log_lambda_lower == hi - 2.0 * log(FIG1.m)
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
        # v^(3/2) overflows, or underflows to 0: ValueError, not a bare
        # OverflowError or ZeroDivisionError
        for v in (1e300, 1e-300):
            with pytest.raises(ValueError, match="float range"):
                refined_bracket(RelEntStats(d=1.0, v=v, t=1.0), DetectionParams(0.1, 2**53))

    def test_rejects_non_finite_result(self):
        # M d, or T / V^(3/2), beyond the float range
        params = DetectionParams(0.1, 2**53)
        for stats in (RelEntStats(d=1e300, v=1.0, t=1.0),
                      RelEntStats(d=1.0, v=1e-100, t=1e300)):
            with pytest.raises(ValueError, match="beyond the float range"):
                refined_bracket(stats, params)

    def test_numpy_moments_give_python_types(self):
        # nb=600, -15 dB, with every moment passed as np.float64: the flags
        # are bool and every number a Python float, as MDBounds documents
        closed = thermal_closed_forms(ThermalScenario(nb=600.0, eta=1.0,
                                                      ns=600.0 * 10.0 ** -1.5))
        t = third_moment(ThermalScenario(nb=600.0, eta=1.0, ns=600.0 * 10.0 ** -1.5)).t
        stats = RelEntStats(d=np.float64(closed.d), v=np.float64(closed.v), t=np.float64(t))
        assert all(type(x) is float for x in (stats.d, stats.v, stats.t))
        bounds = refined_bracket(stats, FIG1)
        assert type(bounds.refined_upper_valid) is bool
        assert type(bounds.refined_lower_valid) is bool
        for x in (bounds.log_first_order, bounds.log_lambda_upper, bounds.log_lambda_lower,
                  bounds.theta_u, bounds.theta_l, bounds.log_refined_lower):
            assert type(x) is float

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
        assert error_exponent(bracket(d).log_first_order, FIG1.m) == pytest.approx(
            d, rel=1e-15
        )

    def test_rejects_bad_m(self):
        for m in (0, 1.5, 5.0, 2**53 + 1):
            with pytest.raises(ValueError, match="m must be"):
                error_exponent(-1.0, m)
        assert error_exponent(-1.0, np.int64(4)) == 0.25

    def test_rejects_non_finite_log_pmd(self):
        for log_pmd in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                error_exponent(log_pmd, 5)

    def test_positive_log_pmd_is_legal(self):
        # ln lambda_upper exceeds 0 at low SNR, where that bound on p_MD is > 1
        assert error_exponent(0.5, 1) == -0.5


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

    def test_kept_constants(self):
        # Phi^-1(p_fa) and 2 ln M, bit for bit the calls refined_bracket made
        # on every row, over random p_fa and m and their ends
        rng = np.random.default_rng(34)
        p_fas = [5e-324, 1e-3, 0.5, math.nextafter(1.0, 0.0)]
        p_fas += (10.0 ** rng.uniform(-300.0, 0.0, 2000)).tolist() + rng.uniform(0.01, 0.99, 500).tolist()
        ms = [1, 2, 5000, 2**53] + (2.0 ** rng.uniform(0.0, 53.0, 2500)).astype(int).tolist()
        for p_fa, m in zip(p_fas, ms):
            params = DetectionParams(p_fa=p_fa, m=m)
            assert params._inv_p_fa == inv_std_normal_cdf(p_fa)
            assert params._two_ln_m == 2.0 * log(m)

    def test_kept_constants_outside_the_fields(self):
        # ==, hash and repr read the three fields alone, and a pickle round
        # trip keeps the constants with them
        params, other = DetectionParams(p_fa=1e-3, m=5000), DetectionParams(p_fa=1e-3, m=5000)
        object.__setattr__(other, "_inv_p_fa", 0.0)
        object.__setattr__(other, "_two_ln_m", 0.0)
        assert params == other and hash(params) == hash(other)
        assert repr(params) == repr(other) == "DetectionParams(p_fa=0.001, m=5000, c=0.4748)"
        back = pickle.loads(pickle.dumps(params))
        assert back == params
        assert (back._inv_p_fa, back._two_ln_m) == (params._inv_p_fa, params._two_ln_m)


class TestMDBounds:
    def test_fields_and_defaults(self):
        assert MDBounds._fields == (
            "log_first_order", "log_lambda_upper", "log_lambda_lower", "theta_l", "theta_u",
            "refined_upper_valid", "refined_lower_valid", "log_refined_upper",
            "log_refined_lower")
        assert MDBounds._field_defaults == {"log_refined_upper": None,
                                            "log_refined_lower": None}
        b = MDBounds(-1.0, -2.0, -3.0, 0.5, 0.25, True, False)
        assert (b.log_refined_upper, b.log_refined_lower) == (None, None)

    def test_immutable(self):
        b = bracket(0.01)
        for name in MDBounds._fields:
            with pytest.raises(AttributeError):
                setattr(b, name, 0.0)


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
