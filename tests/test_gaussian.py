"""Gaussian-state construction, Gibbs matrices, and relative-entropy formulas."""

import math
from math import log, log1p, sqrt
from unittest import mock

import numpy as np
import pytest

from steinradar import (
    ConsistencyError,
    GaussianState,
    SingularGibbs,
    ThermalScenario,
    gibbs_matrix,
    rel_entropy,
    rel_entropy_variance,
    scenario_states,
    thermal_closed_forms,
)
from steinradar import gaussian
from steinradar.gaussian import _clamp_nonneg, symplectic_form

from oracles import D_600_G1, V_600_G1, thermal_fock_d, thermal_fock_v


def thermal_state(nbar, mean=(0.0, 0.0)):
    return GaussianState(mean=np.array(mean), cm=(nbar + 0.5) * np.eye(2))


def random_mixed_state(rng, modes):
    """Valid mixed state: cm = A A^T + (1/2 + s) I is bona fide with margin."""
    n = 2 * modes
    a = 0.6 * rng.standard_normal((n, n))
    cm = a @ a.T + (0.5 + 0.2 + rng.uniform(0, 1)) * np.eye(n)
    mean = rng.standard_normal(n)
    return GaussianState(mean=mean, cm=cm)


class TestConstruction:
    def test_symplectic_form(self):
        omega = symplectic_form(2)
        assert omega.shape == (4, 4)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega @ omega, -np.eye(4))

    def test_rejects_asymmetric_cm(self):
        cm = np.array([[1.0, 0.3], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(mean=np.zeros(2), cm=cm)

    def test_rejects_bona_fide_violation(self):
        with pytest.raises(ValueError, match="bona-fide"):
            GaussianState(mean=np.zeros(2), cm=0.3 * np.eye(2))

    def test_rejects_wrong_mean_length(self):
        with pytest.raises(ValueError, match="mean"):
            GaussianState(mean=np.zeros(3), cm=np.eye(2))

    def test_rejects_non_finite_mean(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GaussianState(mean=np.array([value, 0.0]), cm=np.eye(2))

    def test_rejects_non_finite_cm(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GaussianState(mean=np.zeros(2), cm=np.diag([value, 1.0]))

    def test_rejects_cm_whose_double_overflows(self):
        # 2i*V*Omega would overflow in eig; refused before it
        with pytest.raises(ValueError, match="2 cm within the float range"):
            GaussianState(mean=np.zeros(2), cm=1e308 * np.eye(2))
        with pytest.raises(ValueError, match="2 cm within the float range"):
            scenario_states(ThermalScenario(nb=9e307, eta=1.0, ns=1.0))
        # just below, the state is accepted and D = ns ln(1 + 1/nb)
        r0, r1 = scenario_states(ThermalScenario(nb=8e307, eta=1.0, ns=8e307))
        assert rel_entropy(r0, r1) == pytest.approx(1.0, rel=1e-12)

    def test_modes_from_mean_length(self):
        assert GaussianState(mean=np.zeros(4), cm=np.eye(4)).modes == 2
        assert GaussianState(mean=np.zeros(2), cm=np.eye(2)).modes == 1

    def test_rejects_empty_or_odd_mean(self):
        # a 3-vector with a matching 3x3 cm has no whole mode count
        for n in (0, 3):
            with pytest.raises(ValueError, match="positive even length"):
                GaussianState(mean=np.zeros(n), cm=np.eye(n))

    def test_rejects_mean_that_is_not_a_vector(self):
        # each has an even number of entries, so flattening would accept it
        for shape, cm in (((2, 2), np.eye(4)), ((1, 2), np.eye(2))):
            with pytest.raises(ValueError, match=r"mean must be a vector, got shape \("):
                GaussianState(mean=np.zeros(shape), cm=cm)

    def test_rejects_cm_of_wrong_shape(self):
        for cm in (np.eye(2), np.eye(6), np.ones((4, 2))):
            with pytest.raises(ValueError, match="cm must be 4x4"):
                GaussianState(mean=np.zeros(4), cm=cm)

    def test_vacuum_is_accepted(self):
        state = GaussianState(mean=np.zeros(2), cm=0.5 * np.eye(2))
        # the spectrum of 2i*V*Omega is +/-2 nu, nu = 1/2 for the vacuum
        assert 0.5 * np.abs(state._spec.vals) == pytest.approx([0.5, 0.5])

    def test_holds_read_only_copies(self):
        # the state's eigendecomposition stays that of its cm: the caller's
        # arrays are copied, and the state's own cannot be written
        mean, cm = np.zeros(2), np.eye(2)
        state = GaussianState(mean=mean, cm=cm)
        cm[0, 0] = 0.1
        assert np.array_equal(state.cm, np.eye(2))
        for arr in (state.mean, state.cm):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_scenario_invariants(self):
        with pytest.raises(ValueError):
            ThermalScenario(nb=0.0, eta=0.5, ns=1.0)
        with pytest.raises(ValueError):
            ThermalScenario(nb=1.0, eta=1.5, ns=1.0)
        with pytest.raises(ValueError):
            ThermalScenario(nb=1.0, eta=0.5, ns=-1.0)
        with pytest.raises(ValueError):
            ThermalScenario(nb=1.0, eta=0.5, ns=math.inf)
        with pytest.raises(ValueError):
            ThermalScenario(nb=math.inf, eta=0.5, ns=1.0)

    def test_snr_accessor_exact(self):
        s = ThermalScenario(nb=3.0, eta=0.7, ns=11.0)
        assert s.snr == 0.7 * 11.0 / 3.0


class TestScenarioStates:
    def test_zero_signal_states_identical(self):
        r0, r1 = scenario_states(ThermalScenario(nb=600, eta=0.3, ns=0.0))
        assert np.array_equal(r1.mean, [0.0, 0.0])
        assert np.array_equal(r0.cm, 600.5 * np.eye(2))
        assert np.array_equal(r0.cm, r1.cm)

    def test_unit_signal_mean(self):
        r0, r1 = scenario_states(ThermalScenario(nb=600, eta=1.0, ns=1.0))
        assert r1.mean == pytest.approx([sqrt(2.0), 0.0], abs=1e-15)
        assert np.array_equal(r1.cm, 600.5 * np.eye(2))

    def test_transmissivity_scaling(self):
        # sqrt(eta) * sqrt(2 ns) = 0.5 * sqrt(2) * 2 = sqrt(2)
        r0, r1 = scenario_states(ThermalScenario(nb=1.0, eta=0.25, ns=4.0))
        assert r1.mean == pytest.approx([sqrt(2.0), 0.0], abs=1e-15)
        assert np.array_equal(r1.cm, 1.5 * np.eye(2))


class TestGibbsMatrix:
    def test_scalar_thermal_half(self):
        # scalar oracle: coth^-1(2 nu) doubled, nu = 1 -> ln 3
        g = gibbs_matrix(thermal_state(0.5))
        assert g == pytest.approx(log(3.0) * np.eye(2), abs=1e-12)

    def test_scalar_thermal_bright(self):
        g = gibbs_matrix(thermal_state(600.0))
        assert g == pytest.approx(log(601.0 / 600.0) * np.eye(2), abs=1e-14)

    def test_vacuum_raises(self):
        # nu = 1/2, and 1/2 + 1e-10 within PURE_MODE_EPS: a failure is not
        # kept on the state, so every call raises afresh
        for nu in (0.5, 0.5 + 1e-10):
            state = GaussianState(mean=np.zeros(2), cm=nu * np.eye(2))
            for fn in (gibbs_matrix, gibbs_matrix, lambda r: rel_entropy(r, r)):
                with pytest.raises(SingularGibbs):
                    fn(state)

    def test_failed_build_is_not_shared(self):
        # two states with nu = 1/2 + 1e-10 share one record, and the failed
        # Gibbs build is kept on neither, so every call on either raises
        cm = (0.5 + 1e-10) * np.eye(2)
        states = [GaussianState(mean=np.zeros(2), cm=cm), GaussianState(mean=np.ones(2), cm=cm)]
        assert states[0]._spec is states[1]._spec
        for state in states + states:
            with pytest.raises(SingularGibbs):
                gibbs_matrix(state)
        assert states[0]._spec.gibbs is None

    def test_imaginary_residue_refused_and_not_kept(self, monkeypatch):
        # an inverse off by 1e-6 i leaves an imaginary residue past
        # RESIDUE_TOL, which is refused, and the failed build keeps nothing:
        # with the inverse restored, the next call builds the matrix.  The cm
        # is one no other test uses, so the spectrum memo holds no matrix yet.
        state = GaussianState(mean=np.zeros(4), cm=np.diag([1.3, 1.3, 2.1, 2.1]))
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) + 1e-6j)
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            gibbs_matrix(state)
        assert state._spec.gibbs is None
        monkeypatch.undo()
        g = gibbs_matrix(state)
        assert state._spec.gibbs is g
        want = np.diag([log(1.8 / 0.8)] * 2 + [log(2.6 / 1.6)] * 2)
        assert np.abs(g - want).max() < 1e-12

    def test_thermal_identity_on_grid(self):
        for nbar in (0.1, 0.7, 1.0, 5.0, 42.0, 1e4):
            g = gibbs_matrix(thermal_state(nbar))
            want = log((nbar + 1.0) / nbar)
            assert np.abs(g - want * np.eye(2)).max() < 1e-10 * max(want, 1.0)

    def test_thermal_near_vacuum_is_real(self):
        # eig returns each +/- 2nu pair a few ulps apart, and near nu = 1/2
        # arccoth's slope turned that into an imaginary residue past
        # RESIDUE_TOL for 27 of these 400 states; a common |lambda| per pair
        # leaves none
        for nbar in np.logspace(-6.0, log(3e-6) / log(10.0), 400).tolist():
            g = gibbs_matrix(thermal_state(nbar))
            want = log1p(1.0 / nbar)
            assert np.abs(g - want * np.eye(2)).max() < 1e-10 * want

    def test_symmetric_on_random_states(self):
        rng = np.random.default_rng(7)
        for modes in (1, 2):
            for _ in range(20):
                g = gibbs_matrix(random_mixed_state(rng, modes))
                assert np.abs(g - g.T).max() < 1e-12 * max(np.abs(g).max(), 1.0)


class TestSigmaAndRelEntropy:
    def test_identical_states_zero(self):
        rho = thermal_state(1.0)
        assert rel_entropy(rho, rho) == 0.0
        assert rel_entropy_variance(rho, rho) == 0.0

    def test_mean_shift_term(self):
        # equal covariances: the log dets and the trace term are exactly 0, so
        # D is delta^T G1 delta / 2 to the bit; with scalar G1, 600 ln(601/600)
        for ns in (600.0, 6e-7):
            r0, r1 = scenario_states(ThermalScenario(nb=600.0, eta=1.0, ns=ns))
            delta = r0.mean - r1.mean
            got = rel_entropy(r0, r1)
            assert got == 0.5 * float(delta @ gibbs_matrix(r1) @ delta)
            assert got == pytest.approx(ns * log(601.0 / 600.0), rel=1e-12)

    def test_sigma_asymmetry(self):
        a, b = thermal_state(1.0), thermal_state(2.0)
        assert abs(rel_entropy(a, b) - rel_entropy(b, a)) > 0.01

    def test_mode_mismatch(self):
        # pairing a 1-mode with a 2-mode state is a malformed input
        rng = np.random.default_rng(3)
        for fn in (rel_entropy, rel_entropy_variance):
            with pytest.raises(ValueError, match="1-mode state paired with 2-mode state"):
                fn(thermal_state(1.0), random_mixed_state(rng, 2))

    def test_bright_scenario_closed_form(self):
        s = ThermalScenario(nb=600.0, eta=1.0, ns=600.0)
        r0, r1 = scenario_states(s)
        assert rel_entropy(r0, r1) == pytest.approx(D_600_G1, rel=1e-9)
        assert rel_entropy_variance(r0, r1) == pytest.approx(V_600_G1, rel=1e-9)

    def test_thermal_pair_against_fock_oracle(self):
        a, b = thermal_state(1.0), thermal_state(2.0)
        assert rel_entropy(a, b) == pytest.approx(thermal_fock_d(1.0, 2.0), rel=1e-8)
        assert rel_entropy(b, a) == pytest.approx(thermal_fock_d(2.0, 1.0), rel=1e-8)
        assert rel_entropy_variance(a, b) == pytest.approx(thermal_fock_v(1.0, 2.0), rel=1e-8)
        assert rel_entropy_variance(b, a) == pytest.approx(thermal_fock_v(2.0, 1.0), rel=1e-8)

    def test_fock_oracle_equivalence_small_nbar(self):
        # 400 levels: a geometric tail below 1e-31 even at nbar = 5, so the
        # 1e-8 comparison is truncation-free
        for n0, n1 in [(0.5, 1.5), (1.0, 3.0), (2.0, 5.0), (4.0, 0.8), (5.0, 1.2)]:
            a, b = thermal_state(n0), thermal_state(n1)
            assert rel_entropy(a, b) == pytest.approx(
                thermal_fock_d(n0, n1), rel=1e-8, abs=1e-12
            )
            assert rel_entropy_variance(a, b) == pytest.approx(
                thermal_fock_v(n0, n1), rel=1e-8, abs=1e-12
            )

    def test_nonnegativity_random_pairs(self):
        rng = np.random.default_rng(11)
        for i in range(100):
            modes = 1 if i % 2 == 0 else 2
            a = random_mixed_state(rng, modes)
            b = random_mixed_state(rng, modes)
            assert rel_entropy(a, b) >= 0.0
            assert rel_entropy_variance(a, b) >= 0.0

    def test_self_entropy_exactly_zero_random(self):
        rng = np.random.default_rng(13)
        for modes in (1, 2):
            for _ in range(10):
                a = random_mixed_state(rng, modes)
                assert rel_entropy(a, a) == 0.0
                assert rel_entropy_variance(a, a) == 0.0

    def test_negative_round_off_clamps_and_more_raises(self):
        # D and V pass through _clamp_nonneg: below zero within CLAMP_TOL
        # is round-off, further is a bug
        assert _clamp_nonneg(-1e-12, "relative entropy") == 0.0
        with pytest.raises(ConsistencyError, match="negative beyond round-off"):
            _clamp_nonneg(-1e-9, "relative entropy")

    def test_refuses_values_past_the_float_range(self):
        # delta^T G1 delta = 1e400 ln 3 overflows: a ValueError, not inf
        far, rho = thermal_state(0.5, mean=(1e200, 0.0)), thermal_state(0.5)
        for fn in (rel_entropy, rel_entropy_variance):
            with pytest.raises(ValueError, match="beyond the float range"):
                fn(far, rho)

    def test_one_decomposition_per_state(self, monkeypatch):
        # the bona-fide check, both Gibbs matrices and the log dets all read
        # one eig of 2i*V*Omega and one Omega, made for the first state with
        # that cm and shared by every later one; the Gibbs matrix is built,
        # by one inv, once per cm
        gaussian._spectrum.cache_clear()
        spies = {name: mock.Mock(wraps=getattr(np.linalg, name))
                 for name in ("eig", "eigvals", "det", "inv")}
        for name, spy in spies.items():
            monkeypatch.setattr(np.linalg, name, spy)
        spies["symplectic_form"] = mock.Mock(wraps=symplectic_form)
        monkeypatch.setattr(gaussian, "symplectic_form", spies["symplectic_form"])

        def pair(nb, ns):
            r0, r1 = scenario_states(ThermalScenario(nb=nb, eta=1.0, ns=ns))
            rel_entropy(r0, r1)
            rel_entropy_variance(r0, r1)
            return r0, r1

        def calls(n):
            return {"eig": n, "eigvals": 0, "det": 0, "inv": n, "symplectic_form": n}

        r0, r1 = pair(10.0, 10.0)
        assert {name: spy.call_count for name, spy in spies.items()} == calls(1)
        pair(10.0, 3.0)     # a second scenario at the same nb costs nothing
        assert {name: spy.call_count for name, spy in spies.items()} == calls(1)
        pair(20.0, 10.0)    # a new nb costs one of each
        assert {name: spy.call_count for name, spy in spies.items()} == calls(2)
        g = gibbs_matrix(r0)
        assert g is gibbs_matrix(r1) and not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 0.0


class TestClosedForms:
    def test_zero_snr(self):
        stats = thermal_closed_forms(ThermalScenario(nb=600.0, eta=0.0, ns=5.0))
        assert stats.d == 0.0 and stats.v == 0.0 and stats.t is None

    def test_bright_values(self):
        stats = thermal_closed_forms(ThermalScenario(nb=600.0, eta=1.0, ns=600.0))
        assert stats.d == pytest.approx(D_600_G1, rel=1e-13)
        assert stats.v == pytest.approx(V_600_G1, rel=1e-13)

    def test_matches_general_formulas_on_grid(self):
        # consistency sweep across nb in [0.1, 1e16], gamma in [1e-9, 1e2]: D
        # once cancelled below -65 dB, and the Gibbs matrix lost its digits at large nb
        for nb in (0.1, 1.0, 10.0, 600.0, 1e4, 1e12, 1e16):
            for gamma in (1e-9, 1e-3, 0.1, 1.0, 10.0, 100.0):
                s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
                r0, r1 = scenario_states(s)
                stats = thermal_closed_forms(s)
                assert rel_entropy(r0, r1) == pytest.approx(stats.d, rel=1e-9)
                assert rel_entropy_variance(r0, r1) == pytest.approx(stats.v, rel=1e-9)

    def test_memo_keeps_the_bits(self, monkeypatch):
        # on the grid above, D and V from states that share their cm's record
        # match, to the bit, those from states that each build their own
        grid = [ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
                for nb in (0.1, 1.0, 10.0, 600.0, 1e4, 1e12, 1e16)
                for gamma in (1e-9, 1e-3, 0.1, 1.0, 10.0, 100.0)]

        def bits(share):
            out = []
            for s in grid:
                r0, r1 = scenario_states(s)
                assert (r0._spec is r1._spec) is share
                out.append((rel_entropy(r0, r1).hex(), rel_entropy_variance(r0, r1).hex()))
            return out

        gaussian._spectrum.cache_clear()
        shared = bits(True)
        monkeypatch.setattr(gaussian, "_spectrum", gaussian._spectrum.__wrapped__)
        assert bits(False) == shared

    def test_large_nb_proximity(self):
        stats = thermal_closed_forms(ThermalScenario(nb=600.0, eta=1.0, ns=600.0))
        gamma = 1.0
        assert abs(stats.d - gamma) <= gamma / (2 * 600.0) * 1.01
        assert abs(stats.v - 2 * gamma) <= 2.02 * gamma / 600.0

    def test_v_finite_where_nb_squared_overflows(self):
        # nb (2nb + 1) = 2e320 overflows, and 2nb past 2^1024; V = 2 gamma near both
        stats = thermal_closed_forms(ThermalScenario(nb=1e160, eta=1.0, ns=1e150))
        assert stats.d == pytest.approx(1e-10, rel=1e-12)
        assert stats.v == pytest.approx(2e-10, rel=1e-12)
        stats = thermal_closed_forms(ThermalScenario(nb=1.5e308, eta=1.0, ns=1.5e307))
        assert stats.d == pytest.approx(0.1, rel=1e-12)
        assert stats.v == pytest.approx(0.2, rel=1e-12)

    def test_finite_where_snr_overflows(self):
        # gamma = ns/nb = 1e310 overflows, but D = ns lt and V = ns (2nb + 1) lt^2 do not
        stats = thermal_closed_forms(ThermalScenario(nb=1e-300, eta=1.0, ns=1e10))
        lt = math.log1p(1e300)
        assert stats.d == pytest.approx(1e10 * lt, rel=1e-15)
        assert stats.v == pytest.approx(1e10 * lt * lt, rel=1e-15)


class TestLargeNbExpansion:
    def test_within_a_tenth_percent_at_nb_600(self):
        # at large nb, (D, V) -> (gamma, 2 gamma)
        for gamma in (0.1, 1.0, 10.0):
            stats = thermal_closed_forms(ThermalScenario(nb=600.0, eta=1.0, ns=gamma * 600.0))
            d0, v0 = gamma, 2.0 * gamma
            assert abs(stats.d - d0) / d0 < 1e-3
            assert abs(stats.v - v0) / v0 < 1e-3
