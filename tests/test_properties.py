"""Hypothesis properties: the Skellam law against the closed forms, the
Lyapunov bound on T, the heterodyne exponent's monotonicity in SNR, and the
CLI exit-code contract on arbitrary input."""

import contextlib
import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinradar import (
    ThermalScenario,
    TruncationPolicy,
    heterodyne_log_pmd,
    thermal_closed_forms,
    third_moment,
)
from steinradar.displaced import _skellam_masses
from steinradar.scan import PER_COPY, TOTAL, main

# Skellam windows stay far inside K_MAX_CAP here, so an example costs ms.
nbs = st.floats(1e-2, 1e3)
gammas = st.floats(1e-3, 10.0)


@settings(max_examples=40, deadline=None)
@given(nb=nbs, gamma=gammas)
def test_skellam_mean_and_variance_reproduce_d_and_v(nb, gamma):
    # the log-likelihood ratio is -d ln(1 + 1/nb)
    s = ThermalScenario(nb=nb, eta=1.0, ns=gamma * nb)
    d, mass = _skellam_masses(nb, s.ns, TruncationPolicy())
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


# Above gamma ~ 6e8 at p_fa = 1e-3 (3e8 at 1e-6) the heterodyne series runs
# past its first block.
snrs = st.floats(0.0, 1e9) | st.floats(5e8, 1e9)


@settings(max_examples=60, deadline=None)
@given(g1=snrs, g2=snrs, p_fa=st.sampled_from([1e-6, 1e-3]) | st.floats(1e-6, 0.5))
def test_heterodyne_log_pmd_decreases_in_snr(g1, g2, p_fa):
    lo, hi = sorted((g1, g2))
    # a gap that moves ln p_MD by >= ~1e-11, far past its rounding (~1e-14
    # absolute where p_MD is near 1, ~1e-16 relative elsewhere)
    assume(hi - lo > 1e-6 * (1.0 + hi))
    assert heterodyne_log_pmd(lo, p_fa) > heterodyne_log_pmd(hi, p_fa)


def _floats_or_specials(lo, hi):
    return st.floats(lo, hi) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


# SNR draws span -100..3100 dB: a row costs at most about a second (the
# heterodyne series near its 10^7-term cap), and past the float range the
# config rejects the grid at once.  The worker count is pinned to 1, never
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
