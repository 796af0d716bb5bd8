"""Gaussian bosonic states and relative-entropy quantities.

Conventions used throughout the library: quadrature ordering
(q1, p1, ..., qN, pN), vacuum covariance matrix I/2, and coherent-state mean
sqrt(2)*(Re alpha, Im alpha).  Two other normalizations circulate in the
literature (vacuum = I and vacuum = 2I); everything here assumes I/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, SingularGibbs

# Tolerances for construction-time and identity checks.
SYMMETRY_RTOL = 1e-12
BONA_FIDE_TOL = 1e-12
PURE_MODE_EPS = 1e-9       # minimum distance of symplectic eigenvalues from 1/2
RESIDUE_TOL = 1e-10        # max allowed imaginary leakage in assembled matrices
CLAMP_TOL = 1e-10          # negative round-off clamped to zero below this
_SPECTRUM_MEMO = 128       # distinct covariance matrices whose _Spectrum is kept


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * modes, 2 * modes))
    for i in range(modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


class _Spectrum:
    """What a covariance matrix V alone fixes, shared by every state with it.

    Omega, the eigendecomposition (vals, vecs) of 2i*V*Omega (eigenvalues
    +/-2 nu), the least symplectic eigenvalue nu_min and
    ln_det = ln det(V + i*Omega/2) = sum ln(|1 + lambda|/2) over the
    spectrum, the arrays read-only; the Gibbs matrix (gibbs_matrix) is built
    on first use and kept, and a failed build keeps nothing.
    """

    __slots__ = ("omega", "vals", "vecs", "nu_min", "ln_det", "gibbs")

    def __init__(self, cm: np.ndarray):
        self.omega = symplectic_form(len(cm) // 2)
        self.vals, self.vecs = np.linalg.eig(2j * cm @ self.omega)
        for arr in (self.omega, self.vals, self.vecs):
            arr.flags.writeable = False
        self.nu_min = 0.5 * float(np.abs(self.vals).min())
        with np.errstate(divide="ignore"):     # -inf on a pure mode, which gibbs_matrix refuses
            self.ln_det = float(np.log(np.abs(1.0 + self.vals) / 2.0).sum())
        self.gibbs = None


@functools.lru_cache(maxsize=_SPECTRUM_MEMO)
def _spectrum(cm_bytes: bytes, n: int) -> _Spectrum:
    """The one _Spectrum of the n x n float matrix whose C-order bytes are
    cm_bytes: states with equal covariance matrices share it."""
    return _Spectrum(np.frombuffer(cm_bytes).reshape(n, n))


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of an N-mode Gaussian state.

    ``mean`` has length 2N ordered (q1, p1, ..., qN, pN); ``cm`` is the real
    symmetric 2N x 2N covariance matrix with vacuum normalization I/2.
    Construction validates the shapes, finiteness (of 2 cm too), symmetry and
    the bona-fide condition (all symplectic eigenvalues nu >= 1/2 up to
    round-off), reading nu off the eigendecomposition of 2i*V*Omega
    (eigenvalues +/-2 nu) that gibbs_matrix and rel_entropy reuse.  That
    decomposition, Omega, the Gibbs matrix and the log det are fixed by cm
    alone, so they live in one record per distinct cm (a memo of the last
    _SPECTRUM_MEMO, keyed on cm's bytes) that every state with that cm
    shares; each state still runs every check.  Instances hold read-only
    mean and cm, and the record's arrays are read-only, so are safe to share
    between threads: two threads that race to the first gibbs_matrix only
    build the same matrix twice.
    """

    mean: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cm = np.array(self.cm, dtype=float)
        mean.flags.writeable = cm.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cm", cm)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        n = len(mean)
        if n == 0 or n % 2:
            raise ValueError(f"mean must have a positive even length, got {n}")
        if cm.shape != (n, n):
            raise ValueError(f"cm must be {n}x{n}, got {cm.shape}")
        scale = max(float(np.abs(cm).max()), 1.0)   # nan or inf where cm is not finite
        if not (np.isfinite(mean).all() and math.isfinite(2.0 * scale)):
            raise ValueError("mean and cm must be finite, and 2 cm within the float range")
        if np.abs(cm - cm.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("cm is not symmetric within tolerance")
        spec = _spectrum(cm.tobytes(), n)
        if spec.nu_min < 0.5 - BONA_FIDE_TOL:
            raise ValueError(
                f"cm violates the bona-fide condition: min symplectic eigenvalue {spec.nu_min}"
            )
        object.__setattr__(self, "_spec", spec)

    @property
    def modes(self) -> int:
        """Mode count N, half the length of the mean."""
        return len(self.mean) // 2


@dataclass(frozen=True)
class ThermalScenario:
    """Physical parameters of the single-mode target-detection problem.

    nb: mean thermal photons of the background (> 0, with nb and 1/nb finite).
    eta: transmissivity of the target return, in [0, 1].
    ns: mean signal photons of the probe (finite, >= 0).
    """

    nb: float
    eta: float
    ns: float

    def __post_init__(self):
        if not (0.0 < self.nb < math.inf and 1.0 / self.nb < math.inf):
            raise ValueError("nb must be > 0 with nb and 1/nb finite (nb = 0 is singular)")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError("eta must lie in [0, 1]")
        if not (0.0 <= self.ns < math.inf):
            raise ValueError("ns must be finite and >= 0")

    @property
    def snr(self) -> float:
        """Signal-to-noise ratio eta*ns/nb."""
        return self.eta * self.ns / self.nb


@dataclass(frozen=True)
class RelEntStats:
    """Relative-entropy moments of a state pair.

    d: relative entropy (nats); v: relative entropy variance (nats^2);
    t: third absolute central moment of the log-likelihood ratio (nats^3),
    absent until computed by the displaced-Fock machinery.  Each must be finite, >= 0,
    and is stored as a Python float, so numpy scalars go no further.
    """

    d: float
    v: float
    t: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.d < math.inf and 0.0 <= self.v < math.inf):
            raise ValueError("d and v must be finite and >= 0")
        if not (self.t is None or 0.0 <= self.t < math.inf):
            raise ValueError("t must be None or finite and >= 0")
        if not (type(self.d) is type(self.v) is float and type(self.t) in (float, type(None))):
            for name in ("d", "v", "t"):
                if (value := getattr(self, name)) is not None:
                    object.__setattr__(self, name, float(value))

    def with_t(self, t: float) -> "RelEntStats":
        return RelEntStats(d=self.d, v=self.v, t=t)


def scenario_states(s: ThermalScenario) -> tuple[GaussianState, GaussianState]:
    """Output states of the two detection hypotheses.

    Target absent: thermal state, zero mean, CM (nb + 1/2) I.
    Target present: the same thermal state displaced to mean
    (sqrt(2*eta*ns), 0); the covariance matrix is unchanged.
    """
    cm = (s.nb + 0.5) * np.eye(2)
    rho0 = GaussianState(mean=np.zeros(2), cm=cm)
    rho1 = GaussianState(mean=np.array([math.sqrt(2.0 * s.eta * s.ns), 0.0]), cm=cm)
    return rho0, rho1


def gibbs_matrix(state: GaussianState) -> np.ndarray:
    """Gibbs matrix G = 2i*Omega*arccoth(2i*V*Omega) of a mixed Gaussian state.

    Evaluated from the state's eigendecomposition of 2i*V*Omega, mapping its
    real spectrum lambda = +/-2 nu by the odd arccoth(lambda) = sign(lambda)
    log1p(2/(|lambda| - 1))/2, which keeps the digits a ratio (lambda + 1)/
    (lambda - 1) rounds off at large nu.  Each +/- pair takes one common
    |lambda|, the mean of the two: eig returns them a few ulps apart, and
    near nu = 1/2 arccoth's slope 1/(lambda^2 - 1) turns that into an
    imaginary residue past RESIDUE_TOL (at nb ~ 1e-6, about one state in
    fifteen would refuse).  The reassembled matrix must be real
    (imaginary residue below RESIDUE_TOL in max-norm) and is symmetrized.

    Raises SingularGibbs when any symplectic eigenvalue nu (the spectrum of
    2i*V*Omega is +/-2 nu) comes within PURE_MODE_EPS of 1/2: arccoth diverges
    on pure modes and a loud failure beats returning huge finite garbage.

    The matrix is built once per distinct covariance matrix and kept,
    read-only, on the record that every state with that cm shares, so
    rel_entropy and rel_entropy_variance, and both states of a pair with
    equal covariances, share one build; a failure keeps nothing, so every
    call on any state with that cm raises again.
    """
    spec = state._spec
    if spec.gibbs is not None:
        return spec.gibbs
    vals, vecs = spec.vals, spec.vecs
    if spec.nu_min <= 0.5 + PURE_MODE_EPS:
        raise SingularGibbs(
            f"symplectic eigenvalue {spec.nu_min:.3g} within {PURE_MODE_EPS} of 1/2"
        )
    lam = vals.real.tolist()                   # a few values: Python floats beat numpy calls
    order = sorted(range(len(lam)), key=lam.__getitem__)   # -2nu by falling nu, then +2nu by rising
    half = len(lam) // 2
    acoth = [0.0] * len(lam)
    for i, j in zip(order[half - 1 :: -1], order[half:]):   # each -/+ pair at its mean |lambda|
        acoth[j] = f = 0.5 * math.log1p(2.0 / (0.5 * lam[j] - 0.5 * lam[i] - 1.0))
        acoth[i] = -f
    g = 2j * spec.omega @ (vecs * acoth) @ np.linalg.inv(vecs)
    residue = np.abs(g.imag).max()
    if residue >= RESIDUE_TOL:
        raise ConsistencyError(f"Gibbs matrix imaginary residue {residue:.3g}")
    g = g.real
    g = 0.5 * (g + g.T)
    g.flags.writeable = False
    spec.gibbs = g
    return g


def _gibbs_pair(rho0: GaussianState, rho1: GaussianState):
    """G0, G1 and the mean difference rho0 - rho1 of a same-size state pair."""
    if rho0.modes != rho1.modes:
        raise ValueError(f"{rho0.modes}-mode state paired with {rho1.modes}-mode state")
    return gibbs_matrix(rho0), gibbs_matrix(rho1), rho0.mean - rho1.mean


def _clamp_nonneg(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} is beyond the float range")
    if value < -CLAMP_TOL:
        raise ConsistencyError(f"{what} = {value} is negative beyond round-off")
    return max(value, 0.0)


def rel_entropy(rho0: GaussianState, rho1: GaussianState) -> float:
    """Quantum relative entropy D(rho0 || rho1) of two Gaussian states, nats.

    D = [ln det(V1 + i*Omega/2) - ln det(V0 + i*Omega/2) + Tr(V0 (G1 - G0))
    + delta^T G1 delta] / 2, delta = mean0 - mean1, ln det(V + i*Omega/2) =
    sum ln(|1 + lambda|/2) over the spectrum lambda of 2i*V*Omega.  For equal
    covariances the first three terms are exactly 0: no difference of terms
    the size of ln det cancels at low SNR.  Below 0 by CLAMP_TOL clamps to 0,
    more raises ConsistencyError; ValueError where D (or V) leaves the float range.
    """
    g0, g1, delta = _gibbs_pair(rho0, rho1)
    ln_det0, ln_det1 = rho0._spec.ln_det, rho1._spec.ln_det
    with np.errstate(over="ignore", invalid="ignore"):
        d = 0.5 * (ln_det1 - ln_det0 + float(np.trace(rho0.cm @ (g1 - g0)))
                   + float(delta @ g1 @ delta))
    return _clamp_nonneg(d, "relative entropy")


def rel_entropy_variance(rho0: GaussianState, rho1: GaussianState) -> float:
    """Relative entropy variance V(rho0 || rho1) of two Gaussian states."""
    g0, g1, delta = _gibbs_pair(rho0, rho1)
    gamma = g0 - g1
    with np.errstate(over="ignore", invalid="ignore"):
        gv, go = gamma @ rho0.cm, gamma @ rho0._spec.omega
        v = (
            0.5 * float(np.trace(gv @ gv))
            + 0.125 * float(np.trace(go @ go))
            + float(delta @ g1 @ rho0.cm @ g1 @ delta)
        )
    return _clamp_nonneg(v, "relative entropy variance")


def thermal_closed_forms(s: ThermalScenario) -> RelEntStats:
    """Closed-form D and V for the thermal detection scenario.

    D = x*ln(1 + 1/nb), V = x*(2nb+1)*ln^2(1 + 1/nb) with x = eta*ns the
    received signal photons (gamma*nb, gamma the SNR).  Neither forms gamma,
    which overflows at tiny nb, nor nb*(2nb+1) or 2nb, which overflow before
    the logs scale them down (2((nb + 1/2) lt) is (2nb + 1) lt to the bit).
    The third moment is left unset; see displaced.third_moment.
    """
    x = s.eta * s.ns
    lt = math.log1p(1.0 / s.nb)
    return RelEntStats(d=x * lt, v=(x * lt) * (2.0 * ((s.nb + 0.5) * lt)))

