"""Gaussian bosonic states and relative-entropy quantities.

Conventions used throughout the library: quadrature ordering
(q1, p1, ..., qN, pN), vacuum covariance matrix I/2, and coherent-state mean
sqrt(2)*(Re alpha, Im alpha).  Two other normalizations circulate in the
literature (vacuum = I and vacuum = 2I); everything here assumes I/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ModeMismatch, SingularGibbs

# Tolerances for construction-time and identity checks.
SYMMETRY_RTOL = 1e-12
BONA_FIDE_TOL = 1e-12
PURE_MODE_EPS = 1e-9       # minimum distance of symplectic eigenvalues from 1/2
RESIDUE_TOL = 1e-10        # max allowed imaginary leakage in assembled matrices
CLAMP_TOL = 1e-10          # negative round-off clamped to zero below this


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * modes, 2 * modes))
    for i in range(modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    Computed as the positive absolute eigenvalues of i*Omega*V; they come in
    +/- pairs, so every other sorted magnitude is kept.  This avoids a full
    Williamson decomposition, which is never needed here.
    """
    modes = cm.shape[0] // 2
    omega = symplectic_form(modes)
    vals = np.linalg.eigvals(1j * omega @ cm)
    return np.sort(np.abs(vals))[::2]


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of an N-mode Gaussian state.

    ``mean`` has length 2N ordered (q1, p1, ..., qN, pN); ``cm`` is the real
    symmetric 2N x 2N covariance matrix with vacuum normalization I/2.
    Construction validates symmetry, the length of the mean, and the
    bona-fide condition (all symplectic eigenvalues >= 1/2 up to round-off).
    Instances are immutable and safe to share between threads.
    """

    mean: np.ndarray
    cm: np.ndarray
    modes: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cm = np.asarray(self.cm, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cm", cm)
        if self.modes < 1:
            raise ValueError("modes must be a positive integer")
        n = 2 * self.modes
        if mean.shape != (n,):
            raise ValueError(f"mean must have length {n}, got {mean.shape}")
        if cm.shape != (n, n):
            raise ValueError(f"cm must be {n}x{n}, got {cm.shape}")
        scale = max(np.abs(cm).max(), 1.0)
        if np.abs(cm - cm.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("cm is not symmetric within tolerance")
        nu = symplectic_eigenvalues(cm)
        if nu[0] < 0.5 - BONA_FIDE_TOL:
            raise ValueError(
                f"cm violates the bona-fide condition: min symplectic eigenvalue {nu[0]}"
            )

    @property
    def omega(self) -> np.ndarray:
        """Symplectic form matching this state's mode count."""
        return symplectic_form(self.modes)


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
    absent until computed by the displaced-Fock machinery.
    """

    d: float
    v: float
    t: float | None = None

    def with_t(self, t: float) -> "RelEntStats":
        return RelEntStats(d=self.d, v=self.v, t=t)


def scenario_states(s: ThermalScenario) -> tuple[GaussianState, GaussianState]:
    """Output states of the two detection hypotheses.

    Target absent: thermal state, zero mean, CM (nb + 1/2) I.
    Target present: the same thermal state displaced to mean
    (sqrt(2*eta*ns), 0); the covariance matrix is unchanged.
    """
    cm = (s.nb + 0.5) * np.eye(2)
    rho0 = GaussianState(mean=np.zeros(2), cm=cm, modes=1)
    rho1 = GaussianState(mean=np.array([math.sqrt(2.0 * s.eta * s.ns), 0.0]), cm=cm, modes=1)
    return rho0, rho1


def gibbs_matrix(state: GaussianState) -> np.ndarray:
    """Gibbs matrix G = 2i*Omega*arccoth(2i*V*Omega) of a mixed Gaussian state.

    Evaluated by complex eigendecomposition of 2i*V*Omega with the scalar
    principal-branch map arccoth(z) = ln((z+1)/(z-1))/2 applied to the
    spectrum.  The reassembled matrix must be real (imaginary residue below
    RESIDUE_TOL in max-norm) and is symmetrized before return.

    Raises SingularGibbs when any symplectic eigenvalue nu (the spectrum of
    2i*V*Omega is +/-2 nu) comes within PURE_MODE_EPS of 1/2: arccoth diverges
    on pure modes and a loud failure beats returning huge finite garbage.
    """
    omega = state.omega
    arg = 2j * state.cm @ omega
    vals, vecs = np.linalg.eig(arg)
    nu_min = 0.5 * np.abs(vals).min()
    if nu_min <= 0.5 + PURE_MODE_EPS:
        raise SingularGibbs(
            f"symplectic eigenvalue {nu_min:.3g} within {PURE_MODE_EPS} of 1/2"
        )
    acoth = 0.5 * np.log((vals + 1.0) / (vals - 1.0))
    g = 2j * omega @ (vecs * acoth) @ np.linalg.inv(vecs)
    residue = np.abs(g.imag).max()
    if residue >= RESIDUE_TOL:
        raise ConsistencyError(f"Gibbs matrix imaginary residue {residue:.3g}")
    g = g.real
    return 0.5 * (g + g.T)


def sigma_fn(v0: GaussianState, v1: GaussianState) -> float:
    """The two-state functional combining ln det(V1 + i*Omega/2), Tr(V0 G1)
    and the mean-difference quadratic form, halved.

    Relative entropy is a difference of two of these; see rel_entropy.
    """
    if v0.modes != v1.modes:
        raise ModeMismatch(f"{v0.modes}-mode state paired with {v1.modes}-mode state")
    g1 = gibbs_matrix(v1)
    det = np.linalg.det(v1.cm + 0.5j * v1.omega)
    if abs(det.imag) >= RESIDUE_TOL * max(abs(det.real), 1e-300):
        raise ConsistencyError(f"det(V + i Omega/2) not real: {det}")
    delta = v0.mean - v1.mean
    return 0.5 * (
        math.log(det.real) + float(np.trace(v0.cm @ g1)) + float(delta @ g1 @ delta)
    )


def _clamp_nonneg(value: float, what: str) -> float:
    if value >= 0.0:
        return value
    if value >= -CLAMP_TOL:
        return 0.0
    raise ConsistencyError(f"{what} = {value} is negative beyond round-off")


def rel_entropy(rho0: GaussianState, rho1: GaussianState) -> float:
    """Quantum relative entropy D(rho0 || rho1) of two Gaussian states, nats.

    Nonnegative; values within CLAMP_TOL below zero are round-off and clamp
    to 0, anything more negative raises ConsistencyError.
    """
    d = sigma_fn(rho0, rho1) - sigma_fn(rho0, rho0)
    return _clamp_nonneg(d, "relative entropy")


def rel_entropy_variance(rho0: GaussianState, rho1: GaussianState) -> float:
    """Relative entropy variance V(rho0 || rho1) of two Gaussian states."""
    if rho0.modes != rho1.modes:
        raise ModeMismatch(f"{rho0.modes}-mode state paired with {rho1.modes}-mode state")
    g0 = gibbs_matrix(rho0)
    g1 = gibbs_matrix(rho1)
    gamma = g0 - g1
    omega = rho0.omega
    delta = rho0.mean - rho1.mean
    gv = gamma @ rho0.cm
    go = gamma @ omega
    v = (
        0.5 * float(np.trace(gv @ gv))
        + 0.125 * float(np.trace(go @ go))
        + float(delta @ g1 @ rho0.cm @ g1 @ delta)
    )
    return _clamp_nonneg(v, "relative entropy variance")


def thermal_closed_forms(s: ThermalScenario) -> RelEntStats:
    """Closed-form D and V for the thermal detection scenario.

    D = gamma*nb*ln(1 + 1/nb), V = gamma*nb*(2nb+1)*ln^2(1 + 1/nb) with
    gamma the SNR.  The third moment is left unset; see displaced.third_moment.
    """
    gamma = s.snr
    lt = math.log1p(1.0 / s.nb)
    return RelEntStats(
        d=gamma * s.nb * lt,
        v=gamma * s.nb * (2.0 * s.nb + 1.0) * lt * lt,
    )

