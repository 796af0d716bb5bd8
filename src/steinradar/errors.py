"""Exception types shared across the library."""


class SteinRadarError(Exception):
    """Base class for library-specific failures."""


class SingularGibbs(SteinRadarError):
    """A symplectic eigenvalue is too close to 1/2 (pure mode), where the
    Gibbs matrix diverges."""


class ConsistencyError(SteinRadarError):
    """An internal identity failed beyond numerical tolerance.

    Raised when a quantity real, symmetric, nonnegative or (a captured mass)
    in range by construction comes out otherwise by more than round-off
    allows; indicates a bug or an ill-conditioned input, not round-off."""


class CapExceeded(SteinRadarError):
    """Truncation requirements exceed the configured hard index cap."""


class DegenerateVariance(SteinRadarError):
    """Berry-Esseen style thresholds are undefined at zero variance."""
