"""Exception types shared across the package."""


class LatticeWaveError(Exception):
    """Base class for all package errors."""


class DomainError(LatticeWaveError, ValueError):
    """A precondition on operation inputs was violated."""


class SizeLimitError(DomainError):
    """A requested array exceeds grid.MAX_CELLS; raised before allocating it."""


class MeasurementError(LatticeWaveError):
    """A numerical measurement is unreliable for the given input (e.g. flat envelope)."""


class SingularSystemError(LatticeWaveError):
    """A linear system arising from the given parameters is singular."""


class InternalInvariantError(LatticeWaveError, RuntimeError):
    """An internal algorithmic invariant failed; indicates a bug, never silent."""


class ConfigError(LatticeWaveError, ValueError):
    """A run configuration is malformed or contains unknown keys."""
