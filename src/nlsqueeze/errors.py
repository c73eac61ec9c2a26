"""Exception taxonomy shared across the package.

Two families matter to callers: ConfigError (bad user input, CLI exit
code 2) and NumericsError (a numerical-validity guard tripped, CLI exit
code 3).  Everything raised by the core modules that indicates a broken
numerical precondition derives from NumericsError.  A state is a factor,
Hermitian by construction, so StateError covers its factor and weights.
"""


class NumericsError(Exception):
    """A numerical-validity guard failed (truncation, conditioning, ...)."""


class GridError(NumericsError):
    """Position grid does not conform (extent, uniformity, symmetry)."""


class TruncationError(NumericsError):
    """Fock-space truncation leaks more population than tolerated."""


class StateError(NumericsError):
    """A state's factor or weights fail the finite, trace or positivity check."""


class ChannelConditionError(NumericsError):
    """|c_Q| too small for a stable inversion of the moment hierarchy."""


class DataError(NumericsError):
    """Sample data unusable (non-finite entries)."""


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""
