"""Exception taxonomy shared across the package.

Two families matter to callers: ConfigError (bad user input, CLI exit
code 2) and NumericsError (a numerical-validity guard tripped, CLI exit
code 3).  Everything raised by the core modules that indicates a broken
numerical precondition derives from NumericsError.
"""


class NumericsError(Exception):
    """A numerical-validity guard failed (truncation, conditioning, ...)."""


class GridError(NumericsError):
    """Position grid does not conform (extent, uniformity, symmetry)."""


class TruncationError(NumericsError):
    """Fock-space truncation leaks more population than tolerated."""


class HermiticityError(NumericsError):
    """A density matrix is not Hermitian within tolerance."""


class StateError(NumericsError):
    """Density matrix violates trace or positivity tolerances."""


class ChannelConditionError(NumericsError):
    """|c_Q| too small for a stable inversion of the moment hierarchy."""


class DataError(NumericsError):
    """Sample data unusable (non-finite entries)."""


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""
