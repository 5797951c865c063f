"""Exception types shared across the package."""


class TsenseError(Exception):
    """Base class for all package-specific failures."""


class ConfigurationError(TsenseError):
    """Invalid probe, state, or option combination."""


class NumericError(TsenseError):
    """A computation failed numerically: it did not converge, or its
    results are not finite."""


class ResourceError(TsenseError):
    """A computation would exceed a hard resource cap."""


class UndefinedBoundError(TsenseError):
    """A statistical bound is undefined for the given inputs."""
