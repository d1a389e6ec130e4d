"""Exception types shared across the toolkit."""


class SobexError(Exception):
    """Base class for all toolkit errors."""


class InvalidDomain(SobexError):
    """Domain is empty or otherwise has no usable boundary."""


class ResolutionTooCoarse(SobexError):
    """Grid spacing too large for the requested geometry (features vanish)."""


class ConstructionError(SobexError):
    """An exact geometric construction could not satisfy its constraints."""

    def __init__(self, msg, level=None, cube=None):
        super().__init__(msg)
        self.level = level
        self.cube = cube


class PreconditionNotMet(SobexError):
    """Hypotheses of a checker are violated by the inputs."""


class UnsupportedExponent(SobexError):
    """Exponent p outside the admissible range for the operation."""


class Unreachable(SobexError):
    """Endpoints lie in different connected components of the search region."""
