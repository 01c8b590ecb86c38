"""Exception and warning types shared across the toolkit."""


class NcdbrError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(NcdbrError):
    pass


class NotPSD(NcdbrError):
    pass


class NotFinite(NcdbrError, ValueError):
    """An input holds a NaN or Inf entry."""


class NotContraction(NcdbrError, ValueError):
    """An operator or multiplier has norm above 1 beyond tolerance."""


class DimensionMismatch(NcdbrError):
    pass


class SingularSimilarity(NcdbrError):
    pass


class NotPartialIsometry(NcdbrError):
    pass


class NotPure(NcdbrError):
    pass


class NotCNC(NcdbrError):
    pass


class NotStrict(NcdbrError):
    pass


class TruncationTooShort(NcdbrError):
    """The truncated observability map O_N has rank below m."""


class OutsideBall(NcdbrError):
    """A point lies outside the open row ball."""


class SingularPencil(NcdbrError):
    pass


class ConstancyViolated(NcdbrError):
    pass


class UnknownVariable(NcdbrError):
    pass


class PolySyntaxError(NcdbrError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class NearBoundary(UserWarning):
    """Warns that a kernel solve is close to the row-ball boundary."""
