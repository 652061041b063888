"""Exception types shared across the package."""


class CascadeError(Exception):
    """Base class for package-specific errors."""


class NegativeProbability(CascadeError):
    """A probability mass entry is negative or NaN."""


class MassNotOne(CascadeError):
    """Probability masses do not sum to one within tolerance."""


class EmptySupport(CascadeError):
    """A distribution has no positive mass anywhere."""


class ZeroMean(CascadeError):
    """An operation requires a distribution with strictly positive mean."""


class UnsortedInput(CascadeError):
    """A sequence that must be non-decreasing is not."""


class InvalidOutcome(CascadeError):
    """A clique outcome record is malformed."""


class EnumerationTooLarge(CascadeError):
    """An exact enumeration would exceed the configured size budget."""


class AssumptionViolated(CascadeError):
    """Model violates the structural assumptions of the contagion analysis."""


class CensusOverflow(CascadeError):
    """A census count of the simulation engine would exceed the int64 range."""


class ConfigInvalid(CascadeError):
    """A run configuration is malformed or out of range."""


class NoConvergence(CascadeError):
    """An iterative solver exhausted its budget.

    ``last`` carries the final iterate of a fixed-point search, ``bracket``
    the best (lower, upper) enclosure a spectral solver achieved.
    """

    def __init__(self, message, *, last=None, bracket=None):
        super().__init__(message)
        self.last = last
        self.bracket = bracket
