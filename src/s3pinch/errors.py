"""Exception hierarchy shared across the toolkit."""


class S3PinchError(Exception):
    """Base class for all toolkit errors."""


class DomainError(S3PinchError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalFailure(S3PinchError):
    """A computation on valid input failed numerically (the CLI's exit 4)."""


class DegenerateMetric(NumericalFailure):
    """First fundamental form is (numerically) singular: E*G - F^2 too small."""


class BracketFailure(NumericalFailure):
    """Monotone root solve could not bracket the target value."""


class GenusDetectionFailure(NumericalFailure):
    """Integrated curvature is too far from an even multiple of 2*pi."""


class NotMinimal(S3PinchError):
    """Operation requires a minimal surface (H == 0)."""


class NoSpectralData(S3PinchError):
    """Surface has no closed-form first Laplace eigenvalue."""


class FormatError(S3PinchError):
    """Malformed surface grid file."""


class OffSampleGrid(S3PinchError, ValueError):
    """Imported surface evaluated away from its sample nodes."""


class OffSphere(FormatError):
    """Grid file contains a sample that is not a unit 4-vector."""


class ResolutionTooCoarse(FormatError):
    """Grid file resolution below the import floor."""
