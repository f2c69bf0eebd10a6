"""Exception types shared across the toolkit."""


class LevikitError(Exception):
    """Base class for all toolkit errors."""


class ExprSyntaxError(LevikitError):
    """Raised on malformed expression text; carries position and expected tokens."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class EvalDomainError(LevikitError):
    """Evaluation hit ln of a non-positive value or a zero divisor."""

    def __init__(self, message, subexpression=None, point=None):
        self.subexpression = subexpression
        self.point = point
        if subexpression is not None:
            message += f" in subexpression {subexpression}"
        if point is not None:
            message += f" at point {point}"
        super().__init__(message)


class DegenerateGradient(LevikitError):
    """Gradient too small to define a tangent space at the requested point."""


class NonHermitianLeviMatrix(LevikitError):
    """Mixed-derivative matrix failed the Hermitian symmetry check; the
    function is probably not real-valued."""


class PointOutsideDomain(LevikitError):
    """A distance or exhaustion query was made for a point outside the domain."""


class SamplingExhausted(LevikitError):
    """Rejection sampling accepted too few points to run the requested test."""

    def __init__(self, message, acceptance_rate=0.0):
        self.acceptance_rate = acceptance_rate
        super().__init__(f"{message} (acceptance rate {acceptance_rate:.3g})")


class FamilyLeavesDomain(LevikitError):
    """A probed disc family has a member not contained in the domain."""


class UnsupportedMetric(LevikitError):
    """The requested metric is not available for this domain variant."""


class ConfigError(LevikitError):
    """Invalid run configuration; message carries the offending field path."""
