"""Exception types shared across the package."""


class RotsurfError(Exception):
    """Base class for all package errors."""


class DomainError(RotsurfError):
    """State outside the phase domain z > |cos theta| (or z <= 0)."""


class SlopeZeroError(RotsurfError):
    """Formula singular because theta' = 0 at the requested state."""


class RangeError(RotsurfError):
    """Dense evaluation requested outside a trajectory's time span."""


class StepUnderflowError(RotsurfError):
    """Step control demanded a step below min_step away from the boundary."""


class StepLimitError(RotsurfError):
    """An integration took more accepted steps than the integrator allows."""


class SeedError(RotsurfError):
    """Series seed violates the constraint beyond tolerance."""


class NotOnAxisError(RotsurfError):
    """Trajectory has no point on the requested mirror line theta = n*pi."""


class InvalidLambdaError(RotsurfError):
    """Shooting height lambda <= 1, or above field.Z_MAX (NaN and inf included)."""


class BracketError(RotsurfError):
    """No sign change found while doubling the shooting bracket."""


class NotPeriodicError(RotsurfError):
    """Period requested for a height that does not classify as periodic."""


class NoSignChangeError(RotsurfError):
    """Bisection bracket precondition failed."""


class ExtensionSpecError(RotsurfError):
    """Mismatched copies/segment lengths in an extension request."""


class TooFewSamplesError(RotsurfError):
    """Profile too short to verify: under 5 points, or none outside the end collar."""


class DegenerateProfileError(RotsurfError):
    """Profile has z <= 0 somewhere and cannot be revolved."""
