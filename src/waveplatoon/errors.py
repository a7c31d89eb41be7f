"""Exception types shared across the package."""


class WavePlatoonError(Exception):
    """Base class for all package-specific errors."""


class ZeroNumerator(WavePlatoonError):
    """Inversion of a transfer function whose numerator is identically zero."""


class DegenerateDenominator(WavePlatoonError):
    """A denominator polynomial collapsed to zero."""


class PoleAtProbe(WavePlatoonError):
    """Evaluation was requested at (or numerically on top of) a pole."""


class ImproperTF(WavePlatoonError):
    """Operation requires a (strictly) proper transfer function."""


class UnstablePoles(WavePlatoonError):
    """Poles found outside the allowed stability region."""


class ExtrapolationError(WavePlatoonError):
    """Origin-limit extrapolants disagree beyond the configured tolerance."""


class DegreeOverflow(WavePlatoonError):
    """Rational approximant degree exceeded the configured safety cap."""


class InvalidConfig(WavePlatoonError):
    """Configuration values violate a documented precondition."""


class NonFiniteState(WavePlatoonError):
    """Simulation state left the finite range (divergence guard)."""


class IndexOutOfRange(WavePlatoonError):
    """Vehicle or sample index outside the stored range."""


class EmptyTrace(WavePlatoonError):
    """A metric was requested on a trace with no samples."""
