"""Exception types shared across the package."""


class WpfeqError(Exception):
    """Base class for every error raised by this package."""


class DegenerateLattice(WpfeqError):
    """The two period generators have a real ratio and span no lattice."""


class PoleProximity(WpfeqError):
    """Evaluation point is too close to a pole of the requested function."""

    def __init__(self, z, message=""):
        self.z = z
        super().__init__(message or f"argument {z!r} is too close to a pole")


class SeriesNoConverge(WpfeqError):
    """A series evaluation could not reach the requested tolerance."""


class FloatOverflow(WpfeqError):
    """An intermediate value left the double-precision range."""


class NoPeriods(WpfeqError):
    """Operation needs period generators but the context has invariants only."""


class JetOrderOverflow(WpfeqError):
    """A derivation would create a jet variable beyond the supported order."""


class TruncationTooLow(WpfeqError):
    """Requested series truncation order is too small for the check."""


class MissingJet(WpfeqError):
    """A polynomial refers to a jet value that was not supplied."""


class SamplerExhausted(WpfeqError):
    """Rejection sampling ran out of retry budget."""


class DegenerateProbe(WpfeqError):
    """Probe point makes the two function values coincide."""


class GridNotUniform(WpfeqError):
    """Finite differences need a uniform sample grid."""


class TooFewPoints(WpfeqError):
    """Not enough sample points for the requested operation."""


class IllConditionedFit(WpfeqError):
    """Normal equations are too ill conditioned even after equilibration."""


class DegenerateInput(WpfeqError):
    """Fit input is degenerate (for example, all samples share one value)."""


class DegenerateCubic(WpfeqError):
    """Leading cubic coefficient vanishes; no normal form exists."""
