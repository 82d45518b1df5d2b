"""Exception types shared across the pipeline."""


class SuitcapError(Exception):
    """Base class for all errors raised by this package."""


class CalibrationError(SuitcapError):
    """Calibration file is malformed or uses an unsupported camera model."""


class LayoutError(SuitcapError):
    """Suit layout data is inconsistent."""


class AlphabetExhausted(LayoutError):
    """Requested more codes than the alphabet can produce."""


class InsufficientSeeds(SuitcapError):
    """Template registration needs at least 10 seed correspondences."""


class NotConverged(SuitcapError):
    """An iterative solver reached its iteration cap before its stopping test."""


class DivergedICP(SuitcapError):
    """Registration residual grew for several consecutive iterations."""


class SingularKKT(SuitcapError):
    """The constrained solve is rank-deficient beyond the documented fallback."""


class ConfigError(SuitcapError):
    """Pipeline configuration is invalid."""
