"""Exception types shared across the pipeline."""


class SuitcapError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveDepth(SuitcapError):
    """A 3D point is at or behind the camera plane."""


class CalibrationError(SuitcapError):
    """Calibration file is malformed or uses an unsupported camera model."""


class LayoutError(SuitcapError):
    """Suit layout data is inconsistent."""


class UnknownCode(LayoutError):
    """Two-letter code not present in the layout."""


class BadCornerIndex(LayoutError):
    """Corner position index outside 1..4."""


class UnknownCorner(LayoutError):
    """Corner ID not present in the layout."""


class AlphabetExhausted(LayoutError):
    """Requested more codes than the alphabet can produce."""


class SingularBlend(SuitcapError):
    """Blended skinning matrix is not invertible for this vertex/pose."""


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
