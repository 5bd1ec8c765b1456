"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`OtkdError` so callers can
catch toolkit failures without fishing for individual classes.  Conditions
that are *states* rather than failures (a Sinkhorn solve hitting its iteration
cap, Gauss-Newton stopping early) are reported as flags on result objects, not
exceptions.
"""


class OtkdError(Exception):
    """Base class for all toolkit errors."""


class PointBehindCamera(OtkdError):
    """Projection or reprojection saw a point with non-positive depth."""


class ZeroGroundTruthTranslation(OtkdError):
    """Normalized pose error requested but the reference translation is zero."""


class EmptySet(OtkdError, ValueError):
    """A keypoint set that must be non-empty was empty."""


class NegativeWeight(OtkdError, ValueError):
    """Marginal weights must be nonnegative."""


class DimensionMismatch(OtkdError, ValueError):
    """Array arguments disagree on a shared dimension."""


class EmptyEnsemble(OtkdError, ValueError):
    """An ensemble operation needs at least one member."""


class NonpositiveScale(OtkdError, ValueError):
    """The variance-to-uncertainty scale must be > 0."""


class OutOfRange(OtkdError, ValueError):
    """A value violated a documented [0, 1] (or similar) range."""


class ZeroCount(OtkdError, ValueError):
    """A count that must be >= 1 was zero."""


class EmptyHead(OtkdError, ValueError):
    """Receptive-field computation over an empty layer list."""


class CenterOutsideMap(OtkdError, ValueError):
    """A region center fell outside the feature map bounds."""


class ShapeMismatch(OtkdError, ValueError):
    """Feature regions / projection matrices with incompatible shapes."""


class DegenerateConfiguration(OtkdError):
    """2D-3D correspondences insufficient or rank-deficient for pose solving."""


class TrainingDiverged(OtkdError):
    """A training loss became non-finite."""


class ConfigError(OtkdError, ValueError):
    """Invalid or unknown configuration key/value."""
