"""Exception types shared across the toolkit: one class per exit code.

Everything raised on purpose derives from :class:`OtkdError`, and each class
carries the exit code that `otkd` returns for it:

  InvalidInput        1  a malformed, non-finite or out-of-range value
  DegenerateGeometry  2  correspondences or depths admit no pose
  TrainingDiverged    3  training went non-finite or failed to learn

Conditions that are *states* rather than failures (a Sinkhorn solve hitting
its iteration cap, Gauss-Newton stopping early) are reported as flags on
result objects, not exceptions.
"""


class OtkdError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidInput(OtkdError, ValueError):
    """An argument, file or configuration value the toolkit cannot use."""


class DegenerateGeometry(OtkdError):
    """Too few, rank-deficient, behind-camera or overflowing points for a pose."""

    exit_code = 2


class TrainingDiverged(OtkdError):
    """Training went non-finite, failed to improve its loss, or left a
    teacher outside its held-out error threshold."""

    exit_code = 3
