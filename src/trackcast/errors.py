"""Exception hierarchy shared across the toolkit.

Every error the library raises on bad input or failed computation derives
from TrackcastError, so callers (notably the CLI) can map the whole family
to a single failure path.
"""


class TrackcastError(Exception):
    """Base class for all trackcast errors."""


class ParseError(TrackcastError):
    """A stream or spec file could not be decoded; names the line."""


class ValidationError(TrackcastError):
    """A decoded value violates a type invariant; names the field."""


class OrderingError(TrackcastError):
    """Observations are not strictly increasing in t, or a t is NaN or infinite."""


class FitError(TrackcastError):
    """Base class for failures while fitting a model."""


class InsufficientDataError(FitError):
    """Fewer samples than the model kind requires."""


class DegenerateAbscissaError(FitError):
    """The t values cannot support the fit (all equal, one NaN or infinite,
    their sum past the float range, or too close together or too far from 0
    for a polynomial of the degree asked: its orthogonal basis is singular,
    or rounding could move its values past POLYNOMIAL_ERROR_BOUND)."""


class DomainError(FitError):
    """A non-positive value appeared under an exponential-family fit."""


class FitOverflowError(FitError):
    """A fit's coefficients, or the sums that give them, pass the float range."""


class PredictionRangeError(TrackcastError):
    """Evaluating a fitted model overflowed the double range."""


class MissingTruthError(TrackcastError):
    """No ground-truth sample exists at the evaluation target frame."""


class UndefinedReferenceError(TrackcastError):
    """The error-rate denominator (the actual value) is zero."""


class GenerationError(TrackcastError):
    """The synthetic generator produced a non-positive value."""
