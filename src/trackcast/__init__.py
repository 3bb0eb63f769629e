"""Trajectory prediction for tracked endpoints.

Turns per-frame bounding-box streams into per-axis time series, fits a
family of regression models (linear, exponential, sin/cos-corrected
exponential, polynomial baseline), predicts the endpoint position a
configurable number of frames ahead, and gates the prediction against a
defect region. Includes a seeded synthetic-trajectory benchmark harness.
"""

from .errors import (
    DegenerateAbscissaError,
    DomainError,
    FitError,
    FitOverflowError,
    GenerationError,
    InsufficientDataError,
    MissingTruthError,
    OrderingError,
    ParseError,
    PredictionRangeError,
    TrackcastError,
    UndefinedReferenceError,
    ValidationError,
)
from .evaluation import (
    DEFAULT_KINDS,
    ErrorReport,
    SyntheticSpec,
    Variant,
    batch_compare,
    compare,
    comparison_csv,
    comparison_text,
    error_rate,
    evaluate,
    parse_synthetic_spec,
    synthesize,
)
from .ingest import (
    Axis,
    AxisSeries,
    DetectionRecord,
    StreamFormat,
    build_series,
    parse_detections,
    render_detections,
    select_per_frame,
    to_observation,
)
from .regression import (
    COS_EXPONENTIAL,
    EXPONENTIAL,
    LINEAR,
    SIN_EXPONENTIAL,
    FitResult,
    LinearFit,
    ModelFamily,
    ModelKind,
    fit_linear,
    fit_model,
    polynomial,
    predict,
    residual_rmse,
)
from .trajectory import (
    DEFAULT_HORIZON,
    PredictedEndpoint,
    Region,
    WindowConfig,
    gate,
    predict_endpoint,
    window,
)

__version__ = "0.1.0"
