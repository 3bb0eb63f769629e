"""Windowed per-axis fitting, horizon prediction, and defect gating."""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .errors import TrackcastError, ValidationError
from .ingest import FLOAT_END, AxisSeries, CheckedTuple
from .regression import FitResult, ModelKind, fit_model, predict

DEFAULT_HORIZON = 60


class Region(CheckedTuple, namedtuple("Region", "x_min x_max y_min y_max")):
    """Axis-aligned rectangle in pixel space; the defect gate boundary."""

    __slots__ = ()

    def __new__(cls, x_min: float, x_max: float, y_min: float, y_max: float) -> "Region":
        for name, value in zip(cls._fields, (x_min, x_max, y_min, y_max)):
            if type(value) is not float and type(value) is not int:  # bool is not a number here
                raise ValidationError(f"{name} must be a number, got {value!r}")
        if not (x_min < x_max and y_min < y_max):
            raise ValidationError(
                "region requires x_min < x_max and y_min < y_max, got "
                f"[{x_min}, {x_max}] x [{y_min}, {y_max}]"
            )
        return tuple.__new__(cls, (x_min, x_max, y_min, y_max))


class WindowConfig(CheckedTuple, namedtuple("WindowConfig", "length horizon")):
    """History window and prediction horizon, both in frames.

    ``length`` None means the entire history.
    """

    __slots__ = ()

    def __new__(cls, length: int | None = None, horizon: int = DEFAULT_HORIZON) -> "WindowConfig":
        if type(horizon) is not int and type(horizon) is not float:  # bool is not a number here
            raise ValidationError(f"horizon must be a number, got {horizon!r}")
        if not horizon >= 1:  # NaN included
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        if not horizon < FLOAT_END:  # it is added to float frame times
            raise ValidationError("horizon is beyond the float range")
        if length is not None and type(length) is not int:  # it slices the series; bool included
            raise ValidationError(f"window length must be an integer, got {length!r}")
        if length is not None and length < 2:
            raise ValidationError(f"window length must be >= 2, got {length}")
        return tuple.__new__(cls, (length, horizon))


PredictedEndpoint = namedtuple("PredictedEndpoint", "t_target x y defect")


def _span(ts: tuple[float, ...], length: int | None, cutoff_t: float) -> tuple[int, int]:
    """The start and end of the slice of ``ts`` that a window keeps: the
    samples with t <= cutoff_t, only the last ``length`` of them unless it
    is None. A series' t is strictly increasing and never NaN, so bisecting
    on t finds the end. No t is <= a NaN cutoff, which bisection alone would
    read as past every sample."""
    end = bisect_right(ts, cutoff_t) if cutoff_t == cutoff_t else 0
    return (0 if length is None else max(0, end - length)), end


def window(series: AxisSeries, config: WindowConfig, cutoff_t: float) -> AxisSeries:
    """Samples with t <= cutoff_t, keeping only the last ``length`` of them,
    the slice that ``_span`` gives.

    The result is kept on ``series`` under the key (length, cutoff_t), and a
    repeated call with an equal key returns that same windowed series. That
    is safe because a series never changes, and bounded because only the
    last window is kept. Every kind that ``compare`` scores therefore gets
    one window per axis, and with it the exponential-family line that
    ``fit_model`` keeps on the window. A slice of whole-frame t is whole
    too, so the window keeps the series' ``_whole`` mark, with which a line
    fit on a gap-free window takes its t half by translation.

    The kept window's start index is kept beside it. Its ``_logs`` hold the
    logs of its first k values, so a new window that starts within those k
    samples and ends at or past the last of them shares a tail of them; the
    new window takes that tail as its own ``_logs``, and its line logs only
    its other values. A rolling replay's next cutoff thus takes one log per
    axis, not one per sample.
    """
    key = (config.length, cutoff_t)
    kept = series._window  # one read, so the key, window and start agree
    if kept is not None and kept[0] == key:
        return kept[1]
    ts = series._ts
    start, end = _span(ts, config.length, cutoff_t)
    windowed = AxisSeries._from_columns(series._axis, ts[start:end], series._vs[start:end],
                                        series._whole)
    if kept is not None:
        logs, kept_start = kept[1]._logs, kept[2]
        if kept_start <= start < kept_start + len(logs) <= end:
            windowed._logs = logs[start - kept_start:]
    series._window = (key, windowed, start)
    return windowed


def gate(point: tuple[float, float], region: Region) -> bool:
    """True iff the point lies outside the region; the boundary is inside."""
    x, y = point
    return x < region.x_min or x > region.x_max or y < region.y_min or y > region.y_max


def fit_axis(
    series: AxisSeries,
    kind: ModelKind,
    config: WindowConfig,
    cutoff_t: float,
    clamp_nonpositive: bool = False,
) -> FitResult:
    """Fit one windowed axis; failures are re-raised naming the axis."""
    try:
        return fit_model(window(series, config, cutoff_t), kind, clamp_nonpositive)
    except TrackcastError as exc:
        raise type(exc)(f"{series.axis.value} axis: {exc}") from exc


def predict_endpoint(
    xs: AxisSeries,
    ys: AxisSeries,
    kind: ModelKind,
    config: WindowConfig,
    cutoff_t: float,
    region: Region | None = None,
    clamp_nonpositive: bool = False,
) -> PredictedEndpoint:
    """Fit both axes on windowed history and predict horizon frames ahead.

    The defect verdict is False whenever no region is supplied.
    """
    t_target = cutoff_t + config.horizon
    x = _predict_axis(xs, kind, config, cutoff_t, t_target, clamp_nonpositive)
    y = _predict_axis(ys, kind, config, cutoff_t, t_target, clamp_nonpositive)
    defect = gate((x, y), region) if region is not None else False
    return tuple.__new__(PredictedEndpoint, (t_target, x, y, defect))


def _predict_axis(series, kind, config, cutoff_t, t_target, clamp_nonpositive) -> float:
    fit = fit_axis(series, kind, config, cutoff_t, clamp_nonpositive)
    try:
        return predict(fit, t_target)
    except TrackcastError as exc:
        raise type(exc)(f"{series.axis.value} axis: {exc}") from exc
