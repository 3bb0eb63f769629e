"""Error-rate metric, model-comparison harness, and synthetic trajectories.

The comparison runs a list of model kinds over the same trajectory and
scores each prediction against the ground-truth sample at the target
frame. A kind whose fit (or prediction) fails is reported as an
unavailable row instead of aborting the table.

Synthetic trajectories are bit-reproducible: each axis consumes its own
Mersenne Twister stream (CPython ``random.Random``), X seeded with
``2*seed`` and Y with ``2*seed + 1``. Normal deviates come from an
explicit Box-Muller transform over the generator's uniforms, so the
streams depend only on the documented, platform-independent ``random()``
sequence. Every frame consumes exactly four uniforms per axis (two for
the log-space noise deviate, one for the shake decision, one for the
shake displacement) regardless of parameter values. ``batch_compare``
computes only the frames ``compare`` reads. A frame it passes over moves
its stream by the eight 32-bit words of its four uniforms, in one
``getrandbits`` call per chunk of up to 4096 frames, so each value it
computes keeps its bits. That rests on CPython's word counts (``random()``
takes two words, ``getrandbits(n)`` ceil(n / 32)), which a test pins.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum

from .errors import (
    FitError,
    GenerationError,
    MissingTruthError,
    ParseError,
    PredictionRangeError,
    UndefinedReferenceError,
    ValidationError,
)
from .ingest import FLOAT_END, MAX_FRAME, Axis, AxisSeries, CheckedTuple
from .numfmt import fixed6
from .regression import (
    COS_EXPONENTIAL,
    EXPONENTIAL,
    SIN_EXPONENTIAL,
    ModelKind,
    polynomial,
)
from .trajectory import WindowConfig, _span, predict_endpoint

# Row order of the default four-model comparison.
DEFAULT_KINDS: tuple[ModelKind, ...] = (
    SIN_EXPONENTIAL,
    COS_EXPONENTIAL,
    EXPONENTIAL,
    polynomial(2),
)

COMPARISON_CSV_HEADER = "model,err_x_pct,err_y_pct,t_target,pred_x,pred_y,actual_x,actual_y"


# Per-model prediction errors at the target frame. ``err_x_pct``,
# ``err_y_pct`` and ``predicted`` are None (unavailable) when the fit or the
# prediction failed; ``failure`` then carries the reason. The rows of one
# ``compare`` table, unavailable ones included, share one ``t_target`` float
# and one ``actual`` tuple, which is safe as both are immutable; a row from
# ``evaluate`` called alone holds its own.
ErrorReport = namedtuple("ErrorReport", "kind err_x_pct err_y_pct t_target predicted actual "
                         "failure", defaults=(None,))


class Variant(Enum):
    PURE_EXPONENTIAL = "pure_exponential"
    SIN_EXPONENTIAL = "sin_exponential"


class SyntheticSpec(CheckedTuple, namedtuple("SyntheticSpec", "a_x b_x a_y b_y variant "
                                             "n_frames noise_sigma shake_prob shake_scale seed")):
    """Seeded generator parameters for one oracle trajectory."""

    __slots__ = ()

    def __new__(cls, a_x: float, b_x: float, a_y: float, b_y: float,
                variant: Variant = Variant.PURE_EXPONENTIAL, n_frames: int = 100,
                noise_sigma: float = 0.0, shake_prob: float = 0.0, shake_scale: float = 0.0,
                seed: int = 0) -> "SyntheticSpec":
        fields = (a_x, b_x, a_y, b_y, variant, n_frames, noise_sigma, shake_prob, shake_scale, seed)
        for name, value in zip(cls._fields, fields):
            if name in _SPEC_INT_KEYS and type(value) is not int:  # bool included
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if name == "variant" and type(value) is not Variant:
                raise ValidationError(f"variant must be a Variant, got {value!r}")
            if name in _SPEC_FLOAT_KEYS:
                if type(value) is not float and type(value) is not int:  # bool is not a number
                    raise ValidationError(f"{name} must be a number, got {value!r}")
                if not -FLOAT_END < value < FLOAT_END:  # NaN included
                    raise ValidationError(f"{name} must be finite, got {value!r}")
        if n_frames < 1:
            raise ValidationError(f"n_frames must be >= 1, got {n_frames}")
        if n_frames > MAX_FRAME + 1:  # a frame past MAX_FRAME is one no stream may hold
            raise ValidationError(f"n_frames must be <= {MAX_FRAME + 1}")
        if noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {noise_sigma}")
        if not 0.0 <= shake_prob <= 1.0:
            raise ValidationError(f"shake_prob must be in [0, 1], got {shake_prob}")
        if shake_scale < 0:
            raise ValidationError(f"shake_scale must be >= 0, got {shake_scale}")
        if not 0 <= seed < 2**64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        return tuple.__new__(cls, fields)


def error_rate(predicted: float, actual: float) -> float:
    """|predicted - actual| / |actual| * 100."""
    if actual == 0.0:
        raise UndefinedReferenceError("error rate is undefined for actual = 0")
    return abs(predicted - actual) / abs(actual) * 100.0


def _value_at(series: AxisSeries, t: float) -> float:
    """The truth at ``t``, refused when missing or 0, which no error rate can divide by."""
    ts = series._ts
    i = bisect_left(ts, t)
    if i < len(ts) and ts[i] == t:
        if series._vs[i] == 0.0:
            raise UndefinedReferenceError("error rate is undefined for actual = 0")
        return series._vs[i]
    raise MissingTruthError(
        f"no ground-truth sample at t={t!r} on the {series.axis.value} series"
    )


def _read_truth(xs: AxisSeries, ys: AxisSeries, cutoff_t: float,
                config: WindowConfig) -> tuple[float, tuple[float, float]]:
    t_target = cutoff_t + config.horizon
    return t_target, (_value_at(xs, t_target), _value_at(ys, t_target))


def evaluate(
    xs: AxisSeries,
    ys: AxisSeries,
    kind: ModelKind,
    cutoff_t: float,
    config: WindowConfig,
    clamp_nonpositive: bool = False,
    *,
    _truth: tuple[float, tuple[float, float]] | None = None,
) -> ErrorReport:
    """Score one model: fit on t <= cutoff, read truth at cutoff + horizon.

    Called alone, it reads its own ``t_target`` and ``actual``, and refuses
    a missing or zero one before the fit; ``compare`` reads them once per
    table and passes them in as ``_truth``.
    """
    t_target, actual = _truth or _read_truth(xs, ys, cutoff_t, config)
    try:
        _, x, y, _ = predict_endpoint(xs, ys, kind, config, cutoff_t, None, clamp_nonpositive)
    except (FitError, PredictionRangeError) as exc:
        return ErrorReport(kind, None, None, t_target, None, actual, failure=str(exc))
    return tuple.__new__(ErrorReport, (kind, error_rate(x, actual[0]), error_rate(y, actual[1]),
                                       t_target, (x, y), actual, None))


def compare(
    xs: AxisSeries,
    ys: AxisSeries,
    kinds: Sequence[ModelKind],
    cutoff_t: float,
    config: WindowConfig,
    clamp_nonpositive: bool = False,
) -> list[ErrorReport]:
    """One ErrorReport per kind, in the requested order.

    A failing kind yields an unavailable row; a missing or zero ground-truth
    sample aborts the whole table before any fit. The truth is read once, at the
    first row, so every row shares one ``t_target`` and one ``actual``
    object, and a table with no kinds reads nothing.
    """
    truth = None
    reports = []
    for kind in kinds:
        truth = truth or _read_truth(xs, ys, cutoff_t, config)
        reports.append(evaluate(xs, ys, kind, cutoff_t, config, clamp_nonpositive, _truth=truth))
    return reports


def _synth_axis(axis: Axis, a: float, b: float, spec: SyntheticSpec, rng: random.Random,
                ts: tuple[float, ...]) -> tuple[float, ...]:
    # The Box-Muller transform is inlined and everything that does not change
    # per frame is looked up once; each value is the same expression, over
    # the same uniforms in the same order, as the documented generator.
    uniform, skip, inf = rng.random, rng.getrandbits, math.inf
    exp, log, sqrt, cos, isfinite = math.exp, math.log, math.sqrt, math.cos, math.isfinite
    two_pi = 2.0 * math.pi
    offset = math.sin(a) if spec.variant is Variant.SIN_EXPONENTIAL else 0.0
    sigma, shake_prob, shake_scale = spec.noise_sigma, spec.shake_prob, spec.shake_scale
    values = []
    frame = 0.0  # the t of the next frame to draw
    for t in ts:
        if frame < t:  # passed-over frames move the stream by their uniforms' 8 words each,
            for left in range(int(t - frame), 0, -4096):  # in chunks of at most 128 KiB
                skip(256 * min(left, 4096))
        frame = t + 1.0
        # 1 - random() keeps the log argument in (0, 1].
        u1 = 1.0 - uniform()
        u2 = uniform()
        noise = sqrt(-2.0 * log(u1)) * cos(two_pi * u2)
        shake_decision = uniform()
        shake_u = uniform()
        try:
            value = (exp(a * t + b) + offset) * exp(sigma * noise)
        except OverflowError:  # refused below, as is a product that overflows to inf
            value = inf
        if shake_decision < shake_prob:
            value += shake_scale * (2.0 * shake_u - 1.0)
        if not 0.0 < value < inf:
            raise GenerationError(
                f"generated value overflows at frame {int(t)} on the {axis.value} axis"
                if not isfinite(value) else f"generated non-positive value {value!r} "
                f"at frame {int(t)} on the {axis.value} axis")
        values.append(value)
    return tuple(values)


def synthesize(spec: SyntheticSpec) -> tuple[AxisSeries, AxisSeries]:
    """Generate the (X, Y) series for t = 0 .. n_frames - 1; both share one t column."""
    return _synthesize_at(spec, tuple(map(float, range(spec.n_frames))))


def _synthesize_at(spec: SyntheticSpec, ts: tuple[float, ...]) -> tuple[AxisSeries, AxisSeries]:
    """The X and Y series at the frames ``ts``, floats of ``range`` values, so whole."""
    import random

    xs = _synth_axis(Axis.X, spec.a_x, spec.b_x, spec, random.Random(2 * spec.seed), ts)
    ys = _synth_axis(Axis.Y, spec.a_y, spec.b_y, spec, random.Random(2 * spec.seed + 1), ts)
    return (AxisSeries._from_columns(Axis.X, ts, xs, True),
            AxisSeries._from_columns(Axis.Y, ts, ys, True))


_SPEC_FLOAT_KEYS = ("a_x", "b_x", "a_y", "b_y", "noise_sigma", "shake_prob", "shake_scale")
_SPEC_INT_KEYS = ("n_frames", "seed")
_SPEC_REQUIRED = ("a_x", "b_x", "a_y", "b_y", "n_frames")
# What reads each key's value text, and the refusal of a text it cannot read.
_SPEC_READERS = {
    **{key: (float, f"value for '{key}' must be a number") for key in _SPEC_FLOAT_KEYS},
    **{key: (int, f"value for '{key}' must be an integer") for key in _SPEC_INT_KEYS},
    "variant": (Variant, "variant must be one of: " + ", ".join(v.value for v in Variant)),
}


def parse_synthetic_spec(text: str) -> SyntheticSpec:
    """Parse a flat ``key = value`` spec document.

    Keys are exactly the SyntheticSpec field names; unknown and duplicate
    keys are rejected. ``a_x``, ``b_x``, ``a_y``, ``b_y`` and ``n_frames``
    are required, the rest default to a noiseless, unshaken trajectory with
    seed 0. Blank lines and lines starting with '#' are skipped.
    """
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"line {line_no}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ValidationError(f"line {line_no}: duplicate key '{key}'")
        if key not in _SPEC_READERS:
            raise ValidationError(f"line {line_no}: unknown key '{key}'")
        read, refusal = _SPEC_READERS[key]
        try:
            values[key] = read(value)
        except ValueError:
            raise ParseError(f"line {line_no}: {refusal}") from None
        if read is float and not math.isfinite(values[key]):
            raise ParseError(f"line {line_no}: value for '{key}' must be finite")
    for key in _SPEC_REQUIRED:
        if key not in values:
            raise ValidationError(f"missing required key '{key}'")
    return SyntheticSpec(**values)  # type: ignore[arg-type]


def _fmt(value: float | None) -> str:
    return "" if value is None else fixed6(value)


def comparison_csv(reports: Iterable[ErrorReport]) -> str:
    """Render reports as CSV; unavailable values become empty fields."""
    lines = [COMPARISON_CSV_HEADER]
    for r in reports:
        pred_x, pred_y = r.predicted if r.predicted is not None else (None, None)
        values = (r.err_x_pct, r.err_y_pct, r.t_target, pred_x, pred_y, r.actual[0], r.actual[1])
        lines.append(",".join([r.kind.label, *map(_fmt, values)]))
    return "".join(line + "\n" for line in lines)


def comparison_text(reports: Sequence[ErrorReport]) -> str:
    """Aligned three-column rendering; unavailable values become a dash."""
    rows = [("Regression", "x-error %", "y-error %")]
    for r in reports:
        rows.append((r.kind.label, _fmt(r.err_x_pct) or "-", _fmt(r.err_y_pct) or "-"))
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    lines = []
    for name, ex, ey in rows:
        lines.append(f"{name:<{widths[0]}}  {ex:>{widths[1]}}  {ey:>{widths[2]}}")
    return "".join(line + "\n" for line in lines)


def batch_compare(
    specs: Sequence[SyntheticSpec],
    kinds: Sequence[ModelKind],
    cutoff_t: float,
    config: WindowConfig,
) -> list[list[ErrorReport]]:
    """Score many synthetic trajectories, one ``compare`` per spec.

    Each spec's generator computes only the frames ``compare`` reads (the
    window at cutoff_t and the frame at cutoff_t + horizon) and moves the
    stream past each frame it passes over, so every value has the bits
    ``synthesize`` gives it. Specs share one t column while ``n_frames``
    repeats. A spec that a bound cannot prove free of a ``GenerationError``
    on every frame is synthesized in full, and raises it.
    """
    ts: tuple[float, ...] = ()  # the last t column, shared while n_frames repeats
    reports = []
    for spec in specs:
        if len(ts) != spec.n_frames:
            ts = tuple(map(float, range(spec.n_frames)))
        reports.append(compare(*_synthesize_read(spec, ts, kinds, cutoff_t, config), kinds,
                               cutoff_t, config))
    return reports


def _synthesize_read(spec, ts, kinds, cutoff_t, config) -> tuple[AxisSeries, AxisSeries]:
    # |Box-Muller deviate| < 8.58 and |sin(a)| <= 1. With every a*t + b (monotone
    # in t) inside this range, each value lies between 3 * (1 + shake_scale) and
    # 2 * e**700: finite and positive, with room to spare for rounding. With no
    # kinds, compare reads no frame, and not even t_target is computed.
    s = 9.0 * spec.noise_sigma
    low = math.log(4.0 * (1.0 + spec.shake_scale)) + s
    if not kinds or not all(low < a * t + b < 700.0 - s for a, b in
                            ((spec.a_x, spec.b_x), (spec.a_y, spec.b_y)) for t in (0.0, ts[-1])):
        return _synthesize_at(spec, ts)
    # The test of ``_value_at``, then the slice of ``window``, in the order
    # ``evaluate`` makes them.
    t_target = cutoff_t + config.horizon
    i = bisect_left(ts, t_target)
    if not (i < len(ts) and ts[i] == t_target):  # a NaN cutoff included
        return _synthesize_at(spec, ())  # compare raises MissingTruthError
    start, end = _span(ts, config.length, cutoff_t)
    # Below t = 2**53, t_target > cutoff_t, so frame i follows the window.
    return _synthesize_at(spec, ts[start:end] + ts[i:i + 1])
