"""Regression family for per-axis trajectory fitting.

All exponential-family variants share one ordinary least squares fit on
(t, ln v): the slope is the growth coefficient a and the raw intercept c.
The sin/cos variants set b = c - sin(a) (resp. cos) and predict
exp(a*t + b) + sin(a) = exp(a*t + c) * e^(-sin a) + sin(a): the fitted curve
scaled by e^(-sin a), plus the correction (ROADMAP.md item 2 would fit this form).
That line builds no (t, ln v) pairs: the values are checked or clamped
and their logs taken, and ``_line``, which ``fit_linear`` shares, sums them
and their products with the t deviations. Squares are products, which
IEEE 754 rounds correctly, not pow(), whose rounding depends on the C library.
A series' ``_logs`` slot holds the logs of its first k values; a window
takes those of the samples it shares with the window before it, so a
rolling replay logs one new value per axis and cutoff. math.log is a pure
function of its argument, so the bits are those of logging every value.
The polynomial kind is the non-linear comparison baseline, fitted through
polynomials orthogonal on the window's t. Their recurrence, their mapping
back to raw-t powers and the conditioning guard's verdict depend on t alone,
so that work is done once per t column and degree and kept for the last
column, in the ``functools.lru_cache(maxsize=1)`` function ``_factored``;
both axes of a window, and every batch spec with the same frames, only take
their values' dot products. A line's t half (the t mean, the deviations and
their sum of squares) depends on t alone too. On a window of consecutive
whole frames, which each cutoff of a rolling replay and every batch spec
brings, it is that of 0 .. n-1, kept for the last length n by the
``lru_cache(maxsize=1)`` function ``_whole_half``, moved by the window's
first t; ``_center`` computes any other column's half afresh. Two threads
that miss a cache at once each compute the same work.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from math import fsum, isfinite
from itertools import repeat
from operator import eq, mul

from .errors import (
    DegenerateAbscissaError,
    DomainError,
    FitOverflowError,
    InsufficientDataError,
    PredictionRangeError,
    ValidationError,
)
from .ingest import FLOAT_END, MAX_FRAME, AxisSeries, CheckedTuple

# Opt-in replacement for non-positive values under exponential-family fits.
CLAMP_FLOOR = 1e-9

# The largest relative change that rounding in a polynomial fit's raw-t
# coefficients and in their Horner evaluation may bring to a value on the
# window, for values of unit scale; ``_factor`` refuses a t column past it.
POLYNOMIAL_ERROR_BOUND = 1e-6


class ModelFamily(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exp"
    SIN_EXPONENTIAL = "sinexp"
    COS_EXPONENTIAL = "cosexp"
    POLYNOMIAL = "poly"


# The members bound once, in definition order: each ModelFamily.X read goes
# through the Enum metaclass, several times slower than a global lookup.
_F_LINEAR, _F_EXPONENTIAL, _F_SIN_EXPONENTIAL, _F_COS_EXPONENTIAL, _F_POLYNOMIAL = ModelFamily


class ModelKind(CheckedTuple, namedtuple("ModelKind", "family degree")):
    """A model selector: family plus degree for the polynomial baseline."""

    __slots__ = ()

    def __new__(cls, family: ModelFamily, degree: int = 0) -> "ModelKind":
        if type(family) is not ModelFamily:
            raise ValidationError(f"family must be a ModelFamily, got {family!r}")
        if type(degree) is not int:  # bool included
            raise ValidationError(f"degree must be an integer, got {degree!r}")
        if family is ModelFamily.POLYNOMIAL:
            if degree < 1:
                raise ValidationError("polynomial degree must be >= 1")
            if degree > MAX_FRAME:  # no stream holds the MAX_FRAME + 2 samples a fit needs
                raise ValidationError(f"polynomial degree must be <= {MAX_FRAME}")
        elif degree != 0:
            raise ValidationError(f"{family.value} takes no degree")
        return tuple.__new__(cls, (family, degree))

    @property
    def label(self) -> str:
        if self.family is _F_POLYNOMIAL:
            return f"poly{self.degree}"
        return self.family.value

    @property
    def min_points(self) -> int:
        return self.degree + 1 if self.family is _F_POLYNOMIAL else 2

    @classmethod
    def parse(cls, token: str) -> "ModelKind":
        """Parse a CLI token: linear|exp|sinexp|cosexp|polyN, where bare poly is poly2."""
        token = token.strip().lower()
        digits = token[4:] or "2"
        if token.startswith("poly") and digits.isdigit():
            try:  # int() refuses superscript digits and overlong digit runs
                return cls(ModelFamily.POLYNOMIAL, int(digits))
            except ValueError:
                pass
        for family in ModelFamily:
            if token == family.value:
                return cls(family)
        raise ValidationError(f"unknown model '{token}'")


LINEAR = ModelKind(ModelFamily.LINEAR)
EXPONENTIAL = ModelKind(ModelFamily.EXPONENTIAL)
SIN_EXPONENTIAL = ModelKind(ModelFamily.SIN_EXPONENTIAL)
COS_EXPONENTIAL = ModelKind(ModelFamily.COS_EXPONENTIAL)


def polynomial(degree: int) -> ModelKind:
    return ModelKind(ModelFamily.POLYNOMIAL, degree)


LinearFit = namedtuple("LinearFit", "slope intercept")

# A fitted model. ``a``/``b`` are the growth coefficient and corrected
# intercept (unused for polynomials, which carry ascending-power
# ``coefficients`` instead). ``residual_rmse`` measures the fit on a series.
FitResult = namedtuple("FitResult", "kind a b coefficients n_points")


def fit_linear(pairs: Iterable[tuple[float, float]] | AxisSeries) -> LinearFit:
    """Ordinary least squares line through (t, v) pairs, or through the
    columns of a series."""
    if pairs.__class__ is AxisSeries:
        ts, vs, whole = pairs._ts, pairs._vs, pairs._whole
    else:  # pairs may come in any order, so their t is never taken as whole
        ts, vs = tuple(zip(*pairs)) or ((), ())  # read once: pairs may be an iterator
        whole = False
    n = len(ts)
    if n < 2:
        raise InsufficientDataError(f"linear fit needs at least 2 pairs, got {n}")
    return _line(ts, vs, whole)


@functools.lru_cache(maxsize=1)
def _whole_half(n: int) -> tuple[float, list[float], float]:
    """``_center``'s t half of 0 .. n-1, kept for the last length asked."""
    return _center(tuple(map(float, range(n))))


def _line(ts: tuple[float, ...], vs: Sequence[float], whole: bool) -> LinearFit:
    """The least-squares line through the columns ``ts`` and ``vs``, with at
    least two samples. The t half comes from ``_whole_half`` (see below) or
    from ``_center``, which refuses a t column with no slope; a line past the
    float range is left to ``_rescaled_line``.

    ``whole`` says that ``ts`` is strictly increasing and every t a float
    holding a whole number, as an ``AxisSeries`` marks it. Such a column
    whose ends lie n - 1 apart holds the n consecutive whole numbers from
    its first, and when n times its largest |t| is below 2**53 every partial
    sum ``_center`` forms is an exact integer. Its t half is then that of
    0 .. n-1 moved by the first t: the mean plus the first t, the same
    deviations and the same sum of squares, bit for bit. ``_whole_half``
    keeps that half for one length.

    Every sum is a plain left-to-right one, as the builtin sum() gives it
    before CPython 3.12, which compensates float sums, and every square is
    the product d * d, never d ** 2, which calls the C library's pow() and
    some libraries round wrongly: the same bits on every version and platform.
    """
    n = len(ts)
    first = ts[0]
    if whole and ts[-1] - first == n - 1 and -2.0**53 < n * first and n * ts[-1] < 2.0**53:
        t_mean, ds, s_tt = _whole_half(n)
        t_mean += first
    else:
        t_mean, ds, s_tt = _center(ts)
    sv = 0.0
    try:
        for v in vs:
            sv += v
    except OverflowError:  # an int value past the float range
        return _rescaled_line(ts, vs, whole)
    v_mean = sv / n
    s_tv = 0.0
    for d, v in zip(ds, vs):
        s_tv += d * (v - v_mean)
    slope = s_tv / s_tt
    intercept = v_mean - slope * t_mean
    if isfinite(slope) and isfinite(intercept):
        return tuple.__new__(LinearFit, (slope, intercept))
    return _rescaled_line(ts, vs, whole)


def _rescaled_line(ts: tuple[float, ...], vs: Sequence[float], whole: bool) -> LinearFit:
    """A line past the float range, fitted again over its values scaled by a power of two
    (exact) and scaled back; refused if they were of unit scale or it stays past the range."""
    _require_finite(vs)
    exponent = math.frexp(max(map(abs, vs)))[1]
    if exponent:
        slope, intercept = _line(ts, [math.ldexp(v, -exponent) for v in vs], whole)
        try:
            return LinearFit(math.ldexp(slope, exponent), math.ldexp(intercept, exponent))
        except OverflowError:
            pass
    raise FitOverflowError("line coefficients pass the float range for these values")


def _require_finite(column: Sequence[float], name: str = "value", error=DomainError) -> None:
    """Raise ``error`` at the first entry of ``column`` that is NaN, infinite
    or an int past the float range."""
    for i, x in enumerate(column):
        if not -FLOAT_END < x < FLOAT_END:
            raise error(f"{name} {x!r} at sample {i} is not {'a number' if x != x else 'finite'}")


def _center(ts: tuple[float, ...]) -> tuple[float, list[float], float]:
    """The t half of a least-squares line: the mean of ``ts``, the deviations
    from it and the sum of their squares. A column with no slope raises
    ``DegenerateAbscissaError``. The equal test stops at the second t of an
    increasing column; a t that is NaN, infinite or an int past the float
    range is sought only when the t sum is not finite, which any such t
    makes it."""
    if all(map(eq, ts, repeat(ts[0]))):
        raise DegenerateAbscissaError("all t values are equal; cannot fit a slope")
    st = 0.0
    try:
        for t in ts:
            st += t
    except OverflowError:  # an int past the float range
        st = math.inf
    if st - st != 0.0:
        _require_finite(ts, "t value", DegenerateAbscissaError)
        raise DegenerateAbscissaError("the sum of the t values overflows")
    t_mean = st / len(ts)
    ds = [t - t_mean for t in ts]
    s_tt = 0.0
    for d in ds:
        s_tt += d * d
    if s_tt == 0.0:
        raise DegenerateAbscissaError("t values are numerically indistinguishable")
    return t_mean, ds, s_tt


def fit_model(series: AxisSeries, kind: ModelKind, clamp_nonpositive: bool = False) -> FitResult:
    """Fit ``kind`` to the series.

    Exponential-family kinds require every value positive unless
    ``clamp_nonpositive`` lifts offenders to CLAMP_FLOOR. They share one
    line on (t, ln v), and each kind derives its intercept from it. The
    series keeps the last line fitted on it, with its clamp value, which is
    safe because a series never changes. A DomainError is not kept, so each
    kind raises it under its own label.
    """
    n = len(series._ts)
    family, degree = kind
    # kind.min_points, without the property call: the degree is 0 outside
    # the polynomial family, and a polynomial needs degree + 1 >= 2 samples.
    if n < 2 or n <= degree:
        raise InsufficientDataError(
            f"{kind.label} fit needs at least {kind.min_points} samples, got {n}"
        )
    a = b = 0.0
    coefficients: tuple[float, ...] = ()
    if family is _F_LINEAR:
        a, b = fit_linear(series)
    elif family is _F_POLYNOMIAL:
        coefficients = _fit_polynomial(series._ts, series._vs, degree)
    else:
        a, c = _log_line(series, kind, clamp_nonpositive)
        b = c - _correction(family, a)
    return tuple.__new__(FitResult, (kind, a, b, coefficients, n))


def _log_line(series: AxisSeries, kind: ModelKind, clamp_nonpositive: bool) -> LinearFit:
    """The least-squares line on (t, ln v), kept on the series as
    ``(clamp_nonpositive, line)``: one slot that holds the last line fitted,
    as every caller fits a series under a single clamp value.

    The values are checked or clamped and their logs taken; ``_line`` then
    sums them and their products with the t deviations. The series' ``_logs``
    hold the logs of its first k values, which a window takes from the one
    before it, so only the values past them are logged. When no value is
    zero or negative the whole column is stored there for the next window;
    one that is sends the fit down the refusing or clamping path, which logs
    every value again and stores nothing.
    """
    kept = series._log_line
    if kept is not None and kept[0] == clamp_nonpositive:
        return kept[1]
    vs = series._vs
    head = series._logs  # one read of an immutable tuple, so threads agree
    try:
        logs = series._logs = head + tuple(map(math.log, vs[len(head):]))
    except ValueError:  # a value <= 0, which is refused or clamped
        logs = []
        for i, v in enumerate(vs):
            if v <= 0.0:
                if not clamp_nonpositive:
                    raise DomainError(
                        f"non-positive value {v!r} at t={series._ts[i]!r} (sample {i}) "
                        f"under {kind.label} fit"
                    )
                v = CLAMP_FLOOR
            logs.append(math.log(v))
    line = _line(series._ts, logs, series._whole)
    series._log_line = (clamp_nonpositive, line)
    return line


@functools.lru_cache(maxsize=1)
def _factored(ts: tuple[float, ...]) -> dict:
    """``{degree: _factor's weight rows}`` for the last t column asked,
    which ``_t_only`` fills."""
    return {}


def _t_only(ts: tuple[float, ...], degree: int) -> tuple:
    """``_factor``'s weight rows for a polynomial of ``degree`` on ``ts``,
    through the table ``_factored`` keeps for the column. A refused column
    raises ``_factor``'s refusal and leaves no entry, so it is factored
    again on its next call."""
    table = _factored(ts)
    found = table.get(degree)
    if found is None:
        found = table[degree] = _factor(ts, degree)
    return found


def _fit_polynomial(ts: tuple[float, ...], vs: tuple[float, ...],
                    degree: int) -> tuple[float, ...]:
    """Least-squares polynomial in ascending powers of raw t.

    ``_factor`` gives, through ``_t_only``, one row of weights per coefficient,
    so each coefficient is one dot product with the values. ``math.fsum``
    rounds it correctly, so it has the same bits on every CPython version.
    A dot product past the float range refuses a value that is not finite,
    or else all are taken again over the values divided by the largest.
    """
    factors = _t_only(ts, degree)
    coefficients = _dots(factors, vs)
    if coefficients is None:
        _require_finite(vs)
        largest = max(map(abs, vs))
        coefficients = _dots(factors, [v / largest for v in vs], largest)
        if coefficients is None:
            raise FitOverflowError("polynomial coefficients pass the float range for these values")
    return coefficients


def _dots(rows, vs, scale: float = 1.0) -> tuple[float, ...] | None:
    """``scale`` times the dot product of each row with ``vs``, or None when
    one passes the float range."""
    try:
        coefficients = tuple([scale * fsum(map(mul, row, vs)) for row in rows])
    except (OverflowError, ValueError):  # a partial sum past the float range, or inf - inf
        return None
    return coefficients if all(map(isfinite, coefficients)) else None


def _factor(ts: tuple[float, ...], degree: int) -> tuple:
    """The t-only half of a polynomial fit: the weight rows ``_fit_polynomial``
    reads. A t column it refuses raises ``DegenerateAbscissaError``.

    t is scaled to x = (t - center) / half on [-1, 1], where the three-term
    recurrence p_k+1 = (x - alpha_k) p_k - beta_k p_k-1 from p_0 = 1 gives
    polynomials orthogonal on the window's x (G. E. Forsythe, J. SIAM 5(2),
    1957). The fit is the sum of c_k p_k with c_k = <v, p_k> / |p_k|^2, so no
    Gram matrix is formed. Each p_k is carried as its values at the samples,
    column k of P, and as its ascending coefficients in raw t, column k of E;
    row j of E diag(1 / |p_k|^2) P^T then gives raw coefficient j.

    kappa = sum over k of (sum over j of |E_jk| T^j) sqrt(n / |p_k|^2), with T
    the largest |t| of the window, bounds how far rounding in the raw
    coefficients and in their Horner evaluation can move a value on the
    window, for values of unit scale. A column is refused when 3 m u kappa
    passes POLYNOMIAL_ERROR_BOUND (m coefficients, u = 2**-52), or when some
    |p_k|^2 is not positive.
    """
    n = len(ts)
    m = degree + 1
    first, last = ts[0], ts[-1]
    center = first * 0.5 + last * 0.5  # halves first, so neither overflows
    half = last * 0.5 - first * 0.5
    xs = [(t - center) / half for t in ts]
    scale, shift = 1.0 / half, -center / half  # x = scale * t + shift
    big_t = max(abs(first), abs(last))
    p, p_prev = [1.0] * n, [0.0] * n
    e, e_prev = [1.0] + [0.0] * degree, [0.0] * m
    columns, weights = [], []
    kappa = 0.0
    for k in range(m):
        squares = list(map(mul, p, p))
        norm = fsum(squares)
        if not norm > 0.0:
            raise DegenerateAbscissaError("polynomial fit is singular for these t values")
        columns.append(p)
        weights.append([c / norm for c in e])
        bound = 0.0  # sum of |E_jk| T^j, by Horner's rule
        for c in reversed(e):
            bound = bound * big_t + abs(c)
        kappa += bound * math.sqrt(n / norm)
        if k < degree:
            alpha = fsum(map(mul, xs, squares)) / norm
            beta = norm / prev_norm if k else 0.0
            prev_norm = norm
            p, p_prev = [(x - alpha) * a - beta * b for x, a, b in zip(xs, p, p_prev)], p
            # The same step on raw-t coefficients: (scale * t + shift - alpha) e
            # - beta e_prev; e's last entry is 0, as p_k has degree k < m - 1.
            e, e_prev = [scale * lower + (shift - alpha) * c - beta * b
                         for lower, c, b in zip([0.0, *e], e, e_prev)], e
    if not 3 * m * 2.0**-52 * kappa <= POLYNOMIAL_ERROR_BOUND:  # NaN is refused too
        raise DegenerateAbscissaError("polynomial fit is ill-conditioned for these t values")
    by_sample = list(zip(*columns))  # p_0(x_i) .. p_d(x_i) for each sample i
    return tuple([tuple([fsum(map(mul, row, at)) for at in by_sample]) for row in zip(*weights)])


def _correction(family: ModelFamily, a: float) -> float:
    """The constant term an exponential-family variant adds to exp(a*t + b).
    Identity tests, not a dict keyed by the family, whose lookups would
    call the Python-level Enum.__hash__."""
    if family is _F_SIN_EXPONENTIAL:
        return math.sin(a)
    if family is _F_COS_EXPONENTIAL:
        return math.cos(a)
    return 0.0


def predict(fit: FitResult, t: float) -> float:
    """Evaluate the fitted model at time t; pure composition, no re-fitting."""
    kind, a, b, coefficients, _ = fit
    family = kind.family
    try:
        if family is _F_LINEAR:
            value = a * t + b
        elif family is _F_POLYNOMIAL:
            value = 0.0
            for coeff in reversed(coefficients):
                value = value * t + coeff
        else:
            value = math.exp(a * t + b) + _correction(family, a)
    except OverflowError:  # refused below, as is a value that overflows to inf
        value = math.inf
    if not math.isfinite(value):
        raise PredictionRangeError(f"{kind.label} prediction overflows at t={t!r}")
    return value


def residual_rmse(fit: FitResult, series: AxisSeries) -> float:
    """Root-mean-square of predict(fit, t) - v over the series.

    When finite residuals have squares past the float range, they are summed
    again divided by the largest of them, which bounds the result, so the
    RMSE stays finite; only a prediction or residual past the range gives inf.
    """
    ts, vs = series._ts, series._vs
    if not ts:
        raise InsufficientDataError("cannot compute RMSE of an empty series")
    n = len(ts)
    total = 0.0
    try:
        for t, v in zip(ts, vs):
            residual = predict(fit, t) - v
            total += residual * residual
    except PredictionRangeError:
        return math.inf
    if total == math.inf:
        residuals = [predict(fit, t) - v for t, v in zip(ts, vs)]
        m = max(map(abs, residuals))
        if m < math.inf:
            total = 0.0
            for residual in residuals:
                residual /= m
                total += residual * residual
            return m * math.sqrt(total / n)
    return math.sqrt(total / n)
