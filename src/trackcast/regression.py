"""Regression family for per-axis trajectory fitting.

All exponential-family variants share one ordinary least squares fit on
(t, ln v): the slope is the growth coefficient a and the raw intercept c.
The sin/cos variants absorb their constant correction term into the
intercept, b = c - sin(a) (resp. cos), so that the prediction form
exp(a*t + b) + sin(a) reproduces the fitted log-line plus the correction.
That line takes two passes over the window and builds no (t, ln v) pairs:
one checks or clamps each value, takes its log and sums both columns, and
``_line``, which ``fit_linear`` shares, sums the deviations from the means.
Squares there are products, which IEEE 754 rounds correctly, not pow(),
whose rounding depends on the C library.
The polynomial kind is the non-linear comparison baseline, solved through
the normal equations. Their Gram matrix, its elimination and the guard's
verdict depend on t alone, so that work is done once per t column and
degree and kept in a module-level memo of the last column; both axes of a
window, and every batch spec with the same frames, build and solve only
their own right-hand side. The memo is shared by all threads: each fit reads
the column and its table in one step, and a concurrent replacement at worst
repeats the same factorization.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from functools import reduce
from operator import add, mul

from .errors import (
    DegenerateAbscissaError,
    DomainError,
    InsufficientDataError,
    PredictionRangeError,
    ValidationError,
)
from .ingest import MAX_FRAME, AxisSeries

# Opt-in replacement for non-positive values under exponential-family fits.
CLAMP_FLOOR = 1e-9

# Relative determinant threshold below which the polynomial normal
# equations are rejected as ill-conditioned.
DETERMINANT_GUARD = 1e-12


class ModelFamily(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exp"
    SIN_EXPONENTIAL = "sinexp"
    COS_EXPONENTIAL = "cosexp"
    POLYNOMIAL = "poly"


# The members bound once, in definition order: each ModelFamily.X read goes
# through the Enum metaclass, several times slower than a global lookup.
_F_LINEAR, _F_EXPONENTIAL, _F_SIN_EXPONENTIAL, _F_COS_EXPONENTIAL, _F_POLYNOMIAL = ModelFamily


class ModelKind(namedtuple("ModelKind", "family degree")):
    """A model selector: family plus degree for the polynomial baseline."""

    __slots__ = ()

    def __new__(cls, family: ModelFamily, degree: int = 0) -> "ModelKind":
        if family is ModelFamily.POLYNOMIAL:
            if degree < 1:
                raise ValidationError("polynomial degree must be >= 1")
            if degree > MAX_FRAME:  # no stream holds the MAX_FRAME + 2 samples a fit needs
                raise ValidationError(f"polynomial degree must be <= {MAX_FRAME}")
        elif degree != 0:
            raise ValidationError(f"{family.value} takes no degree")
        return tuple.__new__(cls, (family, degree))

    @classmethod
    def _make(cls, iterable) -> "ModelKind":
        return cls(*iterable)

    @property
    def label(self) -> str:
        if self.family is _F_POLYNOMIAL:
            return f"poly{self.degree}"
        return self.family.value

    @property
    def min_points(self) -> int:
        return self.degree + 1 if self.family is _F_POLYNOMIAL else 2

    @classmethod
    def parse(cls, token: str, default_degree: int = 2) -> "ModelKind":
        """Parse a CLI token: linear|exp|sinexp|cosexp|poly|polyN."""
        token = token.strip().lower()
        for family in ModelFamily:
            if token == family.value and family is not ModelFamily.POLYNOMIAL:
                return cls(family)
        if token == "poly":
            return cls(ModelFamily.POLYNOMIAL, default_degree)
        if token.startswith("poly") and token[4:].isdigit():
            try:  # int() refuses superscript digits and overlong digit runs
                return cls(ModelFamily.POLYNOMIAL, int(token[4:]))
            except ValueError:
                pass
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


def fit_linear(pairs: Sequence[tuple[float, float]]) -> LinearFit:
    """Ordinary least squares line through (t, v) pairs."""
    n = len(pairs)
    if n < 2:
        raise InsufficientDataError(f"linear fit needs at least 2 pairs, got {n}")
    t0 = pairs[0][0]
    if all(t == t0 for t, _ in pairs):
        raise DegenerateAbscissaError("all t values are equal; cannot fit a slope")
    vs = []
    st = sv = 0.0
    for t, v in pairs:
        vs.append(v)
        st += t
        sv += v
    if st - st != 0.0:  # a NaN or infinite t, or a sum past the float range
        for i, (t, _) in enumerate(pairs):
            if t - t != 0.0:
                raise DegenerateAbscissaError(
                    f"t value {t!r} at sample {i} is not "
                    + ("a number" if t != t else "finite"))
        raise DegenerateAbscissaError("the sum of the t values overflows")
    return _line(pairs, vs, st, sv)


def _line(samples: Sequence[tuple[float, float]], vs: list[float], st: float,
          sv: float) -> LinearFit:
    """The least-squares line through the t of ``samples`` and ``vs``, given
    the sums ``st`` and ``sv`` of both columns. The t values must not all be
    equal: ``fit_linear`` checks that, and a series' t is strictly increasing.

    Every sum is a plain left-to-right one, as the builtin sum() gives it
    before CPython 3.12, which compensates float sums, and every square is
    the product d * d, never d ** 2, which calls the C library's pow() and
    some libraries round wrongly: the same bits on every version and platform.
    """
    n = len(vs)
    t_mean = st / n
    v_mean = sv / n
    s_tt = s_tv = 0.0
    for (t, _), v in zip(samples, vs):
        d = t - t_mean
        s_tt += d * d
        s_tv += d * (v - v_mean)
    if s_tt == 0.0:
        raise DegenerateAbscissaError("t values are numerically indistinguishable")
    slope = s_tv / s_tt
    return tuple.__new__(LinearFit, (slope, v_mean - slope * t_mean))


def fit_model(series: AxisSeries, kind: ModelKind, clamp_nonpositive: bool = False) -> FitResult:
    """Fit ``kind`` to the series.

    Exponential-family kinds require every value positive unless
    ``clamp_nonpositive`` lifts offenders to CLAMP_FLOOR. They share one
    line on (t, ln v), which is kept on the series, one per clamp value,
    and each kind derives its intercept from it. That is safe because a
    series never changes. A DomainError is not kept, so each kind raises it
    under its own label.
    """
    samples = series._samples
    n = len(samples)
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
        a, b = fit_linear(samples)
    elif family is _F_POLYNOMIAL:
        coefficients = _fit_polynomial(samples, degree)
    else:
        a, c = _log_line(series, kind, clamp_nonpositive)
        b = c - _correction(family, a)
    return tuple.__new__(FitResult, (kind, a, b, coefficients, n))


def _log_line(series: AxisSeries, kind: ModelKind, clamp_nonpositive: bool) -> LinearFit:
    """The least-squares line on (t, ln v), kept on the series per clamp value.

    One pass checks or clamps each value, takes its log and sums both
    columns; ``_line`` makes the second.
    """
    line = series._log_line_clamped if clamp_nonpositive else series._log_line
    if line is not None:
        return line
    samples = series._samples
    logs = []
    st = sv = 0.0
    for t, v in samples:
        if v <= 0.0:
            if not clamp_nonpositive:
                raise DomainError(
                    f"non-positive value {v!r} at t={t!r} (sample {len(logs)}) "
                    f"under {kind.label} fit"
                )
            v = CLAMP_FLOOR
        v = math.log(v)
        logs.append(v)
        st += t
        sv += v
    line = _line(samples, logs, st, sv)
    if clamp_nonpositive:
        series._log_line_clamped = line
    else:
        series._log_line = line
    return line


# (ts, {degree: what _factor returned}) for the last t column a polynomial
# fit saw; a fit on a different column replaces it.
_factored: tuple = ((), {})


def _fit_polynomial(samples: Sequence[tuple[float, float]], degree: int) -> tuple[float, ...]:
    """Least-squares polynomial via the normal equations, ascending powers.

    The t-only work comes from ``_factor`` through the memo; this builds the
    right-hand side sum(v * t**k) and carries it through the recorded steps
    and the back-substitution.
    """
    global _factored
    ts, vs = zip(*samples)
    memo_ts, table = _factored  # one read, so the column and its table agree
    if memo_ts != ts:
        table = {}
        _factored = (ts, table)
    factors = table.get(degree)
    if factors is None:
        factors = table[degree] = _factor(ts, degree)
    if factors.__class__ is str:
        raise DegenerateAbscissaError(factors)
    steps, rows = factors
    # rhs[k] sums v * t**k left to right, with t**k built by repeated
    # multiplication from t, as the moments are.
    power = ts
    rhs = [reduce(add, vs, 0.0), reduce(add, map(mul, vs, power), 0.0)]
    for _ in range(1, degree):
        power = tuple(map(mul, power, ts))
        rhs.append(reduce(add, map(mul, vs, power), 0.0))
    for col, (pivot_row, eliminations) in enumerate(steps):
        if pivot_row != col:
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        pivot_rhs = rhs[col]
        for r, factor in eliminations:
            rhs[r] -= factor * pivot_rhs
    m = degree + 1
    out = [0.0] * m
    for row in range(degree, -1, -1):
        upper = rows[row]
        acc = rhs[row]
        for c in range(row + 1, m):
            acc -= upper[c] * out[c]
        out[row] = acc / upper[row]
    return tuple(out)


def _factor(ts: tuple[float, ...], degree: int) -> tuple | str:
    """The t-only half of a polynomial fit: Gaussian elimination with partial
    pivoting of the normal equations' Gram matrix, and a determinant guard.

    Returns each column's pivot row with its non-zero (row, factor) pairs,
    and the eliminated rows, whose upper triangle the back-substitution
    reads; or, for a system it refuses, the refusal message.

    The determinant (product of pivots) must stay above DETERMINANT_GUARD
    times the system's scale, taken as the product of the diagonal entries,
    and both must be finite: once either overflows, the ratio says nothing.
    For the Gram matrix of the normal equations that ratio is the
    determinant of the diagonally-normalized system, a range-invariant
    conditioning measure in [0, 1].
    """
    m = degree + 1
    # moments[k] = sum of t^k, k = 0 .. 2*degree
    moments = []
    power = (1.0,) * len(ts)
    for _ in range(2 * degree + 1):
        moments.append(reduce(add, power, 0.0))
        power = tuple(map(mul, power, ts))
    rows = [[moments[j + k] for k in range(m)] for j in range(m)]
    scale = 1.0
    for j in range(m):
        scale *= abs(rows[j][j])
    det = 1.0
    steps = []
    for col in range(m):
        pivot_row = max(range(col, m), key=lambda r: abs(rows[r][col]))
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        if pivot == 0.0:
            return "polynomial normal equations are singular for these t values"
        det *= pivot
        eliminations = []
        for r in range(col + 1, m):
            factor = rows[r][col] / pivot
            if factor != 0.0:
                for c in range(col, m):
                    rows[r][c] -= factor * rows[col][c]
                eliminations.append((r, factor))
        steps.append((pivot_row, tuple(eliminations)))
    # The comparison alone would pass a NaN on either side, or inf on both.
    if not (math.isfinite(det) and math.isfinite(scale)) or abs(det) < DETERMINANT_GUARD * scale:
        return "polynomial normal equations are ill-conditioned for these t values"
    return tuple(steps), tuple(map(tuple, rows))


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
    except OverflowError:
        raise PredictionRangeError(f"{kind.label} prediction overflows at t={t!r}") from None
    if not math.isfinite(value):
        raise PredictionRangeError(f"{kind.label} prediction overflows at t={t!r}")
    return value


def residual_rmse(fit: FitResult, series: AxisSeries) -> float:
    """Root-mean-square of predict(fit, t) - v over the series.

    When finite residuals have squares past the float range, they are summed
    again divided by the largest of them, which bounds the result, so the
    RMSE stays finite; only a residual past the float range gives inf.
    """
    samples = series.samples
    if not samples:
        raise InsufficientDataError("cannot compute RMSE of an empty series")
    n = len(samples)
    total = 0.0
    for t, v in samples:
        residual = predict(fit, t) - v
        total += residual * residual
    if total == math.inf:
        residuals = [predict(fit, t) - v for t, v in samples]
        m = max(map(abs, residuals))
        if m < math.inf:
            total = 0.0
            for residual in residuals:
                residual /= m
                total += residual * residual
            return m * math.sqrt(total / n)
    return math.sqrt(total / n)
