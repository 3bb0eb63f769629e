import ast
import math
import pickle
import random
import struct
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from trackcast import (
    COS_EXPONENTIAL,
    EXPONENTIAL,
    LINEAR,
    SIN_EXPONENTIAL,
    Axis,
    AxisSeries,
    DegenerateAbscissaError,
    DomainError,
    FitOverflowError,
    FitResult,
    InsufficientDataError,
    ModelKind,
    PredictionRangeError,
    SyntheticSpec,
    ValidationError,
    WindowConfig,
    batch_compare,
    build_series,
    compare,
    fit_linear,
    fit_model,
    polynomial,
    predict,
    predict_endpoint,
    regression,
    residual_rmse,
    synthesize,
    window,
)

EXP_FAMILY = (EXPONENTIAL, SIN_EXPONENTIAL, COS_EXPONENTIAL)


def series(values, axis=Axis.X):
    return AxisSeries(axis, tuple((float(t), float(v)) for t, v in values))


def exp_series(a, b, ts):
    return series([(t, math.exp(a * t + b)) for t in ts])


def normal_equations_line(pairs):
    # Independent oracle: closed-form 2x2 normal equations.
    n = len(pairs)
    st = sum(t for t, _ in pairs)
    sv = sum(v for _, v in pairs)
    stt = sum(t * t for t, _ in pairs)
    stv = sum(t * v for t, v in pairs)
    slope = (n * stv - st * sv) / (n * stt - st * st)
    return slope, (sv - slope * st) / n


def exact_polynomial(samples, degree):
    """Least-squares coefficients, ascending powers, from the normal equations
    solved exactly in ``fractions``: every float is a dyadic rational."""
    m = degree + 1
    mom = [sum(Fraction(t) ** k for t, _ in samples) for k in range(2 * degree + 1)]
    rhs = [sum(Fraction(v) * Fraction(t) ** k for t, v in samples) for k in range(m)]
    aug = [[mom[j + k] for k in range(m)] + [rhs[j]] for j in range(m)]
    for c in range(m):
        p = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c] / aug[c][c]
                for k in range(c, m + 1):
                    aug[r][k] -= f * aug[c][k]
    return [aug[j][m] / aug[j][j] for j in range(m)]


def exact_value(coefficients, t):
    return float(sum(c * Fraction(t) ** k for k, c in enumerate(coefficients)))


# Relative agreement of a polynomial fit with the exact solution, on values
# of at least unit scale: the benchmark's tolerance.
EXACT_TOLERANCE = 1e-9


class TestFitLinear:
    @pytest.mark.parametrize(
        "pairs,slope,intercept",
        [
            ([(0, 1), (1, 3)], 2.0, 1.0),
            ([(0, 0), (1, 1), (2, 2)], 1.0, 0.0),
            # oracle: (3*6 - 3*5) / (3*5 - 9) = 0.5; (5 - 0.5*3) / 3 = 7/6
            ([(0, 1), (1, 2), (2, 2)], 0.5, 7.0 / 6.0),
        ],
    )
    def test_examples(self, pairs, slope, intercept):
        fit = fit_linear(pairs)
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, abs=1e-12)

    def test_unsorted_and_repeated_t(self):
        # fit_linear takes pairs in any order. A t half reused by translation
        # from the half of 0..n-1 would need t strictly increasing by one: the
        # span test (last - first == n - 1) alone passes both columns below
        # and gives slope 1.5 for each.
        assert fit_linear([(0, 1.0), (2, 5.0), (1, 2.0), (3, 7.0)]).slope == 2.1
        assert tuple(fit_linear([(0.0, 1.0), (1.0, 5.0), (1.0, 2.0), (3.0, 7.0)])) == (
            1.9473684210526316, 1.3157894736842106)

    def test_any_empty_iterable_is_refused_as_no_pairs(self):
        # The pairs are read once, so an empty iterator is refused as [] is.
        for empty in ([], (), iter([]), (pair for pair in ()), zip((), ())):
            with pytest.raises(InsufficientDataError) as err:
                fit_linear(empty)
            assert str(err.value) == "linear fit needs at least 2 pairs, got 0"
        assert fit_linear(iter([(0, 1), (1, 3)])) == fit_linear([(0, 1), (1, 3)])

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(101)
        for _ in range(100):
            pairs = [(rng.uniform(-50, 50), rng.uniform(-100, 100)) for _ in range(8)]
            fit = fit_linear(pairs)
            slope, intercept = normal_equations_line(pairs)
            assert fit.slope == pytest.approx(slope, rel=1e-9, abs=1e-9)
            assert fit.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)

    def test_exact_recovery(self):
        rng = random.Random(7)
        for _ in range(200):
            slope = rng.uniform(-10, 10)
            intercept = rng.uniform(-10, 10)
            n = rng.randint(2, 50)
            ts = [i + rng.random() * 0.5 for i in range(n)]
            fit = fit_linear([(t, slope * t + intercept) for t in ts])
            assert abs(fit.slope - slope) <= 1e-9
            assert abs(fit.intercept - intercept) <= 1e-9

    def test_time_shift_covariance(self):
        pairs = [(t, 2.5 * t - 3.0) for t in range(12)]
        base = fit_linear(pairs)
        for delta in (-17.0, 4.5, 120.0):
            shifted = fit_linear([(t + delta, v) for t, v in pairs])
            assert abs(shifted.slope - base.slope) <= 1e-9
            assert abs(shifted.intercept - (base.intercept - base.slope * delta)) <= 1e-9

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientDataError):
            fit_linear([(0.0, 1.0)])
        for samples in ((), ((0.0, 1.0),)):  # a series, fitted from its columns
            with pytest.raises(InsufficientDataError):
                fit_linear(AxisSeries(Axis.X, samples))

    def test_degenerate_abscissa(self):
        with pytest.raises(DegenerateAbscissaError):
            fit_linear([(3.0, 1.0), (3.0, 2.0), (3.0, 5.0)])

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_nan_t_refused(self, at):
        pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]
        pairs[at] = (math.nan, pairs[at][1])
        with pytest.raises(DegenerateAbscissaError,
                           match=f"^t value nan at sample {at} is not a number$"):
            fit_linear(pairs)

    @pytest.mark.parametrize("pairs, message", [
        ([(0.0, 1.0), (1.0, 2.0), (math.inf, 4.0)], "t value inf at sample 2 is not finite"),
        ([(-math.inf, 1.0), (1.0, 2.0)], "t value -inf at sample 0 is not finite"),
        ([(-math.inf, 1.0), (math.inf, 2.0)], "t value -inf at sample 0 is not finite"),
        ([(0.0, 1.0), (math.inf, 2.0), (math.nan, 4.0)], "t value inf at sample 1 is not finite"),
        ([(1e308, 1.0), (1.7e308, 2.0)], "the sum of the t values overflows"),
    ], ids=["inf_last", "minus_inf_first", "both_infinities", "inf_before_nan", "sum_overflows"])
    def test_infinite_t_refused(self, pairs, message):
        with pytest.raises(DegenerateAbscissaError, match=f"^{message}$"):
            fit_linear(pairs)

    @pytest.mark.parametrize("pairs, at", [
        ([(10**400, 1.0), (10**400 + 1, 2.0)], 0),
        ([(0, 1.0), (1, 2.0), (-10**400, 4.0)], 2),
        ([(0.0, 1.0), (2**1024 - 2**970, 2.0)], 1),
    ], ids=["both", "last", "least_past_range"])
    def test_int_t_past_float_range_refused(self, pairs, at):
        with pytest.raises(DegenerateAbscissaError) as err:
            fit_linear(pairs)
        assert str(err.value) == f"t value {pairs[at][0]!r} at sample {at} is not finite"

    def test_value_sum_past_float_range(self):
        # The value sum is inf; the mean of the values divided by the largest
        # is not, so the line is the constant the values hold.
        fit = fit_linear([(0.0, 1e308), (1.0, 1e308), (2.0, 1e308)])
        assert (fit.slope, fit.intercept) == (0.0, 1e308)
        fit = fit_linear([(0.0, 1.5e308), (1.0, 1.7e308), (2.0, 1.6e308)])
        assert fit.slope == pytest.approx(0.05e308, rel=1e-15)
        assert fit.intercept == pytest.approx(1.55e308, rel=1e-15)

    def test_line_past_float_range_fitted_over_scaled_values(self):
        # v - mean overflows for these values, while the exact line, slope 0
        # and intercept 1.7e308 / 3, is in range.
        fit = fit_linear([(0.0, 1.7e308), (1.0, -1.7e308), (2.0, 1.7e308)])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(1.7e308 / 3, rel=1e-15)

    @pytest.mark.parametrize("pairs", [
        [(0.0, -1.7e308), (1e-10, 1.7e308)],
        [(1e10, 0.0), (1e10 + 1.0, 1e308)],
    ], ids=["slope", "intercept"])
    def test_line_past_float_range_refused(self, pairs):
        with pytest.raises(FitOverflowError,
                           match="^line coefficients pass the float range for these values$"):
            fit_linear(pairs)

    def test_squares_are_correctly_rounded(self):
        # glibc 2.36's pow() rounds this half-gap's square one unit too high;
        # a product is rounded correctly on every platform.
        d = float.fromhex("0x1.ff4127ba1a2a7p+5")
        square = float(Fraction(d) ** 2)
        assert fit_linear([(0.0, 0.0), (2 * d, 1.0)]).slope == d / (square + square)

    @pytest.mark.parametrize(
        "values,slope,intercept",
        [
            ([0.1] * 10, "0x0.0p+0", "0x1.9999999999999p-4"),
            ([0.1, 0.2, 0.3] * 3 + [0.1], "0x1.dca01dca01dcbp-10", "0x1.745d1745d1747p-3"),
        ],
        ids=["ten_tenths", "tenths_cycle"],
    )
    def test_plain_summation_on_every_version(self, values, slope, intercept):
        # The builtin sum() compensates float sums from CPython 3.12 on and
        # would give other bits here (intercept 0x1.999999999999ap-4 for the
        # ten tenths); the fit sums left to right on every version.
        fit = fit_linear([(float(t), v) for t, v in enumerate(values)])
        assert (fit.slope.hex(), fit.intercept.hex()) == (slope, intercept)


class TestFitModel:
    def test_constant_series_sinexp(self):
        s = series([(t, math.e) for t in range(10)])
        fit = fit_model(s, SIN_EXPONENTIAL)
        assert fit.a == pytest.approx(0.0, abs=1e-12)
        assert fit.b == pytest.approx(1.0, abs=1e-12)

    def test_exponential_exact_recovery(self):
        s = exp_series(0.2, 0.5, range(10))
        fit = fit_model(s, EXPONENTIAL)
        assert fit.a == pytest.approx(0.2, abs=1e-9)
        assert fit.b == pytest.approx(0.5, abs=1e-9)
        assert residual_rmse(fit, s) == pytest.approx(0.0, abs=1e-9)

    def test_sinexp_intercept_correction(self):
        fit = fit_model(exp_series(0.2, 0.5, range(10)), SIN_EXPONENTIAL)
        assert fit.a == pytest.approx(0.2, abs=1e-9)
        assert fit.b == pytest.approx(0.5 - math.sin(0.2), abs=1e-9)

    def test_cosexp_intercept_correction(self):
        fit = fit_model(exp_series(0.2, 0.5, range(10)), COS_EXPONENTIAL)
        assert fit.b == pytest.approx(0.5 - math.cos(0.2), abs=1e-9)

    def test_shared_slope_bit_identical(self):
        rng = random.Random(55)
        for _ in range(25):
            a, b = rng.uniform(-0.05, 0.05), rng.uniform(0, 4)
            s = series(
                [(t, math.exp(a * t + b + rng.uniform(-0.1, 0.1))) for t in range(20)]
            )
            fits = [fit_model(s, kind) for kind in EXP_FAMILY]
            assert fits[0].a == fits[1].a == fits[2].a
            assert abs((fits[0].b - fits[1].b) - math.sin(fits[0].a)) <= 1e-12
            assert abs((fits[0].b - fits[2].b) - math.cos(fits[0].a)) <= 1e-12

    def test_linear_kind_wraps_fit_linear(self):
        pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)]
        fit = fit_model(series(pairs), LINEAR)
        line = fit_linear(pairs)
        assert (fit.a, fit.b) == (line.slope, line.intercept)

    def test_polynomial_reproduces_exact_data(self):
        rng = random.Random(31)
        for degree in (1, 2, 3, 4):
            coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]
            ts = [float(t) for t in range(-5, 25)]
            data = [(t, sum(c * t**k for k, c in enumerate(coeffs))) for t in ts]
            fit = fit_model(series(data), polynomial(degree))
            for t, v in data:
                assert predict(fit, t) == pytest.approx(v, rel=1e-6, abs=1e-6)

    def test_polynomial_matches_exact_fraction_oracle(self):
        rng = random.Random(321)
        for _ in range(60):
            degree = rng.randint(1, 4)
            n = rng.randint(degree + 3, 30)
            samples = tuple(
                (round(t + rng.random() * 0.3, 6), round(rng.uniform(-50, 50), 6))
                for t in range(n)
            )
            fit = fit_model(series(samples), polynomial(degree))
            oracle = exact_polynomial(samples, degree)
            for t in (samples[0][0], samples[-1][0], samples[-1][0] + 25.0):
                expected = exact_value(oracle, t)
                assert predict(fit, t) == pytest.approx(expected, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("n", [21, 31, 100])
    @pytest.mark.parametrize("degree", range(2, 9))
    @pytest.mark.parametrize("shape", ["frames", "offset", "irregular"])
    def test_polynomial_agrees_with_exact_solution(self, shape, degree, n):
        # Frames 0..n-1, the same frames from 30, and irregular steps from
        # 0; noisy growth of unit scale or more. Read at the first t, the
        # last t and 60 past it, where the benchmark scores its forecasts.
        rng = random.Random(degree * 1000 + n)
        if shape == "irregular":
            ts = [0.0]
            for _ in range(n - 1):
                ts.append(ts[-1] + rng.uniform(0.25, 1.75))
        else:
            ts = [float(t + (30 if shape == "offset" else 0)) for t in range(n)]
        samples = tuple((t, 80.0 * math.exp(0.01 * t) + rng.gauss(0.0, 3.0)) for t in ts)
        try:
            fit = fit_model(series(samples), polynomial(degree))
        except DegenerateAbscissaError as err:
            # Only the far-from-0 frames at high degree are refused.
            assert (shape, str(err)) == (
                "offset", "polynomial fit is ill-conditioned for these t values")
            assert degree >= 7
            return
        oracle = exact_polynomial(samples, degree)
        for t in (ts[0], ts[-1], ts[-1] + 60.0):
            expected = exact_value(oracle, t)
            assert abs(predict(fit, t) - expected) <= EXACT_TOLERANCE * max(1.0, abs(expected))

    def test_poly5_is_available_on_a_paper_window(self):
        # The benchmark's batch_paper shape: 100 frames, fitted on t = 0..30
        # and scored 60 frames on. Every poly5 row used to be refused there.
        spec = SyntheticSpec(a_x=0.012, b_x=2.5, a_y=0.02, b_y=3.1, n_frames=100,
                             noise_sigma=0.02, shake_prob=0.2, shake_scale=1.5, seed=7)
        xs, ys = synthesize(spec)
        (report,) = compare(xs, ys, [polynomial(5)], 30.0, WindowConfig(horizon=60))
        assert report.failure is None
        for s, predicted in zip((xs, ys), report.predicted):
            oracle = exact_polynomial(s.samples[:31], 5)
            expected = exact_value(oracle, 90.0)
            assert abs(predicted - expected) <= EXACT_TOLERANCE * max(1.0, abs(expected))

    def test_polynomial_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_model(series([(0, 1), (1, 2)]), polynomial(2))

    def test_polynomial_conditioning_guard(self):
        # t values so tightly clustered the quadratic cannot be resolved
        ts = [1.0, 1.0 + 1e-13, 1.0 + 2e-13]
        with pytest.raises(DegenerateAbscissaError):
            fit_model(series([(t, t * 2) for t in ts]), polynomial(2))

    @pytest.mark.parametrize("degree", [20, 50, 60])
    def test_polynomial_overflowing_system_refused(self, degree):
        # On 1000 frames the raw-t coefficients of these degrees cannot hold
        # the fit: rounding in them could move a value by 28 (poly20) to 3e32
        # (poly60) times the data's scale.
        s = series([(t, 1.0 + t) for t in range(1000)])
        with pytest.raises(DegenerateAbscissaError) as err:
            fit_model(s, polynomial(degree))
        assert str(err.value) == "polynomial fit is ill-conditioned for these t values"

    @pytest.mark.parametrize("values", [
        (1.7e308, -1.7e308, 1.7e308), (1.7e308, 1.79e308, -1.7e308), (0.0, 1.7e308, 0.0),
    ], ids=["partial_sum_overflows", "inf_minus_inf", "product_overflows"])
    def test_polynomial_coefficients_past_float_range_refused(self, values):
        # Finite values whose weighted sums leave the float range: fsum
        # raises OverflowError, or ValueError once two products overflow with
        # opposite signs, or returns an infinite coefficient. The retry on the
        # values divided by the largest still gives a coefficient past the
        # range: exactly 3.4e308, 1.88e308 and 3.4e308.
        s = series(list(enumerate(values)))
        with pytest.raises(FitOverflowError) as err:
            fit_model(s, polynomial(2))
        assert str(err.value) == "polynomial coefficients pass the float range for these values"

    def test_polynomial_of_values_near_the_float_limit(self):
        # The weighted sums overflow, though the fit, 1.7e308 on every t, does
        # not: the retry on the values divided by 1.7e308 fits it.
        s = series([(t, 1.7e308) for t in range(3)])
        c0, c1, c2 = fit_model(s, polynomial(2)).coefficients
        assert c0 == 1.7e308 and abs(c1) < 1e293 and abs(c2) < 1e293
        for t in range(3):
            assert predict(fit_model(s, polynomial(2)), t) == pytest.approx(1.7e308, rel=1e-15)

    @pytest.mark.parametrize("kind", [LINEAR, *EXP_FAMILY], ids=lambda k: k.label)
    def test_t_sum_overflow_refused_by_every_line(self, kind):
        s = series([(1e308, 1.0), (1.7e308, 2.0)])
        with pytest.raises(DegenerateAbscissaError, match="^the sum of the t values overflows$"):
            fit_model(s, kind)

    def test_nonpositive_value_rejected(self):
        s = series([(0, 1.0), (1, 2.0), (2, 0.0)])
        for kind in EXP_FAMILY:
            with pytest.raises(DomainError) as err:
                fit_model(s, kind)
            assert "t=2.0" in str(err.value)

    def test_nonpositive_value_clamped_on_request(self):
        s = series([(0, 1.0), (1, 2.0), (2, -5.0)])
        fit = fit_model(s, EXPONENTIAL, clamp_nonpositive=True)
        # clamp floor 1e-9 enters the log fit in place of -5
        oracle = fit_linear([(0.0, 0.0), (1.0, math.log(2.0)), (2.0, math.log(1e-9))])
        assert fit.a == oracle.slope
        assert fit.b == oracle.intercept

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_model(series([(0, 1)]), EXPONENTIAL)

    def test_deterministic(self):
        s = exp_series(0.03, 1.7, range(40))
        assert fit_model(s, SIN_EXPONENTIAL) == fit_model(s, SIN_EXPONENTIAL)

    def test_polynomial_degree_validation(self):
        with pytest.raises(ValidationError):
            polynomial(0)

    def test_polynomial_degree_beyond_any_stream(self):
        assert polynomial(2**53).degree == 2**53
        with pytest.raises(ValidationError) as err:
            polynomial(2**53 + 1)
        assert str(err.value) == f"polynomial degree must be <= {2**53}"


def bits(call):
    """Coefficient bits a call returns, or the type and message it raises."""
    try:
        return tuple(struct.pack("<d", c) for c in call())
    except DegenerateAbscissaError as exc:
        return type(exc), str(exc)


def fresh_bits(s, degree):
    """The bits of a polynomial fit of series ``s`` factored afresh: the memo's
    uncached function gives a new table, so the fit reads no earlier column's
    work and leaves the memo as it was."""
    memo = regression._factored
    regression._factored = memo.__wrapped__
    try:
        return bits(lambda: regression._fit_polynomial(s._ts, s._vs, degree))
    finally:
        regression._factored = memo


def holds(memo, key):
    """Whether the one-entry cache ``memo`` holds ``key``: a call on it hits."""
    hits = memo.cache_info().hits
    memo(key)
    return memo.cache_info().hits == hits + 1


class TestPolynomialMemo:
    """The t-only half of a polynomial fit is kept per t column and degree;
    each fit still gives the bits of a fit factored afresh."""

    @staticmethod
    def count_factor_steps(monkeypatch):
        calls = []

        def counted(ts, degree):
            calls.append((ts, degree))
            return factor(ts, degree)

        factor = regression._factor
        monkeypatch.setattr(regression, "_factor", counted)
        regression._factored.cache_clear()
        return calls

    def test_matches_reference_bit_for_bit(self):
        rng = random.Random(1010)
        windows = []
        for i in range(150):
            n = rng.randint(6, 40)
            start = (0.0, 1000.5, -17.25, 2.0**30)[i % 4]  # raw, then offset t
            if i % 3 == 2:
                ts = [start]
                for _ in range(n - 1):
                    ts.append(ts[-1] + rng.uniform(0.01, 3.0))
            else:
                ts = [start + t for t in range(n)]
            windows.append(ts)
        # A -0.0 column then its equal 0.0 column, which the memo takes as the same key.
        windows += [[-0.0, *map(float, range(1, 31))], [0.0, *map(float, range(1, 31))]]
        outcomes = set()
        for ts in windows:
            xs = series([(t, rng.uniform(-500.0, 500.0)) for t in ts], Axis.X)
            ys = series([(t, rng.gauss(100.0, 30.0)) for t in ts], Axis.Y)
            for degree in (2, 5, 2):
                for s in (xs, ys):
                    expected = fresh_bits(s, degree)
                    assert bits(lambda: fit_model(s, polynomial(degree)).coefficients) == expected
                    outcomes.add(expected[1] if expected[0] is DegenerateAbscissaError
                                 else "fitted")
        assert outcomes == {"fitted", "polynomial fit is ill-conditioned for these t values"}

    def test_one_factor_step_per_column_and_degree_over_compare(self, monkeypatch):
        calls = self.count_factor_steps(monkeypatch)
        kinds = (polynomial(2), SIN_EXPONENTIAL, polynomial(5), polynomial(2), LINEAR)
        rng = random.Random(5)
        xs = series([(t, rng.uniform(1.0, 9.0)) for t in range(40)], Axis.X)
        ys = series([(t, rng.uniform(1.0, 9.0)) for t in range(40)], Axis.Y)
        for cutoff in (30.0, 20.0, 20.0):
            compare(xs, ys, kinds, cutoff, WindowConfig(horizon=5))
        assert [(len(ts), degree) for ts, degree in calls] == [(31, 2), (31, 5), (21, 2), (21, 5)]
        assert regression._factored.cache_info().currsize == 1  # one column kept at a time

    def test_one_factor_step_per_column_and_degree_over_a_batch(self, monkeypatch):
        calls = self.count_factor_steps(monkeypatch)
        specs = [SyntheticSpec(a_x=0.01, b_x=2.0, a_y=0.02, b_y=3.0, n_frames=91 + i % 2,
                               noise_sigma=0.02, seed=i) for i in range(10)]
        kinds = (*EXP_FAMILY, polynomial(2), LINEAR, polynomial(5))
        for cutoff in (30.0, 25.0):
            reports = batch_compare(specs, kinds, cutoff, WindowConfig(horizon=60))
            assert [r.failure for rows in reports for r in rows] == [None] * 60
        assert [(len(ts), degree) for ts, degree in calls] == [(31, 2), (31, 5), (26, 2), (26, 5)]

    def test_threads_sharing_the_memo_get_the_reference_bits(self, monkeypatch):
        # More threads than cores switching every microsecond, over three degrees:
        # seven fit on one t column, and one alternates it with another, so the
        # memo is replaced under the others. Each factor step ends by yielding the
        # interpreter lock, so another thread runs between factoring and storing.
        # A thread that paired one column with the other's factors would get bits
        # the reference does not give.
        rng = random.Random(77)
        columns = []
        for ts in (range(31), range(5, 26)):
            s = series([(t, rng.uniform(1.0, 50.0)) for t in ts])
            columns.append([(s, degree, fresh_bits(s, degree)) for degree in (2, 3, 5)])
        assert all(expected[0].__class__ is bytes for column in columns
                   for _, _, expected in column)
        factor = regression._factor

        def yielding(ts, degree):
            factors = factor(ts, degree)
            time.sleep(0)
            return factors

        monkeypatch.setattr(regression, "_factor", yielding)
        wrong = []

        def work(seed):
            order = random.Random(seed)
            for i in range(300):
                s, degree, expected = order.choice(columns[i % 2 if seed == 0 else 0])
                if bits(lambda: fit_model(s, polynomial(degree)).coefficients) != expected:
                    wrong.append((s.samples[0][0], degree))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_line_fits_leave_the_memo(self, monkeypatch):
        # A line takes its t half from the whole-frame template or from _center,
        # never from this memo: linear, exp and sinexp fits on a gapped window
        # and on a series the public constructor built, and a linear fit on raw
        # pairs, leave the memo as they found it, so a polynomial fit on the
        # column it holds factors nothing again.
        calls = self.count_factor_steps(monkeypatch)
        xs, _ = whole_stream([*range(20), *range(30, 60)], random.Random(6))
        held = window(xs, WindowConfig(length=12), 45.0)
        fit_model(held, polynomial(2))
        assert holds(regression._factored, held._ts) and len(calls) == 1
        table = regression._factored(held._ts)
        assert list(table) == [2]
        info = regression._factored.cache_info()
        gapped = window(xs, WindowConfig(length=8), 33.0)
        unmarked = AxisSeries(Axis.X, xs.samples[:10])
        assert gapped._whole and gapped._ts[-1] - gapped._ts[0] != 7 and not unmarked._whole
        for s in (gapped, unmarked):
            for kind in (LINEAR, EXPONENTIAL, SIN_EXPONENTIAL):
                fit_model(s, kind)
        fit_linear(list(zip((0.0, 2.0, 1.0, 3.0), (1.0, 5.0, 2.0, 7.0))))
        assert regression._factored.cache_info() == info  # neither read nor replaced
        assert regression._factored(held._ts) is table and list(table) == [2]
        fit_model(held, polynomial(2))
        assert len(calls) == 1

    def test_each_refusal_is_a_new_exception(self, monkeypatch):
        # poly12 on 31 frames passes the bound; on 600 frames p_599's values
        # underflow, so its squared norm is 0. The memo keeps weight rows only:
        # a refused column leaves no entry and is factored again on each call.
        calls = self.count_factor_steps(monkeypatch)
        for ts, degree, message in (
                (range(31), 12, "polynomial fit is ill-conditioned for these t values"),
                (range(600), 599, "polynomial fit is singular for these t values")):
            s = series([(t, t * 2.0) for t in ts])
            raised = []
            for _ in range(2):
                with pytest.raises(DegenerateAbscissaError) as err:
                    fit_model(s, polynomial(degree))
                raised.append(err.value)
            assert raised[0] is not raised[1]
            assert str(raised[0]) == str(raised[1]) == message
            assert regression._factored(s._ts) == {}
        assert [(len(ts), degree) for ts, degree in calls] == [(31, 12)] * 2 + [(600, 599)] * 2


class TestModelKindParse:
    @pytest.mark.parametrize("token, degree", [
        ("poly3", 3), (" POLY03 ", 3), ("poly٣", 3), ("poly𝟛", 3), ("poly", 2),
    ])
    def test_polynomial_tokens(self, token, degree):
        assert ModelKind.parse(token) == polynomial(degree)

    @pytest.mark.parametrize("token", [
        "poly²", "poly³", "poly+3", "poly 3", "poly-1", "poly" + "9" * 5000, "cubic",
    ], ids=["superscript_2", "superscript_3", "plus", "space", "minus",
            "over_int_digit_limit", "cubic"])
    def test_unknown_tokens(self, token):
        with pytest.raises(ValidationError) as err:
            ModelKind.parse(token)
        assert str(err.value) == f"unknown model '{token}'"


class TestSharedLogLine:
    @staticmethod
    def count_line_fits(monkeypatch):
        calls = []
        line = regression._line

        def counted(ts, vs, whole):
            calls.append(len(vs))
            return line(ts, vs, whole)

        monkeypatch.setattr(regression, "_line", counted)
        return calls

    def test_one_line_per_series_and_clamp_value(self, monkeypatch):
        # The series keeps its last line with its clamp value: the kinds share
        # it under one clamp value, and a change of clamp value fits afresh.
        calls = self.count_line_fits(monkeypatch)
        values = [(t, 2.0 + math.sin(t)) for t in range(12)]
        for order, kept_fits in (((False, True, False, True), 4),
                                 ((False, False, True, True), 2)):
            calls.clear()
            s = series(values)
            for clamp in order:
                for kind in EXP_FAMILY:
                    assert fit_model(s, kind, clamp) == fit_model(series(values), kind, clamp)
            # the fresh copies fit 12 lines, the shared series one per run of a clamp value
            assert len(calls) == 12 + kept_fits, order

    def test_t_half_once_per_column(self, monkeypatch):
        # Whole-frame windows of one length share the t half of 0 .. n-1, x
        # then y, for the log-line and the linear fit alike, at every cutoff;
        # a window of another length computes its own. A line through pairs,
        # which may come in any order, computes its own column's half.
        calls = []
        center = regression._center

        def counted(ts):
            calls.append(ts)
            return center(ts)

        monkeypatch.setattr(regression, "_center", counted)
        regression._whole_half.cache_clear()
        xs, ys = synthesize(SyntheticSpec(a_x=0.01, b_x=2.0, a_y=0.02, b_y=3.0, n_frames=40))
        config = WindowConfig(length=10)
        for kind in (SIN_EXPONENTIAL, LINEAR):
            for s in (xs, ys):
                fit_model(window(s, config, 20.0), kind)
        assert calls == [tuple(map(float, range(10)))]
        for s in (xs, ys):
            fit_model(window(s, config, 25.0), EXPONENTIAL)
        assert len(calls) == 1
        # A line through pairs computes its own column's half, with the same bits.
        assert fit_linear(list(zip(range(16, 26), ys._vs[16:26]))) == \
            fit_model(window(ys, config, 25.0), LINEAR)[1:3]
        assert calls[1:] == [tuple(range(16, 26))]
        for s in (xs, ys):
            fit_model(window(s, WindowConfig(length=12), 30.0), EXPONENTIAL)
        assert calls[2:] == [tuple(map(float, range(12)))]

    # Each refusal of a t column with no slope reaches the caller as a
    # DegenerateAbscissaError with its own text, however the line was asked for.
    @pytest.mark.parametrize("fit, message", [
        (lambda: fit_linear([(3.0, 1.0), (3.0, 2.0), (3.0, 5.0)]),
         "all t values are equal; cannot fit a slope"),
        (lambda: fit_linear([(0.0, 1.0), (math.nan, 2.0)]),
         "t value nan at sample 1 is not a number"),
        (lambda: fit_model(series([(1e308, 1.0), (1.7e308, 2.0)]), SIN_EXPONENTIAL),
         "the sum of the t values overflows"),
        (lambda: fit_model(series([(1e-200, 1.0), (2e-200, 2.0)]), EXPONENTIAL),
         "t values are numerically indistinguishable"),
    ], ids=["equal_pairs", "nan_pair", "t_sum_overflows", "indistinguishable"])
    def test_t_column_refusals(self, fit, message):
        for _ in range(2):  # nothing is kept between two calls
            with pytest.raises(DegenerateAbscissaError) as err:
                fit()
            assert type(err.value) is DegenerateAbscissaError and str(err.value) == message

    def test_domain_error_names_each_kind(self):
        s = series([(t, 0.0 if t == 4 else t + 1.0) for t in range(8)])
        for kind in EXP_FAMILY:
            with pytest.raises(DomainError) as err:
                fit_model(s, kind)
            assert f"under {kind.label} fit" in str(err.value)
        for kind in EXP_FAMILY:
            clamped = fit_model(s, kind, clamp_nonpositive=True)
            assert clamped == fit_model(series(s.samples), kind, clamp_nonpositive=True)
        with pytest.raises(DomainError):
            fit_model(s, EXPONENTIAL)


def count_centers(monkeypatch):
    """The t columns ``_center`` is called on from here on, ``_whole_half`` emptied."""
    calls = []
    center = regression._center

    def counted(ts):
        calls.append(ts)
        return center(ts)

    monkeypatch.setattr(regression, "_center", counted)
    regression._whole_half.cache_clear()
    return calls


def line_hex(call):
    return tuple(map(float.hex, call()))


def whole_stream(frames, rng):
    """X and Y series by ``build_series`` at the whole ``frames``, positive values."""
    return build_series([(float(t), rng.uniform(50.0, 600.0), rng.uniform(50.0, 400.0))
                         for t in frames])


class TestWholeFrameTemplate:
    """A line on a gap-free window of whole-frame t takes the t half of
    0 .. n-1 moved by its first t, with the bits ``_center`` gives its own
    column; ``_center`` computes any other column's half afresh."""

    def test_bit_identical_to_center(self, monkeypatch):
        # Offsets up to the guard n * max(|first|, |last|) < 2**53, where every
        # partial t sum is an exact integer, and one step past it on either side,
        # where the path is not taken.
        center = regression._center
        calls = count_centers(monkeypatch)
        rng = random.Random(2201)
        for n in (2, 3, 31, 32, 999, 1000, *(rng.randint(2, 1000) for _ in range(200))):
            bound = (2**53 - 1) // n  # the largest |t| the guard admits
            firsts = (0, -(n // 2), rng.randint(-bound, bound - n + 1), rng.randint(-99, 99),
                      bound - n + 1, -bound, bound - n + 2, -bound - 1)
            vs = [rng.uniform(-1e3, 1e3) for _ in range(n)]
            for first in firsts:
                ts = tuple(map(float, range(first, first + n)))
                del calls[:]
                fast = line_hex(lambda: regression._line(ts, vs, True))
                taken = all(c is not ts for c in calls)
                assert taken == (n * max(-first, first + n - 1) < 2**53), (n, first)
                assert fast == line_hex(lambda: regression._line(ts, vs, False)), (n, first)
                if taken:
                    assert holds(regression._whole_half, n)
                    t_mean, ds, s_tt = regression._whole_half(n)
                    expected_mean, expected_ds, expected_s_tt = center(ts)
                    assert (t_mean + ts[0]).hex() == expected_mean.hex()
                    assert list(map(float.hex, ds)) == list(map(float.hex, expected_ds))
                    assert s_tt.hex() == expected_s_tt.hex()

    def test_windows_of_a_parent_with_a_gap(self, monkeypatch):
        # Frames 20-29 are missing. A window before the gap, one ending on
        # it, one across it and one after it fit the bits of an unmarked copy;
        # only the window across it computes its own t half.
        calls = count_centers(monkeypatch)
        xs, ys = whole_stream([*range(20), *range(30, 60)], random.Random(5))
        assert xs._whole and ys._whole
        copies = [AxisSeries(s.axis, s.samples) for s in (xs, ys)]
        config = WindowConfig(length=8)
        for cutoff, gapped in ((15.0, False), (25.0, False), (33.0, True), (45.0, False)):
            for s, copy in zip((xs, ys), copies):
                marked = window(s, config, cutoff)
                assert marked._whole and not window(copy, config, cutoff)._whole
                for kind in (LINEAR, SIN_EXPONENTIAL):
                    del calls[:]
                    got = fit_model(marked, kind)
                    assert any(c is marked._ts for c in calls) == gapped
                    assert got == fit_model(window(copy, config, cutoff), kind)

    def test_columns_that_never_take_the_path(self, monkeypatch):
        calls = count_centers(monkeypatch)
        vs = (1.0, 5.0, 2.0, 7.0)
        # Not all whole, though the ends lie n - 1 apart: build_series leaves it unmarked.
        xs, _ = build_series([(0.0, 1.0, 1.0), (0.5, 2.0, 2.0), (2.0, 4.0, 3.0)])
        assert not xs._whole
        # An int t is not a float holding a whole number.
        ints, _ = build_series([(t, v, v) for t, v in enumerate(vs)])
        assert not ints._whole
        # The public constructor runs no whole-number test.
        public = AxisSeries(Axis.X, tuple(zip(map(float, range(4)), vs)))
        assert not public._whole
        for s in (xs, ints, public):
            del calls[:]
            fit_model(s, EXPONENTIAL)
            assert calls == [s._ts]
        # Pairs may come in any order, so the span test alone would give slope 1.5.
        del calls[:]
        assert fit_linear(list(zip((0.0, 2.0, 1.0, 3.0), vs))).slope == 2.1
        assert calls == [(0.0, 2.0, 1.0, 3.0)]
        assert regression._whole_half.cache_info().currsize == 0

    def test_rolling_replay_takes_one_half_per_window_length(self, monkeypatch):
        # A live tracker's replay at 250 cutoffs of a stream with gaps early in
        # its history: one _center call for all 500 line fits, and the bits of
        # the same replay on unmarked copies.
        rng = random.Random(22)
        frames = [t for t in range(1500) if t > 400 or t % 7]
        xs, ys = whole_stream(frames, rng)
        copies = [AxisSeries(s.axis, s.samples) for s in (xs, ys)]
        config = WindowConfig(length=32, horizon=60)
        cutoffs = [float(t) for t in frames[-250:]]
        expected = [predict_endpoint(*copies, SIN_EXPONENTIAL, config, c) for c in cutoffs]
        calls = count_centers(monkeypatch)
        assert [predict_endpoint(xs, ys, SIN_EXPONENTIAL, config, c)
                for c in cutoffs] == expected
        assert calls == [tuple(map(float, range(32)))]

    def test_growing_windows_keep_one_template(self, monkeypatch):
        calls = count_centers(monkeypatch)
        xs, _ = whole_stream(range(40), random.Random(8))
        config = WindowConfig()  # the whole history: each cutoff a new length
        for cutoff in range(1, 40):
            fit_model(window(xs, config, float(cutoff)), LINEAR)
            assert holds(regression._whole_half, cutoff + 1)
            assert regression._whole_half.cache_info().currsize == 1
        assert calls == [tuple(map(float, range(n))) for n in range(2, 41)]
        fit_model(window(xs, config, 9.0), LINEAR)  # length 10 again is computed again
        assert calls[-1] == tuple(map(float, range(10))) and len(calls) == 40

    def test_threads_sharing_the_template_get_the_reference_bits(self, monkeypatch):
        # More threads than cores switching every microsecond over windows of
        # three lengths, so the template is replaced under the others; each
        # template step ends by yielding the interpreter lock. A thread that
        # paired one length with another's half would get other bits.
        rng = random.Random(78)
        xs, _ = whole_stream(range(200), rng)
        copy = AxisSeries(xs.axis, xs.samples)
        cases = []
        for length in (9, 17, 32):
            config = WindowConfig(length=length)
            for cutoff in (60.0, 120.0, 199.0):
                cases.append((window(xs, config, cutoff)._ts, window(xs, config, cutoff)._vs,
                              line_hex(lambda: fit_linear(window(copy, config, cutoff)))))
        center = regression._center

        def yielding(ts):
            half = center(ts)
            time.sleep(0)
            return half

        monkeypatch.setattr(regression, "_center", yielding)
        regression._whole_half.cache_clear()
        wrong = []

        def work(seed):
            order = random.Random(seed)
            for _ in range(300):
                ts, vs, expected = order.choice(cases)
                if line_hex(lambda: regression._line(ts, vs, True)) != expected:
                    wrong.append(len(ts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def test_no_module_rebinds_a_global():
    # Module state that outlives a call is kept by functools caches, whose
    # cache_clear and cache_info tests read, never by a function that
    # rebinds a module-level name.
    modules = sorted(Path(regression.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [(path.name, node.lineno) for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def log_stream(frames, rng, bad=None):
    """X and Y series by ``build_series`` at the whole ``frames``, positive
    values but for ``bad``, a map from a frame to the X value it holds."""
    bad = bad or {}
    return build_series([(float(t), bad.get(t, rng.uniform(50.0, 600.0)),
                          rng.uniform(50.0, 400.0)) for t in frames])


def replay_steps(rng, count, last):
    """(length, cutoff) pairs of a random replay: forward by 1 most often,
    forward by several frames, back, or to another length (None, the whole
    history, included), with cutoffs from before the first frame to past the last."""
    length, cutoff = 16, 20
    for _ in range(count):
        r = rng.random()
        if r < 0.5:
            cutoff += 1
        elif r < 0.7:
            cutoff += rng.randint(2, 40)
        elif r < 0.85:
            cutoff -= rng.randint(1, 40)
        else:
            length = rng.choice((None, 2, 3, 8, 16, 31, 64))
        cutoff = min(max(cutoff, -3), last + 3)
        yield length, float(cutoff)


def fit_outcome(s, kind, clamp, t_target):
    """The fit's and its prediction's bits, or the text of what it raised."""
    try:
        fit = fit_model(s, kind, clamp)
    except (DomainError, InsufficientDataError, FitOverflowError) as exc:
        return type(exc).__name__, str(exc)
    try:
        value = predict(fit, t_target).hex()
    except PredictionRangeError as exc:
        value = str(exc)
    return fit.a.hex(), fit.b.hex(), fit.n_points, value


def counting_logs(monkeypatch):
    """The number of ``math.log`` calls from here on, one list entry each."""
    calls = []
    log = math.log

    def counted(v):
        calls.append(v)
        return log(v)

    monkeypatch.setattr(math, "log", counted)
    return calls


class TestRollingLogHeads:
    """A window that begins inside the window kept before it takes the logs
    of the samples the two share, and its line logs only its other values,
    with the bits a fresh window gives."""

    def test_random_replays_match_fresh_windows(self):
        # A zero, a negative value and a NaN enter and leave the X windows;
        # each step fits the kept parent's window and the same window of a
        # pickle copy, which has no kept window and so no head.
        rng = random.Random(2301)
        bad = {90: 0.0, 150: -2.5, 210: math.nan, 211: math.nan, 300: 0.0}
        parents = log_stream(range(400), rng, bad)
        taken = 0
        for length, cutoff in replay_steps(rng, 700, 399):
            config = WindowConfig(length=length, horizon=7)
            clamp = rng.random() < 0.5
            for parent in parents:
                fresh = window(pickle.loads(pickle.dumps(parent)), config, cutoff)
                assert fresh._logs == ()
                windowed = window(parent, config, cutoff)
                head = windowed._logs
                taken += bool(head)
                assert len(head) <= len(windowed._vs)
                for kind in EXP_FAMILY:
                    assert fit_outcome(windowed, kind, clamp, cutoff + 7) == \
                        fit_outcome(fresh, kind, clamp, cutoff + 7), (length, cutoff, kind)
                logs = windowed._logs
                assert len(logs) <= len(windowed._vs)
                assert list(map(float.hex, logs)) == \
                    [math.log(v).hex() for v in windowed._vs[:len(logs)]]
        assert taken > 700  # most steps of both axes took a head

    def test_domain_error_text_of_a_head(self):
        # The zero enters a window whose head was taken from the window
        # before: the refusal names the same sample as on a fresh window.
        xs, _ = log_stream(range(60), random.Random(4), {40: 0.0})
        config = WindowConfig(length=10)
        fit_model(window(xs, config, 39.0), EXPONENTIAL)
        windowed = window(xs, config, 40.0)
        assert len(windowed._logs) == 9
        fresh = window(pickle.loads(pickle.dumps(xs)), config, 40.0)
        for kind in EXP_FAMILY:
            with pytest.raises(DomainError) as got:
                fit_model(windowed, kind)
            with pytest.raises(DomainError) as expected:
                fit_model(fresh, kind)
            assert str(got.value) == str(expected.value) == \
                f"non-positive value 0.0 at t=40.0 (sample 9) under {kind.label} fit"
        assert len(windowed._logs) == 9 and fresh._logs == ()  # a refusal stores no column

    def test_one_log_per_step(self, monkeypatch):
        calls = counting_logs(monkeypatch)
        xs, _ = log_stream(range(200), random.Random(6))
        config = WindowConfig(length=32)

        def logs_taken(cutoff, kind=SIN_EXPONENTIAL, length=32):
            del calls[:]
            fit_model(window(xs, WindowConfig(length=length), cutoff), kind)
            return len(calls)

        assert logs_taken(100.0) == 32  # the first window logs every value
        assert [logs_taken(c) for c in (101.0, 102.0, 103.0)] == [1, 1, 1]
        assert logs_taken(103.0, EXPONENTIAL) == 0  # the same window keeps its line
        assert logs_taken(108.0) == 5  # forward by 5: the 27 shared logs are taken
        assert logs_taken(107.0) == 32  # a backward jump starts before the head
        assert logs_taken(200.0) == 32  # a window far ahead shares nothing
        assert logs_taken(199.0, length=40) == 40  # a longer window starts before it
        assert logs_taken(195.0, length=8) == 8  # one that ends before its logs' end
        assert logs_taken(199.0, length=40) == 40
        assert logs_taken(199.0, length=8) == 0  # one that ends with them takes their tail
        assert logs_taken(199.0, length=None) == 200
        assert logs_taken(199.5, length=None) == 0  # the same samples, a new key
        assert [logs_taken(c, kind) for c in (150.0, 151.0)
                for kind in (LINEAR, polynomial(2), polynomial(5))] == [0] * 6
        assert logs_taken(151.0) == 32  # the linear and polynomial windows logged nothing
        assert logs_taken(152.0) == 1

    def test_nonpositive_values_store_no_column(self, monkeypatch):
        # A window that refuses or clamps a value logs all of them and stores
        # none, so the next window takes only the head it was given.
        xs, _ = log_stream(range(80), random.Random(9), {50: -1.0})
        config = WindowConfig(length=10)
        fit_model(window(xs, config, 49.0), EXPONENTIAL)
        calls = counting_logs(monkeypatch)
        clamped = window(xs, config, 50.0)
        fit_model(clamped, EXPONENTIAL, clamp_nonpositive=True)
        # The new value raises, then the clamping path logs all ten.
        assert len(calls) == 1 + 10 and len(clamped._logs) == 9
        del calls[:]
        later = window(xs, config, 51.0)
        assert len(later._logs) == 8
        fit_model(later, EXPONENTIAL, clamp_nonpositive=True)
        assert len(calls) == 1 + 10 and len(later._logs) == 8
        del calls[:]
        past = window(xs, config, 61.0)  # the -1.0 has left; the head is too far back
        fit_model(past, EXPONENTIAL)
        assert len(calls) == 10 and len(past._logs) == 10

    def test_the_parent_keeps_one_window(self):
        xs, _ = log_stream(range(120), random.Random(3))
        config = WindowConfig(length=32)
        for cutoff in range(50, 120):
            windowed = window(xs, config, float(cutoff))
            fit_model(windowed, SIN_EXPONENTIAL)
            assert xs._window == ((32, float(cutoff)), windowed, cutoff - 31)
            assert len(windowed._logs) == 32
            assert xs._logs == ()  # the parent itself is never fitted here

    def test_threads_replaying_one_parent_get_the_reference_bits(self, monkeypatch):
        # More threads than cores, switching every microsecond and yielding
        # the interpreter lock at each log, replay one parent: each takes heads
        # from windows the others kept. A head paired with another window's
        # samples would give other bits.
        rng = random.Random(2302)
        xs, ys = log_stream(range(300), rng, {120: 0.0})
        steps = [(length, cutoff, rng.random() < 0.5)
                 for length, cutoff in replay_steps(rng, 120, 299)]
        expected = {}
        for s in (xs, ys):
            for length, cutoff, clamp in steps:
                fresh = window(pickle.loads(pickle.dumps(s)), WindowConfig(length=length), cutoff)
                expected[s.axis, length, cutoff, clamp] = \
                    fit_outcome(fresh, SIN_EXPONENTIAL, clamp, cutoff + 60)
        log = math.log

        def yielding(v):
            time.sleep(0)
            return log(v)

        monkeypatch.setattr(math, "log", yielding)
        wrong = []

        def work(seed):
            order = random.Random(seed)
            start = order.randrange(len(steps))
            for length, cutoff, clamp in steps[start:] + steps[:start]:
                s = order.choice((xs, ys))
                got = fit_outcome(window(s, WindowConfig(length=length), cutoff),
                                  SIN_EXPONENTIAL, clamp, cutoff + 60)
                if got != expected[s.axis, length, cutoff, clamp]:
                    wrong.append((s.axis, length, cutoff))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


NON_FINITE_VALUES = {"nan": (math.nan, "a number"), "inf": (math.inf, "finite"),
                     "minus_inf": (-math.inf, "finite"), "int_1e400": (10**400, "finite")}
NON_FINITE_CASES = {
    f"{kind.label}-{name}": (kind, *NON_FINITE_VALUES[name])
    for kinds, names in (((LINEAR, polynomial(2)), NON_FINITE_VALUES), (EXP_FAMILY, ("nan", "inf")))
    for kind in kinds for name in names}


class TestNonFiniteValues:
    """A value that is NaN, infinite or an int past the float range is refused
    by name; exponential kinds see it through ln v, which is NaN or inf too."""

    @pytest.mark.parametrize("kind, value, message", NON_FINITE_CASES.values(),
                             ids=NON_FINITE_CASES.keys())
    def test_refused_by_name(self, kind, value, message):
        s = AxisSeries(Axis.X, ((0.0, 1.0), (1.0, value), (2.0, 3.0), (3.0, 4.0)))
        with pytest.raises(DomainError) as err:
            fit_model(s, kind)
        assert str(err.value) == f"value {value!r} at sample 1 is not {message}"


def _reference_fit_linear(pairs):
    """fit_linear as it was before the log-line fit was fused into one pass,
    with the t-sum refusal. A line past the float range refuses a value that
    is not finite, else is fitted again over the values scaled by a power of
    two and scaled back; one that still passes the range is refused."""
    n = len(pairs)
    if n < 2:
        raise InsufficientDataError(f"linear fit needs at least 2 pairs, got {n}")
    t0 = pairs[0][0]
    if all(t == t0 for t, _ in pairs):
        raise DegenerateAbscissaError("all t values are equal; cannot fit a slope")
    st = sv = 0.0
    for t, v in pairs:
        st += t
        sv += v
    if not math.isfinite(st):
        raise DegenerateAbscissaError("the sum of the t values overflows")
    t_mean = st / n
    v_mean = sv / n
    s_tt = s_tv = 0.0
    for t, v in pairs:
        d = t - t_mean
        s_tt += d * d
        s_tv += d * (v - v_mean)
    if s_tt == 0.0:
        raise DegenerateAbscissaError("t values are numerically indistinguishable")
    slope = s_tv / s_tt
    intercept = v_mean - slope * t_mean
    if math.isfinite(slope) and math.isfinite(intercept):
        return slope, intercept
    for i, (_, v) in enumerate(pairs):
        if not math.isfinite(v):
            raise DomainError(f"value {v!r} at sample {i} is not "
                              + ("a number" if math.isnan(v) else "finite"))
    exponent = math.frexp(max(abs(v) for _, v in pairs))[1]
    if exponent:
        slope, intercept = _reference_fit_linear(
            [(t, math.ldexp(v, -exponent)) for t, v in pairs])
        line = [Fraction(c) * Fraction(2) ** exponent for c in (slope, intercept)]
        if all(abs(c) < 2**1024 for c in line):  # else ldexp overflows
            return tuple(map(float, line))
    raise FitOverflowError("line coefficients pass the float range for these values")


def _reference_log_line(samples, kind, clamp_nonpositive):
    """_log_line as it was: (t, ln v) pairs handed to the reference fit_linear."""
    logs = []
    for i, (t, v) in enumerate(samples):
        if v <= 0.0:
            if not clamp_nonpositive:
                raise DomainError(
                    f"non-positive value {v!r} at t={t!r} (sample {i}) "
                    f"under {kind.label} fit"
                )
            v = regression.CLAMP_FLOOR
        logs.append((t, math.log(v)))
    return _reference_fit_linear(logs)


_REFERENCE_CORRECTION = {EXPONENTIAL: lambda a: 0.0, SIN_EXPONENTIAL: math.sin,
                         COS_EXPONENTIAL: math.cos}


def _fit_bits(call):
    """The kind, the bits of a and b, the coefficients and n_points a fit
    returns as (a, b, ...), or the type and message of what it raises."""
    try:
        kind, a, b, *rest = call()
    except Exception as exc:
        return type(exc), str(exc)
    return kind, struct.pack("<dd", a, b), *rest


class TestFusedLogLine:
    """The one-pass log-line fit gives the bits of the two-pass fit it
    replaced: the same plain left-to-right sums in the same order, the same
    refusals with the same messages."""

    SPECIAL_VALUES = (0.0, -0.0, -1.5, -math.inf, math.inf, math.nan, 1e-300, 5e-324, 1e308)

    def test_bit_identical_to_reference_kernel(self):
        rng = random.Random(20211)
        seen = set()
        for _ in range(3000):
            offset = rng.choice((0.0, 1e6, 1e15))
            step = rng.choice((1.0, 0.37, 1e-10, 1e-300))
            n = rng.randint(2, 40)
            ts, prev = [], -math.inf
            for i in range(n):  # never below the next float up, so strictly increasing
                prev = max(offset + i * step, math.nextafter(prev, math.inf))
                ts.append(prev)
            values = [rng.choice(self.SPECIAL_VALUES) if rng.random() < 0.1
                      else math.exp(rng.uniform(-20.0, 20.0)) for _ in ts]
            samples = tuple(zip(ts, values))
            s = AxisSeries(Axis.X, samples)  # one series: later kinds reuse its line
            for clamp in (False, True):
                for kind in (*EXP_FAMILY, LINEAR):
                    if kind is LINEAR:
                        expected = _fit_bits(lambda: (LINEAR, *_reference_fit_linear(samples),
                                                      (), n))
                    else:
                        def reference():
                            slope, intercept = _reference_log_line(samples, kind, clamp)
                            b = intercept - _REFERENCE_CORRECTION[kind](slope)
                            return kind, slope, b, (), n
                        expected = _fit_bits(reference)
                    got = _fit_bits(lambda: fit_model(s, kind, clamp))
                    assert got == expected, (samples, kind, clamp)
                    seen.add(expected[0] if isinstance(expected[0], type) else "fitted")
        # every outcome the fit has was reached
        assert seen == {"fitted", DomainError, DegenerateAbscissaError, FitOverflowError}


class TestPredict:
    def test_sinexp_constant_collapse(self):
        fit = FitResult(SIN_EXPONENTIAL, a=0.0, b=1.0, coefficients=(), n_points=10)
        assert predict(fit, 100.0) == pytest.approx(math.e, abs=1e-12)

    def test_sinexp_correction_is_not_inverse(self):
        fit = fit_model(exp_series(0.2, 0.5, range(10)), SIN_EXPONENTIAL)
        expected = math.exp(fit.a * 0.0 + fit.b) + math.sin(fit.a)
        assert predict(fit, 0.0) == pytest.approx(expected, rel=1e-12)
        # intentionally differs from the generating value exp(0.5)
        assert abs(predict(fit, 0.0) - math.exp(0.5)) > 0.05

    def test_polynomial_horner(self):
        fit = FitResult(polynomial(2), a=0.0, b=0.0, coefficients=(0.0, 0.0, 1.0), n_points=3)
        assert predict(fit, 3.0) == 9.0

    def test_matches_independent_evaluator(self):
        rng = random.Random(93)
        for _ in range(200):
            a, b = rng.uniform(-0.05, 0.05), rng.uniform(0, 5)
            s = exp_series(a, b, range(15))
            t = rng.uniform(-50, 100)
            for kind, correction in ((EXPONENTIAL, 0.0),
                                     (SIN_EXPONENTIAL, None),
                                     (COS_EXPONENTIAL, None)):
                fit = fit_model(s, kind)
                if kind is SIN_EXPONENTIAL:
                    correction = math.sin(fit.a)
                elif kind is COS_EXPONENTIAL:
                    correction = math.cos(fit.a)
                expected = math.exp(fit.a * t + fit.b) + correction
                assert predict(fit, t) == pytest.approx(expected, rel=1e-12)

    def test_linear_and_polynomial_match_independent_evaluator(self):
        rng = random.Random(94)
        for _ in range(50):
            data = [(float(t), rng.uniform(-5, 5)) for t in range(12)]
            t = rng.uniform(-20, 30)
            lin = fit_model(series(data), LINEAR)
            assert predict(lin, t) == pytest.approx(lin.a * t + lin.b, rel=1e-12, abs=1e-12)
            poly = fit_model(series(data), polynomial(3))
            expected = sum(c * t**k for k, c in enumerate(poly.coefficients))
            assert predict(poly, t) == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_overflow_reports_range_error(self):
        fit = FitResult(EXPONENTIAL, a=10.0, b=0.0, coefficients=(), n_points=2)
        with pytest.raises(PredictionRangeError) as err:
            predict(fit, 1000.0)
        assert "t=1000.0" in str(err.value)


class TestResidualRmse:
    def test_exact_fit_is_zero(self):
        pairs = [(0.0, 1.0), (1.0, 3.0)]
        fit = fit_model(series(pairs), LINEAR)
        assert residual_rmse(fit, series(pairs)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_zero_predictor(self):
        fit = FitResult(LINEAR, a=0.0, b=0.0, coefficients=(), n_points=2)
        value = residual_rmse(fit, series([(0, 3), (1, 4)]))
        assert value == pytest.approx(math.sqrt((9 + 16) / 2), rel=1e-12)

    def test_single_matching_sample(self):
        fit = FitResult(LINEAR, a=1.0, b=0.0, coefficients=(), n_points=2)
        assert residual_rmse(fit, series([(2, 2)])) == 0.0

    def test_empty_series(self):
        fit = FitResult(LINEAR, a=1.0, b=0.0, coefficients=(), n_points=2)
        with pytest.raises(InsufficientDataError):
            residual_rmse(fit, series([]))

    def test_squares_past_float_range(self):
        # Each residual is finite, their squares are not; the RMSE is.
        fit = FitResult(LINEAR, a=0.0, b=0.0, coefficients=(), n_points=2)
        value = residual_rmse(fit, series([(0, 1e200), (1, -2e200), (2, 3e200)]))
        assert value == pytest.approx(math.sqrt(14 / 3) * 1e200, rel=1e-15)
        # A residual past the float range still gives inf.
        fit = FitResult(LINEAR, a=0.0, b=1e308, coefficients=(), n_points=2)
        assert residual_rmse(fit, series([(0, 1.0), (1, -1e308)])) == math.inf

    def test_prediction_past_float_range_gives_inf(self):
        # The fit of 3.0, 1.7e308, 1.7e308 is finite; its prediction at t=2 is not.
        s = series([(0, 3.0), (1, 1.7e308), (2, 1.7e308)])
        fit = fit_model(s, EXPONENTIAL)
        with pytest.raises(PredictionRangeError):
            predict(fit, 2.0)
        assert residual_rmse(fit, s) == math.inf
