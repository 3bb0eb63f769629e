import math
import random

import pytest

from trackcast import (
    COS_EXPONENTIAL,
    DEFAULT_KINDS,
    EXPONENTIAL,
    LINEAR,
    SIN_EXPONENTIAL,
    Axis,
    AxisSeries,
    GenerationError,
    MissingTruthError,
    ParseError,
    SyntheticSpec,
    UndefinedReferenceError,
    ValidationError,
    Variant,
    WindowConfig,
    batch_compare,
    compare,
    comparison_csv,
    comparison_text,
    error_rate,
    evaluate,
    parse_synthetic_spec,
    polynomial,
    synthesize,
)


def series(axis, fn, ts):
    return AxisSeries(axis, tuple((float(t), float(fn(t))) for t in ts))


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestErrorRate:
    def test_identity(self):
        assert error_rate(123.4, 123.4) == 0.0

    def test_reference_magnitudes(self):
        assert error_rate(100.23, 100.0) == pytest.approx(0.23, abs=1e-12)
        assert error_rate(97.26, 100.0) == pytest.approx(2.74, abs=1e-12)

    def test_zero_actual(self):
        with pytest.raises(UndefinedReferenceError):
            error_rate(1.0, 0.0)

    def test_scale_invariance(self):
        rng = random.Random(17)
        for _ in range(200):
            p, a = rng.uniform(-100, 100), rng.uniform(0.1, 100)
            k = rng.choice([-1, 1]) * rng.uniform(0.01, 1000)
            assert error_rate(k * p, k * a) == pytest.approx(
                error_rate(p, a), rel=1e-12, abs=1e-12
            )

    def test_never_negative(self):
        rng = random.Random(18)
        for _ in range(100):
            assert error_rate(rng.uniform(-10, 10), rng.uniform(0.1, 10)) >= 0.0


class TestEvaluate:
    def test_noiseless_linear_is_exact(self):
        xs = series(Axis.X, lambda t: 2.0 * t + 5.0, range(71))
        ys = series(Axis.Y, lambda t: -1.5 * t + 300.0, range(71))
        report = evaluate(xs, ys, LINEAR, 10.0, WindowConfig(horizon=60))
        assert report.err_x_pct <= 1e-9
        assert report.err_y_pct <= 1e-9
        assert report.t_target == 70.0

    def test_noiseless_exponential_closure(self):
        xs = series(Axis.X, lambda t: math.exp(0.01 * t + 2.0), range(71))
        ys = series(Axis.Y, lambda t: math.exp(0.005 * t + 3.0), range(71))
        report = evaluate(xs, ys, EXPONENTIAL, 10.0, WindowConfig(horizon=60))
        # 1e-6 relative accuracy = 1e-4 percentage points
        assert report.err_x_pct <= 1e-4
        assert report.err_y_pct <= 1e-4

    def test_missing_truth(self):
        xs = series(Axis.X, lambda t: t + 1.0, range(50))
        ys = series(Axis.Y, lambda t: t + 2.0, range(50))
        with pytest.raises(MissingTruthError):
            evaluate(xs, ys, LINEAR, 10.0, WindowConfig(horizon=60))

    def test_target_between_samples_is_missing_truth(self):
        xs = series(Axis.X, lambda t: t + 1.0, range(100))
        ys = series(Axis.Y, lambda t: t + 2.0, range(100))
        with pytest.raises(MissingTruthError):
            evaluate(xs, ys, LINEAR, 30.5, WindowConfig(horizon=60))

    def test_failed_fit_reports_unavailable(self):
        values = [(t, 5.0 if t != 3 else -1.0) for t in range(71)]
        xs = AxisSeries(Axis.X, tuple((float(t), float(v)) for t, v in values))
        ys = series(Axis.Y, lambda t: t + 1.0, range(71))
        report = evaluate(xs, ys, EXPONENTIAL, 10.0, WindowConfig(horizon=60))
        assert report.err_x_pct is None
        assert report.err_y_pct is None
        assert report.predicted is None
        assert "x axis" in report.failure
        assert report.actual == (5.0, 71.0)


class TestCompare:
    @staticmethod
    def trajectory():
        xs = series(Axis.X, lambda t: math.exp(0.01 * t + 2.0), range(91))
        ys = series(Axis.Y, lambda t: math.exp(0.02 * t + 1.0), range(91))
        return xs, ys

    def test_default_kind_order(self):
        xs, ys = self.trajectory()
        reports = compare(xs, ys, DEFAULT_KINDS, 30.0, WindowConfig(horizon=60))
        assert [r.kind.label for r in reports] == ["sinexp", "cosexp", "exp", "poly2"]

    def test_removing_a_kind_leaves_other_rows_identical(self):
        xs, ys = self.trajectory()
        config = WindowConfig(horizon=60)
        full = compare(xs, ys, DEFAULT_KINDS, 30.0, config)
        trimmed = compare(xs, ys, DEFAULT_KINDS[:2] + DEFAULT_KINDS[3:], 30.0, config)
        assert trimmed == [full[0], full[1], full[3]]

    def test_failing_kind_is_isolated(self):
        values = [(float(t), 5.0 if t != 3 else 0.0) for t in range(91)]
        xs = AxisSeries(Axis.X, tuple(values))
        ys = series(Axis.Y, lambda t: t + 1.0, range(91))
        reports = compare(xs, ys, [EXPONENTIAL, polynomial(2)], 30.0, WindowConfig())
        assert reports[0].err_x_pct is None
        assert reports[1].err_x_pct is not None
        assert reports[1].err_y_pct is not None

    def test_missing_truth_aborts_all(self):
        xs, ys = self.trajectory()
        with pytest.raises(MissingTruthError):
            compare(xs, ys, DEFAULT_KINDS, 31.5, WindowConfig(horizon=60))

    def test_equals_evaluate_on_fresh_series(self):
        # compare reuses one window and one log-line per axis across kinds, and
        # the same series across calls; evaluate on fresh copies shares nothing.
        kinds = [SIN_EXPONENTIAL, COS_EXPONENTIAL, EXPONENTIAL, LINEAR,
                 polynomial(2), polynomial(3)]
        rng = random.Random(11)
        for trial in range(30):
            n = rng.randint(3, 30)
            ts = sorted(rng.sample(range(3 * n), n))

            def values():
                if trial % 3 == 0:  # non-positive values on some samples
                    return [rng.choice((0.0, -1.5, rng.uniform(0.5, 9))) for _ in ts]
                return [math.exp(rng.uniform(0.01, 0.05) * t + rng.uniform(-1, 3)) for t in ts]

            xs = AxisSeries(Axis.X, tuple(zip(map(float, ts), values())))
            ys = AxisSeries(Axis.Y, tuple(zip(map(float, ts), values())))
            horizon = rng.randint(1, 5)
            on = [float(t) for t in ts if t + horizon in ts]
            cutoffs = [float(rng.choice(ts)), ts[0] + 0.5, ts[-1] + 1.0,
                       math.inf, -math.inf, math.nan, *rng.sample(on, min(3, len(on)))]
            for length in (None, 2, n + 3):
                config = WindowConfig(length=length, horizon=horizon)
                for cutoff in cutoffs:
                    for clamp in (True, False):  # a clamped line must not serve an unclamped fit
                        expected = outcome(lambda: [
                            evaluate(AxisSeries(Axis.X, xs.samples),
                                     AxisSeries(Axis.Y, ys.samples),
                                     kind, cutoff, config, clamp)
                            for kind in kinds
                        ])
                        got = outcome(lambda: compare(xs, ys, kinds, cutoff, config, clamp))
                        assert got == expected, (trial, length, cutoff, clamp)


class TestSynthesize:
    def test_noiseless_pure_exponential_is_exact(self):
        spec = SyntheticSpec(a_x=0.01, b_x=2.0, a_y=0.005, b_y=3.0, n_frames=50)
        xs, ys = synthesize(spec)
        for t, v in xs.samples:
            assert v == math.exp(0.01 * t + 2.0)
        for t, v in ys.samples:
            assert v == math.exp(0.005 * t + 3.0)

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(a_x=0.01, b_x=2.0, a_y=0.005, b_y=3.0, n_frames=80,
                             noise_sigma=0.05, shake_prob=0.2, shake_scale=1.5, seed=77)
        assert synthesize(spec) == synthesize(spec)

    def test_different_seed_differs(self):
        base = dict(a_x=0.01, b_x=2.0, a_y=0.005, b_y=3.0, n_frames=80, noise_sigma=0.05)
        first = synthesize(SyntheticSpec(seed=1, **base))
        second = synthesize(SyntheticSpec(seed=2, **base))
        assert first != second

    def test_sin_exponential_variant_formula(self):
        spec = SyntheticSpec(a_x=0.2, b_x=0.3013306692049386, a_y=0.1, b_y=1.0,
                             variant=Variant.SIN_EXPONENTIAL, n_frames=5)
        xs, _ = synthesize(spec)
        t0, v0 = xs.samples[0]
        assert t0 == 0.0
        assert v0 == pytest.approx(math.exp(0.3013306692049386) + math.sin(0.2), rel=1e-12)
        assert v0 == pytest.approx(1.5503, abs=1e-4)

    def test_noise_is_multiplicative_in_value_space(self):
        spec = SyntheticSpec(a_x=0.0, b_x=0.0, a_y=0.0, b_y=0.0,
                             n_frames=200, noise_sigma=0.1, seed=5)
        xs, _ = synthesize(spec)
        assert all(v > 0 for _, v in xs.samples)
        logs = [math.log(v) for _, v in xs.samples]
        spread = max(logs) - min(logs)
        assert 0.0 < spread < 1.5

    def test_overflowing_growth_reports_generation_error(self):
        spec = SyntheticSpec(a_x=10.0, b_x=0.0, a_y=0.0, b_y=0.0, n_frames=200)
        with pytest.raises(GenerationError) as err:
            synthesize(spec)
        assert "overflows" in str(err.value)
        assert "x axis" in str(err.value)

    def test_generation_error_names_frame_and_axis(self):
        spec = SyntheticSpec(a_x=0.0, b_x=-6.907755278982137, a_y=0.0, b_y=2.0,
                             n_frames=10, shake_prob=1.0, shake_scale=5.0, seed=0)
        with pytest.raises(GenerationError) as err:
            synthesize(spec)
        assert "frame 0" in str(err.value)
        assert "x axis" in str(err.value)

    def test_oracle_closure(self):
        spec = SyntheticSpec(a_x=0.02, b_x=1.5, a_y=0.01, b_y=2.5, n_frames=91)
        xs, ys = synthesize(spec)
        report = evaluate(xs, ys, EXPONENTIAL, 30.0, WindowConfig(horizon=60))
        assert report.err_x_pct <= 1e-6
        assert report.err_y_pct <= 1e-6

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(a_x=0.01, b_x=2.0, a_y=0.005, b_y=3.0, n_frames=150,
                      noise_sigma=0.05, shake_prob=0.3, shake_scale=2.0, seed=9),
        SyntheticSpec(a_x=0.02, b_x=1.0, a_y=-0.01, b_y=4.0, n_frames=150,
                      variant=Variant.SIN_EXPONENTIAL, noise_sigma=0.1,
                      shake_prob=0.5, shake_scale=1.0, seed=2**64 - 1),
        SyntheticSpec(a_x=10.0, b_x=0.0, a_y=0.0, b_y=0.0, n_frames=200,
                      noise_sigma=0.01, seed=3),
        SyntheticSpec(a_x=0.0, b_x=709.0, a_y=0.0, b_y=0.0, n_frames=20,
                      variant=Variant.SIN_EXPONENTIAL, noise_sigma=3.0, seed=4),
        SyntheticSpec(a_x=0.0, b_x=0.0, a_y=0.0, b_y=0.5, n_frames=50,
                      shake_prob=0.5, shake_scale=4.0, seed=5),
    ], ids=["pure_noise_shake", "sin_noise_shake", "overflow_growth",
            "overflow_noise", "non_positive"])
    def test_bit_identical_to_reference_generator(self, spec):
        expected = outcome(lambda: reference_synthesize(spec))
        got = outcome(lambda: tuple(s.samples for s in synthesize(spec)))
        if isinstance(expected[0], type):
            assert expected[0] is GenerationError
            assert got == expected
        else:
            assert [[(t.hex(), v.hex()) for t, v in axis] for axis in got] == \
                [[(t.hex(), v.hex()) for t, v in axis] for axis in expected]

    def test_spec_invariants(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(a_x=0, b_x=0, a_y=0, b_y=0, n_frames=0)
        with pytest.raises(ValidationError):
            SyntheticSpec(a_x=0, b_x=0, a_y=0, b_y=0, n_frames=1, shake_prob=1.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(a_x=0, b_x=0, a_y=0, b_y=0, n_frames=1, seed=2**64)


def _reference_box_muller(rng):
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _reference_axis(axis, a, b, spec, rng):
    """The generator as first written: one Box-Muller call and spec reads per frame."""
    samples = []
    for frame in range(spec.n_frames):
        t = float(frame)
        try:
            base = math.exp(a * t + b)
            if spec.variant is Variant.SIN_EXPONENTIAL:
                base += math.sin(a)
            noise = _reference_box_muller(rng)
            shake_decision = rng.random()
            shake_offset = spec.shake_scale * (2.0 * rng.random() - 1.0)
            value = base * math.exp(spec.noise_sigma * noise)
        except OverflowError:
            raise GenerationError(
                f"generated value overflows at frame {frame} on the {axis.value} axis"
            ) from None
        if shake_decision < spec.shake_prob:
            value += shake_offset
        if not math.isfinite(value):
            raise GenerationError(
                f"generated value overflows at frame {frame} on the {axis.value} axis"
            )
        if not value > 0.0:
            raise GenerationError(
                f"generated non-positive value {value!r} at frame {frame} "
                f"on the {axis.value} axis"
            )
        samples.append((t, value))
    return tuple(samples)


def reference_synthesize(spec):
    return (_reference_axis(Axis.X, spec.a_x, spec.b_x, spec, random.Random(2 * spec.seed)),
            _reference_axis(Axis.Y, spec.a_y, spec.b_y, spec, random.Random(2 * spec.seed + 1)))


def test_distant_frame_degradation():
    rng = random.Random(2024)
    for _ in range(20):
        a = rng.uniform(0.01, 0.05)
        b = rng.uniform(0.0, 3.0)
        spec = SyntheticSpec(a_x=a, b_x=b, a_y=a, b_y=b, n_frames=91,
                             seed=rng.randrange(2**32))
        xs, ys = synthesize(spec)
        exp_60 = evaluate(xs, ys, EXPONENTIAL, 30.0, WindowConfig(horizon=60))
        poly_60 = evaluate(xs, ys, polynomial(2), 30.0, WindowConfig(horizon=60))
        poly_10 = evaluate(xs, ys, polynomial(2), 30.0, WindowConfig(horizon=10))
        assert poly_60.err_x_pct > exp_60.err_x_pct
        assert poly_60.err_y_pct > exp_60.err_y_pct
        assert poly_60.err_x_pct > poly_10.err_x_pct
        assert poly_60.err_y_pct > poly_10.err_y_pct


FULL_SPEC = """\
a_x = 0.01
b_x = 2.0
a_y = 0.005
b_y = 3.0
variant = sin_exponential
n_frames = 120
noise_sigma = 0.02
shake_prob = 0.1
shake_scale = 2.0
seed = 42
"""


class TestSpecFile:
    def test_full_document(self):
        spec = parse_synthetic_spec(FULL_SPEC)
        assert spec == SyntheticSpec(
            a_x=0.01, b_x=2.0, a_y=0.005, b_y=3.0,
            variant=Variant.SIN_EXPONENTIAL, n_frames=120,
            noise_sigma=0.02, shake_prob=0.1, shake_scale=2.0, seed=42,
        )

    def test_defaults(self):
        spec = parse_synthetic_spec("a_x=0.1\nb_x=1\na_y=0.2\nb_y=2\nn_frames=10\n")
        assert spec.variant is Variant.PURE_EXPONENTIAL
        assert spec.noise_sigma == 0.0
        assert spec.shake_prob == 0.0
        assert spec.seed == 0

    def test_comments_and_blank_lines(self):
        text = "# trajectory\n\na_x = 0.1\nb_x = 1\na_y = 0.2\nb_y = 2\nn_frames = 10\n"
        assert parse_synthetic_spec(text).n_frames == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_synthetic_spec(FULL_SPEC + "wobble = 3\n")
        assert "wobble" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_synthetic_spec(FULL_SPEC + "seed = 43\n")
        assert "seed" in str(err.value)

    def test_missing_required_key(self):
        with pytest.raises(ValidationError) as err:
            parse_synthetic_spec("a_x = 0.1\n")
        assert "b_x" in str(err.value)

    def test_bad_value(self):
        with pytest.raises(ParseError) as err:
            parse_synthetic_spec("a_x = fast\n")
        assert "line 1" in str(err.value)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_synthetic_spec("a_x = inf\n")
        assert "finite" in str(err.value)

    def test_bad_variant(self):
        with pytest.raises(ParseError):
            parse_synthetic_spec(FULL_SPEC.replace("sin_exponential", "wavy"))

    def test_missing_separator(self):
        with pytest.raises(ParseError) as err:
            parse_synthetic_spec("a_x 0.1\n")
        assert "line 1" in str(err.value)


class TestRendering:
    @staticmethod
    def reports():
        xs = series(Axis.X, lambda t: math.exp(0.01 * t + 2.0), range(91))
        ys = series(Axis.Y, lambda t: math.exp(0.02 * t + 1.0), range(91))
        return compare(xs, ys, DEFAULT_KINDS, 30.0, WindowConfig(horizon=60))

    def test_csv_header_and_shape(self):
        text = comparison_csv(self.reports())
        lines = text.splitlines()
        assert lines[0] == "model,err_x_pct,err_y_pct,t_target,pred_x,pred_y,actual_x,actual_y"
        assert len(lines) == 5
        assert lines[3].startswith("exp,0.000")

    def test_csv_unavailable_rows_have_empty_fields(self):
        xs = AxisSeries(Axis.X, tuple((float(t), 0.0 if t == 3 else 5.0) for t in range(91)))
        ys = series(Axis.Y, lambda t: t + 1.0, range(91))
        reports = compare(xs, ys, [EXPONENTIAL, polynomial(2)], 30.0, WindowConfig())
        lines = comparison_csv(reports).splitlines()
        fields = lines[1].split(",")
        assert fields[0] == "exp"
        assert fields[1] == fields[2] == fields[4] == fields[5] == ""
        assert fields[3] == "90.000000"
        assert lines[2].split(",")[1] != ""

    def test_csv_six_decimal_places(self):
        for line in comparison_csv(self.reports()).splitlines()[1:]:
            for cell in line.split(",")[1:]:
                if cell:
                    assert len(cell.split(".")[1]) == 6

    def test_text_renders_dash_for_unavailable(self):
        xs = AxisSeries(Axis.X, tuple((float(t), 0.0 if t == 3 else 5.0) for t in range(91)))
        ys = series(Axis.Y, lambda t: t + 1.0, range(91))
        reports = compare(xs, ys, [EXPONENTIAL, polynomial(2)], 30.0, WindowConfig())
        text = comparison_text(reports)
        assert "Regression" in text.splitlines()[0]
        assert " - " in text.splitlines()[1] or text.splitlines()[1].rstrip().endswith("-")


def test_batch_compare_scores_each_spec_through_the_polynomial_memo():
    # The window keeps t <= cutoff, so every spec fits on one t column, and the
    # first call leaves the memo holding another column, which must be replaced.
    rng = random.Random(10)
    specs = [
        SyntheticSpec(
            a_x=rng.uniform(0.005, 0.03), b_x=rng.uniform(1, 3),
            a_y=rng.uniform(0.005, 0.03), b_y=rng.uniform(1, 3),
            n_frames=(91, 120)[i % 2], noise_sigma=0.01, shake_prob=0.2, shake_scale=1.5,
            seed=i,
        )
        for i in range(16)
    ]
    kinds = (*DEFAULT_KINDS, LINEAR, polynomial(5), polynomial(3))
    config = WindowConfig(horizon=60)
    batch_compare(specs[:1], kinds, 20.0, config)
    reports = batch_compare(specs, kinds, 30.0, config)
    assert reports == [compare(*synthesize(s), kinds, 30.0, config) for s in specs]
    assert [r.failure for rows in reports for r in rows] == [None] * (16 * len(kinds))
