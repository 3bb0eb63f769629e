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
from trackcast import evaluation


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

    def test_non_finite_value_reports_unavailable(self):
        xs = AxisSeries(Axis.X, tuple((float(t), math.nan if t == 3 else 5.0) for t in range(71)))
        ys = series(Axis.Y, lambda t: t + 1.0, range(71))
        report = evaluate(xs, ys, LINEAR, 10.0, WindowConfig(horizon=60))
        assert report.predicted is None
        assert report.failure == "x axis: value nan at sample 3 is not a number"


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
        xs, ys = self.isolated_failure()
        reports = compare(xs, ys, [EXPONENTIAL, polynomial(2)], 30.0, WindowConfig())
        assert reports[0].err_x_pct is None
        assert reports[1].err_x_pct is not None
        assert reports[1].err_y_pct is not None

    def test_missing_truth_aborts_all(self):
        xs, ys = self.trajectory()
        with pytest.raises(MissingTruthError):
            compare(xs, ys, DEFAULT_KINDS, 31.5, WindowConfig(horizon=60))
        # A table with no kinds reads no truth, so it has none to miss.
        for kinds in ([], iter(())):
            assert compare(xs, ys, kinds, 31.5, WindowConfig(horizon=60)) == []

    @staticmethod
    def isolated_failure():
        """Series on which the exp row is unavailable and the others are not."""
        values = [(float(t), 5.0 if t != 3 else 0.0) for t in range(91)]
        return AxisSeries(Axis.X, tuple(values)), series(Axis.Y, lambda t: t + 1.0, range(91))

    def test_each_row_comes_from_evaluate_and_shares_one_truth(self, monkeypatch):
        # The benchmark's tracer spans and counts rows by wrapping evaluation.evaluate.
        calls = []
        evaluate_ = evaluation.evaluate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return evaluate_(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate", counting)
        xs, ys = self.isolated_failure()
        kinds = [LINEAR, EXPONENTIAL, polynomial(2), EXPONENTIAL]
        reports = compare(xs, ys, iter(kinds), 30.0, WindowConfig())
        assert calls == [r.kind for r in reports] == kinds
        assert reports[1].predicted is None and reports[2].predicted is not None
        first = reports[0]
        assert first.t_target == 90.0 and first.actual == (5.0, 91.0)
        for r in reports:  # unavailable rows included
            assert r.t_target is first.t_target and r.actual is first.actual

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
        # Frames 0 .. 2**53, the last frame a stream may hold, are accepted.
        assert SyntheticSpec(a_x=0, b_x=0, a_y=0, b_y=0, n_frames=2**53 + 1).n_frames == 2**53 + 1


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


class TestBatchCompare:
    """``batch_compare`` generates only the frames ``compare`` reads. Every
    outcome must still equal ``compare`` over the fully synthesized series."""

    KINDS = (*DEFAULT_KINDS, LINEAR, polynomial(5))
    # Each raises a GenerationError at a frame that cutoff 30 and horizon 60 pass over.
    RAISING = {
        "x_overflow_at_60": SyntheticSpec(a_x=12.0, b_x=0.0, a_y=0.01, b_y=3.0),
        "y_overflow_at_60": SyntheticSpec(a_x=0.01, b_x=3.0, a_y=12.0, b_y=0.0),
        "shake_non_positive_at_46": SyntheticSpec(a_x=0.001, b_x=0.4, a_y=0.01, b_y=3.0,
                                                  shake_prob=0.05, shake_scale=4.0, seed=0),
        "sin_non_positive_at_39": SyntheticSpec(a_x=-math.pi / 2, b_x=60.0, a_y=0.01, b_y=3.0,
                                                variant=Variant.SIN_EXPONENTIAL),
    }

    @staticmethod
    def expected(specs, kinds, cutoff, config):
        return outcome(lambda: [compare(*synthesize(s), kinds, cutoff, config) for s in specs])

    @staticmethod
    def counted(monkeypatch):
        """The number of frames generated on each axis, call by call."""
        computed = []
        synth_axis = evaluation._synth_axis

        def counting(axis, a, b, spec, rng, ts):
            computed.append((axis, len(ts)))
            return synth_axis(axis, a, b, spec, rng, ts)

        monkeypatch.setattr(evaluation, "_synth_axis", counting)
        return computed

    def test_equals_compare_on_synthesized_series(self):
        rng = random.Random(19)
        specs = [
            SyntheticSpec(a_x=rng.uniform(-0.02, 0.05), b_x=rng.uniform(2.0, 9.0),
                          a_y=rng.uniform(-0.02, 0.05), b_y=rng.uniform(2.0, 9.0),
                          variant=rng.choice(list(Variant)),
                          n_frames=rng.choice((1, 2, 40, 100, 100)),
                          noise_sigma=rng.choice((0.0, 0.03, 0.3)), shake_prob=rng.uniform(0, 0.3),
                          shake_scale=rng.choice((0.0, 2.0, 5.0)), seed=rng.getrandbits(64))
            for _ in range(24)
        ]
        # Outside the bound, so synthesized in full, but never raising: no shake, a value > 0.
        specs += [SyntheticSpec(a_x=0.01, b_x=1.0, a_y=-0.5, b_y=2.0, noise_sigma=0.1, seed=8),
                  *self.RAISING.values()]
        cutoffs = (30.0, 30.5, 0.0, -1.0, -0.5, 39.0, math.nan, math.inf, -math.inf, 10**400)
        for length in (None, 2, 31):
            for horizon in (60, 2.5, 150):
                config = WindowConfig(length=length, horizon=horizon)
                for cutoff in cutoffs:
                    for spec in specs:
                        got = outcome(lambda: batch_compare([spec], self.KINDS, cutoff, config))
                        want = self.expected([spec], self.KINDS, cutoff, config)
                        assert repr(got) == repr(want), (spec, length, horizon, cutoff)
        config = WindowConfig(horizon=60)
        batch = [s for s in specs if s.n_frames == 100 and s not in self.RAISING.values()]
        got = batch_compare(batch, self.KINDS, 30.0, config)
        assert repr(got) == repr(self.expected(batch, self.KINDS, 30.0, config))
        # With no kinds nothing is read, not even a t_target past the float range.
        for cutoff, config in ((30.0, config), (10**400, WindowConfig(horizon=2.5))):
            for spec in specs:
                got = outcome(lambda: batch_compare([spec], (), cutoff, config))
                assert repr(got) == repr(self.expected([spec], (), cutoff, config))

    def test_rows_of_each_table_share_one_truth(self):
        # poly5 needs 6 samples, so a window of 4 makes its rows unavailable.
        specs = [SyntheticSpec(a_x=0.01, b_x=3.0, a_y=0.02, b_y=4.0, noise_sigma=0.02, seed=seed)
                 for seed in range(3)]
        tables = batch_compare(specs, self.KINDS, 30.0, WindowConfig(length=4, horizon=60))
        for table in tables:
            assert table[-1].predicted is None and table[0].predicted is not None
            first = table[0]
            for r in table:
                assert r.t_target is first.t_target and r.actual is first.actual
        assert tables[0][0].actual != tables[1][0].actual

    @pytest.mark.parametrize("variant", list(Variant))
    def test_sparse_frames_keep_their_bits(self, variant):
        spec = SyntheticSpec(a_x=0.02, b_x=3.0, a_y=-0.01, b_y=4.0, variant=variant,
                             noise_sigma=0.05, shake_prob=0.3, shake_scale=2.0, seed=2**63 + 5)
        full = [dict(series.samples) for series in synthesize(spec)]
        rng = random.Random(5)
        for _ in range(20):
            frames = tuple(map(float, sorted(rng.sample(range(100), rng.randint(0, 100)))))
            for axis, values, a, b, seed in ((Axis.X, full[0], spec.a_x, spec.b_x, 2 * spec.seed),
                                             (Axis.Y, full[1], spec.a_y, spec.b_y,
                                              2 * spec.seed + 1)):
                got = evaluation._synth_axis(axis, a, b, spec, random.Random(seed), frames)
                assert [v.hex() for v in got] == [values[t].hex() for t in frames]

    def test_paper_cutoff_generates_32_of_100_frames(self, monkeypatch):
        computed = self.counted(monkeypatch)
        spec = SyntheticSpec(a_x=0.01, b_x=3.0, a_y=0.02, b_y=4.0, noise_sigma=0.02,
                             shake_prob=0.05, shake_scale=1.5, seed=7)
        batch_compare([spec], DEFAULT_KINDS, 30.0, WindowConfig(horizon=60))
        assert computed == [(Axis.X, 32), (Axis.Y, 32)]

    @pytest.mark.parametrize("name", RAISING)
    def test_generation_error_in_a_passed_frame(self, name, monkeypatch):
        spec = self.RAISING[name]
        config = WindowConfig(horizon=60)
        want = outcome(lambda: synthesize(spec))
        assert want[0] is GenerationError and f"frame {name[-2:]} " in want[1]
        computed = self.counted(monkeypatch)
        assert outcome(lambda: batch_compare([spec], self.KINDS, 30.0, config)) == want
        assert (Axis.X, 100) in computed

    @pytest.mark.parametrize("inside", [False, True])
    @pytest.mark.parametrize("edge", ["low", "high"])
    def test_bound_edges(self, edge, inside, monkeypatch):
        # a = 0 puts every frame's a*t + b at b; the bound is open at both ends.
        sigma, shake = 0.1, 2.0
        b = math.log(4.0 * (1.0 + shake)) + 9.0 * sigma if edge == "low" else 700.0 - 9.0 * sigma
        if inside:
            b = math.nextafter(b, 0.0 if edge == "high" else math.inf)
        spec = SyntheticSpec(a_x=0.0, b_x=b, a_y=0.01, b_y=5.0, noise_sigma=sigma,
                             shake_prob=0.5, shake_scale=shake, seed=3)
        config = WindowConfig(horizon=60)
        computed = self.counted(monkeypatch)
        got = outcome(lambda: batch_compare([spec], self.KINDS, 30.0, config))
        assert computed == [(Axis.X, 32 if inside else 100), (Axis.Y, 32 if inside else 100)]
        assert repr(got) == repr(self.expected([spec], self.KINDS, 30.0, config))

    # The skip rests on CPython's word counts, not on documented API: random()
    # draws two 32-bit Mersenne Twister words and getrandbits(n) ceil(n / 32).
    @pytest.mark.parametrize("gap", [1, 59, 4095, 4096, 4097, 10000])
    def test_skip_moves_the_stream_like_drawn_frames(self, gap):
        drawn = random.Random(11)
        for _ in range(4 * gap):
            drawn.random()
        skipped = random.Random(11)
        skipped.getrandbits(256 * gap)
        assert skipped.getstate() == drawn.getstate()
        # _synth_axis passes over frames 0 .. gap - 1 and draws frame gap.
        spec = SyntheticSpec(a_x=0.0, b_x=2.0, a_y=0.0, b_y=2.0, n_frames=gap + 1)
        through = random.Random(11)
        evaluation._synth_axis(Axis.X, 0.0, 2.0, spec, through, (float(gap),))
        for _ in range(4):
            drawn.random()
        assert through.getstate() == drawn.getstate()

    def test_sparse_frames_past_the_skip_chunk(self):
        spec = SyntheticSpec(a_x=0.0005, b_x=3.0, a_y=-0.0002, b_y=5.0,
                             variant=Variant.SIN_EXPONENTIAL, n_frames=10000, noise_sigma=0.05,
                             shake_prob=0.3, shake_scale=2.0, seed=23)
        frames = (0.0, 1.0, 5000.0, 9999.0)
        for series, a, b, seed in zip(synthesize(spec), (spec.a_x, spec.a_y),
                                      (spec.b_x, spec.b_y), (2 * spec.seed, 2 * spec.seed + 1)):
            values = dict(series.samples)
            got = evaluation._synth_axis(series.axis, a, b, spec, random.Random(seed), frames)
            assert [v.hex() for v in got] == [values[t].hex() for t in frames]

    def test_specs_of_changing_length(self):
        # The t column is built once and reused while n_frames repeats.
        specs = [SyntheticSpec(a_x=0.01, b_x=3.0 + i, a_y=0.02, b_y=4.0, n_frames=n,
                               noise_sigma=0.03, shake_prob=0.2, shake_scale=1.0, seed=i)
                 for i, n in enumerate((100, 40, 100, 1))]
        for cutoff, horizon in ((30.0, 5), (30.0, 60), (-1.0, 1), (0.0, 1)):
            config = WindowConfig(horizon=horizon)
            for k in range(1, len(specs) + 1):
                got = outcome(lambda: batch_compare(specs[:k], self.KINDS, cutoff, config))
                want = self.expected(specs[:k], self.KINDS, cutoff, config)
                assert repr(got) == repr(want), (cutoff, horizon, k)
