import math
import random

import pytest

from trackcast import (
    EXPONENTIAL,
    SIN_EXPONENTIAL,
    Axis,
    AxisSeries,
    DomainError,
    OrderingError,
    Region,
    ValidationError,
    WindowConfig,
    build_series,
    gate,
    predict_endpoint,
    window,
)


def series(axis, values):
    return AxisSeries(axis, tuple((float(t), float(v)) for t, v in values))


def exp_axis(axis, a, b, ts):
    return series(axis, [(t, math.exp(a * t + b)) for t in ts])


TEN = series(Axis.X, [(t, t * 1.0 + 1.0) for t in range(10)])


class TestWindow:
    def test_cutoff_filter(self):
        out = window(TEN, WindowConfig(), cutoff_t=5.0)
        assert [t for t, _ in out.samples] == [0, 1, 2, 3, 4, 5]

    def test_length_keeps_suffix(self):
        out = window(TEN, WindowConfig(length=3), cutoff_t=9.0)
        assert [t for t, _ in out.samples] == [7, 8, 9]

    def test_cutoff_before_start_is_empty(self):
        assert window(TEN, WindowConfig(), cutoff_t=-1.0).samples == ()

    def test_matches_filter_definition(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 40)
            ts = sorted(rng.sample(range(-500, 500), n))
            samples = tuple((t + rng.random() * 0.5, rng.uniform(-9, 9)) for t in ts)
            s = AxisSeries(Axis.X, samples)
            first, last = samples[0][0], samples[-1][0]
            cutoffs = [first - 1.0, last + 1.0, rng.choice(samples)[0],
                       math.inf, -math.inf, math.nan]
            if n > 1:
                i = rng.randrange(n - 1)
                cutoffs.append((samples[i][0] + samples[i + 1][0]) / 2)
            for length in (None, 2, n + 3):
                for cutoff in cutoffs:
                    expected = tuple(p for p in samples if p[0] <= cutoff)
                    if length is not None:
                        expected = expected[-length:]
                    assert window(s, WindowConfig(length=length), cutoff).samples == expected

    def test_columns_match_a_pair_slicing_reference(self):
        # Both columns are sliced alike, whether the x and y series share one t
        # column (build_series) or the series was built from pairs.
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(0, 50)
            ts = [t + rng.random() * 0.5 for t in sorted(rng.sample(range(-300, 300), n))]
            obs = [(t, rng.uniform(-9, 9), rng.uniform(-9, 9)) for t in ts]
            pairs = {Axis.X: [(t, x) for t, x, _ in obs], Axis.Y: [(t, y) for t, _, y in obs]}
            xs, ys = build_series(obs)
            cutoffs = [math.inf, -math.inf, math.nan, rng.uniform(-400, 400)]
            if n:
                cutoffs.append(rng.choice(ts))
            if n > 1:
                i = rng.randrange(n - 1)
                cutoffs.append((ts[i] + ts[i + 1]) / 2)
            for cutoff in cutoffs:
                length = rng.choice((None, 2, rng.randint(2, n + 3)))
                for s in (xs, ys, AxisSeries(Axis.X, pairs[Axis.X])):
                    expected = tuple(p for p in pairs[s.axis] if p[0] <= cutoff)
                    if length is not None:
                        expected = expected[-length:]
                    windowed = window(s, WindowConfig(length=length), cutoff)
                    assert windowed._ts == tuple(t for t, _ in expected)
                    assert windowed._vs == tuple(v for _, v in expected)
                    assert windowed.samples == expected

    def test_kept_window_is_never_stale(self):
        rng = random.Random(8)
        samples = tuple((float(t), rng.uniform(1, 9)) for t in range(0, 60, 2))
        s = AxisSeries(Axis.X, samples)
        for _ in range(300):
            length = rng.choice((None, 2, 5, 40))
            cutoff = rng.choice((rng.uniform(-5, 65), float(rng.randrange(0, 60, 2)),
                                 math.inf, -math.inf, math.nan))
            expected = tuple(p for p in samples if p[0] <= cutoff)
            if length is not None:
                expected = expected[-length:]
            first = window(s, WindowConfig(length=length), cutoff)
            assert first.samples == expected
            assert first == AxisSeries(Axis.X, expected)
            # the horizon is not part of the window, so the kept one is returned
            assert window(s, WindowConfig(length=length, horizon=7), cutoff) is first

    @pytest.mark.parametrize("ts", [(math.nan,), (math.nan, 1.0), (0.0, math.nan),
                                    (0.0, math.nan, 2.0)])
    def test_nan_t_is_refused(self, ts):
        # The window bisects on t, which needs an order no NaN has.
        samples = tuple((t, 2.0) for t in ts)
        with pytest.raises(OrderingError, match=r"t value nan at sample \d is not a number"):
            AxisSeries(Axis.X, samples)
        with pytest.raises(OrderingError, match=r"t value nan at sample \d is not a number"):
            build_series([(t, 2.0, 3.0) for t in ts])


class TestGate:
    REGION = Region(0, 10, 0, 10)

    @pytest.mark.parametrize(
        "point,defect",
        [((5, 5), False), ((10, 5), False), ((0, 0), False), ((11, 5), True),
         ((5, -0.001), True), ((-1, 5), True), ((5, 10.5), True)],
    )
    def test_boundary_inclusive(self, point, defect):
        assert gate(point, self.REGION) is defect

    def test_enlarging_region_never_creates_defects(self):
        rng = random.Random(42)
        for _ in range(200):
            x0, y0 = rng.uniform(-50, 50), rng.uniform(-50, 50)
            region = Region(x0, x0 + rng.uniform(1, 40), y0, y0 + rng.uniform(1, 40))
            bigger = Region(
                region.x_min - rng.uniform(0, 10),
                region.x_max + rng.uniform(0, 10),
                region.y_min - rng.uniform(0, 10),
                region.y_max + rng.uniform(0, 10),
            )
            point = (rng.uniform(-80, 80), rng.uniform(-80, 80))
            if not gate(point, region):
                assert not gate(point, bigger)

    def test_invalid_region(self):
        with pytest.raises(ValidationError):
            Region(5, 5, 0, 10)

    def test_bound_that_is_not_a_number_named_before_the_order(self):
        with pytest.raises(ValidationError, match=r"^y_max must be a number, got '1'$"):
            Region(5.0, 1.0, 0.0, "1")


class TestPredictEndpoint:
    def test_constant_series_collapse(self):
        xs = series(Axis.X, [(t, math.e) for t in range(10)])
        ys = series(Axis.Y, [(t, math.e) for t in range(10)])
        point = predict_endpoint(xs, ys, SIN_EXPONENTIAL, WindowConfig(horizon=60), 9.0)
        assert point.t_target == 69.0
        assert point.x == pytest.approx(math.e, abs=1e-9)
        assert point.y == pytest.approx(math.e, abs=1e-9)
        assert point.defect is False

    def test_exponential_horizon_prediction(self):
        xs = exp_axis(Axis.X, 0.01, 2.0, range(10))
        ys = exp_axis(Axis.Y, 0.005, 3.0, range(10))
        point = predict_endpoint(xs, ys, EXPONENTIAL, WindowConfig(horizon=60), 9.0)
        assert point.x == pytest.approx(math.exp(0.01 * 69 + 2.0), rel=1e-9)
        assert point.y == pytest.approx(math.exp(0.005 * 69 + 3.0), rel=1e-9)

    def test_region_none_disables_gate(self):
        xs = exp_axis(Axis.X, 0.01, 2.0, range(10))
        ys = exp_axis(Axis.Y, 0.01, 2.0, range(10))
        point = predict_endpoint(xs, ys, EXPONENTIAL, WindowConfig(), 9.0, region=None)
        assert point.defect is False

    def test_gate_applied_to_target_point(self):
        xs = series(Axis.X, [(t, math.e) for t in range(10)])
        ys = series(Axis.Y, [(t, math.e) for t in range(10)])
        inside = Region(0, 10, 0, 10)
        outside = Region(5, 10, 5, 10)
        assert not predict_endpoint(xs, ys, SIN_EXPONENTIAL, WindowConfig(), 9.0, inside).defect
        assert predict_endpoint(xs, ys, SIN_EXPONENTIAL, WindowConfig(), 9.0, outside).defect

    def test_x_output_independent_of_y_series(self):
        xs = exp_axis(Axis.X, 0.02, 1.0, range(12))
        ys1 = exp_axis(Axis.Y, 0.01, 2.0, range(12))
        ys2 = exp_axis(Axis.Y, 0.04, 0.5, range(12))
        p1 = predict_endpoint(xs, ys1, EXPONENTIAL, WindowConfig(), 11.0)
        p2 = predict_endpoint(xs, ys2, EXPONENTIAL, WindowConfig(), 11.0)
        assert p1.x == p2.x

    def test_cutoff_causality(self):
        xs = exp_axis(Axis.X, 0.02, 1.0, range(10))
        ys = exp_axis(Axis.Y, 0.01, 2.0, range(10))
        before = predict_endpoint(xs, ys, EXPONENTIAL, WindowConfig(), 9.0)
        xs_more = AxisSeries(Axis.X, xs.samples + ((12.0, 999.0), (15.0, 5.0)))
        ys_more = AxisSeries(Axis.Y, ys.samples + ((12.0, 1.0), (15.0, 2.0)))
        after = predict_endpoint(xs_more, ys_more, EXPONENTIAL, WindowConfig(), 9.0)
        assert (before.x, before.y) == (after.x, after.y)

    def test_longer_horizon_grows_with_positive_slope(self):
        xs = exp_axis(Axis.X, 0.03, 1.0, range(20))
        ys = exp_axis(Axis.Y, 0.02, 1.0, range(20))
        short = predict_endpoint(xs, ys, SIN_EXPONENTIAL, WindowConfig(horizon=10), 19.0)
        long = predict_endpoint(xs, ys, SIN_EXPONENTIAL, WindowConfig(horizon=60), 19.0)
        assert long.x >= short.x
        assert long.y >= short.y

    def test_fit_errors_name_the_axis(self):
        xs = exp_axis(Axis.X, 0.01, 1.0, range(5))
        ys = series(Axis.Y, [(0, 1.0), (1, -2.0), (2, 3.0), (3, 4.0), (4, 5.0)])
        with pytest.raises(DomainError) as err:
            predict_endpoint(xs, ys, EXPONENTIAL, WindowConfig(), 4.0)
        assert str(err.value).startswith("y axis:")


class TestWindowConfig:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ValidationError):
            WindowConfig(horizon=0)

    def test_finite_length_minimum(self):
        with pytest.raises(ValidationError):
            WindowConfig(length=1)

    def test_largest_float_horizon_accepted(self):
        assert WindowConfig(horizon=1.7976931348623157e308).horizon == 1.7976931348623157e308

    def test_defaults(self):
        config = WindowConfig()
        assert config.horizon == 60
        assert config.length is None
