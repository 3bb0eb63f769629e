"""Acceptance criteria A1-A9.

Each test enforces one criterion at its stated tolerance and prints a
PASS line (visible with ``pytest -s``); a failing criterion shows up as a
normal pytest failure.
"""

import math
import random
import time
from pathlib import Path

import pytest

from trackcast import (
    COS_EXPONENTIAL,
    DEFAULT_KINDS,
    EXPONENTIAL,
    SIN_EXPONENTIAL,
    Axis,
    AxisSeries,
    SyntheticSpec,
    WindowConfig,
    batch_compare,
    error_rate,
    evaluate,
    fit_linear,
    fit_model,
    polynomial,
    predict,
    synthesize,
)

DATA = Path(__file__).parent / "data"


def series(values):
    return AxisSeries(Axis.X, tuple((float(t), float(v)) for t, v in values))


def exp_series(a, b, ts):
    return series([(t, math.exp(a * t + b)) for t in ts])


def test_a1_exact_linear_recovery():
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(1000):
        slope = rng.uniform(-10, 10)
        intercept = rng.uniform(-10, 10)
        n = rng.randint(5, 50)
        pairs = [(float(t), slope * t + intercept) for t in range(n)]
        fit = fit_linear(pairs)
        assert abs(fit.slope - slope) <= 1e-9
        assert abs(fit.intercept - intercept) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"A1 exact linear recovery (1000 cases, {elapsed:.3f}s): PASS")


def test_a2_exact_exponential_recovery_and_horizon():
    rng = random.Random(22)
    start = time.perf_counter()
    for _ in range(100):
        a = rng.uniform(-0.05, 0.05)
        b = rng.uniform(0.0, 5.0)
        cutoff = rng.randint(10, 40)
        s = exp_series(a, b, range(cutoff + 1))
        fit = fit_model(s, EXPONENTIAL)
        t_target = float(cutoff + 60)
        truth = math.exp(a * t_target + b)
        assert abs(predict(fit, t_target) - truth) / abs(truth) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"A2 exact exponential recovery and 60-frame horizon ({elapsed:.3f}s): PASS")


def test_a3_prediction_composition():
    rng = random.Random(33)
    for _ in range(300):
        a = rng.uniform(-0.05, 0.05)
        b = rng.uniform(0.0, 5.0)
        jitter = rng.uniform(0.0, 0.2)
        s = series(
            [(t, math.exp(a * t + b + rng.uniform(-jitter, jitter))) for t in range(20)]
        )
        t = rng.uniform(-50.0, 100.0)
        for kind in (EXPONENTIAL, SIN_EXPONENTIAL, COS_EXPONENTIAL):
            fit = fit_model(s, kind)
            if kind is SIN_EXPONENTIAL:
                correction = math.sin(fit.a)
            elif kind is COS_EXPONENTIAL:
                correction = math.cos(fit.a)
            else:
                correction = 0.0
            expected = math.exp(fit.a * t + fit.b) + correction
            assert predict(fit, t) == pytest.approx(expected, rel=1e-12)
    print("A3 prediction equals independent closed-form composition: PASS")


def test_a4_shared_slope_and_intercept_corrections():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(4, 30)
        s = series([(t, rng.uniform(0.5, 50.0)) for t in range(n)])
        plain = fit_model(s, EXPONENTIAL)
        sin_fit = fit_model(s, SIN_EXPONENTIAL)
        cos_fit = fit_model(s, COS_EXPONENTIAL)
        assert plain.a == sin_fit.a == cos_fit.a
        assert abs((plain.b - sin_fit.b) - math.sin(plain.a)) <= 1e-12
        assert abs((plain.b - cos_fit.b) - math.cos(plain.a)) <= 1e-12
    print("A4 shared slope bit-identical, intercept offsets sin/cos exact: PASS")


def test_a5_distant_frame_degradation():
    rng = random.Random(55)
    start = time.perf_counter()
    config_60 = WindowConfig(horizon=60)
    config_10 = WindowConfig(horizon=10)
    for case in range(20):
        a = rng.uniform(0.01, 0.05)
        b = rng.uniform(0.0, 3.0)
        spec = SyntheticSpec(a_x=a, b_x=b, a_y=a, b_y=b, n_frames=91, seed=case)
        xs, ys = synthesize(spec)
        exp_60 = evaluate(xs, ys, EXPONENTIAL, 30.0, config_60)
        poly_60 = evaluate(xs, ys, polynomial(2), 30.0, config_60)
        poly_10 = evaluate(xs, ys, polynomial(2), 30.0, config_10)
        assert poly_60.err_x_pct > exp_60.err_x_pct
        assert poly_60.err_y_pct > exp_60.err_y_pct
        assert poly_60.err_x_pct > poly_10.err_x_pct
        assert poly_60.err_y_pct > poly_10.err_y_pct
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"A5 distant-frame degradation 20/20 cases ({elapsed:.3f}s): PASS")


@pytest.fixture
def golden_stream(run_cli, tmp_path):
    spec = tmp_path / "golden.spec"
    spec.write_text(
        "a_x = 0.01\nb_x = 2\na_y = 0.005\nb_y = 3\nn_frames = 100\n"
        "noise_sigma = 0.01\nseed = 42\n"
    )
    stream = tmp_path / "stream.jsonl"
    code, _, _ = run_cli("simulate", "--spec", str(spec), "--out", str(stream))
    assert code == 0
    return stream


def test_a6_comparison_methodology_golden(run_cli, golden_stream):
    code, out, _ = run_cli("compare", "--input", str(golden_stream), "--cutoff", "30")
    assert code == 0
    assert out == (DATA / "compare_seed42.golden.csv").read_text()
    rows = out.splitlines()
    assert len(rows) == 5
    assert [r.split(",")[0] for r in rows[1:]] == ["sinexp", "cosexp", "exp", "poly2"]

    # a starved polynomial fit yields empty fields without disturbing the rest
    code, out, _ = run_cli("compare", "--input", str(golden_stream),
                           "--cutoff", "30", "--window", "2")
    assert code == 0
    assert out == (DATA / "compare_polyfail.golden.csv").read_text()
    rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
    assert rows["poly2"][1] == rows["poly2"][2] == rows["poly2"][4] == rows["poly2"][5] == ""
    for label in ("sinexp", "cosexp", "exp"):
        assert rows[label][1] != "" and rows[label][2] != ""
    print("A6 four-row comparison in reference order, failures isolated (golden): PASS")


def test_a7_end_to_end_determinism(run_cli, tmp_path):
    spec = tmp_path / "traj.spec"
    spec.write_text(
        "a_x = 0.01\nb_x = 2\na_y = 0.005\nb_y = 3\nn_frames = 100\n"
        "noise_sigma = 0.02\nseed = 1\n"
    )
    outputs = []
    for _ in range(2):
        code, stream, _ = run_cli("simulate", "--spec", str(spec), "--seed", "42")
        assert code == 0
        code, csv_out, _ = run_cli("compare", "--cutoff", "30", stdin=stream)
        assert code == 0
        outputs.append((stream, csv_out))
    assert outputs[0] == outputs[1]

    specs = [
        SyntheticSpec(a_x=0.01, b_x=2.0, a_y=0.005, b_y=3.0, n_frames=91,
                      noise_sigma=0.02, seed=s)
        for s in range(8)
    ]
    config = WindowConfig(horizon=60)
    assert (batch_compare(specs, DEFAULT_KINDS, 30.0, config)
            == batch_compare(specs, DEFAULT_KINDS, 30.0, config))
    print("A7 simulate|compare byte-identical; batch_compare repeats equal: PASS")


def test_a8_error_rate_oracle():
    rng = random.Random(88)
    for _ in range(1000):
        predicted = rng.uniform(-1000, 1000)
        actual = rng.choice([-1, 1]) * rng.uniform(1e-3, 1000)
        expected = abs(predicted - actual) / abs(actual) * 100.0
        got = error_rate(predicted, actual)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        k = rng.choice([-1, 1]) * rng.uniform(0.01, 100)
        assert error_rate(k * predicted, k * actual) == pytest.approx(
            got, rel=1e-12, abs=1e-12
        )
    print("A8 error-rate matches independent recomputation, scale-invariant: PASS")


def test_a9_validation_and_exit_code_contract(run_cli, tmp_path):
    spec_ok = tmp_path / "ok.spec"
    spec_ok.write_text("a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\n")
    spec_bad = tmp_path / "bad.spec"
    spec_bad.write_text("a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\nwobble = 9\n")
    stream = tmp_path / "const.jsonl"
    code, text, _ = run_cli("simulate", "--spec", str(spec_ok))
    assert code == 0
    stream.write_text(text)

    zero_stream = tmp_path / "zero.jsonl"
    zero_stream.write_text(
        '{"frame": 0, "left": -2, "top": 2, "width": 4, "height": 4}\n'
        '{"frame": 1, "left": 2, "top": 2, "width": 4, "height": 4}\n'
        '{"frame": 2, "left": 6, "top": 2, "width": 4, "height": 4}\n'
    )
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text('{"frame": 0, "left": 0, "top": 0, "width": 4, "height": 4}\nnope\n')

    matrix = [
        (("simulate", "--spec", str(spec_ok)), 0),
        (("simulate", "--spec", str(spec_bad)), 2),
        (("fit", "--input", str(stream), "--axis", "x", "--model", "exp"), 0),
        (("fit", "--input", str(zero_stream), "--axis", "x", "--model", "exp"), 2),
        (("fit", "--input", str(zero_stream), "--axis", "x", "--model", "exp",
          "--clamp-nonpositive"), 0),
        (("fit", "--input", str(zero_stream), "--axis", "x", "--model", "sinexp"), 2),
        (("predict", "--input", str(stream), "--model", "sinexp"), 0),
        (("predict", "--input", str(stream), "--model", "sinexp",
          "--region", "0,0,10,10"), 0),
        (("predict", "--input", str(stream), "--model", "sinexp",
          "--region", "5,5,10,10"), 3),
        (("predict", "--input", str(stream), "--horizon", "0"), 2),
        (("predict", "--input", str(malformed), "--model", "exp"), 2),
        (("compare", "--input", str(stream), "--cutoff", "30", "--horizon", "60"), 2),
        (("compare", "--input", str(stream), "--cutoff", "5", "--horizon", "10"), 0),
        (("plot", "--input", str(stream), "--model", "exp",
          "--out", str(tmp_path / "p.svg")), 0),
        (("plot", "--input", tmp_path.joinpath("empty.jsonl").as_posix(), "--model",
          "exp", "--out", str(tmp_path / "q.svg")), 2),
        (("fit", "--input", str(stream), "--axis", "x", "--model", "septic"), 2),
    ]
    (tmp_path / "empty.jsonl").write_text("")
    for args, expected in matrix:
        code, _, err = run_cli(*args)
        assert code == expected, f"{args} -> {code}, expected {expected}\n{err}"
        assert code in (0, 2, 3)

    # line numbers reported for malformed input
    code, _, err = run_cli("fit", "--input", str(malformed), "--axis", "x",
                           "--model", "linear")
    assert code == 2 and "line 2" in err
    print(f"A9 exit-code contract over {len(matrix)} invocations: PASS")
