import argparse
import io
import json
import math
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import trackcast
from trackcast import StreamFormat, cli, parse_detections
from trackcast.ingest import CSV_HEADER
from trackcast.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"
DATA = Path(__file__).parent / "data"


def jsonl_stream(fn_x, fn_y, n):
    lines = []
    for t in range(n):
        x, y = fn_x(t), fn_y(t)
        lines.append(
            json.dumps(
                {"frame": t, "left": x - 2, "top": y - 2, "width": 4, "height": 4}
            )
        )
    return "".join(line + "\n" for line in lines)


class TestSimulate:
    def test_frame_count_and_range(self, run_cli, growth_spec, tmp_path):
        out = tmp_path / "stream.jsonl"
        code, _, _ = run_cli("simulate", "--spec", str(growth_spec), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        frames = [json.loads(line)["frame"] for line in lines]
        assert frames == list(range(100))

    def test_byte_identical_reruns(self, run_cli, growth_spec):
        code1, out1, _ = run_cli("simulate", "--spec", str(growth_spec))
        code2, out2, _ = run_cli("simulate", "--spec", str(growth_spec))
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_override_changes_noisy_output(self, run_cli, tmp_path):
        spec = tmp_path / "noisy.spec"
        spec.write_text(
            "a_x = 0.01\nb_x = 2\na_y = 0.01\nb_y = 2\nn_frames = 30\n"
            "noise_sigma = 0.05\nseed = 1\n"
        )
        _, out1, _ = run_cli("simulate", "--spec", str(spec))
        _, out2, _ = run_cli("simulate", "--spec", str(spec), "--seed", "2")
        _, out3, _ = run_cli("simulate", "--spec", str(spec), "--seed", "1")
        assert out1 != out2
        assert out1 == out3

    def test_unknown_key_exits_2_naming_key(self, run_cli, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 5\nbogus = 1\n")
        code, _, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("seed, message", [
        ("-1", "seed must be an unsigned 64-bit integer"),
        (str(2**64), "seed must be an unsigned 64-bit integer"),
        ("x", "line 6: value for 'seed' must be an integer"),
    ], ids=["negative", "beyond_64_bits", "not_an_integer"])
    def test_seed_override_does_not_rescue_invalid_spec_seed(self, tmp_path, capsys,
                                                              seed, message):
        # The spec is validated as written, before --seed replaces its seed.
        spec = tmp_path / "bad_seed.spec"
        spec.write_text(f"a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 5\nseed = {seed}\n")
        code = main(["simulate", "--spec", str(spec), "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "beyond_64_bits"])
    def test_seed_override_out_of_range_exits_2(self, growth_spec, capsys, seed):
        # --seed goes through SyntheticSpec._replace, which checks it again.
        code = main(["simulate", "--spec", str(growth_spec), "--seed", seed])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: seed must be an unsigned 64-bit integer\n")


class TestFit:
    def test_exponential_recovery(self, run_cli, tmp_path):
        stream = tmp_path / "exp.jsonl"
        stream.write_text(
            jsonl_stream(lambda t: math.exp(0.2 * t + 0.5), lambda t: 10.0, 10)
        )
        code, out, _ = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "exp")
        assert code == 0
        assert "kind = exp\n" in out
        assert "a = 0.200000\n" in out
        assert "b = 0.500000\n" in out
        assert "n_points = 10\n" in out

    def test_constant_sinexp_via_pipe(self, run_cli, constant_spec):
        _, stream, _ = run_cli("simulate", "--spec", str(constant_spec))
        code, out, _ = run_cli("fit", "--axis", "x", "--model", "sinexp", stdin=stream)
        assert code == 0
        assert "a = 0.000000\n" in out
        assert "b = 1.000000\n" in out
        assert "rmse = 0.000000\n" in out

    def test_polynomial_prints_coefficients(self, run_cli, tmp_path):
        stream = tmp_path / "quad.jsonl"
        stream.write_text(jsonl_stream(lambda t: t * t + 1.0, lambda t: 5.0, 8))
        code, out, _ = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "poly")
        assert code == 0
        assert "kind = poly2\n" in out
        assert "coefficients = 1.000000,0.000000,1.000000\n" in out
        assert "a =" not in out

    def test_zero_value_under_exp_exits_2(self, run_cli, tmp_path):
        stream = tmp_path / "zero.jsonl"
        stream.write_text(jsonl_stream(lambda t: 0.0 if t == 2 else 4.0, lambda t: 4.0, 6))
        code, _, err = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "exp")
        assert code == 2
        assert "t=2.0" in err

    def test_clamp_flag_rescues_zero_value(self, run_cli, tmp_path):
        stream = tmp_path / "zero.jsonl"
        stream.write_text(jsonl_stream(lambda t: 0.0 if t == 2 else 4.0, lambda t: 4.0, 6))
        code, out, _ = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "exp", "--clamp-nonpositive")
        assert code == 0
        assert out.startswith("kind = exp\n")

    def test_rmse_of_squares_past_float_range(self, run_cli, tmp_path):
        # Each residual is about -1.0019e295: finite, though its square is not.
        stream = tmp_path / "big.jsonl"
        stream.write_text(jsonl_stream(lambda t: 1e308, lambda t: 4.0, 3))
        code, out, _ = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "exp")
        assert code == 0
        rmse = out.splitlines()[-1]
        assert rmse.startswith("rmse = ") and float(rmse[7:]) == pytest.approx(1.0019118e295)

    def test_linear_fit_of_values_whose_sum_overflows(self, run_cli, tmp_path):
        # The x sum of three boxes at 1e308 is inf; their mean is not.
        stream = tmp_path / "big.jsonl"
        stream.write_text(jsonl_stream(lambda t: 1e308, lambda t: 4.0, 3))
        code, out, _ = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "linear")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "a = 0.000000"
        assert float(lines[2][4:]) == 1e308

    def test_polynomial_fit_of_values_near_the_float_limit(self, run_cli, tmp_path):
        # The weighted sums of three boxes at 1.7e308 overflow; their fit does not.
        stream = tmp_path / "near.jsonl"
        stream.write_text(jsonl_stream(lambda t: 1.7e308, lambda t: 4.0, 3))
        code, out, err = run_cli("fit", "--input", str(stream), "--axis", "x",
                                 "--model", "poly2")
        assert (code, err) == (0, "")
        coefficients = out.splitlines()[1]
        assert coefficients.startswith("coefficients = ")
        c0, c1, c2 = map(float, coefficients[15:].split(","))
        assert c0 == 1.7e308 and abs(c1) < 1e293 and abs(c2) < 1e293

    def test_csv_input(self, run_cli, tmp_path):
        stream = tmp_path / "stream.csv"
        rows = ["frame,left,top,width,height,confidence,label"]
        for t in range(6):
            rows.append(f"{t},{t + 1.0},{2 * t + 1.0},2,2,0.9,tip")
        stream.write_text("".join(r + "\n" for r in rows))
        code, out, _ = run_cli("fit", "--input", str(stream), "--format", "csv",
                               "--axis", "y", "--model", "linear")
        assert code == 0
        assert "a = 2.000000\n" in out
        assert "b = 2.000000\n" in out


class TestPredict:
    def test_no_defect_inside_region(self, run_cli, constant_spec):
        _, stream, _ = run_cli("simulate", "--spec", str(constant_spec))
        code, out, _ = run_cli("predict", "--model", "sinexp",
                               "--region", "0,0,10,10", stdin=stream)
        assert code == 0
        t_target, x, y, verdict = out.strip().split(",")
        assert t_target == "79.000000"
        assert float(x) == float(y)
        assert abs(float(x) - math.e) < 1e-4
        assert verdict == "false"

    def test_defect_outside_region_exits_3(self, run_cli, constant_spec):
        _, stream, _ = run_cli("simulate", "--spec", str(constant_spec))
        code, out, _ = run_cli("predict", "--model", "sinexp",
                               "--region", "5,5,10,10", stdin=stream)
        assert code == 3
        assert out.strip().endswith(",true")

    def test_no_region_never_defects(self, run_cli, constant_spec):
        _, stream, _ = run_cli("simulate", "--spec", str(constant_spec))
        code, out, _ = run_cli("predict", "--model", "sinexp", stdin=stream)
        assert code == 0
        assert out.strip().endswith(",false")

    def test_zero_horizon_exits_2(self, run_cli, constant_spec):
        _, stream, _ = run_cli("simulate", "--spec", str(constant_spec))
        code, _, err = run_cli("predict", "--horizon", "0", stdin=stream)
        assert code == 2
        assert "horizon" in err

    def test_malformed_stream_exits_2_with_line(self, run_cli):
        code, _, err = run_cli("predict", stdin="not json\n")
        assert code == 2
        assert "line 1" in err


class TestCompare:
    def test_default_rows_in_table_order(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        code, out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("model,")
        assert [line.split(",")[0] for line in lines[1:]] == [
            "sinexp", "cosexp", "exp", "poly2"
        ]

    def test_requested_model_order_preserved(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        code, out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30",
                               "--models", "exp,linear,poly3")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            "exp", "linear", "poly3"
        ]

    def test_text_table(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        code, out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30",
                               "--table", "text")
        assert code == 0
        header = out.splitlines()[0]
        assert "Regression" in header and "x-error %" in header

    def test_insufficient_window_isolates_poly_row(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        code, out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30",
                               "--window", "2")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
        assert rows["poly2"][1] == "" and rows["poly2"][2] == ""
        assert rows["exp"][1] != ""

    def test_noiseless_exponential_scores_zero(self, run_cli, tmp_path):
        stream = tmp_path / "exact.jsonl"
        stream.write_text(
            jsonl_stream(
                lambda t: math.exp(0.01 * t + 2.0),
                lambda t: math.exp(0.005 * t + 3.0),
                91,
            )
        )
        code, out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30")
        assert code == 0
        exp_row = [line for line in out.splitlines() if line.startswith("exp,")][0]
        assert exp_row.split(",")[1] == "0.000000"
        assert exp_row.split(",")[2] == "0.000000"

    def test_window_all_equals_default(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        _, default_out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30")
        _, all_out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30",
                                "--window", "all")
        assert default_out == all_out

    def test_missing_truth_exits_2(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        code, _, err = run_cli("compare", "--input", str(stream), "--cutoff", "90")
        assert code == 2
        assert "ground-truth" in err or "truth" in err

    def test_model_reads_as_models(self, growth_spec, tmp_path, capsys):
        # compare has no --model; argparse takes it for the --models prefix.
        stream = tmp_path / "stream.jsonl"
        assert main(["simulate", "--spec", str(growth_spec), "--out", str(stream)]) == 0
        outputs = [(main(["compare", "--input", str(stream), option, "linear"]),
                    capsys.readouterr()) for option in ("--model", "--models")]
        assert outputs[0] == outputs[1]
        code, (out, err) = outputs[0]
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == ["model", "linear"]

    def test_golden_default_comparison(self, run_cli, tmp_path):
        spec = tmp_path / "golden.spec"
        spec.write_text(
            "a_x = 0.01\nb_x = 2\na_y = 0.005\nb_y = 3\nn_frames = 100\n"
            "noise_sigma = 0.01\nseed = 42\n"
        )
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(spec), "--out", str(stream))
        code, out, _ = run_cli("compare", "--input", str(stream), "--cutoff", "30")
        assert code == 0
        assert out == (DATA / "compare_seed42.golden.csv").read_text()


class TestPlot:
    def test_svg_structure(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        svg = tmp_path / "out.svg"
        code, _, _ = run_cli("plot", "--input", str(stream), "--model", "sinexp",
                             "--cutoff", "30", "--out", str(svg))
        assert code == 0
        root = ET.parse(svg).getroot()
        panels = root.findall(f"{SVG_NS}g")
        assert [p.get("id") for p in panels] == ["panel-x", "panel-y"]
        for panel in panels:
            predictions = [
                c for c in panel.iter(f"{SVG_NS}circle") if c.get("class") == "prediction"
            ]
            curves = [
                p for p in panel.iter(f"{SVG_NS}polyline") if p.get("class") == "curve"
            ]
            samples = [
                c for c in panel.iter(f"{SVG_NS}circle") if c.get("class") == "sample"
            ]
            assert len(predictions) == 1
            assert len(curves) == 1
            assert len(samples) == 31

    def test_byte_identical_reruns(self, run_cli, growth_spec, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("simulate", "--spec", str(growth_spec), "--out", str(stream))
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("plot", "--input", str(stream), "--model", "exp", "--out", str(svg1))
        run_cli("plot", "--input", str(stream), "--model", "exp", "--out", str(svg2))
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_empty_input_exits_2(self, run_cli, tmp_path):
        svg = tmp_path / "out.svg"
        code, _, _ = run_cli("plot", "--model", "exp", "--out", str(svg), stdin="")
        assert code == 2

    def test_curve_overflow_names_the_axis(self, tmp_path, capsys):
        stream = tmp_path / "rising.jsonl"
        stream.write_text(jsonl_stream(lambda t: 3.0 if t == 0 else 1.7e308, lambda t: 4.0, 3))
        svg = tmp_path / "fit.svg"
        code = main(["plot", "--input", str(stream), "--model", "exp", "--out", str(svg)])
        assert code == 2 and not svg.exists()
        assert capsys.readouterr() == ("", "error: x axis: exp prediction overflows at t=2.0\n")

    # 20 frames (0..19) and the default horizon of 60: the curve runs from
    # frame 0 to cutoff + 60, every frame while that span is within the bound.
    @pytest.mark.parametrize("cutoff, points", [
        (19, 80),
        (cli.MAX_CURVE_FRAMES - 61, cli.MAX_CURVE_FRAMES),
        (cli.MAX_CURVE_FRAMES - 60, cli.MAX_CURVE_FRAMES // 2 + 1),
        (10**6, None),
        (2**53 - 100, None),
    ], ids=["paper_span", "at_bound", "past_bound", "target_1e6", "target_near_2_53"])
    def test_curve_points_are_bounded(self, tmp_path, capsys, cutoff, points):
        stream = tmp_path / "stream.jsonl"
        stream.write_text(jsonl_stream(lambda t: 10.0 + t, lambda t: 20.0 - 0.5 * t, 20))
        svg = tmp_path / "fit.svg"
        code = main(["plot", "--input", str(stream), "--model", "linear",
                     "--cutoff", str(cutoff), "--out", str(svg)])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        assert svg.stat().st_size < 64_000
        for panel in ET.parse(svg).getroot().findall(f"{SVG_NS}g"):
            curve = panel.find(f"{SVG_NS}polyline").get("points").split()
            if points is None:
                assert cli.MAX_CURVE_FRAMES // 2 < len(curve) <= cli.MAX_CURVE_FRAMES + 1
            else:
                assert len(curve) == points
            (prediction,) = [c for c in panel.iter(f"{SVG_NS}circle")
                             if c.get("class") == "prediction"]
            assert curve[-1] == f"{prediction.get('cx')},{prediction.get('cy')}"


class TestExitCodes:
    def test_unknown_model_exits_2(self, run_cli, constant_spec, tmp_path):
        stream = tmp_path / "s.jsonl"
        run_cli("simulate", "--spec", str(constant_spec), "--out", str(stream))
        code, _, err = run_cli("fit", "--input", str(stream), "--axis", "x",
                               "--model", "cubic")
        assert code == 2
        assert "cubic" in err

    def test_missing_input_file_exits_2(self, run_cli):
        code, _, _ = run_cli("fit", "--input", "/nonexistent/path.jsonl", "--axis", "x")
        assert code == 2

    def test_usage_error_exits_2(self, run_cli):
        code, _, _ = run_cli("fit", "--axis", "z", stdin="")
        assert code == 2

    def test_out_of_memory_exits_2(self, tmp_path):
        # n_frames is under the 2**53 + 1 cap, but its t column cannot fit in
        # the 400 MiB address space the child is given.
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS on this platform")
        spec = tmp_path / "huge.spec"
        spec.write_text("a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 10000000000\n")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        try:
            result = subprocess.run([sys.executable, "-m", "trackcast", "simulate", "--spec",
                                     str(spec)], preexec_fn=limit_memory,
                                    capture_output=True, text=True)
        except subprocess.SubprocessError:  # setrlimit refused in the child
            pytest.skip("RLIMIT_AS cannot be set here")
        assert (result.returncode, result.stdout, result.stderr) == \
            (2, "", "error: out of memory\n")


class TestHostileInput:
    """Hostile bytes get exit 2 and one ``error:`` line, checked in-process."""

    NON_UTF8 = (b'{"frame": 0, "left": 1.0, "top": 1.0, "width": 4.0, "height": 4.0, '
                b'"label": "\xff\xfe"}\n')
    HUGE_LEFT = ('{"frame": 0, "left": 1' + "0" * 400 +
                 ', "top": 1.0, "width": 4.0, "height": 4.0}\n').encode()
    HUGE_FRAME = ('{"frame": 1' + "0" * 400 +
                  ', "left": 1.0, "top": 1.0, "width": 4.0, "height": 4.0}\n').encode()
    CENTER_OVERFLOWS = b"".join(
        b'{"frame": %d, "left": 1.7e308, "top": 1.0, "width": 1.7e308, "height": 4.0}\n' % i
        for i in range(3))

    @staticmethod
    def run_main(capsys, *argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        return code, err

    @pytest.mark.parametrize("data, message", [
        (NON_UTF8, "input is not UTF-8"),
        (HUGE_LEFT, "line 1: value for 'left' must be finite"),
        (HUGE_FRAME, "line 1: invalid value for 'frame'"),
        (CENTER_OVERFLOWS, "line 1: box center x = left + width / 2 overflows"),
    ], ids=["non_utf8", "huge_left", "huge_frame", "center_overflows"])
    def test_input_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "hostile.jsonl"
        path.write_bytes(data)
        code, err = self.run_main(capsys, "fit", "--input", str(path), "--axis", "x",
                                  "--model", "linear")
        assert code == 2
        assert message in err

    def test_polynomial_coefficients_past_float_range(self, tmp_path, capsys):
        path = tmp_path / "hostile.jsonl"
        path.write_text(jsonl_stream(lambda t: (1.7e308, -1.7e308, 1.7e308)[t],
                                     lambda t: 4.0, 3))
        code, err = self.run_main(capsys, "fit", "--input", str(path), "--axis", "x",
                                  "--model", "poly2")
        assert code == 2
        assert err == (
            "error: x axis: polynomial coefficients pass the float range for these values\n")

    def test_non_utf8_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(self.NON_UTF8)))
        code, err = self.run_main(capsys, "predict")
        assert code == 2
        assert "input is not UTF-8" in err

    def test_csv_field_over_size_limit(self, tmp_path, capsys):
        path = tmp_path / "hostile.csv"
        path.write_text("frame,left,top,width,height,confidence,label\n"
                        "0,1,1,4,4,1," + "x" * 200_000 + "\n")
        code, err = self.run_main(capsys, "fit", "--input", str(path), "--format", "csv",
                                  "--axis", "x")
        assert code == 2
        assert "line 2: field larger than field limit" in err

    @pytest.mark.parametrize("argv, message", [
        (["plot", "--cutoff", "inf"], "plot needs a finite target frame, got inf"),
        (["plot", "--cutoff", "1e308", "--horizon", "1" + "0" * 308],
         "plot needs a finite target frame, got inf"),
        (["compare", "--horizon", "1" + "0" * 400], "horizon is beyond the float range"),
        (["predict", "--horizon", "1" + "0" * 400], "horizon is beyond the float range"),
        (["plot", "--horizon", "1" + "0" * 400], "horizon is beyond the float range"),
    ], ids=["plot_cutoff_inf", "plot_target_overflows", "compare_horizon",
            "predict_horizon", "plot_horizon"])
    def test_option_beyond_float_range(self, tmp_path, capsys, argv, message):
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(
            f'{{"frame": {t}, "left": {t + 1}, "top": 2, "width": 2, "height": 2}}\n'
            for t in range(10)))
        if argv[0] == "plot":
            argv = [*argv, "--out", str(tmp_path / "fit.svg")]
        code, err = self.run_main(capsys, *argv, "--input", str(path), "--model", "linear")
        assert code == 2
        assert message in err

    # A polyN token whose digits int() cannot read, or whose degree no stream
    # can fit, is refused before any fit; so is an empty token, and for
    # compare an empty list, which names the empty model rather than the
    # default kinds.
    @pytest.mark.parametrize("token, message", [
        ("", "unknown model ''"),
        ("poly²", "unknown model 'poly²'"),
        ("poly" + "9" * 5000, "unknown model 'poly" + "9" * 5000 + "'"),
        ("poly" + "9" * 4300, "polynomial degree must be <= 9007199254740992"),
    ], ids=["empty", "superscript", "over_int_digit_limit", "degree_beyond_any_stream"])
    @pytest.mark.parametrize("command", [
        ["fit", "--axis", "x", "--model"],
        ["predict", "--model"],
        ["plot", "--model"],
        ["compare", "--models"],
    ], ids=["fit", "predict", "plot", "compare"])
    def test_model_token(self, tmp_path, capsys, command, token, message):
        path = tmp_path / "stream.jsonl"
        path.write_text(jsonl_stream(lambda t: 10.0 + t, lambda t: 20.0, 10))
        argv = [*command, token, "--input", str(path)]
        if command[0] == "plot":
            argv += ["--out", str(tmp_path / "fit.svg")]
        code, err = self.run_main(capsys, *argv)
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("n_frames", [str(2**53 + 2), "99999999999999999999999"],
                             ids=["one_past", "23_digits"])
    def test_spec_frames_past_max_frame(self, tmp_path, capsys, n_frames):
        # Refused before any frame is generated: a t column of range(n_frames)
        # would grow until memory ran out.
        spec = tmp_path / "long.spec"
        spec.write_text(f"a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = {n_frames}\n")
        code, err = self.run_main(capsys, "simulate", "--spec", str(spec))
        assert (code, err) == (2, "error: n_frames must be <= 9007199254740993\n")

    def test_non_utf8_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(b"a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 5 # \xff\n")
        code, err = self.run_main(capsys, "simulate", "--spec", str(spec))
        assert code == 2
        assert "input is not UTF-8" in err


class TestSignedOptionValues:
    """A numeric option takes a value that starts with '-' even where argparse
    would not read it as a negative number, checked in-process."""

    @pytest.fixture
    def stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(jsonl_stream(lambda t: 10.0 + t, lambda t: 20.0, 10))
        return str(path)

    @staticmethod
    def run(capsys, *argv):
        code = in_process(*argv)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("cutoff", ["-1e3", "-inf", "-1.5e-3"])
    @pytest.mark.parametrize("option", ["--cutoff", "--cut"])
    def test_negative_cutoff(self, stream, capsys, option, cutoff):
        fit = ["fit", "--input", stream, "--axis", "x", "--model", "linear"]
        result = self.run(capsys, *fit, option, cutoff)
        assert result == (2, "", "error: x axis: linear fit needs at least 2 samples, got 0\n")
        assert self.run(capsys, *fit, f"--cutoff={cutoff}") == result

    @pytest.mark.parametrize("region, expected", [
        ("-10,0,640,480", (0, "69.000000,79.000000,20.000000,false\n", "")),
        ("-10,-10,-5,-5", (3, "69.000000,79.000000,20.000000,true\n", "")),
    ], ids=["inside", "outside"])
    def test_negative_region(self, stream, capsys, region, expected):
        predict = ["predict", "--input", stream, "--model", "linear"]
        assert self.run(capsys, *predict, "--region", region) == expected
        assert self.run(capsys, *predict, f"--region={region}") == expected

    @pytest.mark.parametrize("value", ["--axis", "-h"])
    def test_option_is_not_taken_for_a_value(self, stream, capsys, value):
        code, out, err = self.run(capsys, "fit", "--input", stream, "--cutoff", value, "x")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --cutoff: expected one argument\n")


def in_process(*argv):
    """``main(argv)`` in this process; a usage error's exit code as returned."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_csv_copy(jsonl: Path, csv: Path) -> Path:
    """Write the records of a simulated JSONL stream to ``csv`` as a CSV
    stream and return its path. Simulated labels need no quoting."""
    records = parse_detections(jsonl.read_text(), StreamFormat.JSONL)
    csv.write_text("".join([",".join(CSV_HEADER) + "\n"]
                           + [",".join(map(str, r)) + "\n" for r in records]))
    return csv


class TestParserReuse:
    """``main`` builds its parser once per process; every later call must
    behave as a fresh ``python -m trackcast`` does."""

    def test_repeated_calls_match_fresh_processes(self, run_cli, growth_spec, tmp_path,
                                                  capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at the same width
        jsonl, csv = tmp_path / "stream.jsonl", tmp_path / "stream.csv"
        main(["simulate", "--spec", str(growth_spec), "--out", str(jsonl)])
        write_csv_copy(jsonl, csv)
        hostile = tmp_path / "hostile.jsonl"
        hostile.write_bytes(TestHostileInput.HUGE_LEFT)
        j, c, cut = str(jsonl), str(csv), ["--cutoff", "30"]
        svg = tmp_path / "fit.svg"
        calls = [  # the cli_paper mix, then a usage error, help and a hostile input
            ["simulate", "--spec", str(growth_spec), "--seed", "11"],
            ["fit", "--input", j, "--axis", "x", "--model", "linear"],
            ["fit", "--input", c, "--format", "csv", "--axis", "y", "--model", "exp",
             *cut, "--window", "20"],
            ["predict", "--input", j, "--model", "sinexp", *cut, "--horizon", "60",
             "--region", "0,0,5,30"],
            ["compare", "--input", j, *cut],
            ["compare", "--input", c, "--format", "csv", *cut, "--table", "text"],
            ["plot", "--input", j, "--model", "sinexp", *cut, "--out", str(svg)],
            ["fit", "--axis", "z"],
            ["predict", "--help"],
            ["fit", "--input", str(hostile), "--axis", "x", "--model", "linear"],
        ]
        for argv in calls:  # warm-up: the parser is built and reused
            in_process(*argv)
        capsys.readouterr()
        codes = []
        for argv in calls:
            svg.unlink(missing_ok=True)
            code = in_process(*argv)
            out, err = capsys.readouterr()
            written = svg.read_bytes() if svg.exists() else None
            svg.unlink(missing_ok=True)
            assert (code, out, err) == run_cli(*argv), argv
            assert written == (svg.read_bytes() if svg.exists() else None), argv
            codes.append(code)
        assert codes == [0, 0, 0, 3, 0, 0, 0, 2, 0, 2]

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert in_process("fit", "--axis", "z") == 2
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        first, second = build(), build()
        assert first is not second
        assert first.format_help() == second.format_help()

    def test_replaced_command_runs(self, monkeypatch):
        cli._parser()
        monkeypatch.setattr(cli, "cmd_fit", lambda args: 7 if args.axis == "y" else 0)
        assert main(["fit", "--axis", "y"]) == 7


def test_start_up_imports_no_thread_pool():
    # Neither the package nor the CLI loads these at start-up: dataclasses and
    # typing (with inspect, which dataclasses pulls in) cost more to import
    # than the rest of the package, and the thread pool is opt-in. csv and
    # random are imported by the functions that read or write CSV and that
    # generate a trajectory, which most calls never reach.
    # Building the parser, printing its help and refusing a usage loads no
    # shutil (nor the bz2, lzma and fnmatch it imports): every formatter is
    # given its width instead of reading the terminal's.
    src = Path(trackcast.__file__).resolve().parent.parent
    heavy = ["dataclasses", "typing", "inspect", "concurrent.futures", "csv", "random",
             "shutil", "bz2", "lzma", "fnmatch"]
    parse = ("import trackcast.cli as c, contextlib, io; p = c._parser(); p.format_help()\n"
             "with contextlib.redirect_stderr(io.StringIO()), "
             "contextlib.suppress(SystemExit): p.parse_args(['fit', '--axis', 'z'])")
    for code in ("import trackcast", "import trackcast.cli", parse):
        result = subprocess.run(
            [sys.executable, "-S", "-c",
             f"{code}\nimport sys; print([m for m in {heavy!r} if m in sys.modules])"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", ""), code


@pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"], ["fit", "--axis", "z"]],
                         ids=["help", "compare_help", "usage_error"])
def test_help_wraps_at_78_columns_whatever_columns_says(run_cli, monkeypatch, argv):
    monkeypatch.delenv("COLUMNS", raising=False)
    default = run_cli(*argv)
    assert default[0] in (0, 2) and (default[1] or default[2])
    wrapped = [line for line in (default[1] + default[2]).splitlines() if ": error: " not in line]
    assert max(map(len, wrapped)) <= 78
    for columns in ("200", "40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        assert run_cli(*argv) == default, columns


def test_help_text_is_pinned(run_cli, monkeypatch):
    # Each command's help, options and their order and wording included, is
    # the committed text, which test_help_wraps_at_78_columns_whatever_columns_says
    # holds the same under any COLUMNS.
    monkeypatch.delenv("COLUMNS", raising=False)
    text = []
    for command in ([], ["simulate"], ["fit"], ["predict"], ["compare"], ["plot"]):
        code, out, err = run_cli(*command, "--help")
        assert (code, err) == (0, "")
        text.append(f"$ {' '.join(['trackcast', *command, '--help'])}\n{out}")
    assert "".join(text) == (Path(__file__).parent / "data" / "help.txt").read_text()


def test_commands_build_no_pairs(growth_spec, tmp_path, capsys, monkeypatch):
    # Every command works on the series' columns: with the (t, value) pair view
    # made to raise, each writes the same bytes and exits the same.
    stream = tmp_path / "stream.jsonl"
    assert main(["simulate", "--spec", str(growth_spec), "--out", str(stream)]) == 0
    src = ["--input", str(stream)]
    commands = [["simulate", "--spec", str(growth_spec)], ["fit", *src, "--axis", "y"],
                ["predict", *src, "--cutoff", "60", "--region", "0,0,10,10"],
                ["compare", *src, "--cutoff", "30"],
                ["plot", *src, "--cutoff", "60", "--model", "poly3", "--out", "-"]]

    def outputs():
        return [(main(argv), capsys.readouterr()) for argv in commands]

    expected = outputs()

    def no_pairs(series):
        raise AssertionError("the pairs of a series were built")

    monkeypatch.setattr(trackcast.AxisSeries, "samples", property(no_pairs))
    assert outputs() == expected
    assert [(code, bool(out), err) for code, (out, err) in expected] == [
        (0, True, ""), (0, True, ""), (3, True, ""), (0, True, ""), (0, True, "")]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_kept_records_are_freed_before_the_series_are_built(growth_spec, tmp_path, capsys,
                                                           monkeypatch, fmt):
    # The records select_per_frame keeps are needed only for their triples:
    # nothing holds them while build_series runs, so the peak of the route is
    # the larger of the records and the series, not their sum.
    stream = tmp_path / "stream.jsonl"
    assert main(["simulate", "--spec", str(growth_spec), "--out", str(stream)]) == 0
    if fmt == "csv":
        stream = write_csv_copy(stream, tmp_path / "stream.csv")
    expected = (main(["fit", "--input", str(stream), "--format", fmt, "--axis", "x"]),
                capsys.readouterr())

    class Kept(list):
        pass

    kept = []
    select, build = cli.select_per_frame, cli.build_series

    def selecting(records):
        records = Kept(select(records))
        kept.append(weakref.ref(records))
        return records

    def building(observations):
        assert [ref() for ref in kept] == [None], "the kept records are still alive"
        return build(observations)

    monkeypatch.setattr(cli, "select_per_frame", selecting)
    monkeypatch.setattr(cli, "build_series", building)
    assert (main(["fit", "--input", str(stream), "--format", fmt, "--axis", "x"]),
            capsys.readouterr()) == expected
    assert len(kept) == 1 and expected[0] == 0


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_reads").add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize("argv", [
    ["simulate", "--spec", "{spec}", "--seed", "3", "--out", "{out}"],
    ["fit", "--input", "{stream}", "--format", "jsonl", "--axis", "x", "--model", "exp",
     "--window", "20", "--cutoff", "60", "--clamp-nonpositive"],
    ["predict", "--input", "{stream}", "--model", "linear", "--window", "all", "--cutoff", "60",
     "--horizon", "10", "--region", "0,0,640,480"],
    ["compare", "--input", "{stream}", "--models", "exp,poly3", "--window", "30",
     "--cutoff", "60", "--horizon", "10", "--table", "text", "--out", "{out}"],
    ["plot", "--input", "{stream}", "--model", "poly", "--cutoff", "60", "--horizon", "10",
     "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_every_declared_option_is_read(growth_spec, tmp_path, capsys, argv):
    # Each value the parser sets on the namespace is a declared option (or its
    # default); the command it dispatches to must read every one of them.
    stream = tmp_path / "stream.jsonl"
    assert main(["simulate", "--spec", str(growth_spec), "--out", str(stream)]) == 0
    paths = {"spec": growth_spec, "stream": stream, "out": tmp_path / "out"}
    args = cli.build_parser().parse_args([token.format(**paths) for token in argv],
                                         namespace=ReadRecorder())
    declared = {name for name in vars(args) if not name.startswith("_")}
    args._reads.clear()  # the parser itself reads the defaults it set
    assert getattr(cli, f"cmd_{args.command}")(args) in (0, 3)
    assert declared - args._reads == set()
