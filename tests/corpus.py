"""The output corpus: trackcast CLI calls and a hash of every byte they write.

Each case is one ``cli.main`` call, run in-process in a directory that holds
the input files written by ``write_inputs``. ``tests/data/corpus.txt`` keeps
one line per case: the exit code, the sha256 (first 16 hex digits) of stdout,
of stderr and of the file the call wrote ("-" for none), the stdin file ("-"
for none) and the argv as JSON. Some wording comes from the standard library
and differs between Python versions: the stderr hash leaves out the decoder's
message in "invalid JSON (...)", and the stderr of a usage error, which
``argparse`` writes, is not pinned ("*").

    python tests/corpus.py                  replay the committed corpus; exit 1
                                            naming each case that moved
    python tests/corpus.py --write          regenerate tests/data/corpus.txt
    python tests/corpus.py --against TREE   run the cases under this tree's
                                            src/ and TREE/src/, name each case
                                            whose output differs

Regenerating the committed file is a behaviour change: name each moved case.
Only the standard library is used, so any interpreter can run the check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "corpus.txt"
HEADER = ("# trackcast output corpus, written by tests/corpus.py --write\n"
          "# exit, sha256[:16] of stdout, stderr (* unpinned), written file (-: none), "
          "stdin file (-: none), argv\n")

MODELS = ["linear", "exp", "sinexp", "cosexp", "poly", "poly3", "poly5"]
WINDOWS = ["all", "2", "20"]
# No cutoff, on a frame, between frames, both infinities, nan, far beyond the stream.
CUTOFFS = [None, "60", "60.5", "inf", "-inf", "nan", "1e9"]
FEW_CUTOFFS = [None, "60.5", "nan"]
CSV_HEADER = "frame,left,top,width,height,confidence,label"
_DECODER_MESSAGE = re.compile(r"invalid JSON \(.*\)$", re.MULTILINE)


# ---------------------------------------------------------------- inputs

def _records(seed, n_frames, x_of, y_of):
    """Boxes for frames 0..n_frames-1, with decoys, exact ties and the value
    shapes a detector writes: ints, floats, a left-out confidence or label."""
    rng = random.Random(seed)
    out = []
    for frame in range(n_frames):
        x, y = x_of(frame), y_of(frame)
        out.append((frame, round(x - 2.0, 6), round(y - 2.0, 6), 4.0, 4.0, 0.9, "tip"))
        roll = rng.random()
        if roll < 0.2:  # a decoy the selection must drop
            out.append((frame, round(x + rng.uniform(-50, 50), 3), round(y, 3), 3.0, 5.0,
                        round(rng.uniform(0.1, 0.8), 2), "decoy"))
        elif roll < 0.25:  # a tie on confidence, broken by left then top
            out.append((frame, round(x - 2.0, 6), round(y - 3.0, 6), 4.0, 4.0, 0.9, "tie"))
    return out


def _jsonl(records, newline="\n"):
    lines = []
    for i, (frame, left, top, width, height, conf, label) in enumerate(records):
        if i % 7 == 3:  # ints where a float is exact, no confidence or label
            lines.append(f'{{"frame": {frame}, "left": {left!r}, "top": {top!r}, '
                         f'"width": {int(width)}, "height": {int(height)}}}')
        else:
            lines.append(f'{{"frame": {frame}, "left": {left!r}, "top": {top!r}, '
                         f'"width": {width!r}, "height": {height!r}, '
                         f'"confidence": {conf!r}, "label": "{label}"}}')
    return "".join(line + newline for line in lines)


def _csv(records, newline="\n"):
    rows = [CSV_HEADER]
    for i, (frame, left, top, width, height, conf, label) in enumerate(records):
        conf_cell = "" if i % 5 == 2 else repr(conf)
        rows.append(f"{frame},{left!r},{top!r},{int(width) if i % 3 == 0 else width!r},"
                    f"{height!r},{conf_cell},{label}")
    return "".join(row + newline for row in rows)


def _growth(frame):
    return 2.0 * 2.718281828459045 ** (0.02 * frame) + 20.0


def _wave(frame):
    return 40.0 + 30.0 * ((frame % 40) / 40.0) ** 2


GROWTH = _records(1, 130, _growth, lambda f: _growth(f) / 2.0 + 5.0)
NEGATIVE = _records(2, 130, lambda f: 0.5 * f - 30.0, lambda f: -(f % 17) - 1.0)
WAVE = _records(3, 130, _wave, lambda f: 100.0 - 0.3 * f)

HOSTILE_JSONL = {
    "non_utf8": b'{"frame": 0, "left": 1.0, "top": 1.0, "width": 4.0, "height": 4.0, '
                b'"label": "\xff\xfe"}\n',
    "bom": '\ufeff{"frame": 0, "left": 1, "top": 1, "width": 4, "height": 4}\n'.encode(),
    "trailing_comma": b'{"frame": 0, "left": 1, "top": 1, "width": 4, "height": 4,}\n',
    "not_json": b"{bad\n",
    "extra_data": b'{"frame": 0, "left": 1, "top": 1, "width": 4, "height": 4} 5\n',
    "deep": b"[" * 100_000 + b"\n",
    "int_5000_digits": b'{"frame": 0, "left": 1' + b"0" * 5000 + b"}\n",
    "huge_left": (b'{"frame": 0, "left": 1' + b"0" * 400 +
                  b', "top": 1.0, "width": 4.0, "height": 4.0}\n'),
    "huge_frame": (b'{"frame": 1' + b"0" * 400 +
                   b', "left": 1.0, "top": 1.0, "width": 4.0, "height": 4.0}\n'),
    "frame_2_53_plus_1": b'{"frame": 9007199254740993, "left": 1, "top": 1, "width": 4, '
                         b'"height": 4}\n',
    "frame_float": b'{"frame": 1.0, "left": 1, "top": 1, "width": 4, "height": 4}\n',
    "frame_bool": b'{"frame": true, "left": 1, "top": 1, "width": 4, "height": 4}\n',
    "frame_negative": b'{"frame": -1, "left": 1, "top": 1, "width": 4, "height": 4}\n',
    "missing_key": b'{"frame": 0, "left": 1, "width": 4}\n',
    "array": b"[1, 2, 3]\n",
    "null": b"null\n",
    "label_int": b'{"frame": 0, "left": 1, "top": 1, "width": 4, "height": 4, "label": 5}\n',
    "left_bool": b'{"frame": 0, "left": false, "top": 1, "width": 4, "height": 4}\n',
    "left_string": b'{"frame": 0, "left": "1", "top": 1, "width": 4, "height": 4}\n',
    "left_nan": b'{"frame": 0, "left": NaN, "top": 1, "width": 4, "height": 4}\n',
    "width_inf": b'{"frame": 0, "left": 1, "top": 1, "width": Infinity, "height": 4}\n',
    "width_zero": b'{"frame": 0, "left": 1, "top": 1, "width": 0, "height": 4}\n',
    "height_negative": b'{"frame": 0, "left": 1, "top": 1, "width": 4, "height": -4.5}\n',
    "confidence_1.5": b'{"frame": 0, "left": 1, "top": 1, "width": 4, "height": 4, '
                      b'"confidence": 1.5}\n',
    "confidence_null": b'{"frame": 0, "left": 1, "top": 1, "width": 4, "height": 4, '
                       b'"confidence": null}\n',
    "bad_frame_and_number": b'{"frame": "0", "left": NaN, "top": 1, "width": 4, '
                            b'"height": 4}\n',
    "empty": b"",
    "blank_lines": b"\n  \t\n\x0c\n\r\n",
    "cr_only": (b'{"frame": 0, "left": 1, "top": 2, "width": 4, "height": 4}\r'
                b'{"frame": 1, "left": 2, "top": 3, "width": 4, "height": 4}\r'),
    "line_separator_in_label": ('{"frame": 0, "left": 1, "top": 2, "width": 4, "height": 4, '
                                '"label": "a\u2028b"}\n{"frame": 1, "left": 2, "top": 3, '
                                '"width": 4, "height": 4}\n').encode(),
    "fault_on_line_5": _jsonl(GROWTH[:4]).encode() + b'{"frame": 4, "left": 1}\n',
}

HOSTILE_CSV = {name: (CSV_HEADER + "\n" + rows).encode() for name, rows in {
    "short_row": "0,1,1,4\n",
    "long_row": "0,1,1,4,4,1,a,b\n",
    "frame_word": "x,1,1,4,4,1,a\n",
    "frame_float": "3.0,1,1,4,4,1,a\n",
    "frame_2_53_plus_1": "9007199254740993,1,1,4,4,1,a\n",
    "left_word": "0,abc,1,4,4,1,a\n",
    "left_empty": "0,,1,4,4,1,a\n",
    "top_nan": "0,1,nan,4,4,1,a\n",
    "width_inf": "0,1,1,inf,4,1,a\n",
    "height_zero": "0,1,1,4,0,1,a\n",
    "confidence_1.5": "0,1,1,4,4,1.5,a\n",
    "confidence_word": "0,1,1,4,4,high,a\n",
    "bad_frame_and_number": "x,nan,1,4,4,1,a\n",
    "oversized_field": "0,1,1,4,4,1," + "x" * 200_000 + "\n",
    "quoted_newline": '0,1,1,4,4,1,"a\nb"\n1,2,2,4,4,1,c\n',
    "blank_rows": "\n0,1,1,4,4,1,a\n\n1,2,2,4,4,,b\n",
    "fault_on_line_4": "0,1,1,4,4,1,a\n1,2,2,4,4,1,b\n2,3,3,-4,4,1,c\n",
}.items()}
HOSTILE_CSV.update({
    "empty": b"",
    "wrong_header": b"frame,x,y\n0,1,2\n",
    "bom_header": ("\ufeff" + CSV_HEADER + "\n0,1,1,4,4,1,a\n").encode(),
    "non_utf8": (CSV_HEADER + "\n0,1,1,4,4,1,\xff\n").encode("latin-1"),
})


def _boxes(lefts, width=4.0, top=1.0, height=4.0):
    return "".join(f'{{"frame": {frame}, "left": {left}, "top": {top}, "width": {width}, '
                   f'"height": {height}}}\n' for frame, left in enumerate(lefts)).encode()


# Boxes near the float limit, named for the path each reaches: a value sum,
# residual squares or polynomial dot products that overflow and are taken again
# over scaled values, coefficients that still overflow, and box centers that do.
FLOAT_LIMIT = {
    "limit_1e308.jsonl": _boxes(["1e308"] * 3),
    "limit_1.7e308.jsonl": _boxes(["1.7e308"] * 3),
    "limit_alternating.jsonl": _boxes(["1.7e308", "-1.7e308", "1.7e308"]),
    "limit_center_x.jsonl": _boxes(["1.7e308"] * 3, width="1.7e308"),
    "limit_center_y.jsonl": _boxes(["1.0"] * 3, top="1.7e308", height="1.7e308"),
}

SPECS = {
    "growth.spec": "a_x = 0.01\nb_x = 2\na_y = 0.005\nb_y = 3\nn_frames = 100\nseed = 7\n",
    "constant.spec": "a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\n",
    "noisy.spec": ("# sin variant, noise and shake\na_x = 0.01\nb_x = 2.0\na_y = 0.005\n"
                   "b_y = 3.0\nvariant = sin_exponential\nnoise_sigma = 0.02\n"
                   "shake_prob = 0.1\nshake_scale = 1.5\nseed = 7\nn_frames = 90\n"),
    "overflow.spec": "a_x = 50\nb_x = 2\na_y = 0\nb_y = 1\nn_frames = 100\n",
    "nonpositive.spec": ("a_x = 0\nb_x = -30\na_y = 0\nb_y = 1\nn_frames = 10\n"
                         "noise_sigma = 0\nshake_prob = 1\nshake_scale = 5\nseed = 3\n"),
    "missing_key.spec": "a_x = 0\nb_x = 1\nn_frames = 20\n",
    "duplicate.spec": "a_x = 0\na_x = 1\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\n",
    "unknown_key.spec": "a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\ncolour = red\n",
    "bad_number.spec": "a_x = zero\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\n",
    "nan.spec": "a_x = nan\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\n",
    "bad_variant.spec": "a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 20\nvariant = cubic\n",
    "no_equals.spec": "a_x 0\n",
    "zero_frames.spec": "a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 0\n",
    "big_seed.spec": "a_x = 0\nb_x = 1\na_y = 0\nb_y = 1\nn_frames = 5\nseed = 18446744073709551616\n",
}


def write_inputs(root: Path) -> None:
    """Write every input file the cases read into ``root``."""
    files = {
        "growth.jsonl": _jsonl(GROWTH).encode(),
        "growth.csv": _csv(GROWTH).encode(),
        "negative.jsonl": _jsonl(NEGATIVE).encode(),
        "negative.csv": _csv(NEGATIVE).encode(),
        "crlf.jsonl": _jsonl(WAVE, "\r\n").encode(),
        "crlf.csv": _csv(WAVE, "\r\n").encode(),
        "short.jsonl": _jsonl(GROWTH[:3]).encode(),
        **{f"hostile_{name}.jsonl": data for name, data in HOSTILE_JSONL.items()},
        **{f"hostile_{name}.csv": data for name, data in HOSTILE_CSV.items()},
        **{name: text.encode() for name, text in SPECS.items()},
        **FLOAT_LIMIT,
    }
    for name, data in files.items():
        (root / name).write_bytes(data)


# ---------------------------------------------------------------- cases

def _fit_args(model, window, cutoff, clamp):
    args = ["--model", model, "--window", window]
    if cutoff is not None:
        args += ["--cutoff", cutoff]
    return args + (["--clamp-nonpositive"] if clamp else [])


def cases():
    """Every case as (argv, stdin file or None, stderr pinned)."""
    out = []

    def add(argv, stdin=None, pinned=True):
        out.append((argv, stdin, pinned))

    for spec in SPECS:
        add(["simulate", "--spec", spec])
    for seed in ("0", "1", "42", "-1"):
        add(["simulate", "--spec", "noisy.spec", "--seed", seed])
    add(["simulate", "--spec", "growth.spec", "--out", "out.jsonl"])
    add(["simulate", "--spec", "missing.spec"])
    add(["simulate", "--spec", "-"], stdin="growth.spec")

    grids = [  # stream, format, axis, cutoffs, clamp settings
        ("growth.jsonl", "jsonl", "x", CUTOFFS, (False, True)),
        ("growth.csv", "csv", "x", FEW_CUTOFFS, (False,)),
        ("negative.jsonl", "jsonl", "y", FEW_CUTOFFS, (False, True)),
        ("negative.csv", "csv", "x", [None], (False, True)),
        ("crlf.jsonl", "jsonl", "x", [None, "60"], (False,)),
        ("crlf.csv", "csv", "y", FEW_CUTOFFS, (False,)),
    ]
    for stream, fmt, axis, cutoffs, clamps in grids:
        src = ["--input", stream, "--format", fmt]
        for model in MODELS:
            for window in WINDOWS:
                for cutoff in cutoffs:
                    for clamp in clamps:
                        fit = _fit_args(model, window, cutoff, clamp)
                        add(["fit", *src, "--axis", axis, *fit])
                        # A gate on every other call, so verdicts both ways show.
                        gate = ["--region", "0,0,100,100"] if clamp == (fmt == "jsonl") else []
                        add(["predict", *src, *fit, *gate])
                        if cutoff in (None, "60.5") and window != "2":
                            add(["plot", *src, *fit, "--out", "out.svg"])
        for models in (None, "linear,exp,poly5", "sinexp,poly8"):
            for window in WINDOWS:
                for cutoff in cutoffs:
                    for clamp in clamps:
                        args = ["compare", *src, "--window", window]
                        if models:
                            args += ["--models", models]
                        if cutoff is not None:
                            args += ["--cutoff", cutoff]
                        add(args + (["--clamp-nonpositive"] if clamp else []))
    add(["fit", "--input", "growth.jsonl", "--axis", "y", "--model", "sinexp"])
    src = ["--input", "growth.jsonl"]
    for horizon in ("1", "10", "200", "1" + "0" * 400):
        add(["predict", *src, "--horizon", horizon])
        add(["compare", *src, "--horizon", horizon])
        add(["plot", *src, "--horizon", horizon, "--out", "out.svg"])
    for region in ("0,0,640,480", "-10,0,640,480", "30,20,31,21", "inf,-inf,nan,0"):
        add(["predict", *src, "--region", region])
        add(["predict", *src, "--region", region, "--cutoff", "60"])
    for extra in (["--table", "text"], ["--out", "out.csv"], ["--table", "text", "--out", "out.txt"],
                  ["--models", "poly", "--poly-degree", "4"], ["--cutoff", "125"]):
        add(["compare", *src, *extra])
    for degree in ("0", "1", "3", "12"):
        add(["fit", *src, "--axis", "x", "--model", "poly", "--poly-degree", degree])
    for cutoff in ("-1e3", "1e308", "-0"):
        add(["fit", *src, "--axis", "x", "--model", "linear", "--cutoff", cutoff])
    for window in ("0", "1", "-1", "ALL"):
        add(["fit", *src, "--axis", "x", "--model", "linear", "--window", window])
    add(["plot", *src, "--cutoff", "1e9", "--out", "out.svg"])
    add(["plot", *src, "--model", "linear", "--cutoff", "1e9", "--out", "out.svg"])
    add(["plot", *src, "--cutoff", "1e308", "--horizon", "1" + "0" * 308, "--out", "out.svg"])
    add(["plot", *src, "--out", "no/such/dir/out.svg"])
    add(["predict", "--input", "-"], stdin="growth.jsonl")
    add(["compare", "--input", "-", "--format", "csv"], stdin="growth.csv")
    add(["fit", "--axis", "x"], stdin="crlf.jsonl")
    add(["predict", "--input", "short.jsonl", "--model", "linear"])
    add(["fit", "--input", "short.jsonl", "--axis", "x", "--model", "poly5"])
    add(["fit", "--input", "missing.jsonl", "--axis", "x"])

    for name in HOSTILE_JSONL:
        for command in (["fit", "--axis", "x", "--model", "linear"], ["predict"]):
            add([*command, "--input", f"hostile_{name}.jsonl"])
    for name in HOSTILE_CSV:
        for command in (["fit", "--axis", "y", "--model", "linear"], ["predict"]):
            add([*command, "--input", f"hostile_{name}.csv", "--format", "csv"])

    usage = [
        [], ["fly"], ["fit"], ["fit", "--input", "growth.jsonl", "--axis", "z"],
        ["fit", *src, "--axis", "x", "--window", "abc"],
        ["fit", *src, "--axis", "x", "--cutoff", "soon"],
        ["fit", *src, "--axis", "x", "--poly-degree", "two"],
        ["fit", *src, "--axis", "x", "--format", "xml"],
        ["predict", *src, "--region", "1,2,3"], ["predict", *src, "--region", "a,b,c,d"],
        ["predict", *src, "--horizon", "1.5"], ["plot", *src], ["simulate"],
        ["compare", *src, "--table", "html"], ["fit", *src, "--axis", "x", "--bogus"],
    ]
    for argv in usage:
        add(argv, pinned=False)
    for argv in (["fit", *src, "--axis", "x", "--model", "cubic"],
                 ["compare", *src, "--models", "exp,,linear"],
                 ["predict", *src, "--horizon", "0"], ["compare", *src, "--horizon", "-5"],
                 ["fit", *src, "--axis", "x", "--model", " POLY3 "]):
        add(argv)
    for stream, model in (("limit_1e308.jsonl", "linear"), ("limit_1e308.jsonl", "exp"),
                          ("limit_1.7e308.jsonl", "poly2"), ("limit_alternating.jsonl", "poly2"),
                          ("limit_center_x.jsonl", "sinexp"), ("limit_center_y.jsonl", "linear")):
        add(["fit", "--input", stream, "--axis", "x", "--model", model])
    return out


# ---------------------------------------------------------------- running

def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return hashlib.sha256(data).hexdigest()[:16]


def _stderr_digest(err: str) -> str:
    return _digest(_DECODER_MESSAGE.sub("invalid JSON (...)", err))


def _run_one(main, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    data = Path(stdin).read_bytes() if stdin else b""
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # recorded, so a traceback shows up as a moved case
                code = f"raised:{type(exc).__name__}"
                print(f"{exc}", file=sys.stderr)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _written_file(argv):
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.name != "-" and path.is_file():
            data = path.read_bytes()
            path.unlink()
            return _digest(data)
    return "-"


def run_corpus() -> list[str]:
    """Run every case in a fresh directory of inputs; one corpus line each."""
    from trackcast.cli import main

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        write_inputs(Path(root))
        os.chdir(root)
        try:
            for argv, stdin, pinned in cases():
                code, out, err = _run_one(main, argv, stdin)
                fields = [str(code), _digest(out), _stderr_digest(err) if pinned else "*",
                          _written_file(argv), stdin or "-", json.dumps(argv)]
                lines.append("\t".join(fields))
        finally:
            os.chdir(cwd)
    return lines


def committed() -> list[str]:
    return [line for line in CORPUS.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


def moved(expected: list[str], got: list[str]) -> list[str]:
    """A description of each case whose line differs, by its stdin and argv."""
    if len(expected) != len(got):
        return [f"case count {len(got)}, expected {len(expected)}"]
    report = []
    for want, have in zip(expected, got):
        if want != have:
            want, have = want.split("\t"), have.split("\t")
            report.append(f"{' '.join(want[4:])}: expected {want[:4]}, got {have[:4]}")
    return report


def _emit_under(tree: Path) -> list[str]:
    result = subprocess.run([sys.executable, __file__, "--emit", str(tree / "src")],
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


def _main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--emit":  # the lines of the package under argv[1]
        sys.path.insert(0, argv[1])
        print("\n".join(run_corpus()))
        return 0
    sys.path.insert(0, str(HERE.parent / "src"))
    if len(argv) == 2 and argv[0] == "--against":
        report = moved(_emit_under(Path(argv[1]).resolve()), _emit_under(HERE.parent))
    elif argv == ["--write"]:
        lines = run_corpus()
        CORPUS.write_text(HEADER + "".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"{len(lines)} cases written to {CORPUS}")
        return 0
    elif not argv:
        report = moved(committed(), run_corpus())
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report) if report else "corpus identical")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
