"""Property tests: hostile documents and option values through the in-process CLI.

Whatever bytes arrive as a detection stream or a spec, ``cli.main`` returns
0, 2 or 3, lets no exception escape, and writes nothing or one ``error:``
line to stderr. The documents are random bytes and mutations of valid
JSONL, CSV and spec documents. Option values that argparse refuses exit 2
with its usage text instead. Examples are few and derandomized, so the
suite's time and outcome stay fixed.
"""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trackcast import (
    StreamFormat,
    TrackcastError,
    parse_detections,
    parse_synthetic_spec,
)
from trackcast.cli import main

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

# Twenty frames of one box moving at a steady speed, in each format.
STREAMS = {
    StreamFormat.JSONL: "".join(
        f'{{"frame": {t}, "left": {10.0 + 1.5 * t}, "top": {20.0 + 0.5 * t}, "width": 4.0, '
        f'"height": 4.0, "confidence": 0.9, "label": "tip"}}\n' for t in range(20)).encode(),
    StreamFormat.CSV: ("frame,left,top,width,height,confidence,label\n" + "".join(
        f"{t},{10.0 + 1.5 * t},{20.0 + 0.5 * t},4.0,4.0,0.9,tip\n" for t in range(20))).encode(),
}
SPEC = (b"# sin variant, noise and shake\n"
        b"a_x = 0.01\nb_x = 2.0\na_y = 0.005\nb_y = 3.0\n"
        b"variant = sin_exponential\nnoise_sigma = 0.02\nshake_prob = 0.1\n"
        b"shake_scale = 1.5\nseed = 7\nn_frames = 90\n")

# What a mutation may write. A replacement adds at most one digit per step and
# an insertion none that an integer parse accepts, so numbers stay short.
REPLACEMENTS = [bytes([c]) for c in b' ,:"{}[]=#-+.e0 9\n\r\t\x00\xff']
INSERTIONS = [b"-", b"nan", b"inf", b"1e999", b"true", b"null", b'"', b",", b"{", b"}",
              b"\n", b"\r\n", b"\x00", b"\xff", b"\xc3", "é".encode(), b"=", b"#",
              b"frame", b"left", b"label", b"variant", b'"confidence": ']


@st.composite
def mutated(draw, doc: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(doc)))
        op = draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
        if op == "replace":
            doc = doc[:pos] + draw(st.sampled_from(REPLACEMENTS)) + doc[pos + 1:]
        elif op == "delete":
            doc = doc[:pos] + doc[pos + draw(st.integers(1, 30)):]
        elif op == "insert":
            doc = doc[:pos] + draw(st.sampled_from(INSERTIONS)) + doc[pos:]
        else:
            doc = doc[:pos]
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return checked(argv, code, err.getvalue())


def checked(argv, code: int, err: str) -> int:
    assert code in (0, 2, 3), (argv, code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == "", err
    return code


def stream_commands(path, fmt: StreamFormat, svg):
    stream = ["--input", str(path), "--format", fmt.value]
    return [
        ["fit", *stream, "--axis", "x", "--model", "exp"],
        ["predict", *stream, "--model", "sinexp", "--region", "0,0,60,40"],
        ["compare", *stream, "--cutoff", "8", "--horizon", "5", "--table", "text"],
        ["plot", *stream, "--model", "linear", "--out", str(svg)],
    ]


def small_frames(doc: bytes, fmt: StreamFormat) -> bool:
    """False for a stream whose frames span too much for a quick plot curve,
    which steps over every frame up to the target."""
    try:
        records = parse_detections(doc, fmt)
    except TrackcastError:
        return True
    return all(r.frame_index < 10_000 for r in records)


@SETTINGS
@given(data=st.binary(max_size=300), fmt=st.sampled_from(list(StreamFormat)))
def test_random_bytes_as_stream(workdir, data, fmt):
    assume(small_frames(data, fmt))
    path = workdir / f"random.{fmt.value}"
    path.write_bytes(data)
    for argv in stream_commands(path, fmt, workdir / "random.svg"):
        run(argv)


@SETTINGS
@given(data=st.data(), fmt=st.sampled_from(list(StreamFormat)))
def test_mutated_stream(workdir, data, fmt):
    doc = data.draw(mutated(STREAMS[fmt]))
    assume(small_frames(doc, fmt))
    path = workdir / f"mutated.{fmt.value}"
    path.write_bytes(doc)
    for argv in stream_commands(path, fmt, workdir / "mutated.svg"):
        run(argv)


@SETTINGS
@given(doc=st.one_of(mutated(SPEC), st.binary(max_size=200)))
def test_mutated_spec(workdir, doc):
    try:
        assume(parse_synthetic_spec(doc.decode()).n_frames <= 10_000)
    except (UnicodeDecodeError, TrackcastError):
        pass
    path = workdir / "mutated.spec"
    path.write_bytes(doc)
    assert run(["simulate", "--spec", str(path), "--out", "-"]) in (0, 2)


def test_unmutated_documents_succeed(workdir):
    for fmt, doc in STREAMS.items():
        path = workdir / f"valid.{fmt.value}"
        path.write_bytes(doc)
        codes = [run(argv) for argv in stream_commands(path, fmt, workdir / "valid.svg")]
        assert codes[0] == 0 and codes[2:] == [0, 0]
    path = workdir / "valid.spec"
    path.write_bytes(SPEC)
    assert run(["simulate", "--spec", str(path), "--out", "-"]) == 0


# Digits that str.isdigit() accepts: ASCII, other decimal digits (Unicode Nd),
# which int() and float() read, and superscripts and the like (No), which they
# refuse. A run is a digit and then one digit repeated, to lengths on both
# sides of int()'s 4300-digit limit.
DIGITS = ["0123456789", "٠٣۹०९０𝟘𝟛", "¹²³⁰⁹₀₉①⑨"]


@st.composite
def digit_runs(draw) -> str:
    alphabet = draw(st.sampled_from(DIGITS))
    lead, fill = draw(st.sampled_from(alphabet)), draw(st.sampled_from(alphabet))
    return lead + fill * (draw(st.sampled_from([1, 2, 20, 4299, 4300, 4301, 5000])) - 1)


INTEGERS = st.one_of(st.integers(-10**20, 10**20).map(str),
                     st.builds(str.__add__, st.sampled_from(["", "-", "+"]), digit_runs()))
FLOATS = st.one_of(st.floats().map(repr), INTEGERS, st.sampled_from(["1e999", "-1e999"]))
MODELS = st.one_of(st.sampled_from(["linear", "exp", "sinexp", "poly", "cubic"]),
                   st.builds("poly".__add__, digit_runs()))


def run_options(argv) -> int:
    """``run`` where argparse may refuse a value: exit 2, its usage text, and
    one error line."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        err = err.getvalue()
        assert exc.code == 2 and err.startswith("usage: trackcast "), (argv, err)
        assert err.splitlines()[-1].startswith(f"trackcast {argv[0]}: error: "), err
        return 2
    return checked(argv, code, err.getvalue())


@SETTINGS
@given(model=MODELS, models=st.lists(MODELS, min_size=1, max_size=3).map(",".join),
       cutoff=FLOATS, window=st.one_of(INTEGERS, st.just("all")), horizon=INTEGERS,
       region=st.lists(FLOATS, min_size=4, max_size=4).map(",".join))
def test_hostile_option_values(workdir, model, models, cutoff, window, horizon, region):
    path = workdir / "options.jsonl"
    path.write_bytes(STREAMS[StreamFormat.JSONL])
    common = ["--input", str(path), "--cutoff", cutoff, "--window", window]
    for argv in (["fit", *common, "--axis", "x", "--model", model],
                 ["predict", *common, "--model", model, "--horizon", horizon, "--region", region],
                 ["compare", *common, "--models", models, "--horizon", horizon],
                 ["plot", *common, "--model", model, "--horizon", horizon,
                  "--out", str(workdir / "options.svg")]):
        run_options(argv)
