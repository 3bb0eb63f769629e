import copy
import math
import json
import pickle
import random

import pytest

from trackcast import (
    EXPONENTIAL,
    LINEAR,
    Axis,
    AxisSeries,
    DetectionRecord,
    ErrorReport,
    FitResult,
    LinearFit,
    ModelFamily,
    ModelKind,
    OrderingError,
    ParseError,
    PredictedEndpoint,
    Region,
    StreamFormat,
    SyntheticSpec,
    ValidationError,
    WindowConfig,
    build_series,
    fit_model,
    parse_detections,
    render_detections,
    select_per_frame,
    synthesize,
    to_observation,
    window,
)
from trackcast import ingest
from trackcast.svgplot import Panel
from trackcast.ingest import CSV_HEADER

JSONL_LINE = (
    '{"frame": 0, "left": 10, "top": 20, "width": 4, "height": 6, '
    '"confidence": 0.9, "label": "rebar_endpoint"}'
)


class TestParseJsonl:
    def test_single_record_round_trip(self):
        records = parse_detections(JSONL_LINE + "\n", StreamFormat.JSONL)
        assert records == [
            DetectionRecord(0, 10.0, 20.0, 4.0, 6.0, 0.9, "rebar_endpoint")
        ]

    def test_empty_input(self):
        assert parse_detections("", StreamFormat.JSONL) == []

    def test_negative_width_cites_field_and_line(self):
        line = '{"frame": 0, "left": 1, "top": 1, "width": -1, "height": 2}'
        with pytest.raises(ValidationError) as err:
            parse_detections(line, StreamFormat.JSONL)
        assert "width" in str(err.value)
        assert "line 1" in str(err.value)

    def test_malformed_line_cites_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_detections(JSONL_LINE + "\n{not json\n", StreamFormat.JSONL)
        assert "line 2" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(ParseError) as err:
            parse_detections('{"frame": 0, "left": 1}', StreamFormat.JSONL)
        assert "'top'" in str(err.value) or "'width'" in str(err.value)

    def test_defaults_and_unknown_keys(self):
        line = '{"frame": 3, "left": 1, "top": 2, "width": 3, "height": 4, "extra": true}'
        (record,) = parse_detections(line, StreamFormat.JSONL)
        assert record.confidence == 1.0
        assert record.label == ""

    def test_bool_is_not_a_number(self):
        line = '{"frame": 0, "left": true, "top": 1, "width": 1, "height": 1}'
        with pytest.raises(ParseError):
            parse_detections(line, StreamFormat.JSONL)

    def test_accepts_bytes(self):
        records = parse_detections(JSONL_LINE.encode(), StreamFormat.JSONL)
        assert len(records) == 1

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_detections(JSONL_LINE.encode() + b"\n\xff\n", StreamFormat.JSONL)
        assert "not UTF-8" in str(err.value)

    @pytest.mark.parametrize("value", ["1" + "0" * 400, "1" + "0" * 5000, "[" * 10**5],
                             ids=["beyond_float", "beyond_int_digits", "nested_too_deep"])
    def test_number_beyond_float_range_rejected(self, value):
        line = f'{{"frame": 0, "left": {value}, "top": 1, "width": 2, "height": 2}}'
        with pytest.raises(ParseError) as err:
            parse_detections(line, StreamFormat.JSONL)
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_numbers_rejected(self, literal):
        line = f'{{"frame": 0, "left": {literal}, "top": 1, "width": 2, "height": 2}}'
        with pytest.raises(ParseError) as err:
            parse_detections(line, StreamFormat.JSONL)
        assert "finite" in str(err.value)


BASE_LINE = '{"frame": 0, "left": 1, "top": 2, "width": 3, "height": 4}'
LABELLED_LINE = BASE_LINE[:-1] + ', "label": %s}'

# Lines that json.loads treats in every way it has: accepted with surrounding
# whitespace, rejected for a BOM or extra data, literals the decoder accepts
# but ingest does not, and the decoder's own ValueError and RecursionError.
DECODER_LINES = {
    "plain": BASE_LINE,
    "spaces_and_tabs": " \t " + BASE_LINE + "\t  ",
    "utf8_bom": "\ufeff" + BASE_LINE,
    "trailing_data": BASE_LINE + " x",
    "non_json_space_after": BASE_LINE + "\xa0",
    "two_objects": BASE_LINE + BASE_LINE,
    "nan": BASE_LINE.replace('"left": 1', '"left": NaN'),
    "infinity": BASE_LINE.replace('"left": 1', '"left": Infinity'),
    "minus_infinity": BASE_LINE.replace('"left": 1', '"left": -Infinity'),
    "digits_401": BASE_LINE.replace('"left": 1', '"left": 1' + "0" * 400),
    "digits_5000": BASE_LINE.replace('"left": 1', '"left": 1' + "0" * 4999),
    "nested_100000": "[" * 10**5,
    "bad_escape": LABELLED_LINE % '"\\q"',
    "lone_surrogate_escape": LABELLED_LINE % '"\\ud800"',
    "empty_array": "[]",
    "empty_object": "{}",
    # Line breaks for str.splitlines() but not for JSON lines: raw inside a
    # string they are part of the label, outside one they are not whitespace.
    "line_separator_in_label": LABELLED_LINE % '"a\u2028b"',
    "paragraph_separator_in_label": LABELLED_LINE % '"a\u2029b"',
    "next_line_in_label": LABELLED_LINE % '"a\x85b"',
    "line_separator_after": BASE_LINE + "\u2028",
    "form_feed_after": BASE_LINE + "\x0c",
}


def parse_outcome(line):
    try:
        return parse_detections(line, StreamFormat.JSONL)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


class TestJsonLineDecoder:
    @pytest.mark.parametrize("line", DECODER_LINES.values(), ids=DECODER_LINES.keys())
    def test_same_as_json_loads(self, line, monkeypatch):
        got = parse_outcome(line)
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            assert got == (ParseError, f"line 1: invalid JSON ({exc.msg})")
        except (ValueError, RecursionError) as exc:
            assert got == (ParseError, f"line 1: invalid JSON ({exc})")
        # A scanner that never reads a value sends every line through json.loads.
        def no_scan(text, idx):
            raise StopIteration(idx)

        monkeypatch.setattr(ingest, "_scan_json", no_scan)
        assert got == parse_outcome(line)

    def test_accepted_lines_give_the_decoded_record(self):
        for key in ("plain", "spaces_and_tabs"):
            assert parse_outcome(DECODER_LINES[key]) == [DetectionRecord(0, 1, 2, 3, 4)]
        (record,) = parse_outcome(DECODER_LINES["lone_surrogate_escape"])
        assert record.label == "\ud800"

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                             ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_break_in_label_stays_in_its_line(self, char):
        line = json.dumps({"frame": 1, "left": 1, "top": 2, "width": 3, "height": 4,
                           "label": f"a{char}b"}, ensure_ascii=False)
        assert char in line
        obj = json.loads(line)
        expected = DetectionRecord(obj["frame"], obj["left"], obj["top"], obj["width"],
                                   obj["height"], label=obj["label"])
        records = parse_detections(f"{BASE_LINE}\n{line}\n{BASE_LINE}\n", StreamFormat.JSONL)
        assert records[1] == expected
        assert len(records) == 3

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\r\n\r"],
                             ids=["LF", "CRLF", "CR", "CRLF_then_CR"])
    def test_line_endings_and_error_line_numbers(self, newline):
        lines = [BASE_LINE, "", BASE_LINE, "{not json", BASE_LINE]
        assert len(parse_outcome(newline.join(lines[:3]) + newline)) == 2
        text = newline.join(lines)
        bad_line = text.splitlines().index("{not json") + 1  # no Unicode breaks here
        kind, message = parse_outcome(text)
        assert kind is ParseError
        assert message.startswith(f"line {bad_line}: invalid JSON")


class TestParseCsv:
    HEADER = "frame,left,top,width,height,confidence,label\n"

    def test_basic_row(self):
        text = self.HEADER + "2,1.5,2.5,3.0,4.0,0.7,tip\n"
        assert parse_detections(text, StreamFormat.CSV) == [
            DetectionRecord(2, 1.5, 2.5, 3.0, 4.0, 0.7, "tip")
        ]

    def test_empty_confidence_and_label(self):
        text = self.HEADER + "0,1,2,3,4,,\n"
        (record,) = parse_detections(text, StreamFormat.CSV)
        assert record.confidence == 1.0
        assert record.label == ""

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_detections("frame,left,top\n", StreamFormat.CSV)
        assert "header" in str(err.value)

    def test_invariant_violation_cites_line(self):
        text = self.HEADER + "0,1,2,3,4,,\n1,1,2,0,4,,\n"
        with pytest.raises(ValidationError) as err:
            parse_detections(text, StreamFormat.CSV)
        assert "line 3" in str(err.value)
        assert "width" in str(err.value)

    def test_bad_cell_count(self):
        with pytest.raises(ParseError):
            parse_detections(self.HEADER + "0,1,2\n", StreamFormat.CSV)

    def test_nonfinite_confidence_rejected_like_jsonl(self):
        with pytest.raises(ParseError) as err:
            parse_detections(self.HEADER + "0,1,2,3,4,inf,\n", StreamFormat.CSV)
        assert "'confidence' must be finite" in str(err.value)

    def test_nonfinite_cell_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_detections(self.HEADER + "0,nan,2,3,4,,\n", StreamFormat.CSV)
        assert "finite" in str(err.value)

    def test_field_over_size_limit_cites_line(self):
        text = self.HEADER + "0,1,2,3,4,,\n1,1,2,3,4,," + "x" * 200_000 + "\n"
        with pytest.raises(ParseError) as err:
            parse_detections(text, StreamFormat.CSV)
        assert str(err.value).startswith("line 3: field larger than field limit")


def random_records(rng, n):
    records = []
    for _ in range(n):
        records.append(
            DetectionRecord(
                frame_index=rng.randint(0, 500),
                left=rng.uniform(-100, 1000),
                top=rng.uniform(-100, 1000),
                width=rng.uniform(0.1, 50),
                height=rng.uniform(0.1, 50),
                confidence=rng.random(),
                label=rng.choice(["tip", "rebar_endpoint", "", "with,comma", 'with"quote']),
            )
        )
    return records


@pytest.mark.parametrize("fmt", [StreamFormat.JSONL, StreamFormat.CSV])
def test_round_trip_is_field_exact(fmt):
    rng = random.Random(1234)
    records = random_records(rng, 50)
    text = render_detections(records, fmt)
    assert parse_detections(text, fmt) == records
    # and a second pass through the serializer is stable
    assert render_detections(parse_detections(text, fmt), fmt) == text


# Records the renderer writes as they are, values the parser would refuse
# included, with the exact text of each format.
PINNED_RECORDS = [
    DetectionRecord(0, -0.0, 1e-300, 0.1, 2.5, 0.0, "with,comma"),
    DetectionRecord(1, 7, math.nan, 1.0, math.inf, 1.0, 'with"quote'),
    DetectionRecord(True, -math.inf, math.inf, 3.0, 4.0, 0.5, "line\nfeed"),
    DetectionRecord(3, 1.0, 2.0, 3.0, 4.0, 0.25, "crlf\r\nend"),
    DetectionRecord(4, 1.0, 2.0, 3.0, 4.0, 1, ""),
    DetectionRecord(5, 1.0, 2.0, 3.0, 4.0, 0.5, 5),
]
PINNED_TEXT = {
    StreamFormat.JSONL: (
        '{"frame": 0, "left": -0.0, "top": 1e-300, "width": 0.1, "height": 2.5, '
        '"confidence": 0.0, "label": "with,comma"}\n'
        '{"frame": 1, "left": 7, "top": NaN, "width": 1.0, "height": Infinity, '
        '"confidence": 1.0, "label": "with\\"quote"}\n'
        '{"frame": true, "left": -Infinity, "top": Infinity, "width": 3.0, "height": 4.0, '
        '"confidence": 0.5, "label": "line\\nfeed"}\n'
        '{"frame": 3, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0, '
        '"confidence": 0.25, "label": "crlf\\r\\nend"}\n'
        '{"frame": 4, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0, '
        '"confidence": 1, "label": ""}\n'
        '{"frame": 5, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0, '
        '"confidence": 0.5, "label": 5}\n'
    ),
    StreamFormat.CSV: (
        "frame,left,top,width,height,confidence,label\n"
        '0,-0.0,1e-300,0.1,2.5,0.0,"with,comma"\n'
        '1,7,nan,1.0,inf,1.0,"with""quote"\n'
        'True,-inf,inf,3.0,4.0,0.5,"line\nfeed"\n'
        '3,1.0,2.0,3.0,4.0,0.25,"crlf\r\nend"\n'
        "4,1.0,2.0,3.0,4.0,1,\n"
        "5,1.0,2.0,3.0,4.0,0.5,5\n"
    ),
}


@pytest.mark.parametrize("fmt", [StreamFormat.JSONL, StreamFormat.CSV])
def test_render_writes_pinned_text(fmt):
    assert render_detections(PINNED_RECORDS, fmt) == PINNED_TEXT[fmt]
    assert render_detections([], fmt) == ("" if fmt is StreamFormat.JSONL
                                          else "frame,left,top,width,height,confidence,label\n")


@pytest.mark.parametrize("label", ["a\rb", "\r", "end\r", "\r\r\n", "a\r\nb\rc"])
def test_round_trip_of_a_label_with_a_lone_cr(label):
    # The parser ends a line at a lone CR, so the label must be written quoted.
    record = DetectionRecord(2, 1.0, 2.0, 3.0, 4.0, 0.5, label)
    text = render_detections([record], StreamFormat.CSV)
    assert text == f'frame,left,top,width,height,confidence,label\n2,1.0,2.0,3.0,4.0,0.5,"{label}"\n'
    assert parse_detections(text, StreamFormat.CSV) == [record]


# Fields that DetectionRecord accepts, since it checks only ranges, but that
# the parser refuses, with the error each rendered stream then gives.
UNPARSABLE_FIELDS = {
    "nan_left": ({"left": math.nan}, "value for 'left' must be finite"),
    "inf_left": ({"left": math.inf}, "value for 'left' must be finite"),
    "minus_inf_left": ({"left": -math.inf}, "value for 'left' must be finite"),
    "inf_width": ({"width": math.inf}, "value for 'width' must be finite"),
    "bool_frame": ({"frame_index": True}, "value for 'frame' must be an integer"),
}


@pytest.mark.parametrize("fmt", [StreamFormat.JSONL, StreamFormat.CSV])
@pytest.mark.parametrize("fields, message", UNPARSABLE_FIELDS.values(),
                         ids=UNPARSABLE_FIELDS.keys())
def test_round_trip_refuses_what_the_parser_refuses(fmt, fields, message):
    record = DetectionRecord(2, 1.0, 2.0, 3.0, 4.0, 0.5, "tip")._replace(**fields)
    line_no = 1 if fmt is StreamFormat.JSONL else 2
    assert outcome(parse_detections, render_detections([record], fmt), fmt) == (
        ParseError, f"line {line_no}: {message}")


def test_round_trip_of_an_int_label():
    record = DetectionRecord(2, 1.0, 2.0, 3.0, 4.0, 0.5, 5)
    jsonl = render_detections([record], StreamFormat.JSONL)
    assert outcome(parse_detections, jsonl, StreamFormat.JSONL) == (
        ParseError, "line 1: value for 'label' must be a string")
    # CSV has no types: the label comes back as a str, and nothing reports it.
    (back,) = parse_detections(render_detections([record], StreamFormat.CSV), StreamFormat.CSV)
    assert back == record._replace(label="5") and back != record


class TestSelectPerFrame:
    def test_highest_confidence_wins(self):
        low = DetectionRecord(3, 0, 0, 1, 1, 0.8)
        high = DetectionRecord(3, 5, 5, 1, 1, 0.9)
        assert select_per_frame([low, high]) == [high]

    def test_output_sorted_by_frame(self):
        r2 = DetectionRecord(2, 0, 0, 1, 1)
        r1 = DetectionRecord(1, 0, 0, 1, 1)
        assert select_per_frame([r2, r1]) == [r1, r2]

    def test_tie_broken_by_left_then_top(self):
        a = DetectionRecord(0, 7, 0, 1, 1, 0.5)
        b = DetectionRecord(0, 5, 9, 1, 1, 0.5)
        assert select_per_frame([a, b]) == [b]
        c = DetectionRecord(0, 5, 2, 1, 1, 0.5)
        assert select_per_frame([a, b, c]) == [c]

    def test_idempotent(self):
        rng = random.Random(99)
        records = random_records(rng, 80)
        once = select_per_frame(records)
        assert select_per_frame(once) == once


class TestToObservation:
    @pytest.mark.parametrize(
        "record,expected",
        [
            (DetectionRecord(0, 10, 20, 4, 6), (0.0, 12.0, 23.0)),
            (DetectionRecord(7, 0, 0, 2, 2), (7.0, 1.0, 1.0)),
            (DetectionRecord(1, 100.5, 50, 3, 5), (1.0, 102.0, 52.5)),
        ],
    )
    def test_center_definition(self, record, expected):
        assert to_observation(record) == expected


class TestBuildSeries:
    def test_split(self):
        xs, ys = build_series([(0, 12, 23), (2, 13, 22)])
        assert xs.axis is Axis.X
        assert xs.samples == ((0.0, 12.0), (2.0, 13.0))
        assert ys.samples == ((0.0, 23.0), (2.0, 22.0))

    def test_empty(self):
        xs, ys = build_series([])
        assert xs.samples == () and ys.samples == ()

    def test_duplicate_t_rejected(self):
        with pytest.raises(OrderingError):
            build_series([(1, 5, 5), (1, 6, 6)])

    def test_preserves_t_values(self):
        obs = [(float(t), t * 2.0, t * 3.0) for t in (0, 2, 5, 9)]
        xs, ys = build_series(obs)
        assert [t for t, _ in xs.samples] == [o[0] for o in obs]
        assert [t for t, _ in ys.samples] == [o[0] for o in obs]


class TestRecordInvariants:
    def test_constructor_rejects_bad_confidence(self):
        with pytest.raises(ValidationError):
            DetectionRecord(0, 0, 0, 1, 1, confidence=1.5)

    def test_constructor_rejects_negative_frame(self):
        with pytest.raises(ValidationError):
            DetectionRecord(-1, 0, 0, 1, 1)

    @pytest.mark.parametrize("fmt", list(StreamFormat))
    def test_frame_limit_is_exact_float(self, fmt):
        ok = DetectionRecord(2**53, 0, 0, 1, 1)
        assert to_observation(ok)[0] == 2**53
        too_big = render_detections([ok], fmt).replace(str(2**53), str(2**53 + 1))
        with pytest.raises(ValidationError) as err:
            parse_detections(too_big, fmt)
        line = 2 if fmt is StreamFormat.CSV else 1  # a CSV stream starts with its header
        assert str(err.value) == f"line {line}: invalid value for 'frame'"



def stream_with(fmt, **fields):
    """A one-record stream in ``fmt`` whose fields are given as written."""
    values = {"frame": 4, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0,
              "confidence": 0.5, "label": "tip"}
    values.update(fields)
    if fmt is StreamFormat.JSONL:
        return json.dumps(values) + "\n"
    return ",".join(CSV_HEADER) + "\n" + ",".join(str(values[k]) for k in CSV_HEADER) + "\n"


class TestRecordContract:
    def test_fields_cannot_be_assigned(self):
        record = DetectionRecord(0, 1, 2, 3, 4)
        with pytest.raises(AttributeError):
            record.left = 5.0
        with pytest.raises(AttributeError):
            record.extra = 1  # no per-record __dict__

    def test_repr_text(self):
        record = DetectionRecord(0, 10.0, 20.0, 4.0, 6.0, 0.9, "rebar_endpoint")
        assert repr(record) == (
            "DetectionRecord(frame_index=0, left=10.0, top=20.0, width=4.0, height=6.0, "
            "confidence=0.9, label='rebar_endpoint')"
        )

    def test_defaults(self):
        record = DetectionRecord(3, 1, 2, 3, 4)
        assert (record.confidence, record.label) == (1.0, "")

    def test_named_tuples_unpack_and_equal_plain_tuples(self):
        record = DetectionRecord(3, 1.0, 2.0, 3.0, 4.0, 0.5, "tip")
        assert record == (3, 1.0, 2.0, 3.0, 4.0, 0.5, "tip")
        t, x, y = to_observation(record)
        assert (t, x, y) == (3.0, 2.5, 4.0)
        assert type(to_observation(record)) is tuple

    def test_replace_checks_invariants(self):
        record = DetectionRecord(3, 1, 2, 3, 4)
        assert record._replace(left=7) == DetectionRecord(3, 7, 2, 3, 4)
        with pytest.raises(ValidationError) as err:
            record._replace(width=0)
        assert str(err.value) == "invalid value for 'width'"

    @pytest.mark.parametrize("fmt", list(StreamFormat))
    @pytest.mark.parametrize("fields, message", [
        ({"frame": -1}, "invalid value for 'frame'"),
        ({"frame": -1, "width": 0}, "invalid value for 'frame'"),
        ({"width": 0}, "invalid value for 'width'"),
        ({"height": -2.5}, "invalid value for 'height'"),
        ({"confidence": 1.5}, "invalid value for 'confidence'"),
        ({"confidence": -0.25}, "invalid value for 'confidence'"),
        ({"top": "x"}, "value for 'top' must be a number"),
        ({"left": "x", "height": "inf"}, "value for 'left' must be a number"),
        ({"width": float("inf")}, "value for 'width' must be finite"),
    ], ids=["frame", "frame_first", "width", "height", "confidence_high", "confidence_low",
            "not_a_number", "first_bad_cell", "not_finite"])
    def test_invalid_value_message(self, fmt, fields, message):
        line = 2 if fmt is StreamFormat.CSV else 1  # a CSV stream starts with its header
        with pytest.raises((ParseError, ValidationError)) as err:
            parse_detections(stream_with(fmt, **fields), fmt)
        assert str(err.value) == f"line {line}: {message}"

    def test_select_tie_breaks_match_reference(self):
        rng = random.Random(5)
        records = [
            DetectionRecord(rng.randrange(25), rng.choice([1.0, 2.0, 3.0]), rng.choice([1.0, 2.0]),
                            1, 1, rng.choice([0.5, 0.9]), label=str(i))
            for i in range(500)
        ]
        expected = []
        for frame in sorted({r.frame_index for r in records}):
            group = [r for r in records if r.frame_index == frame]
            # min keeps the first of fully tied records, as select_per_frame does
            expected.append(min(group, key=lambda r: (-r.confidence, r.left, r.top)))
        assert select_per_frame(records) == expected


# The value types whose constructors check their fields.
CHECKED_VALUES = (ModelKind(ModelFamily.POLYNOMIAL, 2), Region(0.0, 1.0, 0.0, 1.0),
                  WindowConfig(), SyntheticSpec(0.01, 2.0, 0.01, 2.0))
VALUES = (*CHECKED_VALUES, LinearFit(1.0, 2.0), FitResult(LINEAR, 1.0, 2.0, (), 3),
          PredictedEndpoint(60.0, 1.0, 2.0, False),
          ErrorReport(LINEAR, 1.0, 2.0, 60.0, (1.0, 2.0), (1.0, 2.0)),
          Panel("x", (0.0,), (1.0,), (), (), (1.0, 2.0)))


class TestValueTypes:
    """The value types are named tuples: none takes assignment or has a
    per-instance ``__dict__``, and each equals and hashes as a plain tuple."""

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_fields_refuse_assignment(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")
        assert value == tuple(value) and hash(value) == hash(tuple(value))

    @pytest.mark.parametrize("field, bad, message", [
        ("family", ModelFamily.LINEAR, "linear takes no degree"),  # with degree 2
        ("degree", 0, "polynomial degree must be >= 1"),
        ("x_max", -1.0, "region requires x_min < x_max and y_min < y_max, "
                        "got [0.0, -1.0] x [0.0, 1.0]"),
        ("horizon", 0, "horizon must be >= 1, got 0"),
        ("horizon", 10**400, "horizon is beyond the float range"),
        ("length", 1, "window length must be >= 2, got 1"),
        ("n_frames", 0, "n_frames must be >= 1, got 0"),
        ("shake_prob", 1.5, "shake_prob must be in [0, 1], got 1.5"),
        ("seed", -1, "seed must be an unsigned 64-bit integer"),
        ("seed", 2**64, "seed must be an unsigned 64-bit integer"),
    ], ids=["kind_family", "kind_degree", "region", "window_horizon", "window_horizon_huge",
            "window_length", "spec_frames", "spec_shake_prob", "spec_seed_negative",
            "spec_seed_64_bits"])
    def test_replace_checks_like_the_constructor(self, field, bad, message):
        value = next(v for v in CHECKED_VALUES if field in v._fields)
        with pytest.raises(ValidationError) as by_replace:
            value._replace(**{field: bad})
        with pytest.raises(ValidationError) as by_constructor:
            type(value)(**{**value._asdict(), field: bad})
        assert str(by_replace.value) == str(by_constructor.value) == message
        same = value._replace(**{field: getattr(value, field)})
        assert type(same) is type(value) and same == value


class TestAxisSeriesContract:
    SAMPLES = ((0.0, 1.0), (1.0, 2.5))

    def test_fields_refuse_assignment(self):
        series = AxisSeries(Axis.X, self.SAMPLES)
        for field in ("axis", "samples"):
            with pytest.raises(AttributeError):
                setattr(series, field, None)
            with pytest.raises(AttributeError):
                delattr(series, field)
        with pytest.raises(AttributeError):
            series.extra = 1
        assert not hasattr(series, "__dict__")

    def test_equality_hash_and_repr_see_axis_and_samples_only(self):
        series = AxisSeries(Axis.X, self.SAMPLES)
        assert repr(series) == "AxisSeries(axis=<Axis.X: 'x'>, samples=((0.0, 1.0), (1.0, 2.5)))"
        assert hash(series) == hash((Axis.X, self.SAMPLES))
        fit_model(window(series, WindowConfig(), 5.0), EXPONENTIAL)  # fills the memos
        twin = AxisSeries._from_columns(Axis.X, (0.0, 1.0), (1.0, 2.5))
        assert series == twin and hash(series) == hash(twin) and repr(series) == repr(twin)
        assert series != AxisSeries(Axis.Y, self.SAMPLES)
        assert series != AxisSeries(Axis.X, self.SAMPLES[:1])
        assert series != (Axis.X, self.SAMPLES)

    def test_copies_and_pickles(self):
        series = AxisSeries(Axis.X, self.SAMPLES)
        window(series, WindowConfig(), 5.0)
        for copied in (copy.copy(series), copy.deepcopy(series),
                       pickle.loads(pickle.dumps(series))):
            assert type(copied) is AxisSeries and copied == series
            assert copied._window is None  # a memo is not copied


    def test_x_and_y_share_one_t_column(self):
        xs, ys = build_series([(float(t), t + 1.0, t + 2.0) for t in range(5)])
        assert xs._ts is ys._ts
        xs, ys = synthesize(SyntheticSpec(a_x=0.01, b_x=1.0, a_y=0.02, b_y=2.0, n_frames=7))
        assert xs._ts is ys._ts and xs._ts == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    @pytest.mark.parametrize("pairs", [SAMPLES, ()], ids=["two", "empty"])
    def test_samples_are_the_pairs_built_once(self, pairs):
        series = AxisSeries(Axis.X, pairs)
        first = series.samples
        assert first == pairs and series.samples is first

    def test_pair_built_and_column_built_agree(self):
        by_pairs = AxisSeries(Axis.X, self.SAMPLES)
        by_columns, _ = build_series([(t, v, 0.0) for t, v in self.SAMPLES])
        assert by_pairs == by_columns and hash(by_pairs) == hash(by_columns)
        assert repr(by_pairs) == repr(by_columns)
        assert AxisSeries(Axis.X, iter(self.SAMPLES)) == by_pairs  # both columns filled
        for copied in (copy.copy(by_columns), copy.deepcopy(by_columns),
                       pickle.loads(pickle.dumps(by_columns)), copy.copy(by_pairs)):
            assert type(copied) is AxisSeries
            assert copied == by_pairs == by_columns and hash(copied) == hash(by_pairs)
            assert copied.samples == self.SAMPLES

# Hostile values for one field of an otherwise plain record, as written in a
# JSON line and in a CSV cell; None leaves the key out (JSONL) or the cell
# empty (CSV).
HOSTILE_NUMBERS = {
    "true": ("true", "true"),
    "int": ("5", "5"),
    "digits_401": ("1" + "0" * 400, "1" + "0" * 400),
    "nan": ("NaN", "nan"),
    "inf": ("Infinity", "inf"),
    "minus_inf": ("-Infinity", "-inf"),
    "minus_zero": ("-0.0", "-0.0"),
    "zero": ("0.0", "0.0"),
    "just_above_one": ("1.0000000000000002", "1.0000000000000002"),
    "missing": (None, None),
}
HOSTILE_FRAMES = {"minus_one": "-1", "two_53": str(2**53), "two_53_plus_1": str(2**53 + 1),
                  "float": "3.0", "true": "true"}
PLAIN_FIELDS = {"frame": "3", "left": "10.5", "top": "20.25", "width": "4.0",
                "height": "6.0", "confidence": "0.9", "label": '"tip"'}
# Two finite numbers whose sum, the box center, passes the float range.
NEAR_MAX = ("1.7e308", "1.7e308")
HOSTILE_CASES = {
    **{f"{field}-{name}": {field: value}
       for field in ("left", "top", "width", "height", "confidence")
       for name, value in HOSTILE_NUMBERS.items()},
    **{f"frame-{name}": {"frame": (value, value)} for name, value in HOSTILE_FRAMES.items()},
    "label-int": {"label": ("5", "5")},
    "label-missing": {"label": (None, None)},
    "plain": {"label": ('"tip"', "tip")},
    "center_x-overflows": {"left": NEAR_MAX, "width": NEAR_MAX},
    "center_y-overflows": {"top": NEAR_MAX, "height": NEAR_MAX},
}


def hostile_streams(faults):
    fields = dict(PLAIN_FIELDS)
    cells = {k: v.strip('"') for k, v in PLAIN_FIELDS.items()}
    for field, (json_value, csv_value) in faults.items():
        fields[field] = json_value
        cells[field] = "" if csv_value is None else csv_value
    line = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items() if v is not None) + "}"
    row = [cells[k] for k in CSV_HEADER]
    return line, row


def outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, ValidationError, OrderingError) as exc:
        return type(exc), str(exc)


class TestFusedAdmission:
    """Each record that the fused test admits equals the record of the
    field-by-field path, and each record it turns away gets that path's
    outcome: the same record, or the same error type and message."""

    @pytest.mark.parametrize("faults", HOSTILE_CASES.values(), ids=HOSTILE_CASES.keys())
    def test_same_as_field_by_field(self, faults, monkeypatch):
        line, row = hostile_streams(faults)
        expected = {
            StreamFormat.JSONL: outcome(lambda: [ingest._json_record(json.loads(line), 1)]),
            StreamFormat.CSV: outcome(lambda: [ingest._csv_record(row, 2)]),
        }
        slow = []
        for name in ("_json_record", "_csv_record"):
            checked = getattr(ingest, name)
            monkeypatch.setattr(ingest, name,
                                lambda *args, checked=checked: slow.append(1) or checked(*args))
        text = {StreamFormat.JSONL: line + "\n",
                StreamFormat.CSV: ",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n"}
        for fmt in StreamFormat:
            del slow[:]
            got = outcome(parse_detections, text[fmt], fmt)
            assert got == expected[fmt]
            # Only a valid record of exact floats and a str label takes the fused path.
            fused = isinstance(got, list) and all(type(x) is float for x in got[0][1:6])
            assert (not slow) == fused
            if isinstance(got, list):
                assert [type(x) for x in got[0]] == [type(x) for x in expected[fmt][0]]
                _, left, top, width, height, *_ = got[0]
                assert math.isfinite(left + width / 2.0) and math.isfinite(top + height / 2.0)

    def test_fused_path_is_taken_for_the_plain_record(self):
        line, row = hostile_streams(HOSTILE_CASES["confidence-minus_zero"])
        (record,) = parse_detections(line, StreamFormat.JSONL)
        assert record == (3, 10.5, 20.25, 4.0, 6.0, -0.0, "tip")
        assert math.copysign(1.0, record.confidence) == -1.0
        assert parse_detections(",".join(CSV_HEADER) + "\n" + ",".join(row),
                                StreamFormat.CSV) == [record]

    def test_blank_lines_skipped_and_counted(self):
        line, _ = hostile_streams(HOSTILE_CASES["plain"])
        text = f"\n  \t\n{line}\n\x0c\n \n{{bad\n"
        assert outcome(parse_detections, text, StreamFormat.JSONL) == (
            ParseError, "line 6: invalid JSON (Expecting property name enclosed in double quotes)")
        assert len(parse_detections(text.split("{bad")[0], StreamFormat.JSONL)) == 1


# One table of field faults, each written as a JSON value and as a CSV cell,
# and the error that both formats give after the "line N: " prefix.
NOT_A_NUMBER = {"word": ('"abc"', "abc"), "bool": ("true", "true")}
NOT_FINITE = {"nan": ("NaN", "nan"), "inf": ("Infinity", "inf"),
              "minus_inf": ("-Infinity", "-inf"), "digits_401": ("1" + "0" * 400,) * 2}
CROSS_FORMAT_FAULTS = {
    **{f"{field}-{name}": ({field: value}, ParseError, f"value for '{field}' must be a number")
       for field in ("left", "top", "width", "height", "confidence")
       for name, value in NOT_A_NUMBER.items()},
    **{f"{field}-{name}": ({field: value}, ParseError, f"value for '{field}' must be finite")
       for field in ("left", "top", "width", "height", "confidence")
       for name, value in NOT_FINITE.items()},
    "frame-float": ({"frame": ("3.0", "3.0")}, ParseError, "value for 'frame' must be an integer"),
    "frame-word": ({"frame": ('"x"', "x")}, ParseError, "value for 'frame' must be an integer"),
    "frame-minus_one": ({"frame": ("-1", "-1")}, ValidationError, "invalid value for 'frame'"),
    "frame-float_and_left-nan": ({"frame": ("3.0", "3.0"), "left": ("NaN", "nan")},
                                 ParseError, "value for 'frame' must be an integer"),
    "frame-minus_one_and_top-word": ({"frame": ("-1", "-1"), "top": ('"abc"', "abc")},
                                     ParseError, "value for 'top' must be a number"),
    "top-nan_and_left-word": ({"top": ("NaN", "nan"), "left": ('"abc"', "abc")},
                              ParseError, "value for 'left' must be a number"),
    "width-zero": ({"width": ("0", "0")}, ValidationError, "invalid value for 'width'"),
    "confidence-1.5": ({"confidence": ("1.5", "1.5")}, ValidationError,
                       "invalid value for 'confidence'"),
    "width-zero_and_confidence-nan": ({"width": ("0", "0"), "confidence": ("NaN", "nan")},
                                      ParseError, "value for 'confidence' must be finite"),
    "center_x-overflows": ({"left": NEAR_MAX, "width": NEAR_MAX}, ValidationError,
                           "box center x = left + width / 2 overflows"),
    "center_y-overflows": ({"top": NEAR_MAX, "height": NEAR_MAX}, ValidationError,
                           "box center y = top + height / 2 overflows"),
}


@pytest.mark.parametrize("faults, error, message", CROSS_FORMAT_FAULTS.values(),
                         ids=CROSS_FORMAT_FAULTS.keys())
def test_a_field_fault_reads_the_same_in_both_formats(faults, error, message):
    fields = dict(PLAIN_FIELDS)
    cells = {k: v.strip('"') for k, v in PLAIN_FIELDS.items()}
    for field, (json_value, csv_value) in faults.items():
        fields[field], cells[field] = json_value, csv_value
    line = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
    row = ",".join(CSV_HEADER) + "\n" + ",".join(cells[k] for k in CSV_HEADER) + "\n"
    assert outcome(parse_detections, line, StreamFormat.JSONL) == (error, f"line 1: {message}")
    assert outcome(parse_detections, row, StreamFormat.CSV) == (error, f"line 2: {message}")


def ordering_reference(axis, samples):
    """A per-sample check: the first t that is NaN, infinite or not above the
    one before it."""
    prev = None
    for i, (t, _) in enumerate(samples):
        if math.isnan(t):
            return OrderingError, (f"{axis.value} series t value {t!r} at sample {i} "
                                   "is not a number")
        if math.isinf(t):
            return OrderingError, (f"{axis.value} series t value {t!r} at sample {i} "
                                   "is not finite")
        if prev is not None and t <= prev:
            return OrderingError, (f"{axis.value} series t values must be strictly increasing "
                                   f"(t={t!r} after t={prev!r})")
        prev = t
    return None


NAN = float("nan")
INF = float("inf")


class TestOrderingCheck:
    @pytest.mark.parametrize("ts", [
        (), (5.0,), (0.0, 1.0, 2.0), (0.0, 1.0, 1.0), (0.0, 2.0, 1.0, 0.5), (3.0, 2.0),
        (0.0, NAN, 1.0), (1.0, NAN, 0.5), (NAN, NAN), (NAN, 0.0, 0.0), (NAN,), (0.0, 1.0, NAN),
        (2.0, 1.0, NAN), (-0.0, 0.0), (0.0, 1.0, 2.0, 2.0, 1.0),
        (0.0, 1.0, INF), (-INF, 0.0), (INF,), (-INF,), (-INF, INF), (0.0, INF, 1.0),
        (INF, 0.0), (INF, NAN),
    ], ids=["empty", "one", "increasing", "equal", "decreasing", "two_decreasing",
            "nan_between", "nan_then_lower", "nan_twice", "nan_then_equal", "nan_alone",
            "nan_last", "fault_then_nan", "signed_zeros", "first_of_two_faults",
            "inf_last", "minus_inf_first", "inf_alone", "minus_inf_alone", "both_infinities",
            "inf_then_lower", "inf_first", "inf_then_nan"])
    def test_same_outcome_as_per_pair_check(self, ts):
        samples = tuple((t, float(i)) for i, t in enumerate(ts))
        for axis in Axis:
            expected = ordering_reference(axis, samples)
            got = outcome(lambda: AxisSeries(axis, samples))
            if expected is None:
                assert got.samples == samples
            else:
                assert got == expected
        observations = [(t, float(i), -float(i)) for i, t in enumerate(ts)]
        built = outcome(build_series, observations)
        expected = ordering_reference(Axis.X, samples)  # the shared t column names x
        if expected is None:
            xs, ys = built
            assert (xs.axis, ys.axis) == (Axis.X, Axis.Y)
            assert xs.samples == samples
            assert ys.samples == tuple((t, -float(i)) for i, t in enumerate(ts))
        else:
            assert built == expected

    @pytest.mark.parametrize("ts, at", [
        ((0, 10**400), 1), ((-10**400, 0), 0), ((0.0, 1.0, ingest.FLOAT_END), 2),
        ((-ingest.FLOAT_END,), 0),
    ], ids=["last", "first", "least_past_range", "alone"])
    def test_int_t_past_float_range_refused(self, ts, at):
        # float() cannot convert such a t, so every fit of the series would raise
        # OverflowError; it is refused where it enters, as an infinite t is.
        message = f"x series t value {ts[at]!r} at sample {at} is not finite"
        samples = tuple((t, 1.0) for t in ts)
        assert outcome(lambda: AxisSeries(Axis.X, samples)) == (OrderingError, message)
        assert outcome(build_series, [(t, 1.0, 2.0) for t in ts]) == (OrderingError, message)
        largest = ingest.FLOAT_END - 1  # float() rounds it to the largest float
        assert AxisSeries(Axis.X, ((-largest, 1.0), (0, 2.0), (largest, 3.0)))._ts[-1] == largest

    def test_build_series_of_nothing(self):
        xs, ys = build_series([])
        assert xs == AxisSeries(Axis.X, ()) and ys == AxisSeries(Axis.Y, ())


def select_reference(records):
    """select_per_frame as it compared before: (-confidence, left, top) tuples."""
    best = {}
    for r in records:
        cur = best.get(r.frame_index)
        if cur is None or (-r.confidence, r.left, r.top) < (-cur.confidence, cur.left, cur.top):
            best[r.frame_index] = r
    return [best[frame] for frame in sorted(best)]


def test_select_matches_tuple_comparison_on_odd_values():
    # A record built in code may carry a NaN or signed zero in left or top;
    # one NaN object shared by two records counts as equal, as in a tuple.
    rng = random.Random(11)
    shared_nan = float("nan")
    pool = [0.0, -0.0, 1.0, 2.0, shared_nan, float("nan"), 5]
    records = [
        DetectionRecord(rng.randrange(6), rng.choice(pool), rng.choice(pool), 1.0, 1.0,
                        rng.choice([0.5, 0.9, 1, 0.0, -0.0]), label=str(i))
        for i in range(3000)
    ]
    assert [r.label for r in select_per_frame(records)] == \
        [r.label for r in select_reference(records)]
