import copy
import io
import math
import json
import pickle
import random
import sys
import tracemalloc

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


# Records whose numbers need every digit of their repr() and whose CSV labels
# must be quoted, with a stream of each format that holds them.
EXACT_RECORDS = [
    DetectionRecord(0, -12.345678901234567, 1e-300, 0.1, 49.99999999999999, 0.0, "with,comma"),
    DetectionRecord(7, 987.6543210987654, -0.0, 2.5, 0.30000000000000004, 1.0, 'with"quote'),
    DetectionRecord(500, 5e-324, 123456789.12345679, 1e-05, 7.0, 0.9, "line\nfeed"),
    DetectionRecord(3, 1.0, 2.0, 3.0, 4.0, 0.25, "crlf\r\nend"),
    DetectionRecord(3, 1.0, 2.0, 3.0, 4.0, 0.5, ""),
]
EXACT_TEXT = {
    StreamFormat.JSONL: (
        '{"frame": 0, "left": -12.345678901234567, "top": 1e-300, "width": 0.1, '
        '"height": 49.99999999999999, "confidence": 0.0, "label": "with,comma"}\n'
        '{"frame": 7, "left": 987.6543210987654, "top": -0.0, "width": 2.5, '
        '"height": 0.30000000000000004, "confidence": 1.0, "label": "with\\"quote"}\n'
        '{"frame": 500, "left": 5e-324, "top": 123456789.12345679, "width": 1e-05, '
        '"height": 7.0, "confidence": 0.9, "label": "line\\nfeed"}\n'
        '{"frame": 3, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0, '
        '"confidence": 0.25, "label": "crlf\\r\\nend"}\n'
        '{"frame": 3, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0, '
        '"confidence": 0.5, "label": ""}\n'
    ),
    StreamFormat.CSV: (
        "frame,left,top,width,height,confidence,label\n"
        '0,-12.345678901234567,1e-300,0.1,49.99999999999999,0.0,"with,comma"\n'
        '7,987.6543210987654,-0.0,2.5,0.30000000000000004,1.0,"with""quote"\n'
        '500,5e-324,123456789.12345679,1e-05,7.0,0.9,"line\nfeed"\n'
        '3,1.0,2.0,3.0,4.0,0.25,"crlf\r\nend"\n'
        "3,1.0,2.0,3.0,4.0,0.5,\n"
    ),
}


@pytest.mark.parametrize("fmt", [StreamFormat.JSONL, StreamFormat.CSV])
def test_round_trip_is_field_exact(fmt):
    parsed = parse_detections(EXACT_TEXT[fmt], fmt)
    assert parsed == EXACT_RECORDS
    assert list(map(repr, parsed)) == list(map(repr, EXACT_RECORDS))  # -0.0 stays -0.0


@pytest.mark.parametrize("label", ["a\rb", "\r", "end\r", "\r\r\n", "a\r\nb\rc"])
def test_round_trip_of_a_label_with_a_lone_cr(label):
    # The parser ends a line at a lone CR, so the label must be written quoted.
    record = DetectionRecord(2, 1.0, 2.0, 3.0, 4.0, 0.5, label)
    text = f'frame,left,top,width,height,confidence,label\n2,1.0,2.0,3.0,4.0,0.5,"{label}"\n'
    assert parse_detections(text, StreamFormat.CSV) == [record]


# One-record streams whose values DetectionRecord accepts, since it checks
# only ranges, but the parser refuses: a field, the text of its value in
# JSONL and in CSV, and the error the parser gives.
UNPARSABLE_FIELDS = {
    "nan_left": ("left", "NaN", "nan", "value for 'left' must be finite"),
    "inf_left": ("left", "Infinity", "inf", "value for 'left' must be finite"),
    "minus_inf_left": ("left", "-Infinity", "-inf", "value for 'left' must be finite"),
    "inf_width": ("width", "Infinity", "inf", "value for 'width' must be finite"),
    "bool_frame": ("frame", "true", "True", "value for 'frame' must be an integer"),
}
UNPARSABLE_TEMPLATE = {
    StreamFormat.JSONL: '{{"frame": {frame}, "left": {left}, "top": 2.0, "width": {width}, '
                        '"height": 4.0, "confidence": 0.5, "label": "tip"}}\n',
    StreamFormat.CSV: "frame,left,top,width,height,confidence,label\n"
                      "{frame},{left},2.0,{width},4.0,0.5,tip\n",
}


@pytest.mark.parametrize("fmt", [StreamFormat.JSONL, StreamFormat.CSV])
@pytest.mark.parametrize("field, jsonl, csv, message", UNPARSABLE_FIELDS.values(),
                         ids=UNPARSABLE_FIELDS.keys())
def test_round_trip_refuses_what_the_parser_refuses(fmt, field, jsonl, csv, message):
    values = {"frame": "2", "left": "1.0", "width": "3.0",
              field: jsonl if fmt is StreamFormat.JSONL else csv}
    line_no = 1 if fmt is StreamFormat.JSONL else 2
    assert outcome(parse_detections, UNPARSABLE_TEMPLATE[fmt].format(**values), fmt) == (
        ParseError, f"line {line_no}: {message}")


def test_round_trip_of_an_int_label():
    jsonl = ('{"frame": 2, "left": 1.0, "top": 2.0, "width": 3.0, "height": 4.0, '
             '"confidence": 0.5, "label": 5}\n')
    assert outcome(parse_detections, jsonl, StreamFormat.JSONL) == (
        ParseError, "line 1: value for 'label' must be a string")
    # CSV has no types: the label comes back as a str, and nothing reports it.
    csv = "frame,left,top,width,height,confidence,label\n2,1.0,2.0,3.0,4.0,0.5,5\n"
    (back,) = parse_detections(csv, StreamFormat.CSV)
    assert back == DetectionRecord(2, 1.0, 2.0, 3.0, 4.0, 0.5, "5")


@pytest.mark.parametrize("fmt", ["jsonl", "xml", None])
def test_format_must_be_a_stream_format(fmt):
    # Any fmt but a StreamFormat member is refused by name, not parsed as CSV.
    text = "frame,left,top,width,height,confidence,label\n2,1.0,2.0,3.0,4.0,0.5,tip\n"
    assert outcome(parse_detections, text, fmt) == (
        ValidationError, f"fmt must be a StreamFormat, got {fmt!r}")


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

    def test_any_empty_iterable_is_no_samples(self):
        # The triples are read once, so an empty iterator gives what [] gives.
        for empty in ((), iter([]), (obs for obs in ()), zip((), (), ())):
            assert build_series(empty) == build_series([])
        obs = [(0.0, 12.0, 23.0), (2.0, 13.0, 22.0)]
        assert build_series(iter(obs)) == build_series(obs)

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
        assert parse_detections(stream_with(fmt, frame=2**53), fmt)[0].frame_index == 2**53
        too_big = stream_with(fmt, frame=2**53 + 1)
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
                  WindowConfig(), SyntheticSpec(0.01, 2.0, 0.01, 2.0),
                  DetectionRecord(3, 1.0, 2.0, 3.0, 4.0, 0.5, "tip"))
VALUES = (*CHECKED_VALUES, LinearFit(1.0, 2.0), FitResult(LINEAR, 1.0, 2.0, (), 3),
          PredictedEndpoint(60.0, 1.0, 2.0, False),
          ErrorReport(LINEAR, 1.0, 2.0, 60.0, (1.0, 2.0), (1.0, 2.0)),
          Panel("x", (0.0,), (1.0,), (1.0,), (2.0,)))


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
        # Refused by name here, not blamed on the prediction or the slicing.
        ("horizon", math.nan, "horizon must be >= 1, got nan"),
        ("horizon", math.inf, "horizon is beyond the float range"),
        ("horizon", "5", "horizon must be a number, got '5'"),
        ("horizon", None, "horizon must be a number, got None"),
        ("horizon", True, "horizon must be a number, got True"),
        ("length", 1, "window length must be >= 2, got 1"),
        ("length", 3.0, "window length must be an integer, got 3.0"),
        ("length", math.nan, "window length must be an integer, got nan"),
        ("n_frames", 0, "n_frames must be >= 1, got 0"),
        ("shake_prob", 1.5, "shake_prob must be in [0, 1], got 1.5"),
        ("seed", -1, "seed must be an unsigned 64-bit integer"),
        ("seed", 2**64, "seed must be an unsigned 64-bit integer"),
        # Named here, not blamed on frame 0 or escaping as a TypeError.
        ("a_x", math.nan, "a_x must be finite, got nan"),
        ("b_y", -math.inf, "b_y must be finite, got -inf"),
        ("noise_sigma", math.inf, "noise_sigma must be finite, got inf"),
        ("shake_scale", math.nan, "shake_scale must be finite, got nan"),
        ("n_frames", 2.5, "n_frames must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        # Named here, not generating the pure-exponential trajectory.
        ("variant", "sin_exponential", "variant must be a Variant, got 'sin_exponential'"),
        ("variant", None, "variant must be a Variant, got None"),
        # Named before the finiteness test, not escaping as a TypeError.
        ("a_x", "1", "a_x must be a number, got '1'"),
        ("shake_prob", None, "shake_prob must be a number, got None"),
        ("noise_sigma", True, "noise_sigma must be a number, got True"),
        # Named before the order test, not escaping as a TypeError from it or from gate.
        ("x_min", "0", "x_min must be a number, got '0'"),
        ("y_max", None, "y_max must be a number, got None"),
        ("x_max", True, "x_max must be a number, got True"),
        ("length", True, "window length must be an integer, got True"),
        # A frame past MAX_FRAME is one parse_detections refuses; the message
        # holds no value, since a 5000-digit int cannot be formatted.
        ("n_frames", 2**53 + 2, "n_frames must be <= 9007199254740993"),
        ("noise_sigma", -0.5, "noise_sigma must be >= 0, got -0.5"),
        ("shake_scale", -1, "shake_scale must be >= 0, got -1"),
        # Named here, not read as a frame or escaping later as a TypeError
        # from to_observation, select_per_frame or the fit.
        ("frame_index", True, "frame_index must be an integer, got True"),
        ("frame_index", 2.0, "frame_index must be an integer, got 2.0"),
        ("left", "1", "left must be a number, got '1'"),
        ("width", True, "width must be a number, got True"),
        ("confidence", None, "confidence must be a number, got None"),
        ("label", 5, "label must be a string, got 5"),
        ("family", "exp", "family must be a ModelFamily, got 'exp'"),
        ("degree", 2.5, "degree must be an integer, got 2.5"),
        ("degree", True, "degree must be an integer, got True"),
    ], ids=["kind_family", "kind_degree", "region", "window_horizon", "window_horizon_huge",
            "window_horizon_nan", "window_horizon_inf", "window_horizon_str",
            "window_horizon_none", "window_horizon_bool", "window_length", "window_length_float",
            "window_length_nan", "spec_frames", "spec_shake_prob", "spec_seed_negative",
            "spec_seed_64_bits", "spec_a_x_nan", "spec_b_y_inf", "spec_noise_inf",
            "spec_shake_scale_nan", "spec_frames_float", "spec_seed_float", "spec_seed_bool",
            "spec_variant_str", "spec_variant_none", "spec_a_x_str", "spec_shake_prob_none",
            "spec_noise_bool", "region_x_min_str", "region_y_max_none", "region_x_max_bool",
            "window_length_bool", "spec_frames_past_max_frame", "spec_noise_negative",
            "spec_shake_scale_negative", "record_frame_bool", "record_frame_float",
            "record_left_str", "record_width_bool", "record_confidence_none",
            "record_label_int", "kind_family_str", "kind_degree_float", "kind_degree_bool"])
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
        fit_model(series, EXPONENTIAL)  # and the logs of the values
        twin = AxisSeries._from_columns(Axis.X, (0.0, 1.0), (1.0, 2.5))
        assert series._logs == (0.0, math.log(2.5)) and twin._logs == ()
        assert series == twin and hash(series) == hash(twin) and repr(series) == repr(twin)
        assert series != AxisSeries(Axis.Y, self.SAMPLES)
        assert series != AxisSeries(Axis.X, self.SAMPLES[:1])
        assert series != (Axis.X, self.SAMPLES)

    def test_copies_and_pickles(self):
        series = AxisSeries(Axis.X, self.SAMPLES)
        window(series, WindowConfig(), 5.0)
        fit_model(series, EXPONENTIAL)
        assert series._logs == (0.0, math.log(2.5))
        for copied in (copy.copy(series), copy.deepcopy(series),
                       pickle.loads(pickle.dumps(series))):
            assert type(copied) is AxisSeries and copied == series
            # A memo is not copied, and a copy's head of logs starts empty.
            assert copied._window is None and copied._log_line is None and copied._logs == ()


    def test_hash_repr_copy_and_pickle_build_no_pairs(self):
        # The whole-frame mark is seen by none of them: a marked series and an
        # unmarked one of the same pairs are equal and hash and print alike.
        pairs = ((0.0, 0.5), (1.0, 1.5), (2.0, 2.5))
        marked, _ = build_series([(t, v, 0.0) for t, v in pairs])
        unmarked = AxisSeries(Axis.X, pairs)
        assert marked._whole and not unmarked._whole
        for series in (marked, unmarked):
            copies = (copy.copy(series), copy.deepcopy(series),
                      pickle.loads(pickle.dumps(series)))
            assert hash(series) == hash((Axis.X, pairs)) and series._samples is None
            assert repr(series) == ("AxisSeries(axis=<Axis.X: 'x'>, samples=((0.0, 0.5), "
                                    "(1.0, 1.5), (2.0, 2.5)))") and series._samples is None
            for copied in copies:
                assert copied._samples is None and copied._whole == series._whole
                assert copied == marked == unmarked and hash(copied) == hash(marked)
            assert series._samples is None
        assert repr(AxisSeries(Axis.Y, pairs[:1])) == \
            "AxisSeries(axis=<Axis.Y: 'y'>, samples=((0.0, 0.5),))"
        assert repr(AxisSeries(Axis.Y, ())) == "AxisSeries(axis=<Axis.Y: 'y'>, samples=())"

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


# 2**1024 - 2**970 is the least int that float() cannot convert, and as CSV
# text float() reads it as inf; one below it is the largest float.
@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("fmt", [StreamFormat.JSONL, StreamFormat.CSV], ids=["jsonl", "csv"])
def test_record_numbers_end_at_the_float_range(fmt, sign):
    def parse(left):
        if fmt is StreamFormat.JSONL:
            line = f'{{"frame": 0, "left": {left}, "top": 1, "width": 4, "height": 4}}\n'
            return outcome(parse_detections, line, fmt)
        return outcome(parse_detections, ",".join(CSV_HEADER) + f"\n0,{left},1,4,4,,\n", fmt)

    end = sign * (2**1024 - 2**970)
    assert float(str(end)) == sign * INF
    (record,) = parse(end - sign)
    assert float(record.left) == sign * sys.float_info.max  # an int from JSON, a float from CSV
    line_no = 1 if fmt is StreamFormat.JSONL else 2
    assert parse(end) == (ParseError, f"line {line_no}: value for 'left' must be finite")


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


# Both parsers read the text in pieces of about ingest._CHUNK characters that
# end at a line feed. Each text below must parse to the same records, or fail
# with the same error and line number, at every piece size as it does read in
# one piece; each is also read with a bad line appended, so that a line number
# after every construct is checked.
_J = '{{"frame": {}, "left": 1.5, "top": 2.5, "width": 3.0, "height": 4.0, "label": "{}"}}'
_C = "{},1.5,2.5,3.0,4.0,,{}"
_HEADER = ",".join(CSV_HEADER)


def _rows(fmt, labels, sep):
    line = _J if fmt is StreamFormat.JSONL else _C
    rows = [line.format(i, label) for i, label in enumerate(labels)]
    return sep.join(rows if fmt is StreamFormat.JSONL else [_HEADER, *rows])


CHUNK_TEXTS = {
    **{f"{name}-{fmt.value}": (fmt, _rows(fmt, ["a", "b", "c"], sep) + end)
       for fmt in StreamFormat
       for name, sep, end in [("lf", "\n", "\n"), ("cr", "\r", "\r"), ("crlf", "\r\n", "\r\n"),
                              ("final_cr", "\n", "\r"), ("no_final_newline", "\n", ""),
                              ("mixed", "\r\n", "\n\r\r\n\r")]},
    **{f"blank_lines-{fmt.value}": (fmt, "\n" + _rows(fmt, ["a", "b"], "\n \n\n\r\n") + "\n\n")
       for fmt in StreamFormat},
    **{f"empty-{fmt.value}": (fmt, "") for fmt in StreamFormat},
    **{f"only_line_ends-{fmt.value}": (fmt, "\n\r\n\r\r") for fmt in StreamFormat},
    # str.splitlines() would split at each of these; neither parser may.
    **{f"raw_separators-{fmt.value}": (
        fmt, _rows(fmt, ["a\x85b", "a\u2028b", "a\u2029b", "c"], "\n") + "\n")
       for fmt in StreamFormat},
    "raw_vt-jsonl": (StreamFormat.JSONL, _rows(StreamFormat.JSONL, ["a", "a\x0bb"], "\n")),
    "raw_vt-csv": (StreamFormat.CSV, _rows(StreamFormat.CSV, ["a", "a\x0bb", "\x0c"], "\n")),
    "separator_outside_string-jsonl": (StreamFormat.JSONL,
                                       _rows(StreamFormat.JSONL, ["a"], "") + "\u2028\n"),
    "quoted_line_ends-csv": (StreamFormat.CSV, _rows(
        StreamFormat.CSV, ['"a\nb"', '"a\r\nb"', '"a\rb"', '"\n\n"', "c"], "\n")),
    "unclosed_quote-csv": (StreamFormat.CSV, _rows(StreamFormat.CSV, ["a", '"b\n\nc'], "\r\n")),
    "over_limit_field-csv": (StreamFormat.CSV,
                             _rows(StreamFormat.CSV, ["a", "x" * 200_000, "c"], "\n")),
    # Longer than one default piece, so the default size has boundaries too.
    **{f"long-{fmt.value}": (fmt, _rows(fmt, ["rebar_endpoint"] * 4000, "\n") + "\n")
       for fmt in StreamFormat},
}
_BAD_LINE = {StreamFormat.JSONL: "{bad\n", StreamFormat.CSV: "1,2\n"}


def parse_in_pieces(monkeypatch, text, fmt, chunk):
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    return outcome(parse_detections, text, fmt)


class TestChunkedReading:
    @pytest.mark.parametrize("bad_line", [False, True], ids=["as_is", "bad_line_after"])
    @pytest.mark.parametrize("fmt, text", CHUNK_TEXTS.values(), ids=CHUNK_TEXTS.keys())
    def test_same_outcome_at_every_piece_size(self, fmt, text, bad_line, monkeypatch):
        if bad_line:
            text += _BAD_LINE[fmt]
        whole = parse_in_pieces(monkeypatch, text, fmt, len(text) + 1)
        for chunk in (1, 2, 7, 1 << 16):
            assert parse_in_pieces(monkeypatch, text, fmt, chunk) == whole, chunk

    @pytest.mark.parametrize("fmt, text", CHUNK_TEXTS.values(), ids=CHUNK_TEXTS.keys())
    def test_csv_line_source_is_that_of_one_file(self, fmt, text, monkeypatch):
        for chunk in (1, 2, 7, 1 << 16):
            monkeypatch.setattr(ingest, "_CHUNK", chunk)
            assert list(ingest._csv_lines(text)) == list(io.StringIO(text, newline=""))
            pieces = list(ingest._chunks(text))
            assert "".join(pieces) == text
            assert all(p.endswith("\n") and len(p) >= chunk for p in pieces[:-1])

    def test_pinned_outcomes(self):
        # The reference read above is today's whole-text read; these pin a few
        # of its outcomes, so that both cannot drift together.
        def parse(name, bad_line=False):
            fmt, text = CHUNK_TEXTS[name]
            return outcome(parse_detections, text + (_BAD_LINE[fmt] if bad_line else ""), fmt)

        assert [r.label for r in parse("mixed-jsonl")] == ["a", "b", "c"]
        assert parse("mixed-jsonl", True) == (
            ParseError, "line 7: invalid JSON (Expecting property name enclosed in double quotes)")
        assert parse("mixed-csv", True) == (ParseError, "line 8: expected 7 fields, got 2")
        assert parse("final_cr-csv", True) == (ParseError, "line 5: expected 7 fields, got 2")
        assert [r.label for r in parse("raw_separators-csv")] == [
            "a\x85b", "a\u2028b", "a\u2029b", "c"]
        assert parse("raw_vt-jsonl")[1].startswith("line 2: invalid JSON (Invalid control")
        assert [r.label for r in parse("quoted_line_ends-csv")] == [
            "a\nb", "a\r\nb", "a\rb", "\n\n", "c"]
        assert parse("quoted_line_ends-csv", True) == (  # the bad line joins "c"'s row
            ParseError, "line 11: expected 7 fields, got 8")
        assert parse("over_limit_field-csv") == (
            ParseError, "line 3: field larger than field limit (131072)")
        assert parse("long-jsonl", True) == (ParseError, "line 4001: invalid JSON "
                                             "(Expecting property name enclosed in double quotes)")
        assert parse("empty-jsonl") == []
        assert parse("empty-csv") == (ParseError, "line 1: missing CSV header")

    @pytest.mark.parametrize("fmt", list(StreamFormat), ids=lambda f: f.value)
    def test_random_hostile_texts(self, fmt, monkeypatch):
        rng = random.Random(21)
        start = "" if fmt is StreamFormat.JSONL else _HEADER
        fragments = [_J.format(3, "x"), _C.format(4, "y"), _C.format(5, '"q\r\nq"'), "\n", "\r",
                     "\r\n", " ", '"', ",", "{", "\x0b", "\x85", "\u2028", "1.5", "}"]
        for _ in range(300):
            text = start + "".join(rng.choice(fragments) for _ in range(rng.randint(0, 12)))
            whole = parse_in_pieces(monkeypatch, text, fmt, len(text) + 1)
            for chunk in (1, 2, 3, 7):
                assert parse_in_pieces(monkeypatch, text, fmt, chunk) == whole, (text, chunk)


@pytest.mark.parametrize("fmt", list(StreamFormat), ids=lambda f: f.value)
def test_parse_holds_little_beside_the_text_and_records(fmt):
    # What a parse allocates and frees again, its peak less what it keeps,
    # stays below the text's length: it holds no copy of the text, whose
    # StringIO took four bytes a character and whose list of lines about 1.4.
    rng = random.Random(5)
    records = [DetectionRecord(i, rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(1, 20),
                               rng.uniform(1, 20), rng.random(),
                               "rebar_endpoint" if i % 7 else "decoy")
               for i in range(20_000)]
    if fmt is StreamFormat.JSONL:
        text = "".join([json.dumps(dict(zip(CSV_HEADER, r))) + "\n" for r in records])
    else:  # no label needs quoting
        text = "".join([",".join(CSV_HEADER) + "\n"] + [",".join(map(str, r)) + "\n"
                                                          for r in records])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_detections(text, fmt)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == records
    assert peak - held < len(text), (peak - before, held - before, len(text))
    # Records with equal labels share one str.
    assert len({id(r.label) for r in parsed}) == 2
