"""Detection-stream ingestion.

Parses per-frame bounding boxes from JSONL or CSV streams, deduplicates
them to one box per frame, and converts the surviving boxes into
time-stamped center-point observations split into per-axis series.

Both parsers read the text in pieces of about 64 Ki characters that end at
a line feed, so a parse holds the text, its records and one piece's lines,
never a second copy of the whole text. Records with equal labels share one
str.
"""

from __future__ import annotations

import io
import json
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from itertools import chain
from json.scanner import make_scanner
from operator import attrgetter, lt

from .errors import OrderingError, ParseError, ValidationError


class StreamFormat(Enum):
    JSONL = "jsonl"
    CSV = "csv"


class Axis(Enum):
    X = "x"
    Y = "y"


CSV_HEADER = ["frame", "left", "top", "width", "height", "confidence", "label"]
_NUMBER_KEYS = CSV_HEADER[1:6]

# Above 2**53 not every integer is a float, so a frame would lose its exact time.
MAX_FRAME = 2**53

# The least int float() cannot convert. -FLOAT_END < v < FLOAT_END compares
# exactly, and holds for every finite float and for no int past the float range.
FLOAT_END = 2**1024 - 2**970


class CheckedTuple:
    """Base of the checked named tuples: ``_make``, which ``_replace`` calls, runs ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class DetectionRecord(CheckedTuple, namedtuple(
        "DetectionRecord", "frame_index left top width height confidence label")):
    """One raw bounding box as emitted by an upstream detector.

    The box is (left, top, width, height) in pixels; ``confidence`` is the
    detector's score in [0, 1] and defaults to 1.0 when the stream omits it.
    A named tuple: it unpacks, compares equal to a plain tuple of its fields,
    and ``_replace`` checks the invariants again.
    """

    __slots__ = ()

    def __new__(cls, frame_index: int, left: float, top: float, width: float,
                height: float, confidence: float = 1.0, label: str = "") -> "DetectionRecord":
        if type(frame_index) is not int:  # bool included
            raise ValidationError(f"frame_index must be an integer, got {frame_index!r}")
        for name, value in zip(cls._fields[1:6], (left, top, width, height, confidence)):
            if type(value) is not float and type(value) is not int:  # bool is not a number here
                raise ValidationError(f"{name} must be a number, got {value!r}")
        if not isinstance(label, str):
            raise ValidationError(f"label must be a string, got {label!r}")
        if not 0 <= frame_index <= MAX_FRAME:
            bad = "frame"
        elif not width > 0:
            bad = "width"
        elif not height > 0:
            bad = "height"
        elif not 0.0 <= confidence <= 1.0:
            bad = "confidence"
        else:
            return tuple.__new__(cls, (frame_index, left, top, width, height, confidence, label))
        raise ValidationError(f"invalid value for '{bad}'")


class AxisSeries:
    """One coordinate axis over time: a t column and a value column.

    The columns are tuples of equal length, t strictly increasing; the x and
    y series of one stream share one t tuple. ``samples``, the (t, value)
    pairs, is built on its first read and kept. A series never changes after
    it is built, so results derived from it can be kept on it:
    ``trajectory.window`` keeps its last window in ``_window`` and
    ``regression.fit_model`` its last exponential-family line in
    ``_log_line``, as ``(clamp_nonpositive, line)``. ``_whole`` is True
    only when every t is known to be a float holding a whole number:
    ``build_series`` tests it, ``evaluation`` sets it on the frames it
    generates, ``trajectory.window`` keeps it on its slices, and the public
    constructor leaves it False.
    ``regression`` reads it to take a gap-free window's t half by
    translation. ``_logs`` holds the logs of the first k values, for some k
    from 0 (the empty tuple, the default) to the series' length:
    ``trajectory.window`` gives a window those of the samples it shares with
    the window kept before it, and ``regression`` logs only the values past
    them, then stores the whole column when no value is zero or negative.
    Equality, hashing and ``repr`` see only ``axis`` and ``samples``, which
    are read-only properties, and read them from the columns, so none of
    them builds and keeps the pairs; none of them, nor a copy, sees
    ``_logs``.
    """

    __slots__ = ("_axis", "_ts", "_vs", "_whole", "_logs", "_samples", "_window", "_log_line")

    axis = property(attrgetter("_axis"))

    def __new__(cls, axis: Axis, samples: Iterable[tuple[float, float]]) -> "AxisSeries":
        samples = tuple(samples)  # read once, so an iterator fills both columns
        ts = tuple([t for t, _ in samples])
        _require_increasing(axis, ts)
        return cls._from_columns(axis, ts, tuple([v for _, v in samples]))

    @classmethod
    def _from_columns(cls, axis: Axis, ts: tuple[float, ...], vs: tuple[float, ...],
                      whole: bool = False) -> "AxisSeries":
        """A series of columns already known to be equally long and strictly
        increasing in t, such as slices of another series, and ``whole`` only
        if every t is known to be a float holding a whole number; nothing is
        checked."""
        series = object.__new__(cls)
        series._axis, series._ts, series._vs, series._whole = axis, ts, vs, whole
        series._logs = ()
        series._samples = series._window = series._log_line = None
        return series

    # Kept, with its cache, for the benchmark's tracer (bench/tracing.py), which
    # reads it on every window: built each time, a traced stream_rolling round
    # would build 1e5 pairs on each of some 500 windows. No library code reads it.
    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        samples = self._samples
        if samples is None:
            samples = self._samples = tuple(zip(self._ts, self._vs))
        return samples

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._axis, self._ts, self._vs) == (other._axis, other._ts, other._vs)

    # Hashing and repr zip the columns into pairs that are dropped after use,
    # so the hash stays that of (axis, samples) and the text stays the same.
    def __hash__(self) -> int:
        return hash((self._axis, tuple(zip(self._ts, self._vs))))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(axis={self._axis!r}, "
                f"samples={tuple(zip(self._ts, self._vs))!r})")

    def __reduce__(self):  # copy and pickle rebuild the columns; the memos start empty
        return self.__class__._from_columns, (self._axis, self._ts, self._vs, self._whole)


def _require_increasing(axis: Axis, ts: Sequence[float]) -> None:
    """Raise OrderingError at the first t that is NaN, infinite, an int past
    the float range or not above the one before it. A NaN compares false with
    every t, so a series holding one has no order for ``trajectory.window`` to
    bisect; the others make every fit's mean infinite or raise OverflowError.
    A NaN breaks the pairwise order, which the test checks at C speed, and a
    strictly increasing column holds the others only at its ends, so those
    are all it reads beyond that order; the loop only names the fault."""
    if not all(map(lt, ts, ts[1:])) or ts and not (-FLOAT_END < ts[0] and ts[-1] < FLOAT_END):
        for i, t in enumerate(ts):
            if not -FLOAT_END < t < FLOAT_END:
                raise OrderingError(f"{axis.value} series t value {t!r} at sample {i} is not "
                                    + ("a number" if t != t else "finite"))
            if i and not ts[i - 1] < t:
                raise OrderingError(
                    f"{axis.value} series t values must be strictly increasing "
                    f"(t={t!r} after t={ts[i - 1]!r})"
                )


def read_text(data: str | bytes | io.IOBase) -> str:
    """The text of a stream: a str as is, bytes or a binary file as UTF-8."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 (byte {exc.start}: {exc.reason})") from None
    return data


# json.loads without its per-call Python layers: the same C scanner, run on
# each line from its first character. A line is taken from it only when the
# scanner reads it whole, up to trailing JSON whitespace; any other line
# (leading whitespace, a BOM, extra data, an error) goes through json.loads,
# so that it decodes or fails exactly as json.loads(line) does.
_scan_json = make_scanner(json.JSONDecoder())
_JSON_WHITESPACE = " \t\n\r"
_INF = float("inf")


_CHUNK = 1 << 16  # the least length of a piece of text that the parsers read at once


def _chunks(text: str) -> Iterable[str]:
    """``text`` in pieces of at least ``_CHUNK`` characters but the last, each
    ending just after a line feed: no line is split, nor a CR LF pair."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK - 1) + 1 or size
        yield text[start:end]
        start = end


def _load_json_line(line: str, line_no: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
        raise ParseError(f"line {line_no}: invalid JSON ({exc})") from None


def _jsonl_lines(piece: str) -> list[str]:
    # Lines end at \n, \r\n or \r only: str.splitlines() would also split
    # at U+2028, U+2029 and U+0085, which JSON allows raw inside a string.
    if "\r" in piece:
        piece = piece.replace("\r\n", "\n").replace("\r", "\n")
    lines = piece.split("\n")
    if not lines[-1]:  # the empty string after the piece's final \n
        lines.pop()
    return lines


def _parse_jsonl(text: str) -> list[DetectionRecord]:
    scan, new, record_class, inf = _scan_json, tuple.__new__, DetectionRecord, _INF
    shared = {}.setdefault  # one str per distinct label
    records = []
    append = records.append
    for line_no, line in enumerate(chain.from_iterable(map(_jsonl_lines, _chunks(text))),
                                   start=1):
        try:
            obj, end = scan(line, 0)
            if end != len(line) and line[end:].lstrip(_JSON_WHITESPACE):
                raise ValueError("extra data")  # json.loads names it
        except (StopIteration, ValueError, RecursionError):
            if not line.strip():  # a blank line never starts a JSON value
                continue
            obj = _load_json_line(line, line_no)
        # One test admits the common shape: exact floats, a str label and every
        # invariant met. Any other value goes to _json_record, which checks it
        # field by field and alone raises, so each message and its precedence
        # stay those of the field-by-field check.
        try:
            frame, left, top, width, height = (
                obj["frame"], obj["left"], obj["top"], obj["width"], obj["height"])
        except (KeyError, TypeError):
            pass
        else:
            confidence = obj.get("confidence", 1.0)
            label = obj.get("label", "")
            if (type(frame) is int and 0 <= frame <= MAX_FRAME
                    and type(left) is type(top) is type(width) is type(height)
                    is type(confidence) is float and type(label) is str
                    and left - left == 0.0 and top - top == 0.0
                    and 0.0 < width < inf and 0.0 < height < inf
                    and left + width / 2.0 < inf and top + height / 2.0 < inf
                    and 0.0 <= confidence <= 1.0):
                append(new(record_class, (frame, left, top, width, height, confidence,
                                          shared(label, label))))
                continue
        append(_json_record(obj, line_no))
    return records


def _json_record(obj, line_no: int) -> DetectionRecord:
    """The record of one decoded JSON line, each field checked in turn."""
    if not isinstance(obj, dict):
        raise ParseError(f"line {line_no}: expected a JSON object")
    try:  # looked up in this order, so the first missing key is named
        frame, left, top, width, height = (
            obj["frame"], obj["left"], obj["top"], obj["width"], obj["height"])
    except KeyError as exc:
        raise ParseError(f"line {line_no}: missing key '{exc.args[0]}'") from None
    return _checked_record(line_no, frame, left, top, width, height,
                           obj.get("confidence", 1.0), obj.get("label", ""))


def _csv_lines(text: str) -> Iterable[str]:
    """The lines that ``io.StringIO(text, newline="")`` yields, drawn from one
    such file per piece of ``_chunks``, which splits no line."""
    return chain.from_iterable(io.StringIO(piece, newline="") for piece in _chunks(text))


def _parse_csv(text: str) -> list[DetectionRecord]:
    import csv

    reader = csv.reader(_csv_lines(text))
    new, record_class, inf = tuple.__new__, DetectionRecord, _INF
    shared = {}.setdefault  # one str per distinct label
    records = []
    append = records.append
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("line 1: missing CSV header")
        if header != CSV_HEADER:
            raise ParseError(f"line 1: CSV header must be exactly '{','.join(CSV_HEADER)}'")
        for row in reader:
            # One test admits the common shape, as in _parse_jsonl; any other row
            # goes to _csv_record, which checks it field by field and alone raises.
            try:
                frame, left, top, width, height, confidence, label = row
                frame = int(frame)
                left, top, width, height = float(left), float(top), float(width), float(height)
                confidence = float(confidence) if confidence else 1.0
            except ValueError:
                pass
            else:
                if (0 <= frame <= MAX_FRAME
                        and left - left == 0.0 and top - top == 0.0
                        and 0.0 < width < inf and 0.0 < height < inf
                        and left + width / 2.0 < inf and top + height / 2.0 < inf
                        and 0.0 <= confidence <= 1.0):
                    append(new(record_class, (frame, left, top, width, height, confidence,
                                              shared(label, label))))
                    continue
            if row:
                append(_csv_record(row, reader.line_num))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    return records


def _csv_record(row: list[str], line_no: int) -> DetectionRecord:
    """The record of one non-empty CSV row, each field checked in turn."""
    if len(row) != len(CSV_HEADER):
        raise ParseError(f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}")
    values = []
    for convert, cell in zip((int, float, float, float, float, float),
                             (*row[:5], row[5] or "1.0")):
        try:
            values.append(convert(cell))
        except ValueError:  # the cell stays a str, which _checked_record reports
            values.append(cell)
    return _checked_record(line_no, *values, row[6])


def _checked_record(line_no: int, frame, left, top, width, height, confidence,
                    label) -> DetectionRecord:
    """The record of one JSON line or CSV row that the fused test turned away.
    Both formats check their fields here alone, so a fault reads the same in
    either: the frame's type, then each number's type and finiteness in
    field order, then the label's type, then the record's invariants, then
    that the box center is finite: two finite numbers such as 'left' and
    'width' can still sum past the float range."""
    if type(frame) is not int:  # JSON decodes no int subclass but bool
        raise ParseError(f"line {line_no}: value for 'frame' must be an integer")
    for key, value in zip(_NUMBER_KEYS, (left, top, width, height, confidence)):
        if type(value) is not float and type(value) is not int:  # bool is not a number here
            raise ParseError(f"line {line_no}: value for '{key}' must be a number")
        if not -FLOAT_END < value < FLOAT_END:  # NaN, an infinity, an int past the float range
            raise ParseError(f"line {line_no}: value for '{key}' must be finite")
    if not isinstance(label, str):
        raise ParseError(f"line {line_no}: value for 'label' must be a string")
    try:
        record = DetectionRecord(frame, left, top, width, height, confidence, label)
    except ValidationError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None
    if not left + width / 2.0 < _INF:
        bad = "x = left + width / 2"
    elif not top + height / 2.0 < _INF:
        bad = "y = top + height / 2"
    else:
        return record
    raise ValidationError(f"line {line_no}: box center {bad} overflows")


def parse_detections(data: str | bytes | io.IOBase, fmt: StreamFormat) -> list[DetectionRecord]:
    """Decode a detection stream into records, preserving file order.

    No deduplication or reordering happens here. Raises ParseError for
    malformed lines and ValidationError for records violating invariants,
    both naming the offending line. A ``fmt`` that is not a StreamFormat,
    such as the string ``"jsonl"``, raises ValidationError.
    """
    if type(fmt) is not StreamFormat:
        raise ValidationError(f"fmt must be a StreamFormat, got {fmt!r}")
    text = read_text(data)
    return _parse_jsonl(text) if fmt is StreamFormat.JSONL else _parse_csv(text)


def select_per_frame(records: list[DetectionRecord]) -> list[DetectionRecord]:
    """Keep one record per frame: highest confidence, ties broken by
    smallest left, then smallest top. Output sorted by frame index."""
    best: dict[int, DetectionRecord] = {}
    keep = best.setdefault
    for r in records:
        cur = keep(r[0], r)
        if cur is r:
            continue
        # (-confidence, left, top) compared as tuples compare, without building
        # them: the first field that differs decides, and a field holding the
        # same object in both records counts as equal, as in a tuple.
        if r[5] != cur[5]:
            wins = r[5] > cur[5]
        elif not (r[1] is cur[1] or r[1] == cur[1]):
            wins = r[1] < cur[1]
        else:
            wins = r[2] < cur[2]
        if wins:
            best[r[0]] = r
    return [best[frame] for frame in sorted(best)]


def to_observation(record: DetectionRecord) -> tuple[float, float, float]:
    """The (t, x, y) center point of the box on the frame-index time axis."""
    frame, left, top, width, height, _, _ = record
    return float(frame), left + width / 2.0, top + height / 2.0


def build_series(observations: Iterable[tuple[float, float, float]]
                 ) -> tuple[AxisSeries, AxisSeries]:
    """Split (t, x, y) triples into an X and a Y series that share one t column,
    marked whole when every t is a float holding a whole number."""
    ts, xs, ys = tuple(zip(*observations)) or ((), (), ())  # read once: may be an iterator
    _require_increasing(Axis.X, ts)  # the t column both series share, checked once
    try:  # float(frame), as to_observation gives it, holds a whole number
        whole = all(map(float.is_integer, ts))
    except TypeError:  # a t that is not a float, such as an int
        whole = False
    return (AxisSeries._from_columns(Axis.X, ts, xs, whole),
            AxisSeries._from_columns(Axis.Y, ts, ys, whole))
