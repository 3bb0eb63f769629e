"""Detection-stream ingestion.

Parses per-frame bounding boxes from JSONL or CSV streams, deduplicates
them to one box per frame, and converts the surviving boxes into
time-stamped center-point observations split into per-axis series.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence, Union

from .errors import OrderingError, ParseError, ValidationError


class StreamFormat(Enum):
    JSONL = "jsonl"
    CSV = "csv"


class Axis(Enum):
    X = "x"
    Y = "y"


CSV_HEADER = ["frame", "left", "top", "width", "height", "confidence", "label"]
_NUMBER_KEYS = CSV_HEADER[1:6]

StreamInput = Union[str, bytes, IO[str], IO[bytes]]

# Above 2**53 not every integer is a float, so a frame would lose its exact time.
MAX_FRAME = 2**53


@dataclass(frozen=True)
class DetectionRecord:
    """One raw bounding box as emitted by an upstream detector.

    The box is (left, top, width, height) in pixels; ``confidence`` is the
    detector's score in [0, 1] and defaults to 1.0 when the stream omits it.
    """

    frame_index: int
    left: float
    top: float
    width: float
    height: float
    confidence: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.frame_index <= MAX_FRAME:
            bad = "frame"
        elif not self.width > 0:
            bad = "width"
        elif not self.height > 0:
            bad = "height"
        elif not 0.0 <= self.confidence <= 1.0:
            bad = "confidence"
        else:
            return
        raise ValidationError(f"invalid value for '{bad}'")


@dataclass(frozen=True)
class EndpointObservation:
    """A time-stamped center point (t, x, y) derived from one record."""

    t: float
    x: float
    y: float


@dataclass(frozen=True)
class AxisSeries:
    """One coordinate axis over time: ordered (t, value) samples.

    A series never changes after it is built, so results derived from it can
    be kept on it: ``trajectory.window`` keeps its last window there and
    ``regression.fit_model`` its exponential-family line. Neither is a field,
    so equality, hashing and ``repr`` see only the axis and the samples.
    """

    axis: Axis
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev = None
        for t, _ in self.samples:
            if prev is not None and t <= prev:
                raise OrderingError(
                    f"{self.axis.value} series t values must be strictly increasing "
                    f"(t={t!r} after t={prev!r})"
                )
            prev = t

    @classmethod
    def _ordered(cls, axis: Axis, samples: tuple[tuple[float, float], ...]) -> "AxisSeries":
        """A series from samples already known to be strictly increasing in t,
        such as a slice of another series; the ordering check is skipped."""
        series = object.__new__(cls)
        object.__setattr__(series, "axis", axis)
        object.__setattr__(series, "samples", samples)
        return series


def read_text(data: StreamInput) -> str:
    """The text of a stream: a str as is, bytes or a binary file as UTF-8."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 (byte {exc.start}: {exc.reason})") from None
    return data


def _require_numbers(values: Sequence, line_no: int) -> Sequence:
    """Left, top, width, height and confidence as decoded from a JSON line or
    a CSV row; each must be a finite number."""
    for key, value in zip(_NUMBER_KEYS, values):
        if type(value) not in (int, float):  # bool is not a number here
            raise ParseError(f"line {line_no}: value for '{key}' must be a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ParseError(f"line {line_no}: value for '{key}' must be finite")
    return values


def _parse_jsonl(text: str) -> list[DetectionRecord]:
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
            raise ParseError(f"line {line_no}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ParseError(f"line {line_no}: expected a JSON object")
        for key in ("frame", "left", "top", "width", "height"):
            if key not in obj:
                raise ParseError(f"line {line_no}: missing key '{key}'")
        frame = obj["frame"]
        if isinstance(frame, bool) or not isinstance(frame, int):
            raise ParseError(f"line {line_no}: value for 'frame' must be an integer")
        left, top, width, height, confidence = _require_numbers(
            (obj["left"], obj["top"], obj["width"], obj["height"], obj.get("confidence", 1.0)),
            line_no,
        )
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise ParseError(f"line {line_no}: value for 'label' must be a string")
        records.append(
            _build_record(frame, left, top, width, height, confidence, label, line_no)
        )
    return records


def _parse_csv(text: str) -> list[DetectionRecord]:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _read_csv(reader)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _read_csv(reader) -> list[DetectionRecord]:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: missing CSV header") from None
    if header != CSV_HEADER:
        raise ParseError(f"line 1: CSV header must be exactly '{','.join(CSV_HEADER)}'")
    records = []
    for row in reader:
        line_no = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(
                f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        try:
            frame = int(row[0])
        except ValueError:
            raise ParseError(f"line {line_no}: value for 'frame' must be an integer") from None
        numbers = []
        for cell in (*row[1:5], row[5] or "1.0"):
            try:
                numbers.append(float(cell))
            except ValueError:
                numbers.append(cell)  # _require_numbers reports it as not a number
        left, top, width, height, confidence = _require_numbers(numbers, line_no)
        records.append(
            _build_record(frame, left, top, width, height, confidence, row[6], line_no)
        )
    return records


def _build_record(frame, left, top, width, height, confidence, label, line_no) -> DetectionRecord:
    try:
        return DetectionRecord(frame, left, top, width, height, confidence, label)
    except ValidationError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None


def parse_detections(data: StreamInput, fmt: StreamFormat) -> list[DetectionRecord]:
    """Decode a detection stream into records, preserving file order.

    No deduplication or reordering happens here. Raises ParseError for
    malformed lines and ValidationError for records violating invariants,
    both naming the offending line.
    """
    text = read_text(data)
    if fmt is StreamFormat.JSONL:
        return _parse_jsonl(text)
    return _parse_csv(text)


def render_detections(records: Iterable[DetectionRecord], fmt: StreamFormat) -> str:
    """Serialize records back to a stream; reparsing yields equal records."""
    if fmt is StreamFormat.JSONL:
        lines = []
        for r in records:
            lines.append(
                json.dumps(
                    {
                        "frame": r.frame_index,
                        "left": r.left,
                        "top": r.top,
                        "width": r.width,
                        "height": r.height,
                        "confidence": r.confidence,
                        "label": r.label,
                    }
                )
            )
        return "".join(line + "\n" for line in lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [
                r.frame_index,
                repr(r.left),
                repr(r.top),
                repr(r.width),
                repr(r.height),
                repr(r.confidence),
                r.label,
            ]
        )
    return out.getvalue()


def select_per_frame(records: list[DetectionRecord]) -> list[DetectionRecord]:
    """Keep one record per frame: highest confidence, ties broken by
    smallest left, then smallest top. Output sorted by frame index."""
    best: dict[int, DetectionRecord] = {}
    for r in records:
        cur = best.get(r.frame_index)
        if cur is None or _rank(r) < _rank(cur):
            best[r.frame_index] = r
    return [best[frame] for frame in sorted(best)]


def _rank(r: DetectionRecord) -> tuple[float, float, float]:
    return (-r.confidence, r.left, r.top)


def to_observation(record: DetectionRecord) -> EndpointObservation:
    """Center point of the box on the frame-index time axis."""
    return EndpointObservation(
        t=float(record.frame_index),
        x=record.left + record.width / 2.0,
        y=record.top + record.height / 2.0,
    )


def build_series(observations: list[EndpointObservation]) -> tuple[AxisSeries, AxisSeries]:
    """Split observations into an X series of (t, x) and a Y series of (t, y)."""
    xs = AxisSeries(Axis.X, tuple((o.t, o.x) for o in observations))
    ys = AxisSeries(Axis.Y, tuple((o.t, o.y) for o in observations))
    return xs, ys
