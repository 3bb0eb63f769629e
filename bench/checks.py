"""Reference computations made apart from the program, and output checks.

Line and log-line fits come from ``statistics.linear_regression``;
polynomial fits solve the normal equations exactly with ``fractions``.
Every check returns a list of problems; an empty list means the output
agrees with the reference.
"""

from __future__ import annotations

import json
import math
import statistics
import xml.etree.ElementTree as ET
from fractions import Fraction

# Agreement between the program's floats and a reference computed another way.
REL_TOL = 1e-9
# A value printed with six decimals is within half a unit of the sixth place.
PRINT_TOL = 5e-7

EXP_FAMILY = ("exp", "sinexp", "cosexp")


def close(value: float, ref: float, printed: bool = False) -> bool:
    slack = REL_TOL * max(1.0, abs(ref))
    return abs(value - ref) <= slack + (PRINT_TOL if printed else 0.0)


class Model:
    """A reference fit: ``label`` plus the evaluation at any t."""

    def __init__(self, label: str, a: float = 0.0, b: float = 0.0,
                 coefficients: tuple[Fraction, ...] = ()):
        self.label, self.a, self.b, self.coefficients = label, a, b, coefficients

    def at(self, t: float) -> float:
        if self.label == "linear":
            return self.a * t + self.b
        if self.coefficients:
            return float(sum(c * Fraction(t) ** k for k, c in enumerate(self.coefficients)))
        shift = {"exp": 0.0, "sinexp": math.sin(self.a), "cosexp": math.cos(self.a)}
        return math.exp(self.a * t + self.b) + shift[self.label]

    def rmse(self, ts, vs) -> float:
        return math.sqrt(math.fsum((self.at(t) - v) ** 2 for t, v in zip(ts, vs)) / len(ts))


def exact_polynomial(ts, vs, degree: int) -> tuple[Fraction, ...]:
    """Least-squares coefficients (ascending powers) from the exact normal
    equations. Frame numbers are integers and every float is a dyadic
    rational, so the sums are exact integer arithmetic."""
    ti = [int(t) for t in ts]
    if any(t != u for t, u in zip(ts, ti)):
        raise ValueError("exact polynomial reference needs integer t values")
    ratios = [v.as_integer_ratio() for v in vs]
    denom = max(d for _, d in ratios)  # all powers of two, so it is a common multiple
    nums = [n * (denom // d) for n, d in ratios]
    m = degree + 1
    powers = [[1] * len(ti)]
    for _ in range(2 * degree):
        powers.append([p * t for p, t in zip(powers[-1], ti)])
    moments = [sum(row) for row in powers]
    rhs = [Fraction(sum(n * p for n, p in zip(nums, powers[k])), denom) for k in range(m)]
    aug = [[Fraction(moments[j + k]) for k in range(m)] + [rhs[j]] for j in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][m] / aug[i][i] for i in range(m))


def fit(label: str, ts, vs) -> Model:
    """Reference fit of one model kind on (t, v) samples."""
    if label == "linear":
        line = statistics.linear_regression(ts, vs)
        return Model(label, line.slope, line.intercept)
    if label in EXP_FAMILY:
        line = statistics.linear_regression(ts, [math.log(v) for v in vs])
        shift = {"exp": 0.0, "sinexp": math.sin(line.slope), "cosexp": math.cos(line.slope)}
        return Model(label, line.slope, line.intercept - shift[label])
    if label.startswith("poly"):
        return Model(label, coefficients=exact_polynomial(ts, vs, int(label[4:])))
    raise ValueError(f"no reference for model {label!r}")


def error_rate(predicted: float, actual: float) -> float:
    """|predicted - actual| / |actual| * 100, from its definition."""
    return abs(predicted - actual) / abs(actual) * 100.0


def outside(x: float, y: float, region: tuple[float, float, float, float]) -> bool:
    """The gate's definition: outside the rectangle, boundary inside."""
    x0, y0, x1, y1 = region
    return x < x0 or x > x1 or y < y0 or y > y1


def near_boundary(x: float, y: float, region, tol: float) -> bool:
    x0, y0, x1, y1 = region
    return min(abs(x - x0), abs(x - x1), abs(y - y0), abs(y - y1)) <= tol


# ---- CLI output checks --------------------------------------------------

def check_key_values(stdout: str, expected: dict[str, object]) -> list[str]:
    """``fit`` prints ``key = value`` lines; floats agree within rounding."""
    got = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            return [f"unexpected fit output line {line!r}"]
        got[key] = value
    problems = []
    if set(got) != set(expected):
        problems.append(f"fit printed keys {sorted(got)}, expected {sorted(expected)}")
    for key, ref in expected.items():
        value = got.get(key)
        if value is None:
            continue
        if isinstance(ref, float):
            if not close(float(value), ref, printed=True):
                problems.append(f"fit {key} = {value}, reference {ref!r}")
        elif isinstance(ref, tuple):
            parts = [float(p) for p in value.split(",")]
            if len(parts) != len(ref) or not all(
                    close(p, r, printed=True) for p, r in zip(parts, ref)):
                problems.append(f"fit {key} = {value}, reference {ref!r}")
        elif value != str(ref):
            problems.append(f"fit {key} = {value}, expected {ref}")
    return problems


def check_simulate(stdout: str, xs: list[float], ys: list[float], half: float = 2.0) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != len(xs):
        return [f"simulate printed {len(lines)} lines, expected {len(xs)}"]
    for t, (line, x, y) in enumerate(zip(lines, xs, ys)):
        obj = json.loads(line)
        if (obj["frame"] != t or obj["width"] != 2 * half or obj["height"] != 2 * half
                or obj["confidence"] != 1.0
                or not close(obj["left"], x - half, printed=True)
                or not close(obj["top"], y - half, printed=True)):
            return [f"simulate frame {t}: {line!r} disagrees with reference ({x!r}, {y!r})"]
    return []


def check_predict_line(stdout: str, code: int, t_target: float, ref_x: float, ref_y: float,
                       region) -> list[str]:
    parts = stdout.strip().split(",")
    if len(parts) != 4:
        return [f"predict printed {stdout!r}"]
    t, x, y = (float(p) for p in parts[:3])
    problems = []
    if t != t_target or not close(x, ref_x, printed=True) or not close(y, ref_y, printed=True):
        problems.append(f"predict {stdout.strip()!r}, reference {t_target},{ref_x!r},{ref_y!r}")
    if not near_boundary(ref_x, ref_y, region, 1e-6):
        defect = outside(ref_x, ref_y, region)
        if parts[3] != ("true" if defect else "false"):
            problems.append(f"predict verdict {parts[3]}, gate definition gives {defect}")
        if code != (3 if defect else 0):
            problems.append(f"predict exit {code} with verdict {parts[3]}")
    return problems


def check_compare_csv(stdout: str, rows: list[dict]) -> list[str]:
    """``rows`` hold label, t_target, pred (x, y) or None, actual (x, y)."""
    lines = stdout.splitlines()
    header = "model,err_x_pct,err_y_pct,t_target,pred_x,pred_y,actual_x,actual_y"
    if not lines or lines[0] != header or len(lines) != len(rows) + 1:
        return [f"compare CSV has {len(lines)} lines or a wrong header"]
    problems = []
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        if cells[0] != row["label"]:
            problems.append(f"compare row {cells[0]!r}, expected {row['label']!r}")
            continue
        expected = _row_numbers(row)
        for name, cell, ref in zip(("err_x", "err_y", "t_target", "pred_x", "pred_y",
                                    "actual_x", "actual_y"), cells[1:], expected):
            if ref is None:
                if cell != "":
                    problems.append(f"{row['label']} {name} = {cell!r}, expected empty")
            elif cell == "" or not close(float(cell), ref, printed=True):
                problems.append(f"{row['label']} {name} = {cell!r}, reference {ref!r}")
    return problems


def check_compare_text(stdout: str, rows: list[dict]) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != len(rows) + 1 or lines[0].split() != ["Regression", "x-error", "%",
                                                           "y-error", "%"]:
        return [f"compare table has {len(lines)} lines or a wrong header"]
    problems = []
    for line, row in zip(lines[1:], rows):
        cells = line.split()
        err_x, err_y = _row_numbers(row)[:2]
        if cells[0] != row["label"]:
            problems.append(f"table row {cells[0]!r}, expected {row['label']!r}")
            continue
        for cell, ref in zip(cells[1:], (err_x, err_y)):
            if ref is None and cell != "-" or ref is not None and (
                    cell == "-" or not close(float(cell), ref, printed=True)):
                problems.append(f"table {row['label']} value {cell!r}, reference {ref!r}")
    return problems


def _row_numbers(row: dict) -> list:
    ax, ay = row["actual"]
    if row["pred"] is None:
        return [None, None, row["t_target"], None, None, ax, ay]
    px, py = row["pred"]
    return [error_rate(px, ax), error_rate(py, ay), row["t_target"], px, py, ax, ay]


def check_svg(text: str, samples_per_panel: int) -> list[str]:
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"plot output is not XML: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    panels = root.findall(f"{ns}g")
    if len(panels) != 2:
        return [f"plot has {len(panels)} panels, expected 2"]
    problems = []
    for panel in panels:
        circles = panel.findall(f"{ns}circle")
        samples = sum(c.get("class") == "sample" for c in circles)
        predictions = sum(c.get("class") == "prediction" for c in circles)
        if samples != samples_per_panel or predictions != 1:
            problems.append(f"plot panel {panel.get('id')}: {samples} sample and "
                            f"{predictions} prediction circles, expected "
                            f"{samples_per_panel} and 1")
    return problems
