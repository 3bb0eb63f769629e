"""Command-line interface.

Commands:
    trackcast simulate --spec traj.spec --seed 42 --out stream.jsonl
    trackcast fit --input stream.jsonl --axis x --model exp
    trackcast predict --input stream.jsonl --model sinexp --region 0,0,640,480
    trackcast compare --input stream.jsonl --cutoff 30
    trackcast plot --input stream.jsonl --model sinexp --out fit.svg

Exit codes: 0 success (no defect), 3 defect predicted, 2 usage, parse, or
fit error, or out of memory. Diagnostics go to standard error. All numbers
are printed with six decimal places so outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import evaluation, svgplot
from .errors import InsufficientDataError, TrackcastError, ValidationError
from .numfmt import fixed6
from .ingest import (
    AxisSeries,
    StreamFormat,
    build_series,
    parse_detections,
    read_text,
    select_per_frame,
    to_observation,
)
from .regression import FitResult, ModelKind, predict, residual_rmse
from .trajectory import (
    DEFAULT_HORIZON,
    Region,
    WindowConfig,
    fit_axis,
    predict_endpoint,
    window,
)

SIMULATED_BOX_SIZE = 4.0
SIMULATED_LABEL = "rebar_endpoint"
# The plotted curve steps over whole frames, every frame up to this many and
# an even stride beyond, so a distant target cannot grow the SVG without bound.
MAX_CURVE_FRAMES = 1000
# Options whose value may start with '-': a negative number, -inf, a region.
_SIGNED_OPTIONS = ("--cutoff", "--region", "--horizon", "--window", "--seed")


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each signed option, or its abbreviation, joined as ``--cutoff=-1e3``
    to a next token that starts with '-' but is no option (``--...`` or ``-h``):
    argparse takes such a token for a value only if it reads like -5."""
    out = []
    for token in argv:
        if (token[:1] == "-" and token[1:2] != "-" and token != "-h" and out
                and len(out[-1]) > 2 and any(name.startswith(out[-1]) for name in _SIGNED_OPTIONS)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _window_arg(text: str) -> int | None:
    if text.lower() == "all":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must be an integer or 'all', got {text!r}")


def _region_arg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("region must be x0,y0,x1,y1")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError("region coordinates must be numbers")


def _read(path: str) -> str:
    if path == "-":
        return read_text(sys.stdin.buffer)
    with open(path, "rb") as handle:
        return read_text(handle)


def _write(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)


def _load_series(args) -> tuple[AxisSeries, AxisSeries]:
    fmt = StreamFormat(args.format)
    # The kept records are freed once their triples are built, before the series are.
    xs, ys = build_series([to_observation(r) for r in
                           select_per_frame(parse_detections(_read(args.input), fmt))])
    if not xs._ts:
        raise InsufficientDataError("input stream contains no detections")
    return xs, ys


def _cutoff(args, fallback: float) -> float:
    return fallback if args.cutoff is None else args.cutoff


def _add_series_options(sub) -> None:
    sub.add_argument("--input", default="-", help="detection stream path, '-' for stdin")
    sub.add_argument("--format", choices=["jsonl", "csv"], default="jsonl",
                     help="input stream format")
    sub.add_argument("--window", type=_window_arg, default=None,
                     help="frames of history used for fitting (integer or 'all')")
    sub.add_argument("--cutoff", type=float, default=None,
                     help="last frame visible to the fit")
    sub.add_argument("--clamp-nonpositive", action="store_true",
                     help="lift non-positive values to 1e-9 instead of failing")


def cmd_simulate(args) -> int:
    spec = evaluation.parse_synthetic_spec(_read(args.spec))
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    xs, ys = evaluation.synthesize(spec)
    half = SIMULATED_BOX_SIZE / 2.0
    size = fixed6(SIMULATED_BOX_SIZE)
    lines = []
    for t, x, y in zip(xs._ts, xs._vs, ys._vs):
        lines.append(
            f'{{"frame": {int(t)}, "left": {fixed6(x - half)}, "top": {fixed6(y - half)}, '
            f'"width": {size}, "height": {size}, '
            f'"confidence": 1.000000, "label": "{SIMULATED_LABEL}"}}'
        )
    _write(args.out, "".join(line + "\n" for line in lines))
    return 0


def _fit_report(fit: FitResult, rmse: float) -> str:
    lines = [f"kind = {fit.kind.label}"]
    if fit.coefficients:
        lines.append("coefficients = " + ",".join(fixed6(c) for c in fit.coefficients))
    else:
        lines.append(f"a = {fixed6(fit.a)}")
        lines.append(f"b = {fixed6(fit.b)}")
    lines.append(f"n_points = {fit.n_points}")
    lines.append(f"rmse = {fixed6(rmse)}")
    return "".join(line + "\n" for line in lines)


def cmd_fit(args) -> int:
    xs, ys = _load_series(args)
    series = xs if args.axis == "x" else ys
    config = WindowConfig(length=args.window, horizon=DEFAULT_HORIZON)
    cutoff = _cutoff(args, math.inf)
    fit = fit_axis(series, ModelKind.parse(args.model), config, cutoff, args.clamp_nonpositive)
    sys.stdout.write(_fit_report(fit, residual_rmse(fit, window(series, config, cutoff))))
    return 0


def cmd_predict(args) -> int:
    xs, ys = _load_series(args)
    config = WindowConfig(length=args.window, horizon=args.horizon)
    cutoff = _cutoff(args, xs._ts[-1])
    region = None
    if args.region is not None:
        x0, y0, x1, y1 = args.region
        region = Region(x_min=x0, x_max=x1, y_min=y0, y_max=y1)
    point = predict_endpoint(xs, ys, ModelKind.parse(args.model), config, cutoff, region,
                             args.clamp_nonpositive)
    verdict = "true" if point.defect else "false"
    sys.stdout.write(
        f"{fixed6(point.t_target)},{fixed6(point.x)},{fixed6(point.y)},{verdict}\n"
    )
    return 3 if point.defect else 0


def cmd_compare(args) -> int:
    xs, ys = _load_series(args)
    kinds = ([ModelKind.parse(token) for token in args.models.split(",")]
             if args.models is not None else list(evaluation.DEFAULT_KINDS))
    config = WindowConfig(length=args.window, horizon=args.horizon)
    cutoff = _cutoff(args, xs._ts[-1] - args.horizon)
    reports = evaluation.compare(xs, ys, kinds, cutoff, config, args.clamp_nonpositive)
    if args.table == "text":
        _write(args.out, evaluation.comparison_text(reports))
    else:
        _write(args.out, evaluation.comparison_csv(reports))
    return 0


def cmd_plot(args) -> int:
    xs, ys = _load_series(args)
    kind = ModelKind.parse(args.model)
    config = WindowConfig(length=args.window, horizon=args.horizon)
    cutoff = _cutoff(args, xs._ts[-1])
    t_target = cutoff + config.horizon
    panels = []
    for series in (xs, ys):
        windowed = window(series, config, cutoff)
        fit = fit_axis(series, kind, config, cutoff, args.clamp_nonpositive)
        if not math.isfinite(t_target):  # the curve steps over whole frames up to it
            raise ValidationError(f"plot needs a finite target frame, got {t_target!r}")
        first, last = math.ceil(windowed._ts[0]), math.floor(t_target)
        stride = max(1, -(-(last - first + 1) // MAX_CURVE_FRAMES))
        curve_ts = [float(t) for t in range(first, last + 1, stride)]
        if not curve_ts or curve_ts[-1] != t_target:
            curve_ts.append(t_target)
        try:
            curve_values = tuple([predict(fit, t) for t in curve_ts])
        except TrackcastError as exc:  # named as predict_endpoint names it
            raise type(exc)(f"{series.axis.value} axis: {exc}") from exc
        # The curve ends at the target, so its last value is the prediction.
        panels.append(svgplot.Panel(
            title=series.axis.value, ts=windowed._ts, values=windowed._vs,
            curve_ts=tuple(curve_ts), curve_values=curve_values,
            prediction=(t_target, curve_values[-1])))
    _write(args.out, svgplot.render_prediction_svg(panels[0], panels[1]))
    return 0


# Help and usage text wrap at 78 columns, what argparse gives an 80-column
# terminal, whatever the terminal or COLUMNS says. With no width given, each
# formatter imports shutil (and with it bz2, lzma and fnmatch) to read it.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the trackcast command line on every call."""
    parser = argparse.ArgumentParser(
        prog="trackcast",
        description="Fit tracked-endpoint trajectories and predict positions "
                    "a configurable number of frames ahead.",
        formatter_class=_FORMATTER,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # A subparser takes no formatter from its parent, so each is given it.
    add_parser = functools.partial(subs.add_parser, formatter_class=_FORMATTER)

    sim = add_parser("simulate", help="generate a synthetic detection stream")
    sim.add_argument("--spec", required=True, help="synthetic trajectory spec file")
    sim.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    sim.add_argument("--out", default="-", help="output path, '-' for stdout")

    fit = add_parser("fit", help="fit one axis and print the parameters")
    _add_series_options(fit)
    fit.add_argument("--axis", choices=["x", "y"], required=True)

    pred = add_parser("predict", help="predict the endpoint position ahead")
    _add_series_options(pred)
    pred.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                      help="frames ahead of the cutoff")
    pred.add_argument("--region", type=_region_arg, default=None,
                      help="defect gate rectangle x0,y0,x1,y1")

    comp = add_parser("compare", help="score several models against ground truth")
    _add_series_options(comp)
    comp.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    comp.add_argument("--models", default=None,
                      help="comma-separated model list (default: sinexp,cosexp,exp,poly)")
    comp.add_argument("--table", choices=["csv", "text"], default="csv",
                      help="output rendering")
    comp.add_argument("--out", default="-", help="output path, '-' for stdout")

    plot = add_parser("plot", help="emit a two-panel SVG of fit and prediction")
    _add_series_options(plot)
    plot.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    plot.add_argument("--out", required=True, help="SVG output path")
    # compare scores a list of models; with no --model of its own, argparse's
    # prefix matching reads `compare --model X` as `--models X`.
    for sub in (fit, pred, plot):
        sub.add_argument("--model", default="sinexp",
                         help="linear|exp|sinexp|cosexp|polyN (poly is poly2)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call. Building one takes
    longer than a call's own work; a parse keeps no state on the parser."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    # Looked up per call, so a cmd_* replaced after the parser was built runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (TrackcastError, OSError) as exc:
        message = str(exc)
    except MemoryError:  # reported once the failed command's frames are freed
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
