"""The closed-loop workloads: one client, one process, no extra threads.

cli_paper       repeated ``cli.main`` calls on 100-frame inputs
stream_ingest   ingest of a 1e5-frame recorded stream, JSONL and CSV
stream_rolling  a rolling replay of predictions with a region gate on it
batch_paper     ``batch_compare`` over thousands of seeded 100-frame specs

Each run repeats whole rounds of the same operations until ``seconds`` have
passed, so the share of failed operations is the same in every run. A round
reports each operation's wall time under a name that is the same in every
round, so the run can take each operation's fastest time (see run.py);
``op_s`` turns those times into the workload's unit of work. A
traced run alternates untraced and traced rounds; its rounds take the traced
form described per workload, in which every layer of the package does work.
"""

from __future__ import annotations

import dataclasses
import io
import random
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

from trackcast import cli, evaluation, ingest, trajectory
from trackcast.evaluation import DEFAULT_KINDS, SyntheticSpec, Variant
from trackcast.ingest import StreamFormat
from trackcast.regression import LINEAR, SIN_EXPONENTIAL, polynomial
from trackcast.trajectory import Region, WindowConfig

import checks
import harness
import inputs
from inputs import HORIZON, PAPER_CUTOFF


class Ledger:
    """Operations attempted and failed, correctness problems and named faults."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.faults: Counter = Counter()

    def op(self, ok: bool, fault: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.faults[fault or "unexpected failure"] += 1

    def check(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)


# ---- cli_paper -------------------------------------------------------------

CLI_REPEATS = 3  # passes of the seven normal calls per round, before the hostile calls
HOSTILE_FAULT = "hostile input"


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with captured streams; an escaping exception is
    reported the way the interpreter would: exit 1 and a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class CliMix:
    """The paper-scale call mix: all five subcommands on one 100-frame stream,
    and three hostile inputs."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.workdir = workdir
        stream = inputs.write_stream(rng, inputs.PAPER_FRAMES, workdir, "paper")
        spec = inputs.paper_spec(rng, sin_variant=True)
        spec_path = workdir / "traj.spec"
        spec_path.write_text(spec.spec_text(), encoding="utf-8")
        sim_seed = rng.getrandbits(32)
        self.svg = workdir / "fit.svg"

        ts = [float(t) for t in range(stream.n_frames)]
        cx, cy = zip(*(stream.center(t) for t in range(stream.n_frames)))
        seen = PAPER_CUTOFF + 1
        target = float(PAPER_CUTOFF + HORIZON)
        tx, ty = stream.true_point(target)
        region = (0.0, 0.0, round(tx * rng.uniform(0.95, 1.05), 3),
                  round(ty * rng.uniform(0.95, 1.05), 3))
        region_arg = ",".join(f"{v:.3f}" for v in region)

        sim_x, sim_y = inputs.reference_synthesize(dataclasses.replace(spec, seed=sim_seed))
        line = checks.fit("linear", ts, cx)
        win = slice(seen - 20, seen)
        logline = checks.fit("exp", ts[win], cy[win])
        px = checks.fit("sinexp", ts[:seen], cx[:seen]).at(target)
        py = checks.fit("sinexp", ts[:seen], cy[:seen]).at(target)
        rows = [{"label": label, "t_target": target, "actual": (cx[int(target)], cy[int(target)]),
                 "pred": (checks.fit(label, ts[:seen], cx[:seen]).at(target),
                          checks.fit(label, ts[:seen], cy[:seen]).at(target))}
                for label in ("sinexp", "cosexp", "exp", "poly2")]
        j, c = str(stream.jsonl), str(stream.csv)
        cut = ["--cutoff", str(PAPER_CUTOFF)]

        def expect_ok(check):
            return lambda code, out, err: ([f"exit {code}: {err.strip()[-200:]}"]
                                           if code != 0 else check(out))

        # (subcommand, argv, check(code, stdout, stderr) -> problems)
        self.calls = [
            ("simulate", ["simulate", "--spec", str(spec_path), "--seed", str(sim_seed)],
             expect_ok(lambda out: checks.check_simulate(out, sim_x, sim_y))),
            ("fit", ["fit", "--input", j, "--axis", "x", "--model", "linear"],
             expect_ok(lambda out: checks.check_key_values(out, {
                 "kind": "linear", "a": line.a, "b": line.b, "n_points": len(ts),
                 "rmse": line.rmse(ts, cx)}))),
            ("fit", ["fit", "--input", c, "--format", "csv", "--axis", "y", "--model", "exp",
                     *cut, "--window", "20"],
             expect_ok(lambda out: checks.check_key_values(out, {
                 "kind": "exp", "a": logline.a, "b": logline.b, "n_points": 20,
                 "rmse": logline.rmse(ts[win], cy[win])}))),
            ("predict", ["predict", "--input", j, "--model", "sinexp", *cut,
                         "--horizon", str(HORIZON), "--region", region_arg],
             lambda code, out, err: checks.check_predict_line(out, code, target, px, py, region)),
            ("compare", ["compare", "--input", j, *cut],
             expect_ok(lambda out: checks.check_compare_csv(out, rows))),
            ("compare", ["compare", "--input", c, "--format", "csv", *cut, "--table", "text"],
             expect_ok(lambda out: checks.check_compare_text(out, rows))),
            ("plot", ["plot", "--input", j, "--model", "sinexp", *cut, "--out", str(self.svg)],
             expect_ok(lambda out: checks.check_svg(self.svg.read_text(encoding="utf-8"),
                                                    seen))),
        ]
        self.hostile = []
        for name, data in inputs.HOSTILE.items():
            path = workdir / f"hostile_{name}.jsonl"
            path.write_bytes(data)
            self.hostile.append((name, ["fit", "--input", str(path), "--axis", "x",
                                        "--model", "linear"]))
        self.hostile_seen: dict[str, str] = {}

    def call(self, argv, tracer) -> tuple[int, str, str, float]:
        start = perf_counter()
        with tracer.span(f"cli.main.{argv[0]}"):
            code, out, err = _in_process(argv)
        return code, out, err, perf_counter() - start

    def run_pass(self, ledger: Ledger, tracer, record, counted: bool = True) -> None:
        """The seven normal calls once, outputs checked; ``counted`` False
        leaves them out of the operation counts."""
        for i, (cmd, argv, check) in enumerate(self.calls):
            code, out, err, elapsed = self.call(argv, tracer)
            record(f"call{i}.{cmd}", elapsed)
            if counted:
                ledger.op(code in (0, 3))
            ledger.check(f"{cmd} {' '.join(argv[1:3])}", check(code, out, err))

    def run_hostile(self, ledger: Ledger, tracer, record) -> None:
        for name, argv in self.hostile:
            code, _, err, elapsed = self.call(argv, tracer)
            record(f"hostile.{name}", elapsed)
            lines = err.strip().splitlines()
            ok = code == 2 and len(lines) == 1 and lines[0].startswith("error:")
            ledger.op(ok, HOSTILE_FAULT)
            if not ok:
                self.hostile_seen[name] = f"exit {code}, {lines[-1] if lines else 'no stderr'}"


class CliPaper:
    """The calls go to ``cli.main`` in-process: argument parsing, reading the
    input, the computation and the printed or written output. Interpreter
    start and ``import trackcast.cli`` are ``setup_s``, taken in fresh
    interpreters with the CLI's flags. Timed as ``python -m trackcast``
    subprocesses, the mix read about 70 ms a call in some runs and about
    95 ms in others, for whole runs at a time; process start-up on the
    shared host moved that much, and the quartiles of ten runs spread wider
    than any bound a regression check could use."""

    name = "cli_paper"

    def __init__(self, seed: int, workdir: Path, traced_form: bool):
        self.mix = CliMix(random.Random(seed), workdir)

    def round(self, ledger: Ledger, tracer, record) -> None:
        for _ in range(CLI_REPEATS):
            self.mix.run_pass(ledger, tracer, record)
        self.mix.run_hostile(ledger, tracer, record)

    def finish(self, ledger: Ledger) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def op_s(self, samples, cost, rounds: int) -> float:
        """The median call of the mix, each call at its fastest."""
        return median([min(ts) for ts in samples.values() for _ in range(len(ts) // rounds)])

    def report(self, samples: dict[str, list[float]], cost: dict[str, float]) -> list[str]:
        calls = [t for name, ts in samples.items() for t in ts]
        lines = [f"cli_call_ms {median(calls) * 1e3:.3f} ms "
                 f"(median of {len(calls)} calls)"]
        t = harness.tail(calls)
        if t is not None:
            lines.append(f"cli_call_ms_p{t[0]} {t[1] * 1e3:.3f} ms "
                         f"(at least 10 of {len(calls)} calls beyond it)")
        return lines

    def fault_text(self) -> dict[str, str]:
        seen = "; ".join(f"{k}: {v}" for k, v in sorted(self.mix.hostile_seen.items()))
        return {HOSTILE_FAULT: "a non-UTF-8 file and JSON integers too large for a float "
                               "in 'left' and in 'frame' should exit 2 with one error: "
                               f"line; seen {seen}"}


# ---- stream_ingest, stream_rolling -----------------------------------------

STREAM_FRAMES = 100_000
ROLLING_CUTOFFS = 250
ROLLING_WINDOW = 32


class _Stream:
    """The set-up the stream workloads share: one generated 1e5-frame
    stream with decoys and ties, written as JSONL and CSV. Each workload times
    one part of what a tracker does with it, so that each part is that
    workload's whole round. The traced form appends one in-process pass of the
    paper-scale CLI calls (not counted as operations), so that every layer
    does work."""

    def __init__(self, seed: int, workdir: Path, traced_form: bool):
        rng = random.Random(seed)
        self.stream = inputs.write_stream(rng, STREAM_FRAMES, workdir, "stream")
        self.mix = CliMix(rng, workdir) if traced_form else None
        self.first = None
        self.problems: list[str] = []

    def _series(self):
        """The series of the whole stream, by the program's ingest of the CSV
        file, untimed; checked against the planted boxes in ``finish``."""
        records = ingest.parse_detections(self.stream.csv.read_text(encoding="utf-8"),
                                          StreamFormat.CSV)
        selected = ingest.select_per_frame(records)
        xs, ys = ingest.build_series([ingest.to_observation(r) for r in selected])
        self.problems = _check_ingest(self.stream, records, selected, xs.samples, ys.samples)
        return xs, ys

    def _end_round(self, ledger: Ledger, tracer, outputs) -> None:
        if self.mix is not None:
            self.mix.run_pass(ledger, tracer, lambda name, t: None, counted=False)
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            ledger.check("determinism", ["a later round's outputs differ from the first"])

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def fault_text(self) -> dict[str, str]:
        return {}


class StreamIngest(_Stream):
    """Ingest of the whole stream, JSONL then CSV. ``parse_detections``,
    ``select_per_frame``, ``to_observation`` and ``build_series`` run one
    1000-frame segment at a time (no frame spans two segments), so that each
    step is timed as many short samples under one name per format; every
    record stays in memory, as in a whole-file ingest. An operation is one
    format's ingest; ``op_ms`` is the JSONL ingest of one segment."""

    name = "stream_ingest"

    def __init__(self, seed: int, workdir: Path, traced_form: bool):
        super().__init__(seed, workdir, traced_form)
        s = self.stream
        self.pieces = {fmt: _segments(path, s.segment_starts, fmt)
                       for fmt, path in ((StreamFormat.JSONL, s.jsonl),
                                         (StreamFormat.CSV, s.csv))}

    def _ingest(self, fmt: StreamFormat, tracer, record, ledger: Ledger):
        f = fmt.value
        records, selected, x_samples, y_samples = [], [], [], []
        to_observation = ingest.to_observation
        for piece in self.pieces[fmt]:
            start = perf_counter()
            segment = ingest.parse_detections(piece, fmt)
            record(f"ingest.{f}.parse", perf_counter() - start)
            start = perf_counter()
            kept = ingest.select_per_frame(segment)
            record(f"ingest.{f}.select", perf_counter() - start)
            start = perf_counter()
            with tracer.span("ingest.to_observation"):
                observations = [to_observation(r) for r in kept]
            record(f"ingest.{f}.to_observation", perf_counter() - start)
            start = perf_counter()
            xs, ys = ingest.build_series(observations)
            record(f"ingest.{f}.build_series", perf_counter() - start)
            records.extend(segment)  # kept, as a whole-file ingest holds every record
            selected.extend(kept)
            x_samples.extend(xs.samples)
            y_samples.extend(ys.samples)
        ledger.op(True)
        if self.first is None:
            ledger.check(f"ingest {f}",
                         _check_ingest(self.stream, records, selected, x_samples, y_samples))
        return x_samples, y_samples

    def round(self, ledger: Ledger, tracer, record) -> None:
        series = [self._ingest(fmt, tracer, record, ledger)
                  for fmt in (StreamFormat.JSONL, StreamFormat.CSV)]
        if series[0] != series[1]:
            ledger.check("ingest", ["CSV and JSONL give different series"])
        self._end_round(ledger, tracer, series[0])

    def finish(self, ledger: Ledger) -> None:
        pass

    def op_s(self, samples, cost, rounds: int) -> float:
        jsonl = sum(t for name, t in cost.items() if name.startswith("ingest.jsonl."))
        return jsonl / len(self.stream.segment_starts)

    def report(self, samples: dict[str, list[float]], cost: dict[str, float]) -> list[str]:
        n = self.stream.n_records

        def ingest_s(f):
            return sum(t for name, t in cost.items() if name.startswith(f"ingest.{f}."))

        return [f"ingest_jsonl_records_per_s {n / ingest_s('jsonl'):.1f} records/s",
                f"ingest_csv_records_per_s {n / ingest_s('csv'):.1f} records/s"]


class StreamRolling(_Stream):
    """A live tracker's replay of the end of the stream: at each of the last
    250 cutoffs, ``predict_endpoint`` with ``sinexp``,
    ``WindowConfig(length=32, horizon=60)`` and a region gate. Every
    prediction does the same work (a window over the whole history, a
    32-sample fit), so all share one name. An operation is a prediction."""

    name = "stream_rolling"

    def __init__(self, seed: int, workdir: Path, traced_form: bool):
        super().__init__(seed, workdir, traced_form)
        s = self.stream
        self.xs, self.ys = self._series()
        self.rolling = [float(c) for c in range(s.n_frames - ROLLING_CUTOFFS, s.n_frames)]
        # The x bound sits on the true path halfway through the replay's
        # targets, so the gate answers both ways.
        tx, ty = s.true_point(self.rolling[len(self.rolling) // 2] + HORIZON)
        self.region_box = (0.0, 0.0, round(tx, 3), round(ty * 1.2, 3))
        x0, y0, x1, y1 = self.region_box
        self.region = Region(x_min=x0, x_max=x1, y_min=y0, y_max=y1)
        self.config = WindowConfig(length=ROLLING_WINDOW, horizon=HORIZON)

    def round(self, ledger: Ledger, tracer, record) -> None:
        points = []
        for cutoff in self.rolling:
            start = perf_counter()
            try:
                point = trajectory.predict_endpoint(self.xs, self.ys, SIN_EXPONENTIAL,
                                                    self.config, cutoff, self.region)
            except Exception as exc:  # counted as a failed operation, then reported
                point = repr(exc)
            record("predict", perf_counter() - start)
            ledger.op(not isinstance(point, str), "rolling prediction raised")
            points.append(point)
        self._end_round(ledger, tracer, points)

    def finish(self, ledger: Ledger) -> None:
        """Reference checks of the first round, after the measurement."""
        ledger.check("ingest csv", self.problems)
        s = self.stream
        ts = [float(t) for t in range(s.n_frames)]
        vx, vy = (list(v) for v in zip(*(s.center(t) for t in range(s.n_frames))))
        for cutoff, point in zip(self.rolling, self.first):
            if isinstance(point, str):
                continue
            lo, hi = int(cutoff) + 1 - ROLLING_WINDOW, int(cutoff) + 1
            rx = checks.fit("sinexp", ts[lo:hi], vx[lo:hi]).at(cutoff + HORIZON)
            ry = checks.fit("sinexp", ts[lo:hi], vy[lo:hi]).at(cutoff + HORIZON)
            problems = []
            if point.t_target != cutoff + HORIZON or not checks.close(point.x, rx) \
                    or not checks.close(point.y, ry):
                problems.append(f"predicted ({point.x!r}, {point.y!r}), "
                                f"reference ({rx!r}, {ry!r})")
            if point.defect != checks.outside(point.x, point.y, self.region_box):
                problems.append(f"verdict {point.defect} disagrees with the gate definition")
            ledger.check(f"rolling cutoff {cutoff:.0f}", problems)

    def op_s(self, samples, cost, rounds: int) -> float:
        return cost["predict"] / ROLLING_CUTOFFS

    def report(self, samples: dict[str, list[float]], cost: dict[str, float]) -> list[str]:
        return [f"rolling_pred_per_s {ROLLING_CUTOFFS / cost['predict']:.2f} predictions/s"]


def _check_ingest(s: inputs.Stream, records, selected, x_samples, y_samples) -> list[str]:
    """Every record parsed; every frame keeps the box planted as its best, and
    the series are that box's centers."""
    if len(records) != s.n_records:
        return [f"parsed {len(records)} records, the stream holds {s.n_records}"]
    if len(selected) != s.n_frames:
        return [f"dedup kept {len(selected)} frames, expected {s.n_frames}"]
    for t, r in enumerate(selected):
        planted = (t, s.left[t], s.top[t], s.width[t], s.height[t], s.confidence[t])
        if (r.frame_index, r.left, r.top, r.width, r.height, r.confidence) != planted:
            return [f"frame {t} kept {r}, the planted best is {planted}"]
        cx, cy = s.center(t)
        (xt, xv), (yt, yv) = x_samples[t], y_samples[t]
        if xt != t or yt != t or not checks.close(xv, cx) or not checks.close(yv, cy):
            return [f"frame {t} series point ({xv}, {yv}), box center ({cx}, {cy})"]
    return []


def _segments(path: Path, starts: list[int], fmt: StreamFormat) -> list[str]:
    """The stream's text cut at segment starts; each CSV piece keeps the header."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = ""
    if fmt is StreamFormat.CSV:
        header, lines = lines[0], lines[1:]
    bounds = [*starts, len(lines)]
    return [header + "".join(lines[a:b]) for a, b in zip(bounds, bounds[1:])]


# ---- batch_paper -----------------------------------------------------------

BATCH_SPECS = 3000
BATCH_CHUNK = 10
BATCH_KINDS = (*DEFAULT_KINDS, LINEAR, polynomial(5))
POLY_CHECK_EVERY = 25  # exact polynomial references on every 25th spec
POLY5_FAULT = "poly5 unavailable"


class BatchPaper:
    """``batch_compare`` over chunks of 10 specs, without ``parallel``. Every
    chunk holds 5 specs of each variant drawn from the same ranges, so the
    chunks share one name. The traced form adds one in-process pass of the
    paper-scale CLI calls (not counted as operations)."""

    name = "batch_paper"

    def __init__(self, seed: int, workdir: Path, traced_form: bool):
        rng = random.Random(seed)
        self.gen = [inputs.paper_spec(rng, sin_variant=i % 2 == 1) for i in range(BATCH_SPECS)]
        self.specs = [
            SyntheticSpec(a_x=g.a_x, b_x=g.b_x, a_y=g.a_y, b_y=g.b_y,
                          variant=Variant.SIN_EXPONENTIAL if g.sin_variant
                          else Variant.PURE_EXPONENTIAL,
                          n_frames=g.n_frames, noise_sigma=g.noise_sigma,
                          shake_prob=g.shake_prob, shake_scale=g.shake_scale, seed=g.seed)
            for g in self.gen]
        self.mix = CliMix(rng, workdir) if traced_form else None
        self.config = WindowConfig(horizon=HORIZON)
        self.first: list | None = None
        self.poly5_reason = ""

    def round(self, ledger: Ledger, tracer, record) -> None:
        results = []
        for i in range(0, len(self.specs), BATCH_CHUNK):
            chunk = self.specs[i:i + BATCH_CHUNK]
            start = perf_counter()
            results.extend(evaluation.batch_compare(chunk, BATCH_KINDS, float(PAPER_CUTOFF),
                                                    self.config))
            record("chunk", perf_counter() - start)
        for reports in results:
            for r in reports:
                fault = POLY5_FAULT if r.kind.label == "poly5" else f"{r.kind.label} unavailable"
                ledger.op(r.predicted is not None, fault)
                if r.kind.label == "poly5" and r.failure:
                    self.poly5_reason = r.failure
        if self.mix is not None:
            self.mix.run_pass(ledger, tracer, lambda name, t: None, counted=False)
        if self.first is None:
            self.first = results
        elif results != self.first:
            ledger.check("determinism", ["a later round's reports differ from the first"])

    def finish(self, ledger: Ledger) -> None:
        target = float(PAPER_CUTOFF + HORIZON)
        seen = PAPER_CUTOFF + 1
        ts = [float(t) for t in range(seen)]
        for i, (gen, spec, reports) in enumerate(zip(self.gen, self.specs, self.first)):
            rx, ry = inputs.reference_synthesize(gen)
            exact = i % POLY_CHECK_EVERY == 0
            if exact:
                xs, ys = evaluation.synthesize(spec)
                if not (all(checks.close(v, r) for (_, v), r in zip(xs.samples, rx)) and
                        all(checks.close(v, r) for (_, v), r in zip(ys.samples, ry))):
                    ledger.check(f"synthesize spec {i}", ["series differ from the reference"])
            rows = []
            for kind in BATCH_KINDS:
                label = kind.label
                if label.startswith("poly") and not exact:
                    rows.append(None)
                    continue
                rows.append({"label": label, "t_target": target,
                             "actual": (rx[int(target)], ry[int(target)]),
                             "pred": (checks.fit(label, ts, rx[:seen]).at(target),
                                      checks.fit(label, ts, ry[:seen]).at(target))})
            ledger.check(f"spec {i}", _check_reports(reports, rows))

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def op_s(self, samples, cost, rounds: int) -> float:
        return cost["chunk"] / BATCH_SPECS  # per trajectory

    def report(self, samples: dict[str, list[float]], cost: dict[str, float]) -> list[str]:
        return [f"batch_traj_per_s {BATCH_SPECS / sum(cost.values()):.1f} trajectories/s"]

    def fault_text(self) -> dict[str, str]:
        return {POLY5_FAULT: "poly5 rows come back unavailable on every 31-sample window: "
                             f"{self.poly5_reason or 'none seen'}"}


def _check_reports(reports, rows) -> list[str]:
    """Compare ErrorReports with reference rows (None: row not checked).

    Unavailable rows are failed operations, counted elsewhere; an available
    row must match the reference, and its error rates their definition."""
    if len(reports) != len(rows):
        return [f"{len(reports)} rows, expected {len(rows)}"]
    problems = []
    for r, row in zip(reports, rows):
        if row is None or r.predicted is None:
            continue
        if r.kind.label != row["label"] or r.t_target != row["t_target"]:
            problems.append(f"row {r.kind.label} at {r.t_target}, expected {row['label']}")
            continue
        if not all(checks.close(a, b) for a, b in zip(r.actual, row["actual"])):
            problems.append(f"{row['label']} truth {r.actual}, reference {row['actual']}")
        if not all(checks.close(a, b) for a, b in zip(r.predicted, row["pred"])):
            problems.append(f"{row['label']} predicted {r.predicted}, reference {row['pred']}")
        errs = (checks.error_rate(r.predicted[0], r.actual[0]),
                checks.error_rate(r.predicted[1], r.actual[1]))
        if not (checks.close(r.err_x_pct, errs[0]) and checks.close(r.err_y_pct, errs[1])):
            problems.append(f"{row['label']} error rates ({r.err_x_pct}, {r.err_y_pct}), "
                            f"definition gives {errs}")
    return problems


WORKLOADS = {w.name: w for w in (CliPaper, StreamIngest, StreamRolling, BatchPaper)}
