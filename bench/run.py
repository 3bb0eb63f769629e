"""trackcast benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

NAME is one of cli_paper, stream_ingest, stream_rolling and batch_paper.

Runs one workload for about ``--seconds`` seconds on the source tree in
``src/`` next to this directory, checks the program's outputs against
independent references, and prints readable lines followed by one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, taken from spans recorded in a
traced run (written to ``bench/.out/spans-<workload>.json``).
``--workload all`` runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import harness

WORKLOAD_NAMES = ("cli_paper", "stream_ingest", "stream_rolling", "batch_paper")
CLI_COMMANDS = ("simulate", "fit", "predict", "compare", "plot")


def _measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    import workloads
    from tracing import Tracer

    sampler = harness.SetupSampler(workdir)
    workload = workloads.WORKLOADS[name](seed, workdir, traced_form=trace)
    ledger, tracer = workloads.Ledger(), Tracer()
    plain, traced = defaultdict(list), defaultdict(list)

    def recorder(store):
        def record(op: str, seconds: float) -> None:
            store[op].append(seconds)
            sampler.maybe()
        return record

    rounds = 0
    deadline = perf_counter() + seconds
    while True:
        workload.round(ledger, tracer, recorder(plain))
        rounds += 1
        if trace:
            tracer.install()
            try:
                workload.round(ledger, tracer, recorder(traced))
            finally:
                tracer.uninstall()
        if perf_counter() >= deadline:
            break
    cost = _round_cost(plain, rounds)
    end_to_end = {
        "setup_s": min(sampler.imported),
        "op_ms": workload.op_s(plain, cost, rounds) * 1e3,
        "round_s": sum(cost.values()),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    workload.finish(ledger)
    layers = {}
    if trace:
        layers, problems = _layer_metrics(tracer, sampler, rounds, sum(cost.values()),
                                          sum(_round_cost(traced, rounds).values()))
        ledger.check("tracing", problems)
        tracer.write(harness.OUT / f"spans-{name}.json")
    report = workload.report(plain, cost)
    return workload, ledger, end_to_end, layers, sampler, rounds, report


def _round_cost(samples, rounds: int) -> dict[str, float]:
    """Seconds per round spent on each operation name, every call of it
    taken at the name's fastest time in the run."""
    return {op: min(times) * (len(times) // rounds) for op, times in samples.items()}


def _layer_metrics(tracer, sampler, rounds: int, plain_s: float,
                   traced_s: float) -> tuple[dict[str, float], list[str]]:
    """Per traced round: self time of each span name, and the counters; and
    the problems that make them untrustworthy. A binding the tracer could not
    find, or a time metric without a single span, would read 0, which looks
    like a gain; the traced form makes every layer do work, so each is a
    problem."""
    problems = [f"trackcast.{where} is gone; the tracer cannot wrap it"
                for where in tracer.missing]
    bare = min(sampler.bare)
    own = tracer.self_times()
    counts = tracer.counts

    def self_time(span: str) -> float:
        if span not in own:
            problems.append(f"no span {span} in the traced rounds")
        return own.get(span, 0.0) / rounds

    out = {
        "cli.interp_ms": bare * 1e3,
        "cli.import_ms": (min(sampler.imported) - bare) * 1e3,
    }
    for cmd in CLI_COMMANDS:
        durations = tracer.durations(f"cli.main.{cmd}")
        if not durations:
            problems.append(f"no span cli.main.{cmd} in the traced rounds")
        out[f"cli.main_ms.{cmd}"] = median(durations or [0.0]) * 1e3
    for span, metric in (
        ("ingest.parse_detections.jsonl", "ingest.parse_detections_s.jsonl"),
        ("ingest.parse_detections.csv", "ingest.parse_detections_s.csv"),
        ("ingest.select_per_frame", "ingest.select_per_frame_s"),
        ("ingest.to_observation", "ingest.to_observation_s"),
        ("ingest.build_series", "ingest.build_series_s"),
        ("trajectory.window", "trajectory.window_s"),
        ("trajectory.fit_axis", "trajectory.fit_axis_s"),
        ("trajectory.predict_endpoint", "trajectory.predict_endpoint_s"),
        ("regression.fit_linear", "regression.fit_linear_s"),
        ("regression.predict", "regression.predict_s"),
        ("evaluation.synthesize", "evaluation.synthesize_s"),
        ("evaluation.evaluate", "evaluation.evaluate_s"),
        ("evaluation.compare", "evaluation.compare_s"),
        ("evaluation.comparison_csv", "evaluation.comparison_csv_s"),
        ("evaluation.comparison_text", "evaluation.comparison_text_s"),
        ("svgplot.render_prediction_svg", "svgplot.render_prediction_svg_s"),
    ):
        out[metric] = self_time(span)
    for label in ("linear", "exp", "sinexp", "cosexp", "poly2"):
        out[f"regression.fit_model_s.{label}"] = self_time(f"regression.fit_model.{label}")
    for key in ("ingest.records", "ingest.frames", "ingest.duplicates_dropped",
                "trajectory.samples_scanned", "trajectory.samples_kept",
                "evaluation.rows", "evaluation.rows_unavailable", "numfmt.fixed6_calls"):
        out[key] = counts[key] / rounds
    out["trajectory.window_kept_ratio"] = (counts["trajectory.samples_kept"]
                                           / max(1, counts["trajectory.samples_scanned"]))
    out["regression.fit_linear_calls"] = len(tracer.durations("regression.fit_linear")) / rounds
    fit_failures = {k: v for k, v in counts.items()
                    if k.startswith("failures.regression.fit_model.")}
    poly5 = fit_failures.pop("failures.regression.fit_model.poly5", 0)
    out["regression.fit_failures.poly5"] = poly5 / rounds
    out["regression.fit_failures.other"] = sum(fit_failures.values()) / rounds
    out["tracing.overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    return out, problems


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    sys.path.insert(0, str(harness.SRC))
    import trackcast

    if Path(trackcast.__file__).resolve().parent != (harness.SRC / "trackcast").resolve():
        print(f"error: imported trackcast from {trackcast.__file__}, not the tree under test",
              file=sys.stderr)
        return 2
    harness.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=harness.OUT))
    try:
        workload, ledger, end_to_end, layers, sampler, rounds, report = _measure(
            name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("environment " + json.dumps(harness.environment(), sort_keys=True))
    print(f"setup_s {end_to_end['setup_s']:.4f} s (fastest of {len(sampler.imported)} fresh "
          f"interpreters importing trackcast.cli, median "
          f"{median(sampler.imported):.4f} s; bare start fastest "
          f"{min(sampler.bare) * 1e3:.2f} ms)")
    print(f"rounds {rounds}; the figures below take each operation at its fastest")
    for line in report:
        print(line)
    print(f"operations attempted {ledger.attempted} failed {ledger.failed}")
    descriptions = workload.fault_text()
    for fault, count in sorted(ledger.faults.items()):
        print(f"fault {fault}: {count} of {ledger.attempted} operations failed; "
              f"{descriptions.get(fault, 'not a known fault')}")
    for problem in ledger.problems[:20]:
        print(f"check FAILED {problem}")
    print(f"checks {'passed' if not ledger.problems else 'FAILED'} "
          f"({len(ledger.problems)} problems)")

    section = "per_layer" if trace else "end_to_end"
    values = layers if trace else end_to_end
    metrics = {}
    for m in spec[section]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if not trace:
            print(f"metric {m['name']} {value:.6g} {m['unit']}")
    if trace:
        print(f"tracing overhead {layers['tracing.overhead_pct']:.1f}% of an untraced round; "
              f"spans in {harness.OUT / f'spans-{name}.json'}")
    print(json.dumps({"correct": not ledger.problems, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec_path = harness.ROOT / "BENCHMARK.json"
    if not (harness.SRC / "trackcast" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a trackcast checkout; {harness.SRC / 'trackcast'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
