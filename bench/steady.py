"""Steadiness of the benchmark: run every workload on seeds 1..runs, in two
sets, and compare each end-to-end metric within and between the sets.

    python3 bench/steady.py [--workload NAME ...] [--runs 10]

Every run lasts ``run_seconds`` of BENCHMARK.json. Each set runs seed 1 of
every workload, then seed 2 of every workload, and so on, so that a slow
period of the host spreads over the workloads instead of landing on one;
the second set takes the workloads in reverse order.

Per set, a metric's spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is steady within a third of its
bound in BENCHMARK.json. Between sets, the second median may be worse than
the first by at most the bound. ``setup_s`` has no spread limit, but its
medians must agree too. The failed share of operations must be identical in
every run. Raw results go to ``bench/.out/steady-<workload>.json``. Exits 1
when any run fails, any check fails, a spread exceeds its bound, the medians
of two sets differ by more than it, or the failed share varies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import harness

RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    print(f"  {workload} seed {seed}: " + ", ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return result


def summarize(workload: str, sets: list[list[dict]], spec: dict) -> bool:
    runs = [r for results in sets for r in results]
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    ok = len(shares) == 1 and all(r["correct"] for r in runs)
    print(f"{workload}: {len(sets)} sets of {len(sets[0])} runs, correct in "
          f"{sum(r['correct'] for r in runs)} of {len(runs)}, failed share "
          f"{', '.join(str(s) for s in sorted(shares))}")
    print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'change':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first = None
        for i, results in enumerate(sets, 1):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdicts = []
            if name != "setup_s":
                if spread <= bound / 3:
                    verdicts.append("steady")
                elif spread <= bound:
                    verdicts.append("spread within bound, not a third of it")
                else:
                    verdicts.append("SPREAD WIDER THAN BOUND")
                    ok = False
            change = ""
            if first is None:
                first = med
            else:
                worse = (med - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                change = f"{worse:+8.2%}"
                if worse > bound:
                    verdicts.append("MEDIAN WORSE THAN SET 1 BY MORE THAN BOUND")
                    ok = False
                else:
                    verdicts.append("medians agree")
            print(f"  {name:<12} {i:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{change:>8} {bound:>6}  {'; '.join(verdicts)}")
    return ok


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[str, list[list[dict]]] = defaultdict(list)
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        order = names if s % 2 == 0 else names[::-1]
        for name in order:
            results[name].append([])
        for seed in range(1, args.runs + 1):
            for name in order:
                results[name][-1].append(run(name, seed, spec["run_seconds"]))
    harness.OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        (harness.OUT / f"steady-{name}.json").write_text(json.dumps(results[name], indent=1))
        ok = summarize(name, results[name], spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
