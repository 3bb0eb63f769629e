"""Reference figure: ``batch_compare(parallel=True)`` against the default, on
the batch_paper specs of one seed.

    python3 bench/parallel_ref.py [--seed 1] [--repeats 5]

Alternates which mode runs first, prints each mode's median and fastest
time, and whether both modes returned identical reports.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import harness

sys.path.insert(0, str(harness.SRC))

import workloads  # noqa: E402  (needs the source tree on the path)
from inputs import PAPER_CUTOFF  # noqa: E402
from trackcast import evaluation  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    harness.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT) as workdir:
        batch = workloads.BatchPaper(args.seed, Path(workdir), traced_form=False)
    times: dict[bool, list[float]] = {False: [], True: []}
    reports = {}
    for i in range(args.repeats):
        for parallel in (False, True) if i % 2 == 0 else (True, False):
            start = perf_counter()
            reports[parallel] = evaluation.batch_compare(
                batch.specs, workloads.BATCH_KINDS, float(PAPER_CUTOFF), batch.config,
                parallel=parallel)
            times[parallel].append(perf_counter() - start)
    for parallel, label in ((False, "default"), (True, "parallel=True")):
        print(f"{label:<14} median {median(times[parallel]):.3f} s, fastest "
              f"{min(times[parallel]):.3f} s over {args.repeats} calls on "
              f"{len(batch.specs)} specs")
    print(f"identical reports: {reports[False] == reports[True]}")
    print("environment", harness.environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
