"""Paths, the pinned environment of the child interpreters behind setup_s,
and statistics."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
PYCACHE = OUT / "pycache"

# -S keeps the surrounding environment's site hooks (.pth files) out of every
# start; the child environment below is built from scratch for the same reason.
CHILD_FLAGS = ("-S",)
CALL_TIMEOUT_S = 60

# Fresh-interpreter start-ups for setup_s and the cli.* layer metrics: a few
# at the start of a run, then one pair per interval between operations.
SETUP_FIRST = 3
SETUP_INTERVAL_S = 1.0


def child_env() -> dict[str, str]:
    """Bytecode caching on, into a prefix the benchmark owns; the tree under
    test first on the path; a fixed hash seed; nothing else inherited but PATH."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(PYCACHE),
        "PYTHONHASHSEED": "0",
    }


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "child_flags": list(CHILD_FLAGS),
        "child_env": {k: v for k, v in child_env().items() if k != "PATH"},
        "bytecode_cache": "on",
        "site_hooks": "off",
    }


def python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *CHILD_FLAGS, *args], cwd=cwd, env=child_env(),
                          capture_output=True, timeout=CALL_TIMEOUT_S)


def _started_to_stamp(code: str, cwd: Path) -> float:
    """Seconds from starting a fresh interpreter to the end of ``code``, which
    prints ``time.monotonic()``; the clock is shared across processes."""
    start = time.monotonic()
    proc = python("-c", f"{code}\nimport time\nprint(time.monotonic())", cwd=cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter start failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout) - start


class SetupSampler:
    """Fresh-interpreter start-ups spread over the whole run: a bare start and
    an ``import trackcast.cli`` start, at most once per SETUP_INTERVAL_S.

    On a shared host, other tenants can slow a virtual CPU by a third or more
    for seconds at a time, so samples taken in one burst all land in the same
    phase; spread over the run, the fastest of them is steadier."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.bare: list[float] = []
        self.imported: list[float] = []
        _started_to_stamp("import trackcast.cli", cwd)  # fills the bytecode cache
        self._last = -math.inf
        for _ in range(SETUP_FIRST):
            self.sample()

    def sample(self) -> None:
        self.bare.append(_started_to_stamp("pass", self.cwd))
        self.imported.append(_started_to_stamp("import trackcast.cli", self.cwd))
        self._last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= SETUP_INTERVAL_S:
            self.sample()


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, or
    None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
