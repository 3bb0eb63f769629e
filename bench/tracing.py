"""Spans recorded from outside the program.

The tracer wraps each public function at the module boundary where another
module calls it, under the name as that module binds it (for example
``fit_model`` in ``trackcast.trajectory``). A few intra-module calls are
wrapped the same way because they are the layer metrics' subject:
``window`` and ``fit_axis`` in ``trajectory``, ``fit_linear`` in
``regression`` and ``evaluate``/``synthesize``/``compare`` in
``evaluation``. Nothing inside the package changes; ``uninstall`` restores
every binding.

A span is (name, start, end, parent index); spans stay in memory and are
written out as JSON at the end of the run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _fmt_tag(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt")
    return getattr(fmt, "value", "unknown")


def _kind_tag(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs.get("kind")
    return getattr(kind, "label", "unknown")


# (binding module, attribute, span name, tag of the call or None)
SPANS = [
    ("cli", "parse_detections", "ingest.parse_detections", _fmt_tag),
    ("cli", "select_per_frame", "ingest.select_per_frame", None),
    ("cli", "to_observation", "ingest.to_observation", None),
    ("cli", "build_series", "ingest.build_series", None),
    ("cli", "fit_axis", "trajectory.fit_axis", None),
    ("cli", "window", "trajectory.window", None),
    ("cli", "predict_endpoint", "trajectory.predict_endpoint", None),
    ("cli", "predict", "regression.predict", None),
    ("ingest", "parse_detections", "ingest.parse_detections", _fmt_tag),
    ("ingest", "select_per_frame", "ingest.select_per_frame", None),
    ("ingest", "build_series", "ingest.build_series", None),
    ("trajectory", "window", "trajectory.window", None),
    ("trajectory", "fit_axis", "trajectory.fit_axis", None),
    ("trajectory", "fit_model", "regression.fit_model", _kind_tag),
    ("trajectory", "predict", "regression.predict", None),
    ("trajectory", "predict_endpoint", "trajectory.predict_endpoint", None),
    ("regression", "fit_linear", "regression.fit_linear", None),
    ("evaluation", "predict_endpoint", "trajectory.predict_endpoint", None),
    ("evaluation", "synthesize", "evaluation.synthesize", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "compare", "evaluation.compare", None),
    ("evaluation", "batch_compare", "evaluation.batch_compare", None),
    ("evaluation", "comparison_csv", "evaluation.comparison_csv", None),
    ("evaluation", "comparison_text", "evaluation.comparison_text", None),
    ("svgplot", "render_prediction_svg", "svgplot.render_prediction_svg", None),
]

# Called once per printed number: counted, not spanned.
COUNTED = [("cli", "fixed6"), ("evaluation", "fixed6"), ("svgplot", "fixed6")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []
        self.missing: set[str] = set()  # "module.attr" bindings not found
        self.active = False

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own calls into a layer."""
        if not self.active:
            yield
            return
        idx, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def _wrap(self, fn, name: str, tag):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            full = name if tag is None else f"{name}.{tag(args, kwargs)}"
            idx, parent = self._open(full)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"failures.{full}"] += 1
                raise
            finally:
                self._close(idx, parent, full, start)
            if after is not None:
                after(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        for modname, attr, name, tag in SPANS:
            self._patch(modname, attr, lambda fn, n=name, t=tag: self._wrap(fn, n, t))
        for modname, attr in COUNTED:
            self._patch(modname, attr, lambda fn, a=attr: self._counted(fn, f"numfmt.{a}_calls"))
        self.active = True

    def _patch(self, modname: str, attr: str, make) -> None:
        module = importlib.import_module(f"trackcast.{modname}")
        original = getattr(module, attr, None)
        if original is None:  # reported by the run, which then fails its checks
            self.missing.add(f"{modname}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.active = False

    # -- reading -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, _, _, _), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "counts": self.counts}, handle)


def _after_parse(counts, args, result):
    counts["ingest.records"] += len(result)


def _after_select(counts, args, result):
    counts["ingest.frames"] += len(result)
    counts["ingest.duplicates_dropped"] += len(args[0]) - len(result)


def _after_window(counts, args, result):
    counts["trajectory.samples_scanned"] += len(args[0].samples)
    counts["trajectory.samples_kept"] += len(result.samples)


def _after_evaluate(counts, args, result):
    counts["evaluation.rows"] += 1
    counts["evaluation.rows_unavailable"] += result.predicted is None


_AFTER = {
    "ingest.parse_detections": _after_parse,
    "ingest.select_per_frame": _after_select,
    "trajectory.window": _after_window,
    "evaluation.evaluate": _after_evaluate,
}
