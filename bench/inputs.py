"""Seeded input generators for the three workloads.

Everything here depends only on the workload seed. The program under test
never sees the generator: it receives the files and spec objects built
here, and the checks compare its outputs with the planted values.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path

LABEL = "rebar_endpoint"
CSV_HEADER = "frame,left,top,width,height,confidence,label"

# Per 1000 frames of a recorded stream: frames that carry two lower-confidence
# decoy boxes, frames with a box tied on confidence (larger left), and frames
# tied on confidence and left (larger top). Fixed counts keep the record count,
# and so the parse cost, the same for every seed.
DECOY_FRAMES_PER_1000 = 100
TIE_LEFT_PER_1000 = 20
TIE_TOP_PER_1000 = 10

# Frames per segment: the benchmark parses a long stream one segment at a time.
SEGMENT_FRAMES = 1000

# Paper-scale CLI and batch settings.
PAPER_FRAMES = 100
PAPER_CUTOFF = 30
HORIZON = 60


@dataclass
class Stream:
    """A recorded detection stream and the box planted as best per frame."""

    n_frames: int
    n_records: int
    jsonl: Path
    csv: Path
    # index of the first record of every SEGMENT_FRAMES-frame segment
    segment_starts: list[int]
    # planted best box per frame, indexed by frame number
    left: array
    top: array
    width: array
    height: array
    confidence: array
    # generator parameters, for choosing a gate region
    a_x: float
    b_x: float
    a_y: float
    b_y: float

    def center(self, frame: int) -> tuple[float, float]:
        return (self.left[frame] + self.width[frame] / 2.0,
                self.top[frame] + self.height[frame] / 2.0)

    def true_point(self, t: float) -> tuple[float, float]:
        return math.exp(self.a_x * t + self.b_x), math.exp(self.a_y * t + self.b_y)


def _m3(value: float) -> float:
    return round(value, 3)


def write_stream(rng: random.Random, n_frames: int, directory: Path, stem: str) -> Stream:
    """Write one exponential-growth trajectory as JSONL and CSV.

    Centers follow exp(a*t + b) with 1% log-normal noise; coordinates carry
    three decimals so the files hold exactly the values planted here.
    """
    a_x = rng.uniform(0.8, 1.2) / n_frames
    a_y = rng.uniform(0.6, 1.0) / n_frames
    b_x = math.log(rng.uniform(90.0, 110.0))
    b_y = math.log(rng.uniform(70.0, 90.0))
    decoys = set(rng.sample(range(n_frames), n_frames * DECOY_FRAMES_PER_1000 // 1000))
    tie_left = set(rng.sample(range(n_frames), n_frames * TIE_LEFT_PER_1000 // 1000))
    tie_top = set(rng.sample(range(n_frames), n_frames * TIE_TOP_PER_1000 // 1000))
    cols = {name: array("d") for name in ("left", "top", "width", "height", "confidence")}
    jsonl = directory / f"{stem}.jsonl"
    csv = directory / f"{stem}.csv"
    n_records = 0
    segment_starts = []
    with open(jsonl, "w", encoding="utf-8", newline="") as jf, \
            open(csv, "w", encoding="utf-8", newline="") as cf:
        cf.write(CSV_HEADER + "\n")
        for t in range(n_frames):
            if t % SEGMENT_FRAMES == 0:
                segment_starts.append(n_records)
            cx = math.exp(a_x * t + b_x) * math.exp(0.01 * rng.gauss(0.0, 1.0))
            cy = math.exp(a_y * t + b_y) * math.exp(0.01 * rng.gauss(0.0, 1.0))
            w = _m3(rng.uniform(8.0, 16.0))
            h = _m3(rng.uniform(8.0, 16.0))
            conf = _m3(rng.uniform(0.6, 0.99))
            best = (_m3(cx - w / 2.0), _m3(cy - h / 2.0), w, h, conf)
            boxes = [best]
            if t in decoys:
                for _ in range(2):
                    boxes.append((_m3(cx + rng.uniform(-50.0, 50.0) - w / 2.0),
                                  _m3(cy + rng.uniform(-50.0, 50.0) - h / 2.0),
                                  _m3(rng.uniform(8.0, 16.0)), _m3(rng.uniform(8.0, 16.0)),
                                  _m3(rng.uniform(0.05, conf - 0.01))))
            if t in tie_left:
                boxes.append((_m3(best[0] + rng.uniform(0.5, 20.0)),
                              _m3(best[1] + rng.uniform(-20.0, 20.0)), w, h, conf))
            if t in tie_top:
                boxes.append((best[0], _m3(best[1] + rng.uniform(0.5, 20.0)), w, h, conf))
            rng.shuffle(boxes)
            for left, top, bw, bh, c in boxes:
                jf.write(f'{{"frame": {t}, "left": {left:.3f}, "top": {top:.3f}, '
                         f'"width": {bw:.3f}, "height": {bh:.3f}, "confidence": {c:.3f}, '
                         f'"label": "{LABEL}"}}\n')
                cf.write(f"{t},{left:.3f},{top:.3f},{bw:.3f},{bh:.3f},{c:.3f},{LABEL}\n")
            n_records += len(boxes)
            for name, value in zip(cols, best):
                cols[name].append(value)
    return Stream(n_frames, n_records, jsonl, csv, segment_starts,
                  a_x=a_x, b_x=b_x, a_y=a_y, b_y=b_y, **cols)


# Hostile inputs for the CLI. They do not depend on the seed: each one must
# be refused with exit 2 and a single "error:" line.
HOSTILE = {
    "non_utf8": b'{"frame": 0, "left": 1.0, "top": 1.0, "width": 4.0, "height": 4.0, '
                b'"label": "\xff\xfe"}\n',
    "huge_left": ('{"frame": 0, "left": 1' + "0" * 400 +
                  ', "top": 1.0, "width": 4.0, "height": 4.0}\n').encode(),
    "huge_frame": ('{"frame": 1' + "0" * 400 +
                   ', "left": 1.0, "top": 1.0, "width": 4.0, "height": 4.0}\n').encode(),
}


@dataclass(frozen=True)
class GenSpec:
    """The parameters of one synthetic trajectory, as the benchmark sees them."""

    a_x: float
    b_x: float
    a_y: float
    b_y: float
    sin_variant: bool
    n_frames: int
    noise_sigma: float
    shake_prob: float
    shake_scale: float
    seed: int

    def spec_text(self) -> str:
        variant = "sin_exponential" if self.sin_variant else "pure_exponential"
        return (f"a_x = {self.a_x!r}\nb_x = {self.b_x!r}\na_y = {self.a_y!r}\n"
                f"b_y = {self.b_y!r}\nvariant = {variant}\nn_frames = {self.n_frames}\n"
                f"noise_sigma = {self.noise_sigma!r}\nshake_prob = {self.shake_prob!r}\n"
                f"shake_scale = {self.shake_scale!r}\nseed = {self.seed}\n")


def paper_spec(rng: random.Random, sin_variant: bool) -> GenSpec:
    """A noisy, shaken 100-frame trajectory whose values stay positive."""
    return GenSpec(
        a_x=rng.uniform(0.005, 0.03), b_x=rng.uniform(3.0, 5.0),
        a_y=rng.uniform(0.005, 0.03), b_y=rng.uniform(3.0, 5.0),
        sin_variant=sin_variant, n_frames=PAPER_FRAMES,
        noise_sigma=rng.uniform(0.005, 0.03), shake_prob=rng.uniform(0.02, 0.1),
        shake_scale=rng.uniform(0.5, 2.0), seed=rng.getrandbits(32),
    )


def reference_synthesize(spec: GenSpec) -> tuple[list[float], list[float]]:
    """The documented generator, written apart from the program.

    Axis X draws from a Mersenne Twister seeded 2*seed and Y from one seeded
    2*seed+1. Each frame takes four uniforms per axis: two for a Box-Muller
    normal deviate, one for the shake decision, one for the shake offset.
    """
    axes = []
    for a, b, stream_seed in ((spec.a_x, spec.b_x, 2 * spec.seed),
                              (spec.a_y, spec.b_y, 2 * spec.seed + 1)):
        rng = random.Random(stream_seed)
        shift = math.sin(a) if spec.sin_variant else 0.0
        values = []
        for t in range(spec.n_frames):
            u1, u2 = 1.0 - rng.random(), rng.random()
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            decision, offset = rng.random(), spec.shake_scale * (2.0 * rng.random() - 1.0)
            v = (math.exp(a * t + b) + shift) * math.exp(spec.noise_sigma * z)
            values.append(v + offset if decision < spec.shake_prob else v)
        axes.append(values)
    return axes[0], axes[1]
