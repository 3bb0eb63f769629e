"""Two-panel SVG rendering of per-axis fits and the horizon prediction.

Output is plain, hand-built SVG so identical inputs produce identical
bytes; no imaging library is involved.
"""

from __future__ import annotations

from collections import namedtuple

from .numfmt import fixed6

WIDTH = 800
PANEL_HEIGHT = 300
MARGIN_LEFT = 70
MARGIN_RIGHT = 25
MARGIN_TOP = 35
MARGIN_BOTTOM = 45
PANEL_GAP = 10

SAMPLE_STYLE = 'class="sample" r="3" fill="#555555"'
CURVE_STYLE = 'class="curve" fill="none" stroke="#1f77b4" stroke-width="1.5"'
PREDICTION_STYLE = 'class="prediction" r="5" fill="none" stroke="#d62728" stroke-width="2"'


# One axis panel: the observed samples and the fitted curve, each as a t
# column and a value column. The curve is not empty, and its last point is
# the prediction, which is drawn as a marker.
Panel = namedtuple("Panel", "title ts values curve_ts curve_values")


def _span(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 if hi > lo else 1.0
    return lo - pad, hi + pad


def _text(x: int, y: int, size: int, body: str, anchor: str = "") -> str:
    """A monospace label at (x, y); ``anchor`` "end" puts its end there."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"{anchor}>'
            f'{body}</text>')


def _panel_svg(panel: Panel, y_offset: int) -> list[str]:
    t_lo, t_hi = _span([*panel.ts, *panel.curve_ts])
    v_lo, v_hi = _span([*panel.values, *panel.curve_values])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = PANEL_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(t: float) -> str:
        return f"{MARGIN_LEFT + (t - t_lo) / (t_hi - t_lo) * plot_w:.2f}"

    def py(v: float) -> str:
        return f"{y_offset + MARGIN_TOP + (v_hi - v) / (v_hi - v_lo) * plot_h:.2f}"

    top = y_offset + MARGIN_TOP
    bottom = y_offset + PANEL_HEIGHT - MARGIN_BOTTOM
    right = WIDTH - MARGIN_RIGHT
    out = [
        f'<g id="panel-{panel.title}">',
        f'<rect x="{MARGIN_LEFT}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999999"/>',
        _text(MARGIN_LEFT, top - 10, 14, f"{panel.title} vs t"),
        # min/max tick labels on both axes
        _text(MARGIN_LEFT, bottom + 18, 10, fixed6(t_lo)),
        _text(right, bottom + 18, 10, fixed6(t_hi), "end"),
        _text(MARGIN_LEFT - 4, bottom, 10, fixed6(v_lo), "end"),
        _text(MARGIN_LEFT - 4, top + 10, 10, fixed6(v_hi), "end"),
    ]
    points = " ".join(f"{px(t)},{py(v)}" for t, v in zip(panel.curve_ts, panel.curve_values))
    out.append(f'<polyline {CURVE_STYLE} points="{points}"/>')
    for t, v in zip(panel.ts, panel.values):
        out.append(f'<circle {SAMPLE_STYLE} cx="{px(t)}" cy="{py(v)}"/>')
    out.append(f'<circle {PREDICTION_STYLE} cx="{px(panel.curve_ts[-1])}" '
               f'cy="{py(panel.curve_values[-1])}"/>')
    out.append("</g>")
    return out


def render_prediction_svg(x_panel: Panel, y_panel: Panel) -> str:
    """Compose the two panels into one standalone SVG document."""
    height = 2 * PANEL_HEIGHT + PANEL_GAP
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    parts.extend(_panel_svg(x_panel, 0))
    parts.extend(_panel_svg(y_panel, PANEL_HEIGHT + PANEL_GAP))
    parts.append("</svg>")
    return "".join(part + "\n" for part in parts)
