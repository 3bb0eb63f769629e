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


# One axis panel: observed samples, fitted curve, predicted point.
Panel = namedtuple("Panel", "title samples curve prediction")


def _span(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 if hi > lo else 1.0
    return lo - pad, hi + pad


def _panel_svg(panel: Panel, y_offset: int) -> list[str]:
    t_lo, t_hi = _span(
        [t for t, _ in panel.samples] + [t for t, _ in panel.curve] + [panel.prediction[0]]
    )
    v_lo, v_hi = _span(
        [v for _, v in panel.samples] + [v for _, v in panel.curve] + [panel.prediction[1]]
    )
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = PANEL_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(t: float) -> str:
        return f"{MARGIN_LEFT + (t - t_lo) / (t_hi - t_lo) * plot_w:.2f}"

    def py(v: float) -> str:
        return f"{y_offset + MARGIN_TOP + (v_hi - v) / (v_hi - v_lo) * plot_h:.2f}"

    top = y_offset + MARGIN_TOP
    bottom = y_offset + PANEL_HEIGHT - MARGIN_BOTTOM
    right = WIDTH - MARGIN_RIGHT
    out = [f'<g id="panel-{panel.title}">']
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999999"/>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT}" y="{top - 10}" font-family="monospace" '
        f'font-size="14">{panel.title} vs t</text>'
    )
    # min/max tick labels on both axes
    out.append(
        f'<text x="{MARGIN_LEFT}" y="{bottom + 18}" font-family="monospace" '
        f'font-size="10">{fixed6(t_lo)}</text>'
    )
    out.append(
        f'<text x="{right}" y="{bottom + 18}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{fixed6(t_hi)}</text>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT - 4}" y="{bottom}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{fixed6(v_lo)}</text>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT - 4}" y="{top + 10}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{fixed6(v_hi)}</text>'
    )
    if panel.curve:
        points = " ".join(f"{px(t)},{py(v)}" for t, v in panel.curve)
        out.append(f'<polyline {CURVE_STYLE} points="{points}"/>')
    for t, v in panel.samples:
        out.append(f'<circle {SAMPLE_STYLE} cx="{px(t)}" cy="{py(v)}"/>')
    pt, pv = panel.prediction
    out.append(f'<circle {PREDICTION_STYLE} cx="{px(pt)}" cy="{py(pv)}"/>')
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
