"""Minimal static SVG line charts, emitted as plain text.

Output is deterministic for fixed input, so charts diff like any other text
artifact. No drawing dependencies; the chart is assembled from a handful of
SVG primitives.
"""
from __future__ import annotations

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd")
WIDTH, HEIGHT = 720, 480


def render_line_chart(series, xlabel: str, ylabel: str, title: str) -> str:
    """Render ``series`` (label, xs, ys triples) as a standalone SVG string."""
    data = [
        (label, [float(v) for v in xs], [float(v) for v in ys])
        for label, xs, ys in series
    ]
    if not data or any(not xs or len(xs) != len(ys) for _, xs, ys in data):
        raise ValueError("each series needs matching, nonempty xs and ys")
    xmin = min(min(xs) for _, xs, _ in data)
    xmax = max(max(xs) for _, xs, _ in data)
    ymin = min(min(ys) for _, _, ys in data)
    ymax = max(max(ys) for _, _, ys in data)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.04 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    left, right, top, bottom = 72.0, 24.0, 48.0, 56.0
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    def px(x: float) -> float:
        return left + (x - xmin) / (xmax - xmin) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - ymin) / (ymax - ymin) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="22" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
    ]
    x_axis_y = top + plot_h
    parts.append(
        f'<line x1="{left:.2f}" y1="{x_axis_y:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{x_axis_y:.2f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{x_axis_y:.2f}" stroke="black"/>'
    )
    for i in range(5):
        tx = xmin + i * (xmax - xmin) / 4
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{x_axis_y:.2f}" x2="{px(tx):.2f}" '
            f'y2="{x_axis_y + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{x_axis_y + 20:.2f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{format(tx, "g")}</text>'
        )
        ty = ymin + i * (ymax - ymin) / 4
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{py(ty):.2f}" x2="{left:.2f}" '
            f'y2="{py(ty):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{format(ty, "g")}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{HEIGHT - 12:.2f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">{ylabel}</text>'
    )
    for index, (label, xs, ys) in enumerate(data):
        color = PALETTE[index % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        legend_y = top + 16 + 18 * index
        parts.append(
            f'<line x1="{left + 10:.2f}" y1="{legend_y:.2f}" x2="{left + 34:.2f}" '
            f'y2="{legend_y:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + 40:.2f}" y="{legend_y + 4:.2f}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
