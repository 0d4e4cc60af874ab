"""Static SVG scatter of mail versus ballot vote percentages.

Hand-written SVG 1.1 so the output is dependency-free and element counts are
stable for tests: every data point is one <circle> carrying class "pt green"
or "pt red" for its partition side, with "dubious" appended for the
court-mentioned districts (drawn with a dashed outline).  The straight line
is an unweighted least-squares fit in percentage space, labelled "display
fit" because the pipeline's count-space model does not map to a single line
in these coordinates.
"""

from __future__ import annotations

import re

from .data import ElectionDataset

__all__ = ["render_scatter"]

_W, _H = 640, 640
_ML, _MR, _MT, _MB = 70, 30, 50, 60  # plot frame margins
_GREEN = "#2e7d32"
_RED = "#c62828"


def _escape(text: str) -> str:
    """Text as SVG character data; a character XML 1.0 forbids becomes U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", text)


def _sx(pct: float) -> float:
    return _ML + (_W - _ML - _MR) * pct / 100.0


def _sy(pct: float) -> float:
    return _H - _MB - (_H - _MT - _MB) * pct / 100.0


def _display_fit(points: list[tuple[float, float]]) -> tuple[float, float] | None:
    """Unweighted OLS line y = a + b*x through percentage-space points."""
    n = len(points)
    if n < 2:
        return None
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in points)
    b = sxy / sxx
    return my - b * mx, b


def _clip_line(a: float, b: float) -> tuple[float, float, float, float] | None:
    """Ends (x1, y1, x2, y2) of y = a + b*x where 0 <= x, y <= 100, or None if not a segment."""
    if b == 0.0:
        return (0.0, a, 100.0, a) if 0.0 <= a <= 100.0 else None
    x1, x2 = -a / b, (100.0 - a) / b  # where the line meets y = 0 and y = 100
    x1, x2 = max(0.0, min(x1, x2)), min(100.0, max(x1, x2))
    return (x1, a + b * x1, x2, a + b * x2) if x1 < x2 else None


def render_scatter(
    ds: ElectionDataset, include_dubious: bool = False, title: str = "Mail vs ballot vote shares"
) -> str:
    """Render the dataset as an SVG document string."""
    green, red = ds.split(include_dubious)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="28" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{_escape(title)}</text>',
    ]
    # frame, grid, ticks
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for v in range(0, 101, 20):
        x, y = _sx(v), _sy(v)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v}</text>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">ballot votes for candidate 1 (%)</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {(_MT + _H - _MB) / 2})">mail votes for candidate 1 (%)</text>'
    )

    def points(side: ElectionDataset) -> list[tuple[float, float, str, str]]:
        """(ballot %, mail %, name, status) of the districts with both kinds of votes."""
        rows = zip(side.ballot_c1, side.ballot_total, side.mail_c1, side.mail_total)
        return [
            (100.0 * (b1 / b), 100.0 * (m1 / m), name, status)
            for (b1, b, m1, m), name, status in zip(rows, side.name, side.status)
            if b and m
        ]

    accepted = points(green)
    line = _display_fit([(x, y) for x, y, _, _ in accepted])
    if line is not None and (seg := _clip_line(*line)) is not None:
        x1, y1, x2, y2 = seg
        parts.append(
            f'<line class="fit" x1="{_sx(x1):.2f}" y1="{_sy(y1):.2f}" '
            f'x2="{_sx(x2):.2f}" y2="{_sy(y2):.2f}" stroke="#555" stroke-width="1.5"/>'
        )

    for side, color, side_cls in ((accepted, _GREEN, "pt green"), (points(red), _RED, "pt red")):
        for x, y, name, status in side:
            cls, extra = side_cls, ""
            if status == "dubious":
                cls += " dubious"
                extra = ' stroke="#000" stroke-width="1.2" stroke-dasharray="2.5,1.5"'
            parts.append(
                f'<circle class="{cls}" cx="{_sx(x):.2f}" cy="{_sy(y):.2f}" '
                f'r="4" fill="{color}" fill-opacity="0.75"{extra}>'
                f"<title>{_escape(name)}</title></circle>"
            )

    # legend (rect swatches so data circles stay countable)
    lx, ly = _ML + 12, _MT + 14
    keys = [(f'fill="{_GREEN}"', "accepted districts"), (f'fill="{_RED}"', "contested districts")]
    if ds.status.count("dubious"):
        dashed = 'fill="none" stroke="#000" stroke-dasharray="2.5,1.5"'
        keys.append((dashed, "dubious (dashed outline)"))
    for i, (swatch, label) in enumerate(keys):
        y = ly + 18 * i
        parts.append(f'<rect x="{lx}" y="{y - 9}" width="11" height="11" {swatch}/>')
        parts.append(
            f'<text x="{lx + 17}" y="{y}" font-family="sans-serif" font-size="12">'
            f"{_escape(label)}</text>"
        )
    y = ly + 18 * len(keys)
    parts.append(
        f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 11}" y2="{y - 4}" stroke="#555" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{lx + 17}" y="{y}" font-family="sans-serif" font-size="12">display fit</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
