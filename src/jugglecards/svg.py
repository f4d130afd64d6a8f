"""Deterministic SVG diagrams of card sequences.

The drawing mirrors the usual card pictures: each card is a framed box,
ball tracks run left to right as polylines, and the thrown balls are
written under each card. Identical input and options give
byte-identical output, so diagrams can be diffed and pinned as golden
files.
"""

import dataclasses
import json

from jugglecards.cards import (
    CardSequence,
    arrangement_history,
    card_permutation,
    crossings,
)

_MARGIN = 20
_GUTTER = 18
_LABEL_STRIP = 20
_PALETTE = (
    "#4269d0",
    "#efb118",
    "#ff725c",
    "#6cc5b0",
    "#3ca951",
    "#ff8ab7",
    "#a463f2",
    "#97bbf5",
)


@dataclasses.dataclass(frozen=True)
class RenderSpec:
    """Geometry and label options for :func:`render_svg`.

    ``card_width`` and ``card_height`` size each card's frame in pixels;
    ``level_spacing`` is the vertical gap between adjacent ball tracks,
    which sit centered inside the frame.
    """

    card_width: int = 70
    card_height: int = 120
    level_spacing: int = 24
    ball_labels: bool = True
    thrown_labels: bool = True

    def __post_init__(self):
        for field in ("card_width", "card_height", "level_spacing"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")


def _fmt(v) -> str:
    return f"{v:g}"


def _style() -> str:
    rules = [
        "    .frame { fill: none; stroke: #888888; stroke-width: 1; }",
        "    .track { fill: none; stroke-width: 2;"
        " stroke-linecap: round; stroke-linejoin: round; }",
        "    text { font: 12px sans-serif; fill: #222222; }",
        "    .thrown { text-anchor: middle; }",
    ]
    for i, color in enumerate(_PALETTE, start=1):
        rules.append(f"    .ball-{i} {{ stroke: {color}; }}")
    return "  <style>\n" + "\n".join(rules) + "\n  </style>"


def render_svg(seq: CardSequence, spec: RenderSpec = RenderSpec()) -> str:
    """Render a card sequence as a standalone SVG document.

    The output carries one ``<g>`` element per card and a JSON
    ``<metadata>`` block with the ball count, card string, and total
    crossing number.
    """
    b, n = seq.b, seq.n
    gutter = _GUTTER if spec.ball_labels else 0
    width = 2 * _MARGIN + 2 * gutter + n * spec.card_width
    height = 2 * _MARGIN + spec.card_height
    if spec.thrown_labels:
        height += _LABEL_STRIP
    top_pad = (spec.card_height - (b - 1) * spec.level_spacing) / 2

    def track_y(level: int) -> float:
        return _MARGIN + top_pad + (b - level) * spec.level_spacing

    history = arrangement_history(seq)
    meta = {
        "b": b,
        "cards": str(seq),
        "crossings": crossings(seq),
        "n": n,
    }

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f"  <metadata>{json.dumps(meta, sort_keys=True)}</metadata>",
        _style(),
    ]
    for i, card in enumerate(seq.cards, start=1):
        x0 = _MARGIN + gutter + (i - 1) * spec.card_width
        x1 = x0 + spec.card_width
        bend0 = x0 + spec.card_width / 4
        bend1 = x1 - spec.card_width / 4
        perm = card_permutation(card)
        lines.append(f'  <g id="card-{i}">')
        lines.append(
            f'    <rect class="frame" x="{_fmt(x0)}" y="{_MARGIN}"'
            f' width="{spec.card_width}" height="{spec.card_height}"/>'
        )
        for level in range(1, b + 1):
            ball = history[i - 1][level - 1]
            y_in = track_y(level)
            y_out = track_y(perm[level - 1])
            points = (
                f"{_fmt(x0)},{_fmt(y_in)} {_fmt(bend0)},{_fmt(y_in)}"
                f" {_fmt(bend1)},{_fmt(y_out)} {_fmt(x1)},{_fmt(y_out)}"
            )
            color = (ball - 1) % len(_PALETTE) + 1
            lines.append(
                f'    <polyline class="track ball-{color}" points="{points}"/>'
            )
        if spec.thrown_labels:
            label = ",".join(str(ball) for ball in history[i - 1][: card.m])
            y_text = _MARGIN + spec.card_height + 15
            lines.append(
                f'    <text class="thrown" x="{_fmt((x0 + x1) / 2)}"'
                f' y="{y_text}">{label}</text>'
            )
        lines.append("  </g>")
    if spec.ball_labels:
        left = _MARGIN + gutter - 6
        right = _MARGIN + gutter + n * spec.card_width + 6
        lines.append('  <g id="ball-labels">')
        for level in range(1, b + 1):
            y = track_y(level) + 4
            lines.append(
                f'    <text text-anchor="end" x="{left}"'
                f' y="{_fmt(y)}">{history[0][level - 1]}</text>'
            )
            lines.append(
                f'    <text x="{right}" y="{_fmt(y)}">{history[-1][level - 1]}</text>'
            )
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
