"""Deterministic SVG diagrams of card sequences.

The drawing mirrors the usual card pictures: each card is a framed box,
ball tracks run left to right as polylines, and the thrown balls are
written under each card. Identical input and options give
byte-identical output, so diagrams can be diffed and pinned as golden
files.
"""

import json

from jugglecards.cards import (
    _MAX_LEVELS,
    _Value,
    _per_card,
    CardSequence,
    arrangement_history,
    card_permutation,
    crossings,
)

_MARGIN = 20
_GUTTER = 18
_LABEL_STRIP = 20
_MAX_PX = 10**6  # the largest card dimension a render accepts
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


class RenderSpec(_Value):
    """Geometry and label options for :func:`render_svg`.

    ``card_width`` and ``card_height`` size each card's frame in pixels;
    ``level_spacing`` is the vertical gap between adjacent ball tracks,
    which sit centered inside the frame.  A frame is ``card_height``
    tall, or as tall as its tracks need when they span more.  Each
    dimension is a whole number of pixels, at most a million.
    """

    __slots__ = ("card_width", "card_height", "level_spacing", "ball_labels", "thrown_labels")

    def __init__(
        self, card_width: int = 70, card_height: int = 120, level_spacing: int = 24,
        ball_labels: bool = True, thrown_labels: bool = True,
    ):
        super().__init__(card_width, card_height, level_spacing, ball_labels, thrown_labels)
        for field in ("card_width", "card_height", "level_spacing"):
            value = getattr(self, field)
            if not isinstance(value, int):
                raise ValueError(f"{field} must be a whole number of pixels, got {value!r}")
            if value <= 0:
                raise ValueError(f"{field} must be positive")
            if value > _MAX_PX:
                raise ValueError(f"{field} must be at most {_MAX_PX} px, got {value}")


_QUARTERS = ("", ".25", ".5", ".75")


def _fmt(q: int) -> str:
    """A nonnegative coordinate given in quarter pixels, printed exactly.

    Every coordinate is a multiple of 1/4, so it prints as an integer or
    with a ``.25``, ``.5`` or ``.75`` tail.

    >>> _fmt(400), _fmt(185), _fmt(400342)
    ('100', '46.25', '100085.5')
    """
    whole, quarter = divmod(q, 4)
    return f"{whole}{_QUARTERS[quarter]}"


_STYLE = "  <style>\n" + "\n".join([
    "    .frame { fill: none; stroke: #888888; stroke-width: 1; }",
    "    .track { fill: none; stroke-width: 2;"
    " stroke-linecap: round; stroke-linejoin: round; }",
    "    text { font: 12px sans-serif; fill: #222222; }",
    "    .thrown { text-anchor: middle; }",
    *(f"    .ball-{i} {{ stroke: {color}; }}" for i, color in enumerate(_PALETTE, start=1)),
]) + "\n  </style>"


def render_svg(seq: CardSequence, spec: RenderSpec = RenderSpec()) -> str:
    """Render a card sequence as a standalone SVG document.

    The output carries one ``<g>`` element per card and a JSON
    ``<metadata>`` block with the ball count, card string, and total
    crossing number.  A row whose cards times balls pass
    ``jugglecards.cards._MAX_LEVELS`` is refused before any of it is
    walked.
    """
    b, n = seq.b, seq.n
    if n * b > _MAX_LEVELS:  # one polyline per card and ball
        raise ValueError(
            f"renders draw at most {_MAX_LEVELS} tracks (cards times balls), got {n * b}"
        )
    w, s = spec.card_width, spec.level_spacing
    gutter = _GUTTER if spec.ball_labels else 0
    frame_height = max(spec.card_height, (b - 1) * s)
    width = 2 * _MARGIN + 2 * gutter + n * w
    height = 2 * _MARGIN + frame_height
    if spec.thrown_labels:
        height += _LABEL_STRIP

    # coordinates in quarter pixels: the top pad is half a pixel count,
    # and the bends sit a quarter of a card width in from its edges
    top = 4 * _MARGIN + 2 * (frame_height - (b - 1) * s)
    track_q = [top + 4 * (b - level) * s for level in range(1, b + 1)]
    track_y = [_fmt(q) for q in track_q]
    track_class = [f"track ball-{i % len(_PALETTE) + 1}" for i in range(b)]
    # each card's exit y per entry level, built once per distinct card
    exits = _per_card(seq, lambda card: [track_y[t - 1] for t in card_permutation(card)])

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
        _STYLE,
    ]
    text_y = _MARGIN + frame_height + 15
    for i, (card, arrangement, out) in enumerate(zip(seq.cards, history, exits), start=1):
        q0 = 4 * (_MARGIN + gutter + (i - 1) * w)
        q1 = q0 + 4 * w
        x0, bend0, bend1, x1 = _fmt(q0), _fmt(q0 + w), _fmt(q1 - w), _fmt(q1)
        lines.append(f'  <g id="card-{i}">')
        lines.append(
            f'    <rect class="frame" x="{x0}" y="{_MARGIN}"'
            f' width="{w}" height="{frame_height}"/>'
        )
        for ball, y_in, y_out in zip(arrangement, track_y, out):
            lines.append(
                f'    <polyline class="{track_class[ball - 1]}" points="{x0},{y_in}'
                f' {bend0},{y_in} {bend1},{y_out} {x1},{y_out}"/>'
            )
        if spec.thrown_labels:
            label = ",".join(str(ball) for ball in arrangement[: card.m])
            lines.append(
                f'    <text class="thrown" x="{_fmt((q0 + q1) // 2)}"'
                f' y="{text_y}">{label}</text>'
            )
        lines.append("  </g>")
    if spec.ball_labels:
        left = _MARGIN + gutter - 6
        right = _MARGIN + gutter + n * w + 6
        lines.append('  <g id="ball-labels">')
        for q, first, last in zip(track_q, history[0], history[-1]):
            y = _fmt(q + 16)
            lines.append(f'    <text text-anchor="end" x="{left}" y="{y}">{first}</text>')
            lines.append(f'    <text x="{right}" y="{y}">{last}</text>')
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
