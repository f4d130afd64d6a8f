import json
import re
from pathlib import Path

import pytest

from jugglecards import svg
from jugglecards.cards import crossings, parse_sequence, sequence_of
from jugglecards.svg import RenderSpec, render_svg

GOLDEN = Path(__file__).parent / "golden"

RUNNING = parse_sequence("C3 C3 C2 C4 C3 C4 C3 C2 C2", 4)


def thrown_labels(doc: str) -> list[str]:
    return re.findall(r'class="thrown"[^>]*>([^<]*)</text>', doc)


def metadata(doc: str) -> dict:
    return json.loads(re.search(r"<metadata>(.*?)</metadata>", doc).group(1))


# ten balls wrap the palette; a width of 33 puts the bends on quarter
# pixels and a spacing of 13 the tracks on half pixels
WIDE_PALETTE_ROW = (
    "C1 C1,3 C1 C3 C6,4,2 C8 C6,5,7 C6 C4 C6 C5 C9,7,4 C8,7 C2,8 C6,8 C6,8 C2,8"
    " C4 C9 C10 C1,5,8 C2 C7 C2 C9,5 C9,4 C9 C6,2 C5 C3 C6,7,8 C8 C5 C3,2 C8,7,9"
    " C5 C2,5,10 C8 C5 C8"
)
GOLDEN_SPECS = {"wide_palette_row.svg": RenderSpec(card_width=33, level_spacing=13)}


@pytest.mark.parametrize(
    "name, cards, b",
    [
        ("single_card.svg", "C3", 4),
        ("nine_card_row.svg", "C3 C3 C2 C4 C3 C4 C3 C2 C2", 4),
        ("multiplex_row.svg", "C2,4 C2,5 C2,3 C5,4 C5,2 C4,2", 5),
        ("wide_palette_row.svg", WIDE_PALETTE_ROW, 10),
    ],
)
def test_matches_golden_byte_for_byte(name, cards, b):
    doc = render_svg(parse_sequence(cards, b), GOLDEN_SPECS.get(name, RenderSpec()))
    assert doc == (GOLDEN / name).read_text()


def test_rendering_is_deterministic():
    assert render_svg(RUNNING) == render_svg(RUNNING)


def test_nine_card_row_structure():
    doc = render_svg(RUNNING)
    assert doc.count("<g id=\"card-") == 9
    assert thrown_labels(doc) == ["1", "2", "3", "1", "3", "2", "4", "3", "1"]
    assert metadata(doc)["crossings"] == 17


def test_bottom_card_draws_parallel_tracks():
    doc = render_svg(parse_sequence("C1", 4))
    points = re.findall(r'points="([^"]*)"', doc)
    assert len(points) == 4
    for track in points:
        ys = {pair.split(",")[1] for pair in track.split()}
        assert len(ys) == 1, track
    assert metadata(doc)["crossings"] == 0


def test_metadata_reports_the_crossing_number():
    nested = parse_sequence("C3 C5 C1 C5 C2 C5 C2 C5", 5)
    assert metadata(render_svg(nested))["crossings"] == crossings(nested) == 20


def test_label_toggles():
    bare = render_svg(RUNNING, RenderSpec(ball_labels=False, thrown_labels=False))
    assert "ball-labels" not in bare
    assert thrown_labels(bare) == []
    assert bare.count("<g id=\"card-") == 9


def test_spec_scales_geometry():
    wide = render_svg(RUNNING, RenderSpec(card_width=100))
    assert 'width="100"' in wide
    assert wide != render_svg(RUNNING)


def test_spec_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError, match="card_width"):
        RenderSpec(card_width=0)
    with pytest.raises(ValueError, match="level_spacing"):
        RenderSpec(level_spacing=-3)
    with pytest.raises(ValueError, match="card_height must be at most 1000000 px"):
        RenderSpec(card_height=10**6 + 1)
    with pytest.raises(ValueError, match="whole number of pixels"):
        RenderSpec(card_width=33.5)
    assert RenderSpec(card_width=10**6, card_height=10**6, level_spacing=10**6)


def test_coordinates_past_six_digits_print_exactly():
    doc = render_svg(sequence_of(1, *[1] * 1430))
    last = re.findall(r'points="([^"]*)"', doc)[-1]
    assert last.split()[1] == "100085.5,80"
    doc = render_svg(sequence_of(1, *[1] * 15000))
    assert '<rect class="frame" x="1049968" y="20"' in doc
    assert "e+" not in doc


@pytest.mark.parametrize("spacing", [10, 17, 24, 41])
@pytest.mark.parametrize("b", range(1, 13))
def test_tracks_stay_inside_the_frame_and_the_canvas(b, spacing):
    seq = sequence_of(b, b, 1, b)
    doc = render_svg(seq, RenderSpec(level_spacing=spacing))
    view = [float(v) for v in re.search(r'viewBox="([^"]*)"', doc).group(1).split()]
    frame = re.search(r'<rect class="frame" x="[^"]*" y="([^"]*)"[^>]* height="([^"]*)"', doc)
    top, bottom = float(frame.group(1)), float(frame.group(1)) + float(frame.group(2))
    ys = [
        float(pair.split(",")[1])
        for track in re.findall(r'points="([^"]*)"', doc)
        for pair in track.split()
    ]
    assert len(ys) == 4 * b * seq.n
    assert top <= min(ys) and max(ys) <= bottom
    assert view[1] <= min(ys) and max(ys) <= view[1] + view[3]
    assert min(ys) == top if (b - 1) * spacing >= 120 else min(ys) > top
    labels = re.findall(r'class="thrown" x="[^"]*" y="([^"]*)"', doc)
    assert all(bottom < float(y) <= view[1] + view[3] for y in labels)


def test_each_coordinate_is_formatted_once(monkeypatch):
    calls = 0
    fmt = svg._fmt

    def counted(q):
        nonlocal calls
        calls += 1
        return fmt(q)

    monkeypatch.setattr(svg, "_fmt", counted)
    b, n = 8, 400
    render_svg(sequence_of(b, *[(3 * i) % b + 1 for i in range(n)]))
    assert 0 < calls <= 5 * n + 2 * b + 16


def test_a_row_past_a_million_tracks_is_refused_before_it_is_walked(monkeypatch):
    # one polyline per card and ball: n*b past cards._MAX_LEVELS is refused
    # before the row's history is built
    for walk in ("arrangement_history", "_per_card", "crossings"):
        monkeypatch.setattr(svg, walk, lambda *args: pytest.fail("walked the row"))
    seq = sequence_of(1000, *[1] * 1001)
    message = r"^renders draw at most 1000000 tracks \(cards times balls\), got 1001000$"
    with pytest.raises(ValueError, match=message):
        render_svg(seq)


def test_the_track_bound_admits_exactly_cards_times_balls(monkeypatch):
    monkeypatch.setattr(svg, "_MAX_LEVELS", 9 * 4)
    assert render_svg(RUNNING) == (GOLDEN / "nine_card_row.svg").read_text()
    monkeypatch.setattr(svg, "_MAX_LEVELS", 9 * 4 - 1)
    with pytest.raises(ValueError, match="got 36$"):
        render_svg(RUNNING)
