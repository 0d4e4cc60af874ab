"""SVG scatter output: element counts, classes, frame geometry."""

import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from xml.sax.saxutils import escape  # oracle for the text escaping

from mvaudit.data import parse_dataset
from mvaudit.svgplot import _clip_line, render_scatter
from tests.conftest import dataset_of

SVG_NS = "{http://www.w3.org/2000/svg}"


def circles(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{SVG_NS}circle")]


def fit_lines(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "fit"]


def classes_of(svg_text):
    counts = {"green": 0, "red": 0, "dubious": 0}
    for c in circles(svg_text):
        for cls in c.get("class", "").split():
            if cls in counts:
                counts[cls] += 1
    return counts


class TestRenderScatter:
    def test_fixture_point_counts_default(self, dataset):
        counts = classes_of(render_scatter(dataset))
        assert counts["green"] == 106
        assert counts["red"] == 11
        assert counts["dubious"] == 3

    def test_fixture_point_counts_include_dubious(self, dataset):
        counts = classes_of(render_scatter(dataset, include_dubious=True))
        assert counts["green"] == 103
        assert counts["red"] == 14
        assert counts["dubious"] == 3

    def test_no_dubious_class_when_absent(self):
        ds = parse_dataset(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            "1,A,1000,400,200,80,green\n"
            "2,B,1000,500,200,90,red\n"
        )
        svg = render_scatter(ds)
        assert classes_of(svg) == {"green": 1, "red": 1, "dubious": 0}
        assert "dashed outline" not in svg

    def test_points_inside_frame(self, dataset):
        svg = render_scatter(dataset)
        for c in circles(svg):
            assert 70.0 <= float(c.get("cx")) <= 640.0 - 30.0
            assert 50.0 <= float(c.get("cy")) <= 640.0 - 60.0

    def test_display_fit_labelled(self, dataset):
        svg = render_scatter(dataset)
        assert "display fit" in svg
        assert len(fit_lines(svg)) == 1

    def test_no_fit_line_when_ballot_shares_are_equal(self):
        # every accepted district at 40 % of ballot votes: the display fit's
        # x variance is 0, so no line is drawn, though the legend still names it
        svg = render_scatter(dataset_of([
            ("1", "A", 1000, 400, 200, 80, "green"),
            ("2", "B", 500, 200, 100, 70, "green"),
            ("3", "C", 1000, 500, 200, 90, "red"),
        ]))
        assert fit_lines(svg) == []
        assert "display fit" in svg

    def test_fit_line_clipped_at_bottom_and_top(self):
        # accepted points (10 %, 0 %) and (20 %, 100 %): the line y = 10x - 100
        # leaves the box through y = 0 at x = 10 and through y = 100 at x = 20
        svg = render_scatter(dataset_of([
            ("1", "A", 1000, 100, 200, 0, "green"),
            ("2", "B", 1000, 200, 200, 200, "green"),
            ("3", "C", 1000, 500, 200, 90, "red"),
        ]))
        [line] = fit_lines(svg)
        assert (line.get("x1"), line.get("y1"), line.get("x2"), line.get("y2")) == (
            "124.00", "580.00", "178.00", "50.00"
        )

    def test_zero_denominator_districts_skipped(self):
        ds = parse_dataset(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            "1,A,1000,400,200,80,green\n"
            "2,B,1000,500,200,90,green\n"
            "3,C,0,0,200,90,red\n"
        )
        assert classes_of(render_scatter(ds)) == {"green": 2, "red": 0, "dubious": 0}

    def test_svg_declares_version_1_1(self, dataset):
        assert 'version="1.1"' in render_scatter(dataset)

    def test_markup_characters_escaped_like_saxutils(self):
        name, title = """Gross & <Klein> "Ober" 'Unter'""", """Shares & <odds> "a" 'b'"""
        ds = dataset_of(
            (("1", name, 1000, 400, 200, 80, "green"), ("2", "B", 1000, 500, 200, 90, "red"))
        )
        svg = render_scatter(ds, title=title)
        assert f"<title>{escape(name)}</title>" in svg
        assert f">{escape(title)}</text>" in svg
        root = ET.fromstring(svg)
        assert [el.text for el in root.iter(f"{SVG_NS}title")] == [name, "B"]
        assert title in [el.text for el in root.iter(f"{SVG_NS}text")]

    def test_characters_xml_forbids_become_replacement_characters(self):
        # a name may hold control characters, of which XML 1.0 admits only
        # tab, LF and CR; DEL is allowed as it is
        name = "A\x0bB\x01C\x1f\tD\x7f&"
        ds = parse_dataset(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            f"1,{name},1000,400,200,80,green\n"
            "2,B,1000,500,200,90,red\n"
        )
        root = ET.fromstring(render_scatter(ds, title="t\x0c\ufffe"))
        titles = [el.text for el in root.iter(f"{SVG_NS}title")]
        assert titles == ["A\ufffdB\ufffdC\ufffd\tD\x7f&", "B"]
        assert "t\ufffd\ufffd" in [el.text for el in root.iter(f"{SVG_NS}text")]


def box_span(a, b):
    """Exact ends of the x in [0, 100] where 0 <= a + b*x <= 100, or None when there are none.

    The set is an interval whose ends are among x = 0, x = 100 and the two points
    where the line meets y = 0 and y = 100, so the ends are the least and the
    greatest of those candidates that lie in the box, in rational arithmetic.
    """
    a, b = Fraction(a), Fraction(b)
    candidates = [Fraction(0), Fraction(100)] + ([-a / b, (100 - a) / b] if b else [])
    inside = [x for x in candidates if 0 <= x <= 100 and 0 <= a + b * x <= 100]
    return (min(inside), max(inside)) if inside else None


def seeded_lines(n, seed=20161204):
    """(a, b) of y = a + b*x: flat, steep, b = 0 and ±1, through a corner, missing the box."""
    # the bottom and top edges, just above the box, touching only (100, 0) or
    # only (0, 100), the diagonal
    yield from (
        (0.0, 0.0), (100.0, 0.0), (100.0 + 1e-12, 0.0), (-100.0, 1.0), (100.0, 1.0), (0.0, 1.0)
    )
    rng = random.Random(seed)
    for _ in range(n):
        form = rng.randrange(4)
        if form == 0:
            # through a corner; b = ±m * 2**k makes a = cy - b*cx exact, so the
            # line meets the corner exactly and may touch the box only there
            b = rng.choice((0, 1, -1)) * rng.randint(1, 1000) * 2.0 ** rng.randint(-30, 10)
            cx, cy = rng.choice((0, 100)), rng.choice((0, 100))
            yield cy - b * cx, b
            continue
        b = rng.choice((0.0, 1.0, -1.0, rng.choice((1, -1)) * 10 ** rng.uniform(-6, 6)))
        if form == 1:
            yield rng.uniform(-300.0, 400.0) - b * rng.uniform(-300.0, 400.0), b  # often misses
        elif form == 2:
            yield rng.uniform(0.0, 100.0) - b * rng.uniform(0.0, 100.0), b  # through the box
        else:
            yield rng.choice((0.0, 100.0, -1e-12, 100.0 + 1e-12, 50.0, -5.0, 105.0)), b


class TestClipLine:
    # render_scatter's display fit passes through the accepted points' mean,
    # inside the box, so only a direct call reaches the None result
    def test_segment_matches_the_exact_span(self):
        nones = 0
        for a, b in seeded_lines(20_000):
            span, seg = box_span(a, b), _clip_line(a, b)
            if span is None or span[0] == span[1]:
                assert seg is None, (a, b)
                nones += 1
                continue
            assert seg is not None, (a, b)
            x1, y1, x2, y2 = seg
            assert abs(x1 - span[0]) <= 1e-9 and abs(x2 - span[1]) <= 1e-9, (a, b)
            for x, y in (x1, y1), (x2, y2):  # on the line, to rounding in a + b*x
                off_line = Fraction(y) - Fraction(a) - Fraction(b) * Fraction(x)
                assert abs(off_line) <= 1e-9 * (1 + abs(a)), (a, b)
        assert 2_000 < nones < 18_000  # both outcomes are drawn often
