"""SVG scatter output: element counts, classes, frame geometry."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape  # oracle for the text escaping

from mvaudit.data import parse_dataset
from mvaudit.svgplot import render_scatter
from tests.conftest import dataset_of

SVG_NS = "{http://www.w3.org/2000/svg}"


def circles(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{SVG_NS}circle")]


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
        root = ET.fromstring(svg)
        assert any(el.get("class") == "fit" for el in root.iter(f"{SVG_NS}line"))

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
