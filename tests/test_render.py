"""
Tests for the SVG figures: the elements each drawing holds, parsed back from
the text render returns and from the files a DistributionStudy emits.
"""

import xml.etree.ElementTree as ET

import pytest

from randlp import render
from randlp.config import config_from_mapping
from randlp.harness import emit, run_campaign

_NS = "{http://www.w3.org/2000/svg}"


def _marks(text: str):
    """The elements drawn over the canvas and its two axis lines."""
    root = ET.fromstring(text)
    assert root.tag == f"{_NS}svg"
    background, x_axis, y_axis, *marks = list(root)
    assert background.tag == f"{_NS}rect" and background.get("fill") == "white"
    assert x_axis.tag == y_axis.tag == f"{_NS}line"
    return marks


def _csv_rows(path):
    """The data rows of an emitted CSV: neither header nor footer."""
    return path.read_text().splitlines()[1:-1]


@pytest.mark.parametrize("draw", [render.svg_histogram, render.svg_steps], ids=["histogram", "steps"])
def test_empty_input_draws_only_the_axes(draw):
    assert _marks(draw([])) == []


def test_emitted_figures_draw_every_row(tmp_path):
    cfg = config_from_mapping(
        {"experiment": "DistributionStudy", "grid": [[30, 5]], "sample_size": 16, "svg": True, "master_seed": 11}
    )
    emit(cfg, run_campaign(cfg), output_dir=str(tmp_path))

    marks = _marks((tmp_path / "histogram.svg").read_text())
    bars = [mark for mark in marks if mark.tag == f"{_NS}rect"]
    labels = [mark for mark in marks if mark.tag == f"{_NS}text"]
    bins = _csv_rows(tmp_path / "histogram.csv")
    assert len(bins) > 1 and len(bars) == len(bins)
    assert len(labels) == len(marks) - len(bars) == 3
    assert labels[-1].text == str(max(int(row.split(",")[2]) for row in bins))

    marks = _marks((tmp_path / "ecdf.svg").read_text())
    (line,) = [mark for mark in marks if mark.tag == f"{_NS}polyline"]
    steps = _csv_rows(tmp_path / "ecdf.csv")
    assert len(steps) > 1 and len(line.get("points").split()) == 2 * len(steps)
    assert [mark.tag for mark in marks].count(f"{_NS}text") == 3
