import xml.etree.ElementTree as ET

import numpy as np
import pytest

from risbeam.errors import DomainError
from risbeam.svgplot import line_plot


def test_writes_well_formed_svg(tmp_path):
    x = np.arange(-90.0, 91.0, 3.0)
    y = -60.0 - 0.01 * x ** 2
    path = tmp_path / "plot.svg"
    line_plot([(x, y, "cut")], path, title="t", x_label="x", y_label="y")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.text]
    assert "t" in texts and "cut" in texts


def test_deterministic_bytes(tmp_path):
    x = np.arange(10.0)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_plot([(x, np.sin(x), "s")], a)
    line_plot([(x, np.sin(x), "s")], b)
    assert a.read_bytes() == b.read_bytes()


def test_multiple_series_and_flat_line(tmp_path):
    x = np.arange(5.0)
    path = tmp_path / "m.svg"
    line_plot([(x, np.zeros(5), "flat"), (x, x, "ramp")], path)
    assert b"polyline" in path.read_bytes()


def test_validation(tmp_path):
    path = tmp_path / "bad.svg"
    with pytest.raises(DomainError):
        line_plot([], path)
    with pytest.raises(DomainError):
        line_plot([([1.0], [1.0], "one point")], path)
    with pytest.raises(DomainError):
        line_plot([([1.0, 2.0], [1.0, np.nan], "nan")], path)
    with pytest.raises(DomainError):
        line_plot([([1.0, 2.0, 3.0], [1.0, 2.0], "ragged")], path)


@pytest.mark.parametrize("x, y", [
    ([0.0, 5e-324, 1e-323], [0.0, 1.0, 2.0]),  # subnormal x span
    ([0.0, 1.0, 2.0], [0.0, 5e-324, 0.0]),  # subnormal y span
    ([-9e307, 9e307], [0.0, 1.0]),  # x span overflows
    ([0.0, 1.0], [-1e308, 1.7e308]),  # y span overflows
    ([1e20, 1e20], [0.0, 1.0]),  # the unit span of a flat x rounds away
])
def test_unplottable_span_is_domain_error(x, y, tmp_path):
    path = tmp_path / "span.svg"
    with pytest.raises(DomainError, match="axis span"):
        line_plot([(x, y, "s")], path)
    assert not path.exists()
