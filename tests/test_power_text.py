"""The block-built power text equals Python's "%.6f": every table row from
`_power_rows` and every prediction line, on rounded and unrounded doubles,
signed zeros and tiny values, exact half-way values and their neighbours,
the edge of the exact range, nan and infinities, for any block size."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam import datasets
from risbeam.cli import _prediction_lines
from risbeam.datasets import BeampatternTable, _fmt_angle, _power_rows

EDGE = 2.0 ** 52 / 1e6  # past it v * 1e6 keeps no fraction bits


def _half_way(n: int) -> float:
    """(2n + 1) * 15625 / 2e6: v * 1e6 is exactly an odd half-integer."""
    return (2 * n + 1) * 15625 / 2e6


def _round6(x: float) -> float:
    with np.errstate(over="ignore"):  # x * 1e6 overflows past about 1e302
        return float(np.round(x, 6))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_ties = st.integers(-2 ** 38, 2 ** 38).map(_half_way)
VALUES = st.one_of(
    _finite,
    _finite.map(_round6),
    st.sampled_from([s * v for s in (1.0, -1.0) for v in (
        0.0, 5e-324, 1e-9, 4.9999999e-7, 5e-7)]),
    _ties,
    st.tuples(_ties, st.sampled_from([-np.inf, np.inf])).map(
        lambda t: float(np.nextafter(*t))),
    st.sampled_from([s * v for s in (1.0, -1.0) for v in (
        np.nextafter(EDGE, 0), EDGE, np.nextafter(EDGE, np.inf),
        np.inf)] + [np.nan]),
)
PROPERTY = settings(max_examples=300, deadline=None)


def _matrices(rows=st.integers(1, 8), cols=st.integers(1, 12)):
    return st.tuples(rows, cols).flatmap(lambda shape: st.lists(
        VALUES, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
    ).map(lambda v: np.array(v, float).reshape(shape)))


def test_half_way_example():
    assert _half_way(0) == 0.0078125
    assert "%.6f" % 0.0078125 == "0.007812"
    assert next(_power_rows(np.array([[0.0078125]]))) == "0.007812"


def test_rows_without_columns_are_empty():
    assert list(_power_rows(np.empty((2, 0)))) == ["", ""]


@PROPERTY
@given(values=_matrices(), block=st.integers(1, 400))
@example(values=np.array([[0.0078125, -0.0, -1e-9, 1.5e-6, -2.5e-6]]),
         block=400)
def test_power_rows_equal_percent_format(values, block):
    with mock.patch.object(datasets, "_TEXT_CELLS", block):
        rows = list(_power_rows(values))
    assert rows == [",".join("%.6f" % v for v in row)
                    for row in values.tolist()]


@PROPERTY
@given(values=_matrices(rows=st.integers(1, 6), cols=st.integers(1, 6)),
       at=st.lists(VALUES, max_size=3), block=st.integers(1, 400),
       line_format=st.sampled_from([(",", ""), (" -> ", " dBm")]))
def test_prediction_lines_equal_percent_format(values, at, block,
                                               line_format):
    """Both line formats, with --at points first, as one text: the table
    part comes a block of lines at a time."""
    beams = np.array([(3.0 * b, -0.0 if b % 2 else 1.5)
                      for b in range(values.shape[0])])
    rotations = np.array([-7.25, -0.0, 1e-7, 0.1, 33.0, 90.0][
        :values.shape[1]])
    table = BeampatternTable(beams, rotations, values)
    points = np.array([(1.5, -2.25, -0.5)] * len(at)).reshape(-1, 3)
    predictions = np.concatenate([at, values.ravel()])
    sep, unit = line_format
    with mock.patch.object(datasets, "_TEXT_CELLS", block):
        text = "\n".join(_prediction_lines(points, table, predictions,
                                           sep, unit))
    want = ["1.5,-2.25,-0.5%s%.6f%s" % (sep, p, unit) for p in at] + [
        "%s,%s,%s%s%.6f%s" % (_fmt_angle(a), _fmt_angle(e), _fmt_angle(r),
                              sep, p, unit)
        for (a, e), row in zip(beams.tolist(), values.tolist())
        for r, p in zip(rotations.tolist(), row)]
    assert text == "\n".join(want)
