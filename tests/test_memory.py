"""Memory follows the output: the codebook check, the duplicate-beam
check, the RSRP product, the streamed simulate, the chamber noise, the line
and codebook readers and the power text allocate no array or string the
size of their whole input beyond what they return.  Each test
traces one call with tracemalloc, which sees numpy's data buffers as well
as Python objects."""

import sys
import tracemalloc

import numpy as np
import pytest

from risbeam import datasets
from risbeam.array_model import ArraySpec, Direction
from risbeam.chamber import (_PRODUCT_ROWS, LinkBudget, _magnitudes,
                             _noise_means)
from risbeam.cli import _prediction_lines, main
from risbeam.codebook import (_BLOCK_ELEMENTS, MODE_TX_COMPENSATED, Codebook,
                              _index_type, _row_blocks, build_codebook,
                              read_codebook, write_codebook)
from risbeam.datasets import BeampatternTable, _power_rows, read_table


def traced_peak(call):
    """(result of call(), peak bytes traced above the start while it ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_codebook_check_allocates_no_index_sized_array():
    """A matrix already of the index type is range-checked and kept as is:
    no bool mask or copy of its size."""
    spec = ArraySpec(128, 128)
    beams = np.array([(az, 0.0) for az in range(64)])
    indices = np.full((64, spec.size), 7, dtype=_index_type(spec.phase_set))
    cb, peak = traced_peak(lambda: Codebook(
        spec, Direction(0, 0), MODE_TX_COMPENSATED, beams, indices))
    assert cb.indices is indices
    assert peak < indices.nbytes // 16


def product_slices(indices):
    """The product blocks of _magnitudes over a whole index matrix."""
    for rows in _row_blocks(*indices.shape, _PRODUCT_ROWS):
        yield rows, indices[rows]


def test_magnitudes_peak_is_one_block_buffer():
    """Beyond `h` and the result, the product holds one largest-block
    complex buffer and, while a block is gathered into it, a row slice of
    the block's indices as intp; a previous block is never alive next to
    the next."""
    spec = ArraySpec(32, 32)
    indices = np.random.default_rng(0).integers(
        0, 8, (1024, spec.size)).astype(_index_type(spec.phase_set))
    rx_dirs = [Direction(float(az), -3.0) for az in range(-90, 91, 3)]
    mag, peak = traced_peak(lambda: _magnitudes(
        [spec], len(indices), product_slices(indices), Direction(0, -33),
        rx_dirs))
    block = max(b.stop - b.start
                for b in _row_blocks(*indices.shape, _PRODUCT_ROWS))
    assert block < indices.shape[0]  # more than one block runs
    h = spec.size * len(rx_dirs) * np.dtype(complex).itemsize
    buf = block * spec.size * np.dtype(complex).itemsize
    gather = _BLOCK_ELEMENTS  # bytes of intp, a row slice at a time
    assert gather < block * spec.size * np.dtype(np.intp).itemsize
    # slack for the ufuncs' casting buffers
    assert peak < h + buf + gather + mag.nbytes + (256 << 10)


def test_magnitudes_gathers_a_large_block_in_slices():
    """A 64-config block of a 96x96 array is over _BLOCK_ELEMENTS cells;
    its intp copy of the indices is made a row slice at a time, so it
    never holds more than _BLOCK_ELEMENTS bytes of them."""
    spec = ArraySpec(96, 96)
    indices = np.random.default_rng(0).integers(
        0, 8, (2 * _PRODUCT_ROWS, spec.size)).astype(
            _index_type(spec.phase_set))
    rx_dirs = [Direction(float(az), -3.0) for az in range(-90, 91, 3)]
    mag, peak = traced_peak(lambda: _magnitudes(
        [spec], len(indices), product_slices(indices), Direction(0, -33),
        rx_dirs))
    assert _PRODUCT_ROWS * spec.size > _BLOCK_ELEMENTS
    h = spec.size * len(rx_dirs) * np.dtype(complex).itemsize
    g = spec.size * np.dtype(complex).itemsize  # the transmit phasors
    buf = _PRODUCT_ROWS * spec.size * np.dtype(complex).itemsize
    gather = _BLOCK_ELEMENTS
    # slack for the ufuncs' casting buffers
    assert peak < h + g + buf + gather + mag.nbytes + (256 << 10)


@pytest.mark.parametrize("dataset", ["beampattern", "absorption"])
def test_simulate_peak_does_not_grow_with_the_grid(dataset, tmp_path,
                                                   capsys):
    """simulate quantizes each product block of beams as it sweeps it, so
    beyond the table, its peak stays put when the beam grid doubles: no
    index matrix of the grid (here 4 KB a beam) is held.  Both grids cut
    into whole 64-beam product blocks, so their buffers are the same."""
    peaks = {}
    for elevations in (2, 4):
        ini = tmp_path / f"g{elevations}.ini"
        ini.write_text(
            "[array]\nnx = 64\nny = 64\n[budget]\nsample_sigma_db = 0\n"
            "[codebook]\nazimuth_min_deg = -63\nazimuth_max_deg = 63\n"
            "azimuth_step_deg = 2\nelevation_min_deg = 0\n"
            f"elevation_max_deg = {elevations - 1}\nelevation_step_deg = 1\n")
        out = tmp_path / f"g{elevations}.csv"
        argv = ["simulate", "--config", str(ini), "--dataset", dataset,
                "--out", str(out)]
        assert main(argv) == 0  # first runs allocate once-only state
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        power = read_table(out).power_dbm
        peaks[power.shape[0]] = (peak, power.nbytes)
    (n1, (peak1, table1)), (n2, (peak2, table2)) = sorted(peaks.items())
    assert (n1, n2) == (128, 256)
    # the index rows the doubling adds are 512 KB
    assert (peak2 - table2) - (peak1 - table1) < (n2 - n1) * 64 * 64 // 16


def test_read_codebook_peak_is_its_matrix_plus_a_few_chunks(tmp_path):
    """Rows are parsed as the text streams in, into a matrix allocated
    once, so the file's text is never held whole: beyond what it returns,
    a read holds a line and the reader's buffers."""
    spec = ArraySpec(32, 32)
    p = tmp_path / "cb.csv"
    write_codebook(build_codebook(spec, Direction(0, -33)), p)
    cb, peak = traced_peak(lambda: read_codebook(p))
    assert len(cb) == 1891
    assert p.stat().st_size > 3 << 20  # many times the allowance
    returned = cb.indices.nbytes + cb.beams.nbytes
    # arrays of the size of the beams and Python objects of the size of a
    # column, not of the file: Codebook's duplicate-beam check sorts a copy
    # of the beams, and the header's column names are split and built again
    objects = 32 * len(cb) + 128 * spec.size
    assert peak < returned + objects + (256 << 10)


def test_duplicate_beam_check_makes_no_object_per_beam():
    """Beams are checked for repeats by one sort: an order and a sorted
    copy of the beams, about 24 B a beam, and no Python tuple per beam."""
    n = 100_000
    beams = np.column_stack(np.divmod(np.arange(n), 400)).astype(float)
    _, peak = traced_peak(lambda: datasets._check_beams(beams))
    assert peak < 32 * n


@pytest.mark.parametrize("samples", [1, 30])
def test_noise_means_holds_one_block(samples):
    """Beyond the means, the noise holds one buffer of at most
    _BLOCK_ELEMENTS samples, or one row when a row holds more: no sample
    tensor of the whole table, and no list of per-cell views."""
    shape = (2000, 61)
    budget = LinkBudget(samples_per_point=samples)
    out, peak = traced_peak(lambda: _noise_means(shape, budget, 0))
    block = max(_BLOCK_ELEMENTS, shape[1] * samples) * out.itemsize
    # slack for the ufuncs' casting buffers
    assert peak < out.nbytes + block + (256 << 10)


def test_read_lines_peak_is_lines_plus_a_few_chunks(tmp_path):
    """The whole text is never one string next to its lines: beyond the
    lines, a read holds the reader's buffers."""
    p = tmp_path / "t.csv"
    p.write_text("".join(("%05d," % i) * 16 + "x\n" for i in range(10000)),
                 encoding="ascii")
    lines, peak = traced_peak(lambda: datasets._read_lines(p))
    assert len(lines) == 10000
    returned = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    assert p.stat().st_size > 900 << 10  # many times the allowance
    assert peak < returned + (256 << 10)


def _text_size(texts) -> int:
    return sys.getsizeof(texts) + sum(map(sys.getsizeof, texts))


# A block's temporaries: per cell a few float64 and int64 arrays, its
# bytes and their decoded text, under 64 bytes.
_TEXT_BLOCK_BYTES = 64 * datasets._TEXT_CELLS


def test_power_rows_hold_one_block():
    """A (4000, 61) table is spelled a block of rows at a time: beyond the
    rows it returns, one block's temporaries."""
    values = np.random.default_rng(0).normal(-60.0, 20.0, (4000, 61))
    rows, peak = traced_peak(lambda: list(_power_rows(values)))
    assert len(rows) == 4000
    # slack for the ufuncs' casting buffers
    assert peak < _text_size(rows) + _TEXT_BLOCK_BYTES + (256 << 10)


def test_prediction_text_holds_one_block():
    """The prediction lines of a 4000 x 61 table come a block of beams at
    a time: beyond the text returned, one block's temporaries."""
    values = np.random.default_rng(0).normal(-60.0, 20.0, (4000, 61))
    table = BeampatternTable(
        np.column_stack([np.arange(4000.0), np.zeros(4000)]),
        np.arange(-90.0, 91.0, 3.0), values)
    predictions = values.ravel()
    blocks, peak = traced_peak(lambda: list(_prediction_lines(
        np.empty((0, 3)), table, predictions, ",", "")))
    assert sum(block.count("\n") + 1 for block in blocks) == values.size
    # slack for the ufuncs' casting buffers and the beam prefixes
    assert peak < _text_size(blocks) + _TEXT_BLOCK_BYTES + (256 << 10)
