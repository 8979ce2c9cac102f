"""Memory follows the output: the codebook check, the RSRP product and the
line reader allocate no array or string the size of their whole input
beyond what they return.  Each test traces one call with tracemalloc, which
sees numpy's data buffers as well as Python objects."""

import sys
import tracemalloc
from unittest import mock

import numpy as np

from risbeam import datasets
from risbeam.array_model import ArraySpec, Direction
from risbeam.chamber import _PRODUCT_ROWS, _magnitudes
from risbeam.codebook import (MODE_TX_COMPENSATED, Codebook, _index_type,
                              _row_blocks)


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


def test_magnitudes_peak_is_one_block_buffer():
    """Beyond `h` and the result, the product holds one largest-block
    complex buffer and, while a block is gathered into it, the block's
    indices as intp; a previous block is never alive next to the next."""
    spec = ArraySpec(32, 32)
    indices = np.random.default_rng(0).integers(
        0, 8, (1024, spec.size)).astype(_index_type(spec.phase_set))
    rx_dirs = [Direction(float(az), -3.0) for az in range(-90, 91, 3)]
    mag, peak = traced_peak(lambda: _magnitudes(
        spec, indices, Direction(0, -33), rx_dirs))
    block = max(b.stop - b.start
                for b in _row_blocks(*indices.shape, _PRODUCT_ROWS))
    assert block < indices.shape[0]  # more than one block runs
    h = spec.size * len(rx_dirs) * np.dtype(complex).itemsize
    buf = block * spec.size * np.dtype(complex).itemsize
    gather = block * spec.size * np.dtype(np.intp).itemsize
    # slack for the ufuncs' casting buffers
    assert peak < h + buf + gather + mag.nbytes + (256 << 10)


def test_read_lines_peak_is_lines_plus_a_few_chunks(tmp_path):
    """The whole text is never one string next to its lines."""
    p = tmp_path / "t.csv"
    p.write_text("".join(("%05d," % i) * 16 + "x\n" for i in range(10000)),
                 encoding="ascii")
    chars = 1 << 16
    with mock.patch.object(datasets, "_READ_CHARS", chars):
        lines, peak = traced_peak(lambda: datasets._read_lines(p))
    assert len(lines) == 10000
    returned = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    assert p.stat().st_size > 8 * chars  # the file spans many chunks
    assert peak < returned + 4 * chars  # one ASCII character per byte
