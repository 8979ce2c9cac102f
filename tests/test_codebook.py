import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam import codebook as codebook_module
from risbeam.array_model import (
    TWO_PI,
    ArraySpec,
    Direction,
    element_phase_profile,
    ideal_config,
    quantize_config,
    quantize_phases,
    received_signal,
    uniform_phase_set,
)
from risbeam.codebook import (
    MODE_TX_COMPENSATED,
    MODE_UNCOMPENSATED,
    MODES,
    Codebook,
    CodebookGrid,
    absorption_masks,
    build_codebook,
    read_codebook,
    write_codebook,
)
from risbeam.datasets import _fmt_angle
from risbeam.errors import DomainError, NotFoundError, ParseError

# phase-set sizes around each change of the widest index's digit count,
# both sides of the uint8 / uint16 / uint32 index types and of the former
# int16 limit
DIGIT_BOUNDARIES = [1, 2, 9, 10, 11, 99, 100, 101, 256, 257, 999, 1000, 1001,
                    4096, 2**15, 2**15 + 1, 2**16, 2**16 + 1]

QUANT_LOSS_FLOOR_DB = 20.0 * math.log10(math.cos(math.pi / 8))


def whole_matrix_indices(spec, tx, grid, mode):
    """Oracle: every beam's raw phases in one (beams, size) matrix and a
    single quantize_phases call, as the builder did before it went
    block-wise."""
    dx = TWO_PI * spec.delta * np.arange(spec.nx)
    dy = TWO_PI * spec.delta * np.arange(spec.ny)
    px = np.sin(np.deg2rad(grid.azimuths()))[:, None] * dx[None, :]
    py = np.sin(np.deg2rad(grid.elevations()))[:, None] * dy[None, :]
    raw = (px[:, None, :, None] + py[None, :, None, :]).reshape(-1, spec.size)
    if mode == MODE_TX_COMPENSATED:
        raw -= element_phase_profile(spec, tx)[None, :]
    return quantize_phases(raw, spec.phase_set)


def percent_d_codebook_text(cb, cells=None):
    """Oracle: the codebook file with every index cell formatted by "%d",
    or with each row's cells spelled by `cells(row)` when given."""
    if cells is None:
        def cells(row):
            return ",".join("%d" % i for i in row)
    spec, tx = cb.spec, cb.tx
    lines = ["# nx=%d ny=%d delta=%.17g frequency_hz=%.17g tx_azimuth=%s"
             " tx_elevation=%s mode=%s phase_set=%s" % (
                 spec.nx, spec.ny, spec.delta, spec.frequency_hz,
                 _fmt_angle(tx.azimuth_deg), _fmt_angle(tx.elevation_deg),
                 cb.mode, ",".join("%.17g" % p for p in spec.phase_set)),
             "theta_n,phi_n," + ",".join("idx_%d" % k
                                         for k in range(spec.size))]
    for (az, el), row in zip(cb.beams, cb.indices):
        lines.append(_fmt_angle(az) + "," + _fmt_angle(el) + "," + cells(row))
    return "".join(line + "\n" for line in lines)


def lut_cells(phase_count):
    """Oracle: a row's cells through one string per phase-set entry, as the
    writer spelled them before it gathered a byte table per block."""
    lut = ["%d" % i for i in range(phase_count)]
    return lambda row: ",".join([lut[i] for i in row.tolist()])


def int_parse_outcome(text, spec):
    """Oracle: the body parsed with int() per cell and range-checked row by
    row, then its beams checked as keys.

    ("accept", beams, indices) or ("reject", line), where line is the first
    row with a wrong field count, a field int() rejects or an index outside
    the phase set (values past int64 included), or None when every row
    parses but a beam is not finite or repeats an earlier beam.
    """
    beams, rows = [], []
    for ln, line in enumerate(text.splitlines()[2:], start=3):
        parts = line.split(",")
        if len(parts) != 2 + spec.size:
            return ("reject", ln)
        try:
            beams.append((float(parts[0]), float(parts[1])))
            rows.append([int(p) for p in parts[2:]])
        except ValueError:
            return ("reject", ln)
        if any(not 0 <= i < spec.phase_set.size for i in rows[-1]):
            return ("reject", ln)
    if (not all(math.isfinite(v) for beam in beams for v in beam)
            or len(set(beams)) != len(beams)):
        return ("reject", None)
    return ("accept", np.array(beams, float).reshape(-1, 2),
            np.array(rows, int).reshape(-1, spec.size))


def grids(max_points=9):
    """Integer-degree axes with 1..max_points points."""
    def axis(lo, step, count):
        hi = min(90, lo + (count - 1) * step)
        return (lo, lo + (hi - lo) // step * step, step)
    ax = st.builds(axis, st.integers(-90, 90), st.integers(1, 20),
                   st.integers(1, max_points))
    return st.builds(lambda a, e: CodebookGrid(azimuth_deg=a, elevation_deg=e),
                     ax, ax)


def phase_sets(max_size=4096):
    uniform = st.integers(1, max_size).map(uniform_phase_set)
    drawn = st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                     min_size=1, max_size=64).map(lambda v: np.unique(np.abs(v)))
    return st.one_of(uniform, drawn)


class TestCodebookGrid:
    def test_default_sizes(self):
        grid = CodebookGrid()
        assert len(grid) == 1891
        assert grid.azimuths().size == 61
        assert grid.elevations().size == 31

    def test_extended_elevation(self):
        assert len(CodebookGrid(elevation_deg=(-90, 90, 3))) == 3721

    def test_degenerate_single_point(self):
        grid = CodebookGrid(azimuth_deg=(0, 0, 3), elevation_deg=(0, 0, 3))
        assert len(grid) == 1

    def test_rejects_bad_ranges(self):
        with pytest.raises(DomainError):
            CodebookGrid(azimuth_deg=(-90, 90, 0))
        with pytest.raises(DomainError):
            CodebookGrid(azimuth_deg=(10, -10, 3))
        with pytest.raises(DomainError):
            CodebookGrid(azimuth_deg=(-90, 90, 7))  # 180 % 7 != 0
        with pytest.raises(DomainError):
            CodebookGrid(azimuth_deg=(-90.5, 89.5, 3))  # fractional degrees

    @settings(max_examples=60, deadline=None)
    @given(lo=st.integers(-90, 0), count=st.integers(0, 12),
           step=st.integers(1, 15))
    def test_cardinality_formula(self, lo, count, step):
        hi = lo + count * step
        if hi > 90:
            hi = lo
            count = 0
        grid = CodebookGrid(azimuth_deg=(lo, hi, step))
        assert len(grid) == (count + 1) * 31


class TestBuildCodebook:
    def test_default_count_and_order(self, default_codebook):
        cb = default_codebook
        assert len(cb) == 1891
        # elevation varies fastest, azimuth outer
        np.testing.assert_array_equal(cb.beams[0], [-90.0, -45.0])
        np.testing.assert_array_equal(cb.beams[1], [-90.0, -42.0])
        np.testing.assert_array_equal(cb.beams[31], [-87.0, -45.0])
        np.testing.assert_array_equal(cb.beams[-1], [90.0, 45.0])

    def test_single_entry_grid_is_quantized_broadside(self):
        spec = ArraySpec(10, 10)
        grid = CodebookGrid(azimuth_deg=(0, 0, 3), elevation_deg=(0, 0, 3))
        cb = build_codebook(spec, Direction(0, 0), grid, MODE_TX_COMPENSATED)
        assert len(cb) == 1
        ideal = ideal_config(spec, Direction(0, 0), Direction(0, 0))
        np.testing.assert_array_equal(
            cb.indices[0], quantize_phases(ideal.phases, spec.phase_set))

    def test_rows_match_scalar_construction(self, default_codebook,
                                            default_spec, default_geometry):
        # vectorized builder against the one-beam-at-a-time route
        for row in (0, 517, 935, 1890):
            az, el = default_codebook.beams[row]
            cfg = ideal_config(default_spec, default_geometry.tx_dir,
                               Direction(az, el))
            np.testing.assert_array_equal(
                default_codebook.indices[row],
                quantize_phases(cfg.phases, default_spec.phase_set))

    def test_uncompensated_drops_tx_term(self):
        spec = ArraySpec(4, 4)
        grid = CodebookGrid(azimuth_deg=(-30, 30, 15),
                            elevation_deg=(-30, 30, 15))
        cb_apart = build_codebook(spec, Direction(50, -33), grid,
                                  MODE_UNCOMPENSATED)
        cb_bore = build_codebook(spec, Direction(0, 0), grid,
                                 MODE_UNCOMPENSATED)
        np.testing.assert_array_equal(cb_apart.indices, cb_bore.indices)

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            build_codebook(ArraySpec(4, 4), Direction(0, 0), CodebookGrid(),
                           "free-running")

    def test_every_config_idempotent_under_quantization(self, default_codebook):
        spec = default_codebook.spec
        sample = np.linspace(0, len(default_codebook) - 1, 50).astype(int)
        for row in sample:
            cfg = default_codebook.config(int(row))
            np.testing.assert_array_equal(
                quantize_phases(cfg.phases, spec.phase_set),
                default_codebook.indices[row])
            np.testing.assert_array_equal(quantize_config(spec, cfg).phases,
                                          cfg.phases)

    def test_gain_within_quantization_bound(self, default_codebook,
                                            default_spec, default_geometry,
                                            rng):
        tx = default_geometry.tx_dir
        rows = rng.choice(len(default_codebook), size=50, replace=False)
        for row in rows:
            az, el = default_codebook.beams[row]
            y = received_signal(default_spec, default_codebook.config(int(row)),
                                tx, Direction(az, el))
            gain_db = 20 * np.log10(abs(y) / 100.0)
            assert QUANT_LOSS_FLOOR_DB - 1e-9 <= gain_db <= 1e-9


class TestBlockwiseBuild:
    """The builder quantizes blocks of beams; any block size must give the
    whole-matrix indices exactly, in the same dtype."""

    @settings(max_examples=120, deadline=None)
    @given(nx=st.integers(1, 20), ny=st.integers(1, 20), grid=grids(),
           mode=st.sampled_from(MODES), phase_set=phase_sets(),
           tx=st.tuples(st.integers(-90, 90), st.integers(-90, 90)),
           block_rows=st.one_of(st.none(), st.integers(1, 9)))
    def test_matches_whole_matrix(self, nx, ny, grid, mode, phase_set, tx,
                                  block_rows):
        spec = ArraySpec(nx, ny, phase_set=phase_set)
        tx = Direction(*tx)
        block = (codebook_module._BLOCK_ELEMENTS if block_rows is None
                 else block_rows * spec.size)
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS", block):
            cb = build_codebook(spec, tx, grid, mode)
        assert cb.indices.dtype == np.min_scalar_type(phase_set.size - 1)
        np.testing.assert_array_equal(
            cb.indices, whole_matrix_indices(spec, tx, grid, mode))

    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_uint32_phase_set_matches_whole_matrix(self, block_rows):
        spec = ArraySpec(3, 4, phase_set=uniform_phase_set(2**17 + 5))
        grid = CodebookGrid(azimuth_deg=(-90, 90, 9),
                            elevation_deg=(-45, 45, 15))
        tx = Direction(20, -33)
        block = (codebook_module._BLOCK_ELEMENTS if block_rows is None
                 else block_rows * spec.size)
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS", block):
            cb = build_codebook(spec, tx, grid)
        assert cb.indices.dtype == np.uint32
        expected = whole_matrix_indices(spec, tx, grid, MODE_TX_COMPENSATED)
        assert expected.max() >= 2**16  # indices past uint16 are in use
        np.testing.assert_array_equal(cb.indices, expected)

    def test_row_blocks_cover_every_row_once(self):
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS", 700):
            blocks = codebook_module._row_blocks(1891, 100)
        assert [(b.start, b.stop) for b in blocks[:2]] == [(0, 7), (7, 14)]
        assert blocks[-1] == slice(1890, 1891)
        assert sum(b.stop - b.start for b in blocks) == 1891
        # a row larger than the block still gets a block of its own
        assert codebook_module._row_blocks(3, 2**20) == [
            slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_product_blocks_at_64x64_and_10x10(self):
        blocks = codebook_module._row_blocks(1891, 64 * 64, 64)
        assert len(blocks) == 29
        assert all(b.stop - b.start == 64 for b in blocks[:-1])
        assert blocks[-1] == slice(1792, 1891)  # the 35-row rest merged
        assert codebook_module._row_blocks(1891, 100, 64) == [slice(0, 1891)]

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(0, 3000), size=st.integers(1, 5000),
           unit=st.sampled_from([1, 4, 64]), block=st.integers(1, 2**19))
    def test_row_blocks_in_whole_units(self, rows, size, unit, block):
        """Blocks tile the rows in order; all but the last have one length,
        a whole number of units within the block budget (at least one
        unit); the last holds less than one block plus one unit, and no
        block is shorter than a unit unless it is the only one."""
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS", block):
            blocks = codebook_module._row_blocks(rows, size, unit)
        if not rows:
            assert blocks == []
            return
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert (blocks[0].start, blocks[-1].stop) == (0, rows)
        step = blocks[0].stop - blocks[0].start
        assert step % unit == 0 or len(blocks) == 1
        assert step * size <= max(block, unit * size) or len(blocks) == 1
        assert {b.stop - b.start for b in blocks[:-1]} <= {step}
        last = blocks[-1].stop - blocks[-1].start
        assert last < step + unit
        assert last >= unit or len(blocks) == 1


class TestLookup:
    def test_index_arithmetic(self, default_codebook):
        # azimuth 0 is position 30 of 61, elevation -30 is position 5 of 31
        assert default_codebook.index_of(Direction(0, -30)) == 30 * 31 + 5

    def test_origin_is_first(self, default_codebook):
        assert default_codebook.index_of(Direction(-90, -45)) == 0

    def test_off_grid_raises_with_suggestions(self, default_codebook):
        with pytest.raises(NotFoundError, match="nearest"):
            default_codebook.config(
                default_codebook.index_of(Direction(1, 0)))

    def test_lookup_returns_stored_config(self, default_codebook):
        cb = default_codebook
        cfg = cb.config(cb.index_of(Direction(0, -30)))
        np.testing.assert_array_equal(
            quantize_phases(cfg.phases, cb.spec.phase_set),
            cb.indices[30 * 31 + 5])

    def test_entries_iterates_in_order(self):
        spec = ArraySpec(2, 2)
        grid = CodebookGrid(azimuth_deg=(0, 3, 3), elevation_deg=(0, 3, 3))
        cb = build_codebook(spec, Direction(0, 0), grid)
        assert cb.beams.tolist() == [[0, 0], [0, 3], [3, 0], [3, 3]]
        for row, (az, el) in enumerate(cb.beams):
            cfg = cb.config(cb.index_of(Direction(az, el)))
            np.testing.assert_array_equal(
                quantize_phases(cfg.phases, spec.phase_set), cb.indices[row])


class TestAbsorptionMasks:
    def test_default_counts(self, default_spec):
        masks = absorption_masks(default_spec)
        assert [m.active_count for m in masks] == [4, 16, 64, 100]

    def test_two_by_two_indices(self, default_spec):
        mask = absorption_masks(default_spec)[0].mask
        assert np.flatnonzero(mask).tolist() == [0, 1, 10, 11]

    def test_full_side_is_all_active(self, default_spec):
        assert absorption_masks(default_spec)[-1].mask.all()

    def test_nested(self, default_spec):
        masks = absorption_masks(default_spec)
        for small, big in zip(masks, masks[1:]):
            assert np.all(big.mask[small.mask])

    def test_oversized_side_rejected(self, default_spec):
        for spec in (ArraySpec(9, 10), ArraySpec(10, 9), ArraySpec(4, 8)):
            with pytest.raises(DomainError, match="exceeds array dimensions"):
                absorption_masks(spec)


class TestCodebookIo:
    def test_round_trip_exact(self, default_codebook, tmp_path):
        path = tmp_path / "cb.csv"
        write_codebook(default_codebook, path)
        back = read_codebook(path)
        assert back.mode == default_codebook.mode
        assert back.tx == default_codebook.tx
        np.testing.assert_array_equal(back.beams, default_codebook.beams)
        np.testing.assert_array_equal(back.indices, default_codebook.indices)
        np.testing.assert_array_equal(back.spec.phase_set,
                                      default_codebook.spec.phase_set)

    def test_byte_stable(self, default_codebook, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_codebook(default_codebook, p1)
        write_codebook(read_codebook(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_metadata_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("theta_n,phi_n,idx_0\n0,0,0\n")
        with pytest.raises(ParseError, match="metadata"):
            read_codebook(p)

    def test_header_only_rejected(self, default_codebook, tmp_path):
        # once a zero-beam Codebook
        p = tmp_path / "cb.csv"
        write_codebook(default_codebook, p)
        p.write_text("\n".join(p.read_text().splitlines()[:2]) + "\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_codebook(p)

    def test_ragged_row_rejected(self, default_codebook, tmp_path):
        p = tmp_path / "cb.csv"
        write_codebook(default_codebook, p)
        lines = p.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 6"):
            read_codebook(p)

    def test_header_dimensions_must_match_columns(self, tmp_path):
        # 1e8 x 1e8 elements would ask for petabytes before reading a row
        p = tmp_path / "cb.csv"
        p.write_text("# nx=100000000 ny=100000000 delta=0.5"
                     " frequency_hz=5.3e9 tx_azimuth=0 tx_elevation=0"
                     " mode=tx-compensated phase_set=0,3.14\n"
                     "theta_n,phi_n,idx_0\n0,0,0\n")
        with pytest.raises(ParseError, match="1 idx columns"):
            read_codebook(p)

    def test_non_utf8_rejected(self, default_codebook, tmp_path):
        p = tmp_path / "cb.csv"
        write_codebook(default_codebook, p)
        p.write_bytes(p.read_bytes().replace(b"tx-compensated", b"tx-\xffcomp"))
        with pytest.raises(ParseError, match="UTF-8"):
            read_codebook(p)

    @pytest.mark.parametrize("phase_count", [8, 256, 257, 4096, 2**15,
                                             2**15 + 1, 2**16, 2**16 + 1])
    def test_matches_percent_d_writer(self, phase_count, tmp_path):
        spec = ArraySpec(3, 4, phase_set=uniform_phase_set(phase_count))
        grid = CodebookGrid(azimuth_deg=(-90, 90, 30),
                            elevation_deg=(-45, 45, 45))
        rng = np.random.default_rng(phase_count)
        indices = rng.integers(0, phase_count, (len(grid), spec.size))
        indices[0, :2] = 0, phase_count - 1
        cb = Codebook(spec, Direction(0, -33), MODE_TX_COMPENSATED,
                      build_codebook(spec, Direction(0, -33), grid).beams,
                      indices)
        assert cb.indices.dtype == np.min_scalar_type(phase_count - 1)
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        assert p.read_bytes() == percent_d_codebook_text(cb).encode()

    def test_default_codebook_matches_percent_d_writer(self, default_codebook,
                                                       tmp_path):
        p = tmp_path / "cb.csv"
        write_codebook(default_codebook, p)
        assert p.read_bytes() == percent_d_codebook_text(
            default_codebook).encode()

    @settings(max_examples=300, deadline=None)
    @given(row=st.integers(0, 2), col=st.integers(0, 7),
           field=st.one_of(
               st.integers(-2**70, 2**70).map(str),
               st.integers(2**63 - 2, 2**66).map(str),
               st.integers(0, 7).map(lambda i: "%d" % i),
               st.integers(0, 7).map(lambda i: " +0%d_0 " % i),
               st.floats(allow_nan=True).map(repr),
               st.sampled_from(["3.0", "1e0", "0x1", "nan", "-inf", "."]),
               st.text("0123456789+-_ .,eEx\t\r\u0663\uff11", max_size=7),
               st.text(max_size=4)))
    def test_row_parser_matches_int_parser(self, row, col, field):
        """Each body row is one numpy conversion; on valid and mutated rows
        it accepts what int() accepted, with the same values, and names the
        same line when it rejects, also for an index outside the phase set
        or past int64 (once an uncaught OverflowError)."""
        spec = ArraySpec(2, 2)
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 6, 3),
                                         elevation_deg=(0, 0, 3)))
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "cb.csv"
            write_codebook(cb, p)
            lines = p.read_text(encoding="utf-8").splitlines()
            parts = lines[2 + row].split(",")
            parts[col % len(parts)] = field
            lines[2 + row] = ",".join(parts)
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = int_parse_outcome(p.read_text(encoding="utf-8"), spec)
            try:
                back = read_codebook(p)
            except ParseError as exc:
                line = re.search(r": line (\d+): ", str(exc))
                assert expected == ("reject", line and int(line.group(1)))
                return
        assert expected[0] == "accept"
        np.testing.assert_array_equal(back.beams, expected[1])
        np.testing.assert_array_equal(back.indices, expected[2])

    @pytest.mark.parametrize("phase_count", [8, 4096])
    @pytest.mark.parametrize("cells", ["٣", "8", " ", "+", "0", "7",
                                       "3,4", "3;4", "3 4"])
    def test_one_digit_layout_matches_int_parser(self, cells, phase_count,
                                                 tmp_path):
        """Rows of one-digit cells are read from their bytes.  Cells that
        only look like that layout take the numpy conversion, which gives
        int()'s outcome: the lone field of a 1x1 codebook's row may be the
        Arabic-Indic three (3), an 8 outside the 3-bit set, a space or a
        bare sign; a 2x1 row's two digits may be joined by no comma."""
        spec = ArraySpec(len(cells) // 2 + 1, 1,
                         phase_set=uniform_phase_set(phase_count))
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 6, 3),
                                         elevation_deg=(0, 0, 3)))
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[3] = "3,0," + cells
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = int_parse_outcome(p.read_text(encoding="utf-8"), spec)
        try:
            back = read_codebook(p)
        except ParseError as exc:
            assert expected == ("reject", 4)
            assert "line 4: " in str(exc)
            return
        assert expected[0] == "accept"
        np.testing.assert_array_equal(back.beams, expected[1])
        np.testing.assert_array_equal(back.indices, expected[2])

    def test_astral_last_cell_rejected(self, tmp_path):
        """A codebook whose last cell is U+A0955 is refused.  numpy's C
        text reader (loadtxt) crashed the interpreter on such a row now
        and then; the reader converts cells without it."""
        spec = ArraySpec(2, 2)
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 6, 3),
                                         elevation_deg=(0, 0, 3)))
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        text = p.read_text(encoding="utf-8").rstrip("\n")
        p.write_text(text[:-1] + "\U000a0955\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 5: data column 4"):
            read_codebook(p)

    @pytest.mark.parametrize("value", ["65536", "65539", str(2**64 + 3)])
    def test_wrapping_index_rejected(self, value, tmp_path):
        # uint16 would wrap 65536 to a valid 0; past int64 numpy overflows
        spec = ArraySpec(2, 1)
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 0, 3),
                                         elevation_deg=(0, 0, 3)))
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        text = p.read_text().splitlines()
        text[-1] = "0,0,%s,0" % value
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError):
            read_codebook(p)

    def test_out_of_range_index_rejected(self, tmp_path):
        spec = ArraySpec(2, 1)
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 0, 3),
                                         elevation_deg=(0, 0, 3)))
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        text = p.read_text().splitlines()
        for value in ("9", "8", "-1"):
            text[-1] = "0,0,%s,0" % value
            p.write_text("\n".join(text) + "\n")
            with pytest.raises(ParseError, match=r": line 3: index outside "
                                                 r"the phase set \[0, 8\)"):
                read_codebook(p)

    @pytest.mark.parametrize("indices", [
        np.array([[2.7, 7.9]]),  # would truncate to [[2, 7]]
        np.array([[2.0, 7.0]]),
        np.array([[True, False]]),  # would store 1 and 0
    ], ids=["fractional", "integral-float", "bool"])
    def test_non_integer_indices_rejected(self, indices):
        with pytest.raises(DomainError, match="indices must be integers"):
            Codebook(ArraySpec(1, 2), Direction(0, 0), MODE_TX_COMPENSATED,
                     [(0, 0)], indices)

    def test_masked_codebook_not_written(self, tmp_path):
        spec = ArraySpec(2, 2, mask=[True, False, True, True])
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid((0, 0, 3), (0, 0, 3)))
        p = tmp_path / "cb.csv"
        with pytest.raises(DomainError,
                           match=r"absorbing elements \(1 of 4\)"):
            write_codebook(cb, p)
        assert not p.exists()

    @pytest.mark.parametrize("beam, message", [
        ("nan,0", "finite"),
        ("0,0", "duplicate beams"),  # repeats the first row's beam
    ])
    def test_bad_beam_rejected(self, beam, message, tmp_path):
        spec = ArraySpec(2, 1)
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 3, 3),
                                         elevation_deg=(0, 0, 3)))
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        text = p.read_text().splitlines()
        assert text[-1].startswith("3,0,")
        text[-1] = beam + text[-1][3:]
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError, match=message):
            read_codebook(p)
        with pytest.raises(DomainError, match=message):
            Codebook(spec, cb.tx, cb.mode,
                     [(0, 0), tuple(map(float, beam.split(",")))], cb.indices)

    @settings(max_examples=60, deadline=None)
    @given(phase_count=st.sampled_from(DIGIT_BOUNDARIES),
           nx=st.integers(1, 4), ny=st.integers(1, 4),
           n_az=st.integers(1, 9), n_el=st.integers(1, 5),
           block_rows=st.integers(1, 8), drawn=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(phase_count=10, nx=2, ny=3, n_az=23, n_el=1, block_rows=5,
             drawn=True, seed=0)
    @example(phase_count=2**15 + 1, nx=3, ny=2, n_az=7, n_el=2, block_rows=4,
             drawn=False, seed=0)
    @example(phase_count=2**16 + 1, nx=3, ny=2, n_az=7, n_el=2, block_rows=4,
             drawn=True, seed=0)
    def test_block_writer_matches_lut_formatter(self, phase_count, nx, ny,
                                                n_az, n_el, block_rows,
                                                drawn, seed):
        """Every digit width of K, index matrices drawn at random or built,
        and blocks of `block_rows` rows with a shorter last one: the file
        has the per-cell formatter's bytes and reads back equal."""
        spec = ArraySpec(nx, ny, phase_set=uniform_phase_set(phase_count))
        grid = CodebookGrid(azimuth_deg=(-90, -90 + 3 * (n_az - 1), 3),
                            elevation_deg=(0, 3 * (n_el - 1), 3))
        cb = build_codebook(spec, Direction(20, -33), grid)
        if drawn:
            rng = np.random.default_rng(seed)
            indices = rng.integers(0, phase_count, cb.indices.shape)
            indices.flat[rng.integers(0, indices.size, 2)] = 0, phase_count - 1
            cb = Codebook(spec, cb.tx, cb.mode, cb.beams, indices)
        with tempfile.TemporaryDirectory() as d, mock.patch.object(
                codebook_module, "_BLOCK_ELEMENTS", block_rows * spec.size):
            p = Path(d) / "cb.csv"
            write_codebook(cb, p)
            assert p.read_bytes() == percent_d_codebook_text(
                cb, lut_cells(phase_count)).encode()
            back = read_codebook(p)
        assert back.indices.dtype == cb.indices.dtype
        np.testing.assert_array_equal(back.indices, cb.indices)
        np.testing.assert_array_equal(back.beams, cb.beams)

    def test_uint32_phase_set_reads_back_equal(self, tmp_path):
        spec = ArraySpec(3, 2, phase_set=uniform_phase_set(2**16 + 1))
        beams = np.array([(az, el) for az in (-90, 0, 90) for el in (-3, 3)],
                         dtype=float)
        indices = np.random.default_rng(5).integers(0, 2**16 + 1, (6, 6))
        indices[0, 0], indices[-1, -1] = 2**16, 0  # past uint16, and the floor
        cb = Codebook(spec, Direction(20, -33), MODE_TX_COMPENSATED, beams,
                      indices)
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        back = read_codebook(p)
        assert back.indices.dtype == np.uint32
        np.testing.assert_array_equal(back.indices, cb.indices)
        np.testing.assert_array_equal(back.beams, cb.beams)


def test_grating_pair_configs_are_identical(default_codebook):
    """sin(+-90) differ by 2 in sin-space, exactly the delta=0.5 alias
    period, so the +-90 azimuth rows are the same physical config."""
    cb = default_codebook
    lo = cb.index_of(Direction(-90, -3))
    hi = cb.index_of(Direction(90, -3))
    np.testing.assert_array_equal(cb.indices[lo], cb.indices[hi])


def test_default_codebook_has_redundant_rows(default_codebook):
    distinct = {default_codebook.indices[i].tobytes()
                for i in range(len(default_codebook))}
    assert len(distinct) == 1791  # 100 rows alias onto earlier ones
