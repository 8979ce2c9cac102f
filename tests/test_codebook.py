import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.array_model import (
    ArraySpec,
    Direction,
    ideal_config,
    quantize_config,
    received_signal,
    uniform_phase_set,
)
from risbeam.codebook import (
    MODE_TX_COMPENSATED,
    MODE_UNCOMPENSATED,
    Codebook,
    CodebookGrid,
    absorption_masks,
    build_codebook,
    lookup,
    read_codebook,
    write_codebook,
)
from risbeam.errors import DomainError, NotFoundError, ParseError

QUANT_LOSS_FLOOR_DB = 20.0 * math.log10(math.cos(math.pi / 8))


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
        expected = quantize_config(spec, ideal_config(spec, Direction(0, 0),
                                                      Direction(0, 0)))
        np.testing.assert_array_equal(cb.indices[0], expected.quantized_indices)

    def test_rows_match_scalar_construction(self, default_codebook,
                                            default_spec, default_geometry):
        # vectorized builder against the one-beam-at-a-time route
        for row in (0, 517, 935, 1890):
            az, el = default_codebook.beams[row]
            cfg = quantize_config(
                default_spec,
                ideal_config(default_spec, default_geometry.tx_dir,
                             Direction(az, el)))
            np.testing.assert_array_equal(default_codebook.indices[row],
                                          cfg.quantized_indices)

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
            q = quantize_config(spec, cfg)
            np.testing.assert_array_equal(q.quantized_indices,
                                          cfg.quantized_indices)

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


class TestLookup:
    def test_index_arithmetic(self, default_codebook):
        # azimuth 0 is position 30 of 61, elevation -30 is position 5 of 31
        assert default_codebook.index_of(Direction(0, -30)) == 30 * 31 + 5

    def test_origin_is_first(self, default_codebook):
        assert default_codebook.index_of(Direction(-90, -45)) == 0

    def test_off_grid_raises_with_suggestions(self, default_codebook):
        with pytest.raises(NotFoundError, match="nearest"):
            lookup(default_codebook, Direction(1, 0))

    def test_lookup_returns_stored_config(self, default_codebook):
        cfg = lookup(default_codebook, Direction(0, -30))
        np.testing.assert_array_equal(cfg.quantized_indices,
                                      default_codebook.indices[30 * 31 + 5])

    def test_entries_iterates_in_order(self):
        spec = ArraySpec(2, 2)
        grid = CodebookGrid(azimuth_deg=(0, 3, 3), elevation_deg=(0, 3, 3))
        cb = build_codebook(spec, Direction(0, 0), grid)
        beams = [(d.azimuth_deg, d.elevation_deg) for d, _ in cb.entries()]
        assert beams == [(0, 0), (0, 3), (3, 0), (3, 3)]


class TestAbsorptionMasks:
    def test_default_counts(self, default_spec):
        masks = absorption_masks(default_spec)
        assert [m.active_count for m in masks] == [4, 16, 64, 100]

    def test_two_by_two_indices(self, default_spec):
        mask = absorption_masks(default_spec, sides=(2,))[0].mask
        assert np.flatnonzero(mask).tolist() == [0, 1, 10, 11]

    def test_full_side_is_all_active(self, default_spec):
        assert absorption_masks(default_spec, sides=(10,))[0].mask.all()

    def test_nested(self, default_spec):
        masks = absorption_masks(default_spec)
        for small, big in zip(masks, masks[1:]):
            assert np.all(big.mask[small.mask])

    def test_oversized_side_rejected(self, default_spec):
        with pytest.raises(DomainError):
            absorption_masks(default_spec, sides=(11,))
        with pytest.raises(DomainError):
            absorption_masks(ArraySpec(4, 8), sides=(6,))


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

    def test_ragged_row_rejected(self, default_codebook, tmp_path):
        p = tmp_path / "cb.csv"
        write_codebook(default_codebook, p)
        lines = p.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 6"):
            read_codebook(p)

    def test_non_utf8_rejected(self, default_codebook, tmp_path):
        p = tmp_path / "cb.csv"
        write_codebook(default_codebook, p)
        p.write_bytes(p.read_bytes().replace(b"tx-compensated", b"tx-\xffcomp"))
        with pytest.raises(ParseError, match="UTF-8"):
            read_codebook(p)

    def test_out_of_range_index_rejected(self, tmp_path):
        spec = ArraySpec(2, 1)
        cb = build_codebook(spec, Direction(0, 0),
                            CodebookGrid(azimuth_deg=(0, 0, 3),
                                         elevation_deg=(0, 0, 3)))
        p = tmp_path / "cb.csv"
        write_codebook(cb, p)
        text = p.read_text().splitlines()
        text[-1] = "0,0,9,0"
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError):
            read_codebook(p)


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
