import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam import codebook as codebook_module
from risbeam.array_model import (
    ArraySpec,
    Direction,
    element_phase_profile,
    ideal_config,
    quantize_config,
    uniform_phase_set,
)
from risbeam.chamber import (
    POWER_DECIMALS,
    ChamberGeometry,
    LinkBudget,
    SEED_LIMIT,
    _PRODUCT_ROWS,
    _combine_with_floor,
    _magnitudes,
    _noise_means,
    _rsrp_matrices,
    field_regions,
    rsrp,
    sample_count_study,
    sweep_absorption,
    sweep_beampattern,
)
from risbeam.codebook import (
    MODE_UNCOMPENSATED,
    MODES,
    CodebookGrid,
    absorption_masks,
    build_codebook,
    read_codebook,
    write_codebook,
)
from risbeam.datasets import write_absorption, write_beampattern
from risbeam.errors import DomainError, NotFoundError

# calibration -60 dBm combined with the -90 dBm floor; every lossless
# measurement in the default budget lands exactly here
PEAK_DBM = 10.0 * math.log10(10.0 ** -6.0 + 10.0 ** -9.0)

ONE_BEAM = CodebookGrid(azimuth_deg=(0, 0, 3), elevation_deg=(-3, -3, 3))


def per_cell_noise_means(shape, budget, seed):
    """Oracle: a fresh Generator per cell at its counter [0, 0, row, col]."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)
    out = np.empty(shape)
    for r in range(shape[0]):
        for c in range(shape[1]):
            counter = np.array([0, 0, r, c], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key,
                                                       counter=counter))
            out[r, c] = rng.normal(0.0, budget.sample_sigma_db,
                                   budget.samples_per_point).mean()
    return out


def one_product_magnitudes(spec, phases, tx, rx_dirs):
    """Oracle: |y| from the (configs, size) phase matrix through
    exp(1j * phases), in one product over all rows."""
    g = np.exp(1j * element_phase_profile(spec, tx))
    h = np.column_stack([np.exp(-1j * element_phase_profile(spec, rx))
                         for rx in rx_dirs])
    excited = spec.mask * np.exp(1j * phases) * g
    return np.abs(excited @ h)


def product_slices(indices):
    """The product blocks of _magnitudes over a whole index matrix."""
    for rows in codebook_module._row_blocks(*indices.shape, _PRODUCT_ROWS):
        yield rows, indices[rows]


def phase_rsrp_matrix(spec, phases, tx, rx_dirs, budget):
    """Oracle: the sweep matrix from one_product_magnitudes, as before the
    phasor lookup and the blocked product."""
    m = spec.active_count
    mag = one_product_magnitudes(spec, phases, tx, rx_dirs)
    if m == 0:
        return np.full(mag.shape, float(budget.noise_floor_dbm))
    with np.errstate(divide="ignore"):
        signal = budget.calibration_dbm + 20.0 * np.log10(mag / m)
    return _combine_with_floor(signal, budget.noise_floor_dbm)


class TestGeometry:
    def test_defaults(self, default_geometry):
        g = default_geometry
        assert g.tx_dir == Direction(0.0, -33.0)
        assert g.rx_dir(12.0) == Direction(12.0, -3.0)
        rots = g.rotations()
        assert rots.size == 61
        assert rots[0] == -90.0 and rots[-1] == 90.0

    def test_rejects_bad_rotation_range(self):
        with pytest.raises(DomainError):
            ChamberGeometry(rotation_range_deg=(90, -90, 3))

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            LinkBudget(sample_sigma_db=-0.1)
        with pytest.raises(DomainError):
            LinkBudget(samples_per_point=0)


class TestRsrp:
    def test_perfect_alignment_hits_combined_peak(self, default_spec,
                                                  default_geometry,
                                                  quiet_budget):
        rx = default_geometry.rx_dir(0.0)
        cfg = ideal_config(default_spec, default_geometry.tx_dir, rx)
        value = rsrp(default_spec, cfg, default_geometry.tx_dir, rx,
                     quiet_budget)
        assert value == pytest.approx(PEAK_DBM, abs=1e-12)
        assert value == pytest.approx(-59.995659225206815, abs=1e-12)

    def test_all_absorbing_measures_floor(self, default_geometry,
                                          quiet_budget):
        spec = ArraySpec(10, 10, mask=np.zeros(100, bool))
        cfg = ideal_config(ArraySpec(10, 10), default_geometry.tx_dir,
                           default_geometry.rx_dir(0.0))
        assert rsrp(spec, cfg, default_geometry.tx_dir,
                    default_geometry.rx_dir(0.0), quiet_budget) == -90.0

    def test_floor_dominates_weak_signal(self, default_spec,
                                         default_geometry):
        budget = LinkBudget(calibration_dbm=-200.0, sample_sigma_db=0.0)
        rx = default_geometry.rx_dir(0.0)
        cfg = ideal_config(default_spec, default_geometry.tx_dir, rx)
        value = rsrp(default_spec, cfg, default_geometry.tx_dir, rx, budget)
        assert value == pytest.approx(-90.0, abs=1e-6)

    def test_matches_matrix_sweep_cell(self, default_spec, default_codebook,
                                       default_geometry, quiet_budget,
                                       quiet_beampattern):
        row, col = 935, 17
        beam = default_codebook.beams[row]
        rot = quiet_beampattern.rotations[col]
        scalar = rsrp(default_spec, default_codebook.config(row),
                      default_geometry.tx_dir, default_geometry.rx_dir(rot),
                      quiet_budget)
        assert quiet_beampattern.power_dbm[row, col] == round(
            scalar, POWER_DECIMALS)


class TestFieldRegions:
    def test_default_chamber_values(self, default_geometry):
        far, reactive = field_regions(default_geometry, 5.3e9)
        assert far == pytest.approx(6.5376561274266605, rel=1e-15)
        assert reactive == pytest.approx(0.7350585883501422, rel=1e-15)

    def test_paper_antennas_sit_in_radiating_near_field(self,
                                                         default_geometry):
        # the paper's transmitter and receiver distances, 1.1 m and 6.3 m,
        # both fall between the reactive bound and 2 D^2 / lambda
        far, reactive = field_regions(default_geometry, 5.3e9)
        for distance_m in (1.1, 6.3):
            assert reactive < distance_m < far

    def test_rejects_bad_frequency(self, default_geometry):
        with pytest.raises(DomainError):
            field_regions(default_geometry, 0.0)


class TestNoise:
    def test_sigma_zero_is_seed_independent(self, default_spec,
                                            default_geometry, quiet_budget):
        grid = CodebookGrid(azimuth_deg=(-6, 6, 3), elevation_deg=(-6, 6, 3))
        cb = build_codebook(default_spec, default_geometry.tx_dir, grid)
        t0 = sweep_beampattern(cb, default_geometry, quiet_budget, seed=0)
        t1 = sweep_beampattern(cb, default_geometry, quiet_budget, seed=99)
        assert t0 == t1

    def test_same_seed_reproduces_noisy_sweep(self, default_spec,
                                              default_geometry):
        grid = CodebookGrid(azimuth_deg=(0, 0, 3), elevation_deg=(-6, 6, 3))
        cb = build_codebook(default_spec, default_geometry.tx_dir, grid)
        budget = LinkBudget()
        t0 = sweep_beampattern(cb, default_geometry, budget, seed=7)
        t1 = sweep_beampattern(cb, default_geometry, budget, seed=7)
        t2 = sweep_beampattern(cb, default_geometry, budget, seed=8)
        assert t0 == t1
        assert t0 != t2

    def test_cell_streams_do_not_shift_when_table_grows(self):
        budget = LinkBudget()
        small = _noise_means((3, 4), budget, seed=5)
        large = _noise_means((5, 6), budget, seed=5)
        np.testing.assert_array_equal(small, large[:3, :4])

    def test_noise_mean_scale(self):
        # 30-sample mean of N(0, 0.5): std 0.5/sqrt(30) ~ 0.091
        budget = LinkBudget()
        means = _noise_means((40, 40), budget, seed=1).ravel()
        assert abs(means.mean()) < 0.01
        assert means.std() == pytest.approx(0.5 / math.sqrt(30), rel=0.1)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 70),
           samples=st.sampled_from([1, 2, 7, 30, 129, 200]),
           sigma=st.sampled_from([1e-3, 0.25, 0.5, 2.0, 7.5]),
           seed=st.one_of(st.integers(0, 2 ** 16),
                          st.integers(2 ** 64, SEED_LIMIT - 1),
                          st.just(SEED_LIMIT - 1)),
           block_cells=st.one_of(st.none(), st.integers(1, 400)))
    # blocks of two rows and a short last one; then rows wider than a block
    @example(rows=5, cols=3, samples=7, sigma=0.5, seed=3, block_cells=6)
    @example(rows=3, cols=70, samples=2, sigma=0.5, seed=3, block_cells=9)
    # a low key word of 2**63 or more under a smaller high word
    @example(rows=1, cols=2, samples=1, sigma=0.5, seed=2 ** 65 - 1024,
             block_cells=None)
    def test_matches_per_cell_generators(self, rows, cols, samples, sigma,
                                         seed, block_cells):
        """Equal whatever the block size: `block_cells` cells of samples
        (None keeps the default) bound the block of rows drawn at once."""
        budget = LinkBudget(sample_sigma_db=sigma, samples_per_point=samples)
        block = (codebook_module._BLOCK_ELEMENTS if block_cells is None
                 else block_cells * samples)
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS", block):
            means = _noise_means((rows, cols), budget, seed)
        np.testing.assert_array_equal(
            means, per_cell_noise_means((rows, cols), budget, seed))

    def test_rejects_bad_seed(self, default_codebook, default_geometry,
                              quiet_budget):
        with pytest.raises(DomainError):
            sweep_beampattern(default_codebook, default_geometry,
                              quiet_budget, seed=-1)

    @pytest.mark.parametrize("seed", [SEED_LIMIT, SEED_LIMIT + 5, 2 ** 200])
    def test_rejects_seed_beyond_key_width(self, seed, default_codebook,
                                           default_geometry):
        # a 128-bit key would silently alias these to smaller seeds
        with pytest.raises(DomainError, match="2\\*\\*128"):
            _noise_means((2, 2), LinkBudget(), seed)
        with pytest.raises(DomainError):
            sweep_absorption(default_codebook, default_geometry,
                             LinkBudget(), seed=seed)


class TestSweepBeampattern:
    def test_shape_and_metadata(self, quiet_beampattern):
        assert quiet_beampattern.power_dbm.shape == (1891, 61)
        assert quiet_beampattern.theta_t_deg == 0.0
        quiet_beampattern.validate()

    def test_compensated_diagonal_is_lossless_to_quantization(
            self, quiet_beampattern, default_codebook):
        # at matched (beam == rx) cells the only loss is 3-bit quantization
        worst = 20 * math.log10(math.cos(math.pi / 8))
        for rot in (-45.0, 0.0, 45.0):
            row = default_codebook.index_of(Direction(rot, -3.0))
            cell = quiet_beampattern.power_dbm[
                row, np.nonzero(quiet_beampattern.rotations == rot)[0][0]]
            assert PEAK_DBM + worst - 1e-4 <= cell <= PEAK_DBM + 1e-6

    def test_codebook_sweeps_with_its_mask(self, default_geometry,
                                           quiet_budget):
        spec = ArraySpec(8, 8)
        masked = spec.with_mask(np.arange(spec.size) % 2 == 0)
        cb = build_codebook(spec, default_geometry.tx_dir, ONE_BEAM)
        masked_cb = build_codebook(masked, default_geometry.tx_dir, ONE_BEAM)
        np.testing.assert_array_equal(masked_cb.indices, cb.indices)
        table = sweep_beampattern(masked_cb, default_geometry, quiet_budget)
        rx_dirs = [default_geometry.rx_dir(r)
                   for r in default_geometry.rotations()]
        phases = spec.phase_set[cb.indices]
        np.testing.assert_array_equal(
            table.power_dbm,
            np.round(phase_rsrp_matrix(masked, phases, default_geometry.tx_dir,
                                       rx_dirs, quiet_budget), POWER_DECIMALS))
        assert table != sweep_beampattern(cb, default_geometry, quiet_budget)

    def test_codebook_tx_mismatch_rejected(self, default_spec,
                                           default_geometry, quiet_budget):
        cb = build_codebook(default_spec, Direction(10, -33), CodebookGrid())
        with pytest.raises(DomainError, match="tx"):
            sweep_beampattern(cb, default_geometry, quiet_budget)

    def test_uncompensated_beams_point_at_mirror_elevation(
            self, default_geometry, quiet_budget):
        """Without tx compensation the pattern peak rides the specular
        reflection: elevation asin(sin(-3) - sin(-33)) = 29.49, which lands
        on the 30 degree grid point for every rotation."""
        spec = ArraySpec(4, 4)
        grid = CodebookGrid(azimuth_deg=(-90, 90, 15),
                            elevation_deg=(-45, 45, 15))
        cb = build_codebook(spec, default_geometry.tx_dir, grid,
                            MODE_UNCOMPENSATED)
        table = sweep_beampattern(cb, default_geometry, quiet_budget)
        for j in range(table.rotations.size):
            peak = table.beams[table.power_dbm[:, j].argmax()]
            assert peak[1] == 30.0


class TestSweepAbsorption:
    def test_shape_and_counts(self, quiet_absorption):
        assert quiet_absorption.power_dbm.shape == (1891, 4)
        np.testing.assert_array_equal(quiet_absorption.active_counts,
                                      [4, 16, 64, 100])
        quiet_absorption.validate()

    def test_three_bit_peaks_pinned(self, quiet_absorption):
        """With 3-bit phases the per-column peak drifts slightly DOWN as the
        subarray grows (quantization luck differs per size); pinned so any
        change in the quantizer or budget shows up here."""
        peaks = quiet_absorption.power_dbm.max(axis=0)
        np.testing.assert_allclose(
            peaks, [-59.996293, -59.99883, -60.008982, -60.016598],
            atol=1e-9)

    def test_dense_phase_peaks_are_size_invariant(self, default_geometry,
                                                  quiet_budget):
        # with effectively continuous phases every subarray steers perfectly,
        # so all four peaks sit at the calibrated floor-combined level
        spec = ArraySpec(10, 10, phase_set=uniform_phase_set(2 ** 17))
        grid = CodebookGrid(azimuth_deg=(-6, 6, 3), elevation_deg=(-9, 3, 3))
        cb = build_codebook(spec, default_geometry.tx_dir, grid)
        table = sweep_absorption(cb, default_geometry, quiet_budget)
        peaks = table.power_dbm.max(axis=0)
        np.testing.assert_allclose(peaks, round(PEAK_DBM, POWER_DECIMALS),
                                   atol=1e-9)

    def test_column_zero_equals_fixed_rotation(self, quiet_absorption,
                                               quiet_beampattern):
        np.testing.assert_array_equal(quiet_absorption.column(100).values,
                                      quiet_beampattern.column(0.0).values)

    def test_columns_are_the_paper_sides(self, quiet_absorption):
        np.testing.assert_array_equal(quiet_absorption.active_counts,
                                      [4, 16, 64, 100])

    def test_codebook_with_absorbing_elements_refused(self, default_geometry,
                                                      quiet_budget):
        # each subarray mask would replace the array's, so element 0 would
        # reflect again in every column
        spec = ArraySpec(10, 10)
        masked = spec.with_mask(np.arange(spec.size) != 0)
        cb = build_codebook(masked, default_geometry.tx_dir, ONE_BEAM)
        with pytest.raises(DomainError,
                           match=r"absorbing elements \(1 of 100\)"):
            sweep_absorption(cb, default_geometry, quiet_budget)
        sweep_beampattern(cb, default_geometry, quiet_budget)  # honours it


class TestBruteForceAgreement:
    def test_sweep_matches_per_cell_rsrp(self, default_geometry,
                                         quiet_budget):
        """The vectorized sweep is only a speedup: every cell must equal the
        one-at-a-time scalar measurement."""
        spec = ArraySpec(4, 4)
        grid = CodebookGrid(azimuth_deg=(-90, 90, 15),
                            elevation_deg=(-45, 45, 15))
        cb = build_codebook(spec, default_geometry.tx_dir, grid)
        table = sweep_beampattern(cb, default_geometry, quiet_budget)
        for row in range(len(cb)):
            for col, rot in enumerate(table.rotations):
                direct = rsrp(spec, cb.config(row), default_geometry.tx_dir,
                              default_geometry.rx_dir(rot), quiet_budget)
                assert table.power_dbm[row, col] == round(
                    direct, POWER_DECIMALS)


def _masked(spec, kind, rng):
    if kind == "full":
        return spec
    if kind == "none":
        return spec.with_mask(np.zeros(spec.size, bool))
    if kind == "absorption":  # a top-left side x side subarray
        side = int(rng.integers(1, min(spec.nx, spec.ny) + 1))
        return spec.with_mask(((np.arange(spec.nx) < side)[:, None]
                               & (np.arange(spec.ny) < side)[None, :]).ravel())
    return spec.with_mask(rng.random(spec.size) < 0.5)


class TestPhasorLookup:
    """_rsrp_matrices looks each index up in exp(1j * phase_set) and runs
    the product in blocks of whole 64-config multiples, for every mask in
    one pass over the blocks; the result must equal the one-product
    exp(1j * phases) path exactly."""

    @settings(max_examples=80, deadline=None)
    @given(nx=st.integers(1, 20), ny=st.integers(1, 20),
           phase_count=st.one_of(st.integers(1, 4096),
                                 st.sampled_from([2**15 + 1, 2**16 + 1])),
           configs=st.integers(1, 400),
           mask=st.sampled_from(["full", "random", "absorption", "none"]),
           rx_count=st.integers(1, 5),
           block_rows=st.one_of(st.none(), st.integers(1, 9),
                                st.integers(64, 320)),
           seed=st.integers(0, 2**32 - 1))
    # blocks of 64, 64, 64, 64 and 65: alone, the 1-config remainder would
    # run as a matrix-vector product, whose sums round differently
    @example(nx=10, ny=10, phase_count=8, configs=321, mask="full",
             rx_count=3, block_rows=1, seed=0)
    # blocks of 128, 128 and 94
    @example(nx=10, ny=10, phase_count=8, configs=350, mask="random",
             rx_count=2, block_rows=130, seed=1)
    def test_matches_phase_matrix(self, nx, ny, phase_count, configs, mask,
                                  rx_count, block_rows, seed):
        rng = np.random.default_rng(seed)
        phase_set = uniform_phase_set(phase_count)
        spec = _masked(ArraySpec(nx, ny, phase_set=phase_set), mask, rng)
        indices = rng.integers(0, phase_count, (configs, spec.size))
        indices = indices.astype(np.min_scalar_type(phase_count - 1))
        tx = Direction(*rng.uniform(-90, 90, 2))
        rx_dirs = [Direction(*d) for d in rng.uniform(-90, 90, (rx_count, 2))]
        budget = LinkBudget(sample_sigma_db=0.0)
        block = (codebook_module._BLOCK_ELEMENTS if block_rows is None
                 else block_rows * spec.size)
        # the complement of "full" absorbs everywhere: the noise floor
        specs = [spec, spec.with_mask(~spec.mask)]
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS", block):
            mags = _magnitudes(specs, configs, product_slices(indices), tx,
                               rx_dirs)
            got = _rsrp_matrices(specs, configs, product_slices(indices), tx,
                                 rx_dirs, budget)
        phases = phase_set[indices]
        assert mags.shape == (2, configs, rx_count) and len(got) == 2
        for masked, mag, power in zip(specs, mags, got):
            # the dB conversion can round away last-bit changes of |y|, so
            # |y| is compared too
            np.testing.assert_array_equal(
                mag, one_product_magnitudes(masked, phases, tx, rx_dirs))
            np.testing.assert_array_equal(
                power, phase_rsrp_matrix(masked, phases, tx, rx_dirs, budget))

    def test_sweeps_match_phase_matrix(self, default_spec, default_codebook,
                                       default_geometry, quiet_budget,
                                       quiet_beampattern, quiet_absorption):
        phases = default_spec.phase_set[default_codebook.indices]
        tx = default_geometry.tx_dir
        rx_dirs = [default_geometry.rx_dir(r)
                   for r in default_geometry.rotations()]
        np.testing.assert_array_equal(
            quiet_beampattern.power_dbm,
            np.round(phase_rsrp_matrix(default_spec, phases, tx, rx_dirs,
                                       quiet_budget), POWER_DECIMALS))
        rx = [default_geometry.rx_dir(0.0)]
        for col, masked in enumerate(absorption_masks(default_spec)):
            np.testing.assert_array_equal(
                quiet_absorption.power_dbm[:, col],
                np.round(phase_rsrp_matrix(masked, phases, tx, rx,
                                           quiet_budget)[:, 0],
                         POWER_DECIMALS))

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_block_size_leaves_bytes_unchanged(self, block_rows, tmp_path,
                                               default_spec,
                                               default_geometry):
        """Codebook, beampattern and absorption files of the default
        campaign with 1- and 7-beam blocks against the default blocks."""
        budget = LinkBudget(sample_sigma_db=0.0)

        def files(out):
            out.mkdir()
            cb = build_codebook(default_spec, default_geometry.tx_dir)
            write_codebook(cb, out / "codebook.csv")
            write_beampattern(sweep_beampattern(cb, default_geometry, budget),
                              out / "beampattern.csv")
            write_absorption(sweep_absorption(cb, default_geometry, budget),
                             out / "absorption.csv")
            return {p.name: p.read_bytes() for p in out.iterdir()}

        reference = files(tmp_path / "default")
        with mock.patch.object(codebook_module, "_BLOCK_ELEMENTS",
                               block_rows * default_spec.size):
            assert files(tmp_path / "small") == reference


class TestSampleCountStudy:
    def test_zero_sigma_gives_zero_errors(self):
        study = sample_count_study(-60.0, 0.0, (10, 20, 30, 80), trials=50)
        for c in (10, 20, 30, 80):
            assert np.all(study.errors[c] == 0.0)

    def test_full_count_error_is_exactly_zero(self):
        study = sample_count_study(-60.0, 0.5, (10, 80), trials=100, seed=3)
        assert np.all(study.errors[80] == 0.0)
        assert np.all(study.errors[10] >= 0.0)
        assert study.errors[10].max() > 0.0

    def test_percentile_non_increasing(self):
        study = sample_count_study(-60.0, 0.5, (10, 20, 30, 80), trials=500,
                                   seed=0)
        p90 = [study.percentile(c, 90) for c in (10, 20, 30, 80)]
        assert all(a >= b for a, b in zip(p90, p90[1:]))
        assert p90[-1] == 0.0

    def test_cdf_shape(self):
        study = sample_count_study(-60.0, 0.5, (10,), trials=64, seed=1)
        errors, fractions = study.cdf(10)
        assert errors.size == 64
        assert np.all(np.diff(errors) >= 0)
        assert fractions[0] == pytest.approx(1 / 64)
        assert fractions[-1] == 1.0

    def test_unknown_count_raises(self):
        study = sample_count_study(-60.0, 0.5, (10,), trials=8)
        with pytest.raises(NotFoundError):
            study.percentile(20, 90)

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_count_study(0.0, 0.5, (10,), trials=8)
        with pytest.raises(DomainError):
            sample_count_study(-60.0, -0.5, (10,), trials=8)
        with pytest.raises(DomainError):
            sample_count_study(-60.0, 0.5, (90,), trials=8)
        with pytest.raises(DomainError):
            sample_count_study(-60.0, 0.5, (10,), trials=0)
        with pytest.raises(DomainError):
            sample_count_study(-60.0, 0.5, (), trials=8)

    @pytest.mark.parametrize("count", [2.7, True, "5", 10.0, None])
    def test_non_integer_count_refused(self, count):
        # int() would study 2, 1 and 5 samples under other keys, so the
        # study could not be read back at the count it was asked for
        with pytest.raises(DomainError, match="count must be an integer"):
            sample_count_study(-60.0, 0.5, (10, count), trials=8)

    def test_numpy_integer_counts_kept(self):
        study = sample_count_study(-60.0, 0.5, np.array([10, 80]), trials=8)
        assert study.counts == (10, 80)
        assert study.percentile(np.int64(80), 50) == 0.0


class TestCodebookFileRoundTrip:
    """The sweep reads the array from the codebook, so a codebook read back
    from its file must measure exactly what the one in memory does."""

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(1, 5), ny=st.integers(1, 5),
           phase_count=st.integers(1, 64), mode=st.sampled_from(MODES))
    def test_read_back_codebook_sweeps_equal(self, nx, ny, phase_count,
                                             mode):
        geometry = ChamberGeometry()
        budget = LinkBudget(sample_sigma_db=0.0)
        spec = ArraySpec(nx, ny, phase_set=uniform_phase_set(phase_count))
        grid = CodebookGrid(azimuth_deg=(-30, 30, 15),
                            elevation_deg=(-6, 6, 6))
        # the paper's subarray sides need at least a 10x10 array
        wide = ArraySpec(nx + 9, ny + 9, phase_set=spec.phase_set)
        cb = build_codebook(spec, geometry.tx_dir, grid, mode)
        wide_cb = build_codebook(wide, geometry.tx_dir, grid, mode)
        with tempfile.TemporaryDirectory() as d:
            write_codebook(cb, Path(d) / "cb.csv")
            write_codebook(wide_cb, Path(d) / "wide.csv")
            back = read_codebook(Path(d) / "cb.csv")
            wide_back = read_codebook(Path(d) / "wide.csv")
        np.testing.assert_array_equal(
            sweep_beampattern(back, geometry, budget).power_dbm,
            sweep_beampattern(cb, geometry, budget).power_dbm)
        np.testing.assert_array_equal(
            sweep_absorption(wide_back, geometry, budget).power_dbm,
            sweep_absorption(wide_cb, geometry, budget).power_dbm)
