"""Release gate: one test per acceptance criterion, oracle numbers frozen.

Each test prints its measured values before asserting, so a red run still
shows what was actually observed.  Expected values were computed once with
independent scripts and hard-coded here; the tests must not re-derive them
from the code under test.
"""

import time

import numpy as np
import pytest

from risbeam.analysis import (SgFilterSpec, fit_exponential, hpbw,
                              localization_success_rate, savitzky_golay)
from risbeam.array_model import (ArraySpec, Direction, ideal_config,
                                 quantization_loss, received_signal,
                                 uniform_phase_set)
from risbeam.chamber import (ChamberGeometry, LinkBudget, field_regions,
                             rsrp, sample_count_study, sweep_beampattern)
from risbeam.codebook import (CodebookGrid, build_codebook, read_codebook,
                              write_codebook)
from risbeam.datasets import read_table, write_absorption, write_beampattern
from risbeam.surrogate import (TrainSpec, flatten_table, gradient_check,
                               load_model, save_model, train)

QUIET = LinkBudget(sample_sigma_db=0.0)


def test_criterion_01_codebook_cardinalities():
    tx = ChamberGeometry().tx_dir
    spec = ArraySpec(10, 10)
    t0 = time.perf_counter()
    default = build_codebook(spec, tx, CodebookGrid())
    extended = build_codebook(spec, tx, CodebookGrid((-90, 90, 3), (-90, 90, 3)))
    wall = time.perf_counter() - t0
    print(f"criterion 01: default {len(default)}, extended {len(extended)}, "
          f"build wall {wall:.3f}s")
    assert len(default) == 1891
    assert len(extended) == 3721
    assert wall < 1.0


def test_criterion_02_field_region_boundaries():
    far_m, reactive_m = field_regions(ChamberGeometry(), 5.3e9)
    print(f"criterion 02: far field {far_m!r} m, reactive {reactive_m!r} m")
    assert abs(far_m - 6.5) <= 0.05
    assert abs(reactive_m - 0.73) <= 0.01


def test_criterion_03_coherent_gain_and_quantization_loss():
    spec = ArraySpec(10, 10)
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_gain_err = 0.0
    losses = []
    for _ in range(50):
        tx = Direction(rng.uniform(-90, 90), rng.uniform(-45, 45))
        beam = Direction(rng.uniform(-90, 90), rng.uniform(-45, 45))
        y = received_signal(spec, ideal_config(spec, tx, beam), tx, beam)
        worst_gain_err = max(worst_gain_err, abs(abs(y) - spec.size) / spec.size)
        losses.append(quantization_loss(spec, tx, beam))
    wall = time.perf_counter() - t0
    print(f"criterion 03: worst ideal-gain rel err {worst_gain_err:.3e}, "
          f"loss range [{min(losses):.6f}, {max(losses):.6f}] dB, "
          f"wall {wall:.2f}s")
    assert worst_gain_err <= 1e-9
    assert min(losses) >= -0.688
    assert max(losses) <= 1e-12
    assert wall < 5.0


# Measured once on the 3-bit 4x4 table: the three columns where a neighbor
# beam beats the nominal one by pure quantization luck.  They must match the
# brute-force argmax exactly; only their labels differ from (rotation, 0).
_LUCKY_COLUMNS_3BIT = {-90.0, -75.0, 90.0}
_LUCKY_BEAM_3BIT = (75.0, 0.0)


def test_criterion_04_steering_argmax_4x4():
    grid = CodebookGrid((-90, 90, 15), (-45, 45, 15))
    geometry = ChamberGeometry(rotation_range_deg=(-90, 90, 15))
    t0 = time.perf_counter()
    results = {}
    for label, spec in (("3-bit", ArraySpec(4, 4)),
                        ("dense", ArraySpec(4, 4,
                                            phase_set=uniform_phase_set(4096)))):
        codebook = build_codebook(spec, geometry.tx_dir, grid)
        table = sweep_beampattern(codebook, geometry, QUIET, seed=0)
        sweep_rows = np.argmax(table.power_dbm, axis=0)
        brute_rows = np.empty_like(sweep_rows)
        for col, rotation in enumerate(geometry.rotations()):
            rx = geometry.rx_dir(rotation)
            powers = [rsrp(spec, codebook.config(r), geometry.tx_dir, rx, QUIET)
                      for r in range(len(codebook))]
            brute_rows[col] = int(np.argmax(powers))
        results[label] = (codebook, table, sweep_rows, brute_rows)
    wall = time.perf_counter() - t0

    for label, (codebook, table, sweep_rows, brute_rows) in results.items():
        np.testing.assert_array_equal(sweep_rows, brute_rows,
                                      err_msg=f"{label} sweep vs brute force")

    # dense phases: the nominal beam wins every column, up to the one
    # +/-90 pair whose configs are bit-identical (the argmax returns the
    # first of the two labels)
    codebook, table, sweep_rows, _ = results["dense"]
    for col, rotation in enumerate(geometry.rotations()):
        row = int(sweep_rows[col])
        nominal = codebook.index_of(Direction(float(rotation), 0.0))
        assert np.array_equal(codebook.indices[row], codebook.indices[nominal]), \
            f"dense argmax at rotation {rotation} is not the nominal config"

    codebook, table, sweep_rows, _ = results["3-bit"]
    lucky = {}
    for col, rotation in enumerate(geometry.rotations()):
        row = int(sweep_rows[col])
        nominal = codebook.index_of(Direction(float(rotation), 0.0))
        if np.array_equal(codebook.indices[row], codebook.indices[nominal]):
            continue
        margin = table.power_dbm[row, col] - table.power_dbm[nominal, col]
        lucky[float(rotation)] = (tuple(codebook.beams[row]), margin)
    print(f"criterion 04: wall {wall:.2f}s, 3-bit lucky columns {lucky}")
    assert set(lucky) == _LUCKY_COLUMNS_3BIT
    for beam, margin in lucky.values():
        assert beam == _LUCKY_BEAM_3BIT
        assert margin > 0.0
    assert wall < 10.0


def test_criterion_05_uncompensated_elevation_offset(default_spec,
                                                     default_geometry):
    codebook = build_codebook(default_spec, default_geometry.tx_dir,
                              CodebookGrid(), "uncompensated")
    table = sweep_beampattern(codebook, default_geometry, QUIET, seed=0)
    rows = np.argmax(table.power_dbm, axis=0)
    elevations = codebook.beams[rows, 1]
    print(f"criterion 05: argmax elevations {sorted(set(elevations))}, "
          f"column 0 beam {tuple(codebook.beams[rows[0]])}")
    # skipping tx compensation tilts the real beam up by roughly the tx
    # elevation; with tx at -33 and the boom at -3 the image sits at +30,
    # one grid step inside the |30 +/- 3| band
    assert np.all(np.abs(np.abs(elevations) - 30.0) <= 3.0)
    assert np.all(elevations == 30.0)


def test_criterion_06_smoother_preserves_quartics():
    rng = np.random.default_rng(7)
    x = np.arange(25, dtype=float) - 12.0
    worst = 0.0
    for _ in range(100):
        coeffs = rng.uniform(-5.0, 5.0, size=5)
        y = np.polyval(coeffs, x)
        smoothed = savitzky_golay(y, SgFilterSpec(window=7, order=4))
        worst = max(worst, float(np.max(np.abs(smoothed[3:-3] - y[3:-3]))))
    print(f"criterion 06: worst interior deviation {worst:.3e}")
    assert worst < 1e-8


# Azimuth-cut widths of the noise-free absorption sweep, one per active
# subarray side {2, 4, 8, 10}, plus the fine-grid broadside width of the
# full array with ideal (unquantized) phases.
_ABSORPTION_HPBW_DEG = [72.00789, 25.481549, 11.992853, 9.075409]
_BROADSIDE_HPBW_DEG = 10.209062370104343


def test_criterion_07_hpbw_pipeline(quiet_absorption, default_geometry):
    widths = []
    for count in (4, 16, 64, 100):
        beams, power = quiet_absorption.column(count)
        mask = beams[:, 1] == default_geometry.rx_elevation_deg
        azimuths = beams[mask, 0]
        order = np.argsort(azimuths)
        widths.append(hpbw(azimuths[order], power[mask][order]))
    assert all(a > b for a, b in zip(widths, widths[1:]))
    np.testing.assert_allclose(widths, _ABSORPTION_HPBW_DEG, rtol=1e-6)

    spec = ArraySpec(10, 10)
    config = ideal_config(spec, Direction(0, 0), Direction(0, 0))
    angles = np.arange(-20.0, 20.05, 0.1)
    gain_db = np.array([
        20.0 * np.log10(abs(received_signal(spec, config, Direction(0, 0),
                                            Direction(a, 0))) / spec.size)
        for a in angles])
    broadside = hpbw(angles, gain_db)
    print(f"criterion 07: absorption widths {widths}, broadside {broadside!r}")
    assert abs(broadside - 10.2) <= 0.5
    assert broadside == pytest.approx(_BROADSIDE_HPBW_DEG, abs=1e-9)

    # magnitudes chosen in the regime the width-vs-size fit lives in
    x = np.array([2.0, 4.0, 8.0, 10.0])
    fit = fit_exponential(x, 70.96 * np.exp(-0.27 * x) + 3.99)
    print(f"criterion 07: fit a={fit.a!r} b={fit.b!r} c={fit.c!r} "
          f"iterations {fit.iterations}")
    for got, want in zip((fit.a, fit.b, fit.c), (70.96, -0.27, 3.99)):
        assert got == pytest.approx(want, rel=1e-6)


def test_criterion_08a_gradient_check():
    errors = [gradient_check(seed=s) for s in range(10)]
    print(f"criterion 08a: max gradient error {max(errors):.3e} over 10 seeds")
    assert max(errors) < 1e-4


def test_criterion_08b_training_nmse(quiet_beampattern):
    records = flatten_table(quiet_beampattern)
    t0 = time.perf_counter()
    _, train_nmse, val_nmse = train(records)
    wall = time.perf_counter() - t0
    print(f"criterion 08b: {records.shape[0]} records, wall {wall:.1f}s, "
          f"train NMSE {train_nmse:.6f}, val NMSE {val_nmse:.6f} "
          f"(threshold 0.01)")
    assert wall < 600.0
    # Known red: the pinned 3x16 network stalls around 0.12-0.15 val NMSE
    # under the variance-normalized definition, an order of magnitude short
    # of the 1% target.  Kept failing on purpose; see README.md.
    assert val_nmse < 0.01


# Noise-free floor of the 3-bit table: five columns lose the argmax to a
# lucky neighbor.  The noisy Monte-Carlo hit counts (out of 61 columns,
# tolerance one grid step) are frozen per seed.
_QUIET_3BIT_HITS_TOL0 = 56
_QUIET_3BIT_HITS_TOL3 = 60
_NOISY_HITS_PER_SEED = [61, 60, 59, 59, 58, 59, 60, 59, 59, 60,
                        60, 59, 59, 59, 59, 60, 59, 58, 60, 61]


def test_criterion_09_localization(dense_beampattern, dense_codebook,
                                   quiet_beampattern, default_codebook,
                                   default_spec, default_geometry):
    dense_rate = localization_success_rate(dense_beampattern, dense_codebook,
                                           tolerance_deg=0.0)
    floor0 = localization_success_rate(quiet_beampattern, default_codebook,
                                       tolerance_deg=0.0)
    floor3 = localization_success_rate(quiet_beampattern, default_codebook,
                                       tolerance_deg=3.0)
    print(f"criterion 09: noise-free dense rate {dense_rate}, 3-bit floor "
          f"{round(floor0 * 61)}/61 (tol 0) {round(floor3 * 61)}/61 (tol 3)")
    assert dense_rate == 1.0
    assert round(floor0 * 61) == _QUIET_3BIT_HITS_TOL0
    assert round(floor3 * 61) == _QUIET_3BIT_HITS_TOL3

    budget = LinkBudget()  # 0.5 dB sigma, 30 samples per point
    rates = []
    for seed in range(20):
        noisy = sweep_beampattern(default_codebook, default_geometry, budget,
                                  seed=seed)
        rates.append(localization_success_rate(noisy, default_codebook,
                                               tolerance_deg=3.0))
    hits = [round(r * 61) for r in rates]
    print(f"criterion 09: noisy hits {hits}, min rate {min(rates):.6f}, "
          f"mean rate {np.mean(rates):.6f}")
    assert min(rates) >= 0.95
    assert hits == _NOISY_HITS_PER_SEED


_SAMPLE_COUNT_P90 = [0.004042478415367306, 0.0027331991859829395,
                     0.001986020245318114, 0.0]


def test_criterion_10_sample_count_study():
    study = sample_count_study(-60.0, 0.5, (10, 20, 30, 80), trials=2000,
                               seed=0)
    p90 = [study.percentile(c, 90) for c in (10, 20, 30, 80)]
    print(f"criterion 10: p90 relative errors {p90}")
    assert all(a >= b for a, b in zip(p90, p90[1:]))
    assert p90[-1] == 0.0
    np.testing.assert_allclose(p90, _SAMPLE_COUNT_P90, rtol=1e-12, atol=0.0)


def test_criterion_11_io_byte_stability(tmp_path, quiet_beampattern,
                                        quiet_absorption, default_codebook):
    def cycle(write, read, value, name):
        first = tmp_path / f"{name}.a"
        second = tmp_path / f"{name}.b"
        write(value, first)
        write(read(first), second)
        assert second.read_bytes() == first.read_bytes(), name
        return first.stat().st_size

    sizes = {
        "beampattern": cycle(write_beampattern, read_table,
                             quiet_beampattern, "beampattern"),
        "absorption": cycle(write_absorption, read_table,
                            quiet_absorption, "absorption"),
        "codebook": cycle(write_codebook, read_codebook, default_codebook,
                          "codebook"),
    }

    rng = np.random.default_rng(3)
    records = np.column_stack([
        rng.uniform(-90, 90, 300),
        rng.uniform(-45, 45, 300),
        rng.uniform(-90, 90, 300),
        rng.uniform(-75, -55, 300),
    ])
    model, _, _ = train(records, train_spec=TrainSpec(epochs=2))
    sizes["model"] = cycle(save_model, load_model, model, "model")
    print(f"criterion 11: stable byte sizes {sizes}")
