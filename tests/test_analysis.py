import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam.analysis import (
    HALF_POWER_DB,
    ExpFit,
    SgFilterSpec,
    _exp_init,
    fit_exponential,
    hpbw,
    hpi_reconstruct,
    localization_success_rate,
    localize_aoa,
    nmse,
    savitzky_golay,
)
from risbeam.datasets import BeampatternTable
from risbeam.errors import (
    DomainError,
    FitDivergenceError,
    LobeTruncatedError,
)


class TestSgSpec:
    def test_defaults(self):
        spec = SgFilterSpec()
        assert (spec.window, spec.order) == (7, 4)

    def test_rejects_even_or_small_window(self):
        with pytest.raises(DomainError):
            SgFilterSpec(window=6)
        with pytest.raises(DomainError):
            SgFilterSpec(window=1)

    @pytest.mark.parametrize("window, order", [(7.0, 4), (7, 4.0)])
    def test_rejects_non_integer_window_or_order(self, window, order):
        with pytest.raises(DomainError, match="must be an integer"):
            SgFilterSpec(window=window, order=order)

    def test_numpy_integers_accepted(self):
        spec = SgFilterSpec(window=np.int64(7), order=np.int32(4))
        v = np.full(9, -61.25)
        np.testing.assert_array_equal(savitzky_golay(v, spec),
                                      savitzky_golay(v))

    def test_rejects_order_not_below_window(self):
        with pytest.raises(DomainError):
            SgFilterSpec(window=7, order=7)
        with pytest.raises(DomainError):
            SgFilterSpec(window=7, order=-1)


class TestSavitzkyGolay:
    def test_constant_series_unchanged(self):
        v = np.full(20, -61.25)
        np.testing.assert_allclose(savitzky_golay(v), v, atol=1e-12)

    def test_quartic_reproduced_everywhere(self):
        i = np.arange(25, dtype=float)
        v = i ** 4 - 3 * i ** 2 + 7
        np.testing.assert_allclose(savitzky_golay(v), v, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=5),
           n=st.integers(7, 40))
    def test_low_degree_polynomials_are_fixed_points(self, coeffs, n):
        x = np.arange(n, dtype=float)
        v = np.polyval(coeffs, x)
        tol = 1e-9 * max(1.0, float(np.abs(v).max()))
        np.testing.assert_allclose(savitzky_golay(v), v, atol=tol)

    def test_noise_is_attenuated(self, rng):
        x = np.arange(80, dtype=float)
        clean = -60 - 0.01 * (x - 40) ** 2
        noisy = clean + rng.normal(0, 0.5, x.size)
        smooth = savitzky_golay(noisy)
        assert (np.abs(smooth - clean)[3:-3].mean()
                < np.abs(noisy - clean)[3:-3].mean())

    def test_smoothing_not_identity_on_noise(self, rng):
        v = rng.normal(0, 1, 30)
        assert not np.allclose(savitzky_golay(v), v)

    def test_peak_of_clean_lobe_survives(self, quiet_beampattern):
        labels, values = quiet_beampattern.row((0.0, -3.0))
        assert (savitzky_golay(values).argmax() == values.argmax())

    def test_short_series_rejected(self):
        with pytest.raises(DomainError, match="shorter than window"):
            savitzky_golay(np.zeros(6))

    @pytest.mark.parametrize("window, order", [
        (7, 4), (3, 1), (11, 4), (15, 6), (25, 16), (61, 40)])
    def test_table_matches_row_by_row(self, rng, window, order):
        spec = SgFilterSpec(window=window, order=order)
        table = -60.0 + rng.normal(0, 3, (40, 61))
        rows = np.vstack([savitzky_golay(r, spec) for r in table])
        out = savitzky_golay(table, spec)
        assert out.shape == table.shape
        np.testing.assert_array_equal(out, rows)

    def test_short_table_rejected(self):
        with pytest.raises(DomainError, match="shorter than window"):
            savitzky_golay(np.zeros((4, 6)))

    def test_bad_rank_or_values_rejected(self):
        with pytest.raises(DomainError, match="1-d or 2-d"):
            savitzky_golay(np.zeros((2, 2, 9)))
        table = np.zeros((3, 9))
        table[1, 4] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            savitzky_golay(table)

    def test_wider_window(self):
        i = np.arange(30, dtype=float)
        v = 2 * i ** 2 - i
        out = savitzky_golay(v, SgFilterSpec(window=11, order=2))
        np.testing.assert_allclose(out, v, atol=1e-8)

    @pytest.mark.parametrize("window, order", [
        (13, 10), (25, 16), (181, 100), (181, 179), (1001, 999)])
    def test_high_order_spec_fits(self, window, order, capfd):
        """Specs that fits in the power basis of the offsets could not
        return a constant series (and so were once refused) are fitted:
        a constant comes back with no warning and no LAPACK message."""
        spec = SgFilterSpec(window=window, order=order)
        c = -61.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = savitzky_golay(np.full((2, window), c), spec)
        np.testing.assert_allclose(out, c, rtol=0, atol=1e-9 * abs(c))
        assert capfd.readouterr() == ("", "")

    @settings(max_examples=100, deadline=None)
    @given(window_order=st.sampled_from(range(3, 62, 2)).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(0, w - 1))))
    @example(window_order=(61, 60))
    def test_every_order_below_window_fits(self, window_order):
        """A constant, and from order 4 a quartic, comes back at every
        position for every order below the window."""
        window, order = window_order
        x = np.arange(window + 4, dtype=float)
        constant, quartic = np.full_like(x, -61.25), x ** 4 - 3 * x ** 2 + 7
        out = savitzky_golay(np.vstack([constant, quartic]),
                             SgFilterSpec(window=window, order=order))
        np.testing.assert_allclose(out[0], constant, rtol=0,
                                   atol=1e-9 * 61.25)
        if order >= 4:
            np.testing.assert_allclose(out[1], quartic, rtol=0,
                                       atol=1e-9 * np.abs(quartic).max())


    @pytest.mark.parametrize("window, order", [(11, 8), (9, 8), (3, 2)])
    def test_highest_fittable_orders_accepted(self, window, order):
        v = np.full(window + 4, -61.25)
        np.testing.assert_allclose(
            savitzky_golay(v, SgFilterSpec(window=window, order=order)), v,
            rtol=0, atol=1e-9 * 61.25)


class TestHpbw:
    def test_triangle_width_exact(self):
        # linear lobe, so the interpolated crossings at +-3.5 are exact
        angles = np.arange(-10.0, 11.0)
        power = HALF_POWER_DB * np.abs(angles) / 3.5
        assert hpbw(angles, power) == pytest.approx(7.0, abs=1e-12)

    def test_offset_invariance(self):
        angles = np.arange(-10.0, 11.0)
        power = -1.0 * np.abs(angles)
        assert hpbw(angles, power) == pytest.approx(
            hpbw(angles, power + 17.5), abs=1e-12)

    def test_at_level_sample_is_not_a_crossing(self):
        # the walk stops at the first sample strictly below the level, so a
        # sample sitting exactly on it pushes the crossing onto itself
        angles = np.array([0.0, 1.0, 2.0, 3.0])
        power = np.array([-10.0, 0.0, HALF_POWER_DB, -10.0])
        left = 1.0 - (0.0 - HALF_POWER_DB) / 10.0
        assert hpbw(angles, power) == pytest.approx(2.0 - left, abs=1e-12)

    def test_asymmetric_lobe(self):
        angles = np.arange(-5.0, 6.0)
        power = np.where(angles < 0, 2.0 * angles, -1.0 * angles)
        width = -HALF_POWER_DB / 2.0 + -HALF_POWER_DB / 1.0
        assert hpbw(angles, power) == pytest.approx(width, abs=1e-12)

    def test_truncated_right(self):
        angles = np.arange(10.0)
        with pytest.raises(LobeTruncatedError, match="right"):
            hpbw(angles, angles * 1.0)

    def test_truncated_left(self):
        angles = np.arange(10.0)
        with pytest.raises(LobeTruncatedError, match="left"):
            hpbw(angles, -angles)

    def test_validation(self):
        with pytest.raises(DomainError):
            hpbw([0, 1], [0, 1])
        with pytest.raises(DomainError):
            hpbw([0, 2, 1], [0, 1, 0])
        with pytest.raises(DomainError):
            hpbw([0, 1, 2], [0, 1])


class TestExpFit:
    def test_recovers_generator(self):
        x = np.array([2.0, 4.0, 8.0, 10.0])
        truth = (3.5, -0.4, 1.25)
        y = truth[0] * np.exp(truth[1] * x) + truth[2]
        fit = fit_exponential(x, y)
        assert fit.a == pytest.approx(truth[0], rel=1e-8)
        assert fit.b == pytest.approx(truth[1], rel=1e-8)
        assert fit.c == pytest.approx(truth[2], rel=1e-8)
        assert fit.iterations < 50
        assert fit.residual_norm < 1e-10

    def test_recovers_width_decay_magnitudes(self):
        # the magnitude regime the beamwidth-vs-size fit lives in
        x = np.array([2.0, 4.0, 8.0, 10.0])
        y = 70.96 * np.exp(-0.27 * x) + 3.99
        fit = fit_exponential(x, y)
        for got, want in zip((fit.a, fit.b, fit.c), (70.96, -0.27, 3.99)):
            assert got == pytest.approx(want, rel=1e-6)

    def test_flat_data_collapses_to_offset(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = fit_exponential(x, np.full(5, 5.0))
        np.testing.assert_allclose(fit.a * np.exp(fit.b * x) + fit.c, 5.0,
                                   atol=1e-9)
        assert abs(fit.a) < 1e-6
        assert fit.residual_norm < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.5, 50), b=st.floats(-1.0, -0.05),
           c=st.floats(-5, 5))
    def test_clean_data_fits_to_machine_residual(self, a, b, c):
        x = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
        y = a * np.exp(b * x) + c
        fit = fit_exponential(x, y)
        scale = max(1.0, float(np.linalg.norm(y)))
        assert fit.residual_norm < 1e-7 * scale

    def test_init_heuristic_orients_decay(self):
        x = np.array([2.0, 4.0, 8.0, 10.0])
        y = 70.96 * np.exp(-0.27 * x) + 3.99
        a0, b0, c0 = _exp_init(x, y)
        assert a0 > 0 and b0 < 0
        assert c0 < y.min()

    def test_divergence_carries_last_iterate(self):
        # one spike then a flat tail: the best fit is an ever steeper decay
        # that never settles inside the iteration budget
        with pytest.raises(FitDivergenceError) as exc_info:
            fit_exponential([1, 2, 3, 4], [10, 1, 1, 1])
        err = exc_info.value
        assert err.params is not None and len(err.params) == 3
        assert err.iterations == 200
        assert err.residual_norm is not None

    def test_validation(self):
        with pytest.raises(DomainError):
            fit_exponential([1, 2, 3], [1, 2, 3])
        with pytest.raises(DomainError):
            fit_exponential([1, 2, 2, 3], [1, 2, 3, 4])

    def test_exp_fit_value_object(self):
        with pytest.raises(DomainError):
            ExpFit(a=1.0, b=float("inf"), c=0.0, residual_norm=0.0,
                   iterations=1)
        with pytest.raises(DomainError):
            ExpFit(a=1.0, b=1.0, c=0.0, residual_norm=-1.0, iterations=1)
        fit = ExpFit(a=2.0, b=-1.0, c=0.5, residual_norm=0.0, iterations=3)
        assert fit.a * math.exp(fit.b * 0.0) + fit.c == pytest.approx(2.5)


class TestHpiReconstruct:
    def cut(self):
        angles = np.arange(-90.0, 91.0, 3.0)
        power = -60.0 - 0.02 * (angles - 6.0) ** 2
        return angles, np.maximum(power, -90.0)

    def test_azimuth_slice_at_tilt_is_input(self):
        angles, power = self.cut()
        pattern = hpi_reconstruct(angles, power, tilt_deg=-3.0)
        col = np.nonzero(pattern.elevation_deg == -3.0)[0][0]
        np.testing.assert_allclose(pattern.power_dbm[:, col], power,
                                   atol=1e-12)

    def test_peak_value_and_location(self):
        angles, power = self.cut()
        pattern = hpi_reconstruct(angles, power, tilt_deg=-3.0)
        flat = pattern.power_dbm.argmax()
        i, j = np.unravel_index(flat, pattern.power_dbm.shape)
        assert pattern.azimuth_deg[i] == 6.0
        assert pattern.elevation_deg[j] == -3.0
        assert pattern.power_dbm[i, j] == pytest.approx(power.max())

    def test_elevation_cut_is_recentered_azimuth_cut(self):
        angles, power = self.cut()
        pattern = hpi_reconstruct(angles, power, tilt_deg=-3.0)
        peak_row = int(np.argmax(power))
        elevation_profile = pattern.power_dbm[peak_row]
        tilt_idx = np.nonzero(angles == -3.0)[0][0]
        shift = peak_row - tilt_idx
        for j in range(angles.size):
            src = j + shift
            if 0 <= src < angles.size:
                assert elevation_profile[j] == pytest.approx(power[src])

    def test_floor_clamp(self):
        angles, power = self.cut()
        pattern = hpi_reconstruct(angles, power, tilt_deg=-3.0)
        assert pattern.power_dbm.min() >= power.min()

    def test_shifted_out_samples_take_floor(self):
        angles = np.arange(-6.0, 7.0, 3.0)
        power = np.array([-70.0, -61.0, -60.0, -61.0, -70.0])
        pattern = hpi_reconstruct(angles, power, tilt_deg=6.0)
        # tilt at the right edge pushes most of the cut out of range
        assert pattern.power_dbm[2, 0] == pytest.approx(-70.0)

    def test_grid_shape(self):
        angles, power = self.cut()
        pattern = hpi_reconstruct(angles, power, tilt_deg=0.0)
        assert pattern.power_dbm.shape == (angles.size, angles.size)
        np.testing.assert_array_equal(pattern.azimuth_deg,
                                      pattern.elevation_deg)

    def test_off_grid_tilt_rejected(self):
        angles, power = self.cut()
        with pytest.raises(DomainError, match="tilt"):
            hpi_reconstruct(angles, power, tilt_deg=-2.0)

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(DomainError, match="uniform"):
            hpi_reconstruct([0.0, 1.0, 3.0], [0.0, 1.0, 0.0], tilt_deg=0.0)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            hpi_reconstruct([0.0], [0.0], tilt_deg=0.0)


class TestLocalizeAoa:
    def tiny_table(self):
        beams = [(-3, 0), (0, 0), (3, 0)]
        rotations = [-3.0, 0.0, 3.0]
        power = [[-60.0, -70.0, -80.0],
                 [-70.0, -60.0, -70.0],
                 [-80.0, -70.0, -60.0]]
        return BeampatternTable(beams, rotations, power)

    def test_columns_map_to_strongest_beam(self):
        estimates = localize_aoa(self.tiny_table())
        assert [e.azimuth_deg for e in estimates] == [-3.0, 0.0, 3.0]
        assert [e.rotation_deg for e in estimates] == [-3.0, 0.0, 3.0]
        assert [e.row for e in estimates] == [0, 1, 2]

    def test_tie_resolves_to_lowest_row(self):
        t = BeampatternTable([(0, 0), (3, 0)], [0.0],
                             [[-60.0], [-60.0]])
        assert localize_aoa(t)[0].row == 0


class TestLocalizationSuccessRate:
    def test_quiet_three_bit_rates_pinned(self, quiet_beampattern,
                                          default_codebook):
        """Five rotations lose the argmax to a neighbouring beam by under
        0.2 dB of quantization luck; one of those neighbours is two grid
        steps away. Pinned: the exact-match and one-step rates."""
        exact = localization_success_rate(quiet_beampattern,
                                          default_codebook, tolerance_deg=0.0)
        near = localization_success_rate(quiet_beampattern,
                                         default_codebook, tolerance_deg=3.0)
        assert exact == pytest.approx(56 / 61)
        assert near == pytest.approx(60 / 61)

    def test_dense_phase_recovery_is_total(self, dense_beampattern,
                                           dense_codebook):
        rate = localization_success_rate(dense_beampattern, dense_codebook,
                                         tolerance_deg=0.0)
        assert rate == 1.0

    def test_monotone_in_tolerance(self, quiet_beampattern,
                                   default_codebook):
        rates = [localization_success_rate(quiet_beampattern,
                                           default_codebook, tolerance_deg=t)
                 for t in (0.0, 3.0, 6.0, 90.0)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 1.0

    def test_row_count_mismatch_rejected(self, quiet_beampattern,
                                         dense_codebook, default_codebook):
        half = BeampatternTable(quiet_beampattern.beams[:900],
                                quiet_beampattern.rotations,
                                quiet_beampattern.power_dbm[:900])
        with pytest.raises(DomainError):
            localization_success_rate(half, default_codebook)

    def test_rows_in_another_order_rejected(self, quiet_beampattern,
                                            default_codebook):
        """Each argmax row is looked up in the codebook by position, so a
        table whose rows are the codebook's beams reversed is refused
        rather than scored against the wrong beams."""
        reversed_table = BeampatternTable(quiet_beampattern.beams[::-1],
                                          quiet_beampattern.rotations,
                                          quiet_beampattern.power_dbm[::-1])
        with pytest.raises(DomainError, match="codebook's beams"):
            localization_success_rate(reversed_table, default_codebook)


class TestNmse:
    def test_hand_example(self):
        assert nmse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(9 / 42)

    def test_perfect_prediction(self):
        assert nmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_predictor_scores_one(self, rng):
        truth = rng.normal(-70, 5, 100)
        predicted = np.full(100, truth.mean())
        assert nmse(predicted, truth) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(0.1, 100), offset=st.floats(-100, 100))
    def test_affine_invariance(self, scale, offset):
        p = np.array([1.0, 2.0, 5.0, -1.0])
        t = np.array([1.5, 1.0, 4.0, 0.0])
        base = nmse(p, t)
        moved = nmse(scale * p + offset, scale * t + offset)
        assert moved == pytest.approx(base, rel=1e-9)

    def test_constant_truth_rejected(self):
        with pytest.raises(DomainError, match="constant"):
            nmse([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            nmse([1.0, 2.0], [1.0, 2.0, 3.0])
