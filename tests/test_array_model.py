import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.array_model import (
    ArraySpec,
    Direction,
    PhaseConfig,
    TWO_PI,
    element_phase_profile,
    ideal_config,
    quantization_loss,
    quantize_config,
    quantize_phases,
    received_signal,
    steering_vector,
    uniform_phase_set,
)
from risbeam.errors import DomainError

QUANT_LOSS_FLOOR_DB = 20.0 * math.log10(math.cos(math.pi / 8))  # -0.68769...


def brute_force_steering(spec, direction):
    """Direct double loop over (ix, iy); the tested code must match this."""
    u = math.sin(math.radians(direction.azimuth_deg))
    v = math.sin(math.radians(direction.elevation_deg))
    out = np.empty(spec.size, dtype=complex)
    for ix in range(spec.nx):
        for iy in range(spec.ny):
            phase = TWO_PI * spec.delta * (ix * u + iy * v)
            out[ix * spec.ny + iy] = complex(math.cos(phase), math.sin(phase))
    return out


angles = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


def dense_argmin(values, phase_set):
    """Circular distance to every entry, first minimum wins; the oracle for
    quantize_phases."""
    straight = np.abs((np.asarray(values, float) % TWO_PI)[..., None]
                      - phase_set)
    return np.argmin(np.minimum(straight, TWO_PI - straight), axis=-1)


def _spaced(entries, gap=1e-9):
    """Ascending entries at least `gap` apart, also across the 2*pi wrap."""
    kept = []
    for p in sorted(entries):
        if not kept or p - kept[-1] >= gap:
            kept.append(p)
    while len(kept) > 1 and kept[0] + TWO_PI - kept[-1] < gap:
        kept.pop()
    return np.array(kept)


phase_sets = st.one_of(
    st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
             min_size=1, max_size=40).map(_spaced),
    st.integers(1, 512).map(uniform_phase_set))


class TestDirection:
    def test_bounds(self):
        Direction(-90, 90)
        Direction(0.5, -0.5)
        with pytest.raises(DomainError):
            Direction(91, 0)
        with pytest.raises(DomainError):
            Direction(0, -90.0001)
        with pytest.raises(DomainError):
            Direction(float("nan"), 0)


class TestArraySpec:
    def test_defaults(self):
        spec = ArraySpec(10, 10)
        assert spec.size == 100
        assert spec.active_count == 100
        assert spec.phase_set.size == 8
        np.testing.assert_allclose(spec.phase_set, np.arange(8) * np.pi / 4)

    def test_validation(self):
        with pytest.raises(DomainError):
            ArraySpec(0, 4)
        with pytest.raises(DomainError):
            ArraySpec(4, 4, delta=0.0)
        with pytest.raises(DomainError):
            ArraySpec(4, 4, phase_set=np.array([0.0, TWO_PI]))  # 2*pi excluded
        with pytest.raises(DomainError):
            ArraySpec(4, 4, phase_set=np.array([0.5, 0.5]))  # not ascending
        with pytest.raises(DomainError):
            ArraySpec(4, 4, mask=np.ones(15, dtype=bool))

    def test_mask_counts(self):
        mask = np.zeros(16, dtype=bool)
        mask[:3] = True
        assert ArraySpec(4, 4, mask=mask).active_count == 3

    def test_uniform_phase_set_rejects_bad_count(self):
        with pytest.raises(DomainError):
            uniform_phase_set(0)


class TestSteeringVector:
    def test_boresight_is_all_ones(self):
        v = steering_vector(ArraySpec(10, 10), Direction(0, 0))
        np.testing.assert_allclose(v, np.ones(100), atol=1e-15)

    def test_endfire_two_element(self):
        v = steering_vector(ArraySpec(2, 1), Direction(90, 0))
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)

    def test_3x2_against_double_loop(self):
        spec = ArraySpec(3, 2)
        d = Direction(30, -10)
        np.testing.assert_allclose(steering_vector(spec, d),
                                   brute_force_steering(spec, d), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 6), az=angles, el=angles,
           delta=st.floats(0.1, 2.0))
    def test_kronecker_matches_double_loop(self, nx, ny, az, el, delta):
        spec = ArraySpec(nx, ny, delta=delta)
        d = Direction(az, el)
        np.testing.assert_allclose(steering_vector(spec, d),
                                   brute_force_steering(spec, d), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(az=angles, el=angles)
    def test_unit_modulus(self, az, el):
        v = steering_vector(ArraySpec(5, 7), Direction(az, el))
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)


class TestReceivedSignal:
    def test_ideal_config_gives_active_count(self):
        spec = ArraySpec(10, 10)
        tx, beam = Direction(20, -33), Direction(0, -3)
        cfg = ideal_config(spec, tx, beam)
        y = received_signal(spec, cfg, tx, beam)
        assert abs(abs(y) - 100.0) < 1e-9 * 100.0
        assert y.real > 0 and abs(y.imag) < 1e-9

    def test_all_masked_is_zero(self):
        spec = ArraySpec(4, 4, mask=np.zeros(16, dtype=bool))
        cfg = PhaseConfig(np.zeros(16))
        assert received_signal(spec, cfg, Direction(0, 0), Direction(0, 0)) == 0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            received_signal(ArraySpec(4, 4), PhaseConfig(np.zeros(9)),
                            Direction(0, 0), Direction(0, 0))

    def test_triangle_inequality_random_configs(self, rng):
        spec = ArraySpec(6, 6)
        for _ in range(25):
            cfg = PhaseConfig(rng.uniform(0, TWO_PI, 36))
            tx = Direction(rng.uniform(-90, 90), rng.uniform(-90, 90))
            rx = Direction(rng.uniform(-90, 90), rng.uniform(-90, 90))
            assert abs(received_signal(spec, cfg, tx, rx)) <= 36 + 1e-9

    def test_first_null_position(self):
        # 10 half-wavelength elements: first azimuth null at asin(2/10).
        spec = ArraySpec(10, 10)
        cfg = ideal_config(spec, Direction(0, 0), Direction(0, 0))
        theta = np.arange(0.0, 30.0, 0.1)
        mags = np.array([
            abs(received_signal(spec, cfg, Direction(0, 0), Direction(t, 0)))
            for t in theta
        ])
        drop = np.flatnonzero((mags[1:-1] < mags[:-2]) & (mags[1:-1] <= mags[2:]))
        first_null = theta[drop[0] + 1]
        assert abs(first_null - math.degrees(math.asin(0.2))) < 0.15
        assert 11.0 < first_null < 12.0

    def test_masked_elements_do_not_contribute(self, rng):
        spec = ArraySpec(4, 4)
        phases = rng.uniform(0, TWO_PI, 16)
        mask = rng.random(16) < 0.5
        masked = spec.with_mask(mask)
        loud = np.where(mask, phases, phases + np.pi)  # flip only dark elements
        y1 = received_signal(masked, PhaseConfig(phases), Direction(10, 5),
                             Direction(-20, 0))
        y2 = received_signal(masked, PhaseConfig(loud), Direction(10, 5),
                             Direction(-20, 0))
        assert abs(y1 - y2) < 1e-12


class TestIdealConfig:
    def test_boresight_all_zero(self):
        cfg = ideal_config(ArraySpec(10, 10), Direction(0, 0), Direction(0, 0))
        np.testing.assert_allclose(cfg.phases, 0.0, atol=1e-15)

    def test_two_element_cancellation(self):
        cfg = ideal_config(ArraySpec(2, 1), Direction(90, 0), Direction(0, 0))
        np.testing.assert_allclose(cfg.phases, [0.0, np.pi], atol=1e-12)

    def test_phases_wrapped(self):
        cfg = ideal_config(ArraySpec(8, 8), Direction(-70, 45), Direction(60, -80))
        assert np.all(cfg.phases >= 0) and np.all(cfg.phases < TWO_PI)

    @settings(max_examples=50, deadline=None)
    @given(az1=angles, el1=angles, az2=angles, el2=angles)
    def test_alignment_property(self, az1, el1, az2, el2):
        spec = ArraySpec(5, 4)
        tx, beam = Direction(az1, el1), Direction(az2, el2)
        y = received_signal(spec, ideal_config(spec, tx, beam), tx, beam)
        assert abs(y - 20.0) < 1e-9


class TestQuantization:
    def test_member_maps_to_itself(self):
        idx = quantize_phases(np.array([np.pi / 4]), uniform_phase_set(8))
        assert idx.tolist() == [1]

    def test_nearest_wins(self):
        # 0.40 rad: distance 0.40 to phase 0 versus 0.385 to pi/4.
        idx = quantize_phases(np.array([0.40]), uniform_phase_set(8))
        assert idx.tolist() == [1]

    def test_halfway_tie_breaks_low(self):
        idx = quantize_phases(np.array([np.pi / 8]), uniform_phase_set(8))
        assert idx.tolist() == [0]

    def test_wraparound_distance(self):
        # 6.2 rad is closer to 0 through the wrap than to 7*pi/4.
        idx = quantize_phases(np.array([6.27]), uniform_phase_set(8))
        assert idx.tolist() == [0]

    def test_quantize_config_populates_indices(self):
        spec = ArraySpec(3, 3)
        q = quantize_config(spec, PhaseConfig(np.linspace(0, 6.0, 9)))
        assert q.quantized_indices is not None
        np.testing.assert_array_equal(q.phases,
                                      spec.phase_set[q.quantized_indices])

    def test_idempotent(self, rng):
        spec = ArraySpec(5, 5)
        q1 = quantize_config(spec, PhaseConfig(rng.uniform(0, TWO_PI, 25)))
        q2 = quantize_config(spec, q1)
        np.testing.assert_array_equal(q1.phases, q2.phases)
        np.testing.assert_array_equal(q1.quantized_indices, q2.quantized_indices)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30),
           st.integers(2, 11))
    def test_error_bounded_by_half_cell(self, values, count):
        phase_set = uniform_phase_set(count)
        idx = quantize_phases(np.array(values), phase_set)
        err = (np.array(values) - phase_set[idx]) % TWO_PI
        err = np.minimum(err, TWO_PI - err)
        assert np.all(err <= np.pi / count + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(phase_sets,
           st.lists(st.floats(-20.0, 20.0), max_size=30))
    def test_matches_dense_argmin(self, phase_set, values):
        wrap_mid = ((phase_set[-1] + phase_set[0] + TWO_PI) / 2) % TWO_PI
        points = np.concatenate([
            values, phase_set, (phase_set[:-1] + phase_set[1:]) / 2,
            [wrap_mid, 0.0, -0.0, np.nextafter(TWO_PI, 0)]])
        np.testing.assert_array_equal(quantize_phases(points, phase_set),
                                      dense_argmin(points, phase_set))

    @pytest.mark.parametrize("count", [8, 64, 4096])
    def test_half_cell_ties_match_dense_argmin(self, count):
        # Every half-cell point, and the wrap point 2*pi - cell/2 between
        # the top entry and entry 0.  Where rounding makes the two
        # distances exactly equal (the wrap point at 64, many interior
        # points at 4096) the lower index must win, as in the oracle.
        phase_set = uniform_phase_set(count)
        cell = TWO_PI / count
        points = np.append(phase_set[:-1] + cell / 2, TWO_PI - cell / 2)
        np.testing.assert_array_equal(quantize_phases(points, phase_set),
                                      dense_argmin(points, phase_set))


class TestQuantizationLoss:
    def test_dense_set_is_lossless(self):
        spec = ArraySpec(6, 6, phase_set=uniform_phase_set(1 << 17))
        loss = quantization_loss(spec, Direction(20, -33), Direction(30, -30))
        assert abs(loss) < 1e-6

    def test_bounded_for_8_phase_set(self, rng):
        spec = ArraySpec(10, 10)
        for _ in range(20):
            tx = Direction(rng.uniform(-90, 90), rng.uniform(-90, 90))
            beam = Direction(rng.uniform(-90, 90), rng.uniform(-90, 90))
            loss = quantization_loss(spec, tx, beam)
            assert QUANT_LOSS_FLOOR_DB - 1e-9 <= loss <= 1e-12

    def test_cross_checked_against_direct_sum(self):
        spec = ArraySpec(10, 10)
        tx, beam = Direction(20, -33), Direction(30, -30)
        cfg = ideal_config(spec, tx, beam)
        q = quantize_config(spec, cfg)
        h = np.conj(steering_vector(spec, beam))
        g = steering_vector(spec, tx)
        direct = 20 * np.log10(abs(np.sum(h * np.exp(1j * q.phases) * g)) / 100.0)
        assert abs(quantization_loss(spec, tx, beam) - direct) < 1e-12

    def test_all_absorbing_rejected(self):
        spec = ArraySpec(4, 4, mask=np.zeros(16, dtype=bool))
        with pytest.raises(DomainError):
            quantization_loss(spec, Direction(0, 0), Direction(0, 0))


def test_element_phase_profile_row_major_order():
    spec = ArraySpec(3, 2, delta=0.5)
    p = element_phase_profile(spec, Direction(90, 0))  # sin(az)=1, el term 0
    np.testing.assert_allclose(p, [0, 0, np.pi, np.pi, TWO_PI, TWO_PI],
                               atol=1e-12)
