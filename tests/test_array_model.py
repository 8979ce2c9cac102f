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
from risbeam.codebook import _BUCKETS, _TRUSTED
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

    @pytest.mark.parametrize("nx, ny, delta", [
        (1, 1, 1e308),   # 2*pi*delta overflows, and times element 0 is nan
        (10, 10, 1e306),  # a path phase is finite, the difference of two not
        (2**40, 1, 2e295)])
    def test_pitch_whose_path_phases_overflow_is_refused(self, nx, ny,
                                                          delta):
        with pytest.raises(DomainError, match="path phases are not finite"):
            ArraySpec(nx, ny, delta=delta)

    def test_huge_finite_pitch_is_kept(self):
        spec = ArraySpec(10, 10, delta=1e300)
        beam = Direction(30.0, -20.0)
        assert np.all(np.isfinite(element_phase_profile(spec, beam)
                                  - element_phase_profile(spec, Direction(
                                      -90.0, 90.0))))

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

    def test_quantize_config_takes_the_nearest_phases(self):
        spec = ArraySpec(3, 3)
        phases = np.linspace(0, 6.0, 9)
        q = quantize_config(spec, PhaseConfig(phases))
        np.testing.assert_array_equal(
            q.phases, spec.phase_set[quantize_phases(phases, spec.phase_set)])

    def test_idempotent(self, rng):
        spec = ArraySpec(5, 5)
        q1 = quantize_config(spec, PhaseConfig(rng.uniform(0, TWO_PI, 25)))
        q2 = quantize_config(spec, q1)
        np.testing.assert_array_equal(q1.phases, q2.phases)
        np.testing.assert_array_equal(
            quantize_phases(q1.phases, spec.phase_set),
            quantize_phases(q2.phases, spec.phase_set))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, bad):
        # once a RuntimeWarning from the wrap and a silent index K - 1
        with pytest.raises(DomainError, match="finite"):
            quantize_phases(np.array([0.5, bad, 1.0]), uniform_phase_set(8))


# Sets whose entries lie a few ulps apart, also across the 2*pi wrap.
ULP_SETS = [
    np.array([1.0, 1.0 + 2**-52, 1.0 + 2**-51, 4.0]),
    np.array([0.0, np.pi, np.nextafter(np.pi, 4), np.nextafter(TWO_PI, 0)]),
    np.array([0.0, 2**-40, 3.0]),
    np.array([5.0, np.nextafter(5.0, 6)]),
]
BUCKET = TWO_PI / _BUCKETS


def hard_points(phase_set):
    """Both float neighbours of every circular midpoint, of the bucket
    edges around it and of every entry, plus the points around 0 and 2*pi:
    where the codebook's bucket table hands over to quantize_phases.  The
    midpoints also come shifted by whole turns to just inside and far past
    the table's trust limit, where rounding moves them by up to a few
    buckets."""
    mids = phase_set + np.diff(phase_set, append=phase_set[0] + TWO_PI) / 2
    edges = np.concatenate([np.floor(mids / BUCKET), np.ceil(mids / BUCKET),
                            np.floor(phase_set / BUCKET)]) * BUCKET
    base = np.concatenate([
        mids, mids - TWO_PI, edges, phase_set,
        [0.0, -0.0, TWO_PI, np.nextafter(TWO_PI, 0), -TWO_PI, -3 * TWO_PI,
         -1000 * TWO_PI, _TRUSTED, -_TRUSTED],
        (np.array([[2.0**17], [-2.0**17], [2.0**37]]) * TWO_PI + mids).ravel()])
    return np.concatenate([base, np.nextafter(base, np.inf),
                           np.nextafter(base, -np.inf)])


def assert_exact(points, phase_set):
    """quantize_phases equals the dense oracle, and a 2-d input keeps its
    shape."""
    points = np.asarray(points, float)
    expected = np.concatenate([dense_argmin(chunk, phase_set) for chunk
                               in np.array_split(points, points.size // 256 + 1)])
    got = quantize_phases(points, phase_set)
    np.testing.assert_array_equal(got, expected)
    both = quantize_phases(np.stack([points, points[::-1]]), phase_set)
    assert both.shape == (2, points.size)
    np.testing.assert_array_equal(both, [expected, expected[::-1]])


class TestBucketTable:
    """quantize_phases at the points that are hard for the codebook's bucket
    table (codebook._bucket_owners), against the dense oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(phase_sets,
                     st.sampled_from([uniform_phase_set(1)] + ULP_SETS)),
           st.lists(st.floats(-1e7, 1e7), max_size=30),
           st.lists(st.floats(_TRUSTED, 1e300).flatmap(
               lambda v: st.sampled_from([v, -v])), max_size=5),
           st.lists(st.integers(0, _BUCKETS - 1), max_size=20))
    def test_matches_dense_argmin(self, phase_set, values, huge, buckets):
        edges = np.array(buckets, dtype=float) * BUCKET
        points = np.concatenate([
            values, huge, hard_points(phase_set), edges,
            np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        assert_exact(points, phase_set)

    @pytest.mark.parametrize("phase_set", [uniform_phase_set(1),
                                           uniform_phase_set(8)] + ULP_SETS,
                             ids=["K=1", "K=8", "ulps-a", "ulps-b", "ulps-c",
                                  "ulps-d"])
    def test_every_bucket_edge(self, phase_set):
        edges = np.arange(_BUCKETS) * BUCKET
        assert_exact(np.concatenate([edges, np.nextafter(edges, np.inf),
                                     np.nextafter(edges, -np.inf)]),
                     phase_set)

    def test_4096_states(self, rng):
        # Outside the property above, which would redo the dense oracle on
        # every example.  The oracle takes seconds on all hard points and
        # bucket edges at 4096 entries, so it checks a sample of them.
        phase_set = uniform_phase_set(4096)
        edges = np.arange(_BUCKETS) * BUCKET
        points = np.concatenate([hard_points(phase_set), edges,
                                 np.nextafter(edges, np.inf),
                                 np.nextafter(edges, -np.inf)])
        assert_exact(np.concatenate([rng.choice(points, 4000),
                                     rng.uniform(-1e7, 1e7, 1000)]),
                     phase_set)

    def test_float_ties_beyond_two_entries_keep_the_bracketing_entry(self):
        # From 3 to 3.5 the float distances to 1.0 and 1.0 + 2**-52 often
        # tie.  The full argmin then takes entry 0, and quantize_phases,
        # which compares only the two bracketing entries, keeps entry 1.
        phase_set = np.array([1.0, 1.0 + 2**-52, 6.0])
        points = np.append(np.linspace(3.0, 3.5, 1001), 3.5)
        got = quantize_phases(points, phase_set)
        expected = dense_argmin(points, phase_set)
        apart = got != expected
        assert apart[-1]  # 3.5, the case the docstring names
        np.testing.assert_array_equal(got, 1)
        np.testing.assert_array_equal(expected[apart], 0)

    def test_scalar_and_empty_keep_their_shape(self):
        phase_set = uniform_phase_set(8)
        assert quantize_phases(np.float64(np.pi / 4), phase_set).shape == ()
        assert quantize_phases(np.zeros((0, 3)), phase_set).shape == (0, 3)


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
