"""Anechoic-chamber measurement model: turntable sweeps over a codebook.

The receiver sits on a boom at a fixed elevation while the table under the
array rotates in azimuth; the transmitter illuminates the array from a fixed
direction.  Each measured cell is an average of a few noisy RSRP samples.
Every cell draws its noise from its own counter-based PRNG stream keyed by
(seed, row, column), so tables are reproducible and independent of the order
in which cells are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import (ArraySpec, Direction, SPEED_OF_LIGHT, TWO_PI,
                          element_phase_profile)
from .codebook import Codebook, _axis_values, absorption_masks
from .datasets import AbsorptionTable, BeampatternTable
from .errors import DomainError, NotFoundError

POWER_DECIMALS = 6  # dataset cells are rounded to the serialization precision


@dataclass(frozen=True)
class ChamberGeometry:
    """Fixed chamber layout: illumination, boom elevation, turntable axis."""

    tx_dir: Direction = Direction(0.0, -33.0)
    rx_elevation_deg: float = -3.0
    rotation_range_deg: tuple = (-90, 90, 3)
    d_ris_tx_m: float = 1.1
    d_ris_rx_m: float = 6.3
    diagonal_m: float = 0.43

    def __post_init__(self):
        self.rotations()
        for name, d in (("d_ris_tx_m", self.d_ris_tx_m),
                        ("d_ris_rx_m", self.d_ris_rx_m),
                        ("diagonal_m", self.diagonal_m)):
            if not (np.isfinite(d) and d > 0):
                raise DomainError(f"{name} must be positive, got {d!r}")
        if not -90.0 <= self.rx_elevation_deg <= 90.0:
            raise DomainError("rx elevation outside [-90, 90]")

    def rotations(self) -> np.ndarray:
        return _axis_values("rotation", *self.rotation_range_deg)

    def rx_dir(self, rotation_deg: float) -> Direction:
        return Direction(float(rotation_deg), self.rx_elevation_deg)


@dataclass(frozen=True)
class LinkBudget:
    """Calibration of |y| to dBm plus the chamber noise environment."""

    calibration_dbm: float = -60.0
    noise_floor_dbm: float = -90.0
    sample_sigma_db: float = 0.5
    samples_per_point: int = 30

    def __post_init__(self):
        if not np.isfinite(self.calibration_dbm):
            raise DomainError("calibration must be finite")
        if not np.isfinite(self.noise_floor_dbm):
            raise DomainError("noise floor must be finite")
        if not (np.isfinite(self.sample_sigma_db) and self.sample_sigma_db >= 0):
            raise DomainError("sample sigma must be >= 0")
        if not isinstance(self.samples_per_point, (int, np.integer)) \
                or self.samples_per_point < 1:
            raise DomainError("samples_per_point must be a positive integer")


def _combine_with_floor(signal_dbm: np.ndarray, floor_dbm: float) -> np.ndarray:
    """Power-sum the deterministic signal with the chamber noise floor."""
    return 10.0 * np.log10(10.0 ** (np.asarray(signal_dbm) / 10.0)
                           + 10.0 ** (floor_dbm / 10.0))


def rsrp(spec: ArraySpec, config, tx: Direction, rx: Direction,
         budget: LinkBudget) -> float:
    """Noise-free RSRP in dBm: calibrated mean element gain, floor-combined.

    signal = calibration + 20*log10(|y| / active_count); an all-absorbing
    array (or an exact null) measures exactly the noise floor.
    """
    from .array_model import received_signal
    m = spec.active_count
    if m == 0:
        return float(budget.noise_floor_dbm)
    y = received_signal(spec, config, tx, rx)
    if abs(y) == 0.0:
        return float(budget.noise_floor_dbm)
    signal = budget.calibration_dbm + 20.0 * np.log10(abs(y) / m)
    return float(_combine_with_floor(signal, budget.noise_floor_dbm))


def field_regions(geometry: ChamberGeometry, frequency_hz: float) -> tuple:
    """(far-field distance 2 D^2 / lambda, reactive bound 0.62 sqrt(D^3/lambda))."""
    if not (np.isfinite(frequency_hz) and frequency_hz > 0):
        raise DomainError("frequency must be positive")
    lam = SPEED_OF_LIGHT / frequency_hz
    d = geometry.diagonal_m
    return 2.0 * d * d / lam, 0.62 * np.sqrt(d ** 3 / lam)


def _cell_rng(seed: int, row: int, col: int) -> np.random.Generator:
    """Counter-based stream private to one table cell."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    (seed >> 64) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    counter = np.array([0, 0, row, col], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _noise_means(shape: tuple, budget: LinkBudget, seed: int) -> np.ndarray:
    out = np.empty(shape)
    for r in range(shape[0]):
        for c in range(shape[1]):
            out[r, c] = _cell_rng(seed, r, c).normal(
                0.0, budget.sample_sigma_db, budget.samples_per_point).mean()
    return out


def _check_sweep(spec: ArraySpec, codebook: Codebook,
                 geometry: ChamberGeometry, seed) -> int:
    """Input checks shared by the sweeps; returns the validated seed."""
    seed = _check_seed(seed)
    if codebook.spec.size != spec.size:
        raise DomainError("codebook was built for a different array size")
    if codebook.tx != geometry.tx_dir:
        raise DomainError(
            f"codebook tx {codebook.tx} does not match chamber tx "
            f"{geometry.tx_dir}")
    return seed


def _measured(power: np.ndarray, budget: LinkBudget, seed: int) -> np.ndarray:
    """Noise-free powers plus per-cell chamber noise, rounded to the dataset
    serialization precision."""
    if budget.sample_sigma_db > 0.0:
        power = power + _noise_means(power.shape, budget, seed)
    return np.round(power, POWER_DECIMALS)


def _rsrp_matrix(spec: ArraySpec, phases: np.ndarray, tx: Direction,
                 rx_dirs: list, budget: LinkBudget) -> np.ndarray:
    """Noise-free RSRP for every (config row, rx direction) pair.

    Same math as the scalar rsrp(), vectorized over both axes.
    """
    m = spec.active_count
    g = np.exp(1j * element_phase_profile(spec, tx))
    h = np.column_stack([np.exp(-1j * element_phase_profile(spec, rx))
                         for rx in rx_dirs])            # (size, n_rx), conjugated
    excited = spec.mask * np.exp(1j * phases) * g       # (n_cfg, size)
    mag = np.abs(excited @ h)                           # (n_cfg, n_rx)
    if m == 0:
        return np.full(mag.shape, float(budget.noise_floor_dbm))
    with np.errstate(divide="ignore"):
        signal = budget.calibration_dbm + 20.0 * np.log10(mag / m)
    return _combine_with_floor(signal, budget.noise_floor_dbm)


def sweep_beampattern(spec: ArraySpec, codebook: Codebook,
                      geometry: ChamberGeometry, budget: LinkBudget,
                      seed: int = 0) -> BeampatternTable:
    """Measure every codebook beam at every turntable rotation.

    With sample_sigma_db = 0 the table is deterministic and identical for
    every seed.  Cells are rounded to the dataset serialization precision,
    so a table written to CSV reads back exactly equal.
    """
    seed = _check_sweep(spec, codebook, geometry, seed)
    rotations = geometry.rotations()
    rx_dirs = [geometry.rx_dir(r) for r in rotations]
    power = _rsrp_matrix(spec, codebook.phases(), geometry.tx_dir, rx_dirs,
                         budget)
    return BeampatternTable(codebook.beams.copy(), rotations.astype(float),
                            _measured(power, budget, seed),
                            float(geometry.tx_dir.azimuth_deg))


def sweep_absorption(spec: ArraySpec, codebook: Codebook,
                     geometry: ChamberGeometry, budget: LinkBudget,
                     seed: int = 0, sides=(2, 4, 8, 10)) -> AbsorptionTable:
    """Measure every codebook beam, boresight receiver, per active subarray.

    Columns follow `sides` in the given order; noise stream column indices
    do too.  The returned table only satisfies the published schema when
    sides are strictly increasing (duplicates are allowed in memory, e.g.
    for determinism checks, but will be rejected when written).
    """
    seed = _check_sweep(spec, codebook, geometry, seed)
    rx = [geometry.rx_dir(0.0)]
    phases = codebook.phases()
    columns = []
    for masked in absorption_masks(spec, sides):
        columns.append(_rsrp_matrix(masked, phases, geometry.tx_dir, rx,
                                    budget)[:, 0])
    counts = np.array([s * s for s in sides], dtype=int)
    return AbsorptionTable(codebook.beams.copy(), counts,
                           _measured(np.column_stack(columns), budget, seed))


@dataclass(frozen=True, eq=False)
class SampleCountStudy:
    """Per-count empirical distribution of the relative averaging error."""

    counts: tuple
    base_samples: int
    errors: dict  # count -> sorted ndarray of relative errors, one per trial

    def _errors_for(self, count: int) -> np.ndarray:
        try:
            return self.errors[count]
        except KeyError:
            raise NotFoundError(
                f"count {count} not studied; counts: {list(self.counts)}"
            ) from None

    def percentile(self, count: int, q: float) -> float:
        return float(np.percentile(self._errors_for(count), q))

    def cdf(self, count: int) -> tuple:
        """(sorted errors, cumulative fractions) for plotting."""
        e = self._errors_for(count)
        return e, np.arange(1, e.size + 1) / e.size


def sample_count_study(true_rsrp_dbm: float, sigma_db: float, counts,
                       trials: int, seed: int = 0,
                       base_samples: int = 80) -> SampleCountStudy:
    """How many samples per point are enough.

    Each trial draws `base_samples` noisy readings of a constant true RSRP;
    the trial's ground truth is the running mean over the full batch, and the
    error of a count c is |mean(first c) - mean(all)| / |mean(all)|.  At
    c = base_samples the error is exactly zero by construction.
    """
    seed = _check_seed(seed)
    if not np.isfinite(true_rsrp_dbm) or true_rsrp_dbm == 0.0:
        raise DomainError("true RSRP must be finite and nonzero")
    if not (np.isfinite(sigma_db) and sigma_db >= 0):
        raise DomainError("sigma must be >= 0")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError("trials must be a positive integer")
    counts = tuple(int(c) for c in counts)
    if len(counts) == 0:
        raise DomainError("counts must be non-empty")
    for c in counts:
        if not 1 <= c <= base_samples:
            raise DomainError(
                f"count {c} outside [1, {base_samples}]")

    rng = np.random.default_rng(seed)
    draws = true_rsrp_dbm + rng.normal(0.0, sigma_db, (trials, base_samples))
    running = np.cumsum(draws, axis=1) / np.arange(1, base_samples + 1)
    truth = running[:, base_samples - 1]
    errors = {}
    for c in counts:
        rel = np.abs(running[:, c - 1] - truth) / np.abs(truth)
        errors[c] = np.sort(rel)
    return SampleCountStudy(counts, base_samples, errors)
