"""Anechoic-chamber measurement model: turntable sweeps over a codebook.

The receiver sits on a boom at a fixed elevation while the table under the
array rotates in azimuth; the transmitter illuminates the array from a fixed
direction.  Each measured cell is an average of a few noisy RSRP samples.
Every cell draws its noise from its own counter-based Philox stream: key =
seed, counter = [0, 0, row, column].  One bit generator serves a whole table;
it is repositioned at each cell's counter rather than rebuilt, which yields
the same samples, so tables are reproducible and independent of the order in
which cells are evaluated.  The repositioning sets a state dict of plain
ints, and the samples are drawn and averaged a block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import (INDEX_LIMIT, ArraySpec, Direction, SPEED_OF_LIGHT,
                          _is_int, element_phase_profile, received_signal)
from .codebook import (_SIDES, Codebook, _axis_values, _refuse_absorbing,
                       _row_blocks, absorption_masks)
from .datasets import AbsorptionTable, BeampatternTable
from .errors import DomainError, NotFoundError

__all__ = [
    "ChamberGeometry",
    "LinkBudget",
    "SampleCountStudy",
    "field_regions",
    "rsrp",
    "sample_count_study",
    "sweep_absorption",
    "sweep_beampattern",
]

POWER_DECIMALS = 6  # dataset cells are rounded to the serialization precision
_PRODUCT_ROWS = 64  # config rows per unit of the blocked RSRP matrix product
_BASE_SAMPLES = 80  # readings per sample-count trial


@dataclass(frozen=True)
class ChamberGeometry:
    """Fixed chamber layout: illumination, boom elevation, turntable axis,
    and the array diagonal that sets the field regions.  The sweeps are a
    calibrated plane-wave model, so no antenna distance enters them."""

    tx_dir: Direction = Direction(0.0, -33.0)
    rx_elevation_deg: float = -3.0
    rotation_range_deg: tuple = (-90, 90, 3)
    diagonal_m: float = 0.43

    def __post_init__(self):
        self.rotations()
        if not (np.isfinite(self.diagonal_m) and self.diagonal_m > 0):
            raise DomainError(
                f"diagonal_m must be positive, got {self.diagonal_m!r}")
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
        if not _is_int(self.samples_per_point) or self.samples_per_point < 1:
            raise DomainError("samples_per_point must be a positive integer")
        if self.samples_per_point > INDEX_LIMIT:
            raise DomainError(f"{self.samples_per_point} samples per point "
                              "are more than numpy can index")


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


SEED_LIMIT = 1 << 128  # a Philox key holds 128 bits


def _check_seed(seed) -> int:
    if not _is_int(seed) or not 0 <= seed < SEED_LIMIT:
        raise DomainError(
            f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(seed)


def _noise_means(shape: tuple, budget: LinkBudget, seed: int) -> np.ndarray:
    """Mean of `samples_per_point` N(0, sigma) draws for every table cell.

    Cell (row, col) draws from Philox(key=seed, counter=[0, 0, row, col]).
    One Generator is built per call and moved to each cell's counter, with
    its buffer emptied, so every cell gets exactly the samples of a fresh
    generator at that counter.  The state it is moved to is one dict of
    plain ints whose counter list is edited in place: numpy reads such a
    dict about three times faster than one holding arrays.  Samples are
    drawn a block of rows at a time into one buffer of at most
    _BLOCK_ELEMENTS samples (one row when a row holds more), scaled in
    place and reduced by one mean per block.
    """
    seed = _check_seed(seed)
    key = [seed & 0xFFFFFFFFFFFFFFFF, seed >> 64]
    # as uint64: numpy would take a list of a low word of 2**63 or more and
    # a smaller high word as float64, warn, and round the key
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    rows, cols = shape
    n = budget.samples_per_point
    out = np.empty(shape)
    blocks = _row_blocks(rows, cols * n)
    z = np.empty(max((b.stop - b.start for b in blocks), default=0) * cols * n)
    for block in blocks:
        zb = z[:(block.stop - block.start) * cols * n].reshape(-1, cols, n)
        for r, cells in enumerate(zb, block.start):
            counter[2] = r
            for c, cell in enumerate(cells):
                counter[3] = c
                bitgen.state = state
                rng.standard_normal(out=cell)
        # the loc + scale * z of Generator.normal, then the per-cell mean
        np.multiply(budget.sample_sigma_db, zb, out=zb)
        np.add(0.0, zb, out=zb)
        zb.mean(axis=2, out=out[block])
    return out


def _check_sweep(codebook: Codebook, geometry: ChamberGeometry, seed) -> int:
    """Input checks shared by the sweeps; returns the validated seed."""
    seed = _check_seed(seed)
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


def _magnitudes(spec: ArraySpec, indices: np.ndarray, tx: Direction,
                rx_dirs: list) -> np.ndarray:
    """|y| for every (config row, rx direction) pair.

    `indices` holds one row of phase-set indices per config; each is looked
    up in the phasor table exp(1j * phase_set), which equals exp(1j * phase)
    cell by cell.  The product runs in blocks of whole 64-config multiples
    (about _BLOCK_ELEMENTS cells), a remainder under 64 configs merged into
    the last block.  So no block is a one-row matrix-vector product, whose
    sums round differently, and every block starts on the kernels' row
    unroll: each |y| keeps the bits of one product over all rows.

    Every block is gathered into the head of one buffer sized to the
    largest block and scaled in place; IEEE products commute, so this
    keeps the bits of ``spec.mask * phasors[indices[rows]] * g``.  The
    gather casts its indices to intp, so a block over _BLOCK_ELEMENTS
    cells is gathered in row slices of at most that many.
    """
    g = np.exp(1j * element_phase_profile(spec, tx))
    h = np.empty((spec.size, len(rx_dirs)), dtype=complex)  # conjugated
    for col, rx in enumerate(rx_dirs):
        h[:, col] = np.exp(-1j * element_phase_profile(spec, rx))
    phasors = np.exp(1j * spec.phase_set)
    mag = np.empty((indices.shape[0], len(rx_dirs)))    # (n_cfg, n_rx)
    blocks = _row_blocks(*indices.shape, _PRODUCT_ROWS)
    buf = np.empty((max((b.stop - b.start for b in blocks), default=0),
                    spec.size), dtype=complex)
    for rows in blocks:
        excited = buf[:rows.stop - rows.start]
        block = indices[rows]
        for part in _row_blocks(*block.shape):
            # Codebook validated the indices, so clipping changes none;
            # unlike the default mode it writes to `out` without a copy
            np.take(phasors, block[part], out=excited[part], mode="clip")
        excited *= spec.mask
        excited *= g
        np.abs(excited @ h, out=mag[rows])
    return mag


def _rsrp_matrix(spec: ArraySpec, indices: np.ndarray, tx: Direction,
                 rx_dirs: list, budget: LinkBudget) -> np.ndarray:
    """Noise-free RSRP for every (config row, rx direction) pair.

    Same math as the scalar rsrp(), vectorized over both axes.
    """
    m = spec.active_count
    if m == 0:
        return np.full((indices.shape[0], len(rx_dirs)),
                       float(budget.noise_floor_dbm))
    mag = _magnitudes(spec, indices, tx, rx_dirs)
    with np.errstate(divide="ignore"):
        signal = budget.calibration_dbm + 20.0 * np.log10(mag / m)
    return _combine_with_floor(signal, budget.noise_floor_dbm)


def sweep_beampattern(codebook: Codebook, geometry: ChamberGeometry,
                      budget: LinkBudget, seed: int = 0) -> BeampatternTable:
    """Measure every codebook beam at every turntable rotation.

    The array, mask included, is the codebook's.  With sample_sigma_db = 0
    the table is deterministic and identical for every seed.  Cells are
    rounded to the dataset serialization precision, so a table written to
    CSV reads back exactly equal.
    """
    seed = _check_sweep(codebook, geometry, seed)
    rotations = geometry.rotations()
    rx_dirs = [geometry.rx_dir(r) for r in rotations]
    power = _rsrp_matrix(codebook.spec, codebook.indices, geometry.tx_dir,
                         rx_dirs, budget)
    return BeampatternTable(codebook.beams.copy(), rotations.astype(float),
                            _measured(power, budget, seed),
                            float(geometry.tx_dir.azimuth_deg))


def sweep_absorption(codebook: Codebook, geometry: ChamberGeometry,
                     budget: LinkBudget, seed: int = 0) -> AbsorptionTable:
    """Measure every codebook beam, boresight receiver, per active subarray
    of the codebook's array, which may have no absorbing elements.

    Columns, and the noise stream column indices, follow the paper's
    subarray sides in increasing order.
    """
    seed = _check_sweep(codebook, geometry, seed)
    _refuse_absorbing(codebook.spec, "subarray masks replace the array's own")
    rx = [geometry.rx_dir(0.0)]
    columns = [_rsrp_matrix(masked, codebook.indices, geometry.tx_dir, rx,
                            budget)[:, 0]
               for masked in absorption_masks(codebook.spec)]
    counts = np.array([s * s for s in _SIDES], dtype=int)
    return AbsorptionTable(codebook.beams.copy(), counts,
                           _measured(np.column_stack(columns), budget, seed))


@dataclass(frozen=True, eq=False)
class SampleCountStudy:
    """Per-count empirical distribution of the relative averaging error."""

    counts: tuple
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
                       trials: int, seed: int = 0) -> SampleCountStudy:
    """How many samples per point are enough.

    Each trial draws 80 noisy readings of a constant true RSRP; the trial's
    ground truth is the running mean over the full batch, and the error of a
    count c is |mean(first c) - mean(all)| / |mean(all)|.  At c = 80 the
    error is exactly zero by construction.
    """
    seed = _check_seed(seed)
    if not np.isfinite(true_rsrp_dbm) or true_rsrp_dbm == 0.0:
        raise DomainError("true RSRP must be finite and nonzero")
    if not (np.isfinite(sigma_db) and sigma_db >= 0):
        raise DomainError("sigma must be >= 0")
    if not _is_int(trials) or trials < 1:
        raise DomainError("trials must be a positive integer")
    counts = tuple(counts)
    if len(counts) == 0:
        raise DomainError("counts must be non-empty")
    for c in counts:
        if not _is_int(c):
            raise DomainError(f"count must be an integer, got {c!r}")
        if not 1 <= c <= _BASE_SAMPLES:
            raise DomainError(f"count {c} outside [1, {_BASE_SAMPLES}]")
    counts = tuple(int(c) for c in counts)

    rng = np.random.default_rng(seed)
    draws = true_rsrp_dbm + rng.normal(0.0, sigma_db, (trials, _BASE_SAMPLES))
    running = np.cumsum(draws, axis=1) / np.arange(1, _BASE_SAMPLES + 1)
    truth = running[:, _BASE_SAMPLES - 1]
    errors = {}
    for c in counts:
        rel = np.abs(running[:, c - 1] - truth) / np.abs(truth)
        errors[c] = np.sort(rel)
    return SampleCountStudy(counts, errors)
