"""Steering codebook over a rectangular angle grid, plus absorption masks.

A codebook row holds the quantized phase config that steers the reflection
toward one (azimuth, elevation) grid beam for a fixed transmitter direction.
Rows are ordered azimuth-major with elevation varying fastest, i.e.
(-90, -45), (-90, -42), ..., matching the row order of exported datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import (ArraySpec, Direction, PhaseConfig,
                          element_phase_profile, quantize_phases, TWO_PI)
from .datasets import (_as_beams, _ascii_rows, _beam_index, _check_beams,
                       _fixed_rows, _fmt_angle, _fmt_exact, _header,
                       _parse_rows, _read_lines, _write_rows)
from .errors import DomainError, ParseError

__all__ = [
    "MODE_TX_COMPENSATED",
    "MODE_UNCOMPENSATED",
    "Codebook",
    "CodebookGrid",
    "absorption_masks",
    "build_codebook",
    "read_codebook",
    "write_codebook",
]

MODE_TX_COMPENSATED = "tx-compensated"
MODE_UNCOMPENSATED = "uncompensated"
MODES = (MODE_TX_COMPENSATED, MODE_UNCOMPENSATED)
_SIDES = (2, 4, 8, 10)  # the paper's absorption subarray sides

# Codebook-sized matrices are processed this many cells at a time, so the
# float and complex temporaries stay a few MB, near cache size, however
# large the array grows.
_BLOCK_ELEMENTS = 1 << 18


def _check_mode(mode) -> None:
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")


def _row_blocks(rows: int, size: int, unit: int = 1) -> list:
    """Slices over `rows` rows of `size` cells.  Each block is one step
    long, a whole number of `unit` rows (at least one) holding at most
    _BLOCK_ELEMENTS cells when a unit fits; the last block runs to `rows`
    and takes in a remainder shorter than `unit`."""
    step = max(1, _BLOCK_ELEMENTS // size // unit) * unit
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] < unit:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [rows])]


def _index_type(phase_set: np.ndarray) -> type:
    # the narrowest unsigned type holding every index: uint8 for the 3-bit
    # sets, wider for the near-continuous reference sets
    return np.min_scalar_type(phase_set.size - 1).type


def _axis_values(name: str, lo, hi, step) -> np.ndarray:
    """Integer-degree axis lo..hi inclusive within [-90, 90]; fractional
    grids are rejected so angles stay exact dataset keys."""
    for label, v, limit in (("min", lo, 90), ("max", hi, 90),
                            ("step", step, 180)):
        # False for nan as well; a bounded value is safe to pass to int()
        if not -limit <= v <= limit:
            raise DomainError(
                f"{name} {label} must lie in [-{limit}, {limit}], got {v!r}")
        if float(v) != int(v):
            raise DomainError(f"{name} {label} must be an integer degree, got {v!r}")
    lo, hi, step = int(lo), int(hi), int(step)
    if step <= 0:
        raise DomainError(f"{name} step must be positive, got {step}")
    if lo > hi:
        raise DomainError(f"{name} range is empty: {lo} > {hi}")
    if (hi - lo) % step != 0:
        raise DomainError(f"{name} span {hi - lo} is not a multiple of step {step}")
    return np.arange(lo, hi + step, step)


@dataclass(frozen=True)
class CodebookGrid:
    """Rectangular beam grid in integer degrees: (min, max, step) per axis."""

    azimuth_deg: tuple = (-90, 90, 3)
    elevation_deg: tuple = (-45, 45, 3)

    def __post_init__(self):
        self.azimuths()
        self.elevations()

    def azimuths(self) -> np.ndarray:
        return _axis_values("azimuth", *self.azimuth_deg)

    def elevations(self) -> np.ndarray:
        return _axis_values("elevation", *self.elevation_deg)

    def __len__(self) -> int:
        return self.azimuths().size * self.elevations().size


@dataclass(frozen=True, eq=False)
class Codebook:
    """Quantized steering configs for every beam of a grid.

    beams is an (n, 2) float array of (azimuth, elevation) in codebook order;
    indices is the (n, size) matrix of phase-set indices.
    """

    spec: ArraySpec
    tx: Direction
    mode: str
    beams: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        _check_mode(self.mode)
        beams = _as_beams(self.beams)
        _check_beams(beams)
        indices = np.asarray(self.indices)
        if indices.dtype.kind not in "iu":
            raise DomainError(
                f"indices must be integers, got dtype {indices.dtype}")
        if indices.shape != (beams.shape[0], self.spec.size):
            raise DomainError(
                f"indices must have shape ({beams.shape[0]}, {self.spec.size})")
        # checked before the cast, which would wrap e.g. 256 to 0 in uint8;
        # min and max allocate nothing index-sized
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.spec.phase_set.size):
            raise DomainError("indices outside the phase set")
        indices = indices.astype(_index_type(self.spec.phase_set), copy=False)
        object.__setattr__(self, "beams", beams)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return self.beams.shape[0]

    def config(self, row: int) -> PhaseConfig:
        return PhaseConfig(self.spec.phase_set[self.indices[row]])

    def index_of(self, beam: Direction) -> int:
        return _beam_index(self.beams, (beam.azimuth_deg, beam.elevation_deg),
                           "codebook")


def build_codebook(spec: ArraySpec, tx: Direction,
                   grid: CodebookGrid = CodebookGrid(),
                   mode: str = MODE_TX_COMPENSATED) -> Codebook:
    """Quantized config per grid beam.

    tx-compensated rows equal quantize_config(ideal_config(spec, tx, beam));
    uncompensated rows drop the transmitter term and quantize arg h(beam)
    alone, which shifts the real beam away from the nominal label.  Rows are
    quantized in blocks of beams; the block size does not change any index.
    """
    _check_mode(mode)
    azimuths = grid.azimuths()
    elevations = grid.elevations()

    dx = TWO_PI * spec.delta * np.arange(spec.nx)
    dy = TWO_PI * spec.delta * np.arange(spec.ny)
    px = np.sin(np.deg2rad(azimuths))[:, None] * dx[None, :]    # (n_az, nx)
    py = np.sin(np.deg2rad(elevations))[:, None] * dy[None, :]  # (n_el, ny)
    tx_profile = element_phase_profile(spec, tx)
    n = azimuths.size * elevations.size
    indices = np.empty((n, spec.size), dtype=_index_type(spec.phase_set))
    for rows in _row_blocks(n, spec.size):
        az, el = np.divmod(np.arange(rows.start, rows.stop), elevations.size)
        raw = (px[az][:, :, None] + py[el][:, None, :]).reshape(-1, spec.size)
        if mode == MODE_TX_COMPENSATED:
            raw -= tx_profile
        indices[rows] = quantize_phases(raw, spec.phase_set)

    beams = np.column_stack([
        np.repeat(azimuths.astype(float), elevations.size),
        np.tile(elevations.astype(float), azimuths.size),
    ])
    return Codebook(spec, tx, mode, beams, indices)


def absorption_masks(spec: ArraySpec) -> list:
    """Specs with only the top-left side x side block reflecting, one per
    paper subarray side.

    Masks are nested: every element active for side s is active for s' > s.
    """
    out = []
    for s in _SIDES:
        if s > spec.nx or s > spec.ny:
            raise DomainError(
                f"subarray side {s} exceeds array dimensions {spec.nx}x{spec.ny}")
        mask = ((np.arange(spec.nx) < s)[:, None]
                & (np.arange(spec.ny) < s)[None, :]).ravel()
        out.append(spec.with_mask(mask))
    return out


def _refuse_absorbing(spec: ArraySpec, reason: str) -> None:
    if not spec.mask.all():
        raise DomainError("codebook array has absorbing elements (%d of %d); %s"
                          % (spec.size - spec.active_count, spec.size, reason))


# ---------------------------------------------------------------------------
# CSV export / import in the dataset beam-row layout.  The comment line
# carries everything needed to rebuild the codebook object; the cells of a
# beam's row are its 3-bit (or wider) phase indices.

def write_codebook(codebook: Codebook, path) -> None:
    """The file stores no mask, so a codebook with absorbing elements is
    refused: reading it back would sweep a different array."""
    spec, tx = codebook.spec, codebook.tx
    _refuse_absorbing(spec, "codebook files store no mask")
    meta = ("nx=%d ny=%d delta=%s frequency_hz=%s"
            " tx_azimuth=%s tx_elevation=%s mode=%s phase_set=%s" % (
                spec.nx, spec.ny, _fmt_exact(spec.delta),
                _fmt_exact(spec.frequency_hz),
                _fmt_angle(tx.azimuth_deg), _fmt_angle(tx.elevation_deg),
                codebook.mode, ",".join(map(_fmt_exact, spec.phase_set))))
    _write_rows(path, meta, ["idx_%d" % k for k in range(spec.size)],
                codebook.beams, _cell_rows(codebook))


def _cell_rows(codebook: Codebook):
    """Text of each row's cells, in beam order, a block of rows at a time.

    Row k of a byte table holds the ASCII of ``"%d," % k``, NUL-padded to
    the widest entry; Codebook validated every index against the phase set,
    so one gather over the table spells a whole block, which `_fixed_rows`
    cuts into rows.
    """
    table = _ascii_rows("%d," % k for k in range(codebook.spec.phase_set.size))
    for rows in _row_blocks(len(codebook), codebook.spec.size):
        # np.take gathers whole table rows faster than fancy indexing
        yield from _fixed_rows(np.take(table, codebook.indices[rows], axis=0))


def read_codebook(path) -> Codebook:
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("# "):
        raise ParseError(f"{path}: missing codebook metadata comment line")
    meta = {}
    for token in lines[0][2:].split():
        if "=" not in token:
            raise ParseError(f"{path}: bad metadata token {token!r}")
        k, v = token.split("=", 1)
        meta[k] = v
    if len(lines) < 2:
        raise ParseError(f"{path}: missing header row")
    columns = sum(c.startswith("idx_") for c in lines[1].split(","))
    try:
        nx, ny = int(meta["nx"]), int(meta["ny"])
        # checked before ArraySpec: nx and ny alone could ask for any memory
        if nx * ny != columns:
            raise DomainError(f"{nx}x{ny} array but {columns} idx columns")
        spec = ArraySpec(
            nx, ny, float(meta["delta"]), float(meta["frequency_hz"]),
            np.array([float(p) for p in meta["phase_set"].split(",")]))
        tx = Direction(float(meta["tx_azimuth"]), float(meta["tx_elevation"]))
        mode = meta["mode"]
    except KeyError as exc:
        raise ParseError(f"{path}: metadata missing key {exc}") from None
    except (ValueError, DomainError) as exc:
        raise ParseError(f"{path}: bad metadata: {exc}") from None

    if lines[1] != _header("idx_%d" % k for k in range(spec.size)):
        raise ParseError(f"{path}: header does not match the codebook schema")
    if len(lines) == 2:
        raise ParseError(f"{path}: no data rows")

    rows = np.empty((len(lines) - 2, spec.size),
                    dtype=_index_type(spec.phase_set))
    beams = _parse_rows(path, lines[2:], 3, rows, spec.phase_set.size)
    try:
        return Codebook(spec, tx, mode, beams, rows)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
