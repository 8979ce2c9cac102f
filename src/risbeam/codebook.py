"""Steering codebook over a rectangular angle grid, plus absorption masks.

A codebook row holds the quantized phase config that steers the reflection
toward one (azimuth, elevation) grid beam for a fixed transmitter direction.
Rows are ordered azimuth-major with elevation varying fastest, i.e.
(-90, -45), (-90, -42), ..., matching the row order of exported datasets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .array_model import (ArraySpec, Direction, PhaseConfig,
                          element_phase_profile, quantize_phases, TWO_PI)
from .datasets import (_as_beams, _ascii_rows, _beam_index, _check_beams,
                       _fixed_rows, _fmt_angle, _fmt_exact, _header,
                       _iter_lines, _parse_rows, _write_rows)
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
# np.take copies its indices as intp: one cell's share of such a copy
_INTP_BYTES = np.dtype(np.intp).itemsize
# The bucket table of _index_blocks: [0, 2*pi) is cut into _BUCKETS equal
# buckets, and when a phase may exceed _TRUSTED in magnitude every cell
# skips the table.  Up to that magnitude a cell's fixed-point position is
# within 2**-14 of a bucket of its float phase, far inside the
# quarter-bucket margin the table keeps.
_BUCKETS = 1 << 16
_TRUSTED = float(1 << 20)
_PER_RADIAN = _BUCKETS / TWO_PI


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

    def _blocks(self, cuts):
        """(rows, indices) for each slice of rows in `cuts`."""
        for rows in cuts:
            yield rows, self.indices[rows]


@dataclass(frozen=True, eq=False)
class _StreamedCodebook:
    """The codebook build_codebook would return, quantized a block of beams
    at a time as it is read, so its index matrix is never held whole.  The
    sweeps take it where they take a Codebook: both have spec, tx, beams,
    a length and _blocks.  `mode` must be checked."""

    spec: ArraySpec
    tx: Direction
    grid: CodebookGrid
    mode: str

    @property
    def beams(self) -> np.ndarray:
        return _grid_beams(self.grid)

    def __len__(self) -> int:
        return len(self.grid)

    def _blocks(self, cuts):
        """(rows, indices) for each slice of rows in `cuts`, each block
        overwritten by the next (see _index_blocks)."""
        return _index_blocks(self.spec, self.tx, self.grid, self.mode, cuts)


def _bucket_owners(phase_set: np.ndarray) -> np.ndarray:
    """The phase-set index that owns each bucket, or K = phase_set.size,
    one past the last index, where the table cannot settle a phase.

    Entry k owns the arc between its two circular midpoints; the gap from
    entry K-1 round to entry 0 holds 2*pi, so the table starts with its
    part past 2*pi and ends with its part below.  A phase more than a
    quarter bucket from every midpoint is nearer to one of its two
    bracketing entries by far more than float rounding, and
    quantize_phases, which compares just those two, picks that owner.
    Buckets near a midpoint are unsettled, and so is every bucket when all
    entries lie within one: the short way round, both ends of such a
    cluster are then about equally far from any phase.
    """
    k = phase_set.size
    dtype = np.min_scalar_type(k)
    gaps = np.diff(phase_set, append=phase_set[0] + TWO_PI)
    if (TWO_PI - gaps.max()) * _PER_RADIAN < 1.0:
        return np.full(_BUCKETS, k, dtype=dtype)
    mids = (phase_set + gaps / 2) * _PER_RADIAN
    edges = np.ceil(mids).astype(np.intp)
    bounds = np.clip(np.append(edges[-1] - _BUCKETS, edges), 0, _BUCKETS)
    owners = np.repeat(np.r_[k - 1, 0:k, 0].astype(dtype),
                       np.diff(bounds, prepend=0, append=_BUCKETS))
    near = np.floor(mids[:, None] + [-0.25, 0.25]).astype(np.intp)
    owners[near & (_BUCKETS - 1)] = k
    return owners


def _fixed_point(phases: np.ndarray) -> np.ndarray:
    """Phases as uint32 positions on the circle: one turn is 2**32, so a
    bucket of the table is 2**16 and the top 16 bits name it.  The phases
    must be finite and within _TRUSTED in magnitude."""
    # int64 to uint32 wraps modulo 2**32, i.e. modulo one turn
    return np.rint(phases * (_PER_RADIAN * (1 << 16))).astype(
        np.int64).astype(np.uint32)


def _grid_beams(grid: CodebookGrid) -> np.ndarray:
    """The grid's (azimuth, elevation) beams in codebook order."""
    azimuths, elevations = grid.azimuths(), grid.elevations()
    return np.column_stack([
        np.repeat(azimuths.astype(float), elevations.size),
        np.tile(elevations.astype(float), azimuths.size),
    ])


def _index_blocks(spec: ArraySpec, tx: Direction, grid: CodebookGrid,
                  mode: str, cuts: list):
    """Quantized configs of the grid's beams, as (rows, indices) for each
    slice of beams in `cuts`, in order.

    The phase of cell (ix, iy) in beam (az, el) is separable: px[az, ix] +
    py[el, iy] minus the tx profile ptx[ix] + pty[iy].  Each axis keeps
    px - ptx or py - pty as fixed-point positions, and a part of a block
    costs one uint32 add and one lookup in the bucket table of
    _bucket_owners.
    A settled bucket lies at least a quarter bucket from every midpoint
    between entries, and a position is within 2**-14 bucket of the exact
    float phase, so both have the same nearest entry.  Cells in unsettled
    buckets, and all cells when a phase may exceed 2**20 in magnitude,
    take the exact route: their float phase (px + py) - tx profile goes
    to quantize_phases.  So every index, whatever the cuts, is the one
    quantize_phases gives for the cell's float phase.

    Each block is quantized in parts of at most _BLOCK_ELEMENTS cells (one
    row when a row holds more) into one buffer sized to the longest cut:
    a yielded block is overwritten by the next.  `mode` must be checked.
    """
    azimuths = grid.azimuths()
    elevations = grid.elevations()

    dx = TWO_PI * spec.delta * np.arange(spec.nx)
    dy = TWO_PI * spec.delta * np.arange(spec.ny)
    px = np.sin(np.deg2rad(azimuths))[:, None] * dx[None, :]    # (n_az, nx)
    py = np.sin(np.deg2rad(elevations))[:, None] * dy[None, :]  # (n_el, ny)
    tx_profile = element_phase_profile(spec, tx)
    if mode == MODE_UNCOMPENSATED:
        tx_profile = np.zeros_like(tx_profile)
    out = np.empty((max(c.stop - c.start for c in cuts), spec.size),
                   dtype=_index_type(spec.phase_set))

    # False for nan too: a non-finite phase then fails in quantize_phases
    trusted = (np.abs(px).max() + np.abs(py).max()
               + np.abs(tx_profile).max()) <= _TRUSTED
    if trusted:
        # the profile's first column is ptx[ix] + 0, its first row 0 + pty[iy]
        tx_grid = tx_profile.reshape(spec.nx, spec.ny)
        ax = _fixed_point(px - tx_grid[:, 0])
        ay = _fixed_point(py - tx_grid[0])
        unsettled = spec.phase_set.size  # one past the last index
        owners = _bucket_owners(spec.phase_set)
        # per-part buffers, sized for the first part, the longest
        longest = _row_blocks(*out.shape)[0].stop * spec.size
        pos = np.empty(longest, dtype=np.uint32)
        owner = np.empty(longest, dtype=owners.dtype)
    for rows in cuts:
        block = out[:rows.stop - rows.start]
        for part in _row_blocks(*block.shape):
            az, el = np.divmod(np.arange(rows.start + part.start,
                                         rows.start + part.stop),
                               elevations.size)
            flat = block[part].reshape(-1)
            if trusted:
                cells = slice(flat.size)
                np.add(ax[az][:, :, None], ay[el][:, None, :],
                       out=pos[cells].reshape(az.size, spec.nx, spec.ny))
                bucket = pos[cells]
                bucket >>= 16
                # the buckets are in range: "clip" changes none, "raise"
                # copies; take copies the buckets as intp, a slice at a time
                for sub in _row_blocks(flat.size, _INTP_BYTES):
                    np.take(owners, bucket[sub], out=owner[sub], mode="clip")
                flat[...] = owner[cells]
                unsure = np.flatnonzero(owner[cells] == unsettled)
            else:
                unsure = np.arange(flat.size)
            if unsure.size:
                beam, cell = np.divmod(unsure, spec.size)
                ix, iy = np.divmod(cell, spec.ny)
                raw = (px[az[beam], ix] + py[el[beam], iy]) - tx_profile[cell]
                flat[unsure] = quantize_phases(raw, spec.phase_set)
        yield rows, block


def build_codebook(spec: ArraySpec, tx: Direction,
                   grid: CodebookGrid = CodebookGrid(),
                   mode: str = MODE_TX_COMPENSATED) -> Codebook:
    """Quantized config per grid beam.

    tx-compensated rows equal quantize_config(ideal_config(spec, tx, beam));
    uncompensated rows drop the transmitter term and quantize arg h(beam)
    alone, which shifts the real beam away from the nominal label.  The
    index matrix is filled from _index_blocks, a block of about
    _BLOCK_ELEMENTS cells at a time.
    """
    _check_mode(mode)
    n = len(grid)
    indices = np.empty((n, spec.size), dtype=_index_type(spec.phase_set))
    for rows, block in _index_blocks(spec, tx, grid, mode,
                                     _row_blocks(n, spec.size)):
        indices[rows] = block
    return Codebook(spec, tx, mode, _grid_beams(grid), indices)


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
    """The codebook of a file written by write_codebook.

    Body rows are parsed a line at a time as the file is read, into an
    index matrix allocated once, so the file's text is never held whole.
    A file that is not UTF-8 text fails as such, naming the line of its
    first undecodable byte, whatever else is wrong with it: on any other
    error the rest of the file is still decoded."""
    lines = _iter_lines(path)
    try:
        return _parse_codebook(path, lines)
    except ParseError:
        for _ in lines:
            pass
        raise


def _parse_codebook(path, lines) -> Codebook:
    first = next(lines, None)
    if first is None or not first.startswith("# "):
        raise ParseError(f"{path}: missing codebook metadata comment line")
    meta = {}
    for token in first[2:].split():
        if "=" not in token:
            raise ParseError(f"{path}: bad metadata token {token!r}")
        k, v = token.split("=", 1)
        meta[k] = v
    header = next(lines, None)
    if header is None:
        raise ParseError(f"{path}: missing header row")
    columns = sum(c.startswith("idx_") for c in header.split(","))
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

    if header != _header("idx_%d" % k for k in range(spec.size)):
        raise ParseError(f"{path}: header does not match the codebook schema")
    # a row is 2 * size + 3 characters or more and, but for the last, a
    # break, so the file's size bounds the rows; _parse_rows fits the matrix
    bound = os.path.getsize(path) // (2 * spec.size + 4) + 1
    rows = np.empty((bound, spec.size), dtype=_index_type(spec.phase_set))
    beams = _parse_rows(path, lines, 3, rows, spec.phase_set.size)
    if not len(beams):
        raise ParseError(f"{path}: no data rows")
    try:
        return Codebook(spec, tx, mode, beams, rows)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
