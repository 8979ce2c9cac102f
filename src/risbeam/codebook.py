"""Steering codebook over a rectangular angle grid, plus absorption masks.

A codebook row holds the quantized phase config that steers the reflection
toward one (azimuth, elevation) grid beam for a fixed transmitter direction.
Rows are ordered azimuth-major with elevation varying fastest, i.e.
(-90, -45), (-90, -42), ..., matching the row order of exported datasets.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .array_model import (ArraySpec, Direction, PhaseConfig,
                          element_phase_profile, quantize_phases, TWO_PI)
from .datasets import _fmt_angle, _read_lines
from .errors import DomainError, NotFoundError, ParseError

MODE_TX_COMPENSATED = "tx-compensated"
MODE_UNCOMPENSATED = "uncompensated"
MODES = (MODE_TX_COMPENSATED, MODE_UNCOMPENSATED)


def _axis_values(name: str, lo, hi, step) -> np.ndarray:
    """Integer-degree axis lo..hi inclusive; fractional grids are rejected
    so angles stay exact dataset keys."""
    for label, v in (("min", lo), ("max", hi), ("step", step)):
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
    _row_of: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        beams = np.asarray(self.beams, dtype=float)
        # int16 covers the realistic 3-bit sets; oversized phase sets (used
        # as near-continuous references) need the wider type.
        index_type = np.int16 if self.spec.phase_set.size <= 2**15 else np.int32
        indices = np.asarray(self.indices, dtype=index_type)
        if beams.ndim != 2 or beams.shape[1] != 2:
            raise DomainError("beams must have shape (n, 2)")
        if indices.shape != (beams.shape[0], self.spec.size):
            raise DomainError(
                f"indices must have shape ({beams.shape[0]}, {self.spec.size})")
        if np.any(indices < 0) or np.any(indices >= self.spec.phase_set.size):
            raise DomainError("indices outside the phase set")
        object.__setattr__(self, "beams", beams)
        object.__setattr__(self, "indices", indices)
        row_of = {(float(a), float(e)): i for i, (a, e) in enumerate(beams)}
        object.__setattr__(self, "_row_of", row_of)

    def __len__(self) -> int:
        return self.beams.shape[0]

    def config(self, row: int) -> PhaseConfig:
        idx = np.asarray(self.indices[row], dtype=int)
        return PhaseConfig(self.spec.phase_set[idx], idx)

    def phases(self) -> np.ndarray:
        """(n, size) matrix of quantized phases in radians."""
        return self.spec.phase_set[np.asarray(self.indices, dtype=int)]

    def index_of(self, beam: Direction) -> int:
        key = (float(beam.azimuth_deg), float(beam.elevation_deg))
        try:
            return self._row_of[key]
        except KeyError:
            nearest = self._nearest_keys(key)
            raise NotFoundError(
                f"beam ({key[0]:g}, {key[1]:g}) not in codebook; "
                f"nearest beams: {nearest}") from None

    def entries(self):
        for i, (az, el) in enumerate(self.beams):
            yield Direction(az, el), self.config(i)

    def _nearest_keys(self, key, count: int = 3) -> list:
        d = np.hypot(self.beams[:, 0] - key[0], self.beams[:, 1] - key[1])
        order = np.argsort(d, kind="stable")[:count]
        return [(float(a), float(e)) for a, e in self.beams[order]]


def lookup(codebook: Codebook, beam: Direction) -> PhaseConfig:
    """Config for an exact grid beam; off-grid beams raise NotFoundError."""
    return codebook.config(codebook.index_of(beam))


def build_codebook(spec: ArraySpec, tx: Direction,
                   grid: CodebookGrid = CodebookGrid(),
                   mode: str = MODE_TX_COMPENSATED) -> Codebook:
    """Quantized config per grid beam.

    tx-compensated rows equal quantize_config(ideal_config(spec, tx, beam));
    uncompensated rows drop the transmitter term and quantize arg h(beam)
    alone, which shifts the real beam away from the nominal label.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    azimuths = grid.azimuths()
    elevations = grid.elevations()

    dx = TWO_PI * spec.delta * np.arange(spec.nx)
    dy = TWO_PI * spec.delta * np.arange(spec.ny)
    px = np.sin(np.deg2rad(azimuths))[:, None] * dx[None, :]    # (n_az, nx)
    py = np.sin(np.deg2rad(elevations))[:, None] * dy[None, :]  # (n_el, ny)
    raw = (px[:, None, :, None] + py[None, :, None, :]).reshape(-1, spec.size)
    if mode == MODE_TX_COMPENSATED:
        raw = raw - element_phase_profile(spec, tx)[None, :]
    indices = quantize_phases(raw % TWO_PI, spec.phase_set)

    beams = np.column_stack([
        np.repeat(azimuths.astype(float), elevations.size),
        np.tile(elevations.astype(float), azimuths.size),
    ])
    return Codebook(spec, tx, mode, beams, indices)


def absorption_masks(spec: ArraySpec, sides=(2, 4, 8, 10)) -> list:
    """Specs with only the top-left side x side block reflecting.

    Masks are nested: every element active for side s is active for s' > s.
    """
    if len(sides) == 0:
        raise DomainError("sides must be non-empty")
    out = []
    for s in sides:
        if not isinstance(s, (int, np.integer)) or s < 1:
            raise DomainError(f"subarray side must be a positive integer, got {s!r}")
        if s > spec.nx or s > spec.ny:
            raise DomainError(
                f"subarray side {s} exceeds array dimensions {spec.nx}x{spec.ny}")
        mask = ((np.arange(spec.nx) < s)[:, None]
                & (np.arange(spec.ny) < s)[None, :]).ravel()
        out.append(spec.with_mask(mask))
    return out


# ---------------------------------------------------------------------------
# CSV export / import.  The header comment carries everything needed to
# rebuild the codebook object; the body is one row per beam with the 3-bit
# (or wider) phase indices.

def _fmt_g17(v: float) -> str:
    return "%.17g" % v


def write_codebook(codebook: Codebook, path) -> None:
    spec, tx = codebook.spec, codebook.tx
    buf = io.StringIO()
    buf.write("# nx=%d ny=%d delta=%s frequency_hz=%s"
              " tx_azimuth=%s tx_elevation=%s mode=%s phase_set=%s\n" % (
                  spec.nx, spec.ny, _fmt_g17(spec.delta),
                  _fmt_g17(spec.frequency_hz),
                  _fmt_angle(tx.azimuth_deg), _fmt_angle(tx.elevation_deg),
                  codebook.mode,
                  ",".join(_fmt_g17(p) for p in spec.phase_set)))
    buf.write("theta_n,phi_n," +
              ",".join("idx_%d" % k for k in range(spec.size)) + "\n")
    for (az, el), row in zip(codebook.beams, codebook.indices):
        buf.write(_fmt_angle(az) + "," + _fmt_angle(el) + "," +
                  ",".join("%d" % i for i in row) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


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
    try:
        spec = ArraySpec(
            int(meta["nx"]), int(meta["ny"]), float(meta["delta"]),
            float(meta["frequency_hz"]),
            np.array([float(p) for p in meta["phase_set"].split(",")]))
        tx = Direction(float(meta["tx_azimuth"]), float(meta["tx_elevation"]))
        mode = meta["mode"]
    except KeyError as exc:
        raise ParseError(f"{path}: metadata missing key {exc}") from None
    except (ValueError, DomainError) as exc:
        raise ParseError(f"{path}: bad metadata: {exc}") from None

    if len(lines) < 2:
        raise ParseError(f"{path}: missing header row")
    expected = "theta_n,phi_n," + ",".join(
        "idx_%d" % k for k in range(spec.size))
    if lines[1] != expected:
        raise ParseError(f"{path}: header does not match the codebook schema")

    beams, rows = [], []
    for ln, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 2 + spec.size:
            raise ParseError(
                f"{path}: line {ln}: expected {2 + spec.size} fields, "
                f"got {len(parts)}")
        try:
            beams.append((float(parts[0]), float(parts[1])))
            rows.append([int(p) for p in parts[2:]])
        except ValueError as exc:
            raise ParseError(f"{path}: line {ln}: {exc}") from None
    try:
        return Codebook(spec, tx, mode, np.array(beams, float).reshape(-1, 2),
                        np.array(rows, int).reshape(-1, spec.size))
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
