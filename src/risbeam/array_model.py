"""Signal model of a phase-shifting reflective array.

Conventions used throughout the toolkit: boresight is (azimuth, elevation)
= (0, 0) and both axes advance their element phase with sin(angle), so a
boresight wave hits every element in phase.  Elements are ordered from the
top-left corner with the second axis fastest (index = ix * ny + iy), which
is exactly the ordering produced by kron(a_x, a_y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ArraySpec",
    "Direction",
    "PhaseConfig",
    "element_phase_profile",
    "ideal_config",
    "quantization_loss",
    "quantize_config",
    "quantize_phases",
    "received_signal",
    "steering_vector",
    "uniform_phase_set",
]

TWO_PI = 2.0 * np.pi
SPEED_OF_LIGHT = 299792458.0
INDEX_LIMIT = np.iinfo(np.intp).max  # the largest array size numpy can index


def _is_int(value) -> bool:
    """An integer count or seed; Python's bool is an int but never means
    one (numpy's bool_ is no np.integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def uniform_phase_set(count: int = 8) -> np.ndarray:
    """Evenly spaced reflection phases {m * 2*pi/count}, ascending from 0."""
    if not _is_int(count) or count < 1:
        raise DomainError("phase set size must be a positive integer")
    if count > INDEX_LIMIT:
        raise DomainError(f"{count} phase states are more than numpy can index")
    return np.arange(count) * (TWO_PI / count)


@dataclass(frozen=True)
class Direction:
    """A propagation direction in degrees, both angles within [-90, 90]."""

    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        for name, value in (("azimuth", self.azimuth_deg),
                            ("elevation", self.elevation_deg)):
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            if not -90.0 <= value <= 90.0:
                raise DomainError(
                    f"{name} {value} deg outside [-90, 90]")


@dataclass(frozen=True, eq=False)
class ArraySpec:
    """Geometry and phase capability of the reflective array.

    delta is the element pitch in wavelengths.  mask marks reflecting
    elements (True); masked-off elements absorb and contribute nothing to
    the received signal.  phase_set holds the realizable reflection phases
    in radians, sorted ascending within [0, 2*pi).
    """

    nx: int
    ny: int
    delta: float = 0.5
    frequency_hz: float = 5.3e9
    phase_set: np.ndarray | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if not _is_int(self.nx) or self.nx < 1:
            raise DomainError(f"nx must be a positive integer, got {self.nx!r}")
        if not _is_int(self.ny) or self.ny < 1:
            raise DomainError(f"ny must be a positive integer, got {self.ny!r}")
        if self.size > INDEX_LIMIT:
            raise DomainError(f"{self.nx} x {self.ny} elements are more than "
                              "numpy can index")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"element pitch must be positive, got {self.delta!r}")
        # the difference of two path phases, 2*pi*delta*k each, stays
        # finite; past that 2*pi*delta overflows, and inf * 0 is nan
        if not np.isfinite(2 * TWO_PI * float(self.delta)
                           * (float(self.nx) + float(self.ny))):
            raise DomainError(
                f"element pitch {self.delta!r} is too large for a "
                f"{self.nx} x {self.ny} array: path phases are not finite")
        if not (np.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise DomainError("carrier frequency must be positive")

        phase_set = self.phase_set
        if phase_set is None:
            phase_set = uniform_phase_set(8)
        phase_set = np.asarray(phase_set, dtype=float)
        if phase_set.ndim != 1 or phase_set.size == 0:
            raise DomainError("phase_set must be a non-empty 1-d sequence")
        if np.any(phase_set < 0.0) or np.any(phase_set >= TWO_PI):
            raise DomainError("phase_set entries must lie in [0, 2*pi)")
        if np.any(np.diff(phase_set) <= 0):
            raise DomainError("phase_set must be strictly ascending")
        object.__setattr__(self, "phase_set", phase_set)

        mask = self.mask
        if mask is None:
            mask = np.ones(self.size, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.size,):
            raise DomainError(
                f"mask must have shape ({self.size},), got {mask.shape}")
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @property
    def active_count(self) -> int:
        return int(self.mask.sum())

    def with_mask(self, mask: np.ndarray) -> "ArraySpec":
        return ArraySpec(self.nx, self.ny, self.delta, self.frequency_hz,
                         self.phase_set, mask)


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """Per-element reflection phases."""

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1:
            raise DomainError("phases must be a 1-d sequence")
        if not np.all(np.isfinite(phases)):
            raise DomainError("phases must be finite")
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return self.phases.size


def element_phase_profile(spec: ArraySpec, direction: Direction) -> np.ndarray:
    """Unwrapped per-element path phase 2*pi*delta*(ix*sin(az) + iy*sin(el)).

    steering_vector is exp(1j * profile); keeping the raw profile around lets
    phase arithmetic (e.g. conjugate combining) stay exact instead of going
    through angle() round trips.
    """
    u = np.sin(np.deg2rad(direction.azimuth_deg))
    v = np.sin(np.deg2rad(direction.elevation_deg))
    px = TWO_PI * spec.delta * np.arange(spec.nx) * u
    py = TWO_PI * spec.delta * np.arange(spec.ny) * v
    return (px[:, None] + py[None, :]).ravel()


def steering_vector(spec: ArraySpec, direction: Direction) -> np.ndarray:
    """Unit-modulus array response kron(a_x, a_y) for a plane wave."""
    return np.exp(1j * element_phase_profile(spec, direction))


def received_signal(spec: ArraySpec, config: PhaseConfig,
                    tx: Direction, rx: Direction) -> complex:
    """Narrowband received sample y = h(rx)^H diag(e^{j phi}) g(tx).

    Masked-off (absorbing) elements contribute exactly zero.
    """
    if len(config) != spec.size:
        raise DomainError(
            f"config has {len(config)} phases for an array of {spec.size} elements")
    h = steering_vector(spec, rx)
    g = steering_vector(spec, tx)
    terms = np.conj(h) * np.exp(1j * config.phases) * g
    return complex(np.sum(terms[spec.mask]))


def ideal_config(spec: ArraySpec, tx: Direction, beam: Direction) -> PhaseConfig:
    """Conjugate-combining phases steering the reflection toward `beam`.

    phi_k = arg h_k(beam) - arg g_k(tx), wrapped to [0, 2*pi).  With this
    config every active element adds up in phase at rx = beam, so the
    received signal equals the active element count (real, positive).
    """
    raw = element_phase_profile(spec, beam) - element_phase_profile(spec, tx)
    return PhaseConfig(raw % TWO_PI)


def quantize_phases(phases: np.ndarray, phase_set: np.ndarray) -> np.ndarray:
    """Indices of the circularly nearest phase-set entry, ties to the lower index.

    phase_set must ascend within [0, 2*pi).  Nearest means least
    min(s, 2*pi - s) for s = |phases % 2*pi - entry|.  Each wrapped phase is
    compared with just its two circular neighbours, found by binary search,
    so memory is O(n).  This is the full argmin, exact ties included,
    unless float distances to two entries tie beyond both, as at 3.5 for
    entries 1.0 and 1.0 + 2**-52: there it keeps the bracketing entry where
    the full argmin takes the lower index.  A nan or inf phase raises
    DomainError.
    """
    phases = np.asarray(phases, dtype=float)
    if not np.all(np.isfinite(phases)):
        raise DomainError("phases must be finite")
    wrapped = phases % TWO_PI
    above = np.searchsorted(phase_set, wrapped, side="right") % phase_set.size
    below = (above - 1) % phase_set.size

    def circular(idx):
        straight = np.abs(wrapped - phase_set[idx])
        return np.minimum(straight, TWO_PI - straight)

    d_above, d_below = circular(above), circular(below)
    take_above = (d_above < d_below) | ((d_above == d_below) & (above < below))
    return np.where(take_above, above, below)


def quantize_config(spec: ArraySpec, config: PhaseConfig) -> PhaseConfig:
    """Snap every phase to the nearest realizable one from spec.phase_set."""
    idx = quantize_phases(config.phases, spec.phase_set)
    return PhaseConfig(spec.phase_set[idx])


def quantization_loss(spec: ArraySpec, tx: Direction, beam: Direction) -> float:
    """Power penalty 20*log10(|y_quantized| / |y_ideal|) at rx = beam, in dB.

    Always <= 0; for an 8-entry uniform phase set it is bounded below by
    20*log10(cos(pi/8)) ~ -0.688 dB.
    """
    if spec.active_count == 0:
        raise DomainError("quantization loss undefined for an all-absorbing array")
    ideal = ideal_config(spec, tx, beam)
    quantized = quantize_config(spec, ideal)
    y_ideal = received_signal(spec, ideal, tx, beam)
    y_quantized = received_signal(spec, quantized, tx, beam)
    return 20.0 * np.log10(abs(y_quantized) / abs(y_ideal))
