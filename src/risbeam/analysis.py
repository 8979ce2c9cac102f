"""Post-processing for beam tables: smoothing, beamwidth, fits, localization.

Everything here is a pure function of its inputs. Powers are dB values
throughout; angle vectors are degrees and must be strictly ascending where
an axis is implied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .array_model import _is_int
from .datasets import BeampatternTable
from .errors import DomainError, FitDivergenceError, LobeTruncatedError

__all__ = [
    "HALF_POWER_DB",
    "SgFilterSpec",
    "savitzky_golay",
    "hpbw",
    "ExpFit",
    "fit_exponential",
    "Pattern3D",
    "hpi_reconstruct",
    "LocalizedColumn",
    "localize_aoa",
    "localization_success_rate",
    "nmse",
]

# Half power is exactly 1/2 in linear terms; keep the unrounded dB value
# rather than the textbook -3.
HALF_POWER_DB = 10.0 * math.log10(0.5)

# Levenberg-Marquardt starting damping, convergence tolerance and
# iteration budget.
_LM_DAMPING = 1e-3
_LM_TOL = 1e-10
_LM_ITERATIONS = 200


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def _cut(angles_deg, power_dbm, min_points: int, too_few: str):
    """(angles, powers) of one pattern cut as equal-length finite vectors of
    at least `min_points` samples, angles strictly ascending; DomainError
    with the message `too_few` when the cut is shorter."""
    a = _as_vector(angles_deg, "angles_deg")
    p = _as_vector(power_dbm, "power_dbm")
    if a.size != p.size:
        raise DomainError(f"length mismatch: {a.size} angles vs {p.size} powers")
    if a.size < min_points:
        raise DomainError(too_few)
    if not np.all(np.diff(a) > 0):
        raise DomainError("angles_deg must be strictly ascending")
    return a, p


@dataclass(frozen=True)
class SgFilterSpec:
    """Savitzky-Golay window: `window` points, polynomial degree `order`."""

    window: int = 7
    order: int = 4

    def __post_init__(self) -> None:
        for name in ("window", "order"):
            if not _is_int(getattr(self, name)):
                raise DomainError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.window < 3 or self.window % 2 == 0:
            raise DomainError(f"window must be odd and >= 3, got {self.window}")
        if not 0 <= self.order < self.window:
            raise DomainError(
                f"order must satisfy 0 <= order < window, got {self.order}"
            )


def _basis(points: int, order: int) -> np.ndarray:
    """Q of the QR factorization of the Legendre Vandermonde matrix of
    degree `order` on `points` equally spaced samples mapped onto [-1, 1];
    the weights of the fitted value at sample `at` are ``q @ q[at]``, row
    `at` of Q Q^T.

    The Legendre basis stays well conditioned where powers of the offsets
    overflow or cancel; its matrix comes from the three-term recurrence.
    With no more points than coefficients the fit interpolates, and the
    identity picks each sample itself.
    """
    if points <= order + 1:
        return np.eye(points)
    x = np.linspace(-1.0, 1.0, points)
    v = np.empty((order + 1, points))
    v[0], v[1:2] = 1.0, x  # v[1:2] is empty at order 0
    for i in range(2, order + 1):
        v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return np.linalg.qr(v.T)[0]


def savitzky_golay(values, spec: SgFilterSpec = SgFilterSpec()) -> np.ndarray:
    """Least-squares polynomial smoothing with one-sided edge windows.

    `values` is one series or a (rows, n) table; a table is smoothed along
    its last axis, each row independently, and comes back with its shape.
    Interior points get the classic centered fit. The first and last
    half-window points are fitted on the truncated window that remains
    inside the series (no mirror padding), so polynomials up to `order`
    pass through unchanged everywhere, edges included; an edge window with
    no more points than coefficients returns the sample itself.  Every
    order below the window is accepted, and a row gives the same bits
    alone as inside a table.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise DomainError(f"values must be 1-d or 2-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("values contains non-finite values")
    n = v.shape[-1]
    if n < spec.window:
        raise DomainError(
            f"series of length {n} shorter than window {spec.window}"
        )
    table = v.reshape(-1, n)
    half, order = spec.window // 2, spec.order
    out = np.empty_like(table)
    q = _basis(spec.window, order)
    weights = q @ q[half]
    for series, smoothed in zip(table, out):
        smoothed[half : n - half] = np.correlate(series, weights, mode="valid")
    # Edge position i and its mirror n-1-i each fit the i+half+1 samples
    # at their end, one basis for both.  Rows are summed by numpy, not a
    # BLAS product, so a row's sums do not depend on the table around it.
    for i in range(half):
        points = i + half + 1
        q = _basis(points, order)
        out[:, i] = (table[:, :points] * (q @ q[i])).sum(axis=1)
        out[:, n - 1 - i] = (table[:, n - points:]
                             * (q @ q[half])).sum(axis=1)
    return out.reshape(v.shape)


def hpbw(angles_deg, power_dbm) -> float:
    """Half-power beamwidth in degrees around the global peak.

    Walks outward from the peak to the first sample strictly below
    peak + HALF_POWER_DB on each side and interpolates the crossing
    linearly in (angle, dB). Raises LobeTruncatedError when a side never
    crosses inside the sampled range.
    """
    a, p = _cut(angles_deg, power_dbm, 3,
                "need at least 3 points to bracket a lobe")

    peak = int(np.argmax(p))
    level = p[peak] + HALF_POWER_DB

    def crossing(direction: int) -> float:
        j = peak
        while 0 <= j + direction < a.size:
            j += direction
            if p[j] < level:
                prev = j - direction
                frac = (p[prev] - level) / (p[prev] - p[j])
                return float(a[prev] + frac * (a[j] - a[prev]))
        side = "right" if direction > 0 else "left"
        raise LobeTruncatedError(
            f"lobe truncated: no half-power crossing on the {side} side "
            f"(peak {p[peak]:.3f} dB at {a[peak]:g} deg)"
        )

    return crossing(+1) - crossing(-1)


@dataclass(frozen=True)
class ExpFit:
    """Parameters of y = a*exp(b*x) + c plus fit diagnostics."""

    a: float
    b: float
    c: float
    residual_norm: float
    iterations: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"non-finite fitted parameter {name}")
        if self.residual_norm < 0:
            raise DomainError("residual_norm must be >= 0")


def _exp_init(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Starting point for the exponential fit.

    Tries an offset just below the data range and one just above, does a
    log-linear regression against each, and keeps whichever candidate has
    the smaller squared residual.
    """
    spread = float(y.max() - y.min())
    pad = 0.05 * spread + 1e-9
    best = None
    for c0, sign in ((y.min() - pad, 1.0), (y.max() + pad, -1.0)):
        shifted = sign * (y - c0)
        logs = np.log(shifted)
        slope, intercept = np.polyfit(x, logs, 1)
        a0, b0 = sign * math.exp(intercept), float(slope)
        ssr = float(np.sum((a0 * np.exp(b0 * x) + c0 - y) ** 2))
        if best is None or ssr < best[0]:
            best = (ssr, (a0, b0, c0))
    return best[1]


def fit_exponential(x, y) -> ExpFit:
    """Levenberg-Marquardt fit of y = a*exp(b*x) + c.

    Starts from the better of two log-linear regressions, one with the
    offset just below the data and one just above.  Damping starts at
    1e-3, grows tenfold on a rejected step and shrinks tenfold on an
    accepted one. Converged when an accepted step has both relative step
    size and relative residual decrease below 1e-10. Raises
    FitDivergenceError (carrying the last iterate) when 200 iterations do
    not converge or the damped normal matrix degenerates.
    """
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if x.size != y.size:
        raise DomainError(f"length mismatch: {x.size} x vs {y.size} y")
    if x.size < 4:
        raise DomainError("need at least 4 points to fit three parameters")
    if np.unique(x).size != x.size:
        raise DomainError("x values must be distinct")

    params = np.asarray(_exp_init(x, y), float)
    if not np.all(np.isfinite(params)):
        raise DomainError(f"no finite starting point, got {tuple(params)!r}")

    def residuals(p: np.ndarray) -> np.ndarray:
        return y - (p[0] * np.exp(p[1] * x) + p[2])

    def diverged(p: np.ndarray, ssr: float, it: int, why: str) -> FitDivergenceError:
        return FitDivergenceError(
            f"exponential fit did not converge after {it} iterations ({why})",
            params=(float(p[0]), float(p[1]), float(p[2])),
            residual_norm=float(ssr),
            iterations=it,
        )

    r = residuals(params)
    ssr = float(r @ r)
    lam = _LM_DAMPING
    for iteration in range(1, _LM_ITERATIONS + 1):
        if ssr == 0.0:
            break
        growth = np.exp(params[1] * x)
        jac = np.column_stack([growth, params[0] * x * growth, np.ones_like(x)])
        gradient = jac.T @ r
        hess = jac.T @ jac
        scale = np.maximum(np.diag(hess), 1e-12)
        while True:
            try:
                step = np.linalg.solve(hess + lam * np.diag(scale), gradient)
            except np.linalg.LinAlgError:
                raise diverged(params, ssr, iteration, "singular normal matrix")
            candidate = params + step
            r_new = residuals(candidate)
            ssr_new = float(r_new @ r_new)
            if math.isfinite(ssr_new) and ssr_new <= ssr:
                break
            lam *= 10.0
            if lam > 1e12:
                raise diverged(params, ssr, iteration, "damping overflow")
        rel_step = float(np.linalg.norm(step)) / max(float(np.linalg.norm(params)), 1.0)
        rel_drop = (ssr - ssr_new) / max(ssr, 1e-300)
        params, r, ssr = candidate, r_new, ssr_new
        lam = max(lam / 10.0, 1e-15)
        if rel_step < _LM_TOL and rel_drop < _LM_TOL:
            break
    else:
        raise diverged(params, ssr, _LM_ITERATIONS, "iteration budget exhausted")

    return ExpFit(
        a=float(params[0]),
        b=float(params[1]),
        c=float(params[2]),
        residual_norm=ssr,
        iterations=iteration,
    )


@dataclass(eq=False)
class Pattern3D:
    """Reconstructed pattern on an azimuth x elevation grid, dB values."""

    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    power_dbm: np.ndarray

    def __post_init__(self) -> None:
        self.azimuth_deg = np.asarray(self.azimuth_deg, dtype=float)
        self.elevation_deg = np.asarray(self.elevation_deg, dtype=float)
        self.power_dbm = np.asarray(self.power_dbm, dtype=float)
        want = (self.azimuth_deg.size, self.elevation_deg.size)
        if self.power_dbm.shape != want:
            raise DomainError(
                f"power grid shape {self.power_dbm.shape} does not match "
                f"azimuth x elevation {want}"
            )


def hpi_reconstruct(angles_deg, power_dbm, tilt_deg: float) -> Pattern3D:
    """Expand one azimuth cut into a full pattern by projection symmetry.

    The elevation cut is the azimuth cut re-centered so its peak sits at
    `tilt_deg`; the grid of elevations is the azimuth grid itself. The
    surface is P(az, el) = P_az(az) + P_el(el) - P_peak in dB, clamped
    below at the minimum of the input cut, which also fills elevation
    samples shifted outside the measured range.
    """
    a, p = _cut(angles_deg, power_dbm, 2,
                "need at least 2 samples to reconstruct")
    steps = np.diff(a)
    if not np.all(steps == steps[0]):
        raise DomainError("angles_deg must be uniformly spaced")

    tilt_hits = np.flatnonzero(a == float(tilt_deg))
    if tilt_hits.size == 0:
        raise DomainError(
            f"tilt {tilt_deg:g} deg is not a grid angle in "
            f"[{a[0]:g}, {a[-1]:g}] step {steps[0]:g}"
        )
    tilt_idx = int(tilt_hits[0])

    floor = float(p.min())
    peak_idx = int(np.argmax(p))

    # Elevation cut: same shape as the azimuth cut, peak moved to the tilt.
    source = peak_idx + (np.arange(a.size) - tilt_idx)
    elevation_cut = np.full(a.size, floor)
    inside = (source >= 0) & (source < a.size)
    elevation_cut[inside] = p[source[inside]]

    surface = p[:, None] + elevation_cut[None, :] - p[peak_idx]
    return Pattern3D(
        azimuth_deg=a,
        elevation_deg=a.copy(),
        power_dbm=np.maximum(surface, floor),
    )


class LocalizedColumn(NamedTuple):
    rotation_deg: float
    azimuth_deg: float
    elevation_deg: float
    row: int


def localize_aoa(table: BeampatternTable) -> list[LocalizedColumn]:
    """Argmax beam per rotation column; ties resolve to the lowest row."""
    rows = np.argmax(table.power_dbm, axis=0)
    return [
        LocalizedColumn(
            rotation_deg=float(table.rotations[col]),
            azimuth_deg=float(table.beams[row, 0]),
            elevation_deg=float(table.beams[row, 1]),
            row=int(row),
        )
        for col, row in enumerate(rows)
    ]


def localization_success_rate(
    table: BeampatternTable,
    codebook,
    tolerance_deg: float = 3.0,
) -> float:
    """Fraction of columns localized within `tolerance_deg` of azimuth.

    Distinct codebook rows can carry bit-identical quantized configs (the
    sin-space grid folds at the +/-90 edges), in which case the competing
    rows are physically the same measurement and an argmax cannot prefer
    one label over another. A column therefore counts as localized when
    any beam sharing the winning row's exact config is within tolerance.
    """
    if not np.array_equal(table.beams, codebook.beams):
        raise DomainError("table rows are not the codebook's beams, "
                          "in the codebook's order")
    groups: dict[bytes, list[int]] = {}
    for row in range(codebook.indices.shape[0]):
        groups.setdefault(codebook.indices[row].tobytes(), []).append(row)
    class_azimuths = {
        key: np.asarray([codebook.beams[r, 0] for r in rows], dtype=float)
        for key, rows in groups.items()
    }
    hits = 0
    for estimate in localize_aoa(table):
        azimuths = class_azimuths[codebook.indices[estimate.row].tobytes()]
        if np.min(np.abs(azimuths - estimate.rotation_deg)) <= tolerance_deg:
            hits += 1
    return hits / table.rotations.size


def nmse(predicted, truth) -> float:
    """Mean squared error normalized by the variance of the truth."""
    p = _as_vector(predicted, "predicted")
    t = _as_vector(truth, "truth")
    if p.size != t.size:
        raise DomainError(f"length mismatch: {p.size} predicted vs {t.size} truth")
    if p.size < 2:
        raise DomainError("need at least 2 points")
    denom = float(np.sum((t - t.mean()) ** 2))
    if denom == 0.0:
        raise DomainError("truth is constant; NMSE undefined")
    return float(np.sum((p - t) ** 2) / denom)
