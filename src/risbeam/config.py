"""Campaign configuration: one INI file describing array, chamber, and sweep.

Every key is optional; omitted keys fall back to the library defaults, so an
empty file (or no file at all) describes the default campaign. Unknown
sections or keys are rejected outright, which catches typos early in a
format where a misspelled key would otherwise silently mean "default".
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

from .array_model import ArraySpec, Direction, uniform_phase_set
from .codebook import MODE_TX_COMPENSATED, MODE_UNCOMPENSATED, CodebookGrid
from .chamber import ChamberGeometry, LinkBudget, _check_seed
from .errors import ConfigError, DomainError

__all__ = ["CampaignConfig", "load_campaign_config", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "RISBEAM_OUTDIR"

_SCHEMA: dict[str, dict[str, type]] = {
    "array": {
        "nx": int,
        "ny": int,
        "element_spacing_wavelengths": float,
        "frequency_hz": float,
        "phase_count": int,
    },
    "geometry": {
        "tx_azimuth_deg": float,
        "tx_elevation_deg": float,
        "rx_elevation_deg": float,
        "rotation_min_deg": float,
        "rotation_max_deg": float,
        "rotation_step_deg": float,
        "tx_distance_m": float,
        "rx_distance_m": float,
        "diagonal_m": float,
    },
    "budget": {
        "calibration_dbm": float,
        "noise_floor_dbm": float,
        "sample_sigma_db": float,
        "samples_per_point": int,
    },
    "codebook": {
        "azimuth_min_deg": float,
        "azimuth_max_deg": float,
        "azimuth_step_deg": float,
        "elevation_min_deg": float,
        "elevation_max_deg": float,
        "elevation_step_deg": float,
        "mode": str,
    },
    "campaign": {
        "seed": int,
        "output_dir": str,
    },
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a sweep needs, resolved to concrete domain objects."""

    array: ArraySpec = field(default_factory=lambda: ArraySpec(10, 10))
    geometry: ChamberGeometry = field(default_factory=ChamberGeometry)
    budget: LinkBudget = field(default_factory=LinkBudget)
    grid: CodebookGrid = field(default_factory=CodebookGrid)
    mode: str = MODE_TX_COMPENSATED
    seed: int = 0
    output_dir: Path = field(default_factory=Path.cwd)


def default_output_dir() -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV, "").strip()
    return Path(env) if env else Path.cwd()


def _coerce(section: str, key: str, raw: str, kind: type):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_campaign_config(path=None) -> CampaignConfig:
    """Parse an INI campaign file; None means all defaults."""
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(
                    f"unknown section [{section}]; expected one of "
                    f"{', '.join(sorted(_SCHEMA))}"
                )
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in [{section}]; expected one of "
                        f"{', '.join(sorted(_SCHEMA[section]))}"
                    )
                values[section][key] = _coerce(section, key, raw, _SCHEMA[section][key])

    def pick(section: str, key: str, fallback):
        return values[section].get(key, fallback)

    try:
        phase_count = pick("array", "phase_count", 8)
        array = ArraySpec(
            nx=pick("array", "nx", 10),
            ny=pick("array", "ny", 10),
            delta=pick("array", "element_spacing_wavelengths", 0.5),
            frequency_hz=pick("array", "frequency_hz", 5.3e9),
            phase_set=uniform_phase_set(phase_count),
        )
        geometry = ChamberGeometry(
            tx_dir=Direction(
                pick("geometry", "tx_azimuth_deg", 0.0),
                pick("geometry", "tx_elevation_deg", -33.0),
            ),
            rx_elevation_deg=pick("geometry", "rx_elevation_deg", -3.0),
            rotation_range_deg=(
                pick("geometry", "rotation_min_deg", -90.0),
                pick("geometry", "rotation_max_deg", 90.0),
                pick("geometry", "rotation_step_deg", 3.0),
            ),
            d_ris_tx_m=pick("geometry", "tx_distance_m", 1.1),
            d_ris_rx_m=pick("geometry", "rx_distance_m", 6.3),
            diagonal_m=pick("geometry", "diagonal_m", 0.43),
        )
        budget = LinkBudget(
            calibration_dbm=pick("budget", "calibration_dbm", -60.0),
            noise_floor_dbm=pick("budget", "noise_floor_dbm", -90.0),
            sample_sigma_db=pick("budget", "sample_sigma_db", 0.5),
            samples_per_point=pick("budget", "samples_per_point", 30),
        )
        grid = CodebookGrid(
            azimuth_deg=(
                pick("codebook", "azimuth_min_deg", -90.0),
                pick("codebook", "azimuth_max_deg", 90.0),
                pick("codebook", "azimuth_step_deg", 3.0),
            ),
            elevation_deg=(
                pick("codebook", "elevation_min_deg", -45.0),
                pick("codebook", "elevation_max_deg", 45.0),
                pick("codebook", "elevation_step_deg", 3.0),
            ),
        )
        seed = _check_seed(pick("campaign", "seed", 0))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    mode = pick("codebook", "mode", MODE_TX_COMPENSATED)
    if mode not in (MODE_TX_COMPENSATED, MODE_UNCOMPENSATED):
        raise ConfigError(
            f"mode must be {MODE_TX_COMPENSATED!r} or {MODE_UNCOMPENSATED!r}, "
            f"got {mode!r}"
        )
    out = values["campaign"].get("output_dir")
    output_dir = Path(out) if out else default_output_dir()
    return CampaignConfig(
        array=array,
        geometry=geometry,
        budget=budget,
        grid=grid,
        mode=mode,
        seed=seed,
        output_dir=output_dir,
    )
