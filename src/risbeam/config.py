"""Campaign configuration: one INI file describing array, chamber, and sweep.

Every key is optional; omitted keys take their default-campaign value, so an
empty file (or no file at all) describes the default campaign. Unknown
sections or keys are rejected outright, which catches typos early in a
format where a misspelled key would otherwise silently mean "default".
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from pathlib import Path

from .array_model import ArraySpec, Direction, uniform_phase_set
from .codebook import MODE_TX_COMPENSATED, CodebookGrid, _check_mode
from .chamber import ChamberGeometry, LinkBudget, _check_seed
from .errors import ConfigError, DomainError

__all__ = ["CampaignConfig", "load_campaign_config", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "RISBEAM_OUTDIR"

# Every INI key by section, as (type, default-campaign value): the paper's
# 10x10 array with 8 phase states, swept on 3-degree grids.  The [budget]
# keys are LinkBudget's field names.  An empty output_dir means
# RISBEAM_OUTDIR, else the working directory.
_KEYS: dict[str, dict[str, tuple[type, object]]] = {
    "array": {
        "nx": (int, 10),
        "ny": (int, 10),
        "element_spacing_wavelengths": (float, 0.5),
        "frequency_hz": (float, 5.3e9),
        "phase_count": (int, 8),
    },
    "geometry": {
        "tx_azimuth_deg": (float, 0.0),
        "tx_elevation_deg": (float, -33.0),
        "rx_elevation_deg": (float, -3.0),
        "rotation_min_deg": (float, -90.0),
        "rotation_max_deg": (float, 90.0),
        "rotation_step_deg": (float, 3.0),
        "diagonal_m": (float, 0.43),
    },
    "budget": {
        "calibration_dbm": (float, -60.0),
        "noise_floor_dbm": (float, -90.0),
        "sample_sigma_db": (float, 0.5),
        "samples_per_point": (int, 30),
    },
    "codebook": {
        "azimuth_min_deg": (float, -90.0),
        "azimuth_max_deg": (float, 90.0),
        "azimuth_step_deg": (float, 3.0),
        "elevation_min_deg": (float, -45.0),
        "elevation_max_deg": (float, 45.0),
        "elevation_step_deg": (float, 3.0),
        "mode": (str, MODE_TX_COMPENSATED),
    },
    "campaign": {
        "seed": (int, 0),
        "output_dir": (str, ""),
    },
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a sweep needs, resolved to concrete domain objects."""

    array: ArraySpec
    geometry: ChamberGeometry
    budget: LinkBudget
    grid: CodebookGrid
    mode: str
    seed: int
    output_dir: Path


def default_output_dir() -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV, "").strip()
    return Path(env) if env else Path.cwd()


def _read_values(path) -> dict[str, dict[str, object]]:
    """The file's values over the defaults, by section and key."""
    values = {section: {key: default for key, (_, default) in keys.items()}
              for section, keys in _KEYS.items()}
    if path is None:
        return values
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError("a [DEFAULT] section is not supported; put each key "
                          "in its own section")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{', '.join(sorted(_KEYS))}"
            )
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; expected one of "
                    f"{', '.join(sorted(_KEYS[section]))}"
                )
            kind = _KEYS[section][key][0]
            try:  # configparser has already stripped the value
                values[section][key] = kind(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return values


def load_campaign_config(path=None) -> CampaignConfig:
    """Parse an INI campaign file; None means all defaults."""
    values = _read_values(path)
    a, g, c = values["array"], values["geometry"], values["codebook"]
    try:
        array = ArraySpec(a["nx"], a["ny"], a["element_spacing_wavelengths"],
                          a["frequency_hz"], uniform_phase_set(a["phase_count"]))
        geometry = ChamberGeometry(
            tx_dir=Direction(g["tx_azimuth_deg"], g["tx_elevation_deg"]),
            rx_elevation_deg=g["rx_elevation_deg"],
            rotation_range_deg=(g["rotation_min_deg"], g["rotation_max_deg"],
                                g["rotation_step_deg"]),
            diagonal_m=g["diagonal_m"],
        )
        budget = LinkBudget(**values["budget"])
        grid = CodebookGrid(
            azimuth_deg=(c["azimuth_min_deg"], c["azimuth_max_deg"],
                         c["azimuth_step_deg"]),
            elevation_deg=(c["elevation_min_deg"], c["elevation_max_deg"],
                           c["elevation_step_deg"]),
        )
        seed = _check_seed(values["campaign"]["seed"])
        _check_mode(c["mode"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    out = values["campaign"]["output_dir"]
    return CampaignConfig(array, geometry, budget, grid, c["mode"], seed,
                          Path(out) if out else default_output_dir())
