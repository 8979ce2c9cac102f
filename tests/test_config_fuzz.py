"""Fuzzing the campaign loader: whatever the file holds,
load_campaign_config returns a CampaignConfig or raises ConfigError, never
anything else.

Size-like keys (nx, ny, phase_count, samples_per_point) are drawn up to 64
or past 2**63, never in between: a valid size allocates memory in proportion
while the config loads (the element mask, the phase set), so a large valid
size would only test the machine's memory.  No other value reaches an
allocation, and no free text is drawn for these keys, since int() also reads
non-ASCII digits.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam.config import CampaignConfig, load_campaign_config
from risbeam.errors import ConfigError

FUZZ = settings(max_examples=150, deadline=None)

# every section and key, at the default campaign's values
VALID = """\
[array]
nx = 10
ny = 10
element_spacing_wavelengths = 0.5
frequency_hz = 5.3e9
phase_count = 8
[geometry]
tx_azimuth_deg = 0
tx_elevation_deg = -33
rx_elevation_deg = -3
rotation_min_deg = -90
rotation_max_deg = 90
rotation_step_deg = 3
diagonal_m = 0.43
[budget]
calibration_dbm = -60
noise_floor_dbm = -90
sample_sigma_db = 0.5
samples_per_point = 30
[codebook]
azimuth_min_deg = -90
azimuth_max_deg = 90
azimuth_step_deg = 3
elevation_min_deg = -45
elevation_max_deg = 45
elevation_step_deg = 3
mode = tx-compensated
[campaign]
seed = 0
output_dir = out""".splitlines()
SECTIONS = [line[1:-1] for line in VALID if line.startswith("[")]
KEYS = [line.split(" = ")[0] for line in VALID if " = " in line]
SIZE_KEYS = ("nx", "ny", "phase_count", "samples_per_point")
NAMES = st.one_of(st.sampled_from([*SECTIONS, *KEYS, "DEFAULT"]),
                  st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                          max_size=10))

SPECIAL = ["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-999", "-0",
           "1.5", "", "ten", "0x10", "1e3", "-1"]
SIZES = st.one_of(st.integers(-64, 64).map(str),
                  st.integers(2**63, 2**80).map(str),
                  st.sampled_from(SPECIAL))
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-2**140, 2**140).map(str),
    st.floats().map(repr),
    # no line breaks: the value stays on its key's line
    st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")),
            max_size=12),
)


def _values_for(key):
    return SIZES if key in SIZE_KEYS else VALUES


EDITS = st.one_of(
    st.sampled_from(KEYS).flatmap(
        lambda key: st.tuples(st.just("value"), st.just(key),
                              _values_for(key))),
    st.tuples(st.sampled_from(["drop", "duplicate"]), st.integers(0, 64)),
    st.tuples(st.sampled_from(["key", "section"]), st.integers(0, 64), NAMES),
)


def _apply(lines: list, edit: tuple) -> list:
    """One edit of a campaign file's lines: a key's value replaced, a line
    dropped or repeated, or an unknown key or section header inserted."""
    op, *args = edit
    if op == "value":
        key, value = args
        return [f"{key} = {value}" if line.split(" = ")[0] == key else line
                for line in lines]
    i = args[0] % (len(lines) + 1)
    if op == "drop":
        return lines[:i] + lines[i + 1:]
    if op == "duplicate":
        return lines[:i + 1] + lines[i:]
    new = f"{args[1]} = 1" if op == "key" else f"[{args[1]}]"
    return lines[:i] + [new] + lines[i:]


def _load_outcome(data: bytes):
    """load_campaign_config on `data`: the config, or None on ConfigError."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "campaign.ini"
        p.write_bytes(data)
        try:
            cfg = load_campaign_config(p)
        except ConfigError:
            return None
    assert isinstance(cfg, CampaignConfig)
    return cfg


def test_valid_file_loads():
    cfg = _load_outcome("\n".join(VALID).encode())
    assert len(cfg.grid) == 1891 and cfg.array.size == 100
    assert cfg.output_dir == Path("out")


@FUZZ
@given(st.binary(max_size=300))
def test_arbitrary_bytes(data):
    _load_outcome(data)


@FUZZ
@given(st.lists(EDITS, min_size=1, max_size=4))
@example([("value", "azimuth_min_deg", "nan")])
@example([("value", "rotation_step_deg", "inf")])
@example([("value", "nx", str(10**20))])
@example([("value", "element_spacing_wavelengths", "\ud800")])
def test_mutated_valid_file(edits):
    lines = VALID
    for edit in edits:
        lines = _apply(lines, edit)
    # a drawn lone surrogate is written as the bytes it would take, which
    # are not UTF-8, so the loader sees what such a file would hold
    _load_outcome("\n".join(lines).encode("utf-8", "surrogatepass"))
