"""Dataset tables and their CSV schemas.

One table implementation holds received power per codebook beam (rows) and
per label of one column axis.  Two schemas declare that axis and cover every
measurement campaign:

* beampattern: columns are turntable rotations (float degrees).
  Header ``theta_n,phi_n,rot_<angle>,...`` preceded by one comment line
  ``# theta_t=<deg>`` recording the transmitter azimuth of the campaign.
* absorption: columns are active-element counts (integer squares).
  Header ``theta_n,phi_n,n_<count>,...``.

Both schemas go through one writer and one reader; ``read_table`` sniffs the
schema from the header.  Powers are serialized with 6 decimal places (far
below any measurement precision), angles as plain integers when integral.
Readers accept an optional column-name mapping so externally produced files
with renamed headers can be ingested without rewriting them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotFoundError, ParseError

POWER_SANITY_FLOOR_DBM = -200.0


class TableSlice(NamedTuple):
    """A copied table slice together with its index labels."""

    labels: np.ndarray
    values: np.ndarray


def _fmt_angle(v: float) -> str:
    return "%d" % round(v) if float(v) == round(v) else "%.6f" % v


def _fmt_power(v: float) -> str:
    return "%.6f" % v


def _read_lines(path) -> list:
    """Lines of a UTF-8 text file; undecodable bytes are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _as_beams(beams) -> np.ndarray:
    arr = np.asarray(beams, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("beams must have shape (n, 2)")
    return arr


def _nearest(values: np.ndarray, key: float, count: int = 3) -> list:
    order = np.argsort(np.abs(values - key), kind="stable")[:count]
    return [float(v) for v in values[order]]


class _Table:
    """Received power (dBm) per codebook beam (rows) and column label.

    The two schemas share this body and only declare their column axis: the
    attribute holding the labels, the label type and noun, the mapping key
    of the header prefix, whether a ``# theta_t=`` line is carried, and any
    extra validation rule (``_check_schema``).
    """

    axis: str
    axis_type: type
    noun: str
    prefix_key: str
    has_theta_t = False

    @property
    def _labels(self) -> np.ndarray:
        return getattr(self, self.axis)

    def __post_init__(self):
        self.beams = _as_beams(self.beams)
        setattr(self, self.axis, np.asarray(self._labels, dtype=self.axis_type))
        self.power_dbm = np.asarray(self.power_dbm, dtype=float)
        if self._labels.ndim != 1:
            raise DomainError(f"{self.axis} must be 1-d")
        if self.power_dbm.shape != (self.beams.shape[0], self._labels.size):
            raise DomainError(
                f"power matrix shape {self.power_dbm.shape} does not match "
                f"{self.beams.shape[0]} beams x {self._labels.size} {self.axis}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def _check_schema(self) -> None:
        """Schema-specific checks beyond the shared ones."""

    def validate(self) -> None:
        """Schema checks applied on top of the shape checks: ascending
        labels, unique beams, sane finite powers."""
        if np.any(np.diff(self._labels) <= 0):
            raise DomainError(f"{self.axis} must be strictly ascending")
        self._check_schema()
        keys = {(a, e) for a, e in map(tuple, self.beams)}
        if len(keys) != self.beams.shape[0]:
            raise DomainError("duplicate beams in table")
        if not np.all(np.isfinite(self.power_dbm)):
            raise DomainError("power matrix contains non-finite values")
        if np.any(self.power_dbm < POWER_SANITY_FLOOR_DBM):
            raise DomainError(
                f"power below sanity floor {POWER_SANITY_FLOOR_DBM} dBm")

    def row(self, beam) -> TableSlice:
        az, el = float(beam[0]), float(beam[1])
        hits = np.nonzero((self.beams[:, 0] == az)
                          & (self.beams[:, 1] == el))[0]
        if hits.size == 0:
            da = _nearest(self.beams[:, 0], az)
            de = _nearest(self.beams[:, 1], el)
            raise NotFoundError(
                f"beam ({az:g}, {el:g}) not in table; nearest azimuths "
                f"{da}, nearest elevations {de}")
        return TableSlice(self._labels.copy(), self.power_dbm[hits[0]].copy())

    def column(self, label) -> TableSlice:
        key = self.axis_type(label)
        hits = np.nonzero(self._labels == key)[0]
        if hits.size == 0:
            raise NotFoundError(
                f"{self.noun} {key:g} not in table; nearest "
                f"{_nearest(self._labels.astype(float), float(key))}")
        return TableSlice(self.beams.copy(), self.power_dbm[:, hits[0]].copy())


@dataclass(eq=False)
class BeampatternTable(_Table):
    """Received power (dBm) per codebook beam and turntable rotation."""

    beams: np.ndarray
    rotations: np.ndarray
    power_dbm: np.ndarray
    theta_t_deg: float = 0.0

    axis = "rotations"
    axis_type = float
    noun = "rotation"
    prefix_key = "rot_prefix"
    has_theta_t = True

    def _check_schema(self) -> None:
        if not np.isfinite(self.theta_t_deg):
            raise DomainError("theta_t must be finite")


@dataclass(eq=False)
class AbsorptionTable(_Table):
    """Received power (dBm) per codebook beam and active-element count."""

    beams: np.ndarray
    active_counts: np.ndarray
    power_dbm: np.ndarray

    axis = "active_counts"
    axis_type = int
    noun = "active count"
    prefix_key = "n_prefix"

    def _check_schema(self) -> None:
        for c in self.active_counts:
            if c < 1 or int(round(np.sqrt(c))) ** 2 != c:
                raise DomainError(f"non-square active count {c}")


# ---------------------------------------------------------------------------
# column-name mapping for externally produced files

_MAPPING_KEYS = ("theta_n", "phi_n", "rot_prefix", "n_prefix", "theta_t_key")

DEFAULT_MAPPING = {
    "theta_n": "theta_n",
    "phi_n": "phi_n",
    "rot_prefix": "rot_",
    "n_prefix": "n_",
    "theta_t_key": "theta_t",
}


def load_column_mapping(path) -> dict:
    """Parse ``key = value`` lines overriding the canonical column names."""
    mapping = {}
    for ln, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _MAPPING_KEYS:
            raise ParseError(
                f"{path}: line {ln}: unknown mapping key {key!r}; "
                f"known keys: {', '.join(_MAPPING_KEYS)}")
        mapping[key] = value
    return mapping


def _resolve_mapping(mapping) -> dict:
    resolved = dict(DEFAULT_MAPPING)
    if mapping:
        for key in mapping:
            if key not in _MAPPING_KEYS:
                raise DomainError(f"unknown mapping key {key!r}")
        resolved.update(mapping)
    return resolved


# ---------------------------------------------------------------------------
# writer and reader, one each for both schemas

def _write_table(table: _Table, path) -> None:
    table.validate()
    buf = io.StringIO()
    if table.has_theta_t:
        buf.write("# theta_t=%s\n" % _fmt_angle(table.theta_t_deg))
    prefix = DEFAULT_MAPPING[table.prefix_key]
    buf.write("theta_n,phi_n,"
              + ",".join(prefix + _fmt_angle(v) for v in table._labels) + "\n")
    for (az, el), row in zip(table.beams, table.power_dbm):
        buf.write(_fmt_angle(az) + "," + _fmt_angle(el) + ","
                  + ",".join(_fmt_power(p) for p in row) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _parse_theta_t(path, line: str, key: str) -> float:
    comment = line.lstrip("#").strip()
    if not comment.startswith(key + "="):
        raise ParseError(
            f"{path}: line 1: expected comment '# {key}=<deg>', got {line!r}")
    try:
        return float(comment[len(key) + 1:])
    except ValueError:
        raise ParseError(f"{path}: line 1: bad {key} "
                         f"value {comment[len(key) + 1:]!r}") from None


def _parse_rows(path, lines, start_ln, n_cols):
    beams, rows = [], []
    for ln, line in enumerate(lines, start=start_ln):
        parts = line.split(",")
        if len(parts) != 2 + n_cols:
            raise ParseError(f"{path}: line {ln}: expected {2 + n_cols} "
                             f"fields, got {len(parts)}")
        try:
            az, el = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(
                f"{path}: line {ln}: bad beam angles {parts[:2]!r}") from None
        vals = []
        for col, p in enumerate(parts[2:], start=1):
            try:
                vals.append(float(p))
            except ValueError:
                raise ParseError(f"{path}: line {ln}, data column {col}: "
                                 f"not a number: {p!r}") from None
        beams.append((az, el))
        rows.append(vals)
    if not beams:
        raise ParseError(f"{path}: no data rows")
    return np.array(beams, float), np.array(rows, float)


def _read(cls, path, names: dict, lines: list) -> _Table:
    """Parse `lines` of `path` as a `cls` table and validate it."""
    if not lines:
        raise ParseError(f"{path}: empty file")
    extra = {}
    head = 0
    if cls.has_theta_t and lines[0].startswith("#"):
        extra["theta_t_deg"] = _parse_theta_t(path, lines[0],
                                              names["theta_t_key"])
        head = 1
    if head == len(lines):
        raise ParseError(f"{path}: missing header row")
    header = lines[head].split(",")
    if len(header) < 3 or header[:2] != [names["theta_n"], names["phi_n"]]:
        raise ParseError(
            f"{path}: line {head + 1}: header must start with "
            f"'{names['theta_n']},{names['phi_n']}'")
    prefix = names[cls.prefix_key]
    labels = []
    for col, name in enumerate(header[2:], start=3):
        if not name.startswith(prefix):
            raise ParseError(f"{path}: header column {col} ({name!r}) does "
                             f"not start with {prefix!r}")
        try:
            labels.append(cls.axis_type(name[len(prefix):]))
        except ValueError:
            raise ParseError(f"{path}: header column {col} ({name!r}): "
                             f"bad {cls.noun}") from None

    beams, power = _parse_rows(path, lines[head + 1:], head + 2, len(labels))
    table = cls(beams, labels, power, **extra)
    try:
        table.validate()
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return table


# One entry point per schema over the shared writer and reader.  The writers
# are separate functions, not aliases, so each keeps its own __name__ for the
# per-layer tracing in perfbench/, which names layers by function.

def write_beampattern(table: BeampatternTable, path) -> None:
    _write_table(table, path)


def write_absorption(table: AbsorptionTable, path) -> None:
    _write_table(table, path)


def read_beampattern(path, mapping: dict | None = None) -> BeampatternTable:
    return _read(BeampatternTable, path, _resolve_mapping(mapping),
                 _read_lines(path))


def read_absorption(path, mapping: dict | None = None) -> AbsorptionTable:
    return _read(AbsorptionTable, path, _resolve_mapping(mapping),
                 _read_lines(path))


def read_table(path, mapping: dict | None = None):
    """Sniff the schema from the header and read the table with it."""
    names = _resolve_mapping(mapping)
    lines = _read_lines(path)
    header = next((line for line in lines if not line.startswith("#")), None)
    if header is None:
        raise ParseError(f"{path}: no header row found")
    third = header.split(",")[2:3]
    for cls in (BeampatternTable, AbsorptionTable):
        if third and third[0].startswith(names[cls.prefix_key]):
            return _read(cls, path, names, lines)
    raise ParseError(f"{path}: cannot identify schema from header {header!r}")
