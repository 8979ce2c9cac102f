"""Dataset tables and their CSV schemas.

One table implementation holds received power per codebook beam (rows) and
per label of one column axis.  Two schemas declare that axis and cover every
measurement campaign:

* beampattern: columns are turntable rotations (float degrees).
  Header ``theta_n,phi_n,rot_<angle>,...`` preceded by one comment line
  ``# theta_t=<deg>`` recording the transmitter azimuth of the campaign.
* absorption: columns are active-element counts (integer squares).
  Header ``theta_n,phi_n,n_<count>,...``.

Both schemas go through one writer and one reader, ``read_table``, which
sniffs the schema from the header.  Codebook files share the beam-row
layout beneath (header, ``<az>,<el>,<cells>`` lines, beam checks and
lookup).  Powers are serialized with 6 decimal places (far below any
measurement precision), angles and labels exactly (`_fmt_angle`).  The
reader accepts an optional column-name mapping so externally produced files
with renamed headers can be ingested without rewriting them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotFoundError, ParseError

__all__ = [
    "AbsorptionTable",
    "BeampatternTable",
    "load_column_mapping",
    "read_table",
    "write_absorption",
    "write_beampattern",
]

POWER_SANITY_FLOOR_DBM = -200.0


class TableSlice(NamedTuple):
    """A copied table slice together with its index labels."""

    labels: np.ndarray
    values: np.ndarray


def _fmt_angle(v: float) -> str:
    """Integer digits when integral, else the shortest exact float text."""
    return "%d" % v if float(v).is_integer() else repr(float(v))


# Powers are spelled this many cells at a time, so a block's integer and
# byte temporaries stay a few hundred kB however large the table grows.
_TEXT_CELLS = 1 << 12


def _ascii_rows(texts) -> np.ndarray:
    """The ASCII of each text, NUL-padded to the longest, as the rows of a
    uint8 matrix."""
    table = np.array(list(texts), dtype="S")
    return table.view(np.uint8).reshape(table.size, table.itemsize)


def _fmt_powers(values: np.ndarray, end: str) -> np.ndarray:
    """``"%.6f" % v + end`` for each v of a 1-d float array, as the rows of
    a uint8 matrix of ASCII padded with NULs.

    The count of millionths is k = rint(v * 1e6), except where that product
    is a half-integer: there the exact v * 1e6 is the product plus its
    Dekker error term, whose sign says which way the tie really falls; an
    exact tie keeps rint's even k, as Python's correctly rounded "%" does.
    The sign comes from the sign bit, so -0.0 and -1e-9 spell -0.000000,
    and the digits from integer division.  A block holding a non-finite v
    or a |v| of 2^52 / 10^6 or more, where v * 1e6 keeps no fraction bits,
    is spelled by "%" cell by cell.
    """
    if not np.all(np.abs(values) < 2.0 ** 52 / 1e6):
        return _ascii_rows("%.6f%s" % (v, end) for v in values.tolist())
    p = values * 1e6
    k = np.rint(p)
    ties = np.flatnonzero(np.abs(p - k) == 0.5)
    if ties.size:
        v, pt = values[ties], p[ties]
        hi = v * 134217729.0  # Dekker's split at 2^27 + 1; 1e6 needs none
        hi -= hi - v
        err = (hi * 1e6 - pt) + (v - hi) * 1e6
        k[ties] = np.where(err == 0, k[ties], pt + np.copysign(0.5, err))
    whole, frac = np.divmod(np.abs(k).astype(np.int64), 10 ** 6)
    # sign, integer digits, point, six decimals, end
    point = 1 + len(str(int(whole.max(initial=0))))
    out = np.zeros((values.size, point + 7 + len(end)), np.uint8)
    out[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    for col in range(point + 6, point, -1):
        frac, digit = np.divmod(frac, 10)
        out[:, col] = digit + 48
    out[:, point] = ord(".")
    out[:, point - 1] = whole % 10 + 48
    for col in range(point - 2, 0, -1):  # higher digits, NUL when leading
        whole //= 10
        out[:, col] = np.where(whole > 0, whole % 10 + 48, 0)
    out[:, point + 7:] = np.frombuffer(end.encode("ascii"), np.uint8)
    return out


def _fixed_rows(cells: np.ndarray):
    """Text of each row of a (rows, cells, width) uint8 array whose cells
    are NUL-padded ASCII, each ending in a comma: the row's bytes without
    their NULs and final comma."""
    text = cells.tobytes().decode("ascii")
    width = cells.size // len(cells)
    for lo in range(0, len(text), width):
        yield text[lo:lo + width].replace("\0", "")[:-1]


def _power_blocks(values: np.ndarray, end: str):
    """(first row, cells) for each block of rows of a 2-d array of powers
    with at least one column, about _TEXT_CELLS cells at a time: `cells`
    is the (rows, columns, width) uint8 array of the block's `_fmt_powers`
    text, each cell followed by `end`."""
    rows, cols = values.shape
    step = max(1, _TEXT_CELLS // cols)
    for lo in range(0, rows, step):
        block = values[lo:lo + step]
        yield lo, _fmt_powers(block.ravel(), end).reshape(len(block), cols, -1)


def _power_rows(values: np.ndarray):
    """Yield the text of each row of a 2-d array of powers: ``"%.6f"``
    cells joined by commas, cut from each block's text by `_fixed_rows`."""
    if not values.shape[1]:
        yield from [""] * len(values)
        return
    for _, cells in _power_blocks(values, ","):
        yield from _fixed_rows(cells)


def _fmt_exact(v: float) -> str:  # 17 digits: reads back the same float
    return "%.17g" % v


# characters decoded per read of a text file: a default-campaign table
# (1.3 MB) is one read, a 64x64 codebook (16 MB) streams
_READ_CHARS = 1 << 21
# str.splitlines breaks; "\r" is absent, the reader translates it to "\n"
_BREAKS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _read_lines(path, error=ParseError) -> list:
    """Lines of a UTF-8 text file, without a leading byte-order mark;
    undecodable bytes raise `error`.  The text streams in chunks of
    _READ_CHARS characters, so a file longer than a chunk is never held as
    one string next to its lines.  A chunk's unfinished last line goes on
    in the next chunk; the reader holds back a carriage return that ends a
    chunk, so a CR LF split across two chunks stays one break."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = []
            tail = fh.read(_READ_CHARS).removeprefix("\ufeff")
            while chunk := fh.read(_READ_CHARS):
                lines += (tail + chunk).splitlines()
                tail = "" if chunk[-1] in _BREAKS else lines.pop()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    lines += tail.splitlines()
    return lines


def _write_lines(path, lines) -> None:
    """Write `lines` (strings without their final newline, each holding one
    line or more) as UTF-8 text.

    A missing parent directory is created first.  The lines stream into a
    temp file in the same directory that then replaces `path`, so an
    interrupted write leaves the old file intact and the whole text is
    never held in memory at once.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _as_beams(beams) -> np.ndarray:
    arr = np.asarray(beams, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("beams must have shape (n, 2)")
    return arr


def _check_beams(beams: np.ndarray) -> None:
    """Beams are dataset keys: each finite and none repeated."""
    if not np.all(np.isfinite(beams)):
        raise DomainError("beam angles must be finite")
    if len(set(map(tuple, beams.tolist()))) != beams.shape[0]:
        raise DomainError("duplicate beams")


def _nearest(values: np.ndarray, key: float) -> list:
    order = np.argsort(np.abs(values - key), kind="stable")[:3]
    return [float(v) for v in values[order]]


def _beam_index(beams: np.ndarray, beam, where: str) -> int:
    """Row of the exact (azimuth, elevation) match of `beam` in `beams`."""
    az, el = float(beam[0]), float(beam[1])
    hits = np.nonzero((beams[:, 0] == az) & (beams[:, 1] == el))[0]
    if hits.size == 0:
        raise NotFoundError(
            f"beam ({az:g}, {el:g}) not in {where}; nearest azimuths "
            f"{_nearest(np.unique(beams[:, 0]), az)}, nearest elevations "
            f"{_nearest(np.unique(beams[:, 1]), el)}")
    return int(hits[0])


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
        """Finite unique beams, ascending finite labels, sane finite powers."""
        _check_beams(self.beams)
        if not np.all(np.isfinite(self._labels)):
            raise DomainError(f"{self.axis} must be finite")
        # compared, not subtracted: finite labels can differ by more
        # than the largest float
        if np.any(self._labels[1:] <= self._labels[:-1]):
            raise DomainError(f"{self.axis} must be strictly ascending")
        self._check_schema()
        if not np.all(np.isfinite(self.power_dbm)):
            raise DomainError("power matrix contains non-finite values")
        if np.any(self.power_dbm < POWER_SANITY_FLOOR_DBM):
            raise DomainError(
                f"power below sanity floor {POWER_SANITY_FLOOR_DBM} dBm")

    def row(self, beam) -> TableSlice:
        r = _beam_index(self.beams, beam, "table")
        return TableSlice(self._labels.copy(), self.power_dbm[r].copy())

    def column(self, label) -> TableSlice:
        key = float(label)  # exact: 16.9 is no count, nan matches nothing
        hits = np.nonzero(self._labels == key)[0]
        if hits.size == 0:
            raise NotFoundError(
                f"{self.noun} {key:g} not in table; nearest "
                f"{_nearest(self._labels.astype(float), key)}")
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
        if key not in DEFAULT_MAPPING:
            raise ParseError(
                f"{path}: line {ln}: unknown mapping key {key!r}; "
                f"known keys: {', '.join(DEFAULT_MAPPING)}")
        mapping[key] = value
    return mapping


def _resolve_mapping(mapping) -> dict:
    resolved = dict(DEFAULT_MAPPING)
    if mapping:
        for key in mapping:
            if key not in DEFAULT_MAPPING:
                raise DomainError(f"unknown mapping key {key!r}")
        resolved.update(mapping)
    return resolved


# ---------------------------------------------------------------------------
# the beam-row writer and parser, shared with codebook files, and the table
# writer and reader over them

def _header(columns) -> str:
    return "theta_n,phi_n," + ",".join(columns)


def _write_rows(path, comment, columns, beams, cells) -> None:
    """Write an optional ``# <comment>`` line, the header
    ``theta_n,phi_n,<columns>`` and one ``<az>,<el>,<cells>`` line per beam,
    where `cells` yields the text of each row's cells in beam order."""
    def lines():
        if comment is not None:
            yield "# " + comment
        yield _header(columns)
        for (az, el), text in zip(beams.tolist(), cells):
            yield _fmt_angle(az) + "," + _fmt_angle(el) + "," + text

    _write_lines(path, lines())


def _digit_row(text: str, size: int, limit: int):
    """The indices of a row's cell text when it is `size` one-digit indices
    below `limit` joined by commas, else None."""
    if len(text) != 2 * size - 1 or not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    digits = raw[::2] - 48  # a byte below "0" wraps past 9 too
    if digits.max() >= min(limit, 10) or not np.all(raw[1::2] == 44):
        return None
    return digits


def _parse_rows(path, lines, first_ln, cells, limit=None) -> np.ndarray:
    """Parse ``<az>,<el>,<cells>`` lines into the preallocated `cells`
    matrix and return the (n, 2) float beams.

    One numpy call per line converts its cells, with float()'s syntax or,
    for integer phase-set indices, int()'s; those are checked against
    [0, limit) before the store, which would wrap e.g. 256 to 0 in uint8.
    An index row whose cell text is ASCII one-digit indices below `limit`
    at even offsets and commas at odd ones, as the 3-bit codebooks are
    written, is read from its bytes instead; every other row takes the
    numpy call, so what is accepted and every message stay the same.
    """
    n_fields = 2 + cells.shape[1]
    dtype = float if limit is None else np.int64
    beams = np.empty((len(lines), 2))
    for r, line in enumerate(lines):
        where = f"{path}: line {first_ln + r}: "
        row = None
        if limit is not None:
            parts = line.split(",", 2)  # the beam angles, then the cells
            if len(parts) == 3:
                row = _digit_row(parts[2], cells.shape[1], limit)
        if row is None:
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ParseError(f"{where}expected {n_fields} fields, "
                                 f"got {len(parts)}")
        try:
            beams[r] = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"{where}bad beam angles {parts[:2]!r}") from None
        if row is None:
            row = _convert_row(where, parts[2:], dtype, limit)
        cells[r] = row
    return beams


def _convert_row(where, texts, dtype, limit):
    """One row's cells by one numpy conversion, range-checked for indices."""
    try:  # an integer past int64 raises OverflowError
        row = np.array(texts, dtype)
    except (ValueError, OverflowError):
        for col, text in enumerate(texts, start=1):
            try:
                np.array(text, dtype)
            except (ValueError, OverflowError):
                raise ParseError(f"{where}data column {col}: "
                                 f"bad value {text!r}") from None
        raise
    if limit is not None and (row.min() < 0 or row.max() >= limit):
        raise ParseError(f"{where}index outside the phase set "
                         f"[0, {limit})")
    return row


def _write_table(table: _Table, path) -> None:
    table.validate()
    prefix = DEFAULT_MAPPING[table.prefix_key]
    comment = ("theta_t=%s" % _fmt_angle(table.theta_t_deg)
               if table.has_theta_t else None)
    _write_rows(path, comment, [prefix + _fmt_angle(v) for v in table._labels],
                table.beams, _power_rows(table.power_dbm))


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


# One writer per schema over `_write_table`.  They are separate functions,
# not aliases, so each keeps its own __name__ for the per-layer tracing in
# perfbench/, which names layers by function.

def write_beampattern(table: BeampatternTable, path) -> None:
    _write_table(table, path)


def write_absorption(table: AbsorptionTable, path) -> None:
    _write_table(table, path)


def read_table(path, mapping: dict | None = None):
    """Read and validate a table, its schema sniffed from the first line not
    starting with "#": a third column with the rotation prefix makes it a
    beampattern, one with the count prefix an absorption table."""
    names = _resolve_mapping(mapping)
    lines = _read_lines(path)
    sniffed = next((line for line in lines if not line.startswith("#")), None)
    if sniffed is None:
        raise ParseError(f"{path}: no header row found")
    third = sniffed.split(",")[2:3]
    cls = next((c for c in (BeampatternTable, AbsorptionTable)
                if third and third[0].startswith(names[c.prefix_key])), None)
    if cls is None:
        raise ParseError(
            f"{path}: cannot identify schema from header {sniffed!r}")
    extra = {}
    head = 0
    if cls.has_theta_t and lines[0].startswith("#"):
        extra["theta_t_deg"] = _parse_theta_t(path, lines[0],
                                              names["theta_t_key"])
        head = 1
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
            # the int64 cast raises OverflowError for counts past its range
            labels.append(np.array(cls.axis_type(name[len(prefix):]),
                                   dtype=cls.axis_type))
        except (ValueError, OverflowError):
            raise ParseError(f"{path}: header column {col} ({name!r}): "
                             f"bad {cls.noun}") from None

    body = lines[head + 1:]
    if not body:
        raise ParseError(f"{path}: no data rows")
    power = np.empty((len(body), len(labels)))
    beams = _parse_rows(path, body, head + 2, power)
    table = cls(beams, labels, power, **extra)
    try:
        table.validate()
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return table
