"""Fuzzing the table reader and the column-mapping parser: whatever the
bytes, read_table (with or without a mapping) returns a valid table and
load_column_mapping a dict of known keys, or they raise one of the
risbeam.errors types, never anything else."""

import inspect
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam import datasets, errors
from risbeam.datasets import (DEFAULT_MAPPING, AbsorptionTable,
                              BeampatternTable, load_column_mapping,
                              read_table, write_absorption, write_beampattern)

FUZZ = settings(max_examples=50, deadline=None)

TAXONOMY = tuple(cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, Exception))


def _written(table, write) -> str:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.csv"
        write(table, p)
        return p.read_text(encoding="utf-8")


BEAMPATTERN = _written(BeampatternTable(
    [(-3, 0), (0, 0), (3, 0)], [-6.0, 0.0, 6.0],
    [[-61.5, -60.0, -63.25], [-60.0, -59.5, -61.0], [-64.0, -62.0, -60.5]],
    theta_t_deg=-1.5), write_beampattern)
ABSORPTION = _written(AbsorptionTable(
    [(0, -3), (3, -3)], [4, 16, 100],
    [[-75.0, -66.0, -60.0], [-76.5, -67.25, -61.0]]), write_absorption)
MAPPING_TEXT = ("# external names\ntheta_n = az\nphi_n = el\n"
                "rot_prefix = angle_\nn_prefix = count_\ntheta_t_key = tx\n")
MAPPING = {"theta_n": "az", "phi_n": "el", "rot_prefix": "angle_",
           "n_prefix": "count_", "theta_t_key": "tx"}


def _renamed(text: str) -> str:
    """`text` with MAPPING's column names in place of the canonical ones."""
    return (text.replace("theta_n,phi_n,", "az,el,")
            .replace("# theta_t=", "# tx=").replace("rot_", "angle_")
            .replace("n_", "count_"))


VALID = [(BEAMPATTERN, None), (ABSORPTION, None),
         (_renamed(BEAMPATTERN), MAPPING),
         (_renamed(ABSORPTION), MAPPING)]
IDS = ["beampattern", "absorption", "beampattern-mapped", "absorption-mapped"]


def _read_outcome(data: bytes, mapping=None):
    """read_table on `data`: the table, or None on a risbeam error."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.csv"
        p.write_bytes(data)
        try:
            table = read_table(p, mapping)
        except TAXONOMY:
            return None
    assert isinstance(table, (BeampatternTable, AbsorptionTable))
    table.validate()
    return table


def _mapping_outcome(data: bytes):
    """load_column_mapping on `data`: the mapping, or None on a risbeam
    error."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "cols.map"
        p.write_bytes(data)
        try:
            mapping = load_column_mapping(p)
        except TAXONOMY:
            return None
    assert set(mapping) <= set(DEFAULT_MAPPING)
    assert all(isinstance(v, str) for v in mapping.values())
    return mapping


@pytest.mark.parametrize("text, mapping", VALID, ids=IDS)
def test_valid_files_read(text, mapping):
    assert _read_outcome(text.encode(), mapping) is not None


def test_valid_mapping_reads():
    assert _mapping_outcome(MAPPING_TEXT.encode()) == MAPPING


@pytest.mark.parametrize("text, mapping, expected", [
    # a UTF-8 byte-order mark is dropped: the table of the text without it
    pytest.param("\ufeff" + BEAMPATTERN, None, BEAMPATTERN, id="bom"),
    pytest.param("\ufeff" + ABSORPTION, None, ABSORPTION,
                 id="bom-absorption"),
    # float() reads rot_1_0 as 10, as the cells' conversion reads 1_0
    pytest.param(BEAMPATTERN.replace("rot_6", "rot_1_0"), None,
                 [-6.0, 0.0, 10.0], id="rot_1_0"),
    pytest.param(BEAMPATTERN.replace("rot_", ""), {"rot_prefix": ""},
                 [-6.0, 0.0, 6.0], id="empty-rot-prefix"),
    pytest.param(BEAMPATTERN.replace("theta_n,phi_n", "x,x"),
                 {"theta_n": "x", "phi_n": "x"}, [-6.0, 0.0, 6.0],
                 id="same-name-twice"),
    pytest.param(BEAMPATTERN.replace("rot_", "theta_n"),
                 {"rot_prefix": "theta_n"}, [-6.0, 0.0, 6.0],
                 id="prefix-is-beam-name"),
    pytest.param(ABSORPTION.replace("n_100", "n_" + "9" * 30), None, None,
                 id="count-past-int64"),
])
def test_seed_inputs(text, mapping, expected):
    """`expected` is None (refused), the rotations read, or the text whose
    table is read."""
    table = _read_outcome(text.encode(), mapping)
    if expected is None:
        assert table is None
    elif isinstance(expected, str):
        assert table is not None
        assert table == _read_outcome(expected.encode(), mapping)
    else:
        assert table.rotations.tolist() == expected


@pytest.mark.parametrize("mapping", [None, MAPPING], ids=["plain", "mapped"])
@FUZZ
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes(mapping, data):
    _read_outcome(data, mapping)


@pytest.mark.parametrize("text, mapping", VALID, ids=IDS)
@FUZZ
@given(junk=st.binary(max_size=30), draw=st.data())
@example(junk=b"\xef\xbb\xbf", draw=None)
def test_bytes_spliced_into_valid_file(text, mapping, junk, draw):
    raw = text.encode()
    lo = draw.draw(st.integers(0, len(raw))) if draw else 0
    hi = draw.draw(st.integers(lo, len(raw))) if draw else 0
    _read_outcome(raw[:lo] + junk + raw[hi:], mapping)


SPECIAL = st.sampled_from([
    "", " ", "1_0", "-1_0", "+3", "3.", ".5", "1e400", "-1e400", "nan",
    "-inf", "0x1", "\u0663", "-200.5", "1" * 400, "9" * 30, "-" + "9" * 30,
    "4", "16", "0", "-4", "2.5"])
FIELDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-2**70, 2**70).map(str),
    SPECIAL,
    st.text(max_size=6),
)


@pytest.mark.parametrize("text, mapping", VALID, ids=IDS)
@FUZZ
@given(draw=st.data())
def test_field_mutations(text, mapping, draw):
    """Replace, drop or duplicate fields, header labels and the theta_t
    comment included, give a header label another value, or drop and swap
    lines."""
    lines = text.splitlines()
    header = 1 if lines[0].startswith("#") else 0
    for _ in range(draw.draw(st.integers(1, 4))):
        kind = draw.draw(st.sampled_from(
            ["replace", "label", "drop", "duplicate", "drop_line",
             "swap_lines"]))
        r = (min(header, len(lines) - 1) if kind == "label"
             else draw.draw(st.integers(0, len(lines) - 1)))
        parts = lines[r].split(",")
        i = draw.draw(st.integers(0, len(parts) - 1))
        if kind == "replace":
            parts[i] = draw.draw(FIELDS)
        elif kind == "label":  # keeps the prefix, changes the value
            i = min(max(i, 2), len(parts) - 1)
            parts[i] = (parts[i].rstrip("0123456789.-")
                        + draw.draw(SPECIAL))
        elif kind == "drop" and len(parts) > 1:
            del parts[i]
        elif kind == "duplicate":
            parts.insert(i, parts[i])
        elif kind == "drop_line":
            del lines[r]
            if not lines:
                break
            continue
        elif kind == "swap_lines":
            s = draw.draw(st.integers(0, len(lines) - 1))
            lines[r], lines[s] = lines[s], lines[r]
            continue
        lines[r] = ",".join(parts)
    _read_outcome(("\n".join(lines) + "\n").encode(), mapping)


KEYS = st.one_of(st.sampled_from(sorted(DEFAULT_MAPPING)), st.text(max_size=8))
VALUES = st.one_of(
    st.sampled_from(["", "theta_n", "phi_n", "rot_", "n_", "theta_t", "x",
                     "=", "a,b", "#", " rot_ ", "\ufeffrot_"]),
    st.text(max_size=8),
)


@FUZZ
@given(st.binary(max_size=300))
def test_mapping_arbitrary_bytes(data):
    _mapping_outcome(data)


@FUZZ
@given(lines=st.lists(st.one_of(
    st.tuples(KEYS, VALUES).map(lambda kv: "%s = %s" % kv),
    st.tuples(KEYS, VALUES).map(lambda kv: "%s=%s" % kv),
    st.sampled_from(["", "#", "# c", "=", "theta_n", " = x",
                     "\ufefftheta_n = a"]),
    st.text(max_size=12)), max_size=8),
    text=st.sampled_from([BEAMPATTERN, ABSORPTION]))
@example(lines=["rot_prefix ="], text=BEAMPATTERN)
@example(lines=["theta_n = x", "phi_n = x"], text=BEAMPATTERN)
@example(lines=["n_prefix = rot_"], text=BEAMPATTERN)
def test_mapping_lines_then_read(lines, text):
    """A mapping that loads is then used to read a canonical table."""
    mapping = _mapping_outcome(("\n".join(lines) + "\n").encode())
    if mapping is not None:
        _read_outcome(text.encode(), mapping)


# every str.splitlines break, "\r\n" and the byte-order mark, among text
LINE_TEXT = st.text(st.one_of(
    st.sampled_from(["\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                     "\x85", "\u2028", "\u2029", "\ufeff", "a", ","]),
    st.characters(codec="utf-8")), max_size=40)


class _CallerError(Exception):
    pass


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.lists(st.one_of(LINE_TEXT, st.just("\r\n")), max_size=6).map(
        lambda parts: "".join(parts).encode("utf-8")),
    st.builds(lambda text: ("\ufeff" + text).encode("utf-8"), LINE_TEXT),
    st.binary(max_size=40)),
    chars=st.integers(1, 3))
@example(data=b"", chars=1)
@example(data="\ufeff".encode("utf-8"), chars=1)
@example(data="\ufeff\r\n".encode("utf-8"), chars=1)
@example(data=b"a\r\nb\r\r\n\n", chars=2)
@example(data=b"a\r", chars=1)
@example(data="x\u2028\x85\x0b\x1c\r".encode("utf-8"), chars=3)
@example(data=b"ok\n\xff\n", chars=1)
def test_read_lines_matches_whole_text(data, chars):
    """Read in chunks of 1-3 characters, so chunk ends fall inside every
    break and next to the byte-order mark, the lines are those of the
    whole decoded text; undecodable bytes raise the caller's error."""
    try:
        expected = data.decode("utf-8").removeprefix("\ufeff").splitlines()
    except UnicodeDecodeError:
        expected = None
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(datasets, "_READ_CHARS", chars):
        p = Path(d) / "t.txt"
        p.write_bytes(data)
        if expected is None:
            with pytest.raises(_CallerError, match="not UTF-8"):
                datasets._read_lines(p, _CallerError)
        else:
            assert datasets._read_lines(p, _CallerError) == expected
