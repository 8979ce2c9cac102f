"""Fuzzing the codebook reader: whatever the bytes, read_codebook either
returns a valid Codebook or raises ParseError, never anything else."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.array_model import ArraySpec, Direction
from risbeam.codebook import (Codebook, CodebookGrid, build_codebook,
                              read_codebook, write_codebook)
from risbeam.errors import ParseError

FUZZ = settings(max_examples=150, deadline=None)


def _valid_text() -> str:
    cb = build_codebook(ArraySpec(2, 2), Direction(0, -33),
                        CodebookGrid(azimuth_deg=(0, 6, 3),
                                     elevation_deg=(-3, 0, 3)))
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "cb.csv"
        write_codebook(cb, p)
        return p.read_text(encoding="utf-8")


VALID = _valid_text()


def _read_outcome(data: bytes):
    """read_codebook on `data`: the Codebook, or None on ParseError."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "cb.csv"
        p.write_bytes(data)
        try:
            cb = read_codebook(p)
        except ParseError:
            return None
    assert isinstance(cb, Codebook)
    assert cb.indices.dtype == np.min_scalar_type(cb.spec.phase_set.size - 1)
    assert cb.indices.shape == (len(cb), cb.spec.size)
    if cb.indices.size:
        assert 0 <= cb.indices.min()
        assert cb.indices.max() < cb.spec.phase_set.size
    return cb


def test_valid_file_reads():
    assert len(_read_outcome(VALID.encode())) == 6


@FUZZ
@given(st.binary(max_size=400))
def test_arbitrary_bytes(data):
    _read_outcome(data)


@FUZZ
@given(st.binary(max_size=40), st.data())
def test_bytes_spliced_into_valid_file(junk, data):
    raw = VALID.encode()
    lo = data.draw(st.integers(0, len(raw)))
    hi = data.draw(st.integers(lo, len(raw)))
    _read_outcome(raw[:lo] + junk + raw[hi:])


@FUZZ
@given(st.integers(0, len(VALID)))
def test_truncated(cut):
    _read_outcome(VALID[:cut].encode())


FIELDS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.integers(0, 7).map(str),
    st.sampled_from(["-1", "8", "65536", "2147483648", str(2**63),
                     str(-2**63 - 1), "1" * 5000, "3.0", "1e3", "nan",
                     "-inf", "inf", "0x1", "", " ", "+3", "٣"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@FUZZ
@given(st.data())
def test_body_mutations(data):
    """Replace, swap, drop or duplicate fields and lines of the body."""
    lines = VALID.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        r = data.draw(st.integers(2, len(lines) - 1))
        parts = lines[r].split(",")
        kind = data.draw(st.sampled_from(
            ["replace", "swap", "drop", "duplicate", "swap_lines"]))
        if kind == "replace":
            parts[data.draw(st.integers(0, len(parts) - 1))] = \
                data.draw(FIELDS)
        elif kind == "swap":
            i = data.draw(st.integers(0, len(parts) - 1))
            j = data.draw(st.integers(0, len(parts) - 1))
            parts[i], parts[j] = parts[j], parts[i]
        elif kind == "drop":
            del parts[data.draw(st.integers(0, len(parts) - 1))]
        elif kind == "duplicate":
            parts.insert(0, parts[data.draw(st.integers(0, len(parts) - 1))])
        else:
            s = data.draw(st.integers(2, len(lines) - 1))
            lines[r], lines[s] = lines[s], lines[r]
            continue
        lines[r] = ",".join(parts)
    _read_outcome(("\n".join(lines) + "\n").encode())


META_VALUES = st.one_of(
    FIELDS,
    st.sampled_from(["0", "-2", "4", "1,2", "0,1", "1,0", "6.3", "-1e308",
                     "1e400", "tx-compensated", "uncompensated", "=", "x=y"]),
)


@FUZZ
@given(st.data())
def test_header_mutations(data):
    """Edit, drop or add metadata tokens and edit the column header."""
    lines = VALID.splitlines()
    tokens = lines[0][2:].split()
    first = None  # a replacement for the whole comment line
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(
            ["value", "drop", "add", "header", "comment"]))
        i = data.draw(st.integers(0, len(tokens) - 1)) if tokens else 0
        if kind == "value" and tokens:
            key = tokens[i].split("=", 1)[0]
            tokens[i] = key + "=" + data.draw(META_VALUES)
        elif kind == "drop" and tokens:
            del tokens[i]
        elif kind == "add":
            tokens.insert(i, data.draw(st.text(max_size=8)))
        elif kind == "header":
            cols = lines[1].split(",")
            j = data.draw(st.integers(0, len(cols) - 1))
            cols[j] = data.draw(st.sampled_from(
                ["idx_9", "idx_0", "theta", "", "idx_-1", cols[j] + " "]))
            lines[1] = ",".join(cols)
        elif kind == "comment":
            first = data.draw(st.sampled_from(["#", "", "#nx=2", "# "]))
    lines[0] = "# " + " ".join(tokens) if first is None else first
    _read_outcome(("\n".join(lines) + "\n").encode())
