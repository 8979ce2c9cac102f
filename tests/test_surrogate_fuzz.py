"""Fuzzing the model reader: whatever the bytes, load_model either returns
a valid MlpModel or raises ModelFormatError, never anything else."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.errors import ModelFormatError
from risbeam.surrogate import (MlpModel, MlpSpec, _shapes, load_model,
                               save_model)

FUZZ = settings(max_examples=100, deadline=None)


def _valid_text() -> str:
    spec = MlpSpec(hidden_layers=2, hidden_width=3)
    rng = np.random.default_rng(0)
    shapes = list(_shapes(spec))
    weights = [rng.normal(size=s) for s in shapes]
    biases = [rng.normal(size=s[1]) for s in shapes]
    params = np.concatenate([a.ravel() for w, b in zip(weights, biases)
                             for a in (w, b)])
    model = MlpModel(spec, params, np.array([-90.0, -45.0, -90.0]),
                     np.array([90.0, 45.0, 90.0]), -71.5, 6.25)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "model.txt"
        save_model(model, p)
        return p.read_text(encoding="utf-8")


VALID = _valid_text()


def _load_outcome(data: bytes):
    """load_model on `data`: the MlpModel, or None on ModelFormatError."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "model.txt"
        p.write_bytes(data)
        try:
            model = load_model(p)
        except ModelFormatError:
            return None
    assert isinstance(model, MlpModel)
    for (fan_in, fan_out), w, b in zip(_shapes(model.spec),
                                       model.weights, model.biases):
        assert w.shape == (fan_in, fan_out) and b.shape == (fan_out,)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
    return model


def test_valid_file_loads():
    assert _load_outcome(VALID.encode()).spec == MlpSpec(2, 3)


@FUZZ
@given(st.binary(max_size=400))
def test_arbitrary_bytes(data):
    _load_outcome(data)


@FUZZ
@given(st.binary(max_size=40), st.data())
def test_bytes_spliced_into_valid_file(junk, data):
    raw = VALID.encode()
    lo = data.draw(st.integers(0, len(raw)))
    hi = data.draw(st.integers(lo, len(raw)))
    _load_outcome(raw[:lo] + junk + raw[hi:])


@FUZZ
@given(st.integers(0, len(VALID)))
def test_truncated(cut):
    _load_outcome(VALID[:cut].encode())


FIELDS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.integers(-1, 5).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "1e400",
                     "-0.0", "0", "4e-324", "", " ", "0x1", "1_0", "٣",
                     "relu", "tanh", "spec", "layer", "w", "b",
                     "risbeam-mlp", "v2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@pytest.mark.parametrize("spec", ["spec 1000000000000 3 3 1 tanh",
                                  "spec 2 1000000000000 3 1 tanh",
                                  "spec 2 3 1000000000000 1 tanh",
                                  "spec 2 3 3 1000000000000 tanh"])
def test_spec_larger_than_the_file_rejected(spec):
    # 10**12 layers once asked for a 10**12-entry shape list before any
    # layer line was read
    lines = VALID.splitlines()
    lines[1] = spec
    assert _load_outcome(("\n".join(lines) + "\n").encode()) is None


@pytest.mark.parametrize("field", [1, 2])
def test_counts_past_numpy_indexing_rejected(field):
    # a mutation test_line_mutations draws: 2**63 layers once overflowed
    # itertools.repeat with an OverflowError
    lines = VALID.splitlines()
    parts = lines[1].split(" ")
    parts[field] = "9223372036854775808"
    lines[1] = " ".join(parts)
    assert _load_outcome(("\n".join(lines) + "\n").encode()) is None


@FUZZ
@given(st.data())
def test_line_mutations(data):
    """Replace, drop or duplicate fields; drop, duplicate or swap lines;
    the magic and spec lines included."""
    lines = VALID.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        r = data.draw(st.integers(0, len(lines) - 1))
        parts = lines[r].split(" ")
        kind = data.draw(st.sampled_from(
            ["replace", "drop", "duplicate", "drop_line", "duplicate_line",
             "swap_lines"]))
        if kind == "replace":
            parts[data.draw(st.integers(0, len(parts) - 1))] = \
                data.draw(FIELDS)
        elif kind == "drop" and len(parts) > 1:
            del parts[data.draw(st.integers(0, len(parts) - 1))]
        elif kind == "duplicate":
            parts.insert(0, parts[data.draw(st.integers(0, len(parts) - 1))])
        elif kind == "drop_line" and len(lines) > 1:
            del lines[r]
            continue
        elif kind == "duplicate_line":
            lines.insert(r, lines[r])
            continue
        elif kind == "swap_lines":
            s = data.draw(st.integers(0, len(lines) - 1))
            lines[r], lines[s] = lines[s], lines[r]
            continue
        lines[r] = " ".join(parts)
    _load_outcome(("\n".join(lines) + "\n").encode())
