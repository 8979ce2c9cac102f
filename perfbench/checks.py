"""Output checks: pinned hashes, parse-back, and numeric references.

Every output is hashed and parsed back with the program's own reader.  At
seed 0 the hashes listed in ``refs/hashes.json`` and the small tables under
``refs/seed0`` are the reference; outputs that do not depend on the seed are
pinned for every seed.  ``smoothed.csv`` and ``pred.csv`` are compared with
values the benchmark recomputes itself from hash-checked inputs, so they are
checked at every seed without storing megabytes of reference data.

Numeric comparisons allow 2e-6 per cell: a cell printed with six decimals
may flip by one unit in the last place when the arithmetic behind it changes
order, and that is not a wrong result.

The readers are bound here at import, before a traced run wraps the
program's functions, so checking never shows up in the per-layer figures.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from risbeam.codebook import read_codebook
from risbeam.datasets import read_table
from risbeam.surrogate import load_model

TOLERANCE = 2e-6

# The CLI's default smoothing filter, used by `analyze --smooth`.
SG_WINDOW = 7
SG_ORDER = 4

REFS_DIR = Path(__file__).resolve().parent / "refs"


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Refs:
    """Pinned references, keyed by ``<workload>/<output path>``."""

    def __init__(self, root: Path = REFS_DIR):
        self.root = Path(root)
        data = json.loads((self.root / "hashes.json").read_text(encoding="utf-8"))
        self.any_seed = data["any_seed"]
        self.seed0 = data["seed0"]

    def pinned_hash(self, workload: str, seed: int, rel: str) -> str | None:
        key = f"{workload}/{rel}"
        if key in self.any_seed:
            return self.any_seed[key]
        return self.seed0.get(key) if seed == 0 else None

    def numeric(self, workload: str, seed: int, rel: str) -> Path | None:
        path = self.root / "seed0" / workload / rel
        return path if seed == 0 and path.is_file() else None


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header and float body of a numeric CSV; '#' comment lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split(",")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    if body.size and body.shape[1] != len(header):
        raise ValueError(f"{body.shape[1]} columns under a {len(header)}-column header")
    return header, body.reshape(-1, len(header))


def _compare(name: str, header, body, want_header, want_body, exact_cols: int = 0) -> list:
    if header != list(want_header):
        return [f"{name}: header differs from the reference"]
    if body.shape != want_body.shape:
        return [f"{name}: shape {body.shape} != reference {want_body.shape}"]
    if exact_cols and not np.array_equal(body[:, :exact_cols], want_body[:, :exact_cols]):
        return [f"{name}: key columns differ from the reference"]
    err = float(np.max(np.abs(body - want_body))) if body.size else 0.0
    if not err <= TOLERANCE:
        return [f"{name}: max |diff| {err:.3g} > {TOLERANCE:g}"]
    return []


def sg_reference(rows: np.ndarray, window: int = SG_WINDOW, order: int = SG_ORDER) -> np.ndarray:
    """Savitzky-Golay smoothing of each row by a pseudo-inverse per position.

    Each output point is the constant term of the least-squares polynomial
    centred on it, fitted over the window clipped to the series (no
    padding).  The program computes the same definition a different way.
    """
    n = rows.shape[1]
    half = window // 2
    out = np.empty_like(rows)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        x = np.arange(lo, hi, dtype=float) - i
        weights = np.linalg.pinv(x[:, None] ** np.arange(order + 1)[None, :])[0]
        out[:, i] = rows[:, lo:hi] @ weights
    return out


def mlp_reference(model, inputs: np.ndarray) -> np.ndarray:
    """Forward pass of a loaded model, written out from the file format's meaning."""
    span = model.input_hi - model.input_lo
    span = np.where(span > 0, span, 1.0)
    h = 2.0 * (inputs - model.input_lo) / span - 1.0
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i < len(model.weights) - 1:
            h = np.tanh(h)
    return h[:, 0] * model.target_std + model.target_mean


def _derived_smoothed(workdir: Path, path: Path) -> list:
    table = read_table(workdir / "beampattern.csv")
    want = np.column_stack([table.beams, sg_reference(table.power_dbm)])
    want_header = ["theta_n", "phi_n"] + ["rot_%g" % r for r in table.rotations]
    header, body = read_csv(path)
    return _compare(path.name, header, body, want_header, want, exact_cols=2)


def _derived_pred(workdir: Path, path: Path) -> list:
    table = read_table(workdir / "table.csv")
    model = load_model(workdir / "model.txt")
    rows, cols = table.power_dbm.shape
    cells = np.column_stack([np.repeat(table.beams[:, 0], cols),
                             np.repeat(table.beams[:, 1], cols),
                             np.tile(table.rotations, rows)])
    inputs = np.vstack([[0.0, -3.0, 0.0], cells])
    want = np.column_stack([inputs, mlp_reference(model, inputs)])
    header, body = read_csv(path)
    return _compare(path.name, header, body,
                    ["theta_n", "phi_n", "theta_r", "rsrp_dbm_pred"], want, exact_cols=3)


PARSERS = {
    "codebook": read_codebook,
    "table": read_table,
    "model": load_model,
    "csv": read_csv,
    "svg": ET.parse,
}
DERIVED = {"smoothed": _derived_smoothed, "pred": _derived_pred}


def check_output(workload, out, refs: Refs | None) -> tuple:
    """(sha256 or None, problems) for one output of one command."""
    path = workload.workdir / out.path
    if not path.is_file():
        return None, [f"{out.path}: not written"]
    digest = sha256(path)
    problems = []
    pinned = refs.pinned_hash(workload.name, workload.seed, out.path) if refs else None
    if pinned is not None and digest != pinned:
        problems.append(f"{out.path}: sha256 {digest[:12]}... != pinned {pinned[:12]}...")
    # A check must never stop the run: any failure to read is a finding.
    try:
        PARSERS[out.kind](path)
        ref = refs.numeric(workload.name, workload.seed, out.path) if refs else None
        if ref is not None:
            problems += _compare(out.path, *read_csv(path), *read_csv(ref))
        if out.derived:
            problems += DERIVED[out.derived](workload.workdir, path)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        problems.append(f"{out.path}: does not read back: {type(exc).__name__}: {exc}")
    return digest, problems
