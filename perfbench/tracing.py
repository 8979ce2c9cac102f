"""Per-layer tracing from outside the program.

A traced run replaces the public functions the CLI reaches with wrappers
that record one span per call: name, start, end, parent span, and the pass
and command it belongs to.  The layers are the modules of ``risbeam``; a
span's name is ``<module>.<function>``.  Mostly the wrapped names are the
ones ``risbeam.cli`` imports (patched in the ``cli`` namespace, where the
CLI looks them up), plus ``quantize_phases`` in the ``codebook`` namespace
and ``MlpModel.predict_batch`` on its class.

Spans are kept in memory and written as JSON lines when the run ends.
Nothing here is imported by an untraced run's program code: the untraced
run calls ``risbeam`` unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
from collections import defaultdict
from time import perf_counter


def _path_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _cells(args, result) -> dict:
    return {"cells": int(result.power_dbm.size)}


def _quantize(args, result) -> dict:
    elements = int(getattr(args["phases"], "size", 0))
    # Shape-derived, not measured: the float64 (..., K) distance tensor the
    # general nearest-phase search builds for these inputs.
    return {"elements": elements,
            "bytes_computed": elements * int(args["phase_set"].size) * 8}


def _train(args, result) -> dict:
    spec = args["train_spec"]
    n_train = int(len(args["records"]) * spec.split_fraction)
    return {"epochs": spec.epochs,
            "steps": spec.epochs * math.ceil(n_train / spec.batch_size)}


# (module, class or None, attribute, counter).  Counters see the bound call
# arguments and the result; their names become `<layer>.<counter>` metrics.
TARGETS = (
    ("risbeam.cli", None, "main", None),
    ("risbeam.cli", None, "load_campaign_config", None),
    ("risbeam.cli", None, "build_codebook", None),
    ("risbeam.codebook", None, "quantize_phases", _quantize),
    ("risbeam.cli", None, "write_codebook", _path_bytes),
    ("risbeam.cli", None, "sweep_beampattern", _cells),
    ("risbeam.cli", None, "sweep_absorption", _cells),
    ("risbeam.cli", None, "write_beampattern", _path_bytes),
    ("risbeam.cli", None, "write_absorption", _path_bytes),
    ("risbeam.cli", None, "read_table", _path_bytes),
    ("risbeam.analysis", None, "savitzky_golay", None),
    ("risbeam.analysis", None, "hpbw", None),
    ("risbeam.analysis", None, "localize_aoa", None),
    ("risbeam.analysis", None, "hpi_reconstruct", None),
    ("risbeam.analysis", None, "fit_exponential",
     lambda args, result: {"iterations": result.iterations}),
    ("risbeam.surrogate", None, "flatten_table", None),
    ("risbeam.surrogate", None, "train", _train),
    ("risbeam.surrogate", None, "save_model", None),
    ("risbeam.surrogate", None, "load_model", None),
    ("risbeam.surrogate", "MlpModel", "predict_batch",
     lambda args, result: {"rows": int(len(args["raw"]))}),
    ("risbeam.svgplot", None, "line_plot", None),
)

# Counter names per layer, in the order the metrics are listed.
COUNTERS = {
    "array_model.quantize_phases": ("elements", "bytes_computed"),
    "codebook.write_codebook": ("bytes",),
    "chamber.sweep_beampattern": ("cells",),
    "chamber.sweep_absorption": ("cells",),
    "datasets.write_beampattern": ("bytes",),
    "datasets.write_absorption": ("bytes",),
    "datasets.read_table": ("bytes",),
    "analysis.fit_exponential": ("iterations",),
    "surrogate.train": ("epochs", "steps"),
    "surrogate.predict_batch": ("rows",),
}
# Layers that call other wrapped layers, so self time differs from busy time.
SELF_TIMED = ("cli.main", "codebook.build_codebook", "surrogate.train")
UNITS = {"bytes": "bytes", "bytes_computed": "bytes"}


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def layers() -> list:
    return [layer_name(getattr(_owner(m, c), a)) for m, c, a, _ in TARGETS]


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    out = {}
    names = layers()
    for layer in names:
        out[f"{layer}.s"] = "s"
        if layer in SELF_TIMED:
            out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
        for counter in COUNTERS.get(layer, ()):
            out[f"{layer}.{counter}"] = UNITS.get(counter, "count")
    out["chamber.sweep_beampattern.us_per_cell"] = "us"
    out["analysis.savitzky_golay.us_per_call"] = "us"
    out["surrogate.train.s_per_epoch"] = "s"
    for module in dict.fromkeys(n.split(".")[0] for n in names):
        out[f"{module}.errors"] = "count"
    return out


class Tracer:
    """Installs the wrappers and records spans while installed."""

    def __init__(self):
        self.spans = []       # [id, name, parent, pass, cmd, start, end, error]
        self.pass_id = None
        self.cmd_id = None
        self._stack = []
        self._patched = []

    def install(self) -> None:
        for module, cls, attr, counter in TARGETS:
            owner = _owner(module, cls)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, counter))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, counter):
        name = layer_name(fn)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, stack[-1][0] if stack else None,
                    self.pass_id, self.cmd_id, perf_counter(), None, True]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span[7] = False
                return result
            finally:
                span[6] = perf_counter()
                stack.pop()
                if counter is not None and not span[7]:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.append(counter(bound.arguments, result))
        return wrapper

    def write_jsonl(self, path, t0: float) -> None:
        """Spans as JSON lines, times in seconds from `t0`."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s[0], "name": s[1], "parent": s[2], "pass": s[3],
                       "cmd": s[4], "start": s[5] - t0, "end": s[6] - t0,
                       "error": s[7]}
                if len(s) > 8:
                    row["counts"] = s[8]
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[6] - s[5] for s in spans}
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[6] - s[5]
    return own


def pass_metrics(spans) -> dict:
    """Per-layer metrics of the spans of one pass (every metric present)."""
    units = metric_units()
    out = dict.fromkeys(units, 0)
    own = self_times(spans)
    for s in spans:
        layer = s[1]
        out[f"{layer}.s"] += s[6] - s[5]
        out[f"{layer}.calls"] += 1
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] += own[s[0]]
        if s[7]:
            out[f"{layer.split('.')[0]}.errors"] += 1
        for counter, value in (s[8] if len(s) > 8 else {}).items():
            out[f"{layer}.{counter}"] += value

    def ratio(num, den, scale=1.0):
        return out[num] * scale / out[den] if out[den] else 0.0

    out["chamber.sweep_beampattern.us_per_cell"] = ratio(
        "chamber.sweep_beampattern.s", "chamber.sweep_beampattern.cells", 1e6)
    out["analysis.savitzky_golay.us_per_call"] = ratio(
        "analysis.savitzky_golay.s", "analysis.savitzky_golay.calls", 1e6)
    out["surrogate.train.s_per_epoch"] = ratio("surrogate.train.s", "surrogate.train.epochs")
    return out


def group_by_pass(spans) -> dict:
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s[3]].append(s)
    return dict(by_pass)
