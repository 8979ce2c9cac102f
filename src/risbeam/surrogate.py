"""Hand-rolled MLP surrogate of a beam table: (beam az, beam el, rotation) -> power.

Deliberately dependency-free numerics (numpy only): forward, backprop, and
Adam are spelled out so they can be verified against finite differences.
Training is bit-reproducible for a fixed (records, specs, seed) triple.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analysis import nmse
from .array_model import _is_int
from .datasets import BeampatternTable, _fmt_exact, _read_lines, _write_lines
from .errors import DomainError, ModelFormatError

__all__ = [
    "MlpSpec",
    "TrainSpec",
    "MlpModel",
    "flatten_table",
    "train",
    "gradient_check",
    "save_model",
    "load_model",
]

_MODEL_MAGIC = "risbeam-mlp v1"

# The network's inputs: (beam azimuth, beam elevation, rotation), the first
# three columns of the records flatten_table lays out.
_INPUTS = 3

# Adam moment decays and denominator guard (Kingma & Ba 2015 defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Batch rows and central-difference step of gradient_check.
_CHECK_BATCH = 8
_CHECK_STEP = 1e-5


def _check_integers(spec, *names: str) -> None:
    for name in names:
        if not _is_int(getattr(spec, name)):
            raise DomainError(
                f"{name} must be an integer, got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class MlpSpec:
    """tanh hidden layers of one width, then one linear output."""

    hidden_layers: int = 3
    hidden_width: int = 16

    def __post_init__(self) -> None:
        _check_integers(self, "hidden_layers", "hidden_width")
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise DomainError("need at least one hidden layer of width >= 1")


def _shapes(spec: MlpSpec):
    """(fan_in, fan_out) per layer, lazily: a spec read from a file may
    declare more layers than memory holds."""
    hidden = itertools.repeat(spec.hidden_width, spec.hidden_layers)
    return itertools.pairwise(itertools.chain([_INPUTS], hidden, [1]))


def _size(spec: MlpSpec) -> int:
    """Length of the flat parameter vector: every layer's weights and biases."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in _shapes(spec))


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 750
    batch_size: int = 100
    learning_rate: float = 1e-3
    split_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(self, "epochs", "batch_size")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise DomainError("split_fraction must be in (0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DomainError("learning_rate must be finite and > 0, "
                              f"got {self.learning_rate!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise DomainError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Trained network plus the normalization constants baked in at fit time;
    `weights` and `biases` are per-layer views of the flat `params`, which
    is why no field can be rebound."""

    spec: MlpSpec
    params: np.ndarray
    input_lo: np.ndarray
    input_hi: np.ndarray
    target_mean: float
    target_std: float

    def __post_init__(self) -> None:
        params = np.asarray(self.params, dtype=float)
        size = _size(self.spec)
        if params.shape != (size,) or not np.all(np.isfinite(params)):
            raise DomainError(f"params must be {size} finite values, "
                              f"got shape {params.shape}")
        input_lo = np.asarray(self.input_lo, dtype=float)
        input_hi = np.asarray(self.input_hi, dtype=float)
        if input_lo.shape != (_INPUTS,) or input_hi.shape != (_INPUTS,):
            raise DomainError(f"normalization constants need {_INPUTS} inputs")
        finite = (
            np.all(np.isfinite(input_lo))
            and np.all(np.isfinite(input_hi))
            and math.isfinite(self.target_mean)
            and math.isfinite(self.target_std)
        )
        if not finite or self.target_std <= 0:
            raise DomainError("normalization constants must be finite, std > 0")
        weights, biases = _layer_views(params, self.spec)
        for name, value in (("params", params), ("weights", weights),
                            ("biases", biases), ("input_lo", input_lo),
                            ("input_hi", input_hi)):
            object.__setattr__(self, name, value)

    def normalize_inputs(self, raw: np.ndarray) -> np.ndarray:
        span = np.where(self.input_hi > self.input_lo, self.input_hi - self.input_lo, 1.0)
        return 2.0 * (raw - self.input_lo) / span - 1.0

    def forward(self, normalized: np.ndarray) -> np.ndarray:
        # hidden layers take turns in two buffers, so memory does not grow
        # with depth; the head has its own
        rows, hidden = normalized.shape[0], self.spec.hidden_layers
        width = self.spec.hidden_width
        pair = [np.empty((rows, width)) for _ in range(min(hidden, 2))]
        outputs = [pair[i % 2] for i in range(hidden)] + [np.empty((rows, 1))]
        return _forward(self.weights, self.biases, normalized, outputs)

    def predict_batch(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2 or raw.shape[1] != _INPUTS:
            raise DomainError(f"expected (n, {_INPUTS}) inputs, got {raw.shape}")
        out = self.forward(self.normalize_inputs(raw))
        return out[:, 0] * self.target_std + self.target_mean


def flatten_table(table: BeampatternTable) -> np.ndarray:
    """Table cells as (beam az, beam el, rotation, power) records, row-major."""
    if not isinstance(table, BeampatternTable):
        raise DomainError("surrogate records need a beampattern table, got "
                          f"{type(table).__name__}")
    rows, cols = table.power_dbm.shape
    az = np.repeat(table.beams[:, 0], cols)
    el = np.repeat(table.beams[:, 1], cols)
    rot = np.tile(table.rotations, rows)
    return np.column_stack([az, el, rot, table.power_dbm.reshape(-1)])


def _split(
    records: np.ndarray, train_spec: TrainSpec
) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """(generator, train_indices, val_indices): the shuffle-split and the
    generator of `train_spec.seed` that drew it, ready for the next draw."""
    records = np.asarray(records, dtype=float)
    if records.ndim != 2 or records.shape[1] < 2:
        raise DomainError(f"records must be (n, features+1), got {records.shape}")
    rng = np.random.default_rng(train_spec.seed)
    permutation = rng.permutation(records.shape[0])
    cut = int(records.shape[0] * train_spec.split_fraction)
    if cut == 0 or cut == records.shape[0]:
        raise DomainError("split leaves an empty train or validation set")
    return rng, permutation[:cut], permutation[cut:]


def _layer_views(
    flat: np.ndarray, spec: MlpSpec
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into one flat parameter vector.

    Layer i occupies fan_in * fan_out weights (row-major) followed by its
    fan_out biases; writing through a view writes the flat vector.
    """
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in _shapes(spec):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _init_params(
    spec: MlpSpec, rng: np.random.Generator, zero_head: bool
) -> np.ndarray:
    """Flat parameter vector: Glorot-uniform weights, zero biases."""
    shapes = list(_shapes(spec))
    flat = np.zeros(_size(spec))
    weights, _ = _layer_views(flat, spec)
    for i, ((fan_in, fan_out), w) in enumerate(zip(shapes, weights)):
        if not (zero_head and i == len(shapes) - 1):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return flat


def _forward(weights, biases, x: np.ndarray, outputs) -> np.ndarray:
    """Run the network on `x`, layer i writing into outputs[i] (tanh on the
    hidden layers, linear head); returns outputs[-1]."""
    last = len(weights) - 1
    h = x
    for i, (w, b, z) in enumerate(zip(weights, biases, outputs)):
        np.matmul(h, w, out=z)
        z += b
        if i < last:
            np.tanh(z, out=z)
        h = z
    return h


class _Backprop:
    """Preallocated buffers for one backprop over batches of `rows` records.

    Reads the parameters and writes the gradient through per-layer views of
    the flat `params` and `grad` vectors, so a step allocates nothing.
    """

    def __init__(
        self, params: np.ndarray, grad: np.ndarray, spec: MlpSpec, rows: int
    ) -> None:
        self.weights, self.biases = _layer_views(params, spec)
        self.grad_w, self.grad_b = _layer_views(grad, spec)
        widths = [fan_out for _, fan_out in _shapes(spec)]
        # outputs[i] and deltas[i] belong to layer i; squares[i] holds
        # 1 - outputs[i] ** 2 for the hidden layers.
        self.outputs = [np.empty((rows, w)) for w in widths]
        self.deltas = [np.empty((rows, w)) for w in widths]
        self.squares = [np.empty((rows, w)) for w in widths[:-1]]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> None:
        """Write d MSE / d params for the batch (x, y) into the gradient.

        The network output stays in outputs[-1] afterwards.
        """
        weights, outputs, deltas = self.weights, self.outputs, self.deltas
        last = len(weights) - 1
        out = _forward(weights, self.biases, x, outputs)
        # d loss / d out; the mean runs over every row.
        delta = deltas[last]
        np.subtract(out, y, out=delta)
        delta *= 2.0
        delta /= x.shape[0]
        for i in range(last, -1, -1):
            np.matmul(x.T if i == 0 else outputs[i - 1].T, delta,
                      out=self.grad_w[i])
            np.add.reduce(delta, axis=0, out=self.grad_b[i])
            if i > 0:
                square = self.squares[i - 1]
                np.square(outputs[i - 1], out=square)
                np.subtract(1.0, square, out=square)
                delta = deltas[i - 1]
                np.matmul(deltas[i], weights[i].T, out=delta)
                delta *= square


def _gradients(
    params: np.ndarray, spec: MlpSpec, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """MSE loss and its flat gradient for one batch (normalized spaces)."""
    grad = np.empty_like(params)
    backprop = _Backprop(params, grad, spec, x.shape[0])
    backprop(x, y)
    loss = float(np.mean((backprop.outputs[-1] - y) ** 2))
    return loss, grad


def train(
    records: np.ndarray,
    mlp_spec: MlpSpec = MlpSpec(),
    train_spec: TrainSpec = TrainSpec(),
    on_epoch: Callable[[int, float, float], None] | None = None,
) -> tuple[MlpModel, float, float]:
    """Mini-batch Adam on MSE; returns (model, train NMSE, val NMSE).

    Normalization constants come from the training split only: inputs map
    per-feature to [-1, 1], targets to zero mean and unit variance. When
    `on_epoch` is given, it is called after every epoch as
    ``on_epoch(epoch, train_loss, val_nmse)``: the epoch from 1, the
    full-training-set MSE in normalized space, and the validation NMSE as
    the returned value computes it.  These passes draw nothing from the
    generator, so the trained parameters do not depend on `on_epoch`.
    """
    records = np.asarray(records, dtype=float)
    if records.ndim != 2 or records.shape[1] != _INPUTS + 1:
        raise DomainError(
            f"records must be (n, {_INPUTS + 1}), got {records.shape}")
    if not np.all(np.isfinite(records)):
        raise DomainError("records contain non-finite values")
    if records.shape[0] < 2 * train_spec.batch_size:
        raise DomainError(
            f"need at least {2 * train_spec.batch_size} records, "
            f"got {records.shape[0]}"
        )

    # The split's generator goes on to draw the initial weights and every
    # epoch's order: the whole training trajectory is a function of
    # train_spec.seed.
    rng, train_idx, val_idx = _split(records, train_spec)
    if train_idx.size < 2 or val_idx.size < 2:
        raise DomainError(
            f"split gives {train_idx.size} training and {val_idx.size} "
            f"validation rows; the NMSE of each needs at least 2")
    train_x_raw = records[train_idx, :-1]
    train_y_raw = records[train_idx, -1]
    val_x_raw = records[val_idx, :-1]
    val_y_raw = records[val_idx, -1]
    for name, y in (("training", train_y_raw), ("validation", val_y_raw)):
        if float(y.std()) == 0.0:
            raise DomainError(f"{name} targets are constant; NMSE undefined")

    lo = train_x_raw.min(axis=0)
    hi = train_x_raw.max(axis=0)
    mean = float(train_y_raw.mean())
    std = float(train_y_raw.std())

    params = _init_params(mlp_spec, rng, zero_head=True)
    # model.params is params, so the in-place Adam steps below train it
    model = MlpModel(mlp_spec, params, lo, hi, mean, std)
    x = model.normalize_inputs(train_x_raw)
    y = ((train_y_raw - mean) / std)[:, None]

    # Every buffer a step touches is allocated here, once per call.
    grad = np.empty_like(params)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t1 = np.empty_like(params)
    t2 = np.empty_like(params)
    x_epoch = np.empty_like(x)
    y_epoch = np.empty_like(y)
    rows, size = x.shape[0], train_spec.batch_size
    full = _Backprop(params, grad, mlp_spec, size)
    short = _Backprop(params, grad, mlp_spec, rows % size) if rows % size else full
    batches = [(x_epoch[start : start + size], y_epoch[start : start + size],
                full if start + size <= rows else short)
               for start in range(0, rows, size)]

    b1, b2, lr = _ADAM_BETA1, _ADAM_BETA2, train_spec.learning_rate
    step = 0
    for epoch in range(1, train_spec.epochs + 1):
        order = rng.permutation(rows)
        # order is a permutation, so "clip" never clips; unlike the default
        # "raise" it gathers straight into the output without a buffer.
        np.take(x, order, axis=0, out=x_epoch, mode="clip")
        np.take(y, order, axis=0, out=y_epoch, mode="clip")
        for x_batch, y_batch, backprop in batches:
            backprop(x_batch, y_batch)
            step += 1
            # Adam, in place: params -= lr * (m / c1) / (sqrt(v / c2) + eps)
            m *= b1
            np.multiply(grad, 1.0 - b1, out=t1)
            m += t1
            v *= b2
            np.multiply(grad, grad, out=t1)
            t1 *= 1.0 - b2
            v += t1
            np.divide(m, 1.0 - b1**step, out=t1)
            t1 *= lr
            np.divide(v, 1.0 - b2**step, out=t2)
            np.sqrt(t2, out=t2)
            t2 += _ADAM_EPS
            t1 /= t2
            params -= t1
        if on_epoch is not None:
            # the loss _gradients would report, without its backward pass
            on_epoch(epoch, float(np.mean((model.forward(x) - y) ** 2)),
                     nmse(model.predict_batch(val_x_raw), val_y_raw))

    train_nmse = nmse(model.predict_batch(train_x_raw), train_y_raw)
    val_nmse = nmse(model.predict_batch(val_x_raw), val_y_raw)
    return model, train_nmse, val_nmse


def gradient_check(mlp_spec: MlpSpec = MlpSpec(), seed: int = 0) -> float:
    """Max relative error of backprop against central finite differences.

    Runs on a randomly initialized model (including the output head) and a
    random batch of 8 rows in normalized space, with a step of 1e-5.  A
    gradient of the wrong sign reports an error near 2.
    """
    rng = np.random.default_rng(seed)
    params = _init_params(mlp_spec, rng, zero_head=False)
    for b in _layer_views(params, mlp_spec)[1]:
        b += rng.uniform(-0.1, 0.1, size=b.shape)
    x = rng.uniform(-1.0, 1.0, size=(_CHECK_BATCH, _INPUTS))
    y = rng.uniform(-1.0, 1.0, size=(_CHECK_BATCH, 1))

    _, grad = _gradients(params, mlp_spec, x, y)

    worst = 0.0
    for i in range(params.size):
        keep = params[i]
        params[i] = keep + _CHECK_STEP
        up, _ = _gradients(params, mlp_spec, x, y)
        params[i] = keep - _CHECK_STEP
        down, _ = _gradients(params, mlp_spec, x, y)
        params[i] = keep
        numeric = (up - down) / (2.0 * _CHECK_STEP)
        analytic = float(grad[i])
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def _layout(spec: MlpSpec):
    """(line prefix, value count) of every model-file line after the spec
    line: the normalization constants, then per layer its header, one ``w``
    line per weight row and the ``b`` line.  The values, in file order, are
    input_lo, input_hi, target_mean, target_std and the flat parameter
    vector.  Lazy, so a spec asking for more lines than a file has fails
    when the file runs out."""
    yield "input_lo", _INPUTS
    yield "input_hi", _INPUTS
    yield "target_mean", 1
    yield "target_std", 1
    for i, (fan_in, fan_out) in enumerate(_shapes(spec)):
        yield f"layer {i} {fan_in} {fan_out}", 0
        for _ in range(fan_in):
            yield "w", fan_out
        yield "b", fan_out


def save_model(model: MlpModel, path) -> None:
    """Versioned text serialization; identical models produce identical bytes."""
    spec = model.spec
    values = np.concatenate([model.input_lo, model.input_hi,
                             [model.target_mean, model.target_std], model.params])
    text = map(_fmt_exact, values.tolist())
    lines = [_MODEL_MAGIC, f"spec {spec.hidden_layers} {spec.hidden_width} "
                           f"{_INPUTS} 1 tanh"]
    lines += (" ".join([prefix, *itertools.islice(text, count)])
              for prefix, count in _layout(spec))
    _write_lines(path, lines)


def load_model(path) -> MlpModel:
    lines = _read_lines(path, ModelFormatError)
    if not lines or lines[0] != _MODEL_MAGIC:
        raise ModelFormatError(
            f"not a recognized model file (expected first line {_MODEL_MAGIC!r})"
        )
    if len(lines) < 2 or not lines[1].startswith("spec "):
        raise ModelFormatError("missing spec line")
    parts = lines[1].split()
    if len(parts) != 6:
        raise ModelFormatError(f"spec line has {len(parts)} fields, want 6")
    try:
        spec = MlpSpec(*map(int, parts[1:3]))
        head = int(parts[3]), int(parts[4]), parts[5]
    except (ValueError, DomainError) as exc:
        raise ModelFormatError(f"bad spec line: {exc}") from exc
    if head != (_INPUTS, 1, "tanh"):
        raise ModelFormatError(
            f"bad spec line {lines[1]!r}: the network has {_INPUTS} inputs, "
            f"tanh hidden layers and one output ('{_INPUTS} 1 tanh')")

    values: list[float] = []
    index = 2
    for prefix, count in _layout(spec):
        # the prefix's first word and a space, then whitespace-separated
        # fields: the rest of the prefix, then `count` numbers
        name, *tags = prefix.split(" ")
        line = lines[index] if index < len(lines) else ""
        fields = line[len(name) + 1 :].split()
        if (not line.startswith(name + " ") or fields[: len(tags)] != tags
                or len(fields) != len(tags) + count):
            raise ModelFormatError(
                f"line {index + 1}: expected {prefix!r} and {count} values")
        try:
            values.extend(map(float, fields[len(tags) :]))
        except ValueError as exc:
            raise ModelFormatError(f"line {index + 1}: {exc}") from None
        index += 1
    if any(line.strip() for line in lines[index:]):
        raise ModelFormatError(f"line {index + 1}: trailing content after last layer")

    flat, n = np.array(values), _INPUTS
    try:
        return MlpModel(spec, flat[2 * n + 2 :], flat[:n], flat[n : 2 * n],
                        float(flat[2 * n]), float(flat[2 * n + 1]))
    except DomainError as exc:
        raise ModelFormatError(str(exc)) from exc
