import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.analysis import nmse
from risbeam.datasets import BeampatternTable
from risbeam import surrogate
from risbeam.errors import DomainError, ModelFormatError
from risbeam.surrogate import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    _INPUTS,
    MlpModel,
    MlpSpec,
    TrainSpec,
    _gradients,
    _init_params,
    _layer_views,
    flatten_table,
    gradient_check,
    load_model,
    save_model,
    split_records,
    train,
)


def synthetic_records(n, rng, noise=0.0):
    az = rng.uniform(-90, 90, n)
    el = rng.uniform(-45, 45, n)
    rot = rng.uniform(-90, 90, n)
    power = -60.0 - (az - rot) ** 2 / 100.0 - el ** 2 / 50.0
    if noise:
        power = power + rng.normal(0, noise, n)
    return np.column_stack([az, el, rot, power])


class TestSpecs:
    def test_mlp_spec_defaults(self):
        spec = MlpSpec()
        assert spec.layer_shapes() == [(3, 16), (16, 16), (16, 16), (16, 1)]

    def test_mlp_spec_validation(self):
        with pytest.raises(DomainError):
            MlpSpec(hidden_layers=0)
        with pytest.raises(DomainError):
            MlpSpec(hidden_width=0)

    def test_train_spec_validation(self):
        with pytest.raises(DomainError):
            TrainSpec(epochs=-1)
        with pytest.raises(DomainError):
            TrainSpec(batch_size=0)
        with pytest.raises(DomainError):
            TrainSpec(split_fraction=1.0)
        with pytest.raises(DomainError):
            TrainSpec(learning_rate=0.0)
        TrainSpec(epochs=0)  # legal: evaluate the untrained model

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": math.nan}, {"learning_rate": math.inf},
        {"seed": -1}, {"seed": 1.5}, {"seed": None},
        {"epochs": 1.5}, {"batch_size": 2.5},
    ])
    def test_train_spec_rejects(self, kwargs):
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            TrainSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"hidden_width": 2.5}, {"hidden_layers": 1.5},
    ])
    def test_mlp_spec_rejects_non_integers(self, kwargs):
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            MlpSpec(**kwargs)

    def test_specs_accept_numpy_integers(self):
        mlp = MlpSpec(np.int64(1), np.int32(4))
        spec = TrainSpec(epochs=np.int64(1), batch_size=np.int32(5))
        records = synthetic_records(20, np.random.default_rng(0))
        model, _, _ = train(records, mlp, spec)
        assert model.spec.layer_shapes() == [(3, 4), (4, 1)]


class TestFlattenTable:
    def test_row_major_order(self):
        t = BeampatternTable([(0, 0), (3, 0)], [-3.0, 0.0, 3.0],
                             [[-60, -61, -62], [-63, -64, -65]])
        records = flatten_table(t)
        assert records.shape == (6, 4)
        np.testing.assert_array_equal(records[0], [0, 0, -3, -60])
        np.testing.assert_array_equal(records[2], [0, 0, 3, -62])
        np.testing.assert_array_equal(records[3], [3, 0, -3, -63])

    def test_single_cell(self):
        t = BeampatternTable([(6, -3)], [9.0], [[-72.5]])
        np.testing.assert_array_equal(flatten_table(t), [[6, -3, 9, -72.5]])

    def test_default_campaign_size(self, quiet_beampattern):
        assert flatten_table(quiet_beampattern).shape == (1891 * 61, 4)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 8), cols=st.integers(1, 8))
    def test_every_cell_appears_once(self, rows, cols):
        beams = [(3 * i, 0) for i in range(rows)]
        rotations = 3.0 * np.arange(cols)
        power = -60 - np.arange(rows * cols, dtype=float).reshape(rows, cols)
        t = BeampatternTable(beams, rotations, power)
        records = flatten_table(t)
        assert records.shape == (rows * cols, 4)
        for r in range(rows):
            for c in range(cols):
                rec = records[r * cols + c]
                assert rec[0] == beams[r][0]
                assert rec[2] == rotations[c]
                assert rec[3] == power[r, c]

    def test_absorption_table_refused(self, quiet_absorption):
        with pytest.raises(DomainError, match="beampattern"):
            flatten_table(quiet_absorption)


class TestSplitRecords:
    def test_partition(self, rng):
        records = synthetic_records(500, rng)
        spec = TrainSpec(seed=4)
        tr, va = split_records(records, spec)
        assert tr.size == 400 and va.size == 100
        assert np.intersect1d(tr, va).size == 0
        assert np.union1d(tr, va).size == 500

    def test_deterministic_per_seed(self, rng):
        records = synthetic_records(200, rng)
        a = split_records(records, TrainSpec(seed=1))
        b = split_records(records, TrainSpec(seed=1))
        c = split_records(records, TrainSpec(seed=2))
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_degenerate_split_rejected(self):
        with pytest.raises(DomainError):
            split_records(np.zeros((1, 4)), TrainSpec())


def reference_gradients(weights, biases, x, y):
    """Per-layer-list backprop, the oracle for the flat-vector `_gradients`."""
    activations = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w + b
        activations.append(np.tanh(z) if i < last else z)
    out = activations[-1]
    diff = out - y
    loss = float(np.mean(diff**2))
    n = x.shape[0]
    delta = 2.0 * diff / (n * y.shape[1])
    grad_w = [np.empty_like(w) for w in weights]
    grad_b = [np.empty_like(b) for b in biases]
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (1.0 - activations[i] ** 2)
    return loss, grad_w, grad_b


class TestGradients:
    def test_single_neuron_closed_form(self):
        # one tanh unit then a linear head: every gradient is hand-checkable
        w1, b1, w2, b2 = np.array([0.7, -0.4, 0.25]), -0.2, 1.3, 0.4
        spec = MlpSpec(hidden_layers=1, hidden_width=1)
        params = np.array([*w1, b1, w2, b2])  # flat layout: w, b per layer
        x = np.array([[0.5, 0.1, -0.3], [-1.0, 0.6, 0.2]])
        y = np.array([[0.3], [-0.6]])
        a1 = np.tanh(x @ w1[:, None] + b1)
        out = w2 * a1 + b2
        loss, grad = _gradients(params, spec, x, y)
        grad_w, grad_b = _layer_views(grad, spec)
        assert loss == pytest.approx(float(np.mean((out - y) ** 2)))
        delta = 2.0 * (out - y) / 2.0
        assert grad_w[1][0, 0] == pytest.approx(float((a1 * delta).sum()))
        assert grad_b[1][0] == pytest.approx(float(delta.sum()))
        hidden_delta = delta * w2 * (1 - a1 ** 2)
        np.testing.assert_allclose(grad_w[0][:, 0],
                                   (x * hidden_delta).sum(axis=0))
        assert grad_b[0][0] == pytest.approx(float(hidden_delta.sum()))

    @settings(max_examples=60, deadline=None)
    @given(layers=st.integers(1, 4), width=st.integers(1, 16),
           rows=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    def test_flat_matches_reference_exactly(self, layers, width, rows, seed):
        spec = MlpSpec(hidden_layers=layers, hidden_width=width)
        rng = np.random.default_rng(seed)
        params = _init_params(spec, rng, zero_head=False)
        params += rng.uniform(-0.1, 0.1, size=params.shape)
        x = rng.uniform(-1.0, 1.0, size=(rows, _INPUTS))
        y = rng.uniform(-1.0, 1.0, size=(rows, 1))
        weights, biases = _layer_views(params.copy(), spec)
        ref_loss, ref_w, ref_b = reference_gradients(weights, biases, x, y)
        loss, grad = _gradients(params, spec, x, y)
        assert loss == ref_loss
        expected = np.concatenate(
            [part.reshape(-1) for gw, gb in zip(ref_w, ref_b) for part in (gw, gb)])
        assert np.array_equal(grad, expected)


class TestGradientCheck:
    def test_default_spec_passes(self):
        for seed in range(3):
            assert gradient_check(seed=seed) < 1e-4

    def test_flipped_gradient_is_caught(self, monkeypatch):
        # the losses stay right and only the analytic gradient is negated,
        # which the check must report as an error near 2
        gradients = surrogate._gradients

        def flipped(*args):
            loss, grad = gradients(*args)
            return loss, -grad

        monkeypatch.setattr(surrogate, "_gradients", flipped)
        assert gradient_check(seed=0) > 1.5

    def test_narrow_network(self):
        assert gradient_check(MlpSpec(hidden_layers=1, hidden_width=2),
                              seed=5) < 1e-4


def reference_train_params(records, mlp_spec, train_spec):
    """The allocating training loop, oracle for train(): a fresh
    reference_gradients per gathered batch and Adam as one expression over
    the flat vectors.  Returns (flat params, train NMSE, val NMSE)."""
    train_idx, val_idx = split_records(records, train_spec)
    x_raw, y_raw = records[train_idx, :-1], records[train_idx, -1]
    std = float(y_raw.std()) or 1.0
    rng = np.random.default_rng(train_spec.seed)
    rng.permutation(records.shape[0])
    params = _init_params(mlp_spec, rng, zero_head=True)
    weights, biases = _layer_views(params, mlp_spec)
    model = MlpModel(mlp_spec, params, x_raw.min(axis=0),
                     x_raw.max(axis=0), float(y_raw.mean()), std)
    x = model.normalize_inputs(x_raw)
    y = ((y_raw - model.target_mean) / std)[:, None]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    b1, b2, lr = _ADAM_BETA1, _ADAM_BETA2, train_spec.learning_rate
    step = 0
    for _ in range(train_spec.epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], train_spec.batch_size):
            batch = order[start : start + train_spec.batch_size]
            _, grad_w, grad_b = reference_gradients(weights, biases,
                                                    x[batch], y[batch])
            g = np.concatenate([part.reshape(-1) for gw, gb in
                                zip(grad_w, grad_b) for part in (gw, gb)])
            step += 1
            correct1 = 1.0 - b1**step
            correct2 = 1.0 - b2**step
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g**2
            params -= lr * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)
    return (params, nmse(model.predict_batch(x_raw), y_raw),
            nmse(model.predict_batch(records[val_idx, :-1]),
                 records[val_idx, -1]))


def flat_params(model):
    return np.concatenate([a.ravel() for w, b in
                           zip(model.weights, model.biases) for a in (w, b)])


def assert_layers_view_params(model):
    """Writing model.params shows through every weight and bias array."""
    model.params[:] = np.arange(model.params.size)
    assert np.array_equal(flat_params(model), model.params)
    assert all(np.shares_memory(a, model.params)
               for a in (*model.weights, *model.biases))


def records_for_train_rows(train_rows, split_fraction, rng):
    """Synthetic records whose split leaves exactly `train_rows` to train on."""
    n = next(k for k in itertools.count(train_rows)
             if int(k * split_fraction) >= train_rows)
    assert int(n * split_fraction) == train_rows
    return synthetic_records(n, rng)


class TestTrainMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(layers=st.integers(1, 4), width=st.integers(1, 16),
           batch=st.integers(1, 130), full_batches=st.integers(2, 4),
           short=st.booleans(), epochs=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_final_params_equal_reference(self, layers, width, batch,
                                          full_batches, short, epochs, seed,
                                          data):
        rest = data.draw(st.integers(1, batch - 1)) if short and batch > 1 else 0
        # at least 8 training rows, so validation gets the 2 that NMSE needs
        full_batches += 8 // batch
        rng = np.random.default_rng(seed)
        spec = TrainSpec(epochs=epochs, batch_size=batch, seed=seed)
        records = records_for_train_rows(full_batches * batch + rest,
                                         spec.split_fraction, rng)
        mlp = MlpSpec(hidden_layers=layers, hidden_width=width)
        model, train_nmse, val_nmse = train(records, mlp, spec)
        ref_params, ref_train, ref_val = reference_train_params(records, mlp,
                                                                spec)
        assert np.array_equal(flat_params(model), ref_params)
        assert (train_nmse, val_nmse) == (ref_train, ref_val)
        assert_layers_view_params(model)

    def test_default_spec_equals_reference(self, rng):
        # 3x16 at batch 100 with a short last batch of 40 rows
        records = records_for_train_rows(1040, 0.8, rng)
        spec = TrainSpec(epochs=2, seed=7)
        model, *nmses = train(records, train_spec=spec)
        ref_params, *ref_nmses = reference_train_params(records, MlpSpec(),
                                                        spec)
        assert np.array_equal(flat_params(model), ref_params)
        assert nmses == ref_nmses


class TestTrain:
    @pytest.mark.parametrize("n, fraction, counts", [
        (3, 0.8, "2 training and 1 validation"),
        (10, 0.95, "9 training and 1 validation"),
        (10, 0.1, "1 training and 9 validation"),
    ])
    def test_unscorable_split_rejected_before_training(self, n, fraction,
                                                       counts, rng):
        rows = []
        spec = TrainSpec(epochs=2, batch_size=1, split_fraction=fraction)
        with pytest.raises(DomainError, match=counts):
            train(synthetic_records(n, rng), train_spec=spec,
                  on_epoch=lambda *row: rows.append(row))
        assert rows == []  # no epoch ran

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_constant_targets_rejected_before_training(self, split, rng):
        rows = []
        spec = TrainSpec(epochs=2, batch_size=5, seed=3)
        records = synthetic_records(50, rng)
        train_idx, val_idx = split_records(records, spec)
        records[train_idx if split == "training" else val_idx, -1] = -90.0
        with pytest.raises(DomainError, match=f"{split} targets are constant"):
            train(records, train_spec=spec,
                  on_epoch=lambda *row: rows.append(row))
        assert rows == []  # no epoch ran

    def test_smallest_scorable_split_trains(self, rng):
        spec = TrainSpec(epochs=2, batch_size=1, split_fraction=0.5)
        _, train_nmse, val_nmse = train(synthetic_records(4, rng),
                                        train_spec=spec)
        assert np.isfinite(train_nmse) and np.isfinite(val_nmse)

    def test_zero_epochs_predicts_train_mean(self, rng):
        records = synthetic_records(400, rng)
        spec = TrainSpec(epochs=0, seed=3)
        model, train_nmse, val_nmse = train(records, train_spec=spec)
        tr, _ = split_records(records, spec)
        mean = records[tr, -1].mean()
        preds = model.predict_batch(records[:5, :3])
        np.testing.assert_allclose(preds, mean, atol=1e-12)
        assert train_nmse == pytest.approx(1.0, abs=1e-12)
        assert val_nmse == pytest.approx(1.0, abs=0.2)

    def test_affine_function_is_learned_sharply(self, rng):
        x = rng.uniform(-1, 1, (2000, 3))
        y = 1.5 * x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 2] - 70.0
        records = np.column_stack([x, y])
        _, train_nmse, val_nmse = train(
            records, train_spec=TrainSpec(epochs=400, seed=0))
        assert val_nmse < 1e-4

    def test_loss_trend_is_downward(self, rng):
        records = synthetic_records(1000, rng)
        losses = []
        train(records, train_spec=TrainSpec(epochs=30, seed=1),
              on_epoch=lambda epoch, loss, val: losses.append(loss))
        assert len(losses) == 30
        assert losses[-1] < losses[0]
        # mini-batch noise allows small bumps, not regressions
        for prev, cur in zip(losses, losses[1:]):
            assert cur < prev * 1.05

    def test_logged_loss_is_the_gradient_loss(self, rng):
        """The per-epoch loss is computed forward-only; it must equal the
        loss _gradients reports for the parameters after that epoch."""
        records = synthetic_records(600, rng)
        losses = []
        train(records, train_spec=TrainSpec(epochs=3, seed=4),
              on_epoch=lambda epoch, loss, val: losses.append(loss))
        train_idx, _ = split_records(records, TrainSpec(seed=4))
        for epoch, logged in enumerate(losses, start=1):
            model, *_ = train(records,
                              train_spec=TrainSpec(epochs=epoch, seed=4))
            params = np.concatenate([a.ravel() for w, b in
                                     zip(model.weights, model.biases)
                                     for a in (w, b)])
            x = model.normalize_inputs(records[train_idx, :-1])
            y = ((records[train_idx, -1] - model.target_mean)
                 / model.target_std)[:, None]
            assert logged == _gradients(params, model.spec, x, y)[0]

    def test_on_epoch_sees_each_epoch_and_leaves_training_alone(self, rng):
        records = synthetic_records(600, rng)
        spec = TrainSpec(epochs=4, seed=5)
        rows = []
        model, _, val_nmse = train(records, train_spec=spec,
                                   on_epoch=lambda *row: rows.append(row))
        plain, *_ = train(records, train_spec=spec)
        assert [epoch for epoch, *_ in rows] == [1, 2, 3, 4]
        assert rows[-1][2] == val_nmse
        assert np.array_equal(model.params, plain.params)
        # each epoch's val NMSE is the one a run stopped there returns
        for epoch, _, val in rows[:-1]:
            short = dataclasses.replace(spec, epochs=epoch)
            assert val == train(records, train_spec=short)[2]

    def test_bit_reproducible(self, rng, tmp_path):
        records = synthetic_records(600, rng)
        spec = TrainSpec(epochs=5, seed=9)
        m1, *_ = train(records, train_spec=spec)
        m2, *_ = train(records, train_spec=spec)
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_validation_rows_never_influence_weights(self, rng, tmp_path):
        """Scrambling validation targets must leave the trained weights
        byte-identical; only the reported val score may move."""
        records = synthetic_records(800, rng)
        spec = TrainSpec(epochs=5, seed=2)
        _, val_idx = split_records(records, spec)
        scrambled = records.copy()
        scrambled[val_idx, -1] = records[val_idx[::-1], -1] + 7.5

        m1, _, val1 = train(records, train_spec=spec)
        m2, _, val2 = train(scrambled, train_spec=spec)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert val1 != val2

    def test_seed_changes_trajectory(self, rng):
        records = synthetic_records(600, rng)
        m1, *_ = train(records, train_spec=TrainSpec(epochs=3, seed=0))
        m2, *_ = train(records, train_spec=TrainSpec(epochs=3, seed=1))
        assert any(not np.array_equal(w1, w2)
                   for w1, w2 in zip(m1.weights, m2.weights))

    def test_record_validation(self, rng):
        with pytest.raises(DomainError, match="records must be"):
            train(np.zeros((500, 3)))
        bad = synthetic_records(500, rng)
        bad[3, 2] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            train(bad)
        with pytest.raises(DomainError, match="at least"):
            train(synthetic_records(150, rng))  # < 2 * batch_size


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(42)
    records = synthetic_records(800, rng)
    model, *_ = train(records, train_spec=TrainSpec(epochs=150, seed=0))
    return model, records


class TestPredict:
    def test_fit_quality_on_training_range(self, fitted):
        model, records = fitted
        preds = model.predict_batch(records[:, :3])
        truth = records[:, 3]
        assert np.mean((preds - truth) ** 2) < np.var(truth) * 0.05

    def test_input_shape_validation(self, fitted):
        model, _ = fitted
        with pytest.raises(DomainError):
            model.predict_batch(np.zeros((4, 2)))
        with pytest.raises(DomainError):
            model.predict_batch(np.zeros(3))


class TestModelIo:
    @pytest.fixture()
    def model(self, rng):
        records = synthetic_records(400, rng)
        model, *_ = train(records, train_spec=TrainSpec(epochs=2, seed=0))
        return model

    def test_round_trip_exact(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        back = load_model(p)
        assert back.spec == model.spec
        for w1, w2 in zip(model.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(model.biases, back.biases):
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(back.input_lo, model.input_lo)
        assert back.target_mean == model.target_mean
        assert back.target_std == model.target_std

    def test_byte_stable(self, model, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive_round_trip(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        back = load_model(p)
        probe = np.array([[0.0, -3.0, 0.0], [45.0, 12.0, -30.0]])
        np.testing.assert_array_equal(back.predict_batch(probe),
                                      model.predict_batch(probe))

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("some other format v9\n")
        with pytest.raises(ModelFormatError, match="first line"):
            load_model(p)

    def test_truncated_file_rejected(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_corrupt_value_rejected(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        text = p.read_text().replace("target_mean ", "target_mean x", 1)
        p.write_text(text)
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_trailing_garbage_rejected(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        p.write_text(p.read_text() + "extra line\n")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", ["w", "b"])
    def test_non_finite_parameter_rejected(self, model, tmp_path, value,
                                           row):
        p = tmp_path / "model.txt"
        save_model(model, p)
        lines = p.read_text().splitlines()
        # the last row of that kind, in the output head
        i = max(i for i, line in enumerate(lines)
                if line.startswith(row + " "))
        lines[i] = " ".join([row, value] + lines[i].split()[2:])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(p)

    def test_bad_spec_line_rejected(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        text = p.read_text().replace(" tanh", " relu", 1)
        p.write_text(text)
        with pytest.raises(ModelFormatError, match="spec"):
            load_model(p)

    def test_byte_order_mark_dropped(self, model, tmp_path):
        p = tmp_path / "model.txt"
        save_model(model, p)
        p.write_bytes("\ufeff".encode() + p.read_bytes())
        assert flat_params(load_model(p)).tobytes() == \
            flat_params(model).tobytes()

    def test_two_output_file_rejected(self, tmp_path):
        # self-consistent layer lines for two outputs: only the spec line's
        # output count is wrong, as the network has one output
        p = tmp_path / "model.txt"
        p.write_text("risbeam-mlp v1\nspec 1 2 3 2 tanh\n"
                     "input_lo 0 0 0\ninput_hi 1 1 1\n"
                     "target_mean 0\ntarget_std 1\n"
                     "layer 0 3 2\nw 0.1 0.2\nw 0.3 0.4\nw 0.5 0.6\nb 0 0\n"
                     "layer 1 2 2\nw 1 0\nw 0 1\nb 0 0\n")
        with pytest.raises(ModelFormatError, match="1 tanh"):
            load_model(p)

    @pytest.mark.parametrize("inputs", [2, 4])
    def test_other_input_count_rejected(self, inputs, tmp_path):
        # a file laid out for `inputs` inputs throughout, which loads when
        # that count is 3: only the spec line's input count is wrong
        def write(n):
            p = tmp_path / f"model{n}.txt"
            p.write_text(f"risbeam-mlp v1\nspec 1 2 {n} 1 tanh\n"
                         f"input_lo{' 0' * n}\ninput_hi{' 1' * n}\n"
                         "target_mean 0\ntarget_std 1\n"
                         f"layer 0 {n} 2\n" + "w 0.1 0.2\n" * n + "b 0 0\n"
                         "layer 1 2 1\nw 1\nw 0\nb 0\n")
            return p

        assert load_model(write(3)).spec == MlpSpec(1, 2)
        with pytest.raises(ModelFormatError, match="3 1 tanh"):
            load_model(write(inputs))

    @settings(max_examples=60, deadline=None)
    @given(layers=st.integers(1, 3), width=st.integers(1, 4), data=st.data())
    def test_layout_round_trip(self, layers, width, data):
        spec = MlpSpec(hidden_layers=layers, hidden_width=width)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        size = sum((fan_in + 1) * fan_out
                   for fan_in, fan_out in spec.layer_shapes())
        params = np.array(data.draw(st.lists(finite, min_size=size,
                                             max_size=size)))
        lo, hi = (np.array(data.draw(st.lists(finite, min_size=_INPUTS,
                                              max_size=_INPUTS)))
                  for _ in range(2))
        std = data.draw(st.floats(min_value=0.0, exclude_min=True,
                                  allow_infinity=False))
        model = MlpModel(spec, params, lo, hi, data.draw(finite), std)
        with tempfile.TemporaryDirectory() as d:
            p1, p2 = Path(d) / "a.txt", Path(d) / "b.txt"
            save_model(model, p1)
            back = load_model(p1)
            save_model(back, p2)
            assert p1.read_bytes() == p2.read_bytes()
            # the closed-form line count, an oracle independent of _layout
            assert (len(p1.read_text().splitlines())
                    == 8 + _INPUTS + layers * (width + 2))
        assert back.spec == spec
        assert flat_params(back).tobytes() == params.tobytes()
        assert back.input_lo.tobytes() == lo.tobytes()
        assert back.input_hi.tobytes() == hi.tobytes()
        assert (np.array([back.target_mean, back.target_std]).tobytes()
                == np.array([model.target_mean, std]).tobytes())
        assert_layers_view_params(back)


def test_model_shape_validation():
    spec = MlpSpec(hidden_layers=1, hidden_width=2)  # 11 parameters

    def model(params, std=1.0):
        return MlpModel(spec, params, np.zeros(3), np.ones(3), 0.0, std)

    for params in (np.zeros(10), np.zeros(12), np.zeros((11, 1)),
                   [0.0] * 10 + [math.nan], [0.0] * 10 + [-math.inf]):
        with pytest.raises(DomainError, match="params must be 11 finite"):
            model(params)
    with pytest.raises(DomainError, match="std"):
        model(np.zeros(11), std=0.0)


def test_model_params_from_a_list():
    model = MlpModel(MlpSpec(hidden_layers=1, hidden_width=2),
                     [float(i) for i in range(11)], np.zeros(3), np.ones(3),
                     0.0, 1.0)
    assert model.params.dtype == np.float64
    assert [w.shape for w in model.weights] == [(3, 2), (2, 1)]
    assert np.array_equal(flat_params(model), np.arange(11.0))


def test_model_fields_cannot_be_rebound():
    """weights and biases view params, so rebinding a field would leave
    them on the old values; the model refuses it and keeps predicting."""
    model = MlpModel(MlpSpec(hidden_layers=1, hidden_width=2), np.zeros(11),
                     np.zeros(3), np.ones(3), -60.0, 1.0)
    for name, value in (("params", np.full(11, math.nan)),
                        ("spec", MlpSpec(hidden_layers=2, hidden_width=2)),
                        ("weights", []), ("target_mean", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
    assert model.predict_batch(np.zeros((1, 3)))[0] == -60.0
    assert_layers_view_params(model)
