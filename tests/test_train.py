"""Tests for the loss and the Adam training loop."""

import numpy as np
import pytest

from memflow import data, net, train


def make_dataset(rng, j, d=1, n_mem=0, scale=1.0):
    width = d * (n_mem + 1)
    return data.MemoryWindowDataset(
        d=d, n_mem=n_mem,
        inputs=scale * rng.normal(size=(j, width)),
        targets=scale * rng.normal(size=(j, d)),
    )


def exact_fit_params(row_input, row_target, d, n_mem, hidden, seed=0):
    """Solve the final affine layer so one row is reproduced exactly."""
    params = net.init_params(d, n_mem, hidden, seed=seed)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    weights[-1][:] = 0.0
    # with a zero final weight matrix the output is z_now + b_out
    biases[-1] = np.asarray(row_target) - np.asarray(row_input)[:d]
    return net.NetworkParams(d, n_mem, params.hidden, weights, biases)


def reference_adam(init, ds, cfg):
    """Minibatch Adam with moments kept per layer, as separate weight and
    bias arrays; ``train_model`` must match it bitwise."""
    rng = np.random.default_rng(cfg.seed)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    b1, b2, eps = train.ADAM_BETA1, train.ADAM_BETA2, train.ADAM_EPS
    lr = cfg.learning_rate

    def current():
        return net.NetworkParams(init.d, init.n_mem, init.hidden, weights, biases)

    losses = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(ds.size)
        for lo in range(0, ds.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = ds.inputs[idx], ds.targets[idx]
            params = current()
            resid = net.forward_batch(params, xb) - yb
            grad, _ = net.backward_batch(params, xb, (2.0 / xb.shape[0]) * resid)
            grads_w, grads_b = params.split(grad)
            step += 1
            corr1 = 1.0 - b1**step
            corr2 = 1.0 - b2**step
            for l in range(len(weights)):
                gw, gb = grads_w[l], grads_b[l]
                m_w[l] = b1 * m_w[l] + (1 - b1) * gw
                v_w[l] = b2 * v_w[l] + (1 - b2) * gw**2
                m_b[l] = b1 * m_b[l] + (1 - b1) * gb
                v_b[l] = b2 * v_b[l] + (1 - b2) * gb**2
                weights[l] -= lr * (m_w[l] / corr1) / (np.sqrt(v_w[l] / corr2) + eps)
                biases[l] -= lr * (m_b[l] / corr1) / (np.sqrt(v_b[l] / corr2) + eps)
        losses.append(train.mse_loss(current(), ds))
    return current(), np.array(losses)


class TestMseLoss:
    def test_exact_reproduction_gives_zero(self):
        row_in = np.array([0.4, -0.2, 0.9])
        row_tgt = np.array([1.3])
        ds = data.MemoryWindowDataset(
            d=1, n_mem=2, inputs=row_in[None, :], targets=row_tgt[None, :]
        )
        params = exact_fit_params(row_in, row_tgt, d=1, n_mem=2, hidden=[6])
        assert train.mse_loss(params, ds) == 0.0

    def test_single_row_squared_error(self):
        row_in = np.array([0.5])
        ds = data.MemoryWindowDataset(
            d=1, n_mem=0, inputs=row_in[None, :], targets=np.array([[2.0]])
        )
        params = net.init_params(1, 0, [3], seed=4)
        prediction = net.forward_batch(params, row_in)[0]
        np.testing.assert_allclose(
            train.mse_loss(params, ds), (prediction - 2.0) ** 2, rtol=1e-15
        )

    def test_mean_of_per_row_squared_errors(self):
        # two rows engineered to have squared errors 1 and 3
        params = exact_fit_params(
            np.zeros(2), np.zeros(1), d=1, n_mem=1, hidden=[4]
        )
        # with zeroed final layer and bias 0 the model is the identity on z_now
        inputs = np.array([[1.0, 0.0], [2.0, 0.5]])
        targets = np.array([[1.0 + 1.0], [2.0 + np.sqrt(3.0)]])
        ds = data.MemoryWindowDataset(d=1, n_mem=1, inputs=inputs, targets=targets)
        np.testing.assert_allclose(train.mse_loss(params, ds), 2.0, rtol=1e-12)

    def test_chunked_matches_whole_dataset(self, monkeypatch):
        rng = np.random.default_rng(12)
        j = 2 * train.LOSS_CHUNK_ROWS + 37  # last chunk is short
        ds = make_dataset(rng, j, d=2, n_mem=3)
        params = net.init_params(2, 3, [16, 16], seed=12)
        resid = net.forward_batch(params, ds.inputs) - ds.targets
        whole = float(np.mean(np.sum(resid**2, axis=1)))
        rows = []

        def counting_forward(p, z):
            rows.append(z.shape[0])
            return net.forward_batch(p, z)

        monkeypatch.setattr(train, "forward_batch", counting_forward)
        # rows may round differently in a shorter GEMM: a few ulp, not more
        np.testing.assert_allclose(train.mse_loss(params, ds), whole, rtol=1e-13)
        assert rows == [train.LOSS_CHUNK_ROWS, train.LOSS_CHUNK_ROWS, 37]

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng, 5, d=2, n_mem=1)
        params = net.init_params(1, 1, [3], seed=0)
        with pytest.raises(ValueError, match="does not match"):
            train.mse_loss(params, ds)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng, 20, d=2, n_mem=2)
        perm = rng.permutation(20)
        shuffled = data.MemoryWindowDataset(
            d=2, n_mem=2, inputs=ds.inputs[perm], targets=ds.targets[perm]
        )
        params = net.init_params(2, 2, [8], seed=7)
        np.testing.assert_allclose(
            train.mse_loss(params, ds), train.mse_loss(params, shuffled), rtol=1e-12
        )


class TestTrainModel:
    def test_linear_regression_converges(self):
        # z_next = 0.9 * z_now has an exact representation; loss floor is 0
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, size=(50, 1))
        ds = data.MemoryWindowDataset(d=1, n_mem=0, inputs=z, targets=0.9 * z)
        cfg = train.TrainConfig(
            learning_rate=1e-2, batch_size=50, epochs=2000, seed=0
        )
        model, report = train.train_model(net.init_params(1, 0, [1], seed=0), ds, cfg)
        assert report.final_loss <= 1e-6
        assert report.loss_per_epoch.shape == (2000,)

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng, 30, d=1, n_mem=1)
        init = net.init_params(1, 1, [5], seed=2)
        cfg = train.TrainConfig(learning_rate=0.0, batch_size=10, epochs=3, seed=3)
        model, report = train.train_model(init, ds, cfg)
        for a, b in zip(model.weights, init.weights):
            np.testing.assert_array_equal(a, b)
        initial = train.mse_loss(init, ds)
        np.testing.assert_array_equal(report.loss_per_epoch, np.full(3, initial))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng, 40, d=2, n_mem=1)
        cfg = train.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=5, seed=11)
        init = net.init_params(2, 1, [6], seed=11)
        m1, r1 = train.train_model(init, ds, cfg)
        m2, r2 = train.train_model(init, ds, cfg)
        np.testing.assert_array_equal(r1.loss_per_epoch, r2.loss_per_epoch)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(m1.biases, m2.biases):
            np.testing.assert_array_equal(a, b)

    def test_matches_per_layer_adam_bitwise(self):
        # 23 rows in batches of 8: the last batch of each epoch has 7 rows
        rng = np.random.default_rng(4)
        ds = make_dataset(rng, 23, d=2, n_mem=1)
        init = net.init_params(2, 1, [5, 4], seed=4)
        before = init.flat.tobytes()
        cfg = train.TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, seed=4)
        model, report = train.train_model(init, ds, cfg)
        want_model, want_losses = reference_adam(init, ds, cfg)
        assert model.flat.tobytes() == want_model.flat.tobytes()
        assert report.loss_per_epoch.tobytes() == want_losses.tobytes()
        assert model.flat.tobytes() != before
        assert init.flat.tobytes() == before  # training works on a copy
        assert not np.shares_memory(model.flat, init.flat)

    def test_small_lr_descends(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng, 64, d=1, n_mem=2)
        init = net.init_params(1, 2, [8], seed=5)
        cfg = train.TrainConfig(
            learning_rate=1e-4, batch_size=64, epochs=100, seed=5
        )
        _, report = train.train_model(init, ds, cfg)
        assert report.final_loss <= train.mse_loss(init, ds)

    def test_divergence_raises_with_step_index(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng, 16, d=1, n_mem=0)
        init = net.init_params(1, 0, [4], seed=6)
        cfg = train.TrainConfig(
            learning_rate=1e160, batch_size=8, epochs=5, seed=6
        )
        with pytest.raises(train.TrainingDiverged) as info:
            train.train_model(init, ds, cfg)
        assert info.value.step >= 1

    def test_batch_larger_than_dataset_rejected(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng, 10, d=1, n_mem=0)
        init = net.init_params(1, 0, [2], seed=0)
        cfg = train.TrainConfig(batch_size=11, epochs=1)
        with pytest.raises(ValueError, match="batch_size"):
            train.train_model(init, ds, cfg)

    def test_empty_dataset_rejected(self):
        ds = data.MemoryWindowDataset(
            d=1, n_mem=0, inputs=np.empty((0, 1)), targets=np.empty((0, 1))
        )
        init = net.init_params(1, 0, [2], seed=0)
        with pytest.raises(ValueError, match="empty|batch_size"):
            train.train_model(init, ds, train.TrainConfig(epochs=1, batch_size=1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            train.TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError, match="epochs"):
            train.TrainConfig(epochs=0)


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        params = net.init_params(2, 3, [7, 7], seed=9)
        path = tmp_path / "model.npz"
        train.save_model(params, path)
        back = train.load_model(path)
        for a, b in zip(back.weights, params.weights):
            np.testing.assert_array_equal(a, b)

    def test_forward_agreement(self, tmp_path):
        rng = np.random.default_rng(10)
        params = net.init_params(1, 5, [6], seed=10)
        path = tmp_path / "model.npz"
        train.save_model(params, path)
        back = train.load_model(path)
        for _ in range(10):
            z = rng.normal(size=params.input_width)
            np.testing.assert_array_equal(
                net.forward_batch(back, z), net.forward_batch(params, z)
            )

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        train.save_model(net.init_params(1, 0, [2], seed=0), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="model.npz: not a readable npz archive"):
            train.load_model(path)


class TestSizing:
    def test_data_sizing_ratio(self):
        rng = np.random.default_rng(11)
        params = net.init_params(1, 0, [2], seed=0)  # 2+2+2+1 = 7 params
        ds = make_dataset(rng, 70, d=1, n_mem=0)
        assert train.data_sizing_ratio(params, ds) == pytest.approx(10.0)
