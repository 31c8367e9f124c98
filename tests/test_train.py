"""Tests for the loss and the Adam training loop."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (assert_compared_by_identity, assert_compared_by_value,
                      float64_network, refused_seeds, windows_dataset)
from memflow import data, net, rollout, train
from memflow import dynamics as dyn


def make_dataset(rng, j, d=1, n_mem=0, scale=1.0):
    width = d * (n_mem + 1)
    return windows_dataset(
        n_mem, scale * rng.normal(size=(j, width)), scale * rng.normal(size=(j, d)),
    )


def exact_fit_params(row_input, row_target, d, n_mem, hidden, seed=0):
    """Solve the final affine layer so one row is reproduced exactly, in
    float64."""
    params = float64_network(net.init_params(d, n_mem, hidden, seed=seed))
    params.weights[-1][:] = 0.0
    # with a zero final weight matrix the output is z_now + b_out
    params.biases[-1][:] = np.asarray(row_target) - np.asarray(row_input)[:d]
    return params


def reference_adam(init, ds, cfg):
    """Minibatch Adam with moments kept per layer, as separate weight and
    bias arrays, and each layer updated through its own views;
    ``train_model`` must match it bitwise."""
    rng = np.random.default_rng(cfg.seed)
    params = replace(init)
    weights, biases = params.weights, params.biases
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    b1, b2, eps = train.ADAM_BETA1, train.ADAM_BETA2, train.ADAM_EPS
    lr = cfg.learning_rate

    losses = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(ds.size)
        for lo in range(0, ds.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = ds.inputs[idx], ds.targets[idx]
            acts = []
            resid = net.forward_batch(params, xb, acts) - yb
            grad, _ = net.backward_batch(params, (2.0 / xb.shape[0]) * resid, acts)
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
        losses.append(train.mse_loss(params, ds))
    return params, np.array(losses)


class TestMseLoss:
    def test_exact_reproduction_gives_zero(self):
        row_in = np.array([0.4, -0.2, 0.9])
        row_tgt = np.array([1.3])
        ds = windows_dataset(2, row_in[None, :], row_tgt[None, :])
        params = exact_fit_params(row_in, row_tgt, d=1, n_mem=2, hidden=[6])
        assert train.mse_loss(params, ds) == 0.0

    def test_single_row_squared_error(self):
        row_in = np.array([0.5])
        ds = windows_dataset(0, row_in[None, :], np.array([[2.0]]))
        params = net.init_params(1, 0, [3], seed=4)
        prediction = net.forward_batch(params, row_in)[0]
        assert prediction.dtype == np.float32
        # the loss takes the float32 prediction's residual in float64
        np.testing.assert_allclose(
            train.mse_loss(params, ds), (float(prediction) - 2.0) ** 2, rtol=1e-15
        )

    def test_mean_of_per_row_squared_errors(self):
        # two rows engineered to have squared errors 1 and 3
        params = exact_fit_params(
            np.zeros(2), np.zeros(1), d=1, n_mem=1, hidden=[4]
        )
        # with zeroed final layer and bias 0 the model is the identity on z_now
        inputs = np.array([[1.0, 0.0], [2.0, 0.5]])
        targets = np.array([[1.0 + 1.0], [2.0 + np.sqrt(3.0)]])
        ds = windows_dataset(1, inputs, targets)
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

    def test_holds_one_chunk_of_256_rows(self):
        # linear20's shapes: d=10, n_mem=30, hidden 160^3, here 2112 windows.
        # 256 rows gather 256 * 8 * 10 * 32 = 655,360 bytes of windows, and
        # the float32 forward pass holds their inputs' cast (317,440 bytes)
        # and two 160-wide activations (327,680), about as many again.
        # The slack covers the 2112 squared norms (16,896 bytes), the
        # residuals and Python objects: 1,352,160 bytes were measured,
        # 89,632 under the bound.
        rng = np.random.default_rng(1)
        trajs = data.TrajectorySet(0.02, rng.normal(size=(64, 64, 10)))
        ds = data.build_dataset(trajs, 30)
        params = net.init_params(10, 30, [160, 160, 160], seed=0)
        train.mse_loss(params, ds)  # lazy imports
        tracemalloc.start()
        try:
            train.mse_loss(params, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.size == 2112
        assert peak < 256 * 8 * (10 * 32 + 2 * 160) + 128 * 1024

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
        shuffled = windows_dataset(2, ds.inputs[perm], ds.targets[perm])
        params = net.init_params(2, 2, [8], seed=7)
        np.testing.assert_allclose(
            train.mse_loss(params, ds), train.mse_loss(params, shuffled), rtol=1e-12
        )


class TestTrainModel:
    def test_report_compares_by_identity(self):
        # its float64 loss array made == raise ValueError and hash TypeError
        assert_compared_by_identity(
            lambda: train.TrainReport(np.array([2.0, 1.0]), 1.0, 0.5))

    def test_config_compares_by_value(self):
        assert_compared_by_value(lambda: train.TrainConfig(1e-2, 16, 3, seed=8))

    def test_linear_regression_converges(self):
        # z_next = 0.9 * z_now has an exact representation; loss floor is 0
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, size=(50, 1))
        ds = windows_dataset(0, z, 0.9 * z)
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

    @pytest.mark.parametrize("network", [lambda p: p, float64_network],
                             ids=["float32", "float64"])
    def test_matches_per_layer_adam_bitwise(self, network):
        # 23 rows in batches of 8: the last batch of each epoch has 7 rows.
        # A float64 network, such as an old checkpoint's, trains as before.
        rng = np.random.default_rng(4)
        ds = make_dataset(rng, 23, d=2, n_mem=1)
        init = network(net.init_params(2, 1, [5, 4], seed=4))
        before = init.flat.tobytes()
        cfg = train.TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, seed=4)
        model, report = train.train_model(init, ds, cfg)
        want_model, want_losses = reference_adam(init, ds, cfg)
        assert model.flat.dtype == init.flat.dtype
        assert model.flat.tobytes() == want_model.flat.tobytes()
        assert report.loss_per_epoch.tobytes() == want_losses.tobytes()
        assert model.flat.tobytes() != before
        assert init.flat.tobytes() == before  # training works on a copy
        assert not np.shares_memory(model.flat, init.flat)

    def test_float32_throughout_one_training(self, monkeypatch):
        # theta, m, v, every gradient and every forward output stay float32,
        # whatever numpy's promotion rules do with the float64 windows,
        # residuals and Python-float constants; the losses stay float64
        seen = set()
        forward, backward, update = (train.forward_batch, train.backward_batch,
                                     train._adam_update)

        def spy_forward(*args):
            out = forward(*args)
            seen.add(("forward", out.dtype))
            return out

        def spy_backward(*args):
            flat_grad, input_grad = backward(*args)
            seen.update({("gradient", flat_grad.dtype), ("input", input_grad.dtype)})
            return flat_grad, input_grad

        def spy_update(theta, m, v, grad, scratch, step, lr):
            update(theta, m, v, grad, scratch, step, lr)
            seen.update({("theta", theta.dtype), ("m", m.dtype), ("v", v.dtype),
                         ("grad", grad.dtype), ("scratch", scratch.dtype)})

        monkeypatch.setattr(train, "forward_batch", spy_forward)
        monkeypatch.setattr(train, "backward_batch", spy_backward)
        monkeypatch.setattr(train, "_adam_update", spy_update)
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, 40, d=2, n_mem=2)
        cfg = train.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=3, seed=8)
        model, report = train.train_model(net.init_params(2, 2, [6, 5], seed=8), ds, cfg)
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
        assert {name for name, _ in seen} == {
            "forward", "gradient", "input", "theta", "m", "v", "grad", "scratch"}
        assert model.flat.dtype == np.float32
        assert report.loss_per_epoch.dtype == np.float64
        assert type(report.final_loss) is float

    def test_adam_eps_is_a_normal_float32(self):
        # eps is added to float32 denominators: a subnormal would slow every
        # step, and one below the smallest subnormal would vanish
        eps = np.float32(train.ADAM_EPS)
        assert eps >= np.finfo(np.float32).tiny
        assert abs(float(eps) - train.ADAM_EPS) <= 1e-7 * train.ADAM_EPS

    def test_values_float32_cannot_hold_are_refused(self):
        # dx/dt = A x with modes growing at rates 30 and 20: past t = 3 the
        # samples exceed float32's 3.4e38.  A float32 network refuses such
        # windows and rollout seeds by name, rather than train on inf and
        # report a divergence blamed on the learning rate.
        spec = dyn.make_system("linear-generic", matrix=[[30.0, 1.0], [0.0, 20.0]],
                               d=1)
        solver = dyn.SolverConfig(0.25, 20)
        trajs = data.generate_trajectories(
            spec, solver, dyn.default_domain(spec), 8, 16, seed=0)
        assert np.abs(trajs.trajectories).max() > 1e40
        ds = data.build_dataset(trajs, 2)
        message = (r"^input stacks hold -?[0-9.]+e\+[0-9]+, outside the range of "
                   r"the network's float32 \(largest 3\.403e\+38\)$")
        with pytest.raises(ValueError, match=message):
            train.train_model(net.init_params(1, 2, [4], seed=0), ds,
                              train.TrainConfig(batch_size=8, epochs=1))
        with pytest.raises(ValueError, match=message):
            rollout.rollout_against_truth(
                net.init_params(1, 12, [4], seed=0), spec, solver,
                np.ones((1, 2)), 15)
        # a float64 network takes the same windows
        wide = float64_network(net.init_params(1, 2, [4], seed=0))
        assert np.isfinite(net.forward_batch(wide, ds.inputs)).all()

    @pytest.mark.parametrize("slice_size", [7, 16, None],
                             ids=["slices-of-7", "slices-of-16", "two-slices"])
    def test_sliced_update_matches_per_layer_adam_bitwise(self, monkeypatch,
                                                           slice_size):
        # the update runs slice by slice, the last slice short: 7 and 16
        # split the 59 parameters of a small network, and hidden [128, 128]
        # has 17,410 parameters, one full ADAM_SLICE and 1026 more
        rng = np.random.default_rng(5)
        ds = make_dataset(rng, 23, d=2, n_mem=1)
        hidden = [5, 4] if slice_size else [128, 128]
        init = net.init_params(2, 1, hidden, seed=5)
        if slice_size:
            monkeypatch.setattr(train, "ADAM_SLICE", slice_size)
        else:
            assert train.ADAM_SLICE < init.flat.size < 2 * train.ADAM_SLICE
        cfg = train.TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, seed=5)
        model, report = train.train_model(init, ds, cfg)
        want_model, want_losses = reference_adam(init, ds, cfg)
        assert model.flat.tobytes() == want_model.flat.tobytes()
        assert report.loss_per_epoch.tobytes() == want_losses.tobytes()

    def test_holds_one_gradient_and_no_parameter_sized_scratch(self):
        # linear20's shapes: d=10, n_mem=30, hidden 160^3 (102,890
        # parameters, 411,560 bytes a float32 vector), 2000 windows in 32
        # steps.  Training holds the parameters, Adam's two moments, one
        # step's gradient and a 64 KiB scratch: 1,711,776 bytes.  The slack
        # covers one minibatch's windows, activations and backward products;
        # 2,671,944 bytes were measured, 88,408 under the bound.
        rng = np.random.default_rng(1)
        trajs = data.TrajectorySet(0.02, rng.normal(size=(400, 100, 10)))
        ds = data.build_dataset(trajs, 30, per_trajectory=5, seed=1)
        init = net.init_params(10, 30, [160, 160, 160], seed=0)
        cfg = train.TrainConfig(batch_size=64, epochs=1, seed=0)
        train.train_model(init, ds, cfg)  # lazy imports
        tracemalloc.start()
        try:
            train.train_model(init, ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector = init.flat.nbytes
        assert vector == 411_560 and ds.size == 2000
        assert peak < 4 * vector + init.flat.itemsize * train.ADAM_SLICE + 1024 * 1024

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

    def test_non_finite_epoch_loss_raises_with_the_epoch(self):
        # one step per epoch, whose update leaves the weights near 1e300:
        # the batch loss before it is finite, the epoch loss after it is not,
        # and no overflow warning escapes (warnings are errors under pytest)
        rng = np.random.default_rng(6)
        ds = make_dataset(rng, 64, d=1, n_mem=4)
        init = net.init_params(1, 4, [8, 8, 8], seed=6)
        cfg = train.TrainConfig(learning_rate=1e300, batch_size=64, epochs=1, seed=6)
        with pytest.raises(train.TrainingDiverged, match=(
                r"^non-finite loss after epoch 0 \(step 1\); reduce the "
                r"learning rate$")) as info:
            train.train_model(init, ds, cfg)
        assert info.value.step == 1

    def test_batch_larger_than_dataset_rejected(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng, 10, d=1, n_mem=0)
        init = net.init_params(1, 0, [2], seed=0)
        cfg = train.TrainConfig(batch_size=11, epochs=1)
        with pytest.raises(ValueError, match="batch_size"):
            train.train_model(init, ds, cfg)

    def test_empty_dataset_rejected(self):
        # no window in any trajectory, and no trajectory at all
        with pytest.raises(ValueError, match=(
                r"^starts have shape \(1, 0\), expected \(1, count\) with "
                r"count >= 1$")):
            data.MemoryWindowDataset(
                n_mem=0, trajectories=np.ones((1, 2, 1)),
                starts=np.empty((1, 0), dtype=np.int64),
            )
        with pytest.raises(ValueError, match=(
                r"^trajectories have shape \(0, 2, 1\), expected at least one "
                r"trajectory$")):
            data.MemoryWindowDataset(
                n_mem=0, trajectories=np.empty((0, 2, 1)),
                starts=np.empty((0, 1), dtype=np.int64),
            )

    def test_config_validation(self):
        for lr, message in ((-1.0, ">= 0, got -1.0"),
                            (float("inf"), "a finite number, got inf"),
                            (float("nan"), "a finite number, got nan")):
            with pytest.raises(ValueError, match=(
                    f"^learning_rate must be {message}$")):
                train.TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError, match="epochs"):
            train.TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [True, "0.1", None])
    def test_learning_rate_must_be_a_number(self, lr):
        with pytest.raises(ValueError, match=(
                f"^learning_rate must be a finite number, got {re.escape(repr(lr))}$")):
            train.TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("key", ["batch_size", "epochs"])
    @pytest.mark.parametrize("value", [4.5, True, 0, "8"])
    def test_counts_must_be_integers(self, key, value):
        message = ">= 1, got 0" if value == 0 else f"an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{key} must be {re.escape(message)}$"):
            train.TrainConfig(**{key: value})

    @refused_seeds
    def test_seed_must_be_a_count(self, seed, message):
        # 1.5 raised numpy's unnamed TypeError in train_model, and True
        # trained as seed 1
        with pytest.raises(ValueError, match=message):
            train.TrainConfig(seed=seed)

    def test_numpy_integer_counts_become_ints(self):
        cfg = train.TrainConfig(batch_size=np.int64(8), epochs=np.int32(2))
        assert type(cfg.batch_size) is int and type(cfg.epochs) is int
        assert (cfg.batch_size, cfg.epochs) == (8, 2)


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


# Trains at linear20's shapes (d 10, n_mem 30, hidden 160^3) for 2 epochs,
# then prints the sha256 of the trained parameters, of the per-epoch losses
# and of the input gradient on the first minibatch.
_TRAIN_AT_LINEAR20_SHAPES = """
import hashlib
import numpy as np
from memflow import data, net, train
rng = np.random.default_rng(1)
ds = data.build_dataset(data.TrajectorySet(0.02, rng.normal(size=(64, 40, 10))),
                        30, per_trajectory=4, seed=1)
model, report = train.train_model(net.init_params(10, 30, [160, 160, 160], seed=0),
                                  ds, train.TrainConfig(batch_size=64, epochs=2))
xb, yb = ds.windows(slice(0, 64))
acts = []
resid = net.forward_batch(model, xb, acts) - yb
_, input_grad = net.backward_batch(model, resid, acts)
for array in (model.flat, report.loss_per_epoch, input_grad):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


class TestBlasThreads:
    def test_float32_training_is_the_same_at_one_and_two_threads(self):
        # BLAS reads its thread count when numpy loads, so each count needs
        # its own process.  A float64 network at these shapes differs in
        # the last bits between the two counts; a float32 one does not.
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", _TRAIN_AT_LINEAR20_SHAPES],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True, timeout=120)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]
