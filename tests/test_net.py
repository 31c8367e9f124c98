"""Tests for the residual memory network and its analytic gradients."""

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import float64_network, refused_seeds
from memflow import net


def zero_final_layer(params):
    params = replace(params)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    return params


def backward(params, z, grad_out):
    """``backward_batch`` on the cache of a ``forward_batch`` call on ``z``."""
    acts = []
    net.forward_batch(params, z, acts)
    return net.backward_batch(params, grad_out, acts)


def fd_gradient(params, z, grad_out, step=1e-5):
    """Central finite differences of (output . grad_out) w.r.t. every
    parameter, as one vector laid out like ``params.flat``."""

    def objective(flat):
        return float(net.forward_batch(replace(params, flat=flat), z) @ grad_out)

    grad = np.zeros_like(params.flat)
    for i in range(grad.size):
        fp = params.flat.copy()
        fm = params.flat.copy()
        fp[i] += step
        fm[i] -= step
        grad[i] = (objective(fp) - objective(fm)) / (2 * step)
    return grad


class TestInitParams:
    def test_first_layer_shape(self):
        params = net.init_params(d=1, n_mem=30, hidden=[30, 30, 30], seed=0)
        assert params.weights[0].shape == (30, 31)
        assert params.input_width == 31

    def test_deterministic_under_seed(self):
        a = net.init_params(2, 5, [12, 12], seed=42)
        b = net.init_params(2, 5, [12, 12], seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_wide_input_configuration(self):
        params = net.init_params(d=3, n_mem=60, hidden=[60, 60, 60], seed=1)
        assert params.input_width == 183
        assert params.weights[0].shape == (60, 183)
        assert params.weights[-1].shape == (3, 60)

    def test_draw_is_the_float64_draw_rounded_to_float32(self):
        # the float64 draw: normal weights of scale 1/sqrt(fan_in), layer
        # by layer, and zero biases
        rng = np.random.default_rng(9)
        widths = [2 * 4, 7, 5, 2]
        pieces = []
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            pieces += [rng.normal(0.0, 1.0 / np.sqrt(w_in), size=w_out * w_in),
                       np.zeros(w_out)]
        params = net.init_params(2, 3, [7, 5], seed=9)
        assert params.flat.dtype == np.float32
        want = np.concatenate(pieces).astype(np.float32)
        assert params.flat.tobytes() == want.tobytes()

    def test_biases_start_at_zero(self):
        params = net.init_params(2, 3, [7], seed=5)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_weight_scale_tracks_fan_in(self):
        params = net.init_params(1, 199, [400], seed=7)  # fan-in 200
        observed = params.weights[0].std()
        assert 0.8 / np.sqrt(200) < observed < 1.2 / np.sqrt(200)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError, match="hidden"):
            net.init_params(1, 0, [], seed=0)

    @pytest.mark.parametrize("hidden", [8, None, "8", np.array(8)],
                             ids=["int", "None", "str", "0-d-array"])
    def test_hidden_that_is_not_a_list_rejected(self, hidden):
        # 8 and None raised TypeError: 'int' object is not iterable; the
        # experiment config checks hidden by this rule and message too
        message = f"^hidden must be a non-empty list, got {re.escape(repr(hidden))}$"
        with pytest.raises(ValueError, match=message):
            net.init_params(1, 0, hidden, seed=0)
        with pytest.raises(ValueError, match=message):
            net.NetworkParams(1, 0, hidden, [0.0] * 7)

    @refused_seeds
    def test_seed_must_be_a_count(self, seed, message):
        with pytest.raises(ValueError, match=message):
            net.init_params(1, 0, [2], seed=seed)

    @pytest.mark.parametrize("width", [2.7, 3.0, np.float64(2.0), True, "2"])
    def test_hidden_width_that_is_not_an_integer_rejected(self, width):
        message = f"^hidden width must be an integer, got {re.escape(repr(width))}$"
        with pytest.raises(ValueError, match=message):
            net.init_params(1, 0, [4, width], seed=0)
        with pytest.raises(ValueError, match=message):
            net.NetworkParams(1, 0, [width], [0.0] * 7)

    @pytest.mark.parametrize("key", ["d", "n_mem"])
    @pytest.mark.parametrize("value", [True, False, 1.0, np.float64(2.0), "1"])
    def test_count_that_is_not_an_integer_rejected(self, key, value):
        # n_mem=True used to run as n_mem 1 with the bool kept, and a bool
        # or float d failed inside numpy
        counts = {"d": 1, "n_mem": 1, key: value}
        message = f"^{key} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            net.init_params(counts["d"], counts["n_mem"], [3], seed=0)
        with pytest.raises(ValueError, match=message):
            net.NetworkParams(counts["d"], counts["n_mem"], [3], [0.0] * 13)

    def test_integral_counts_stored_as_ints(self):
        for params in (net.init_params(np.int64(1), np.int64(1), [3], seed=0),
                       net.NetworkParams(np.int64(1), np.int64(1), [3], [0.0] * 13)):
            assert (params.d, params.n_mem) == (1, 1)
            assert type(params.d) is int and type(params.n_mem) is int

    def test_integral_hidden_widths_stored_as_ints(self):
        params = net.init_params(1, 0, np.array([3, 2]), seed=0)
        assert params.hidden == (3, 2)
        assert all(type(w) is int for w in params.hidden)
        params = net.NetworkParams(1, 0, [np.int64(2)], [0.0] * 7)
        assert params.hidden == (2,) and type(params.hidden[0]) is int


class TestForward:
    def test_residual_identity_with_zero_final_layer(self):
        rng = np.random.default_rng(2)
        params = zero_final_layer(
            float64_network(net.init_params(3, 4, [10, 10], seed=3)))
        for _ in range(100):
            z = rng.normal(size=params.input_width)
            np.testing.assert_array_equal(net.forward_batch(params, z), z[:3])

    def test_hand_evaluated_single_unit(self):
        # d=1, n_mem=1, one hidden unit:
        # out = z_now + w_out * tanh(w1*z_now + w2*z_prev + b) + b_out
        w1, w2, b = 0.3, -0.7, 0.2
        w_out, b_out = 1.5, -0.1
        params = net.NetworkParams(
            d=1, n_mem=1, hidden=(1,), flat=np.array([w1, w2, b, w_out, b_out])
        )
        z_now, z_prev = 0.8, -0.4
        want = z_now + w_out * np.tanh(w1 * z_now + w2 * z_prev + b) + b_out
        got = net.forward_batch(params, np.array([z_now, z_prev]))
        np.testing.assert_allclose(got, [want], rtol=1e-15)

    def test_zero_input_zero_bias_maps_to_zero(self):
        params = net.init_params(2, 3, [9, 9], seed=11)  # biases are zero
        np.testing.assert_array_equal(
            net.forward_batch(params, np.zeros(params.input_width)), np.zeros(2)
        )

    def test_length_mismatch_rejected(self):
        params = net.init_params(1, 2, [4], seed=0)
        with pytest.raises(ValueError, match="width"):
            net.forward_batch(params, np.zeros(5))

    def test_batch_matches_single(self):
        # last-ulp differences are allowed: BLAS picks different kernels for
        # different batch shapes
        rng = np.random.default_rng(8)
        params = float64_network(net.init_params(2, 2, [6, 6], seed=8))
        batch = rng.normal(size=(7, params.input_width))
        out = net.forward_batch(params, batch)
        for i in range(7):
            np.testing.assert_allclose(
                out[i], net.forward_batch(params, batch[i]), rtol=1e-13, atol=1e-15
            )

    def test_determinism(self):
        rng = np.random.default_rng(12)
        params = net.init_params(1, 3, [5], seed=12)
        z = rng.normal(size=params.input_width)
        a = net.forward_batch(params, z)
        b = net.forward_batch(params, z)
        np.testing.assert_array_equal(a, b)

    def test_permutation_sensitivity(self):
        # swapping the newest and second-newest blocks changes the residual
        # contribution by exactly (z_prev - z_now) when the network path is
        # zeroed out
        rng = np.random.default_rng(13)
        d = 2
        params = float64_network(net.init_params(d, 3, [8], seed=13))
        z = rng.normal(size=params.input_width)
        swapped = z.copy()
        swapped[:d], swapped[d : 2 * d] = z[d : 2 * d].copy(), z[:d].copy()
        pz = zero_final_layer(params)
        diff_skip_only = net.forward_batch(pz, swapped) - net.forward_batch(pz, z)
        np.testing.assert_allclose(diff_skip_only, z[d : 2 * d] - z[:d], rtol=1e-15)
        # with the live network the difference is skip change + network change
        diff_full = net.forward_batch(params, swapped) - net.forward_batch(params, z)
        assert not np.allclose(diff_full, diff_skip_only)


class TestDtype:
    """A network computes in the dtype of ``flat``: float32 as drawn, or
    float64, which every other given vector becomes."""

    @pytest.mark.parametrize("given, dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64),
    ])
    def test_flat_keeps_float32_and_makes_anything_else_float64(self, given, dtype):
        params = net.NetworkParams(1, 2, (4,), np.ones(21, dtype=given))
        assert params.flat.dtype == dtype
        assert all(a.dtype == dtype for a in params.weights + params.biases)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_and_gradients_have_the_network_dtype(self, dtype):
        params = net.init_params(2, 3, [9, 9], seed=4)
        params = replace(params, flat=params.flat.astype(dtype))
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, params.input_width))  # float64 inputs
        grad_out = rng.normal(size=(5, 2))
        assert net.forward_batch(params, z).dtype == dtype
        assert net.forward_batch(params, z[0]).dtype == dtype
        flat_grad, input_grad = backward(params, z, grad_out)
        assert flat_grad.dtype == input_grad.dtype == dtype

    def test_float32_network_casts_its_inputs(self):
        # float64 inputs give the outputs of their float32 rounding
        params = net.init_params(2, 3, [9, 9], seed=5)
        z = np.random.default_rng(5).normal(size=(6, params.input_width))
        got = net.forward_batch(params, z)
        assert got.tobytes() == net.forward_batch(params, z.astype(np.float32)).tobytes()

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_input_float32_cannot_hold_refused(self, value):
        # the cast would make it inf: a warning, or a divergence blamed on
        # the learning rate
        params = net.init_params(1, 2, [4], seed=0)
        z = np.zeros((2, 3))
        z[1, 2] = value
        message = (f"^input stacks hold {re.escape(f'{value:.4g}')}, outside the "
                   r"range of the network's float32 \(largest 3\.403e\+38\)$")
        with pytest.raises(ValueError, match=message):
            net.forward_batch(params, z)
        grads = np.array([[1.0], [value]])
        with pytest.raises(ValueError, match=(
                f"^output_grads hold {re.escape(f'{value:.4g}')}, outside the range")):
            backward(params, np.zeros((2, 3)), grads)
        # a float64 network takes them
        wide = float64_network(params)
        assert np.isfinite(net.forward_batch(wide, z)).all()
        assert np.isfinite(backward(wide, z, grads)[0]).all()

    def test_non_finite_inputs_pass_through(self):
        # inf and NaN are held by float32 as they are: not refused
        params = net.init_params(1, 0, [2], seed=0)
        out = net.forward_batch(params, np.array([[np.inf], [np.nan], [1.0]]))
        assert not np.isfinite(out[:2]).any() and np.isfinite(out[2]).all()


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        params = float64_network(net.init_params(d=2, n_mem=3, hidden=[10, 10], seed=31))
        z = rng.normal(size=params.input_width)
        grad_out = rng.normal(size=2)
        grad, _ = backward(params, z[None, :], grad_out[None, :])
        grads_w, grads_b = params.split(grad)
        fd_w, fd_b = params.split(fd_gradient(params, z, grad_out))
        for l in range(len(params.weights)):
            scale = np.maximum(np.abs(fd_w[l]), 1e-8)
            assert (np.abs(grads_w[l] - fd_w[l]) / scale).max() <= 1e-6
            scale_b = np.maximum(np.abs(fd_b[l]), 1e-8)
            assert (np.abs(grads_b[l] - fd_b[l]) / scale_b).max() <= 1e-6

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        params = float64_network(net.init_params(d=1, n_mem=4, hidden=[6], seed=32))
        z = rng.normal(size=params.input_width)
        grad_out = np.array([1.0])
        _, input_grad = backward(params, z[None, :], grad_out[None, :])
        input_grad = input_grad[0]
        step = 1e-6
        for i in range(z.shape[0]):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            fd = (net.forward_batch(params, zp) - net.forward_batch(params, zm))[0] / (2 * step)
            assert abs(input_grad[i] - fd) <= 1e-7 * max(1.0, abs(fd))

    def test_zero_output_grad_gives_zero_gradients(self):
        params = net.init_params(2, 2, [5], seed=1)
        grad, input_grad = backward(
            params, np.ones((1, params.input_width)), np.zeros((1, 2))
        )
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))
        np.testing.assert_array_equal(input_grad, np.zeros((1, params.input_width)))

    def test_skip_path_feeds_first_block(self):
        params = zero_final_layer(net.init_params(1, 3, [4], seed=2))
        _, input_grad = backward(
            params, np.ones((1, params.input_width)), np.array([[2.5]])
        )
        assert input_grad[0, 0] == 2.5
        np.testing.assert_array_equal(input_grad[0, 1:], np.zeros(3))

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2,)])
    def test_output_grads_of_another_shape_refused(self, shape):
        params = net.init_params(1, 2, [4], seed=0)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"output_grads shape {shape}, expected (2, 1)") + "$"):
            backward(params, np.zeros((2, 3)), np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 64])
    def test_matches_the_reduction_and_temporary_formulation_bitwise(self, dtype,
                                                                     rows):
        # the reverse pass as written with np.sum and delta * (1 - act**2):
        # np.add.reduce and the in-place tanh' run the same ufuncs
        rng = np.random.default_rng(34)
        params = net.init_params(3, 4, [20, 20, 20], seed=34)
        params = replace(params, flat=params.flat.astype(dtype))
        z = rng.normal(size=(rows, params.input_width))
        grad_out = rng.normal(size=(rows, 3))
        acts = []
        net.forward_batch(params, z, acts)
        grad_out_cast = grad_out.astype(dtype)
        want_flat = np.empty_like(params.flat)
        grad_w, grad_b = params.split(want_flat)
        delta = grad_out_cast
        for l in range(len(params.weights) - 1, -1, -1):
            np.matmul(delta.T, acts[l], out=grad_w[l])
            np.sum(delta, axis=0, out=grad_b[l])
            delta = delta @ params.weights[l]
            if l > 0:
                delta = delta * (1.0 - acts[l] ** 2)
        delta[:, :3] += grad_out_cast
        got_flat, got_input = net.backward_batch(params, grad_out, acts)
        assert got_flat.dtype == got_input.dtype == dtype
        assert got_flat.tobytes() == want_flat.tobytes()
        assert got_input.tobytes() == delta.tobytes()


class TestFlatLayout:
    def test_weights_and_biases_are_views_of_flat(self):
        params = net.init_params(2, 3, [5, 4], seed=3)
        assert params.flat.dtype == np.float32 and params.flat.flags.c_contiguous
        for a in params.weights + params.biases:
            assert np.shares_memory(a, params.flat)
        # layer by layer: the weight matrix row-major, then the bias
        params.flat[:] = np.arange(params.flat.size)
        n0 = params.weights[0].size
        assert params.weights[0][0, 1] == 1.0
        assert params.biases[0][0] == n0
        assert params.weights[1][0, 0] == n0 + params.biases[0].size
        assert params.biases[-1][-1] == params.flat.size - 1

    def test_built_from_lists_does_not_alias(self):
        # (4*3 + 4) + (1*4 + 1) = 21 parameters
        params = net.NetworkParams(1, 2, (4,), [1] * 21)
        assert params.flat.dtype == np.float64
        np.testing.assert_array_equal(params.flat, np.ones(21))
        flat = np.ones(21)
        params = net.NetworkParams(1, 2, (4,), flat)
        assert not np.shares_memory(flat, params.flat)
        params.flat[:] = 7.0
        flat[0] = 5.0
        assert np.all(flat[1:] == 1.0)
        assert np.all(params.flat == 7.0)

    def test_wrong_length_flat_names_the_widths(self):
        with pytest.raises(ValueError, match=(
                r"^vector shape \(20,\) does not fit layer widths \[3, 4, 1\], "
                r"expected \(21,\)$")):
            net.NetworkParams(1, 2, (4,), np.zeros(20))
        with pytest.raises(ValueError, match=r"vector shape \(3, 7\) does not fit"):
            net.NetworkParams(1, 2, (4,), np.zeros((3, 7)))

    def test_replace_copies_flat(self):
        params = net.init_params(2, 3, [5, 4], seed=3)
        copy = replace(params)
        assert copy.flat.tobytes() == params.flat.tobytes()
        assert (copy.d, copy.n_mem, copy.hidden) == (params.d, params.n_mem, params.hidden)
        for a in [copy.flat, *copy.weights, *copy.biases]:
            assert not np.shares_memory(a, params.flat)
        copy.weights[0][:] = 0.0
        assert np.all(params.weights[0] != 0.0)

    def test_equality_is_identity(self):
        a = net.init_params(1, 2, [4], seed=0)
        b = net.init_params(1, 2, [4], seed=1)
        assert a.flat.tobytes() != b.flat.tobytes()
        assert a != b and not a == b
        assert a == a

    def test_split_views_any_vector_like_flat(self):
        params = net.init_params(1, 2, [6, 3], seed=4)
        vec = params.flat.copy()
        vw, vb = params.split(vec)
        for got, want in zip(vw + vb, params.weights + params.biases):
            np.testing.assert_array_equal(got, want)
            assert np.shares_memory(got, vec)

    def test_split_slices_by_the_layout_made_at_construction(self, monkeypatch):
        params = net.init_params(1, 2, [6, 3], seed=4)
        monkeypatch.setattr(net, "_widths", None)  # split no longer needs it
        vec = np.arange(params.flat.size, dtype=float)
        vw, vb = params.split(vec)
        assert [w.shape for w in vw] == [(6, 3), (3, 6), (1, 3)]
        assert [b.shape for b in vb] == [(6,), (3,), (1,)]
        # weight then bias, layer by layer, covering vec once in order
        pieces = [x.ravel() for w, b in zip(vw, vb) for x in (w, b)]
        np.testing.assert_array_equal(np.concatenate(pieces), vec)
        with pytest.raises(ValueError, match=(
                r"^vector shape \(50,\) does not fit layer widths \[3, 6, 3, 1\], "
                r"expected \(49,\)$")):
            params.split(np.zeros(50))

    def test_split_rejects_wrong_length(self):
        params = net.init_params(1, 2, [6], seed=4)
        with pytest.raises(ValueError, match="shape"):
            params.split(np.zeros(params.flat.size + 1))

    def test_non_finite_parameters_rejected(self):
        params = net.init_params(1, 2, [6], seed=4)
        nan_weight = params.flat.copy()
        params.split(nan_weight)[0][1][0, 2] = np.nan  # weights[1]
        inf_bias = params.flat.copy()
        params.split(inf_bias)[1][0][-1] = np.inf  # biases[0]
        for layer, flat in [(1, nan_weight), (0, inf_bias)]:
            with pytest.raises(ValueError, match=(
                    f"^layer {layer} contains non-finite parameters$")):
                net.NetworkParams(1, 2, (6,), flat)


class TestCountParams:
    def test_documented_architecture(self):
        params = net.init_params(1, 30, [30, 30, 30], seed=0)
        want = (31 * 30 + 30) + (30 * 30 + 30) + (30 * 30 + 30) + (30 * 1 + 1)
        assert params.flat.size == want
        assert want == 2851

    def test_minimal_network(self):
        params = net.init_params(1, 0, [1], seed=0)
        assert params.flat.size == (1 * 1 + 1) + (1 * 1 + 1)

    def test_doubling_width_roughly_quadruples_interior(self):
        def interior(width):
            params = net.init_params(1, 0, [width, width], seed=0)
            return params.weights[1].size

        assert interior(40) == 4 * interior(20)


class TestCheckpoint:
    @pytest.mark.parametrize("network", [lambda p: p, float64_network],
                             ids=["float32", "float64"])
    def test_round_trip_bitwise(self, tmp_path, network):
        # flat is stored in the network's own dtype and loads back as it
        params = network(net.init_params(3, 7, [11, 13], seed=77))
        path = tmp_path / "model.npz"
        net.save_params(params, path)
        with np.load(path) as archive:
            assert archive["flat"].dtype == params.flat.dtype
        back = net.load_params(path)
        assert back.flat.dtype == params.flat.dtype
        assert back.flat.tobytes() == params.flat.tobytes()
        assert back.d == 3 and back.n_mem == 7 and back.hidden == (11, 13)
        assert type(back.d) is int and type(back.n_mem) is int
        assert type(back.hidden) is tuple and all(type(w) is int for w in back.hidden)
        for a, b in zip(back.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.biases, params.biases):
            np.testing.assert_array_equal(a, b)

    def test_forward_agreement_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        params = net.init_params(2, 4, [9], seed=5)
        path = tmp_path / "model.npz"
        net.save_params(params, path)
        back = net.load_params(path)
        for _ in range(10):
            z = rng.normal(size=params.input_width)
            np.testing.assert_array_equal(
                net.forward_batch(back, z), net.forward_batch(params, z)
            )

    def test_shape_mismatch_rejected(self, tmp_path):
        params = net.init_params(1, 2, [4], seed=0)
        path = tmp_path / "model.npz"
        net.save_params(params, path)
        with np.load(path) as archive:
            members = dict(archive)
        members["hidden"] = np.array([5])
        np.savez(path, **members)
        with pytest.raises(ValueError, match="shape|expected") as err:
            net.load_params(path)
        want = "model.npz: vector shape (21,) does not fit layer widths [3, 5, 1]"
        assert want in str(err.value)

    def test_float64_checkpoint_loads_as_float64(self, tmp_path):
        # a float64 checkpoint, as np.savez writes it, loads as a float64
        # network, and saving that network writes the same bytes
        rng = np.random.default_rng(3)
        flat = rng.normal(size=13)
        path = tmp_path / "model.npz"
        np.savez(path, d=np.int64(1), n_mem=np.int64(1), hidden=np.array([3]),
                 flat=flat)
        back = net.load_params(path)
        assert back.flat.dtype == np.float64
        assert back.flat.tobytes() == flat.tobytes()
        net.save_params(back, tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()

    def test_load_then_save_writes_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        net.save_params(net.init_params(3, 7, [11, 13], seed=77), first)
        net.save_params(net.load_params(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match="model.npz: not a readable npz archive"):
            net.load_params(path)

    def test_written_to_exact_path(self, tmp_path):
        path = tmp_path / "checkpoint"
        net.save_params(net.init_params(1, 0, [2], seed=0), path)
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint"]
        assert net.load_params(path).hidden == (2,)

    @pytest.mark.parametrize("change, match", [
        ({"flat": np.zeros(3)}, r"widths \[2, 3, 1\], expected \(13,\)"),
        ({"hidden": np.array([], dtype=np.int64)},
         r"hidden must be a non-empty list, got \[\]$"),
        ({"d": np.int64(0)}, "d must be >= 1, got 0$"),
        ({"flat": np.zeros(13, dtype=np.float16)}, "'flat' is float16.*float64 or float32"),
        ({"hidden": np.array([2.0])}, "'hidden' is float64"),
        ({"flat": np.zeros(13, dtype=object)}, "'flat' is object"),
        ({"extra": np.zeros(1)}, "members"),
    ])
    def test_malformed_members_rejected(self, tmp_path, write_archive, change, match):
        params = net.init_params(1, 1, [3], seed=0)  # 2*3+3 + 3*1+1 = 13
        members = dict(
            d=np.int64(1), n_mem=np.int64(1), hidden=np.array([3]), flat=params.flat
        )
        path = write_archive(tmp_path / "bad.npz", **{**members, **change})
        with pytest.raises(ValueError, match=match) as err:
            net.load_params(path)
        assert str(path) in str(err.value)

    def test_oversized_member_rejected(self, tmp_path, write_archive, declared_npy):
        path = write_archive(
            tmp_path / "bad.npz", d=np.int64(1), n_mem=np.int64(1),
            hidden=np.array([3]), flat=declared_npy((10**10,)),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: member 'flat' declares shape"):
            net.load_params(path)
