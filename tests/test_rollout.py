"""Tests for iterative prediction, its errors, and the Euler reference scheme."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import float64_network, refused_seeds
from memflow import cli, data, net, rollout, train
from memflow import dynamics as dyn


def zero_final_layer(params):
    params = replace(params)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    return params


class TestRollout:
    def test_seed_fidelity(self):
        rng = np.random.default_rng(1)
        model = net.init_params(2, 3, [6], seed=1)
        seeds = rng.normal(size=(1, 4, 2))
        res = rollout.rollout(model, seeds, 10)
        np.testing.assert_array_equal(res.states[:, :4], seeds)
        assert res.seed_len == 4
        assert res.states.shape == (1, 14, 2)

    def test_zero_final_layer_continues_last_seed(self):
        model = zero_final_layer(float64_network(net.init_params(1, 2, [5], seed=2)))
        seeds = np.array([[[0.1], [0.2], [0.3]]])
        res = rollout.rollout(model, seeds, 4)
        np.testing.assert_array_equal(
            res.states.ravel(), [0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3]
        )

    def test_zero_steps_returns_seeds(self):
        model = net.init_params(1, 1, [3], seed=3)
        seeds = np.array([[[1.0], [2.0]]])
        res = rollout.rollout(model, seeds, 0)
        np.testing.assert_array_equal(res.states, seeds)
        assert res.diverged_at == (None,)

    def test_wrong_seed_count_rejected(self):
        model = net.init_params(1, 3, [3], seed=4)
        with pytest.raises(ValueError, match="seeds"):
            rollout.rollout(model, np.ones((1, 3, 1)), 5)

    def test_shift_property(self):
        # restarting from states taken mid-rollout reproduces the suffix
        rng = np.random.default_rng(5)
        model = net.init_params(1, 4, [8], seed=5)
        seeds = 0.1 * rng.normal(size=(1, 5, 1))
        long = rollout.rollout(model, seeds, 40)
        restart = rollout.rollout(model, long.states[:, 20:25], 20)
        np.testing.assert_array_equal(restart.states, long.states[:, 20:])

    def test_divergence_recorded(self):
        model = float64_network(net.init_params(1, 0, [2], seed=6))
        model.biases[-1][:] = 1e308  # first step lands near the float ceiling
        res = rollout.rollout(model, np.array([[[1.0]]]), 10)
        (step,) = res.diverged_at
        assert step is not None and res.states.shape == (1, 11, 1)
        assert np.all(np.isfinite(res.states[0, :step]))
        assert np.all(np.isnan(res.states[0, step:]))
        with pytest.raises(RuntimeError, match=f"diverged at step {step} in run 0"):
            res.raise_if_diverged()


class TestBatchedRollout:
    def test_batch_matches_single_runs(self):
        # one forward_batch over R rows vs R one-row calls: BLAS may block
        # and reorder the sums differently for different row counts, so
        # the runs agree to rounding, not bitwise
        rng = np.random.default_rng(8)
        model = float64_network(net.init_params(2, 4, [12, 12], seed=8))
        seeds = 0.5 * rng.normal(size=(6, 5, 2))
        batch = rollout.rollout(model, seeds, 60)
        assert batch.states.shape == (6, 65, 2)
        assert batch.diverged_at == (None,) * 6
        for r in range(6):
            single = rollout.rollout(model, seeds[r : r + 1], 60)
            assert np.abs(batch.states[r] - single.states[0]).max() <= 1e-12

    def test_diverged_run_stops_alone(self):
        # increment 1e308 * tanh(z): z = 0 is a fixed point, z = 1 grows to
        # 7.6e307, then 1.76e308, then overflows at index 3
        # flat: weight and bias of the hidden unit, then of the output
        model = net.NetworkParams(
            d=1, n_mem=0, hidden=(1,), flat=[1.0, 0.0, 1e308, 0.0]
        )
        seeds = np.array([[[0.0]], [[1.0]], [[0.0]]])
        res = rollout.rollout(model, seeds, 6)
        assert res.diverged_at == (None, 3, None)
        np.testing.assert_array_equal(res.states[[0, 2], :, 0], np.zeros((2, 7)))
        assert np.all(np.isnan(res.states[1, 3:]))
        assert np.all(np.isfinite(res.states[1, :3]))
        with pytest.raises(RuntimeError, match="diverged at step 3 in run 1"):
            res.raise_if_diverged()

    def test_bad_batch_shape_rejected(self):
        model = net.init_params(1, 2, [3], seed=4)
        with pytest.raises(ValueError, match="seeds"):
            rollout.rollout(model, np.ones((2, 3, 2)), 5)
        with pytest.raises(ValueError, match="seeds"):
            rollout.rollout(model, np.ones((1, 2, 3, 1)), 5)
        # one run is a batch of one: the (n_mem + 1, d) and 1-D shortcuts are gone
        with pytest.raises(ValueError, match=r"\(R, 3, 1\).*got \(3, 1\)"):
            rollout.rollout(model, np.ones((3, 1)), 5)
        with pytest.raises(ValueError, match=r"got \(3,\)"):
            rollout.rollout(model, np.ones(3), 5)


class TestOneStepMaps:
    """rollout iterates any callable map of newest-first stacks with ``d``
    and ``n_mem``: the network, a LinearMap, and Euler's map."""

    def test_network_call_is_forward_batch(self):
        model = net.init_params(2, 3, [7, 5], seed=11)
        stacks = np.random.default_rng(11).normal(size=(4, model.input_width))
        assert model(stacks).tobytes() == net.forward_batch(model, stacks).tobytes()

    def test_network_rollout_goes_through_the_module_forward_batch(self, monkeypatch):
        # a wrapper set on net.forward_batch, as a tracer sets one, sees
        # every step of a rollout: a float32 network gets the float64 seeds
        # at the first call and its float32 history after it, a float64
        # network float64 throughout
        calls = []

        def spy(params, z_stacks, acts=None):
            calls.append((z_stacks.shape, z_stacks.dtype))
            return forward_batch(params, z_stacks, acts)

        forward_batch = net.forward_batch
        monkeypatch.setattr(net, "forward_batch", spy)
        model = net.init_params(1, 2, [4], seed=12)
        rollout.rollout(model, np.zeros((3, 3, 1)), 5)
        assert calls == [((3, 3), np.float64)] + [((3, 3), np.float32)] * 4
        calls.clear()
        rollout.rollout(float64_network(model), np.zeros((3, 3, 1)), 5)
        assert calls == [((3, 3), np.float64)] * 5

    def test_linear_map_shape(self):
        lin = rollout.LinearMap(np.arange(12.0).reshape(2, 6))
        assert (lin.d, lin.n_mem) == (2, 2)
        stacks = np.ones((3, 6))
        np.testing.assert_array_equal(lin(stacks), [[15.0, 51.0]] * 3)
        # a map compares equal only to itself, as a network does
        assert lin == lin and lin != rollout.LinearMap(lin.matrix)
        # a nested list is taken as a float matrix
        assert rollout.LinearMap([[1, 2]]).matrix.dtype == float

    @pytest.mark.parametrize("shape", [(2, 5), (2, 1), (6,), (2, 0), (0, 3), (1, 2, 2)])
    def test_linear_map_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=(
                rf"^a linear map needs a matrix of shape \(d, d \(n_mem \+ 1\)\), "
                rf"got {re.escape(str(shape))}$")):
            rollout.LinearMap(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_linear_map_of_a_non_finite_matrix_rejected(self, bad):
        # such a map used to make every rollout diverge at its first step
        matrix = np.ones((2, 6))
        matrix[1, 4] = bad
        with pytest.raises(ValueError, match=(
                "^a linear map needs a finite-valued matrix$")):
            rollout.LinearMap(matrix)

    def test_linear_map_wrong_seed_shape_rejected(self):
        lin = rollout.LinearMap(np.ones((2, 6)))
        with pytest.raises(ValueError, match=(
                r"seeds must have shape \(R, 3, 2\) = \(R, n_mem \+ 1, d\), "
                r"got \(1, 2, 2\)")):
            rollout.rollout(lin, np.ones((1, 2, 2)), 5)

    def test_diverged_linear_run_stops_alone(self):
        # z -> 1e308 z: z = 0 stays, z = 1 reaches 1e308, then overflows
        lin = rollout.LinearMap(np.array([[1e308]]))
        res = rollout.rollout(lin, np.array([[[0.0]], [[1.0]], [[0.0]]]), 5)
        assert res.diverged_at == (None, 2, None)
        np.testing.assert_array_equal(res.states[[0, 2], :, 0], np.zeros((2, 6)))
        np.testing.assert_array_equal(res.states[1, :2, 0], [1.0, 1e308])
        assert np.all(np.isnan(res.states[1, 2:]))
        with pytest.raises(RuntimeError, match="diverged at step 2 in run 1"):
            res.raise_if_diverged()

    def test_diverged_euler_run_ends_in_nan(self):
        # z_{n+1} = (1 + 0.1 * 1e307) z_n overflows at the second step; the
        # rows from there on are NaN, so a finiteness check still fails
        spec = dyn.linear_system([[1e307, 0.0], [0.0, -1.0]], d=1)
        traj = rollout.euler_damz(spec, np.array([[1.0]]), 4, 0.1)
        assert traj.shape == (5, 1)
        assert np.all(np.isfinite(traj[:2])) and np.all(np.isnan(traj[2:]))
        assert not np.all(np.isfinite(traj))

    @pytest.mark.parametrize("steps", [True, 2.0], ids=["bool", "float"])
    def test_steps_must_be_an_integer(self, steps):
        # True used to run one step
        model = rollout.LinearMap(np.ones((1, 3)))
        with pytest.raises(ValueError, match=f"^steps must be an integer, got {steps!r}$"):
            rollout.rollout(model, np.ones((2, 3, 1)), steps)

    def test_map_output_of_another_shape_rejected(self):
        # one row for three runs used to be broadcast into every run
        class OneRow:
            d, n_mem = 1, 2

            def __call__(self, stacks):
                return np.ones((1, 1))

        with pytest.raises(ValueError, match=(
                r"^the map returned shape \(1, 1\), expected \(3, 1\) for 3 "
                r"runs$")):
            rollout.rollout(OneRow(), np.zeros((3, 3, 1)), 2)

    def test_map_receives_every_run_at_every_step(self):
        # run 0 diverges at the first step; the map still gets three rows
        class Recorder:
            d, n_mem = 1, 0

            def __init__(self):
                self.shapes = []

            def __call__(self, stacks):
                self.shapes.append(stacks.shape)
                return np.array([[np.inf], [1.0], [1.0]]) \
                    if len(self.shapes) == 1 else np.ones((3, 1))

        recorder = Recorder()
        res = rollout.rollout(recorder, np.zeros((3, 1, 1)), 3)
        assert recorder.shapes == [(3, 1)] * 3
        assert res.diverged_at == (1, None, None)
        assert np.isnan(res.states[0, 1:]).all()
        np.testing.assert_array_equal(res.states[1:, :, 0], [[0, 1, 1, 1]] * 2)

    def test_run_cut_at_its_first_non_finite_prediction(self):
        # z -> 1e308 z on stacks with inf read as 0: from z = 1 the second
        # prediction overflows, and the map returns 0 from there on, a
        # finite row after a non-finite one; the run still diverged at 2
        class Forgiving(rollout.LinearMap):
            def __call__(self, stacks):
                return super().__call__(np.nan_to_num(stacks, posinf=0.0))

        res = rollout.rollout(Forgiving([[1e308]]), [[[1.0]], [[0.0]]], 5)
        assert res.diverged_at == (2, None)
        np.testing.assert_array_equal(res.states[0, :2, 0], [1.0, 1e308])
        assert np.isnan(res.states[0, 2:]).all()
        assert np.isfinite(res.states[1]).all()

    def test_euler_seeds_and_steps_checked_by_rollout(self):
        spec = dyn.make_system("example1")  # d = 1
        with pytest.raises(ValueError, match=r"shape \(R, 3, 1\).*got \(1, 3, 2\)"):
            rollout.euler_damz(spec, np.ones((3, 2)), 5, 0.1)
        with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
            rollout.euler_damz(spec, np.ones((3, 1)), -1, 0.1)


def rollout_loop(model, seeds, steps):
    """The rollout loop as it ran on float64 states alone: each step copies
    its window newest first, and the map casts the stacks itself.  Returns
    ``(states, diverged_at)``."""
    seeds = np.asarray(seeds, dtype=float)
    need, d = model.n_mem + 1, model.d
    runs = seeds.shape[0]
    states = np.full((runs, need + steps, d), np.nan)
    states[:, :need] = seeds
    diverged_at = [None] * runs
    live = slice(None)
    for pos in range(need, need + steps):
        window = states[live, pos - need : pos]
        nxt = model(window[:, ::-1].reshape(window.shape[0], -1))
        if not np.isfinite(nxt).all():
            finite = np.isfinite(nxt).all(axis=1)
            live = np.arange(runs)[live]
            for r in live[~finite]:
                diverged_at[r] = pos
            live, nxt = live[finite], nxt[finite]
            if live.size == 0:
                break
        states[live, pos] = nxt
    return states, tuple(diverged_at)


def diverging_network(dtype, big):
    """A network of ``dtype`` and seeds for four runs, of which run 2
    alone overflows, at index 6.  Hidden unit 0 reads z_n[0] and sits at
    tanh = -1 exactly below 1000, where its output big/2 (tanh + 1) into
    z[1] is 0; run 2, seeded at 2000, adds ``big`` to z[1] at every step."""
    model = net.init_params(2, 2, [8], seed=21)
    model = replace(model, flat=model.flat.astype(dtype))
    (w0, w1), (b0, b1) = model.weights, model.biases
    w0[0] = 0.0
    w0[0, 0], b0[0] = 1.0, -1000.0
    w1[:, 0] = 0.0
    w1[1] = 0.0
    w1[1, 0] = b1[1] = big / 2
    seeds = np.random.default_rng(21).normal(size=(4, 3, 2))
    seeds[2, :, 0] = 2000.0
    return model, seeds


class TestReversedHistory:
    """rollout keeps its history in one reversed buffer in the dtype of the
    map's output and passes views of it; the states and divergence steps
    are byte for byte those of :func:`rollout_loop`."""

    # a float64 map at d = 1 is left out: its stacks were a negative-stride
    # view, which numpy multiplied outside BLAS, so the two agree to
    # round-off only (TestExactMapRollout covers it)
    @pytest.mark.parametrize("d, n_mem, runs, dtype", [
        (1, 10, 1, np.float32), (1, 10, 5, np.float32), (10, 3, 1, np.float32),
        (10, 3, 5, np.float32), (10, 3, 1, np.float64), (3, 6, 4, np.float64),
    ])
    def test_matches_the_copying_loop_bitwise(self, d, n_mem, runs, dtype):
        model = net.init_params(d, n_mem, [30, 30, 30], seed=d + runs)
        model = replace(model, flat=model.flat.astype(dtype))
        seeds = 0.5 * np.random.default_rng(runs).normal(size=(runs, n_mem + 1, d))
        result = rollout.rollout(model, seeds, 250)
        states, diverged_at = rollout_loop(model, seeds, 250)
        assert result.states.dtype == np.float64
        assert result.states.tobytes() == states.tobytes()
        assert result.diverged_at == diverged_at == (None,) * runs

    @pytest.mark.filterwarnings("ignore:overflow")  # rollout_loop warns
    @pytest.mark.parametrize("dtype, big", [(np.float32, 1e38), (np.float64, 5e307)])
    def test_a_run_diverging_mid_rollout_matches_bitwise(self, dtype, big):
        # the other runs go on as they did when the map got only theirs
        model, seeds = diverging_network(dtype, big)
        result = rollout.rollout(model, seeds, 200)
        states, diverged_at = rollout_loop(model, seeds, 200)
        assert diverged_at == (None, None, 6, None)
        assert np.isfinite(states[[0, 1, 3]]).all()
        assert result.diverged_at == diverged_at
        assert result.states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("make, want", [
        (lambda: diverging_network(np.float32, 1e38), (None, None, 6, None)),
        (lambda: (rollout.LinearMap([[1e308]]), [[[0.0]], [[1.0]]]), (None, 2)),
    ], ids=["float32-network", "linear-map"])
    def test_divergence_raises_no_warning(self, make, want):
        # diverged_at is the one signal of a blow-up, under -W error too
        model, seeds = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = rollout.rollout(model, seeds, 50)
        assert result.diverged_at == want

    @pytest.mark.parametrize("out_dtype", [None, np.float16, np.int64])
    def test_other_maps_get_float64_stacks(self, out_dtype):
        # a LinearMap returns float64; a map returning float16 or integers
        # still has a float64 history
        class Recorder(rollout.LinearMap):
            def __call__(self, stacks):
                self.seen.append(stacks.dtype)
                nxt = super().__call__(stacks)
                return nxt if out_dtype is None else nxt.astype(out_dtype)

        lin = Recorder([[0.5, 0.25]])
        lin.seen = []
        result = rollout.rollout(lin, [[[1.0], [2.0]]], 5)
        assert lin.seen == [np.float64] * 5
        assert result.states.dtype == np.float64
        states, _ = rollout_loop(lin, [[[1.0], [2.0]]], 5)
        np.testing.assert_array_equal(result.states, states)

    def test_out_of_range_seed_refused_at_the_first_step(self):
        # the seeds reach the network in float64, and its cast refuses them
        model = net.init_params(1, 1, [4], seed=23)
        with pytest.raises(ValueError, match=(
                r"^input stacks hold 1e\+39, outside the range of the network's "
                r"float32 \(largest 3\.403e\+38\)$")):
            rollout.rollout(model, [[[1e39], [1.0]]], 5)


class TestExactMapRollout:
    """The exact reduced map L of a linear system, rolled out through the
    same loop as the network, tracks the integrated truth to round-off.

    Bound 1e-12 max ||truth||; measured 6.9e-15 (example1, n_mem 10) and
    9.2e-14 (example4, n_mem 30) over 20 runs of 500 steps, and an
    evaluate_model error of 2.6e-15 on example1.
    """

    SOLVER = dyn.SolverConfig(0.02, 20)

    @pytest.mark.parametrize("name, n_mem", [("example1", 10), ("example4", 30)])
    def test_tracks_the_truth(self, name, n_mem):
        spec = dyn.make_system(name)
        big_l, _ = dyn.exact_reduced_map(spec, self.SOLVER, n_mem)
        lin = rollout.LinearMap(big_l)
        assert (lin.d, lin.n_mem) == (spec.d, n_mem)
        x0s = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, spec.n))
        truth, result, errors = rollout.rollout_against_truth(
            lin, spec, self.SOLVER, x0s, 500)
        assert result.diverged_at == (None,) * 20
        assert errors.max() <= 1e-12 * np.linalg.norm(truth, axis=-1).max()

    def test_evaluate_model_takes_the_exact_map(self):
        spec = dyn.make_system("example1")
        big_l, _ = dyn.exact_reduced_map(spec, self.SOLVER, 10)
        mean_err, series = rollout.evaluate_model(
            rollout.LinearMap(big_l), spec, self.SOLVER,
            dyn.default_domain(spec), 500, 10, seed=1)
        assert mean_err <= 1e-12
        assert len(series) == 10 and all(es is not None for es in series)


class TestErrorSeries:
    """The pointwise l2 errors that rollout_against_truth scores runs by."""

    # a constant system, observed in full
    STILL = dyn.SystemSpec(name="still", n=2, d=2, field=("0.0", "0.0"))
    SOLVER = dyn.SolverConfig(0.5, 1)

    def drifting(self, offset):
        """A model that adds ``offset`` to the current state each step."""
        params = zero_final_layer(float64_network(net.init_params(2, 1, [3], seed=0)))
        params.biases[-1][:] = offset
        return params

    def test_identical_sequences_zero_error(self):
        x0s = np.array([[0.3, -0.2], [1.0, 2.0]])
        truth, result, errors = rollout.rollout_against_truth(
            self.drifting([0.0, 0.0]), self.STILL, self.SOLVER, x0s, 9
        )
        assert truth.shape == result.states.shape == (2, 10, 2)
        np.testing.assert_array_equal(errors, np.zeros((2, 10)))

    def test_constant_offset_pythagorean(self):
        # after the two seed states, step k is off by k * (0.3, 0.4)
        _, _, errors = rollout.rollout_against_truth(
            self.drifting([0.3, 0.4]), self.STILL, self.SOLVER, np.zeros((1, 2)), 5
        )
        np.testing.assert_allclose(errors[0], [0, 0, 0.5, 1.0, 1.5, 2.0],
                                   rtol=1e-15)

    def test_batched_runs_match_one_run_each(self):
        # one norm over (R, T, d) gives each run's row bit for bit
        model = net.init_params(1, 2, [6], seed=3)
        spec = dyn.make_system("example1")
        x0s = np.random.default_rng(3).uniform(-1, 1, size=(3, 2))
        truth, result, errors = rollout.rollout_against_truth(
            model, spec, dyn.SolverConfig(0.1, 2), x0s, 6
        )
        assert errors.shape == (3, 7)
        for r in range(3):
            one = np.linalg.norm(result.states[r] - truth[r], axis=-1)
            assert one.tobytes() == errors[r].tobytes()


def euler_damz_loop(spec, seeds, steps, delta):
    """Reference: the Euler scheme with one kernel product per history node."""
    a11, a12, a21, a22 = dyn._blocks(spec)
    n_mem = seeds.shape[0] - 1
    kernels = []
    propagated = np.eye(a22.shape[0])
    step_mat = dyn.matrix_exponential(a22 * delta)
    for j in range(n_mem + 1):
        kernels.append(a12 @ propagated @ a21)
        propagated = step_mat @ propagated
    weights = np.full(n_mem + 1, delta)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    if n_mem == 0:
        weights[:] = 0.0
    states = np.empty((n_mem + 1 + steps, spec.d))
    states[: n_mem + 1] = seeds
    for k in range(steps):
        pos = n_mem + 1 + k
        z_now = states[pos - 1]
        memory = np.zeros(spec.d)
        for j in range(n_mem + 1):
            memory += weights[j] * (kernels[j] @ states[pos - 1 - j])
        states[pos] = z_now + delta * (a11 @ z_now + memory)
    return states


class TestEulerScheme:
    @pytest.mark.parametrize("name, n_mem", [("example1", 0), ("example1", 30),
                                             ("example4", 8)])
    def test_contraction_matches_node_loop(self, name, n_mem):
        # one contraction per step sums the memory terms in another order
        spec = dyn.make_system(name)
        x0 = np.random.default_rng(2).uniform(-1.0, 1.0, size=spec.n)
        seeds = dyn.exact_linear_trajectory(spec, x0, 0.02, n_mem)[:, : spec.d]
        got = rollout.euler_damz(spec, seeds, 300, 0.02)
        want = euler_damz_loop(spec, seeds, 300, 0.02)
        assert np.abs(got - want).max() <= 1e-12

    def test_zero_seeds_stay_zero(self):
        spec = dyn.make_system("example1")
        traj = rollout.euler_damz(spec, np.zeros((31, 1)), 20, 0.02)
        np.testing.assert_array_equal(traj, np.zeros((51, 1)))

    def test_no_memory_no_kernel_is_explicit_euler(self):
        # with a zero observed-unobserved coupling the memory and noise
        # vanish; n_mem=0 then reduces to z_{n+1} = (1 + delta*a11) z_n
        a = np.array([[-0.7, 0.0], [1.0, -2.0]])
        spec = dyn.linear_system(a, d=1)
        z0 = 1.5
        traj = rollout.euler_damz(spec, np.array([[z0]]), 25, 0.1)
        expected = z0 * (1.0 + 0.1 * -0.7) ** np.arange(26)
        np.testing.assert_allclose(traj[:, 0], expected, rtol=1e-12)

    def test_untruncated_window_reproduces_exact_solution(self):
        # window covers all of [0, t] via the z(t<0)=0 convention, and the
        # unobserved initial state is zero, so the only errors left are the
        # Euler step and the trapezoid quadrature (observed: 5.13e-2)
        spec = dyn.make_system("example1", alpha=2.0)
        delta = 0.02
        steps = 50
        seeds = np.zeros((steps + 1, 1))
        seeds[-1, 0] = 1.2
        traj = rollout.euler_damz(spec, seeds, steps, delta)
        exact = dyn.exact_linear_solution(spec, np.array([1.2, 0.0]), 1.0)[:1]
        assert abs(traj[-1, 0] - exact[0]) <= 0.08

    def test_first_order_rate_in_delta(self):
        # untruncated window as above; halving delta should halve the error
        spec = dyn.make_system("example1", alpha=2.0)
        errors = {}
        for delta in (0.02, 0.01, 0.005):
            steps = int(round(1.0 / delta))
            seeds = np.zeros((steps + 1, 1))
            seeds[-1, 0] = 1.2
            traj = rollout.euler_damz(spec, seeds, steps, delta)
            exact = dyn.exact_linear_solution(spec, np.array([1.2, 0.0]), 1.0)[:1]
            errors[delta] = abs(traj[-1, 0] - exact[0])
        assert 1.6 <= errors[0.02] / errors[0.01] <= 2.4
        assert 1.6 <= errors[0.01] / errors[0.005] <= 2.4

    def test_fixed_window_saturates_at_truncation_bias(self):
        # with the window held at T_M = 0.6 the scheme converges to the
        # truncated dynamics, not the true ones: refining delta does not
        # push the error below the truncation bias (observed ~0.27-0.31)
        spec = dyn.make_system("example1", alpha=2.0)
        x0 = np.array([1.2, 0.0])
        errors = []
        for delta in (0.02, 0.005):
            n_mem = int(round(0.6 / delta))
            seeds = dyn.exact_linear_trajectory(spec, x0, delta, n_mem)[:, :1]
            steps = int(round(1.0 / delta)) - n_mem
            traj = rollout.euler_damz(spec, seeds, steps, delta)
            exact = dyn.exact_linear_solution(spec, x0, 1.0)[:1]
            errors.append(abs(traj[-1, 0] - exact[0]))
        assert all(0.2 <= e <= 0.4 for e in errors)


def sweep_config(**changes):
    """A config small enough to sweep n_mem 1 and 3 in well under a second."""
    doc = dict(system="example1", params={"alpha": 2.0}, substeps=5,
               n_traj=40, traj_len="auto", per_trajectory=1, n_mem=1,
               hidden=(6,), batch_size=16, epochs=2, eval_horizon=0.5,
               n_eval_runs=3)
    doc.update(changes)
    return cli.ExperimentConfig(**doc)


class TestEvaluateAndSweep:
    def make_micro_sweep(self, seed):
        return rollout.memory_sweep(sweep_config(), [1, 3], seed=seed)

    def test_sweep_shape_and_determinism(self):
        cells_a = self.make_micro_sweep(9)
        cells_b = self.make_micro_sweep(9)
        assert [c.n_mem for c in cells_a] == [1, 3]
        assert cells_a[0].memory_length == pytest.approx(0.02)
        for a, b in zip(cells_a, cells_b):
            assert a.mean_error == b.mean_error

    def test_sweep_requires_ascending_list(self):
        cfg = sweep_config(substeps=2, n_traj=5, per_trajectory=None,
                           hidden=(3,), batch_size=1, epochs=1,
                           eval_horizon=0.2, n_eval_runs=1)
        with pytest.raises(ValueError, match="ascending"):
            rollout.memory_sweep(cfg, [3, 1], seed=0)

    @refused_seeds
    def test_sweep_seed_must_be_a_count(self, seed, message):
        # refused before the first cell trains
        with pytest.raises(ValueError, match=message):
            rollout.memory_sweep(sweep_config(), [1, 3], seed)

    def test_sweep_over_a_numpy_range(self):
        # each cell is replace(cfg, n_mem=np.int64(n)), which the config
        # used to refuse
        cells = rollout.memory_sweep(sweep_config(), np.arange(1, 3), seed=9)
        assert [c.n_mem for c in cells] == [1, 2]
        assert all(type(c.n_mem) is int for c in cells)

    def test_cell_seeds_follow_the_rule(self):
        # cell_seed = SeedSequence([seed, n_mem]); generate, select, init,
        # train and evaluate take cell_seed + 0, ..., + 4
        cfg = sweep_config()
        (cell,) = rollout.memory_sweep(cfg, [3], seed=9)
        cell_seed = int(np.random.SeedSequence([9, 3]).generate_state(1)[0])
        spec = dyn.make_system("example1", alpha=2.0)
        solver = dyn.SolverConfig(delta=0.02, substeps=5)
        domain = dyn.default_domain(spec)
        trajs = data.generate_trajectories(spec, solver, domain, 40, 5,
                                           seed=cell_seed)
        ds = data.build_dataset(trajs, 3, per_trajectory=1, seed=cell_seed + 1)
        params0 = net.init_params(1, 3, (6,), seed=cell_seed + 2)
        model, _ = train.train_model(params0, ds, train.TrainConfig(
            learning_rate=1e-3, batch_size=16, epochs=2, seed=cell_seed + 3))
        mean_err, _ = rollout.evaluate_model(model, spec, solver, domain,
                                             horizon_steps=25, n_runs=3,
                                             seed=cell_seed + 4)
        assert cell.mean_error == mean_err
        assert cell.diverged_runs == ()

    def test_sweep_names_diverged_runs(self, monkeypatch):
        es = np.zeros(3)
        monkeypatch.setattr(rollout, "evaluate_model",
                            lambda *args, **kwargs: (np.inf, [es, None, es]))
        cells = rollout.memory_sweep(sweep_config(), [1, 3], seed=0)
        assert [c.diverged_runs for c in cells] == [(1,), (1,)]
        assert all(c.mean_error == np.inf for c in cells)

    @pytest.mark.parametrize("changes, message", [
        (dict(eval_horizon=0.08),
         r"eval_horizon=0.08 is 4 steps of delta=0.02, fewer than the "
         r"n_mem \+ 1 = 5 seed states of a rollout \(n_mem=4\)"),
        (dict(traj_len=6, per_trajectory=2),
         r"traj_len=6 leaves 1 window starts per trajectory at n_mem=4, "
         r"fewer than per_trajectory=2"),
        (dict(traj_len=5, per_trajectory=None),
         r"traj_len=5 leaves 0 window starts per trajectory at n_mem=4, "
         r"fewer than one"),
        (dict(batch_size=11),
         r"batch_size=11 exceeds the 10 windows of n_traj=10 trajectories "
         r"at n_mem=1"),
        (dict(traj_len=6, per_trajectory=None, batch_size=11),
         r"batch_size=11 exceeds the 10 windows of n_traj=10 trajectories "
         r"at n_mem=4"),
    ], ids=["horizon", "random-starts", "deterministic-starts",
            "batch-random", "batch-deterministic"])
    def test_sweep_checks_every_cell_before_training(self, monkeypatch, changes,
                                                     message):
        def no_training(*args):
            raise AssertionError("a cell was trained")

        monkeypatch.setattr(train, "train_model", no_training)
        args = dict(substeps=2, n_traj=10, hidden=(3,), batch_size=4, epochs=1,
                    eval_horizon=0.2, n_eval_runs=1)
        args.update(changes)
        # batch-random fails at every n_mem, so at the config's own n_mem=1
        with pytest.raises(ValueError, match=message):
            rollout.memory_sweep(sweep_config(**args), [1, 4], seed=0)

    def test_evaluate_model_zero_for_perfect_seeds(self):
        # a zero-final-layer model predicts a constant, so against a
        # constant system the evaluation error is exactly zero
        spec = dyn.SystemSpec(name="still", n=2, d=1, field=("0.0", "0.0"))
        model = zero_final_layer(float64_network(net.init_params(1, 2, [4], seed=3)))
        dom = dyn.Domain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        mean_err, series = rollout.evaluate_model(
            model, spec, dyn.SolverConfig(0.1, 1), dom,
            horizon_steps=12, n_runs=4, seed=11,
        )
        assert mean_err == 0.0
        assert len(series) == 4
        for es in series:
            assert es.shape == (13,)
            np.testing.assert_array_equal(es, 0.0)

    # increment 1e308 * (tanh(1000 z) + 1) on the constant system: exactly 0
    # for z < -0.02, so those runs hold still; it overflows at the first
    # prediction (step 1 with n_mem = 0) for z > 0.02
    SIGN_SPLIT = net.NetworkParams(
        d=1, n_mem=0, hidden=(1,), flat=[1000.0, 0.0, 1e308, 1e308]
    )
    STILL = dyn.SystemSpec(name="still", n=2, d=1, field=("0.0", "0.0"))

    def evaluate_sign_split(self, lower, upper):
        dom = dyn.Domain(np.array([lower, -1.0]), np.array([upper, 1.0]))
        return rollout.evaluate_model(
            self.SIGN_SPLIT, self.STILL, dyn.SolverConfig(0.1, 1), dom,
            horizon_steps=6, n_runs=4, seed=2,
        )

    def test_evaluate_model_reports_diverged_run(self):
        # some runs diverge: the mean is inf and those runs have no series
        x0s = data.sample_initial_conditions(
            dyn.Domain(np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 4, 2
        )
        bad = x0s[:, 0] > 0.0
        assert 0 < bad.sum() < 4 and np.all(np.abs(x0s[:, 0]) > 0.02)
        mean_err, series = self.evaluate_sign_split(-1.0, 1.0)
        assert mean_err == np.inf
        assert [es is None for es in series] == bad.tolist()
        for es in series:
            if es is not None:
                np.testing.assert_array_equal(es, 0.0)

    def test_evaluate_model_raises_when_every_run_diverges(self):
        with pytest.raises(
            RuntimeError,
            match="every rollout diverged: run 0 at step 1, run 1 at step 1, "
                  "run 2 at step 1, run 3 at step 1",
        ):
            self.evaluate_sign_split(0.5, 1.0)
        # the same model is scored where no run diverges
        mean_err, series = self.evaluate_sign_split(-1.0, -0.5)
        assert mean_err == 0.0 and all(es is not None for es in series)

    @pytest.mark.parametrize("n_runs, message", [
        (0, "n_runs must be >= 1, got 0"),
        (2.0, "n_runs must be an integer, got 2.0"),
    ])
    def test_evaluate_model_names_a_bad_run_count(self, n_runs, message):
        # the count was checked only as sample_initial_conditions' "count"
        with pytest.raises(ValueError, match=f"^{message}$"):
            rollout.evaluate_model(
                net.init_params(1, 2, [4], seed=3), self.STILL,
                dyn.SolverConfig(0.1, 1), dyn.default_domain(self.STILL),
                horizon_steps=6, n_runs=n_runs, seed=2,
            )

    @pytest.mark.parametrize("steps", [2.5, True])
    def test_horizon_that_is_not_an_integer_named(self, steps):
        # it was named num_samples, integrate_batch's argument
        with pytest.raises(ValueError, match=(
                f"^horizon_steps must be an integer, got {steps}$")):
            rollout.rollout_against_truth(
                net.init_params(1, 0, [3], seed=0), dyn.make_system("example1"),
                dyn.SolverConfig(0.1, 1), np.zeros((1, 2)), steps)

    def test_horizon_must_cover_the_seeds(self):
        spec = dyn.make_system("example1")
        model = net.init_params(1, 4, [3], seed=0)
        with pytest.raises(ValueError, match="horizon of 4 steps cannot cover 5"):
            rollout.rollout_against_truth(
                model, spec, dyn.SolverConfig(0.1, 1), np.zeros((1, 2)), 4
            )


class TestCompareWithHomogenized:
    SOLVER = dyn.SolverConfig(0.02, 2)

    def compare(self, model, spec=None):
        spec = spec or dyn.make_system("example3")
        return rollout.compare_with_homogenized(
            model, spec, self.SOLVER, dyn.default_domain(spec), horizon_steps=10,
            n_runs=2, seed=4,
        )

    def test_series_on_the_horizon_grid(self):
        model = zero_final_layer(net.init_params(3, 2, [6], seed=1))
        nn, closure = self.compare(model)
        for es in (nn, closure):
            assert es.shape == (11,)  # samples 0, ..., 10 of delta
            assert np.all(np.isfinite(es))
            assert es[0] == 0.0  # both start from the true slow state
        # the seeds are the truth, so the network's error starts after them
        np.testing.assert_array_equal(nn[:3], 0.0)
        assert nn[-1] > 0.0

    @pytest.mark.filterwarnings("ignore:overflow")  # the norm of a 1e308 error
    def test_diverged_network_raises_runtime_error(self):
        model = zero_final_layer(float64_network(net.init_params(3, 2, [6], seed=1)))
        model.biases[-1][:] = 1e308
        with pytest.raises(RuntimeError, match="diverged at step 4 in run 0") as info:
            self.compare(model)
        assert not isinstance(info.value, dyn.IntegrationError)

    @pytest.mark.parametrize("n_runs, message", [
        (0, "n_runs must be >= 1, got 0"),
        (True, "n_runs must be an integer, got True"),
    ])
    def test_bad_run_count_named(self, n_runs, message):
        spec = dyn.make_system("example3")
        with pytest.raises(ValueError, match=f"^{message}$"):
            rollout.compare_with_homogenized(
                net.init_params(3, 2, [6], seed=1), spec, self.SOLVER,
                dyn.default_domain(spec), horizon_steps=10, n_runs=n_runs, seed=4,
            )

    def test_other_systems_rejected(self):
        model = net.init_params(1, 2, [6], seed=1)
        with pytest.raises(ValueError, match="for example3, not example2"):
            self.compare(model, dyn.make_system("example2"))

    @pytest.mark.parametrize("observe", [2, 4])
    def test_other_observed_dimensions_rejected(self, observe):
        model = net.init_params(observe, 2, [6], seed=1)
        spec = dyn.make_system("example3", observe=observe)
        with pytest.raises(ValueError, match=f"must observe those three; it "
                           f"observes d={observe}"):
            self.compare(model, spec)

    def test_scores_against_the_given_epsilon(self):
        # the truth is the spec's own: example3 at epsilon 0.05, not 0.01
        model = net.init_params(3, 2, [6], seed=1)
        spec = dyn.make_system("example3", epsilon=0.05)
        nn, closure = self.compare(model, spec)
        x0s = data.sample_initial_conditions(dyn.default_domain(spec), 2, 4)
        truth, _, scored = rollout.rollout_against_truth(
            model, spec, self.SOLVER, x0s, 10
        )
        baseline = dyn.integrate_batch(
            dyn.make_system("example3-reduced"), self.SOLVER, x0s[:, :3], 10
        )
        want = np.linalg.norm(baseline - truth, axis=-1).mean(axis=0)
        assert nn.tobytes() == scored.mean(axis=0).tobytes()
        assert closure.tobytes() == want.tobytes()
        default_nn, default_closure = self.compare(model)
        assert not np.array_equal(default_closure, closure)
        assert not np.array_equal(default_nn, nn)
