"""Tests for iterative prediction, error series, and the Euler reference scheme."""

import numpy as np
import pytest

from memflow import data, net, rollout, train
from memflow import dynamics as dyn


def zero_final_layer(params):
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    weights[-1][:] = 0.0
    biases[-1][:] = 0.0
    return net.NetworkParams(
        d=params.d, n_mem=params.n_mem, hidden=params.hidden,
        weights=weights, biases=biases,
    )


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
        model = zero_final_layer(net.init_params(1, 2, [5], seed=2))
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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_recorded(self):
        params = net.init_params(1, 0, [2], seed=6)
        biases = [b.copy() for b in params.biases]
        biases[-1][:] = 1e308  # first step lands near the float ceiling
        model = net.NetworkParams(1, 0, params.hidden, params.weights, biases)
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
        model = net.init_params(2, 4, [12, 12], seed=8)
        seeds = 0.5 * rng.normal(size=(6, 5, 2))
        batch = rollout.rollout(model, seeds, 60, delta=0.1)
        assert batch.states.shape == (6, 65, 2)
        assert batch.diverged_at == (None,) * 6
        np.testing.assert_allclose(batch.times, 0.1 * np.arange(65))
        for r in range(6):
            single = rollout.rollout(model, seeds[r : r + 1], 60, delta=0.1)
            assert np.abs(batch.states[r] - single.states[0]).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverged_run_stops_alone(self):
        # increment 1e308 * tanh(z): z = 0 is a fixed point, z = 1 grows to
        # 7.6e307, then 1.76e308, then overflows at index 3
        model = net.NetworkParams(
            d=1, n_mem=0, hidden=(1,),
            weights=[np.array([[1.0]]), np.array([[1e308]])],
            biases=[np.zeros(1), np.zeros(1)],
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


class TestErrorSeries:
    def test_identical_sequences_zero_error(self):
        seq = np.arange(10.0)[:, None]
        es = rollout.error_series(seq, seq, delta=0.5)
        np.testing.assert_array_equal(es.errors, np.zeros(10))
        np.testing.assert_allclose(es.times, 0.5 * np.arange(10))

    def test_constant_offset_pythagorean(self):
        base = np.zeros((6, 2))
        shifted = base + np.array([0.3, 0.4])
        es = rollout.error_series(shifted, base, delta=1.0)
        np.testing.assert_allclose(es.errors, np.full(6, 0.5))

    def test_batched_runs_match_one_run_each(self):
        # one norm over (R, T, d) gives each run's row bit for bit
        rng = np.random.default_rng(3)
        pred, ref = rng.normal(size=(2, 3, 7, 2))
        es = rollout.error_series(pred, ref, delta=0.5)
        assert es.errors.shape == (3, 7) and es.times.shape == (7,)
        for r in range(3):
            one = rollout.error_series(pred[r], ref[r], delta=0.5)
            assert one.errors.tobytes() == es.errors[r].tobytes()
        with pytest.raises(ValueError, match="equal length"):
            rollout.ErrorSeries(times=np.arange(6.0), errors=es.errors)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            rollout.error_series(np.zeros((3, 1)), np.zeros((4, 1)), delta=1.0)

    def test_rollout_result_carries_delta(self):
        model = net.init_params(1, 0, [2], seed=7)
        res = rollout.rollout(model, np.array([[[0.5]]]), 3, delta=0.25)
        np.testing.assert_allclose(res.times, [0.0, 0.25, 0.5, 0.75])
        es = rollout.error_series(res.states, np.zeros((1, 4, 1)), res.delta)
        np.testing.assert_array_equal(es.times, res.times)


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


class TestEvaluateAndSweep:
    def make_micro_sweep(self, seed):
        spec = dyn.make_system("example1", alpha=2.0)
        solver = dyn.SolverConfig(delta=0.02, substeps=5)
        domain = dyn.default_domain(spec)
        cfg = train.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=2, seed=0)
        return rollout.memory_sweep(
            spec, solver, domain, [1, 3], n_traj=40, traj_len="auto",
            selection_kind="random", per_trajectory=1, hidden=(6,),
            train_cfg=cfg, eval_horizon=0.5, n_eval_runs=3, seed=seed,
        )

    def test_sweep_shape_and_determinism(self):
        cells_a = self.make_micro_sweep(9)
        cells_b = self.make_micro_sweep(9)
        assert [c.n_mem for c in cells_a] == [1, 3]
        assert cells_a[0].memory_length == pytest.approx(0.02)
        for a, b in zip(cells_a, cells_b):
            assert a.mean_error == b.mean_error

    def test_sweep_requires_ascending_list(self):
        spec = dyn.make_system("example1")
        solver = dyn.SolverConfig(0.02, 2)
        cfg = train.TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(ValueError, match="ascending"):
            rollout.memory_sweep(
                spec, solver, dyn.default_domain(spec), [3, 1], n_traj=5,
                traj_len="auto", selection_kind="deterministic",
                per_trajectory=None, hidden=(3,), train_cfg=cfg,
                eval_horizon=0.2, n_eval_runs=1, seed=0,
            )

    def test_evaluate_model_zero_for_perfect_seeds(self):
        # a zero-final-layer model predicts a constant, so against a
        # constant system the evaluation error is exactly zero
        spec = dyn.SystemSpec(
            name="still", n=2, d=1, field=lambda x, m: (0.0, 0.0)
        )
        model = zero_final_layer(net.init_params(1, 2, [4], seed=3))
        dom = dyn.Domain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        mean_err, series = rollout.evaluate_model(
            model, spec, dyn.SolverConfig(0.1, 1), dom,
            horizon_steps=12, n_runs=4, seed=11,
        )
        assert mean_err == 0.0
        assert len(series) == 4

    # increment 1e308 * (tanh(1000 z) + 1) on the constant system: exactly 0
    # for z < -0.02, so those runs hold still; it overflows at the first
    # prediction (step 1 with n_mem = 0) for z > 0.02
    SIGN_SPLIT = net.NetworkParams(
        d=1, n_mem=0, hidden=(1,),
        weights=[np.array([[1000.0]]), np.array([[1e308]])],
        biases=[np.zeros(1), np.array([1e308])],
    )
    STILL = dyn.SystemSpec(
        name="still", n=2, d=1, field=lambda x, m: (0.0, 0.0)
    )

    def evaluate_sign_split(self, lower, upper):
        dom = dyn.Domain(np.array([lower, -1.0]), np.array([upper, 1.0]))
        return rollout.evaluate_model(
            self.SIGN_SPLIT, self.STILL, dyn.SolverConfig(0.1, 1), dom,
            horizon_steps=6, n_runs=4, seed=2,
        )

    @pytest.mark.filterwarnings("ignore:overflow")
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
                np.testing.assert_array_equal(es.errors, 0.0)

    @pytest.mark.filterwarnings("ignore:overflow")
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
            model, spec, self.SOLVER, dyn.default_domain(spec), eval_horizon=0.2,
            n_runs=2, seed=4,
        )

    def test_series_on_the_horizon_grid(self):
        model = zero_final_layer(net.init_params(3, 2, [6], seed=1))
        nn, closure = self.compare(model)
        for es in (nn, closure):
            assert es.times.shape == es.errors.shape == (11,)
            assert np.all(np.isfinite(es.errors))
            assert es.errors[0] == 0.0  # both start from the true slow state
        np.testing.assert_allclose(nn.times, 0.02 * np.arange(11))
        # the seeds are the truth, so the network's error starts after them
        np.testing.assert_array_equal(nn.errors[:3], 0.0)
        assert nn.errors[-1] > 0.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverged_network_raises_runtime_error(self):
        model = zero_final_layer(net.init_params(3, 2, [6], seed=1))
        model.biases[-1][:] = 1e308
        with pytest.raises(RuntimeError, match="diverged at step 4 in run 0") as info:
            self.compare(model)
        assert not isinstance(info.value, dyn.IntegrationError)

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
        assert nn.errors.tobytes() == scored.errors.mean(axis=0).tobytes()
        assert closure.errors.tobytes() == want.tobytes()
        default_nn, default_closure = self.compare(model)
        assert not np.array_equal(default_closure.errors, closure.errors)
        assert not np.array_equal(default_nn.errors, nn.errors)
