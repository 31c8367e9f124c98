"""Tests for benchmark systems, integration, and the linear reduced-dynamics oracle."""

import dataclasses

import numpy as np
import pytest

from memflow import dynamics as dyn


def taylor_expm(a, terms=30):
    """Independent reference: plain 30-term Taylor sum, no scaling."""
    a = np.asarray(a, dtype=float)
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


class TestEvalRhs:
    def test_example1_direct_substitution(self):
        spec = dyn.make_system("example1", alpha=2.0)
        np.testing.assert_allclose(dyn.eval_rhs(spec, [1.0, 0.0]), [1.0, 4.0])

    def test_example2_equilibrium(self):
        spec = dyn.make_system("example2", alpha=0.1, beta=8.91)
        np.testing.assert_allclose(dyn.eval_rhs(spec, [0.0, 0.0]), [0.0, 0.0])

    def test_example3_direct_substitution(self):
        spec = dyn.make_system("example3", epsilon=0.01)
        np.testing.assert_allclose(
            dyn.eval_rhs(spec, [1.0, 1.0, 0.0, 0.0]), [-1.0, 1.2, 0.2, 100.0]
        )

    def test_dimension_mismatch_rejected(self):
        spec = dyn.make_system("example1")
        with pytest.raises(ValueError, match="dimension"):
            dyn.eval_rhs(spec, [1.0, 0.0, 0.0])

    def test_batched_evaluation(self):
        spec = dyn.make_system("example2")
        states = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
        batched = dyn.eval_rhs(spec, states)
        for row_in, row_out in zip(states, batched):
            np.testing.assert_allclose(dyn.eval_rhs(spec, row_in), row_out)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            dyn.make_system("example9")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            dyn.make_system("example1", gamma=3.0)


class TestSystemSpec:
    def test_observed_dimension_bounds(self):
        with pytest.raises(ValueError, match="observed dimension"):
            dyn.SystemSpec(name="x", n=2, d=3, params={}, rhs=lambda s: s)

    def test_observe_projects_leading_components(self):
        spec = dyn.make_system("example3")
        state = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(spec.observe(state), [1.0, 2.0, 3.0])

    def test_observe_override(self):
        spec = dyn.make_system("example1", alpha=2.0, observe=2)
        assert spec.d == 2

    def test_builtin_shapes(self):
        for name, n, d in [
            ("example1", 2, 1),
            ("example2", 2, 1),
            ("example3", 4, 3),
            ("example3-reduced", 3, 3),
            ("example4", 20, 10),
        ]:
            spec = dyn.make_system(name)
            assert (spec.n, spec.d) == (n, d)


class TestDomain:
    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            dyn.Domain(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_defaults_exist_for_builtins(self):
        for name in ("example1", "example2", "example3", "example3-reduced",
                     "example4"):
            spec = dyn.make_system(name)
            dom = dyn.default_domain(spec)
            assert dom.n == spec.n


class TestIntegrate:
    def test_one_step_matches_matrix_exponential(self):
        spec = dyn.make_system("example1", alpha=2.0)
        oracle = dyn.oracle_for_system(spec)
        cfg = dyn.SolverConfig(delta=0.02, substeps=20)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x0 = rng.uniform(-2, 2, size=2)
            got = dyn.integrate_batch(spec, cfg, x0[None], 1)[0]
            np.testing.assert_array_equal(got[0], x0)
            want = dyn.exact_linear_solution(oracle, x0, 0.02)
            assert np.abs(got[1] - want).max() <= 1e-10

    def test_richardson_refinement_factor(self):
        # one coarse step of 0.1 on the pendulum; error vs substeps=256
        # reference should shrink by ~16^4 from substeps=1 to substeps=16
        spec = dyn.make_system("example2")
        x0s = np.array([[1.0, 0.5]])

        def err(substeps):
            ref = dyn.integrate_batch(spec, dyn.SolverConfig(0.1, 256), x0s, 1)
            end = dyn.integrate_batch(spec, dyn.SolverConfig(0.1, substeps), x0s, 1)
            return np.linalg.norm(end[0, -1] - ref[0, -1])

        ratio = err(1) / err(16)
        assert 16**4 / 2 <= ratio <= 16**4 * 2

    def test_zero_vector_field_constant_solution(self):
        spec = dyn.SystemSpec(
            name="still", n=2, d=2, params={}, rhs=lambda s: np.zeros_like(s)
        )
        got = dyn.integrate_batch(spec, dyn.SolverConfig(0.5, 3), [[3.0, 7.0]], 6)
        np.testing.assert_array_equal(got, np.tile([3.0, 7.0], (1, 7, 1)))

    def test_rk4_convergence_order(self):
        # once on the linear sample-matrix path, once on the stage loop
        linear = dyn.make_system("example1", alpha=2.0)
        oracle = dyn.oracle_for_system(linear)
        x0 = np.array([1.3, -0.4])
        exact = dyn.exact_linear_solution(oracle, x0, 1.0)
        substeps = [1, 2, 4, 8]
        for spec in (linear, dataclasses.replace(linear, a_matrix=None)):
            errors = []
            for s in substeps:
                end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, s), x0[None], 50)
                errors.append(np.linalg.norm(end[0, -1] - exact))
            slope = np.polyfit(
                np.log([0.02 / s for s in substeps]), np.log(errors), 1
            )[0]
            assert 3.8 <= slope <= 4.2

    def test_flow_map_composition(self):
        spec = dyn.make_system("example2")
        cfg = dyn.SolverConfig(0.02, 10)
        x0 = np.array([0.7, -1.1])
        k = 25
        whole = dyn.integrate_batch(spec, cfg, x0[None], 2 * k)
        first = dyn.integrate_batch(spec, cfg, x0[None], k)
        second = dyn.integrate_batch(spec, cfg, first[:, -1], k)
        assert np.abs(whole[:, k:] - second).max() <= 1e-9

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_sample_index(self):
        spec = dyn.SystemSpec(
            name="blowup", n=1, d=1, params={}, rhs=lambda s: s**2
        )
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [[5.0]], 10)
        assert info.value.sample_index >= 1
        # a batch of one row still names its trajectory
        assert info.value.trajectory_index == 0
        assert f"trajectory 0 at sample {info.value.sample_index}" in str(info.value)
        with pytest.raises(ValueError, match=r"x0s must have shape \(m, 1\), got \(2,\)"):
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [5.0, 1.0], 10)
        with pytest.raises(ValueError, match="num_samples must be >= 1, got 0"):
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [[5.0]], 0)

    def test_batch_matches_single(self):
        spec = dyn.make_system("example3", epsilon=0.05)
        cfg = dyn.SolverConfig(0.02, 5)
        rng = np.random.default_rng(4)
        x0s = rng.uniform(0.0, 1.0, size=(3, 4))
        batch = dyn.integrate_batch(spec, cfg, x0s, 8)
        for i in range(3):
            single = dyn.integrate_batch(spec, cfg, x0s[i : i + 1], 8)
            np.testing.assert_array_equal(batch[i], single[0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_batch_divergence_reports_trajectory(self):
        spec = dyn.SystemSpec(
            name="blowup", n=1, d=1, params={}, rhs=lambda s: s**2
        )
        x0s = np.array([[0.0], [5.0]])
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), x0s, 10)
        assert info.value.trajectory_index == 1


def stage_loop(spec, cfg, x0s, num_samples):
    """Reference: the generic RK4 stage loop on ``spec.rhs``."""
    out = np.empty((x0s.shape[0], num_samples + 1, spec.n))
    out[:, 0] = state = x0s
    for k in range(1, num_samples + 1):
        state = dyn._rk4_sample_step(spec.rhs, state, cfg.delta, cfg.substeps)
        out[:, k] = state
    return out


RANDOM3 = dyn.linear_system(
    np.random.default_rng(7).normal(size=(3, 3)) - 2.0 * np.eye(3), d=1
)


class TestLinearSampleMatrix:
    """The linear path applies S = R(hA)^substeps once per sample.

    It is the stage loop's map with the sums in another order, so the two
    agree to a bound, not bitwise.  Bound: 2e-12 times max(1, max |x|) over
    up to 2000 samples (about 4 ulp per sample); measured 3.1e-13 with
    |x| <= 2.1 on example4 and 1.0e-14 on example1 here, 6.0e-13 on
    example4 at 20 substeps.
    """

    @pytest.mark.parametrize(
        "spec, substeps, num_samples",
        [
            (dyn.make_system("example1"), 10, 2000),
            (dyn.make_system("example4"), 5, 2000),
            (RANDOM3, 1, 500),
            (RANDOM3, 7, 500),
        ],
        ids=["example1", "example4", "random3-substeps1", "random3-substeps7"],
    )
    def test_matches_stage_loop(self, spec, substeps, num_samples):
        cfg = dyn.SolverConfig(0.02, substeps)
        x0s = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, spec.n))
        got = dyn.integrate_batch(spec, cfg, x0s, num_samples)
        want = stage_loop(spec, cfg, x0s, num_samples)
        np.testing.assert_array_equal(got[:, 0], x0s)
        bound = 2e-12 * max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= bound

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_sample_and_trajectory(self):
        # dx/dt = x with h = 1: each sample multiplies by R(1) = 65/24, so
        # from 1e300 the state is 1.66e308 at sample 19 and overflows at 20
        spec = dyn.linear_system([[1.0]], d=1)
        cfg = dyn.SolverConfig(1.0, 1)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, cfg, np.array([[1.0], [1e300]]), 25)
        assert (info.value.sample_index, info.value.trajectory_index) == (20, 1)
        assert "trajectory 1 at sample 20" in str(info.value)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, cfg, np.array([[1e300]]), 25)
        assert (info.value.sample_index, info.value.trajectory_index) == (20, 0)


class TestRhsBuffers:
    """The nonlinear right-hand sides fill one output buffer; they must
    equal the np.stack formulas they replaced bit for bit."""

    REFERENCES = {
        "example2": lambda x: np.stack(
            [x[..., 1], -0.1 * x[..., 1] - 8.91 * np.sin(x[..., 0])], axis=-1
        ),
        "example3": lambda x: np.stack(
            [
                -x[..., 1] - x[..., 2],
                x[..., 0] + x[..., 1] / 5.0,
                0.2 + x[..., 3] - 5.0 * x[..., 2],
                (x[..., 0] * x[..., 1] - x[..., 3]) / 0.01,
            ],
            axis=-1,
        ),
        "example3-reduced": lambda x: np.stack(
            [
                -x[..., 1] - x[..., 2],
                x[..., 0] + x[..., 1] / 5.0,
                0.2 + x[..., 2] * (x[..., 0] - 5.0),
            ],
            axis=-1,
        ),
    }

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_bitwise_equal_to_stack_formulas(self, name):
        spec = dyn.make_system(name)
        rng = np.random.default_rng(12)
        for shape in [(spec.n,), (7, spec.n), (3, 4, spec.n)]:
            x = rng.uniform(-5.0, 5.0, size=shape)
            got = spec.rhs(x)
            want = self.REFERENCES[name](x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(
            dyn.matrix_exponential(np.zeros((4, 4))), np.eye(4)
        )

    def test_diagonal(self):
        got = dyn.matrix_exponential(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(got, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    def test_rotation_closed_form_and_series(self):
        theta = np.pi / 2
        a = np.array([[0.0, -theta], [theta, 0.0]])
        got = dyn.matrix_exponential(a)
        np.testing.assert_allclose(got, [[0.0, -1.0], [1.0, 0.0]], atol=1e-13)
        np.testing.assert_allclose(got, taylor_expm(a), atol=1e-13)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            dyn.matrix_exponential(np.ones((2, 3)))

    def test_semigroup_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = rng.normal(size=(5, 5))
            a *= 1.0 / max(1.0, np.linalg.norm(a, 2))
            s, t = rng.uniform(0.2, 2.0, size=2)
            lhs = dyn.matrix_exponential(s * a) @ dyn.matrix_exponential(t * a)
            rhs = dyn.matrix_exponential((s + t) * a)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_inverse_identity(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(5, 5))
        a *= 1.0 / max(1.0, np.linalg.norm(a, 2))
        prod = dyn.matrix_exponential(a) @ dyn.matrix_exponential(-a)
        assert np.abs(prod - np.eye(5)).max() <= 1e-10

    def test_example4_unobserved_block_identities(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example4"))
        a22 = oracle.a22
        prod = dyn.matrix_exponential(a22) @ dyn.matrix_exponential(-a22)
        assert np.abs(prod - np.eye(10)).max() <= 1e-10
        lhs = dyn.matrix_exponential(0.4 * a22) @ dyn.matrix_exponential(0.6 * a22)
        assert np.abs(lhs - dyn.matrix_exponential(a22)).max() <= 1e-10


class TestLinearOracle:
    def test_nonlinear_system_rejected(self):
        with pytest.raises(ValueError, match="not linear"):
            dyn.oracle_for_system(dyn.make_system("example2"))

    def test_block_shapes(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example4"))
        assert oracle.a11.shape == (10, 10)
        assert oracle.a12.shape == (10, 10)
        assert oracle.d == 10 and oracle.n == 20

    def test_inconsistent_blocks_rejected(self):
        with pytest.raises(ValueError, match="block shapes"):
            dyn.LinearMZOracle(
                a11=np.eye(2), a12=np.ones((2, 3)), a21=np.ones((3, 2)),
                a22=np.eye(4),
            )

    def test_exact_solution_at_t0(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        x0 = np.array([0.5, -0.25])
        np.testing.assert_allclose(dyn.exact_linear_solution(oracle, x0, 0.0), x0)

    def test_exact_solution_cross_validates_integrator_example1(self):
        spec = dyn.make_system("example1", alpha=2.0)
        oracle = dyn.oracle_for_system(spec)
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-2, 2, size=2)
        end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, 50), x0[None], 50)[0, -1]
        want = dyn.exact_linear_solution(oracle, x0, 1.0)
        assert np.abs(end - want).max() <= 1e-8

    def test_exact_solution_cross_validates_integrator_example4(self):
        spec = dyn.make_system("example4")
        oracle = dyn.oracle_for_system(spec)
        rng = np.random.default_rng(10)
        x0 = rng.uniform(-2, 2, size=20)
        end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, 20), x0[None], 1)[0, -1]
        want = dyn.exact_linear_solution(oracle, x0, 0.02)
        assert np.abs(end - want).max() <= 1e-8

    def test_exact_trajectory_rejects_wrong_x0_length(self):
        # a length-1 x0 on the 2-variable system used to broadcast to [1, 1]
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        with pytest.raises(ValueError, match=r"x0 must have shape \(2,\), got \(1,\)"):
            dyn.exact_linear_trajectory(oracle, [1.0], 0.1, 5)
        with pytest.raises(ValueError, match=r"x0 must have shape \(2,\), got \(3,\)"):
            dyn.exact_linear_trajectory(oracle, [1.0, 0.0, 0.0], 0.1, 5)

    def test_exact_trajectory_matches_pointwise_solution(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        x0 = np.array([1.0, 1.0])
        traj = dyn.exact_linear_trajectory(oracle, x0, 0.1, 12)
        for k in (0, 5, 12):
            np.testing.assert_allclose(
                traj[k], dyn.exact_linear_solution(oracle, x0, 0.1 * k), atol=1e-12
            )


class TestMemoryIntegral:
    def test_zero_history_gives_zero(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        hist = np.zeros((51, 1))
        np.testing.assert_array_equal(
            dyn.mz_memory_integral(oracle, hist, t=1.0, truncation=0.5), [0.0]
        )

    def test_zero_truncation_gives_zero(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        np.testing.assert_array_equal(
            dyn.mz_memory_integral(oracle, np.ones((1, 1)), t=1.0, truncation=0.0),
            [0.0],
        )

    def test_insufficient_history_rejected(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        with pytest.raises(ValueError, match="insufficient history"):
            dyn.mz_memory_integral(oracle, np.ones((1, 1)), t=1.0, truncation=0.5)

    def test_truncation_beyond_current_time_rejected(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        with pytest.raises(ValueError, match="exceeds"):
            dyn.mz_memory_integral(oracle, np.ones((3, 1)), t=0.3, truncation=0.5)

    def test_quadrature_order(self):
        # halving the history spacing should cut the quadrature error ~4x
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        x0 = np.array([1.7, -0.9])
        t = 1.0

        def approx(m):
            full = dyn.exact_linear_trajectory(oracle, x0, t / m, m)
            return dyn.mz_memory_integral(oracle, full[:, :1], t, t)[0]

        fine = approx(8192)
        err_coarse = abs(approx(64) - fine)
        err_half = abs(approx(128) - fine)
        assert 3.0 <= err_coarse / err_half <= 5.0


class TestNoiseTerm:
    def test_zero_initial_unobserved(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example1"))
        np.testing.assert_array_equal(
            dyn.mz_noise_term(oracle, np.zeros(1), 2.0), [0.0]
        )

    def test_t0_is_coupling_times_w0(self):
        oracle = dyn.oracle_for_system(dyn.make_system("example4"))
        rng = np.random.default_rng(14)
        w0 = rng.normal(size=10)
        np.testing.assert_allclose(
            dyn.mz_noise_term(oracle, w0, 0.0), oracle.a12 @ w0, atol=1e-14
        )


class TestDecompositionIdentity:
    """Markov + memory + unobserved-initial terms must equal dz/dt."""

    @pytest.mark.parametrize("name", ["example1", "example4"])
    def test_reproduces_derivative_of_exact_solution(self, name):
        spec = dyn.make_system(name)
        oracle = dyn.oracle_for_system(spec)
        rng = np.random.default_rng(33)
        for _ in range(5):
            x0 = rng.uniform(-1.5, 1.5, size=spec.n)
            t = rng.uniform(0.2, 1.2)
            got = dyn.linear_mz_rhs(oracle, x0, t)
            h = 1e-5
            hi = dyn.exact_linear_solution(oracle, x0, t + h)[: spec.d]
            lo = dyn.exact_linear_solution(oracle, x0, t - h)[: spec.d]
            assert np.abs(got - (hi - lo) / (2 * h)).max() <= 1e-5

    def test_identity_pins_noise_coefficient(self):
        # with the transposed coupling in the propagated-initial-state term
        # the decomposition does NOT close, so the coefficient choice is
        # observable, not a convention
        spec = dyn.make_system("example1", alpha=2.0)
        oracle = dyn.oracle_for_system(spec)
        x0 = np.array([0.8, 1.1])
        t = 0.7
        h = 1e-5
        hi = dyn.exact_linear_solution(oracle, x0, t + h)[:1]
        lo = dyn.exact_linear_solution(oracle, x0, t - h)[:1]
        derivative = (hi - lo) / (2 * h)
        good = dyn.linear_mz_rhs(oracle, x0, t)
        wrong_noise = (
            good
            - dyn.mz_noise_term(oracle, x0[1:], t)
            + oracle.a21 @ (dyn.matrix_exponential(oracle.a22 * t) @ x0[1:])
        )
        assert np.abs(good - derivative).max() <= 1e-5
        assert np.abs(wrong_noise - derivative).max() > 1e-2


class TestHomogenizedRhs:
    def test_direct_substitution(self):
        np.testing.assert_allclose(
            dyn.homogenized_rhs([0.0, 0.0, 0.0]), [0.0, 0.0, 0.2]
        )
        np.testing.assert_allclose(
            dyn.homogenized_rhs([5.0, 0.0, 1.0]), [-1.0, 5.0, 0.2]
        )
        np.testing.assert_allclose(
            dyn.homogenized_rhs([1.0, 1.0, 1.0]), [-2.0, 1.2, -3.8]
        )

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="3-dimensional"):
            dyn.homogenized_rhs([1.0, 2.0])


class TestExample4Assembly:
    # frozen at transcription time; guards the packaged matrix file
    CHECKSUMS = {
        "SIGMA11": (-0.014024999999999992, 0.9363309999999999),
        "SIGMA12": (-0.018381999999999996, 0.9172880000000001),
        "SIGMA21": (0.17397469999999995, 0.7167487),
        "SIGMA22": (9.388999999999998, 49.16420000000001),
    }

    def test_transcription_checksums(self):
        sigma = dyn.example4_sigma()
        for name, (total, abs_total) in self.CHECKSUMS.items():
            assert sigma[name].shape == (10, 10)
            np.testing.assert_allclose(sigma[name].sum(), total, rtol=1e-13)
            np.testing.assert_allclose(np.abs(sigma[name]).sum(), abs_total,
                                       rtol=1e-13)

    def test_symmetric_unobserved_coupling(self):
        sigma = dyn.example4_sigma()
        np.testing.assert_array_equal(sigma["SIGMA22"], sigma["SIGMA22"].T)

    def test_block_matrix_reproduces_rhs(self):
        spec = dyn.make_system("example4")
        oracle = dyn.oracle_for_system(spec)
        full = oracle.full_matrix()
        rng = np.random.default_rng(17)
        states = rng.uniform(-2, 2, size=(20, 20))
        np.testing.assert_allclose(
            states @ full.T, dyn.eval_rhs(spec, states), rtol=0, atol=1e-12
        )

    def test_block_structure(self):
        sigma = dyn.example4_sigma()
        oracle = dyn.oracle_for_system(dyn.make_system("example4"))
        eye = np.eye(10)
        np.testing.assert_array_equal(oracle.a11, sigma["SIGMA11"])
        np.testing.assert_array_equal(oracle.a12, eye + sigma["SIGMA12"])
        np.testing.assert_array_equal(oracle.a21, -(eye + sigma["SIGMA21"]))
        np.testing.assert_array_equal(oracle.a22, -sigma["SIGMA22"])
