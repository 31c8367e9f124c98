"""Tests for benchmark systems, integration, and the exact linear references."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from conftest import assert_compared_by_identity, assert_compared_by_value
from memflow import data, rollout
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
    """Each built-in's ``spec.rhs``, evaluated at known states."""

    def test_example1_direct_substitution(self):
        spec = dyn.make_system("example1", alpha=2.0)
        np.testing.assert_allclose(spec.rhs([1.0, 0.0]), [1.0, 4.0])

    def test_example2_equilibrium(self):
        spec = dyn.make_system("example2", alpha=0.1, beta=8.91)
        np.testing.assert_allclose(spec.rhs([0.0, 0.0]), [0.0, 0.0])

    def test_example3_direct_substitution(self):
        # x2 != x3, so the fast variable's target x1*x3 = 2 is told apart
        # from x1*x2 = 1
        spec = dyn.make_system("example3", epsilon=0.01)
        np.testing.assert_allclose(
            spec.rhs([1.0, 1.0, 2.0, 0.0]), [-3.0, 1.2, -9.8, 200.0]
        )

    def test_dimension_mismatch_rejected(self):
        for name in ("example1", "example2"):
            spec = dyn.make_system(name)
            with pytest.raises(ValueError, match=f"{name} state has dimension 2, got 3"):
                spec.rhs([1.0, 0.0, 0.0])

    def test_batched_evaluation(self):
        for name in ("example2", "example4"):
            spec = dyn.make_system(name)
            states = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, spec.n))
            batched = spec.rhs(states)
            for row_in, row_out in zip(states, batched):
                np.testing.assert_allclose(
                    spec.rhs(row_in), row_out, rtol=0, atol=1e-14
                )

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            dyn.make_system("example9")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            dyn.make_system("example1", gamma=3.0)

    @pytest.mark.parametrize("epsilon, shown", [(0, "0.0"), (-0.5, "-0.5")])
    def test_example3_epsilon_not_positive_rejected(self, epsilon, shown):
        with pytest.raises(ValueError, match=f"^epsilon must be positive, got {shown}$"):
            dyn.make_system("example3", epsilon=epsilon)

    @pytest.mark.parametrize("params", [{"d": 1}, {"matrix": -np.eye(2)}, {}],
                             ids=["no-matrix", "no-d", "neither"])
    def test_generic_system_without_matrix_or_d_rejected(self, params):
        with pytest.raises(ValueError, match=(
                "^linear-generic requires 'matrix' and 'd' parameters$")):
            dyn.make_system("linear-generic", **params)

    def test_numpy_scalar_parameters_accepted(self):
        spec = dyn.make_system("linear-generic", matrix=-np.eye(3), d=np.int64(1),
                               observe=np.int64(2))
        assert spec.d == 2 and type(spec.d) is int
        spec = dyn.make_system("example2", alpha=np.float64(0.5))
        np.testing.assert_allclose(spec.rhs([0.0, 1.0]), [1.0, -0.5])

    @pytest.mark.parametrize("name, key, value, shown", [
        ("example1", "alpha", float("nan"), "nan"),
        ("example2", "alpha", np.float64("nan"), r"np\.float64\(nan\)"),
        ("example2", "beta", float("-inf"), "-inf"),
        ("example3", "epsilon", float("inf"), "inf"),
    ])
    def test_non_finite_parameters_rejected(self, name, key, value, shown):
        with pytest.raises(ValueError, match=f"^{name} parameter '{key}' must be "
                           f"a finite number, got {shown}$"):
            dyn.make_system(name, **{key: value})

    @pytest.mark.parametrize("matrix", [
        [["-1", "0.5"], ["0", "-2"]],
        [[True, False], [False, True]],
        [[-1.0, True], [0.0, -2.0]],
    ], ids=["strings", "bools", "one-bool"])
    def test_generic_matrix_of_non_numbers_rejected(self, matrix):
        with pytest.raises(ValueError, match=(
                "^linear-generic matrix must hold numbers$")):
            dyn.make_system("linear-generic", matrix=matrix, d=1)


class TestSystemSpec:
    def test_observed_dimension_bounds(self):
        with pytest.raises(ValueError, match="observed dimension"):
            dyn.SystemSpec(name="x", d=3, field=("x0", "x1"))

    @pytest.mark.parametrize("d, message", [
        (1.5, "d must be an integer, got 1.5"),
        (True, "d must be an integer, got True"),
        (0, "d must be >= 1, got 0"),
    ])
    def test_dimension_that_is_not_a_count_rejected(self, d, message):
        # d=1.5 was accepted and observe then raised a TypeError
        with pytest.raises(ValueError, match=f"^{message}$"):
            dyn.SystemSpec(name="x", d=d, field=("x1", "-x0"))

    def test_integral_dimensions_stored_as_ints(self):
        spec = dyn.SystemSpec(name="x", d=np.int32(1), field=("x1", "-x0"))
        assert (spec.n, spec.d) == (2, 1)
        assert type(spec.n) is int and type(spec.d) is int

    @pytest.mark.parametrize("name, n", [
        ("example1", 2), ("example2", 2), ("example3", 4), ("example3-reduced", 3),
        ("example4", 20),
    ])
    def test_builtin_size_is_read_from_its_matrix_or_field(self, name, n):
        spec = dyn.make_system(name)
        assert spec.n == n and type(spec.n) is int
        assert spec.n == len(spec.field if spec.a_matrix is None else spec.a_matrix)

    def test_generic_linear_size_is_read_from_its_matrix(self):
        spec = dyn.make_system("linear-generic", matrix=-np.eye(5), d=2)
        assert (spec.n, spec.d) == (5, 2)
        assert dyn.default_domain(spec).n == 5

    def test_spec_takes_no_size(self):
        with pytest.raises(TypeError, match="'n'"):
            dyn.SystemSpec(name="x", n=2, d=1, field=("x1", "-x0"))

    def test_size_follows_a_replaced_matrix(self):
        b = np.diag([-1.0, -2.0, -3.0])
        spec = dataclasses.replace(dyn.make_system("example1"), a_matrix=b)
        assert spec.n == 3
        solver, x0s = dyn.SolverConfig(0.1, 2), [[1.0, 1.0, 1.0]]
        traj = dyn.integrate_batch(spec, solver, x0s, 4)
        assert traj.shape == (1, 5, 3)
        own = dyn.SystemSpec(name="example1", d=1, a_matrix=b)
        assert traj.tobytes() == dyn.integrate_batch(own, solver, x0s, 4).tobytes()

    def test_size_follows_a_replaced_field(self):
        spec = dataclasses.replace(dyn.make_system("example2"),
                                   field=("x1", "x2", "-x0"), params={})
        assert spec.n == 3
        np.testing.assert_array_equal(spec.rhs([1.0, 2.0, 3.0]), [2.0, 3.0, -1.0])

    def test_observed_dimension_above_a_replaced_size_rejected(self):
        with pytest.raises(ValueError, match=(
                r"^observed dimension d=3 must satisfy 1 <= d <= n=2$")):
            dataclasses.replace(dyn.make_system("example3-reduced"),
                                field=("x1", "-x0"))

    def test_exactly_one_description_required(self):
        with pytest.raises(ValueError, match="none needs exactly one of a_matrix and field"):
            dyn.SystemSpec(name="none", d=1)
        with pytest.raises(ValueError, match="both needs exactly one of a_matrix and field"):
            dyn.SystemSpec(name="both", d=1, a_matrix=np.eye(1),
                           field=("x0",))

    def test_rhs_follows_a_replaced_matrix(self):
        spec = dataclasses.replace(dyn.make_system("example1"), a_matrix=-np.eye(2))
        np.testing.assert_array_equal(spec.rhs([1.0, 0.0]), [-1.0, 0.0])

    def test_observe_projects_leading_components(self):
        spec = dyn.make_system("example3")
        state = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(spec.observe(state), [1.0, 2.0, 3.0])

    def test_observe_override(self):
        spec = dyn.make_system("example1", alpha=2.0, observe=2)
        assert spec.d == 2

    def test_observe_override_on_generic_linear(self):
        matrix = [[0.0, 1.0], [-1.0, 0.0]]
        spec = dyn.make_system("linear-generic", matrix=matrix, d=1, observe=2)
        assert spec.d == 2
        assert dyn._blocks(spec)[0].shape == (2, 2)

    def test_matrix_alone_is_a_linear_system(self):
        a = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 3))
        spec = dyn.SystemSpec(name="lin", d=1, a_matrix=a)
        x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 5, 3))
        assert spec.rhs(x).tobytes() == (x @ a.T).tobytes()
        assert spec.rhs(x.tolist()).tobytes() == (x @ a.T).tobytes()

    def test_nested_list_matrix_is_stored_as_an_array(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        listed = dyn.SystemSpec(name="lst", d=1, a_matrix=a.tolist())
        owned = dyn.SystemSpec(name="arr", d=1, a_matrix=a)
        a[0, 1] = 5.0  # the spec holds a copy of its own
        np.testing.assert_array_equal(owned.a_matrix, listed.a_matrix)
        assert listed.rhs([1.0, 0.0]).tobytes() == owned.rhs([1.0, 0.0]).tobytes()
        solver = dyn.SolverConfig(0.1, 2)
        np.testing.assert_array_equal(
            dyn.integrate_batch(listed, solver, [[1.0, 0.5]], 4),
            dyn.integrate_batch(owned, solver, [[1.0, 0.5]], 4),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="lin matrix must be finite-valued"):
            dyn.SystemSpec(name="lin", d=1, a_matrix=[[0.0, bad], [1.0, 0.0]])

    @pytest.mark.parametrize("width", [1, 3])
    def test_observe_of_another_state_width_rejected(self, width):
        spec = dyn.make_system("example2")
        with pytest.raises(ValueError, match=(
                f"^state dimension {width} does not match n=2$")):
            spec.observe(np.zeros((4, width)))

    @pytest.mark.parametrize("state", [np.float64(1.0), 1.0, np.array(1.0)],
                             ids=["numpy-scalar", "float", "0-d-array"])
    def test_state_without_axes_rejected(self, state):
        # a state without axes has no last axis to hold n components
        spec = dyn.make_system("example2")
        with pytest.raises(ValueError, match="^state dimension 0-d does not match n=2$"):
            spec.observe(state)
        with pytest.raises(ValueError, match="^example2 state has dimension 2, got 0-d$"):
            spec.rhs(state)

    def test_linear_builtins_share_their_matrix_rhs(self):
        for name in ("example1", "example4"):
            spec = dyn.make_system(name)
            states = np.random.default_rng(17).uniform(-2.0, 2.0, size=(6, spec.n))
            np.testing.assert_array_equal(spec.rhs(states), states @ spec.a_matrix.T)

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


class TestEquality:
    @pytest.mark.parametrize("make", [
        lambda: dyn.make_system("example1"),
        lambda: dyn.make_system("example2"),
        lambda: dyn.default_domain(dyn.make_system("example2")),
    ], ids=["matrix-spec", "field-spec", "domain"])
    def test_containers_compare_by_identity(self, make):
        # a spec or domain holding an array raised ValueError on == and
        # TypeError on hash
        assert_compared_by_identity(make)

    def test_solver_config_compares_by_value(self):
        assert_compared_by_value(lambda: dyn.SolverConfig(0.05, 4))


class TestFieldExpressions:
    """A field is ``n`` expressions in a small language, checked when the
    spec is built; only checked expressions are compiled."""

    LANGUAGE = "only components, parameters, numbers, + - * / ** and sin, cos, exp"

    @pytest.mark.parametrize("text, part", [
        ("x0.__class__", "x0.__class__"),
        ("open('memflow.txt')", "open('memflow.txt')"),
        ("x0 + y", "y"),
        ("x0[0]", "x0[0]"),
        ("lambda x0: x0", "lambda x0: x0"),
        ("x0 < 1.0", "x0 < 1.0"),
        ("'x0'", "'x0'"),
        ("sin(x0, x0)", "sin(x0, x0)"),
        ("exp(x=x0)", "exp(x=x0)"),
        ("sin + x0", "sin"),
        ("x0 // 2.0", "x0 // 2.0"),
        ("True * x0", "True"),
        ("2j * x0", "2j"),
    ], ids=["attribute", "other-call", "unknown-name", "subscript", "lambda",
            "comparison", "string", "two-arguments", "keyword-argument",
            "bare-function", "floor-division", "bool", "complex"])
    def test_outside_the_language_rejected(self, text, part):
        with pytest.raises(ValueError, match=(
                f"^lang field expression {re.escape(repr(text))} may not use "
                f"{re.escape(repr(part))}: {re.escape(self.LANGUAGE)}$")):
            dyn.SystemSpec(name="lang", d=1, field=("x1", text),
                           params={"alpha": 1.0})

    @pytest.mark.parametrize("text", ["x0 +", "x0 = 1.0", "x0; x1", "", 1.5])
    def test_not_an_expression_rejected(self, text):
        with pytest.raises(ValueError, match=(
                f"^lang field expression {re.escape(repr(text))} is not "
                f"a Python expression$")):
            dyn.SystemSpec(name="lang", d=1, field=("x1", text))

    @pytest.mark.parametrize("field", [lambda x, m: (x[1], -x[0]), "x1"],
                             ids=["callable", "string"])
    def test_field_that_is_not_a_sequence_of_expressions_rejected(self, field):
        with pytest.raises(ValueError, match=(
                "^lang field must be a sequence of expression strings")):
            dyn.SystemSpec(name="lang", d=1, field=field)

    @pytest.mark.parametrize("key", ["x0", "sin", "range", "_h", "None", "a b",
                                     "a=1", "\u03b1", 1])
    def test_parameter_name_outside_plain_identifiers_rejected(self, key):
        with pytest.raises(ValueError, match=(
                f"^lang parameter name {re.escape(repr(key))} is not allowed$")):
            dyn.SystemSpec(name="lang", d=1, field=("x1", "-x0"),
                           params={key: 1.0})

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "must be a finite number, got nan"),
        (float("inf"), "must be a finite number, got inf"),
        ("1.0", "must be a finite number, got '1.0'"),
        (True, "must be a finite number, got True"),
    ])
    def test_parameter_value_that_is_not_a_finite_number_rejected(self, value,
                                                                   message):
        with pytest.raises(ValueError, match=(
                f"^lang parameter 'alpha' {re.escape(message)}$")):
            dyn.SystemSpec(name="lang", d=1, field=("x1", "-alpha * x0"),
                           params={"alpha": value})

    def test_matrix_takes_no_parameters(self):
        with pytest.raises(ValueError, match=(
                "^lin: params name constants of a field; a matrix takes none$")):
            dyn.SystemSpec(name="lin", d=1, a_matrix=[[-1.0]],
                           params={"alpha": 1.0})
        assert dyn.make_system("example1").params == {}

    def test_stored_as_unparsed_with_float_parameters(self):
        # a comment, a line break inside parentheses and surrounding blanks
        # are not part of the expression; numbers become floats
        spec = dyn.SystemSpec(
            name="tidy", d=1,
            field=("  x1", "(-k *\n x0)  # spring"),
            params={"k": np.int64(4), "unused": np.float64(0.5)})
        assert spec.field == ("x1", "-k * x0")
        assert spec.params == {"k": 4.0, "unused": 0.5}
        assert all(type(v) is float for v in spec.params.values())
        np.testing.assert_array_equal(spec.rhs([[1.0, 2.0]]), [[2.0, -4.0]])
        assert dataclasses.replace(spec, d=2).field == spec.field

    def test_parameters_named_like_the_loop_variables(self):
        # the generated loop's own names start with "_", and it calls no
        # builtin but range, so these are free
        named = dyn.SystemSpec(
            name="names", d=1, field=("step * x1", "h - field * x0"),
            params={"step": 0.5, "field": 2.0, "h": 0.25, "delta": 9.0,
                    "len": 1.0, "tuple": 2.0, "isfinite": 3.0, "math": 4.0})
        plain = dyn.SystemSpec(name="plain", d=1,
                               field=("0.5 * x1", "0.25 - 2.0 * x0"))
        x0s = np.array([[0.3, -0.2]] * (dyn._FLOAT_ROWS + 1))
        for rows in (x0s[:1], x0s):
            got = dyn.integrate_batch(named, dyn.SolverConfig(0.1, 3), rows, 5)
            want = dyn.integrate_batch(plain, dyn.SolverConfig(0.1, 3), rows, 5)
            assert got.tobytes() == want.tobytes()

    def test_builtins_are_their_expressions(self):
        spec = dyn.make_system("example2", alpha=0.25, beta=3.0)
        assert spec.field == ("x1", "-alpha * x1 - beta * sin(x0)")
        assert spec.params == {"alpha": 0.25, "beta": 3.0}
        assert dyn.make_system("example3", epsilon=0.05).params == {"epsilon": 0.05}


class TestDomain:
    @pytest.mark.parametrize("lower, upper, match", [
        ([0.0, 0.0], [1.0, 0.0], "lower"),
        # each used to be accepted, and uniform draws on it then failed in
        # numpy with OverflowError: Range exceeds valid bounds
        ([-np.inf], [1.0], r"^domain width upper - lower must be finite, "
         r"got lower=\[-inf\], upper=\[1\.0\]$"),
        ([-1e308], [1e308], r"^domain width upper - lower must be finite, "
         r"got lower=\[-1e\+308\], upper=\[1e\+308\]$"),
        ([0.0, 0.0], [1.0], "^domain bounds must be 1-D vectors of equal length$"),
        ([0.0], [1.0, 1.0], "^domain bounds must be 1-D vectors of equal length$"),
        ([[0.0]], [[1.0]], "^domain bounds must be 1-D vectors of equal length$"),
    ], ids=["empty", "infinite-bound", "overflowing-width", "shorter-upper",
            "shorter-lower", "2-D"])
    def test_degenerate_bounds_rejected(self, lower, upper, match):
        with pytest.raises(ValueError, match=match):
            dyn.Domain(np.array(lower), np.array(upper))

    def test_defaults_exist_for_builtins(self):
        for name in ("example1", "example2", "example3", "example3-reduced",
                     "example4"):
            spec = dyn.make_system(name)
            dom = dyn.default_domain(spec)
            assert dom.n == spec.n

    def test_other_systems_default_to_minus_two_to_two(self):
        spec = dyn.make_system("linear-generic", matrix=-np.eye(3), d=1)
        dom = dyn.default_domain(spec)
        np.testing.assert_array_equal(dom.lower, [-2.0, -2.0, -2.0])
        np.testing.assert_array_equal(dom.upper, [2.0, 2.0, 2.0])

    def test_builtin_name_of_another_size_defaults_to_minus_two_to_two(self):
        # example1's own box is 2-D; a 3-D system of that name gets [-2, 2]^3
        spec = dyn.SystemSpec(name="example1", d=1, a_matrix=np.diag([-1.0, -2.0, -3.0]))
        dom = dyn.default_domain(spec)
        np.testing.assert_array_equal(dom.lower, [-2.0, -2.0, -2.0])
        np.testing.assert_array_equal(dom.upper, [2.0, 2.0, 2.0])
        trajs = data.generate_trajectories(spec, dyn.SolverConfig(0.1, 1), dom, 2, 3, 0)
        assert trajs.trajectories.shape == (2, 3, 1)


# example1 (alpha = 2) written as component expressions
example1_field = ("x0 - 4.0 * x1", "4.0 * x0 - 2.0 * x1")


class TestIntegrate:
    @pytest.mark.parametrize("delta", [True, "0.02", None])
    def test_step_that_is_not_a_number_rejected(self, delta):
        with pytest.raises(ValueError, match=(
                f"^delta must be a finite number, got {re.escape(repr(delta))}$")):
            dyn.SolverConfig(delta=delta)

    @pytest.mark.parametrize("delta, message", [
        (0.0, "delta must be > 0, got 0.0"),
        (-0.02, "delta must be > 0, got -0.02"),
        (float("inf"), "delta must be a finite number, got inf"),
        (float("nan"), "delta must be a finite number, got nan"),
    ])
    def test_step_that_is_not_positive_and_finite_rejected(self, delta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dyn.SolverConfig(delta=delta)

    @pytest.mark.parametrize("substeps, message", [
        (2.5, "substeps must be an integer, got 2.5"),
        (np.float64(3.0), "substeps must be an integer, got np.float64(3.0)"),
        (True, "substeps must be an integer, got True"),
        (0, "substeps must be >= 1, got 0"),
        ("3", "substeps must be an integer, got '3'"),
    ])
    def test_substeps_that_is_not_a_positive_integer_rejected(self, substeps,
                                                              message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dyn.SolverConfig(0.02, substeps)

    def test_integral_substeps_stored_as_int(self):
        solver = dyn.SolverConfig(0.02, np.int64(3))
        assert solver.substeps == 3 and type(solver.substeps) is int

    def test_one_step_matches_matrix_exponential(self):
        spec = dyn.make_system("example1", alpha=2.0)
        cfg = dyn.SolverConfig(delta=0.02, substeps=20)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x0 = rng.uniform(-2, 2, size=2)
            got = dyn.integrate_batch(spec, cfg, x0[None], 1)[0]
            np.testing.assert_array_equal(got[0], x0)
            want = dyn.exact_linear_solution(spec, x0, 0.02)
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
        spec = dyn.SystemSpec(name="still", d=2, field=("0.0", "0.0"))
        got = dyn.integrate_batch(spec, dyn.SolverConfig(0.5, 3), [[3.0, 7.0]], 6)
        np.testing.assert_array_equal(got, np.tile([3.0, 7.0], (1, 7, 1)))

    def test_rk4_convergence_order(self):
        # on the linear sample-matrix path, and on the stage loop through a
        # component field, which one row integrates on Python floats and a
        # batch wider than _FLOAT_ROWS on numpy columns
        linear = dyn.make_system("example1", alpha=2.0)
        x0 = np.array([1.3, -0.4])
        exact = dyn.exact_linear_solution(linear, x0, 1.0)
        substeps = [1, 2, 4, 8]
        fields = dyn.SystemSpec(name="example1-field", d=1,
                                field=example1_field)
        wide = np.tile(x0, (dyn._FLOAT_ROWS + 1, 1))
        for spec, x0s in ((linear, x0[None]), (fields, x0[None]), (fields, wide)):
            errors = []
            for s in substeps:
                end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, s), x0s, 50)
                errors.append(np.linalg.norm(end[-1, -1] - exact))
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

    def test_divergence_reports_sample_index(self):
        spec = dyn.SystemSpec(name="blowup", d=1, field=("x0 ** 2",))
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [[5.0]], 10)
        assert info.value.sample_index >= 1
        # a batch of one row still names its trajectory
        assert info.value.trajectory_index == 0
        assert f"trajectory 0 at sample {info.value.sample_index}" in str(info.value)
        with pytest.raises(ValueError, match=(
                r"x0s must have shape \(m, 1\) with m >= 1, got \(2,\)")):
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [5.0, 1.0], 10)
        with pytest.raises(ValueError, match="num_samples must be >= 0, got -1"):
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [[5.0]], -1)

    @pytest.mark.parametrize("name, rows", [
        ("example1", 3), ("example2", 3), ("example2", dyn._FLOAT_ROWS + 1),
    ], ids=["matrix", "float", "columns"])
    def test_zero_samples_return_the_initial_states(self, name, rows):
        spec = dyn.make_system(name)
        x0s = np.random.default_rng(5).uniform(-2.0, 2.0, size=(rows, 2))
        x0s[1, 0] = np.nan  # no sample is computed, so none is checked
        got = dyn.integrate_batch(spec, dyn.SolverConfig(0.1, 3), x0s, 0)
        assert got.shape == (rows, 1, 2)
        assert got.tobytes() == x0s[:, None].tobytes()

    @pytest.mark.parametrize("name", ["example1", "example2"])  # matrix, field
    def test_empty_batch_rejected(self, name):
        spec = dyn.make_system(name)
        with pytest.raises(ValueError, match=(
                r"^x0s must have shape \(m, 2\) with m >= 1, got \(0, 2\)$")):
            dyn.integrate_batch(spec, dyn.SolverConfig(0.1, 1), np.zeros((0, 2)), 3)

    def test_batch_matches_single(self):
        spec = dyn.make_system("example3", epsilon=0.05)
        cfg = dyn.SolverConfig(0.02, 5)
        rng = np.random.default_rng(4)
        x0s = rng.uniform(0.0, 1.0, size=(3, 4))
        batch = dyn.integrate_batch(spec, cfg, x0s, 8)
        for i in range(3):
            single = dyn.integrate_batch(spec, cfg, x0s[i : i + 1], 8)
            np.testing.assert_array_equal(batch[i], single[0])

    def test_batch_divergence_reports_trajectory(self):
        spec = dyn.SystemSpec(name="blowup", d=1, field=("x0 ** 2",))
        x0s = np.array([[0.0], [5.0]])
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), x0s, 10)
        assert info.value.trajectory_index == 1


def evaluated(spec):
    """Reference: ``spec``'s field expressions as a Python callable
    ``field(x, m)`` over a sequence of components ``x``, evaluated by
    ``eval`` with the math namespace ``m``'s sin, cos and exp."""
    codes = [compile(text, "<field>", "eval") for text in spec.field]

    def field(x, m):
        names = {"sin": m.sin, "cos": m.cos, "exp": m.exp, **spec.params,
                 **{f"x{i}": component for i, component in enumerate(x)}}
        return tuple(eval(code, {}, names) for code in codes)

    return field


def rk4_sample_step(field, m, state, delta, substeps):
    """Reference: the generic RK4 stage loop over a sequence of components.
    Advances ``state`` by one coarse step of ``delta``; a component is a
    float (one state) or an array holding it for a whole batch, and ``m``
    is the math namespace ``field`` uses on them."""
    h = delta / substeps
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        k1 = field(state, m)
        k2 = field([x + half * k for x, k in zip(state, k1)], m)
        k3 = field([x + half * k for x, k in zip(state, k2)], m)
        k4 = field([x + h * k for x, k in zip(state, k3)], m)
        state = [x + sixth * (a + 2.0 * b + 2.0 * c + e)
                 for x, a, b, c, e in zip(state, k1, k2, k3, k4)]
    return state


def stage_loop(spec, cfg, x0s, num_samples):
    """Reference: the RK4 stage loop on ``x @ a.T``, stepping the whole
    batch as its one component."""
    def field(x, m):
        return (x[0] @ spec.a_matrix.T,)

    states = [np.asarray(x0s, dtype=float)]
    for _ in range(num_samples):
        (state,) = rk4_sample_step(field, np, states[-1:], cfg.delta,
                                   cfg.substeps)
        states.append(state)
    return np.stack(states, axis=1)


# Lorenz-96 with five components and forcing 8, plus a sine term so that
# the math namespace is used: a field no built-in has
lorenz96_field = tuple(
    f"(x{(i + 1) % 5} - x{(i - 2) % 5}) * x{(i - 1) % 5} - x{i} + forcing"
    f" + 0.1 * sin(x{i})" for i in range(5)
)


# Every construct the field language allows: a bare component, a constant
# and a bare parameter as whole components; unary + and -, + - * /, ** with
# exponents 2, 0.5, -1 and 3, with an array exponent and with a parameter
# as base; sin, cos and exp; parts made of parameters alone (beta ** 2,
# -beta * exp(-alpha)) and of numbers alone (cos(2.0))
LANGUAGE = dyn.SystemSpec(name="language", d=1, field=(
    "x1", "-0.5", "alpha",
    "-x3 + 0.1 * (+x0 - x1 * x2 / 5.0 + (x0 * x0 + 1.0) ** 0.5 + x1 ** 2"
    " - (2.0 + x2 * x2) ** -1 + x0 ** 3 * beta ** 2)",
    "-x4 * gamma + sin(x0) * cos(x1) - exp(-x2 * gamma) + -beta * exp(-alpha)"
    " + beta ** x1 * 0.1",
    "-(x5 * 2.0) + (x0 * x0 + 1.0) ** (x1 * 0.1) + cos(2.0) * x0"),
    params={"alpha": 0.3, "beta": 1.5, "gamma": 0.7})


GENERATED_STEP_FIELDS = {
    1: dyn.SystemSpec(name="cos", d=1, field=("-x0 + 0.5 * cos(x0)",)),
    2: dyn.make_system("example2"),
    3: dyn.make_system("example3-reduced"),
    4: dyn.make_system("example3", epsilon=0.05),
    5: dyn.SystemSpec(name="lorenz96", d=1, field=lorenz96_field,
                      params={"forcing": 8.0}),
    6: LANGUAGE,
}


RANDOM3 = dyn.SystemSpec(
    name="linear-generic", d=1,
    a_matrix=np.random.default_rng(7).normal(size=(3, 3)) - 2.0 * np.eye(3))


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

    def test_divergence_reports_sample_and_trajectory(self):
        # dx/dt = x with h = 1: each sample multiplies by R(1) = 65/24, so
        # from 1e300 the state is 1.66e308 at sample 19 and overflows at 20
        spec = dyn.SystemSpec(name="linear-generic", d=1, a_matrix=[[1.0]])
        cfg = dyn.SolverConfig(1.0, 1)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, cfg, np.array([[1.0], [1e300]]), 25)
        assert (info.value.sample_index, info.value.trajectory_index) == (20, 1)
        assert "trajectory 1 at sample 20" in str(info.value)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, cfg, np.array([[1e300]]), 25)
        assert (info.value.sample_index, info.value.trajectory_index) == (20, 0)


def matrix_failure(spec, cfg, x0s, num_samples):
    """Reference: ``(sample, row)`` of the first non-finite state of the
    linear path stepped one product at a time and checked every sample."""
    step_t = dyn._rk4_sample_matrix(spec.a_matrix, cfg.delta, cfg.substeps).T
    state = np.asarray(x0s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, num_samples + 1):
            state = state @ step_t
            bad = ~np.isfinite(state).all(axis=1)
            if bad.any():
                return k, int(np.argmax(bad))
    return None


class TestMatrixBlocks:
    """The linear path runs all its products, then checks its states once,
    and names the sample and row that a check after every sample names,
    also at samples 64, 65 and 128, past the first 64.  dx/dt = x with
    h = 1 multiplies by R(1) = 65/24 per sample, so from
    MAX / R(1)**(k - 0.5) the state first overflows at sample k."""

    SPEC = dyn.SystemSpec(name="linear-generic", d=1, a_matrix=[[1.0]])
    CFG = dyn.SolverConfig(1.0, 1)

    @staticmethod
    def failing_at(k):
        return np.finfo(float).max / (65.0 / 24.0) ** (k - 0.5)

    @pytest.mark.parametrize("rows, want", [
        # inside the first 64 samples: a later row fails first, a tie after it
        ([1.0, 30, 20, 20], (20, 2)),
        # sample 64, and a row failing just after it
        ([65, 64, 1.0], (64, 1)),
        # sample 65, the one before it finite
        ([1.0, 66, 65], (65, 2)),
        # sample 128, twice 64
        ([128, 129], (128, 0)),
    ], ids=["inside", "block-end", "block-start", "second-block-end"])
    def test_failure_named_as_a_per_sample_check_names_it(self, rows, want):
        x0s = np.array([[1.0 if k == 1.0 else self.failing_at(k)] for k in rows])
        assert matrix_failure(self.SPEC, self.CFG, x0s, 200) == want
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(self.SPEC, self.CFG, x0s, 200)
        k, row = want
        assert (info.value.sample_index, info.value.trajectory_index) == want
        assert str(info.value) == (f"non-finite state in trajectory {row} at "
                                   f"sample {k} (t={k:g}) while integrating "
                                   f"linear-generic")

    def test_finite_run_past_several_blocks_is_the_product_chain(self):
        x0s = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 2))
        spec, cfg = dyn.make_system("example1"), dyn.SolverConfig(0.02, 4)
        got = dyn.integrate_batch(spec, cfg, x0s, 133)
        step_t = dyn._rk4_sample_matrix(spec.a_matrix, 0.02, 4).T
        want = [x0s]
        for _ in range(133):
            want.append(want[-1] @ step_t)
        assert got.tobytes() == np.stack(want, axis=1).tobytes()


class TestExactReducedMap:
    """z_{n+1} = L h_n with L = C S O^+ on RK4-sampled linear trajectories.

    Bound 1e-13 on states of size about 2; measured at most 1.1e-14 (states
    through integrate_batch) and 9e-15 (L O against C S).
    """

    @pytest.mark.parametrize("name", ["example1", "example4"])
    @pytest.mark.parametrize("n_mem", [1, 5, 30])
    def test_history_maps_to_the_next_observed_state(self, name, n_mem):
        spec = dyn.make_system(name)
        solver = dyn.SolverConfig(0.02, 20)
        big_l, obs = dyn.exact_reduced_map(spec, solver, n_mem)
        width = spec.d * (n_mem + 1)
        assert big_l.shape == (spec.d, width) and obs.shape == (width, spec.n)
        x0s = np.random.default_rng(n_mem).uniform(-2.0, 2.0, size=(6, spec.n))
        states = dyn.integrate_batch(spec, solver, x0s, n_mem + 1)
        history = states[:, n_mem::-1, : spec.d].reshape(6, width)
        assert np.abs(states[:, n_mem] @ obs.T - history).max() < 1e-13
        assert np.abs(history @ big_l.T - states[:, -1, : spec.d]).max() < 1e-13
        step = dyn._rk4_sample_matrix(spec.a_matrix, 0.02, 20)
        assert np.linalg.norm(big_l @ obs - step[: spec.d], 2) < 1e-13

    def test_fully_observed_without_memory_is_the_sample_matrix(self):
        spec = dyn.make_system("example1", observe=2)
        big_l, obs = dyn.exact_reduced_map(spec, dyn.SolverConfig(0.02, 5), 0)
        np.testing.assert_array_equal(obs, np.eye(2))
        np.testing.assert_allclose(
            big_l, dyn._rk4_sample_matrix(spec.a_matrix, 0.02, 5), atol=1e-15)

    def test_rank_deficient_history_rejected(self):
        # the hidden variable never reaches the observed one
        spec = dyn.SystemSpec(name="linear-generic", d=1,
                              a_matrix=[[-1.0, 0.0], [1.0, -2.0]])
        with pytest.raises(ValueError, match="observes rank 1 of the n=2"):
            dyn.exact_reduced_map(spec, dyn.SolverConfig(0.02, 5), 4)
        # without memory, one observed variable cannot pin two
        with pytest.raises(ValueError, match="n_mem=0 observes rank 1"):
            dyn.exact_reduced_map(dyn.make_system("example1"),
                                  dyn.SolverConfig(0.02, 5), 0)

    def test_negative_memory_rejected(self):
        with pytest.raises(ValueError, match="n_mem must be >= 0"):
            dyn.exact_reduced_map(dyn.make_system("example1"),
                                  dyn.SolverConfig(0.02, 5), -1)


@pytest.mark.parametrize("value", [True, 2.0, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name, call", [
    ("num_samples", lambda n: dyn.integrate_batch(
        dyn.make_system("example1"), dyn.SolverConfig(0.02, 5), [[1.0, 0.0]], n)),
    ("num_samples", lambda n: dyn.exact_linear_trajectory(
        dyn.make_system("example1"), [1.0, 0.0], 0.1, n)),
    ("n_mem", lambda n: dyn.exact_reduced_map(
        dyn.make_system("example1"), dyn.SolverConfig(0.02, 5), n)),
], ids=["integrate_batch", "exact_linear_trajectory", "exact_reduced_map"])
def test_counts_must_be_integers(name, call, value):
    # True used to run as 1, and 2.0 to fail inside numpy naming nothing
    with pytest.raises(ValueError, match=(
            f"^{name} must be an integer, got {re.escape(repr(value))}$")):
        call(value)


@pytest.mark.parametrize("value, message", [
    (True, "a finite number, got True"),
    ("0.1", "a finite number, got '0.1'"),
    (float("nan"), "a finite number, got nan"),
    (0.0, "> 0, got 0.0"),
], ids=["bool", "str", "nan", "zero"])
@pytest.mark.parametrize("call", [
    lambda delta: dyn.exact_linear_trajectory(
        dyn.make_system("example1"), [1.0, 0.0], delta, 3),
    lambda delta: rollout.euler_damz(
        dyn.make_system("example1"), np.zeros((3, 1)), 5, delta),
], ids=["exact_linear_trajectory", "euler_damz"])
def test_steps_must_be_positive_numbers(call, value, message):
    # True used to run as a step of 1
    with pytest.raises(ValueError, match=f"^delta must be {re.escape(message)}$"):
        call(value)


def test_integer_counts_of_numpy_type_accepted():
    spec = dyn.make_system("example1")
    out = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, 5), [[1.0, 0.0]],
                              np.int64(3))
    assert out.shape == (1, 4, 2)
    assert dyn.exact_reduced_map(spec, dyn.SolverConfig(0.02, 5),
                                 np.int32(2))[0].shape == (1, 3)


class TestComponentFields:
    """A field of component expressions integrates row by row on Python
    floats up to ``_FLOAT_ROWS`` rows and on the batch's numpy columns
    above; the two paths apply the same float operations in the same
    order."""

    CFG = dyn.SolverConfig(0.02, 10)

    def initial_states(self, spec, rows):
        x0s = data.sample_initial_conditions(dyn.default_domain(spec), rows, 8)
        if spec.name == "example3":
            x0s[:, 3] = x0s[:, 0] * x0s[:, 2]  # start on the slow manifold
        return x0s

    def float_rows_counted(self, monkeypatch):
        """Count the calls of the float path's row loop, one per row."""
        calls = []
        generate = dyn._generate

        def spied(spec):
            run, field, width = generate(spec)

            def counted(*args):
                calls.append(1)
                return run(*args)

            return counted, field, width

        monkeypatch.setattr(dyn, "_generate", spied)
        return calls

    @pytest.mark.parametrize("name", ["example2", "example3", "example3-reduced"])
    def test_float_rows_equal_whole_batch_bitwise(self, name, monkeypatch):
        # each width, on floats up to the cutoff and on columns above it,
        # gives the leading rows of the 600-row batch bit for bit
        spec = dyn.make_system(name)
        cut = dyn._FLOAT_ROWS
        x0s = self.initial_states(spec, 600)
        calls = self.float_rows_counted(monkeypatch)
        wide = dyn.integrate_batch(spec, self.CFG, x0s, 200)
        assert not calls
        for width in (1, 8, 9, 19, 20, 21, cut, cut + 1, 40):
            calls.clear()
            narrow = dyn.integrate_batch(spec, self.CFG, x0s[:width], 200)
            assert len(calls) == (width if width <= cut else 0)
            assert narrow.tobytes() == wide[:width].tobytes()
        one = dyn.integrate_batch(spec, self.CFG, x0s[cut : cut + 1], 200)
        assert one.tobytes() == wide[cut : cut + 1].tobytes()

    @pytest.mark.parametrize("n", sorted(GENERATED_STEP_FIELDS))
    def test_generated_step_equals_stage_loop_bitwise(self, n):
        """The step written out for n components, with the expressions
        inline, is the reference stage loop on the same expressions bit for
        bit, on Python floats with math and on numpy columns."""
        self.assert_generated_step_equals_stage_loop(GENERATED_STEP_FIELDS[n], n)

    @pytest.mark.parametrize("spec", GENERATED_STEP_FIELDS.values(),
                             ids=lambda spec: spec.name)
    def test_rhs_is_the_expressions_evaluated_bitwise(self, spec):
        # through the generated field, written in place, as the expressions
        # evaluated on the components give it
        field = evaluated(spec)
        rng = np.random.default_rng(5)
        for shape in [(spec.n,), (7, spec.n), (3, 4, spec.n)]:
            x = rng.uniform(-1.0, 1.0, size=shape)
            want = np.empty_like(x)
            for i, component in enumerate(field([x[..., i] for i in range(spec.n)], np)):
                want[..., i] = component
            got = spec.rhs(x)
            assert got.shape == shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [33, 64, 600])
    def test_wide_overflow_mid_run_names_the_per_sample_check(self, width):
        # x0 overflows at the second stage of sample 3 from 5.0 and later
        # from 1.0, and the third stage takes sin(inf); the in-place columns
        # run on to sample 10 and name what a check after every sample of
        # the reference stage loop names, sample 3 of the lower 5.0 row
        spec = dyn.SystemSpec(name="square-sin", d=1,
                              field=("x0 * x0", "sin(x0)"))
        cfg = dyn.SolverConfig(1.0, 1)
        x0s = np.zeros((width, 2))
        x0s[[1, width // 2], 0] = 1.0
        x0s[[width // 3, width - 1], 0] = 5.0
        field, state = evaluated(spec), list(x0s.T)
        with np.errstate(all="ignore"):
            for k in range(1, 11):
                state = rk4_sample_step(field, np, state, cfg.delta, cfg.substeps)
                bad = ~np.isfinite(np.array(state)).all(axis=0)
                if bad.any():
                    break
        assert (k, int(np.argmax(bad))) == (3, width // 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dyn.IntegrationError) as info:
                dyn.integrate_batch(spec, cfg, x0s, 10)
        assert (info.value.sample_index, info.value.trajectory_index) == (3, width // 3)

    def test_parameter_only_parts_folded_bitwise(self):
        # -alpha, -beta and -beta * exp(-alpha) read no component: each is a
        # local computed once per call, and the loop still gives the
        # reference's bits
        spec = dyn.SystemSpec(
            name="folded", d=1,
            field=("-alpha * x1 + x0 * -beta",
                   "-alpha * x1 - beta * sin(x0) + -beta * exp(-alpha) * cos(x0)"),
            params={"alpha": 0.3, "beta": 2.5})
        run, field, _ = dyn._generate(spec)
        for code in (run.__code__, field.__code__):
            assert {"_p0", "_p1", "_p2"} <= set(code.co_varnames)
            assert "_p3" not in code.co_varnames
        self.assert_generated_step_equals_stage_loop(spec, 11)
        # on both paths, the bits of the same field with the numbers written in
        plain = dyn.SystemSpec(
            name="plain", d=1,
            field=("-0.3 * x1 + x0 * -2.5",
                   "-0.3 * x1 - 2.5 * sin(x0) + -2.5 * exp(-0.3) * cos(x0)"))
        x0s = np.random.default_rng(2).uniform(-1.0, 1.0, size=(dyn._FLOAT_ROWS + 1, 2))
        for rows in (x0s[:3], x0s):
            got = dyn.integrate_batch(spec, self.CFG, rows, 40)
            want = dyn.integrate_batch(plain, self.CFG, rows, 40)
            assert got.tobytes() == want.tobytes()

    def test_loop_compiled_once_per_field_parameters_and_module(self, monkeypatch):
        # the float loop and the column field come from one compile; an
        # equal spec, built again, reuses both and compiles nothing; specs
        # differing in one parameter, 0.0 against -0.0 too, never share
        # them; and the cached pair gives a fresh compile's bits
        sources = []

        def counted_exec(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(dyn, "exec", counted_exec, raising=False)
        dyn._compile.cache_clear()
        x0s = self.initial_states(dyn.make_system("example2"), dyn._FLOAT_ROWS + 1)
        runs = [(x0s[:3], 40), (x0s, 40)]  # floats with math, columns with numpy
        first = [dyn.integrate_batch(dyn.make_system("example2"), self.CFG, *run)
                 for run in runs]
        assert len(sources) == 1
        again = [dyn.integrate_batch(dyn.make_system("example2"), self.CFG, *run)
                 for run in runs]
        assert len(sources) == 1
        assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
        spec = dyn.make_system("example2")
        assert dyn._generate(spec) is dyn._generate(dyn.make_system("example2"))
        for a, b in ((0.1, np.nextafter(0.1, 1.0)), (0.0, -0.0)):
            one, other = (dyn.make_system("example2", alpha=x) for x in (a, b))
            for made, other_made in zip(dyn._generate(one)[:2], dyn._generate(other)[:2]):
                assert made is not other_made
        dyn._compile.cache_clear()
        fresh = [dyn.integrate_batch(spec, self.CFG, *run) for run in runs]
        assert [a.tobytes() for a in fresh] == [a.tobytes() for a in first]

    def assert_generated_step_equals_stage_loop(self, spec, seed):
        """The float loop on one row with math, and the column path in place
        at 33, 64 and 600 rows with numpy, are the reference stage loop on
        the same expressions bit for bit over 30 samples."""
        n = spec.n
        field = evaluated(spec)
        rows = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(600, n))
        step = dyn._generate(spec)[0]
        got, want = [tuple(rows[0].tolist())], [rows[0].tolist()]
        step(got, 30, 0.02, 4)  # one call runs the 30 samples
        for _ in range(30):
            want.append(rk4_sample_step(field, math, want[-1], 0.02, 4))
        assert all(isinstance(x, tuple) and len(x) == n for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        for width in (33, 64, 600):
            assert width > dyn._FLOAT_ROWS
            got = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, 4), rows[:width], 30)
            want = [list(rows[:width].T)]
            for _ in range(30):
                want.append(rk4_sample_step(field, np, want[-1], 0.02, 4))
            assert got.tobytes() == np.array(want).transpose(2, 0, 1).tobytes()

    def test_rhs_made_from_the_field(self):
        spec = dyn.SystemSpec(name="e1", d=1, field=example1_field)
        x = np.random.default_rng(2).uniform(-2.0, 2.0, size=(3, 4, 2))
        want = x @ dyn.make_system("example1").a_matrix.T
        np.testing.assert_allclose(spec.rhs(x), want, rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="e1 state has dimension 2, got 3"):
            spec.rhs([1.0, 2.0, 3.0])

    def assert_same_failure(self, spec, cfg, x0s, num_samples, want):
        errors = []
        for rows in (x0s[: dyn._FLOAT_ROWS], x0s):
            with pytest.raises(dyn.IntegrationError) as info:
                dyn.integrate_batch(spec, cfg, rows, num_samples)
            errors.append(info.value)
        narrow, wide = errors
        assert (narrow.sample_index, narrow.trajectory_index) == want
        assert (wide.sample_index, wide.trajectory_index) == want
        assert str(narrow) == str(wide)
        assert "math" not in str(narrow)

    def test_overflow_fails_alike_on_both_paths(self):
        # dx/dt = x * x from 5 with h = 1: the state is 1.0e8 at sample 1 and
        # 7e123 at sample 2, and a stage overflows to inf at sample 3; floats
        # overflow silently, as numpy does.  Rows 3 and 5 fail first, row 1
        # later.
        spec = dyn.SystemSpec(name="square", d=1, field=("x0 * x0",))
        x0s = np.zeros((dyn._FLOAT_ROWS + 1, 1))
        x0s[[3, 5]] = 5.0
        x0s[1] = 0.5
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), x0s[1:2], 10)
        later = info.value.sample_index
        self.assert_same_failure(spec, dyn.SolverConfig(1.0, 1), x0s, 10, (3, 3))
        assert later > 3

    def test_sin_of_inf_mid_sample_fails_alike_on_both_paths(self, monkeypatch):
        # x0 overflows at the second stage of sample 3, and the third stage
        # takes sin(inf): math raises ValueError there, numpy returns NaN
        spec = dyn.SystemSpec(name="square-sin", d=1,
                              field=("x0 * x0", "sin(x0)"))
        x0s = np.zeros((dyn._FLOAT_ROWS + 1, 2))
        x0s[4, 0] = 5.0
        with pytest.raises(ValueError, match="math domain error"):
            math.sin(math.inf)
        # the float path raised at row 4, and the narrow batch ran again on
        # its columns
        retried = []
        generate = dyn._generate

        def spied(spec):
            run, field, width = generate(spec)

            def counted(*arrays):
                retried.append(len(arrays[0]))
                return field(*arrays)

            return run, counted, width

        monkeypatch.setattr(dyn, "_generate", spied)
        self.assert_same_failure(spec, dyn.SolverConfig(1.0, 1), x0s, 10, (3, 4))
        # the four stages of the 10 samples of the narrow batch's columns,
        # then those of the wide batch's: both check once after the 10th
        assert retried == [dyn._FLOAT_ROWS] * 40 + [dyn._FLOAT_ROWS + 1] * 40

    def test_float_row_overflowing_mid_run_appends_every_sample(self, monkeypatch):
        # dx/dt = x * x from 5.0 with h = 1 overflows at sample 3: the row's
        # loop checks nothing and appends all 10 samples, non-finite from
        # sample 3 on, and the check after the loop names sample 3 of row 0
        spec = dyn.SystemSpec(name="square", d=1, field=("x0 * x0",))
        appended = []
        generate = dyn._generate

        def spied(spec):
            run, _, width = generate(spec)

            def recorded(states, *rest):
                run(states, *rest)
                appended.append([s[0] for s in states[1:]])

            def columns(*arrays):
                raise AssertionError("the row ran again on columns")

            return recorded, columns, width

        monkeypatch.setattr(dyn, "_generate", spied)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), [[5.0]], 10)
        assert (info.value.sample_index, info.value.trajectory_index) == (3, 0)
        assert str(info.value) == ("non-finite state in trajectory 0 at sample 3 "
                                   "(t=3) while integrating square")
        [row] = appended
        assert len(row) == 10
        assert all(map(math.isfinite, row[:2]))
        assert not any(map(math.isfinite, row[2:]))

    def test_float_rows_report_the_earliest_sample_then_the_lowest_row(self):
        # dx/dt = x * x with h = 1 fails at sample 3 from 5.0 and at 4 from
        # 1.0: row 0 runs on past sample 3, row 2 fails there first, and row
        # 6 fails there too, so the floats, row after row, name row 2 as the
        # wide path does
        spec = dyn.SystemSpec(name="square", d=1, field=("x0 * x0",))
        cfg = dyn.SolverConfig(1.0, 1)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, cfg, [[1.0]], 10)
        assert info.value.sample_index == 4
        x0s = np.zeros((dyn._FLOAT_ROWS + 1, 1))
        x0s[0], x0s[[2, 6]] = 1.0, 5.0
        self.assert_same_failure(spec, cfg, x0s, 10, (3, 2))
        # a lower row failing at a later sample does not hide it
        x0s[2] = 0.0
        self.assert_same_failure(spec, cfg, x0s, 10, (3, 6))
        # nor do the rows after a failure at the first sample
        x0s[4] = 1e200
        self.assert_same_failure(spec, cfg, x0s, 10, (1, 4))

    def test_complex_power_fails_alike_on_both_paths(self):
        # x0 counts down by h = 0.5, and x0 ** 0.5 of a negative stage value
        # is complex on floats and NaN on numpy: from 1.1 the last stages of
        # sample 3 take it, from 2.1 those of sample 5.  Row 1 meets it first
        # on the float path, and the batch runs again on columns, which name
        # sample 3 of row 4, the failure every path reports.
        spec = dyn.SystemSpec(name="root", d=1, field=("-1.0", "x0 ** 0.5"))
        cfg = dyn.SolverConfig(0.5, 1)
        with pytest.raises(TypeError):
            math.isfinite((-0.15) ** 0.5)
        with pytest.raises(dyn.IntegrationError) as info:
            dyn.integrate_batch(spec, cfg, [[1.1, 0.0]], 10)
        assert (info.value.sample_index, info.value.trajectory_index) == (3, 0)
        x0s = np.full((dyn._FLOAT_ROWS + 1, 2), [3.0, 0.0])
        x0s[1, 0], x0s[4, 0] = 2.1, 1.1
        self.assert_same_failure(spec, cfg, x0s, 10, (3, 4))

    def test_redo_past_a_later_rows_failure_warns_of_nothing(self):
        # row 0 counts down to 1/0 at sample 4, which raises on floats, so
        # the narrow batch runs again on columns; they run on past row 1's
        # overflow at sample 1 and divide by zero in row 0, and no path
        # warns of either (a warning would fail this test)
        spec = dyn.SystemSpec(name="edge", d=1,
                              field=("-1.0", "-1.0 / (1.0 / x0) + x1 * x1"))
        x0s = np.full((dyn._FLOAT_ROWS + 1, 2), [2.9, 0.0])
        x0s[0], x0s[1] = [2.0, 0.0], [2.9, 1e200]
        self.assert_same_failure(spec, dyn.SolverConfig(0.5, 1), x0s, 10, (1, 1))

    def test_math_error_mid_row_runs_the_batch_on_columns(self, monkeypatch):
        # x0 counts down by h = 0.5 from 2: the last stage of sample 4 and the
        # first of sample 5 take 1/0 in -1/(1/x0), which raises on floats
        # and is -1/inf = -0.0 on numpy; the batch runs again on columns
        spec = dyn.SystemSpec(name="countdown", d=1,
                              field=("-1.0", "-1.0 / (1.0 / x0)"))
        cfg = dyn.SolverConfig(0.5, 1)
        x0s = np.full((dyn._FLOAT_ROWS + 1, 2), [2.1, 0.0])
        x0s[2, 0] = 2.0
        calls = []
        generate = dyn._generate

        def spied(spec):
            run, field, width = generate(spec)

            def rows(states, count, *rest):
                # the rows in a component, and samples
                calls.append(("rows", np.size(states[-1][0]), count))
                return run(states, count, *rest)

            def columns(*arrays):
                calls.append(("field", np.size(arrays[0])))
                return field(*arrays)

            return rows, columns, width

        monkeypatch.setattr(dyn, "_generate", spied)
        narrow = dyn.integrate_batch(spec, cfg, x0s[:3], 10)
        # rows 0 and 1 ran through on floats and row 2 raised, then the three
        # rows ran again on columns, one field call per stage of each sample
        assert calls == [("rows", 1, 10)] * 3 + [("field", 3)] * 40
        monkeypatch.undo()
        wide = dyn.integrate_batch(spec, cfg, x0s, 10)
        assert narrow.tobytes() == wide[:3].tobytes()
        assert np.isfinite(narrow).all()
        np.testing.assert_array_equal(narrow[2, :, 0], 2.0 - 0.5 * np.arange(11))

    def test_math_error_with_finite_numpy_result_continues(self):
        # -1/(1/x) at x = 0: 1/0 raises ZeroDivisionError on floats, while
        # numpy gives -1/inf = -0.0; the narrow batch runs again on columns
        # and goes on as the wide path does
        spec = dyn.SystemSpec(name="reciprocal", d=1,
                              field=("-1.0 / (1.0 / x0)",))
        x0s = np.zeros((dyn._FLOAT_ROWS + 1, 1))
        x0s[2] = 1.0
        wide = dyn.integrate_batch(spec, self.CFG, x0s, 20)
        narrow = dyn.integrate_batch(spec, self.CFG, x0s[: dyn._FLOAT_ROWS], 20)
        assert narrow.tobytes() == wide[: dyn._FLOAT_ROWS].tobytes()
        np.testing.assert_allclose(wide[2, -1, 0], math.exp(-0.4), rtol=1e-10)

    def test_wide_blowup_raises_without_a_warning(self):
        # on the columns x0 overflows at the second stage of sample 3 in
        # row 5, and the third stage takes sin(inf): the IntegrationError is
        # the one signal of both
        spec = dyn.SystemSpec(name="square-sin", d=1,
                              field=("x0 * x0", "sin(x0)"))
        x0s = np.zeros((dyn._FLOAT_ROWS + 1, 2))
        x0s[5, 0] = 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dyn.IntegrationError) as info:
                dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), x0s, 10)
        assert (info.value.sample_index, info.value.trajectory_index) == (3, 5)

    def test_narrow_math_error_takes_the_wide_bits_without_a_warning(self):
        # x0 climbs by 200 per sample from 0 in row 3: exp(800) at the last
        # stage of sample 4 raises OverflowError on floats and is inf on
        # numpy, where exp(-inf) = 0 goes on; the other rows, from -1000,
        # stay below exp's limit.  The narrow batch, run again on columns, is
        # the wide batch's leading rows bit for bit, and neither warns.
        spec = dyn.SystemSpec(name="exp-exp", d=1,
                              field=("200.0", "exp(-exp(x0))"))
        x0s = np.full((dyn._FLOAT_ROWS + 1, 2), [-1000.0, 0.0])
        x0s[3, 0] = 0.0
        with pytest.raises(OverflowError):
            math.exp(800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            narrow = dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1),
                                         x0s[: dyn._FLOAT_ROWS], 6)
            wide = dyn.integrate_batch(spec, dyn.SolverConfig(1.0, 1), x0s, 6)
        assert narrow.tobytes() == wide[: dyn._FLOAT_ROWS].tobytes()
        assert np.isfinite(wide).all()
        np.testing.assert_array_equal(wide[3, :, 0], 200.0 * np.arange(7))


class TestRhsBuffers:
    """The nonlinear right-hand sides are made from their component fields
    by one helper; they must equal the np.stack formulas bit for bit."""

    REFERENCES = {
        "example2": lambda x: np.stack(
            [x[..., 1], -0.1 * x[..., 1] - 8.91 * np.sin(x[..., 0])], axis=-1
        ),
        "example3": lambda x: np.stack(
            [
                -x[..., 1] - x[..., 2],
                x[..., 0] + x[..., 1] / 5.0,
                0.2 + x[..., 3] - 5.0 * x[..., 2],
                (x[..., 0] * x[..., 2] - x[..., 3]) / 0.01,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match=(
                "^matrix_exponential requires finite entries$")):
            dyn.matrix_exponential(np.array([[0.0, bad], [1.0, 0.0]]))

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
        spec = dyn.make_system("example4")
        a22 = dyn._blocks(spec)[3]
        prod = dyn.matrix_exponential(a22) @ dyn.matrix_exponential(-a22)
        assert np.abs(prod - np.eye(10)).max() <= 1e-10
        lhs = dyn.matrix_exponential(0.4 * a22) @ dyn.matrix_exponential(0.6 * a22)
        assert np.abs(lhs - dyn.matrix_exponential(a22)).max() <= 1e-10


class TestLinearOracle:
    def test_nonlinear_system_rejected(self):
        # oracle_for_system is kept for callers that still ask for an
        # oracle: it is the linear spec itself
        spec = dyn.make_system("example1")
        assert dyn.oracle_for_system(spec) is spec
        with pytest.raises(ValueError, match="not linear"):
            dyn.oracle_for_system(dyn.make_system("example2"))

    @pytest.mark.parametrize("reference", [
        lambda spec: dyn.exact_linear_solution(spec, np.zeros(2), 1.0),
        lambda spec: dyn.exact_linear_trajectory(spec, np.zeros(2), 0.1, 3),
        lambda spec: dyn.linear_mz_rhs(spec, np.zeros(2), 1.0),
        lambda spec: dyn._memory_matrix(spec, 0.1, 3),
        lambda spec: rollout.euler_damz(spec, np.zeros((3, 1)), 5, 0.1),
        lambda spec: dyn.exact_reduced_map(spec, dyn.SolverConfig(0.02, 5), 1),
    ], ids=["solution", "trajectory", "mz-rhs", "memory-matrix", "euler-damz",
            "reduced-map"])
    def test_every_reference_rejects_a_field_spec(self, reference):
        with pytest.raises(ValueError, match="example2 is not linear"):
            reference(dyn.make_system("example2"))

    def test_block_shapes(self):
        spec = dyn.make_system("example4")
        a11, a12, _, _ = dyn._blocks(spec)
        assert a11.shape == (10, 10)
        assert a12.shape == (10, 10)
        assert spec.d == 10 and spec.n == 20

    def test_blocks_are_views_of_the_matrix(self):
        spec = dyn.make_system("example4")
        a11, a12, a21, a22 = dyn._blocks(spec)
        for block in (a11, a12, a21, a22):
            assert np.shares_memory(block, spec.a_matrix)
        np.testing.assert_array_equal(np.block([[a11, a12], [a21, a22]]),
                                      spec.a_matrix)

    @pytest.mark.parametrize(
        "a, d, match",
        [
            (np.ones((2, 3)), 1, "square"),
            (np.ones(4), 1, "square"),
            (np.eye(3), 0, r"^d must be >= 1, got 0$"),
            (np.eye(3), 4, r"d=4 must satisfy 1 <= d <= n=3"),
            # float() used to read these as the matrices of 1.0 and 0.0
            ([["1", "0"], ["0", "1"]], 1, "^linear-generic matrix must hold numbers$"),
            ([[True, 0], [0, 1]], 1, "^linear-generic matrix must hold numbers$"),
            (np.eye(2, dtype=bool), 1, "^linear-generic matrix must hold numbers$"),
            ([[1.0, 2.0], [3.0]], 1,
             r"^linear-generic matrix must be square, got shape \(2,\)$"),
        ],
        ids=["non-square", "vector", "d-zero", "d-above-n", "strings", "bools",
             "bool-array", "ragged"],
    )
    def test_bad_matrix_or_dimension_rejected(self, a, d, match):
        with pytest.raises(ValueError, match=match):
            dyn.SystemSpec(name="linear-generic", d=d, a_matrix=a)

    def test_fully_observed_has_no_memory(self):
        # d = n: the unobserved blocks are empty, so memory and noise vanish
        # and the reduced rhs is the full vector field
        spec = dyn.make_system("example1", alpha=2.0, observe=2)
        _, a12, _, a22 = dyn._blocks(spec)
        assert a22.shape == (0, 0) and a12.shape == (2, 0)
        x0 = np.array([0.6, -1.3])
        for t in (0.0, 0.35, 1.1):
            x_t = dyn.exact_linear_solution(spec, x0, t)
            np.testing.assert_allclose(
                dyn.linear_mz_rhs(spec, x0, t), spec.a_matrix @ x_t,
                rtol=0, atol=1e-12,
            )

    def test_exact_solution_at_t0(self):
        spec = dyn.make_system("example1")
        x0 = np.array([0.5, -0.25])
        np.testing.assert_allclose(dyn.exact_linear_solution(spec, x0, 0.0), x0)

    def test_exact_solution_cross_validates_integrator_example1(self):
        spec = dyn.make_system("example1", alpha=2.0)
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-2, 2, size=2)
        end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, 50), x0[None], 50)[0, -1]
        want = dyn.exact_linear_solution(spec, x0, 1.0)
        assert np.abs(end - want).max() <= 1e-8

    def test_exact_solution_cross_validates_integrator_example4(self):
        spec = dyn.make_system("example4")
        rng = np.random.default_rng(10)
        x0 = rng.uniform(-2, 2, size=20)
        end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, 20), x0[None], 1)[0, -1]
        want = dyn.exact_linear_solution(spec, x0, 0.02)
        assert np.abs(end - want).max() <= 1e-8

    @pytest.mark.parametrize("x0, message", [
        ([1.0], r"x0 must have shape \(2,\), got \(1,\)$"),
        ([1.0, 0.0, 0.0], r"x0 must have shape \(2,\), got \(3,\)$"),
        ([np.inf, 0.0], r"x0 must be finite, got \[inf, 0\.0\]$"),
        ([0.0, -np.inf], r"x0 must be finite, got \[0\.0, -inf\]$"),
        ([np.nan, 0.0], r"x0 must be finite, got \[nan, 0\.0\]$"),
    ], ids=["short", "long", "inf", "minus-inf", "nan"])
    @pytest.mark.parametrize("reference", [
        lambda spec, x0: dyn.exact_linear_solution(spec, x0, 0.5),
        lambda spec, x0: dyn.linear_mz_rhs(spec, x0, 0.5),
        lambda spec, x0: dyn.exact_linear_trajectory(spec, x0, 0.1, 5),
    ], ids=["solution", "mz-rhs", "trajectory"])
    def test_references_reject_a_bad_x0_by_name(self, reference, x0, message):
        # a length-1 x0 would broadcast to [1, 1] on the 2-variable system,
        # and a non-finite one would give inf, NaN rows or a RuntimeWarning
        spec = dyn.make_system("example1")
        with pytest.raises(ValueError, match="^" + message):
            reference(spec, x0)

    @pytest.mark.parametrize("t, message", [
        (-0.5, "t must be >= 0, got -0.5"),
        (np.nan, "t must be a finite number, got nan"),
        (np.inf, "t must be a finite number, got inf"),
        (-np.inf, "t must be a finite number, got -inf"),
    ])
    @pytest.mark.parametrize("reference", [
        dyn.exact_linear_solution, dyn.linear_mz_rhs], ids=["solution", "mz-rhs"])
    def test_pointwise_references_reject_a_bad_time_by_name(self, reference, t,
                                                             message):
        spec = dyn.make_system("example1")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reference(spec, [1.0, 0.0], t)

    def test_exact_trajectory_rejects_negative_sample_count(self):
        spec = dyn.make_system("example1")
        with pytest.raises(ValueError, match="^num_samples must be >= 0, got -1$"):
            dyn.exact_linear_trajectory(spec, [1.0, 0.0], 0.1, -1)
        np.testing.assert_array_equal(
            dyn.exact_linear_trajectory(spec, [1.0, 0.0], 0.1, 0), [[1.0, 0.0]])

    @pytest.mark.parametrize("name", ["example1", "example4"])
    @pytest.mark.parametrize("num_samples", [0, 1, 2, 7, 8, 1500, 5000])
    def test_exact_trajectory_matches_sequential_loop(self, name, num_samples):
        # doubling multiplies by step**j, which rounds differently from j
        # single steps
        spec = dyn.make_system(name)
        x0 = np.random.default_rng(9).uniform(-1.0, 1.0, size=spec.n)
        got = dyn.exact_linear_trajectory(spec, x0, 0.02, num_samples)
        want = exact_trajectory_loop(spec, x0, 0.02, num_samples)
        assert got.shape == want.shape == (num_samples + 1, spec.n)
        np.testing.assert_array_equal(got[0], x0)
        bound = 1e-12 * np.maximum(1.0, np.abs(want).max(axis=1))
        assert np.all(np.abs(got - want).max(axis=1) <= bound)

    def test_exact_trajectory_matches_pointwise_solution(self):
        spec = dyn.make_system("example1")
        x0 = np.array([1.0, 1.0])
        traj = dyn.exact_linear_trajectory(spec, x0, 0.1, 12)
        for k in (0, 5, 12):
            np.testing.assert_allclose(
                traj[k], dyn.exact_linear_solution(spec, x0, 0.1 * k), atol=1e-12
            )


def exact_trajectory_loop(spec, x0, delta, num_samples):
    """Reference: one propagator product per sample."""
    step = dyn.matrix_exponential(spec.a_matrix * delta)
    out = [np.asarray(x0, dtype=float)]
    for _ in range(num_samples):
        out.append(step @ out[-1])
    return np.array(out)


def memory_matrix_loop(spec, z_history, h):
    """Reference: the trapezoid sum with one kernel product per history
    node, over ``z_history`` oldest first with spacing ``h``."""
    _, a12, a21, a22 = dyn._blocks(spec)
    m = z_history.shape[0] - 1
    step = dyn.matrix_exponential(a22 * h)
    propagated = np.eye(a22.shape[0])
    acc = 0.5 * (a21 @ z_history[m])
    for j in range(1, m + 1):
        propagated = step @ propagated
        term = propagated @ (a21 @ z_history[m - j])
        acc = acc + (0.5 * term if j == m else term)
    return a12 @ (h * acc)


def exact_terms(spec, x0, t):
    """The Markov and propagated-initial-state terms of the decomposition,
    A11 z(t) and A12 exp(A22 t) w(0), each from ``matrix_exponential``."""
    a11, a12, _, a22 = dyn._blocks(spec)
    z = (dyn.matrix_exponential(spec.a_matrix * t) @ x0)[: spec.d]
    return a11 @ z, a12 @ (dyn.matrix_exponential(a22 * t) @ x0[spec.d :])


def trapezoid_memory(spec, x0, t, m):
    """The memory term by ``_memory_matrix`` over the exact history of
    ``m`` steps covering [0, t]."""
    hist = dyn.exact_linear_trajectory(spec, x0, t / m, m)[:, : spec.d]
    return dyn._memory_matrix(spec, t / m, m) @ hist[::-1].ravel()


class TestMemoryMatrix:
    """The trapezoid memory term that ``rollout.euler_damz`` applies."""

    @pytest.mark.parametrize("name, m", [("example1", 1), ("example1", 400),
                                         ("example1", 1500), ("example4", 60)])
    def test_matches_node_loop(self, name, m):
        # one matrix-vector product sums the nodes in another order
        spec = dyn.make_system(name)
        x0 = np.random.default_rng(6).uniform(-1.0, 1.0, size=spec.n)
        hist = dyn.exact_linear_trajectory(spec, x0, 0.8 / m, m)[:, : spec.d]
        got = dyn._memory_matrix(spec, 0.8 / m, m) @ hist[::-1].ravel()
        want = memory_matrix_loop(spec, hist, 0.8 / m)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_zero_history_gives_zero(self):
        spec = dyn.make_system("example1")
        np.testing.assert_array_equal(
            dyn._memory_matrix(spec, 0.01, 50) @ np.zeros(51), [0.0])

    def test_zero_window_gives_zero(self):
        # a window of length 0 carries no memory: every weight is zero
        spec = dyn.make_system("example4")
        np.testing.assert_array_equal(dyn._memory_matrix(spec, 0.01, 0),
                                      np.zeros((10, 10)))

    def test_quadrature_order(self):
        # halving the history spacing should cut the trapezoid error ~4x;
        # the exact memory term is linear_mz_rhs less the other two terms
        spec = dyn.make_system("example1")
        x0 = np.array([1.7, -0.9])
        t = 1.0
        markov, noise = exact_terms(spec, x0, t)
        exact = dyn.linear_mz_rhs(spec, x0, t) - markov - noise
        err_coarse = abs(trapezoid_memory(spec, x0, t, 64) - exact)[0]
        err_half = abs(trapezoid_memory(spec, x0, t, 128) - exact)[0]
        assert 3.0 <= err_coarse / err_half <= 5.0


class TestNoiseTerm:
    """The propagated-initial-state term A12 exp(A22 t) w(0)."""

    def test_zero_initial_unobserved(self):
        # with w(0) = 0 the decomposition is the Markov and memory terms
        # alone, so it agrees with a fine trapezoid to its O(h^2) error
        spec = dyn.make_system("example1")
        x0 = np.array([1.2, 0.0])
        t = 2.0
        markov, noise = exact_terms(spec, x0, t)
        np.testing.assert_array_equal(noise, [0.0])
        got = dyn.linear_mz_rhs(spec, x0, t) - markov
        assert np.abs(got - trapezoid_memory(spec, x0, t, 2000)).max() <= 1e-5

    def test_t0_is_coupling_times_w0(self):
        # with z(0) = 0 and no memory accrued, only A12 w(0) is left
        spec = dyn.make_system("example4")
        w0 = np.random.default_rng(14).normal(size=10)
        np.testing.assert_allclose(
            dyn.linear_mz_rhs(spec, np.concatenate([np.zeros(10), w0]), 0.0),
            dyn._blocks(spec)[1] @ w0, rtol=0, atol=1e-14,
        )


def exact_derivative(spec, x0, t):
    """dz/dt = (A exp(A t) x0)[:d], the observed block of the exact field."""
    return (spec.a_matrix @ dyn.exact_linear_solution(spec, x0, t))[: spec.d]


class TestDecompositionIdentity:
    """Markov + memory + unobserved-initial terms must equal dz/dt."""

    # measured at most 8.9e-16, 2.0e-15 and 1.1e-14 on the draws below
    BOUND = 1e-13

    @pytest.mark.parametrize("spec", [
        dyn.make_system("example1"),
        dyn.make_system("example4"),
        # example4's A22 is symmetric, so only a generic matrix tells the
        # propagator exp(A22 t) from its transpose
        dyn.SystemSpec(name="linear-generic", d=2,
                       a_matrix=np.random.default_rng(35).normal(size=(6, 6))),
    ], ids=["example1", "example4", "generic"])
    def test_reproduces_derivative_of_exact_solution(self, spec):
        rng = np.random.default_rng(33)
        for _ in range(5):
            x0 = rng.uniform(-1.5, 1.5, size=spec.n)
            t = rng.uniform(0.2, 1.2)
            got = dyn.linear_mz_rhs(spec, x0, t)
            assert np.abs(got - exact_derivative(spec, x0, t)).max() <= self.BOUND

    @pytest.mark.parametrize("name, params", [("example1", {"alpha": 1.1}),
                                              ("example4", {})])
    def test_holds_at_a_long_time(self, name, params):
        # one block exponential at any t, no history growing with it
        spec = dyn.make_system(name, **params)
        x0 = np.linspace(-1.0, 1.0, spec.n)
        want = exact_derivative(spec, x0, 200.0)
        got = dyn.linear_mz_rhs(spec, x0, 200.0)
        assert np.abs(got - want).max() <= self.BOUND * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("name", ["example1", "example4"])
    def test_at_t0_is_the_full_field_on_the_observed_block(self, name):
        # no memory has accrued: dz/dt = A11 z(0) + A12 w(0) = (A x0)[:d]
        spec = dyn.make_system(name)
        rng = np.random.default_rng(34)
        for _ in range(5):
            x0 = rng.uniform(-1.5, 1.5, size=spec.n)
            np.testing.assert_allclose(
                dyn.linear_mz_rhs(spec, x0, 0.0), (spec.a_matrix @ x0)[: spec.d],
                rtol=0, atol=1e-15,
            )

    def test_identity_pins_noise_coefficient(self):
        # with the transposed coupling in the propagated-initial-state term
        # the decomposition does NOT close, so the coefficient choice is
        # observable, not a convention
        spec = dyn.make_system("example1", alpha=2.0)
        x0 = np.array([0.8, 1.1])
        t = 0.7
        derivative = exact_derivative(spec, x0, t)
        good = dyn.linear_mz_rhs(spec, x0, t)
        _, noise = exact_terms(spec, x0, t)
        _, _, a21, a22 = dyn._blocks(spec)
        wrong_noise = good - noise + a21 @ (dyn.matrix_exponential(a22 * t) @ x0[1:])
        assert np.abs(good - derivative).max() <= self.BOUND
        assert np.abs(wrong_noise - derivative).max() > 1e-2


class TestHomogenizedRhs:
    """The closure ``example3-reduced``, evaluated through its spec."""

    RHS = dyn.make_system("example3-reduced").rhs

    def test_direct_substitution(self):
        np.testing.assert_allclose(self.RHS([0.0, 0.0, 0.0]), [0.0, 0.0, 0.2])
        np.testing.assert_allclose(self.RHS([5.0, 0.0, 1.0]), [-1.0, 5.0, 0.2])
        np.testing.assert_allclose(self.RHS([1.0, 1.0, 1.0]), [-2.0, 1.2, -3.8])

    def test_dimension_check(self):
        with pytest.raises(ValueError,
                           match="example3-reduced state has dimension 3, got 2"):
            self.RHS([1.0, 2.0])


class TestExample3SlowManifold:
    """The fast variable y relaxes to x1*x3, the value the homogenized
    closure substitutes for it."""

    SOLVER = dyn.SolverConfig(0.02, 20)

    def test_default_domain_stays_finite(self):
        spec = dyn.make_system("example3")
        domain = dyn.default_domain(spec)
        rng = np.random.default_rng(1)
        x0s = rng.uniform(domain.lower, domain.upper, size=(200, 4))
        states = dyn.integrate_batch(spec, self.SOLVER, x0s, 250)  # to t = 5
        assert np.isfinite(states).all()

    def test_closure_error_is_first_order_in_epsilon(self):
        # started on the slow manifold y = x1*x3, the distance to the
        # homogenized closure at t = 1 halves with epsilon (measured: 0.0420
        # at epsilon 0.02, 0.0211 at 0.01, ratio 1.99)
        slow = np.array([2.0, 1.0, 5.0])
        x0 = np.append(slow, slow[0] * slow[2])
        reduced = dyn.make_system("example3-reduced")
        closure = dyn.integrate_batch(reduced, self.SOLVER, slow[None], 50)[0, -1]
        errors = []
        for epsilon in (0.02, 0.01):
            spec = dyn.make_system("example3", epsilon=epsilon)
            end = dyn.integrate_batch(spec, self.SOLVER, x0[None], 50)[0, -1]
            errors.append(np.linalg.norm(spec.observe(end) - closure))
        assert 1.6 <= errors[0] / errors[1] <= 2.4


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

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda text: text.replace("SIGMA12", "SIGMA2X"), "in order"),
            (lambda text: text.replace("SIGMA21\n", "SIGMA21\n" + "0 " * 10 + "\n"),
             r"shape \(41, 10\)"),
        ],
        ids=["label-order", "row-count"],
    )
    def test_malformed_file_rejected(self, tmp_path, monkeypatch, edit, match):
        packaged = dyn.importlib.resources.files("memflow") / "example4_sigma.txt"
        (tmp_path / "example4_sigma.txt").write_text(edit(packaged.read_text()))
        monkeypatch.setattr(dyn.importlib.resources, "files", lambda _: tmp_path)
        dyn._load_sigma.cache_clear()  # a failed load is not cached
        with pytest.raises(ValueError, match=match):
            dyn.example4_sigma()

    def test_loaded_once_and_returned_as_copies(self):
        first = dyn.example4_sigma()
        first["SIGMA11"][:] = 0.0
        assert dyn.example4_sigma()["SIGMA11"].any()
        assert dyn._load_sigma.cache_info().currsize == 1

    def test_symmetric_unobserved_coupling(self):
        sigma = dyn.example4_sigma()
        np.testing.assert_array_equal(sigma["SIGMA22"], sigma["SIGMA22"].T)

    def test_block_structure(self):
        sigma = dyn.example4_sigma()
        spec = dyn.make_system("example4")
        eye = np.eye(10)
        a11, a12, a21, a22 = dyn._blocks(spec)
        np.testing.assert_array_equal(a11, sigma["SIGMA11"])
        np.testing.assert_array_equal(a12, eye + sigma["SIGMA12"])
        np.testing.assert_array_equal(a21, -(eye + sigma["SIGMA21"]))
        np.testing.assert_array_equal(a22, -sigma["SIGMA22"])
