"""Benchmark systems, fixed-step RK4 integration, and exact linear
Mori-Zwanzig references.

Everything downstream (data generation, training, rollout validation) sits
on this module.  It provides:

* ``SystemSpec`` -- a vector field on R^n with the first ``d`` components
  designated as the observed variables.  Built-in systems are constructed
  by :func:`make_system`; arbitrary linear block systems by
  :func:`linear_system`.
* a classical 4th-order Runge-Kutta integrator with a fixed number of
  substeps per coarse sample step (:func:`integrate_batch`).  It advances
  an ``(m, n)`` batch of initial conditions in lock-step and returns
  ``(m, num_samples + 1, n)``; one trajectory is a batch of one row.
  For a linear system (``a_matrix`` set) RK4 is the linear map R(hA)
  with the stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
  so one coarse sample is one product with the precomputed
  S = R(hA)^substeps.  That is the same scheme with its sums in another
  order: it agrees with the stage loop to about 1e-12 absolute on states
  of order 1 (2000 samples of example4).  Nonlinear systems run the stage
  loop.
* :func:`matrix_exponential` (scaling-and-squaring, truncated-series core).
* ``LinearMZOracle`` -- for linear systems the dynamics of the observed
  block is known exactly: a Markov term ``A11 z(t)``, a memory integral
  with kernel ``exp(A22 s) A21 z(t-s)`` projected through ``A12``, and a
  term propagating the unobserved initial state.  The oracle evaluates all
  three, giving a zero-model-error reference that trained networks and
  discrete schemes are validated against.

All right-hand sides broadcast over leading axes: they accept state arrays
of shape ``(..., n)`` and return the same shape, so batches of
trajectories integrate in lock-step without Python-level loops.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "SystemSpec",
    "Domain",
    "SolverConfig",
    "LinearMZOracle",
    "IntegrationError",
    "make_system",
    "linear_system",
    "default_domain",
    "eval_rhs",
    "integrate_batch",
    "matrix_exponential",
    "oracle_for_system",
    "exact_linear_solution",
    "exact_linear_trajectory",
    "mz_memory_integral",
    "mz_noise_term",
    "linear_mz_rhs",
    "homogenized_rhs",
    "example4_sigma",
    "SYSTEM_NAMES",
]

SYSTEM_NAMES = (
    "example1",
    "example2",
    "example3",
    "example3-reduced",
    "example4",
    "linear-generic",
)


class IntegrationError(RuntimeError):
    """Raised when the integrator produces a non-finite state.

    ``sample_index`` is the coarse sample at which the failure occurred
    and ``trajectory_index`` the first batch row that failed there.
    """

    def __init__(self, message, sample_index, trajectory_index):
        super().__init__(message)
        self.sample_index = sample_index
        self.trajectory_index = trajectory_index


@dataclass(frozen=True)
class SystemSpec:
    """A dynamical system dx/dt = rhs(x) with observed leading components.

    Attributes
    ----------
    name : str
        Identifier, e.g. ``"example2"``.
    n : int
        Full state dimension.
    d : int
        Observed dimension; the observation map keeps components ``[:d]``.
    params : dict
        Named real parameters the right-hand side was built with.
    rhs : callable
        Maps state arrays of shape ``(..., n)`` to derivatives of the same
        shape.
    a_matrix : ndarray or None
        For linear systems, the full ``n x n`` matrix so that
        ``rhs(x) == a_matrix @ x``; ``None`` for nonlinear systems.  When
        set, integration steps with this matrix and does not call ``rhs``.
    """

    name: str
    n: int
    d: int
    params: dict
    rhs: Callable[[np.ndarray], np.ndarray]
    a_matrix: np.ndarray | None = None

    def __post_init__(self):
        if not (1 <= self.d <= self.n):
            raise ValueError(
                f"observed dimension d={self.d} must satisfy 1 <= d <= n={self.n}"
            )

    def observe(self, states):
        """Project full states ``(..., n)`` onto the observed block ``(..., d)``."""
        states = np.asarray(states)
        if states.shape[-1] != self.n:
            raise ValueError(
                f"state dimension {states.shape[-1]} does not match n={self.n}"
            )
        return states[..., : self.d]


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box of initial conditions."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("domain bounds must be 1-D vectors of equal length")
        if not np.all(lower < upper):
            raise ValueError("domain requires lower[i] < upper[i] for every i")

    @property
    def n(self):
        return self.lower.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Coarse sample step and integrator resolution.

    The integrator is the classical 4th-order Runge-Kutta method with
    ``substeps`` uniform internal steps per coarse step ``delta``.
    """

    delta: float = 0.02
    substeps: int = 20

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

_SIGMA_CACHE: dict[str, np.ndarray] | None = None


def example4_sigma():
    """The four 10x10 coupling blocks of the built-in 20-variable system.

    Loaded once from the packaged plain-text file (row-major, one labeled
    block per matrix, values already scaled by 1e-3).
    """
    global _SIGMA_CACHE
    if _SIGMA_CACHE is None:
        path = importlib.resources.files(__package__) / "example4_sigma.txt"
        blocks: dict[str, list[list[float]]] = {}
        current = None
        for raw in path.read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("SIGMA"):
                current = line
                blocks[current] = []
            else:
                if current is None:
                    raise ValueError("matrix data before any SIGMA label")
                blocks[current].append([float(v) for v in line.split()])
        expected = ("SIGMA11", "SIGMA12", "SIGMA21", "SIGMA22")
        if tuple(sorted(blocks)) != tuple(sorted(expected)):
            raise ValueError(f"expected blocks {expected}, found {sorted(blocks)}")
        out = {}
        for name in expected:
            mat = np.array(blocks[name], dtype=float)
            if mat.shape != (10, 10):
                raise ValueError(f"{name} has shape {mat.shape}, expected (10, 10)")
            out[name] = mat
        _SIGMA_CACHE = out
    return {k: v.copy() for k, v in _SIGMA_CACHE.items()}


def homogenized_rhs(state):
    """Slow-variable closure of the 4-variable chaotic system.

    dx1 = -x2 - x3,  dx2 = x1 + x2/5,  dx3 = 1/5 + x3*(x1 - 5).
    Accepts ``(..., 3)`` arrays.
    """
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != 3:
        raise ValueError(f"homogenized system is 3-dimensional, got {state.shape[-1]}")
    x1, x2, x3 = state[..., 0], state[..., 1], state[..., 2]
    out = np.empty_like(state)
    out[..., 0] = -x2 - x3
    out[..., 1] = x1 + x2 / 5.0
    out[..., 2] = 0.2 + x3 * (x1 - 5.0)
    return out


def linear_system(a, d, name="linear-generic"):
    """Linear system dx/dt = a @ x observing the first ``d`` components."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite-valued")
    n = a.shape[0]

    def rhs(x):
        x = np.asarray(x, dtype=float)
        return x @ a.T

    return SystemSpec(name=name, n=n, d=d, params={}, rhs=rhs, a_matrix=a)


def make_system(name, **params):
    """Construct a built-in system by name.

    Recognized names and their parameters (defaults in parentheses):

    * ``example1`` -- 2-D linear system, observed x1; ``alpha`` (2.0)
      controls the decay rate.
    * ``example2`` -- damped pendulum, observed angle; ``alpha`` (0.1),
      ``beta`` (8.91).
    * ``example3`` -- 4-variable chaotic slow-fast system, observed
      (x1, x2, x3); ``epsilon`` (0.01) is the fast time scale.
    * ``example3-reduced`` -- 3-variable homogenized closure of example3.
    * ``example4`` -- 20-variable linear system, observed first 10
      components; coefficients from the packaged matrix file.

    An optional ``observe`` parameter overrides the observed dimension
    (e.g. ``observe=2`` on example1 makes the full state visible, turning
    dataset construction into plain flow-map learning).
    """
    params = dict(params)
    observe = params.pop("observe", None)

    if name == "example1":
        alpha = float(params.pop("alpha", 2.0))
        _reject_params(name, params)
        a = np.array([[1.0, -4.0], [4.0, -alpha]])
        spec = replace(linear_system(a, d=1, name=name), params={"alpha": alpha})

    elif name == "example2":
        alpha = float(params.pop("alpha", 0.1))
        beta = float(params.pop("beta", 8.91))
        _reject_params(name, params)

        def rhs(x):
            x = np.asarray(x, dtype=float)
            if x.shape[-1] != 2:
                raise ValueError(f"example2 state has dimension 2, got {x.shape[-1]}")
            out = np.empty_like(x)
            out[..., 0] = x[..., 1]
            out[..., 1] = -alpha * x[..., 1] - beta * np.sin(x[..., 0])
            return out

        spec = SystemSpec(name=name, n=2, d=1,
                          params={"alpha": alpha, "beta": beta}, rhs=rhs)

    elif name == "example3":
        epsilon = float(params.pop("epsilon", 0.01))
        _reject_params(name, params)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")

        def rhs(x):
            x = np.asarray(x, dtype=float)
            if x.shape[-1] != 4:
                raise ValueError(f"example3 state has dimension 4, got {x.shape[-1]}")
            x1, x2, x3, y = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
            out = np.empty_like(x)
            out[..., 0] = -x2 - x3
            out[..., 1] = x1 + x2 / 5.0
            out[..., 2] = 0.2 + y - 5.0 * x3
            out[..., 3] = (x1 * x2 - y) / epsilon
            return out

        spec = SystemSpec(name=name, n=4, d=3, params={"epsilon": epsilon}, rhs=rhs)

    elif name == "example3-reduced":
        _reject_params(name, params)
        spec = SystemSpec(name=name, n=3, d=3, params={}, rhs=homogenized_rhs)

    elif name == "example4":
        _reject_params(name, params)
        sig = example4_sigma()
        eye = np.eye(10)
        s11, s12 = sig["SIGMA11"], sig["SIGMA12"]
        s21, s22 = sig["SIGMA21"], sig["SIGMA22"]

        def rhs(x):
            x = np.asarray(x, dtype=float)
            if x.shape[-1] != 20:
                raise ValueError(f"example4 state has dimension 20, got {x.shape[-1]}")
            p, q = x[..., :10], x[..., 10:]
            dp = p @ s11.T + q @ (eye + s12).T
            dq = -(p @ (eye + s21).T) - q @ s22.T
            return np.concatenate([dp, dq], axis=-1)

        a = np.block([[s11, eye + s12], [-(eye + s21), -s22]])
        spec = SystemSpec(name=name, n=20, d=10, params={}, rhs=rhs, a_matrix=a)

    elif name == "linear-generic":
        matrix = params.pop("matrix", None)
        d = params.pop("d", None)
        _reject_params(name, params)
        if matrix is None or d is None:
            raise ValueError("linear-generic requires 'matrix' and 'd' parameters")
        return linear_system(matrix, d=int(d))

    else:
        raise ValueError(f"unknown system {name!r}; known: {', '.join(SYSTEM_NAMES)}")
    return spec if observe is None else replace(spec, d=int(observe))


def _reject_params(name, leftover):
    if leftover:
        raise ValueError(f"unknown parameters for {name}: {sorted(leftover)}")


_DEFAULT_DOMAINS = {
    "example1": ([-2.0, -2.0], [2.0, 2.0]),
    "example2": ([-2.0, -4.0], [2.0, 4.0]),
    "example3": ([-7.5, -10.0, 0.0, -1.0], [10.0, 7.5, 18.0, 100.0]),
    "example3-reduced": ([-7.5, -10.0, 0.0], [10.0, 7.5, 18.0]),
    "example4": ([-2.0] * 20, [2.0] * 20),
}


def default_domain(spec):
    """The initial-condition box each built-in system is studied on."""
    name = spec if isinstance(spec, str) else spec.name
    if name in _DEFAULT_DOMAINS:
        lower, upper = _DEFAULT_DOMAINS[name]
        return Domain(np.array(lower), np.array(upper))
    if not isinstance(spec, str):
        return Domain(np.full(spec.n, -2.0), np.full(spec.n, 2.0))
    raise ValueError(f"no default domain for {name!r}")


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def eval_rhs(spec, state):
    """Evaluate the vector field at one state (or a batch of states)."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != spec.n:
        raise ValueError(
            f"state dimension {state.shape[-1]} does not match {spec.name} n={spec.n}"
        )
    return spec.rhs(state)


def _rk4_sample_step(rhs, state, delta, substeps):
    """Advance states ``(..., n)`` by one coarse step of ``delta``."""
    h = delta / substeps
    for _ in range(substeps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def _rk4_sample_matrix(a, delta, substeps):
    """S = R(hA)^substeps with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

    One coarse RK4 sample of dx/dt = A x maps a row state ``x`` to
    ``x @ S.T``.
    """
    z = a * (delta / substeps)
    eye = np.eye(a.shape[0])
    r = eye + z @ (eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0)))
    return np.linalg.matrix_power(r, substeps)


def integrate_batch(spec, config, x0s, num_samples):
    """Integrate many trajectories in lock-step, returning states at times
    0, delta, ..., num_samples * delta.

    ``x0s`` has shape ``(m, n)``; the result has shape
    ``(m, num_samples + 1, n)`` and row ``[i, 0]`` is ``x0s[i]`` exactly.
    All trajectories share the coarse time grid, so the whole batch
    advances through vectorized RK4 stages (or, for a linear system, one
    product with the sample matrix per coarse sample).  A non-finite state
    aborts the run with an IntegrationError naming the first offending
    trajectory and sample.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != spec.n:
        raise ValueError(f"x0s must have shape (m, {spec.n}), got {x0s.shape}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    step_t = None
    if spec.a_matrix is not None:
        step_t = _rk4_sample_matrix(spec.a_matrix, config.delta, config.substeps).T
    out = np.empty((x0s.shape[0], num_samples + 1, spec.n))
    out[:, 0] = state = x0s
    for k in range(1, num_samples + 1):
        if step_t is None:
            state = _rk4_sample_step(spec.rhs, state, config.delta, config.substeps)
        else:
            state = state @ step_t
        finite = np.isfinite(state).all(axis=1)
        if not finite.all():
            bad = int(np.nonzero(~finite)[0][0])
            raise IntegrationError(
                f"non-finite state in trajectory {bad} at sample {k} "
                f"(t={k * config.delta:g}) while integrating {spec.name}",
                sample_index=k,
                trajectory_index=bad,
            )
        out[:, k] = state
    return out


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------


def matrix_exponential(a, terms=24):
    """exp(a) by scaling-and-squaring around a truncated-series core.

    The input is scaled by a power of two until its 1-norm is at most 1/2,
    the series is summed in Horner form with ``terms`` terms, and the
    result is squared back up.  Relative error is well below 1e-12 for
    matrices with norm up to ~10.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exponential requires a square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exponential requires finite entries")
    m = a.shape[0]
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    scaled = a / (2.0**squarings)
    eye = np.eye(m)
    result = eye.copy()
    for k in range(terms, 0, -1):
        result = eye + (scaled @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


# ---------------------------------------------------------------------------
# Linear Mori-Zwanzig oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearMZOracle:
    """Block decomposition of a linear system for exact reduced dynamics.

    For dx/dt = A x with x = (z; w), z in R^d observed, the observed block
    satisfies exactly

        dz/dt = A11 z(t)
              + A12 * integral_0^t exp(A22 s) A21 z(t-s) ds
              + A12 * exp(A22 t) w(0).

    ``quad_points`` is the default number of quadrature samples per unit
    time used when the oracle builds its own histories.
    """

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    quad_points: int = 1000

    def __post_init__(self):
        a11 = np.asarray(self.a11, dtype=float)
        a12 = np.asarray(self.a12, dtype=float)
        a21 = np.asarray(self.a21, dtype=float)
        a22 = np.asarray(self.a22, dtype=float)
        for name, mat in (("a11", a11), ("a12", a12), ("a21", a21), ("a22", a22)):
            if mat.ndim != 2:
                raise ValueError(f"{name} must be a matrix")
            object.__setattr__(self, name, mat)
        d = a11.shape[0]
        m = a22.shape[0]
        if a11.shape != (d, d) or a12.shape != (d, m) or a21.shape != (m, d) \
                or a22.shape != (m, m):
            raise ValueError(
                "inconsistent block shapes: "
                f"a11 {a11.shape}, a12 {a12.shape}, a21 {a21.shape}, a22 {a22.shape}"
            )
        if self.quad_points < 1:
            raise ValueError("quad_points must be >= 1")

    @property
    def d(self):
        return self.a11.shape[0]

    @property
    def n(self):
        return self.a11.shape[0] + self.a22.shape[0]

    def full_matrix(self):
        """Assemble the full n x n system matrix from the blocks."""
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])


def oracle_for_system(spec, quad_points=1000):
    """Build the exact reduced-dynamics oracle for a linear SystemSpec.

    The assembled block matrix is checked against the system's own
    right-hand side on a handful of random states (agreement to 1e-12);
    nonlinear systems are rejected.
    """
    if spec.a_matrix is None:
        raise ValueError(f"{spec.name} is not linear; no exact oracle available")
    a = spec.a_matrix
    d = spec.d
    oracle = LinearMZOracle(
        a11=a[:d, :d], a12=a[:d, d:], a21=a[d:, :d], a22=a[d:, d:],
        quad_points=quad_points,
    )
    rng = np.random.default_rng(0)
    states = rng.uniform(-1.0, 1.0, size=(8, spec.n))
    want = eval_rhs(spec, states)
    got = states @ oracle.full_matrix().T
    if not np.allclose(got, want, rtol=0.0, atol=1e-12):
        raise ValueError(f"assembled blocks do not reproduce {spec.name} rhs")
    return oracle


def exact_linear_solution(oracle, x0, t):
    """Full-state solution exp(A t) x0 of the assembled linear system."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (oracle.n,):
        raise ValueError(f"x0 must have shape ({oracle.n},), got {x0.shape}")
    return matrix_exponential(oracle.full_matrix() * t) @ x0


def exact_linear_trajectory(oracle, x0, delta, num_samples):
    """Exact states at times 0, delta, ..., num_samples*delta.

    Computed by repeated application of the one-step propagator
    exp(A delta), so there is no time-discretization error.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (oracle.n,):
        raise ValueError(f"x0 must have shape ({oracle.n},), got {x0.shape}")
    step = matrix_exponential(oracle.full_matrix() * delta)
    out = np.empty((num_samples + 1, oracle.n))
    out[0] = x0
    for k in range(1, num_samples + 1):
        out[k] = step @ out[k - 1]
    return out


def mz_memory_integral(oracle, z_history, t, truncation):
    """Truncated memory term of the exact reduced dynamics at time ``t``.

    Parameters
    ----------
    z_history : ndarray, shape (m+1, d)
        Observed states sampled uniformly on [t - truncation, t], oldest
        first; the last row is z(t).
    truncation : float
        Length T of the memory window; must satisfy 0 <= T <= t.

    Returns
    -------
    ndarray, shape (d,)
        Composite-trapezoid approximation of
        A12 * integral_0^T exp(A22 s) A21 z(t-s) ds, converging at
        O(h^2) in the history spacing h.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    if truncation > t + 1e-12:
        raise ValueError(f"truncation {truncation} exceeds current time {t}")
    z_history = np.atleast_2d(np.asarray(z_history, dtype=float))
    if z_history.shape[-1] != oracle.d:
        raise ValueError(
            f"history rows have dimension {z_history.shape[-1]}, expected {oracle.d}"
        )
    if truncation == 0:
        return np.zeros(oracle.d)
    m = z_history.shape[0] - 1
    if m < 1:
        raise ValueError(
            f"insufficient history: need >= 2 samples covering [t-T, t], "
            f"got {z_history.shape[0]}"
        )
    h = truncation / m
    # kernel value at s = j*h applied to z(t - j*h) = z_history[m - j]
    step = matrix_exponential(oracle.a22 * h)
    propagated = np.eye(oracle.a22.shape[0])
    acc = 0.5 * (oracle.a21 @ z_history[m])  # j = 0 endpoint, exp(0) = I
    for j in range(1, m + 1):
        propagated = step @ propagated
        term = propagated @ (oracle.a21 @ z_history[m - j])
        acc = acc + (0.5 * term if j == m else term)
    return oracle.a12 @ (h * acc)


def mz_noise_term(oracle, w0, t):
    """Contribution of the unobserved initial state, A12 exp(A22 t) w0.

    This is the orthogonal-dynamics term of the reduced equations; it is
    the only place the unobserved initial data enters.  The leading
    coefficient must be A12 (shape d x (n-d)) for the reduced derivative
    decomposition to close -- see the decomposition identity tests.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    w0 = np.asarray(w0, dtype=float)
    m = oracle.a22.shape[0]
    if w0.shape != (m,):
        raise ValueError(f"w0 must have shape ({m},), got {w0.shape}")
    return oracle.a12 @ (matrix_exponential(oracle.a22 * t) @ w0)


def linear_mz_rhs(oracle, x0, t):
    """dz/dt at time ``t`` via the exact reduced decomposition.

    Evaluates Markov term + full-interval memory quadrature (T = t) +
    unobserved-initial-state term, with the history sampled from the
    exact solution at the oracle's ``quad_points`` resolution.  Useful as
    a self-check: the result must match the time derivative of the
    observed block of exp(A t) x0 up to quadrature error.
    """
    x0 = np.asarray(x0, dtype=float)
    d = oracle.d
    if t == 0:
        return oracle.a11 @ x0[:d] + mz_noise_term(oracle, x0[d:], 0.0)
    m = max(1, int(round(t * oracle.quad_points)))
    full = exact_linear_trajectory(oracle, x0, t / m, m)
    z_history = full[:, :d]
    markov = oracle.a11 @ z_history[-1]
    memory = mz_memory_integral(oracle, z_history, t, t)
    noise = mz_noise_term(oracle, x0[d:], t)
    return markov + memory + noise
