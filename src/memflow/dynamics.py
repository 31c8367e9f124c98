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
  of order 1 (2000 samples of example4).  Nonlinear systems run the one
  RK4 stage loop, which steps a state given as a sequence of components.
  A built-in nonlinear system writes its vector field once, over such a
  sequence and a math namespace (``SystemSpec.field``): a batch of at most
  ``_FLOAT_ROWS`` rows runs it row by row on Python floats with ``math``,
  where numpy's per-call overhead would cost more than the arithmetic.  A
  wider batch, and any system given by an array ``rhs`` alone, steps
  ``rhs`` on the whole ``(m, n)`` batch as the loop's one component.  Both
  apply the same float operations in the same order, so they agree bitwise
  wherever ``math`` and ``numpy`` evaluate their functions alike.
* :func:`matrix_exponential` (scaling-and-squaring, truncated-series core).
* ``LinearMZOracle`` -- for linear systems the dynamics of the observed
  block is known exactly: a Markov term ``A11 z(t)``, a memory integral
  with kernel ``exp(A22 s) A21 z(t-s)`` projected through ``A12``, and a
  term propagating the unobserved initial state.  A linear system is its
  matrix: every linear built-in is made by :func:`linear_system`, and the
  oracle holds that same ``a_matrix`` with the observed dimension ``d``;
  the blocks ``A11``..``A22`` are slices of it.  The oracle functions
  evaluate all three terms, giving a zero-model-error reference that
  trained networks and discrete schemes are validated against.

All right-hand sides broadcast over leading axes: they accept state arrays
of shape ``(..., n)`` and return the same shape.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
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
        shape.  Made from ``field`` when not given.
    a_matrix : ndarray or None
        For linear systems, the full ``n x n`` matrix so that
        ``rhs(x) == a_matrix @ x``; ``None`` for nonlinear systems.  When
        set, integration steps with this matrix and does not call ``rhs``.
    field : callable or None
        The vector field over components: ``field(x, m)`` takes a sequence
        of the ``n`` state components and a math namespace ``m`` (``math``
        when the components are floats, ``numpy`` when they are arrays)
        and returns the ``n`` derivative components.  The built-in
        nonlinear systems are defined by it, and narrow batches integrate
        on it with floats; ``None`` for a system given by ``rhs`` alone.
    """

    name: str
    n: int
    d: int
    params: dict
    rhs: Callable[[np.ndarray], np.ndarray] | None = None
    a_matrix: np.ndarray | None = None
    field: Callable | None = None

    def __post_init__(self):
        if not (1 <= self.d <= self.n):
            raise ValueError(
                f"observed dimension d={self.d} must satisfy 1 <= d <= n={self.n}"
            )
        if self.rhs is None:
            if self.field is None:
                raise ValueError(f"{self.name} needs an rhs or a field")
            mismatch = f"{self.name} state has dimension {self.n}, got {{}}"
            object.__setattr__(self, "rhs", functools.partial(
                _on_array, self.field, self.n, mismatch))

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
_SIGMA_LABELS = ("SIGMA11", "SIGMA12", "SIGMA21", "SIGMA22")


def example4_sigma():
    """The four 10x10 coupling blocks of the built-in 20-variable system.

    Loaded once from the packaged plain-text file (row-major, one labeled
    block per matrix, values already scaled by 1e-3).
    """
    global _SIGMA_CACHE
    if _SIGMA_CACHE is None:
        path = importlib.resources.files(__package__) / "example4_sigma.txt"
        lines = path.read_text().splitlines()
        labels = tuple(line.strip() for line in lines if line.startswith("SIGMA"))
        if labels != _SIGMA_LABELS:
            raise ValueError(
                f"expected blocks {_SIGMA_LABELS} in order, found {labels}"
            )
        rows = np.loadtxt(lines, comments=("#", "SIGMA"))
        if rows.shape != (40, 10):
            raise ValueError(f"matrix rows have shape {rows.shape}, expected (40, 10)")
        _SIGMA_CACHE = dict(zip(_SIGMA_LABELS, rows.reshape(4, 10, 10)))
    return {k: v.copy() for k, v in _SIGMA_CACHE.items()}


def _on_array(field, n, mismatch, state):
    """A component field on state arrays ``(..., n)``, whose last axis holds
    the components; ``mismatch`` formats the error for another dimension."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != n:
        raise ValueError(mismatch.format(state.shape[-1]))
    derivative = field([state[..., i] for i in range(n)], np)
    if len(derivative) != n:
        raise ValueError(
            f"vector field returns {len(derivative)} components, expected {n}"
        )
    out = np.empty_like(state)
    for i, component in enumerate(derivative):
        out[..., i] = component
    return out


def _homogenized_field(x, m):
    x1, x2, x3 = x
    return (-x2 - x3, x1 + x2 / 5.0, 0.2 + x3 * (x1 - 5.0))


def homogenized_rhs(state):
    """Slow-variable closure of the 4-variable chaotic system.

    dx1 = -x2 - x3,  dx2 = x1 + x2/5,  dx3 = 1/5 + x3*(x1 - 5): example3
    with its fast variable y replaced by the value x1*x3 it relaxes to.
    Accepts ``(..., 3)`` arrays.
    """
    return _on_array(_homogenized_field, 3,
                     "homogenized system is 3-dimensional, got {}", state)


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
      (x1, x2, x3); ``epsilon`` (0.01) is the fast time scale on which the
      hidden y relaxes to x1*x3.
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

        def field(x, m):
            x1, x2 = x
            return (x2, -alpha * x2 - beta * m.sin(x1))

        spec = SystemSpec(name=name, n=2, d=1,
                          params={"alpha": alpha, "beta": beta}, field=field)

    elif name == "example3":
        epsilon = float(params.pop("epsilon", 0.01))
        _reject_params(name, params)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")

        def field(x, m):
            x1, x2, x3, y = x
            return (-x2 - x3, x1 + x2 / 5.0, 0.2 + y - 5.0 * x3,
                    (x1 * x3 - y) / epsilon)

        spec = SystemSpec(name=name, n=4, d=3, params={"epsilon": epsilon},
                          field=field)

    elif name == "example3-reduced":
        _reject_params(name, params)
        spec = SystemSpec(name=name, n=3, d=3, params={}, rhs=homogenized_rhs,
                          field=_homogenized_field)

    elif name == "example4":
        _reject_params(name, params)
        sig = example4_sigma()
        eye = np.eye(10)
        a = np.block([[sig["SIGMA11"], eye + sig["SIGMA12"]],
                      [-(eye + sig["SIGMA21"]), -sig["SIGMA22"]]])
        spec = linear_system(a, d=10, name=name)

    elif name == "linear-generic":
        matrix = params.pop("matrix", None)
        d = params.pop("d", None)
        _reject_params(name, params)
        if matrix is None or d is None:
            raise ValueError("linear-generic requires 'matrix' and 'd' parameters")
        spec = linear_system(matrix, d=int(d))

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


# A batch of at most this many rows integrates its component field row by
# row on Python floats; a wider one steps ``rhs`` on the whole batch.  One
# substep costs about 4-7 us per row on floats against 30-80 us per batch
# in numpy up to a few dozen rows: floats are faster up to about 8-10 rows
# on example2 and 10-12 on example3 (measurements in CHANGES.md).
_FLOAT_ROWS = 8


def _rk4_sample_step(field, m, state, delta, substeps):
    """Advance ``state``, a sequence of components, by one coarse step of
    ``delta``.  A component is a float (one state) or an array holding it
    for a whole batch; ``m`` is the math namespace ``field`` uses on them."""
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


def _float_sample_step(field, batch_field, row, delta, substeps):
    """One coarse sample of one state on Python floats.

    ``math`` raises where numpy returns inf or NaN (sin(inf), exp(1000),
    1/0).  The sample is then redone on numpy as a batch of one row, as the
    wide path runs it, so a state that numpy makes non-finite comes back
    non-finite and any other error is raised as it is there.
    """
    try:
        return _rk4_sample_step(field, math, row, delta, substeps)
    except (ArithmeticError, ValueError):
        (batch,) = _rk4_sample_step(batch_field, np, [np.array([row])],
                                    delta, substeps)
        return batch[0].tolist()


def _samples(spec, config, x0s):
    """Yield the batch's states ``(m, n)`` at samples 1, 2, ... ."""
    delta, substeps = config.delta, config.substeps

    def batch_field(x, m):
        # an array rhs is a field of one component: the whole batch
        return (spec.rhs(x[0]),)

    if spec.a_matrix is not None:
        step_t = _rk4_sample_matrix(spec.a_matrix, delta, substeps).T
        state = x0s
        while True:
            state = state @ step_t
            yield state
    elif spec.field is not None and x0s.shape[0] <= _FLOAT_ROWS:
        rows = x0s.tolist()
        while True:
            rows = [_float_sample_step(spec.field, batch_field, row, delta,
                                       substeps)
                    for row in rows]
            yield rows
    else:
        state = x0s
        while True:
            (state,) = _rk4_sample_step(batch_field, np, [state], delta,
                                        substeps)
            yield state


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
    All trajectories share the coarse time grid.  A linear system takes
    one product with the sample matrix per coarse sample; a component
    field steps row by row on floats (at most ``_FLOAT_ROWS`` rows); any
    other batch steps ``rhs`` on the whole batch.  A vector field that does
    not give ``n`` components is rejected before the first step.  A
    non-finite state aborts the run with an IntegrationError naming the
    earliest sample and the lowest trajectory that is non-finite there.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != spec.n:
        raise ValueError(f"x0s must have shape (m, {spec.n}), got {x0s.shape}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if spec.a_matrix is None:
        # the stage loop's zip and the broadcast into ``out`` would hide a
        # field with too few or too many components; one call shows it
        shape = np.shape(spec.rhs(x0s[:1]))
        if shape != x0s[:1].shape:
            raise ValueError(
                f"{spec.name} vector field maps states of shape "
                f"{x0s[:1].shape} to shape {shape}"
            )
    out = np.empty((x0s.shape[0], num_samples + 1, spec.n))
    out[:, 0] = x0s
    for k, state in zip(range(1, num_samples + 1), _samples(spec, config, x0s)):
        out[:, k] = state
        finite = np.isfinite(out[:, k]).all(axis=1)
        if not finite.all():
            bad = int(np.nonzero(~finite)[0][0])
            raise IntegrationError(
                f"non-finite state in trajectory {bad} at sample {k} "
                f"(t={k * config.delta:g}) while integrating {spec.name}",
                sample_index=k,
                trajectory_index=bad,
            )
    return out


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------

_EXPM_TERMS = 24  # series terms at norm <= 1/2: relative error far below 1e-12


def matrix_exponential(a):
    """exp(a) by scaling-and-squaring around a truncated-series core.

    The input is scaled by a power of two until its 1-norm is at most 1/2,
    the series is summed in Horner form with ``_EXPM_TERMS`` terms, and the
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
    for k in range(_EXPM_TERMS, 0, -1):
        result = eye + (scaled @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


# ---------------------------------------------------------------------------
# Linear Mori-Zwanzig oracle
# ---------------------------------------------------------------------------

_QUAD_POINTS = 1000  # history samples per unit time in linear_mz_rhs


@dataclass(frozen=True)
class LinearMZOracle:
    """A linear system dx/dt = A x seen through its first ``d`` components.

    With x = (z; w), z in R^d observed, the observed block satisfies exactly

        dz/dt = A11 z(t)
              + A12 * integral_0^t exp(A22 s) A21 z(t-s) ds
              + A12 * exp(A22 t) w(0).

    The oracle holds ``a`` and ``d`` only; ``a11``..``a22`` are views of
    ``a``.  ``d == n`` is allowed: the unobserved blocks are then empty and
    the memory and noise terms vanish.
    """

    a: np.ndarray
    d: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not 1 <= self.d <= a.shape[0]:
            raise ValueError(
                f"observed dimension d={self.d} must satisfy 1 <= d <= n={a.shape[0]}"
            )
        object.__setattr__(self, "a", a)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def a11(self):
        return self.a[: self.d, : self.d]

    @property
    def a12(self):
        return self.a[: self.d, self.d :]

    @property
    def a21(self):
        return self.a[self.d :, : self.d]

    @property
    def a22(self):
        return self.a[self.d :, self.d :]


def oracle_for_system(spec):
    """The exact reduced-dynamics oracle of a linear SystemSpec; nonlinear
    systems are rejected."""
    if spec.a_matrix is None:
        raise ValueError(f"{spec.name} is not linear; no exact oracle available")
    return LinearMZOracle(spec.a_matrix, spec.d)


def exact_linear_solution(oracle, x0, t):
    """Full-state solution exp(A t) x0 of the linear system."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (oracle.n,):
        raise ValueError(f"x0 must have shape ({oracle.n},), got {x0.shape}")
    return matrix_exponential(oracle.a * t) @ x0


def exact_linear_trajectory(oracle, x0, delta, num_samples):
    """Exact states at times 0, delta, ..., num_samples*delta.

    Computed by repeated application of the one-step propagator
    exp(A delta), so there is no time-discretization error.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (oracle.n,):
        raise ValueError(f"x0 must have shape ({oracle.n},), got {x0.shape}")
    step = matrix_exponential(oracle.a * delta)
    out = np.empty((num_samples + 1, oracle.n))
    out[0] = x0
    for k in range(1, num_samples + 1):
        out[k] = step @ out[k - 1]
    return out


def _memory_matrix(oracle, h, m):
    """Trapezoid rule for the memory term over a window of ``m`` steps of
    length ``h``, as one ``(d, (m + 1) * d)`` matrix.

    Node j carries the kernel A12 exp(A22 j h) A21 with weight h (h/2 at
    both ends; all zero when m == 0, a window of length 0) and multiplies
    z(t - j h).  The blocks are stored oldest node first, so the matrix
    applies to a history of ``m + 1`` states in time order, flattened.
    """
    step = matrix_exponential(oracle.a22 * h)
    powers = np.empty((m + 1, *step.shape))  # exp(A22 j h), j = 0..m
    powers[0] = np.eye(step.shape[0])
    for j in range(1, m + 1):
        powers[j] = step @ powers[j - 1]
    kernels = oracle.a12 @ powers @ oracle.a21
    weights = np.full(m + 1, h if m > 0 else 0.0)
    weights[[0, -1]] *= 0.5
    weighted = (weights[::-1, None, None] * kernels[::-1]).transpose(1, 0, 2)
    return weighted.reshape(oracle.d, (m + 1) * oracle.d)


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
    return _memory_matrix(oracle, truncation / m, m) @ z_history.reshape(-1)


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
    exact solution at ``_QUAD_POINTS`` samples per unit time.  Useful as
    a self-check: the result must match the time derivative of the
    observed block of exp(A t) x0 up to quadrature error.
    """
    x0 = np.asarray(x0, dtype=float)
    d = oracle.d
    if t == 0:
        return oracle.a11 @ x0[:d] + mz_noise_term(oracle, x0[d:], 0.0)
    m = max(1, int(round(t * _QUAD_POINTS)))
    full = exact_linear_trajectory(oracle, x0, t / m, m)
    z_history = full[:, :d]
    markov = oracle.a11 @ z_history[-1]
    memory = mz_memory_integral(oracle, z_history, t, t)
    noise = mz_noise_term(oracle, x0[d:], t)
    return markov + memory + noise
