"""Benchmark systems, fixed-step RK4 integration, and exact linear
Mori-Zwanzig references.

Everything downstream (data generation, training, rollout validation) sits
on this module.  It provides:

* ``SystemSpec`` -- a vector field on R^n with the first ``d`` components
  designated as the observed variables.  A system is described once: by
  its matrix ``a_matrix`` (linear) or by its component ``field``
  (nonlinear), and ``rhs`` on state arrays is worked out from that one.
  Built-in systems, the homogenized closure ``example3-reduced`` among
  them, are constructed by :func:`make_system`; arbitrary linear block
  systems by :func:`linear_system`.
* a classical 4th-order Runge-Kutta integrator with a fixed number of
  substeps per coarse sample step (:func:`integrate_batch`).  It advances
  an ``(m, n)`` batch of initial conditions in lock-step and returns
  ``(m, num_samples + 1, n)``; one trajectory is a batch of one row.
  For a linear system (``a_matrix`` set) RK4 is the linear map R(hA)
  with the stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
  so one coarse sample is one product with the precomputed
  S = R(hA)^substeps.  That is the same scheme with its sums in another
  order: it agrees with the stage loop to about 1e-12 absolute on states
  of order 1 (2000 samples of example4).  A nonlinear system runs the one
  RK4 stage loop on its field, which takes the state as a sequence of
  components and a math namespace (``SystemSpec.field``): a batch of at
  most ``_FLOAT_ROWS`` rows runs row by row on Python floats with
  ``math``, where numpy's per-call overhead would cost more than the
  arithmetic, and a wider batch runs on its ``m``-row columns with
  ``numpy``.  Both apply the same float operations in the same order, so
  they agree bitwise wherever ``math`` and ``numpy`` evaluate their
  functions alike.
* :func:`matrix_exponential` (scaling-and-squaring, truncated-series core).
* exact linear Mori-Zwanzig references: for a linear spec the dynamics of
  the observed block is known exactly (:func:`linear_mz_rhs`): a Markov
  term ``A11 z(t)``, a memory integral with kernel ``exp(A22 s) A21
  z(t-s)`` projected through ``A12``, and a term propagating the
  unobserved initial state.  The references take the linear spec itself,
  and the blocks ``A11``..``A22`` are views of its ``a_matrix`` split at
  ``d``; a spec given by its field is rejected as not linear.  They give
  a zero-model-error reference that trained networks and discrete schemes
  are validated against.

All right-hand sides broadcast over leading axes: they accept state arrays
of shape ``(..., n)`` and return the same shape.
"""

from __future__ import annotations

import importlib.resources
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "SystemSpec",
    "Domain",
    "SolverConfig",
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

    A system is given by exactly one of ``a_matrix`` and ``field``; a spec
    with neither or both is a ValueError.

    Attributes
    ----------
    name : str
        Identifier, e.g. ``"example2"``.
    n : int
        Full state dimension.
    d : int
        Observed dimension; the observation map keeps components ``[:d]``.
    a_matrix : ndarray or None
        For linear systems, the full ``n x n`` matrix: dx/dt = a_matrix @ x.
        Stored as a float array of its own, which must be finite.
        Integration and the exact references step with this matrix.
    field : callable or None
        For nonlinear systems, the vector field over components:
        ``field(x, m)`` takes a sequence of the ``n`` state components and
        a math namespace ``m`` (``math`` when the components are floats,
        ``numpy`` when they are arrays) and returns the ``n`` derivative
        components.  Integration runs the RK4 stage loop on it.
    """

    name: str
    n: int
    d: int
    a_matrix: np.ndarray | None = None
    field: Callable | None = None

    def __post_init__(self):
        if not (1 <= self.d <= self.n):
            raise ValueError(
                f"observed dimension d={self.d} must satisfy 1 <= d <= n={self.n}"
            )
        if (self.a_matrix is None) == (self.field is None):
            raise ValueError(f"{self.name} needs exactly one of a_matrix and field")
        if self.a_matrix is not None:
            a = np.array(self.a_matrix, dtype=float)
            if a.shape != (self.n, self.n):
                raise ValueError(f"{self.name} has n={self.n} but a matrix of "
                                 f"shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{self.name} matrix must be finite-valued")
            object.__setattr__(self, "a_matrix", a)

    def rhs(self, state):
        """dx/dt at states of shape ``(..., n)``, as an array of that shape:
        ``state @ a_matrix.T``, or ``field`` on the last axis's components."""
        state = np.asarray(state, dtype=float)
        if state.shape[-1] != self.n:
            raise ValueError(
                f"{self.name} state has dimension {self.n}, got {state.shape[-1]}"
            )
        if self.a_matrix is not None:
            return state @ self.a_matrix.T
        derivative = self.field([state[..., i] for i in range(self.n)], np)
        if len(derivative) != self.n:
            raise ValueError(
                f"vector field returns {len(derivative)} components, expected {self.n}"
            )
        out = np.empty_like(state)
        for i, component in enumerate(derivative):
            out[..., i] = component
        return out

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


def linear_system(a, d, name="linear-generic"):
    """Linear system dx/dt = a @ x observing the first ``d`` components;
    ``n`` is read from the square matrix ``a``."""
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"matrix must be square, got shape {shape}")
    return SystemSpec(name=name, n=shape[0], d=d, a_matrix=a)


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
    * ``example3-reduced`` -- 3-variable homogenized closure of example3:
      dx1 = -x2 - x3, dx2 = x1 + x2/5, dx3 = 1/5 + x3*(x1 - 5), example3
      with its fast variable y replaced by the value x1*x3 it relaxes to.
    * ``example4`` -- 20-variable linear system, observed first 10
      components; coefficients from the packaged matrix file.

    An optional ``observe`` parameter overrides the observed dimension
    (e.g. ``observe=2`` on example1 makes the full state visible, turning
    dataset construction into plain flow-map learning).
    """
    params = dict(params)
    observe = _pop_number(name, params, "observe", None, integer=True)

    if name == "example1":
        alpha = _pop_number(name, params, "alpha", 2.0)
        _reject_params(name, params)
        spec = linear_system([[1.0, -4.0], [4.0, -alpha]], d=1, name=name)

    elif name == "example2":
        alpha = _pop_number(name, params, "alpha", 0.1)
        beta = _pop_number(name, params, "beta", 8.91)
        _reject_params(name, params)

        def field(x, m):
            x1, x2 = x
            return (x2, -alpha * x2 - beta * m.sin(x1))

        spec = SystemSpec(name=name, n=2, d=1, field=field)

    elif name == "example3":
        epsilon = _pop_number(name, params, "epsilon", 0.01)
        _reject_params(name, params)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")

        def field(x, m):
            x1, x2, x3, y = x
            return (-x2 - x3, x1 + x2 / 5.0, 0.2 + y - 5.0 * x3,
                    (x1 * x3 - y) / epsilon)

        spec = SystemSpec(name=name, n=4, d=3, field=field)

    elif name == "example3-reduced":
        _reject_params(name, params)

        def field(x, m):
            x1, x2, x3 = x
            return (-x2 - x3, x1 + x2 / 5.0, 0.2 + x3 * (x1 - 5.0))

        spec = SystemSpec(name=name, n=3, d=3, field=field)

    elif name == "example4":
        _reject_params(name, params)
        sig = example4_sigma()
        eye = np.eye(10)
        a = np.block([[sig["SIGMA11"], eye + sig["SIGMA12"]],
                      [-(eye + sig["SIGMA21"]), -sig["SIGMA22"]]])
        spec = linear_system(a, d=10, name=name)

    elif name == "linear-generic":
        matrix = params.pop("matrix", None)
        d = _pop_number(name, params, "d", None, integer=True)
        _reject_params(name, params)
        if matrix is None or d is None:
            raise ValueError("linear-generic requires 'matrix' and 'd' parameters")
        spec = linear_system(matrix, d=d)

    else:
        raise ValueError(f"unknown system {name!r}; known: {', '.join(SYSTEM_NAMES)}")
    return spec if observe is None else replace(spec, d=observe)


def _pop_number(name, params, key, default, integer=False):
    """Remove ``key`` from ``params`` and return it as a float, or as an int
    if ``integer``; ``default`` when it is absent.  A bool, a non-number or,
    for ``integer``, a non-integral value is a ValueError naming the key."""
    if key not in params:
        return default
    value = params.pop(key)
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} parameter {key!r} must be "
                         f"{'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


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
    """The initial-condition box a system is studied on: each built-in's
    own, and [-2, 2]^n for any other."""
    lower, upper = _DEFAULT_DOMAINS.get(spec.name, ([-2.0] * spec.n, [2.0] * spec.n))
    return Domain(np.array(lower), np.array(upper))


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


# A batch of at most this many rows integrates its field row by row on
# Python floats; a wider one runs it on the batch's columns in numpy.  One
# substep costs about 4-7 us per row on floats against 40-90 us per batch
# on columns up to a few dozen rows: floats are faster up to about 9 rows
# on example2 and 16 on example3 (measurements in CHANGES.md).
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


def _float_sample_step(field, row, delta, substeps):
    """One coarse sample of one state on Python floats.

    ``math`` raises where numpy returns inf or NaN (sin(inf), exp(1000),
    1/0).  The sample is then redone on numpy columns of one row, as the
    wide path runs it, so a state that numpy makes non-finite comes back
    non-finite and any other error is raised as it is there.
    """
    try:
        return _rk4_sample_step(field, math, row, delta, substeps)
    except (ArithmeticError, ValueError):
        columns = [np.array([x]) for x in row]
        return np.concatenate(_rk4_sample_step(field, np, columns, delta,
                                               substeps)).tolist()


def _samples(spec, config, x0s):
    """Yield the batch's states ``(m, n)`` at samples 1, 2, ... ."""
    delta, substeps = config.delta, config.substeps
    if spec.a_matrix is not None:
        step_t = _rk4_sample_matrix(spec.a_matrix, delta, substeps).T
        state = x0s
        while True:
            state = state @ step_t
            yield state
    elif x0s.shape[0] <= _FLOAT_ROWS:
        rows = x0s.tolist()
        while True:
            rows = [_float_sample_step(spec.field, row, delta, substeps)
                    for row in rows]
            yield rows
    else:
        columns = list(x0s.T)
        while True:
            columns = _rk4_sample_step(spec.field, np, columns, delta, substeps)
            yield np.stack(columns, axis=-1)


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
    one product with the sample matrix per coarse sample; a nonlinear one
    steps its field row by row on floats (at most ``_FLOAT_ROWS`` rows) or
    on the batch's columns.  A vector field that does not give ``n``
    components is rejected before the first step.  A non-finite state
    aborts the run with an IntegrationError naming the earliest sample and
    the lowest trajectory that is non-finite there.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != spec.n:
        raise ValueError(f"x0s must have shape (m, {spec.n}), got {x0s.shape}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if spec.a_matrix is None:
        # the stage loop's zip would hide a field with too few or too many
        # components; rhs counts them
        spec.rhs(x0s[:1])
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
# Exact linear Mori-Zwanzig references
# ---------------------------------------------------------------------------

_QUAD_POINTS = 1000  # history samples per unit time in linear_mz_rhs


def _linear_matrix(spec):
    """The matrix of a linear spec; a spec given by its field is rejected."""
    if spec.a_matrix is None:
        raise ValueError(f"{spec.name} is not linear; no exact reference available")
    return spec.a_matrix


def _blocks(spec):
    """Views (A11, A12, A21, A22) of a linear spec's matrix split at ``d``.

    With ``d == n`` the unobserved blocks are empty, so the memory and
    noise terms vanish.
    """
    a, d = _linear_matrix(spec), spec.d
    return a[:d, :d], a[:d, d:], a[d:, :d], a[d:, d:]


def oracle_for_system(spec):
    """The linear spec itself, which the exact references take; a spec given
    by its field is rejected."""
    _linear_matrix(spec)
    return spec


def exact_linear_solution(spec, x0, t):
    """Full-state solution exp(A t) x0 of a linear spec."""
    a = _linear_matrix(spec)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.n,):
        raise ValueError(f"x0 must have shape ({spec.n},), got {x0.shape}")
    return matrix_exponential(a * t) @ x0


def exact_linear_trajectory(spec, x0, delta, num_samples):
    """Exact states at times 0, delta, ..., num_samples*delta.

    Computed by repeated application of the one-step propagator
    exp(A delta), so there is no time-discretization error.
    """
    a = _linear_matrix(spec)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.n,):
        raise ValueError(f"x0 must have shape ({spec.n},), got {x0.shape}")
    step = matrix_exponential(a * delta)
    out = np.empty((num_samples + 1, spec.n))
    out[0] = x0
    for k in range(1, num_samples + 1):
        out[k] = step @ out[k - 1]
    return out


def _memory_matrix(spec, h, m):
    """Trapezoid rule for the memory term over a window of ``m`` steps of
    length ``h``, as one ``(d, (m + 1) * d)`` matrix.

    Node j carries the kernel A12 exp(A22 j h) A21 with weight h (h/2 at
    both ends; all zero when m == 0, a window of length 0) and multiplies
    z(t - j h).  The blocks are stored oldest node first, so the matrix
    applies to a history of ``m + 1`` states in time order, flattened.
    """
    _, a12, a21, a22 = _blocks(spec)
    step = matrix_exponential(a22 * h)
    powers = np.empty((m + 1, *step.shape))  # exp(A22 j h), j = 0..m
    powers[0] = np.eye(step.shape[0])
    for j in range(1, m + 1):
        powers[j] = step @ powers[j - 1]
    kernels = a12 @ powers @ a21
    weights = np.full(m + 1, h if m > 0 else 0.0)
    weights[[0, -1]] *= 0.5
    weighted = (weights[::-1, None, None] * kernels[::-1]).transpose(1, 0, 2)
    return weighted.reshape(spec.d, (m + 1) * spec.d)


def mz_memory_integral(spec, z_history, t, truncation):
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
    _linear_matrix(spec)  # rejects a nonlinear spec also where T = 0
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    if truncation > t + 1e-12:
        raise ValueError(f"truncation {truncation} exceeds current time {t}")
    z_history = np.atleast_2d(np.asarray(z_history, dtype=float))
    if z_history.shape[-1] != spec.d:
        raise ValueError(
            f"history rows have dimension {z_history.shape[-1]}, expected {spec.d}"
        )
    if truncation == 0:
        return np.zeros(spec.d)
    m = z_history.shape[0] - 1
    if m < 1:
        raise ValueError(
            f"insufficient history: need >= 2 samples covering [t-T, t], "
            f"got {z_history.shape[0]}"
        )
    return _memory_matrix(spec, truncation / m, m) @ z_history.reshape(-1)


def mz_noise_term(spec, w0, t):
    """Contribution of the unobserved initial state, A12 exp(A22 t) w0.

    This is the orthogonal-dynamics term of the reduced equations; it is
    the only place the unobserved initial data enters.  The leading
    coefficient must be A12 (shape d x (n-d)) for the reduced derivative
    decomposition to close -- see the decomposition identity tests.
    """
    _, a12, _, a22 = _blocks(spec)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    w0 = np.asarray(w0, dtype=float)
    m = a22.shape[0]
    if w0.shape != (m,):
        raise ValueError(f"w0 must have shape ({m},), got {w0.shape}")
    return a12 @ (matrix_exponential(a22 * t) @ w0)


def linear_mz_rhs(spec, x0, t):
    """dz/dt at time ``t`` via the exact reduced decomposition.

    A linear spec dx/dt = A x with x = (z; w), z in R^d observed, has an
    observed block that satisfies exactly

        dz/dt = A11 z(t)
              + A12 * integral_0^t exp(A22 s) A21 z(t-s) ds
              + A12 * exp(A22 t) w(0).

    Evaluates Markov term + full-interval memory quadrature (T = t) +
    unobserved-initial-state term, with the history sampled from the
    exact solution at ``_QUAD_POINTS`` samples per unit time.  Useful as
    a self-check: the result must match the time derivative of the
    observed block of exp(A t) x0 up to quadrature error.
    """
    a11 = _blocks(spec)[0]
    x0 = np.asarray(x0, dtype=float)
    d = spec.d
    if t == 0:
        return a11 @ x0[:d] + mz_noise_term(spec, x0[d:], 0.0)
    m = max(1, int(round(t * _QUAD_POINTS)))
    full = exact_linear_trajectory(spec, x0, t / m, m)
    z_history = full[:, :d]
    markov = a11 @ z_history[-1]
    memory = mz_memory_integral(spec, z_history, t, t)
    noise = mz_noise_term(spec, x0[d:], t)
    return markov + memory + noise
