"""Benchmark systems, fixed-step RK4 integration, and exact linear
Mori-Zwanzig references.

Everything downstream (data generation, training, rollout validation) sits
on this module.  It provides:

* ``SystemSpec`` -- a vector field on R^n with the first ``d`` components
  designated as the observed variables.  A system is described once: by
  its matrix ``a_matrix`` (linear) or by its ``field``, one expression
  per component over ``x0 ... x{n-1}`` and named ``params`` (nonlinear),
  and ``rhs`` on state arrays is worked out from that one.
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
  of order 1 (2000 samples of example4).  A nonlinear system runs one
  RK4 stage loop generated from its field once per
  :func:`integrate_batch` call, with every component and stage held in a
  local variable and each expression written inline, so a stage calls no
  Python function.  The expressions are checked against a small allowlist
  when the spec is built, and nothing else is compiled.  A batch of at
  most ``_FLOAT_ROWS`` (32) rows runs the loop on Python floats with
  ``math``'s sin, cos and exp, one call per row for all its samples,
  where numpy's per-call overhead would cost more than the arithmetic; a
  wider batch, or a narrow one on which ``math`` raises (sin(inf), 1/0),
  runs it on its ``m``-row columns with ``numpy``'s, one call per sample.
  Both apply the same float operations in the same order, so they agree
  bitwise wherever ``math`` and ``numpy`` evaluate their functions alike.
  Every path fills its samples first; one check after the loop turns the
  earliest non-finite state into an IntegrationError, with no warning.
* :func:`matrix_exponential` (scaling-and-squaring, truncated-series core).
* exact linear Mori-Zwanzig references: for a linear spec the dynamics of
  the observed block is known exactly (:func:`linear_mz_rhs`): a Markov
  term ``A11 z(t)``, a memory integral with kernel ``exp(A22 s) A21
  z(t-s)`` projected through ``A12``, and a term propagating the
  unobserved initial state.  All three come from one block exponential,
  exact to round-off.  The references take the linear spec itself, and
  the blocks ``A11``..``A22`` are views of its ``a_matrix`` split at
  ``d``; a spec given by its field is rejected as not linear.  They give
  a zero-model-error reference that trained networks and discrete schemes
  are validated against.

All right-hand sides broadcast over leading axes: they accept state arrays
of shape ``(..., n)`` and return the same shape.
"""

from __future__ import annotations

import ast
import functools
import importlib.resources
import keyword
import math
import numbers
from dataclasses import dataclass, replace

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
    "exact_reduced_map",
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
        Its entries must be numbers, not strings or bools; it is stored as
        a float array of its own, which must be finite.
        Integration and the exact references step with this matrix.
    field : tuple of str or None
        For nonlinear systems, the vector field as ``n`` Python expressions,
        component i of dx/dt in the i-th, over the state components
        ``x0 ... x{n-1}`` and the names in ``params``; the pendulum is
        ``("x1", "-alpha * x1 - beta * sin(x0)")``.  An expression may use
        only those names, numbers, unary ``+ -``, binary ``+ - * / **`` and
        calls of ``sin``, ``cos`` and ``exp`` on one argument; anything else
        is a ValueError naming the expression.  Stored as ``ast.unparse``
        writes them; the RK4 loop and ``rhs`` are generated from them
        (:func:`_generate`).
    params : mapping of str to float, optional
        The field's named constants, e.g. ``{"alpha": 0.1, "beta": 8.91}``:
        finite numbers, stored as floats, under ASCII identifiers that do
        not start with ``_`` and are not components, ``sin``, ``cos``,
        ``exp`` or ``range``.  A matrix takes none; stored as a dict.
    """

    name: str
    n: int
    d: int
    a_matrix: np.ndarray | None = None
    field: tuple | None = None
    params: dict | None = None

    def __post_init__(self):
        n, d = _count("n", self.n, 1), _count("d", self.d, 1)
        if d > n:
            raise ValueError(f"observed dimension d={d} must satisfy 1 <= d <= n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        if (self.a_matrix is None) == (self.field is None):
            raise ValueError(f"{self.name} needs exactly one of a_matrix and field")
        params = dict(self.params or {})
        if self.a_matrix is not None:
            a = self.a_matrix
            # float() would read a string or a bool as a number; an integer
            # or float array holds numbers, so its entries are not looked at
            numeric = isinstance(a, np.ndarray) and a.dtype.kind in "iuf"
            if not numeric and not all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool)
                    for x in np.asarray(a, dtype=object).flat):
                raise ValueError(f"{self.name} matrix must hold numbers")
            a = np.array(a, dtype=float)
            if a.shape != (self.n, self.n):
                raise ValueError(f"{self.name} has n={self.n} but a matrix of "
                                 f"shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{self.name} matrix must be finite-valued")
            if params:
                raise ValueError(f"{self.name}: params name constants of a field; "
                                 f"a matrix takes none")
            object.__setattr__(self, "a_matrix", a)
        else:
            if callable(self.field) or isinstance(self.field, str):
                raise ValueError(f"{self.name} field must be a sequence of expression "
                                 f"strings, got {self.field!r}")
            field = tuple(self.field)
            if len(field) != self.n:
                raise ValueError(
                    f"vector field returns {len(field)} components, expected {self.n}"
                )
            components = {f"x{i}" for i in range(self.n)}
            for key, value in params.items():
                if (not isinstance(key, str) or not key.isascii()
                        or not key.isidentifier() or keyword.iskeyword(key)
                        or key.startswith("_") or key in components
                        or key in (*_FUNCTIONS, "range")):
                    raise ValueError(
                        f"{self.name} parameter name {key!r} is not allowed")
                params[key] = _number(f"{self.name} parameter {key!r}", value,
                                      -math.inf, False)
            names = components | set(params)
            object.__setattr__(self, "field", tuple(
                _checked_expression(self.name, text, names) for text in field))
        object.__setattr__(self, "params", params)

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
        _, field = _generate(self, np)
        out = np.empty_like(state)
        for i, component in enumerate(field(*(state[..., i] for i in range(self.n)))):
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


_FUNCTIONS = ("sin", "cos", "exp")


def _checked_expression(name, text, names):
    """``text`` as ``ast.unparse`` writes it, once it is known to use only
    ``names``, numbers, unary ``+ -``, binary ``+ - * / **`` and calls of
    sin, cos and exp on one argument; anything else is a ValueError
    naming the expression and the part not allowed."""
    try:
        tree = ast.parse(text.strip(), mode="eval").body
    except (AttributeError, SyntaxError, ValueError):  # not a str, not an expression
        raise ValueError(f"{name} field expression {text!r} is not "
                         f"a Python expression") from None
    bad = _outside_field_language(tree, names)
    if bad is not None:
        raise ValueError(f"{name} field expression {text!r} may not use "
                         f"{ast.unparse(bad)!r}: only components, parameters, "
                         f"numbers, + - * / ** and sin, cos, exp")
    return ast.unparse(tree)


def _outside_field_language(node, names):
    """The first part of expression tree ``node`` not allowed in a field."""
    match node:
        case ast.Constant(value=value) if type(value) in (int, float):
            return None
        case ast.Name(id=name) if name in names:
            return None
        case ast.UnaryOp(op=ast.UAdd() | ast.USub(), operand=inner):
            return _outside_field_language(inner, names)
        case ast.Call(func=ast.Name(id=function), args=[inner],
                      keywords=[]) if function in _FUNCTIONS:
            return _outside_field_language(inner, names)
        case ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.Div() | ast.Pow(),
                       left=left, right=right):
            return (_outside_field_language(left, names)
                    or _outside_field_language(right, names))
    return node


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box of initial conditions: ``lower[i] < upper[i]``, and
    each width ``upper[i] - lower[i]`` finite, so uniform draws exist."""

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
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(upper - lower)):
                raise ValueError(f"domain width upper - lower must be finite, "
                                 f"got lower={lower.tolist()}, upper={upper.tolist()}")

    @property
    def n(self):
        return self.lower.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Coarse sample step and integrator resolution.

    The integrator is the classical 4th-order Runge-Kutta method with
    ``substeps`` uniform internal steps per coarse step ``delta``.
    ``delta`` is a number > 0 and ``substeps`` a count >= 1, stored as a
    Python float and int (:func:`_number`, :func:`_count`).
    """

    delta: float = 0.02
    substeps: int = 20

    def __post_init__(self):
        object.__setattr__(self, "delta", _number("delta", self.delta, 0, True))
        object.__setattr__(self, "substeps", _count("substeps", self.substeps, 1))


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

_SIGMA_LABELS = ("SIGMA11", "SIGMA12", "SIGMA21", "SIGMA22")


def example4_sigma():
    """The four 10x10 coupling blocks of the built-in 20-variable system.

    Loaded once from the packaged plain-text file (row-major, one labeled
    block per matrix, values already scaled by 1e-3).
    """
    return {k: v.copy() for k, v in _load_sigma().items()}


@functools.cache
def _load_sigma():
    path = importlib.resources.files(__package__) / "example4_sigma.txt"
    lines = path.read_text().splitlines()
    labels = tuple(line.strip() for line in lines if line.startswith("SIGMA"))
    if labels != _SIGMA_LABELS:
        raise ValueError(f"expected blocks {_SIGMA_LABELS} in order, found {labels}")
    rows = np.loadtxt(lines, comments=("#", "SIGMA"))
    if rows.shape != (40, 10):
        raise ValueError(f"matrix rows have shape {rows.shape}, expected (40, 10)")
    return dict(zip(_SIGMA_LABELS, rows.reshape(4, 10, 10)))


def linear_system(a, d, name="linear-generic"):
    """Linear system dx/dt = a @ x observing the first ``d`` components;
    ``n`` is read from the square matrix ``a``."""
    # a ragged nested list has the shape of an object array: (2,) for
    # [[1, 2], [3]], where np.shape raises
    shape = (a if isinstance(a, np.ndarray) else np.asarray(a, dtype=object)).shape
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
        spec = SystemSpec(name=name, n=2, d=1,
                          field=("x1", "-alpha * x1 - beta * sin(x0)"),
                          params={"alpha": alpha, "beta": beta})

    elif name == "example3":
        epsilon = _pop_number(name, params, "epsilon", 0.01)
        _reject_params(name, params)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        # x3 is the fast variable y
        spec = SystemSpec(name=name, n=4, d=3,
                          field=("-x1 - x2", "x0 + x1 / 5.0", "0.2 + x3 - 5.0 * x2",
                                 "(x0 * x2 - x3) / epsilon"),
                          params={"epsilon": epsilon})

    elif name == "example3-reduced":
        _reject_params(name, params)
        spec = SystemSpec(name=name, n=3, d=3,
                          field=("-x1 - x2", "x0 + x1 / 5.0", "0.2 + x2 * (x0 - 5.0)"))

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
    """Remove ``key`` from ``params`` and return it as a count >= 1 if
    ``integer``, else as any finite number; ``default`` when it is absent.
    The ValueError of :func:`_count` or :func:`_number` names system and key."""
    if key not in params:
        return default
    label = f"{name} parameter {key!r}"
    if integer:
        return _count(label, params.pop(key), 1)
    return _number(label, params.pop(key), -math.inf, False)


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
    """The initial-condition box a system is studied on: a built-in's own
    where it has ``spec.n`` components, else [-2, 2]^n."""
    lower, upper = _DEFAULT_DOMAINS.get(spec.name, ((), ()))
    if len(lower) != spec.n:
        lower, upper = [-2.0] * spec.n, [2.0] * spec.n
    return Domain(np.array(lower), np.array(upper))


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


# At most this many rows integrate row by row on floats, more on numpy
# columns: floats take 0.63-0.78 of the column time at 32 rows and cross it
# at 40-56 on example2, example3-reduced and example3 (CHANGES.md).
_FLOAT_ROWS = 32


def _generate(spec, m):
    """``(rows, field)`` for the nonlinear ``spec``, compiled from its
    expressions with ``m``'s (``math`` or ``numpy``) sin, cos and exp.

    The pair is compiled once per field, parameter values and module and
    kept in a cache of the last 32, keyed by value: equal
    specs share a loop, and two specs whose parameters differ in any bit
    (0.0 and -0.0 among them) never do.

    ``field(x0, ..., x{n-1})`` returns the ``n`` derivative components.
    ``rows(states, count, delta, substeps)`` appends to ``states`` one
    tuple of components per coarse step of ``delta`` from ``states[-1]``,
    ``count`` of them: on numpy the columns of a batch, which its caller
    checks; on math the floats of one row, returning after a state that is
    not finite.  A complex float state (a negative number to a fractional
    power) raises TypeError before it is appended, as ``math`` raises on
    sin(inf).

    The stage loop is written out with each component and stage as a local
    variable and each expression inline.  The functions, the parameters and
    each part of an expression made of parameters alone (example2's
    ``-alpha``, computed once per call) are locals too, so a stage calls no
    Python function.  Component i of the stages is evaluated at
    ``s_i + half * a_i``, ``s_i + half * b_i`` and ``s_i + h * c_i``, and
    the new state is ``s_i + sixth * (a_i + 2.0 * b_i + 2.0 * c_i + e_i)``,
    the classical RK4 sums in a fixed order.
    """
    params = tuple((key, value.hex()) for key, value in spec.params.items())
    return _compile(spec.field, params, m.__name__)


# A compile takes 0.4-0.7 ms and a kept pair about 8 kB (example2 and
# example3), so 32 pairs hold about 0.25 MB.  Keyed by value, one pair
# serves every block of a generation and each stage's own spec of a run.
@functools.lru_cache(maxsize=32)
def _compile(field, params, module):
    """:func:`_generate`'s pair for the expressions ``field``, the
    parameters ``params`` as ``(name, float.hex(value))`` pairs and the
    module named ``module``."""
    m = math if module == "math" else np
    params = {key: float.fromhex(value) for key, value in params}
    components, folds = {f"x{i}" for i in range(len(field))}, {}

    class Fold(ast.NodeTransformer):  # parameters-only parts become _p{j}
        def visit(self, node):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if isinstance(node, ast.Name) or not names or names & components:
                return self.generic_visit(node)
            return ast.Name(folds.setdefault(ast.unparse(node), f"_p{len(folds)}"))

    # Only expressions that passed _checked_expression, and parameter names
    # that are plain identifiers, are written into the source.
    fields = [ast.unparse(Fold().visit(ast.parse(e, mode="eval"))) for e in field]

    def each(template, sep="\n            "):
        return sep.join(template.format(i=i, e=e) for i, e in enumerate(fields))

    state = each("_s{i}", ", ") + ","
    bound = ", ".join(f"{k}={k}" for k in ("_isfinite", *_FUNCTIONS, *params))
    head = "".join(f"\n    {name} = {text}" for text, name in folds.items())
    stages = "\n            ".join(map(each, (
        "x{i} = _s{i}", "_a{i} = {e}", "x{i} = _s{i} + _half * _a{i}", "_b{i} = {e}",
        "x{i} = _s{i} + _half * _b{i}", "_c{i} = {e}", "x{i} = _s{i} + _h * _c{i}",
        "_e{i} = {e}", "_s{i} = _s{i} + _sixth * (_a{i} + 2.0 * _b{i} + 2.0 * _c{i} + _e{i})")))
    source = (
        f"def _field({each('x{i}', ', ')}, {bound}):{head}\n"
        f"    return ({each('{e}', ', ')},)\n"
        f"def _rows(_states, _count, _delta, _substeps, {bound}):{head}\n"
        "    _h = _delta / _substeps\n"
        "    _half, _sixth = 0.5 * _h, _h / 6.0\n"
        f"    {state} = _states[-1]\n"
        "    for _ in range(_count):\n"
        "        for _ in range(_substeps):\n"
        f"            {stages}\n"
        f"        _finite = {each('_isfinite(_s{i})', ' & ')}\n"
        f"        _states.append(({state}))\n"
        "        if not _finite:\n"
        "            return\n"
    )
    namespace = {f: getattr(m, f) for f in _FUNCTIONS} | params
    namespace["_isfinite"] = math.isfinite if m is math else lambda column: True
    exec(source, namespace)
    return namespace["_rows"], namespace["_field"]


def _float_rows(spec, delta, substeps, out):
    """Fill ``out[:, 1:]`` by one call per row of :func:`_generate`'s loop on
    ``math``: each row runs to its end or to its first non-finite state, and
    its samples after that state are NaN.  Raises where ``math`` does
    (sin(inf), exp(1000), 1/0, or a complex power), and numpy would give
    inf or NaN."""
    run = _generate(spec, math)[0]
    for row in out:
        states = [tuple(row[0].tolist())]
        run(states, len(row) - 1, delta, substeps)
        row[: len(states)] = states
        row[len(states) :] = np.nan


def _columns(spec, delta, substeps, out):
    """Fill ``out[:, 1:]`` by one call per sample of :func:`_generate`'s loop
    on the batch's numpy columns."""
    run, states = _generate(spec, np)[0], [tuple(out[:, 0].T.copy())]
    for k in range(1, out.shape[1]):  # from the last columns, not reads of out
        run(states, 1, delta, substeps)
        del states[0]
        np.stack(states[0], axis=-1, out=out[:, k])


def _rk4_sample_matrix(a, delta, substeps):
    """S = R(hA)^substeps with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

    One coarse RK4 sample of dx/dt = A x maps a row state ``x`` to
    ``x @ S.T``.
    """
    z = a * (delta / substeps)
    eye = np.eye(a.shape[0])
    r = eye + z @ (eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0)))
    return np.linalg.matrix_power(r, substeps)


def _count(name, value, least):
    """``value`` as a Python int >= ``least``; a bool, a non-integer (a
    numpy integer is one) or a smaller value is a ValueError naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _number(name, value, least, strict):
    """``value`` as a finite Python float >= ``least``, or > it if
    ``strict``; a bool, a non-number, NaN, an infinity (or an int too
    large for a float) or a value out of range is a ValueError naming
    ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < least or (strict and value == least):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {least}, "
                         f"got {value}")
    return float(value)


def integrate_batch(spec, config, x0s, num_samples):
    """Integrate many trajectories in lock-step, returning states at times
    0, delta, ..., num_samples * delta.

    ``x0s`` has shape ``(m, n)`` with m >= 1; the result has shape
    ``(m, num_samples + 1, n)`` and row ``[i, 0]`` is ``x0s[i]`` exactly
    (with ``num_samples`` 0, the initial states alone).
    All trajectories share the coarse time grid, and each path writes its
    samples straight into the result: a linear system one product with the
    sample matrix per sample; a nonlinear one the RK4 stage loop generated
    from its expressions (:func:`_generate`), one call per row on floats
    for at most ``_FLOAT_ROWS`` (32) rows, else, and again from the start
    where ``math`` raises, one per sample on the batch's columns.  The
    loop runs to the last sample (a float row stops at its first non-finite
    state and reads NaN after it); then one check of the result, with no
    numpy warning, raises an IntegrationError naming the earliest
    non-finite sample and the lowest trajectory that is non-finite there.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != spec.n or x0s.shape[0] < 1:
        raise ValueError(
            f"x0s must have shape (m, {spec.n}) with m >= 1, got {x0s.shape}"
        )
    num_samples = _count("num_samples", num_samples, 0)
    out = np.empty((x0s.shape[0], num_samples + 1, spec.n))
    out[:, 0] = x0s
    delta, substeps = config.delta, config.substeps
    with np.errstate(all="ignore"):  # a non-finite state is reported below
        if spec.a_matrix is not None:
            step_t = _rk4_sample_matrix(spec.a_matrix, delta, substeps).T
            for k in range(1, num_samples + 1):
                np.matmul(out[:, k - 1], step_t, out=out[:, k])
        elif len(out) <= _FLOAT_ROWS:
            try:
                _float_rows(spec, delta, substeps, out)
            except (ArithmeticError, ValueError, TypeError):
                _columns(spec, delta, substeps, out)
        else:
            _columns(spec, delta, substeps, out)
        bad = ~np.isfinite(out[:, 1:]).all(axis=2)
    if bad.any():
        k, row = np.argwhere(bad.T)[0]
        raise _integration_error(spec, config, int(k) + 1, int(row))
    return out


def _integration_error(spec, config, k, bad):
    """The IntegrationError for a non-finite state of trajectory ``bad`` at
    sample ``k`` of an integration of ``spec`` at ``config``'s step."""
    return IntegrationError(
        f"non-finite state in trajectory {bad} at sample {k} "
        f"(t={k * config.delta:g}) while integrating {spec.name}",
        sample_index=k,
        trajectory_index=bad,
    )


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


def _initial_state(spec, x0):
    """``x0`` as a float array; a shape other than ``(n,)`` or a NaN or
    infinite entry is a ValueError naming ``x0``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.n,):
        raise ValueError(f"x0 must have shape ({spec.n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def exact_linear_solution(spec, x0, t):
    """Full-state solution exp(A t) x0 of a linear spec; an ``x0`` that is
    not a finite ``(n,)`` vector, or a negative, NaN or infinite ``t``, is a
    ValueError naming it."""
    a = _linear_matrix(spec)
    x0, t = _initial_state(spec, x0), _number("t", t, 0, False)
    return matrix_exponential(a * t) @ x0


def exact_linear_trajectory(spec, x0, delta, num_samples):
    """Exact states at times 0, delta, ..., num_samples*delta.

    Computed from powers of the one-step propagator exp(A delta), filled
    by doubling, so there is no time-discretization error.  An ``x0`` that
    is not a finite ``(n,)`` vector is a ValueError naming ``x0``.
    """
    a = _linear_matrix(spec)
    x0, delta = _initial_state(spec, x0), _number("delta", delta, 0, True)
    num_samples = _count("num_samples", num_samples, 0)
    out = np.empty((num_samples + 1, spec.n))
    out[0] = x0
    return _fill_by_doubling(out, matrix_exponential(a * delta).T)


def _fill_by_doubling(out, step):
    """Fill ``out[k] = out[0] @ step**k`` for k >= 1 and return ``out``: rows
    [j, 2j) are rows [0, j) times step**j, log2(len(out)) batched products."""
    j = 1
    while j < len(out):
        rows = out[j : 2 * j]
        np.matmul(out[: len(rows)], step, out=rows)
        step, j = step @ step, 2 * j
    return out


def exact_reduced_map(spec, solver, n_mem):
    """The exact one-step map from a linear spec's observed history.

    One RK4 sample maps the full state x by S = R(hA)^substeps
    (:func:`_rk4_sample_matrix`) and C = [I_d 0] observes it, so the
    newest-first history h_n = (z_n, z_{n-1}, ..., z_{n-n_mem}) is O x_n
    with O = [C; C S^-1; ...; C S^-n_mem].  When O has full column rank n,
    the next observed state is exactly z_{n+1} = L h_n with L = C S O^+.
    Returns ``(L, O)`` of shapes (d, d (n_mem + 1)) and (d (n_mem + 1), n);
    a rank-deficient O is a ValueError naming its rank.
    """
    a = _linear_matrix(spec)
    n_mem = _count("n_mem", n_mem, 0)
    step = _rk4_sample_matrix(a, solver.delta, solver.substeps)
    back = np.linalg.inv(step)
    blocks = [np.eye(spec.n)[: spec.d]]  # C S^-k, k = 0..n_mem
    for _ in range(n_mem):
        blocks.append(blocks[-1] @ back)
    obs = np.concatenate(blocks)
    rank = np.linalg.matrix_rank(obs)
    if rank < spec.n:
        raise ValueError(
            f"{spec.name}: a history of n_mem={n_mem} observes rank {rank} "
            f"of the n={spec.n} state variables; no exact reduced map"
        )
    return step[: spec.d] @ np.linalg.pinv(obs), obs


def _memory_matrix(spec, h, m):
    """Trapezoid rule for the memory term over a window of ``m`` steps of
    length ``h``, as one ``(d, (m + 1) * d)`` matrix.

    Node j carries the kernel A12 exp(A22 j h) A21 with weight h (h/2 at
    both ends; all zero when m == 0, a window of length 0) and multiplies
    z(t - j h).  The blocks are stored newest node first, so the matrix
    applies to the flattened history (z(t), ..., z(t - m h)), a rollout stack.
    """
    _, a12, a21, a22 = _blocks(spec)
    powers = np.empty((m + 1, *a22.shape))  # exp(A22 j h), j = 0..m
    powers[0] = np.eye(a22.shape[0])
    kernels = a12 @ _fill_by_doubling(powers, matrix_exponential(a22 * h)) @ a21
    weights = np.full(m + 1, h if m > 0 else 0.0)
    weights[[0, -1]] *= 0.5
    weighted = (weights[:, None, None] * kernels).transpose(1, 0, 2)
    return weighted.reshape(spec.d, (m + 1) * spec.d)


def linear_mz_rhs(spec, x0, t):
    """dz/dt at time ``t`` via the exact reduced decomposition.

    A linear spec dx/dt = A x with x = (z; w), z in R^d observed, has an
    observed block that satisfies exactly

        dz/dt = A11 z(t)
              + A12 * integral_0^t exp(A22 s) A21 z(t-s) ds
              + A12 * exp(A22 t) w(0).

    All three terms come from one block exponential (Van Loan, "Computing
    integrals involving the matrix exponential", IEEE TAC 23(3), 1978):
    with C = [I_d 0] and M = [[A22, A21 C], [0, A]] of size 2n - d,
    exp(M t) holds exp(A22 t) in its top-left block, the memory integral's
    ``integral_0^t exp(A22 s) A21 C exp(A (t-s)) ds`` in its top-right
    block, and exp(A t) in its bottom-right block.  So the result is the
    derivative of the observed block of exp(A t) x0 to round-off (about
    1e-14 on example1 and example4).  An ``x0`` that is not a finite
    ``(n,)`` vector, or a negative, NaN or infinite ``t``, is a ValueError
    naming it.
    """
    a11, a12, a21, a22 = _blocks(spec)
    x0, t = _initial_state(spec, x0), _number("t", t, 0, False)
    d, k = spec.d, spec.n - spec.d
    block = np.block([[a22, a21 @ np.eye(spec.n)[:d]],
                      [np.zeros((spec.n, k)), spec.a_matrix]])
    e = matrix_exponential(block * t)
    z = e[k : k + d, k:] @ x0
    memory = a12 @ (e[:k, k:] @ x0)
    noise = a12 @ (e[:k, :k] @ x0[d:])
    return a11 @ z + memory + noise
