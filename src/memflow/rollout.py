"""Iterative prediction and its evaluation machinery.

A trained model advances the observed state one step at a time from a
seed block of ``n_mem + 1`` states.  This module iterates that map
(:func:`rollout`; seeds of shape ``(R, n_mem + 1, d)`` advance R runs
together, one batched network evaluation per step, each run recording
where it diverged), measures pointwise l2 errors against references
(:func:`error_series`), sweeps the memory length to find where accuracy
saturates (:func:`memory_sweep`), and provides two analytic references
for benchmarks: an explicit-Euler discretization of the exact reduced
dynamics for linear systems (:func:`euler_damz`) and the homogenized
slow-variable closure of the chaotic system
(:func:`compare_with_homogenized`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from memflow import data as data_mod
from memflow import dynamics as dyn
from memflow import net as net_mod
from memflow import train as train_mod

__all__ = [
    "RolloutResult",
    "ErrorSeries",
    "SweepCell",
    "rollout",
    "error_series",
    "mean_error_series",
    "memory_sweep",
    "euler_damz",
    "compare_with_homogenized",
]


@dataclass(frozen=True)
class RolloutResult:
    """Predicted observed-state sequence, seed states included.

    For one run ``states`` has shape (seed_len + steps_taken, d); if the
    iteration produced a non-finite state it stops early and
    ``diverged_at`` records the index the failure would have occupied.

    For R runs ``states`` has shape (R, seed_len + steps, d) and
    ``diverged_at`` is a tuple with one such index (or None) per run; a
    run's rows from its divergence index on are NaN.  :meth:`run` returns
    one run as a one-run result.
    """

    delta: float
    states: np.ndarray
    seed_len: int
    diverged_at: int | tuple | None = None

    @property
    def times(self):
        return np.arange(self.states.shape[-2]) * self.delta

    def run(self, r):
        """Run ``r`` of a many-run result, cut at its divergence index."""
        end = self.diverged_at[r]
        return RolloutResult(delta=self.delta, states=self.states[r, :end],
                             seed_len=self.seed_len, diverged_at=end)


@dataclass(frozen=True)
class ErrorSeries:
    """Pointwise l2 distance between a prediction and a reference."""

    times: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        errors = np.asarray(self.errors, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "errors", errors)
        if times.shape != errors.shape:
            raise ValueError("times and errors must have equal length")
        if np.any(errors < 0):
            raise ValueError("errors must be nonnegative")


def rollout(model, seeds, steps, delta=np.nan):
    """Iterate the one-step model from ``n_mem + 1`` seed states.

    At each step the stacked input is the latest ``n_mem + 1`` states in
    newest-first order, and the model output becomes the next state.
    ``seeds`` of shape (n_mem + 1, d) give one run; seeds of shape
    (R, n_mem + 1, d) give R runs that advance together through one
    batched network evaluation per step (see :class:`RolloutResult` for
    the two result layouts).  A non-finite prediction stops its run and
    records the divergence index; the other runs go on.  ``delta`` is
    carried through for time axes when known.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim == 1 and model.d == 1:
        seeds = seeds[:, None]
    need = model.n_mem + 1
    if seeds.shape[-2:] != (need, model.d) or seeds.ndim not in (2, 3):
        raise ValueError(
            f"seeds must have shape ({need}, {model.d}) = (n_mem + 1, d) or "
            f"(R, {need}, {model.d}), got {seeds.shape}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    one_run = seeds.ndim == 2
    if one_run:
        seeds = seeds[None]
    runs = seeds.shape[0]
    states = np.full((runs, need + steps, model.d), np.nan)
    states[:, :need] = seeds
    diverged_at = [None] * runs
    live = slice(None)  # every run; an index array once one has diverged
    for pos in range(need, need + steps):
        window = states[live, pos - need : pos]          # oldest ... newest
        stacks = window[:, ::-1].reshape(window.shape[0], -1)  # newest first
        nxt = net_mod.forward_batch(model, stacks)
        finite = np.isfinite(nxt).all(axis=1)
        if not finite.all():
            live = np.arange(runs)[live]
            for r in live[~finite]:
                diverged_at[r] = pos
            live, nxt = live[finite], nxt[finite]
            if live.size == 0:
                break
        states[live, pos] = nxt
    result = RolloutResult(delta=delta, states=states, seed_len=need,
                           diverged_at=tuple(diverged_at))
    return result.run(0) if one_run else result


def error_series(pred, reference, delta=None):
    """Pointwise l2 error of a prediction against a reference sequence.

    ``pred`` may be a RolloutResult or a plain (T, d) array; the reference
    must have matching length and dimension.
    """
    if isinstance(pred, RolloutResult):
        states = pred.states
        if delta is None and np.isfinite(pred.delta):
            delta = pred.delta
    else:
        states = np.asarray(pred, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if states.shape != reference.shape:
        raise ValueError(
            f"prediction shape {states.shape} does not match reference "
            f"{reference.shape}"
        )
    if delta is None:
        raise ValueError("delta is required when pred carries no sample step")
    errors = np.linalg.norm(states - reference, axis=1)
    times = np.arange(states.shape[0]) * delta
    return ErrorSeries(times=times, errors=errors)


def mean_error_series(series):
    """Average several equal-grid error series into one (pointwise mean)."""
    if not series:
        raise ValueError("need at least one error series")
    times = series[0].times
    for s in series[1:]:
        if s.times.shape != times.shape or not np.allclose(s.times, times):
            raise ValueError("error series must share their time grid")
    stacked = np.stack([s.errors for s in series])
    return ErrorSeries(times=times, errors=stacked.mean(axis=0))


# ---------------------------------------------------------------------------
# Memory sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One row of a memory sweep: the memory setting and its mean error."""

    n_mem: int
    memory_length: float
    mean_error: float


def evaluate_model(model, spec, solver, domain, horizon_steps, n_runs, seed):
    """Mean rollout error over fresh random initial conditions.

    For each run an initial condition is drawn in the domain, the truth
    system integrated over the horizon, the model seeded with the first
    ``n_mem + 1`` true observed states, and the remaining steps predicted.
    Returns (scalar mean over runs of the time-averaged post-seed l2
    error, list of per-run ErrorSeries).
    """
    need = model.n_mem + 1
    if horizon_steps < need:
        raise ValueError(
            f"horizon of {horizon_steps} steps cannot cover {need} seed states"
        )
    x0s = data_mod.sample_initial_conditions(domain, n_runs, seed)
    truth = dyn.integrate_batch(spec, solver, x0s, horizon_steps)
    observed = spec.observe(truth)
    runs = rollout(model, observed[:, :need], horizon_steps + 1 - need,
                   delta=solver.delta)
    series = []
    run_means = np.empty(n_runs)
    for r in range(n_runs):
        ref = observed[r]
        res = runs.run(r)
        if res.diverged_at is not None:
            run_means[r] = np.inf
            series.append(None)
            continue
        es = error_series(res, ref)
        run_means[r] = float(es.errors[need:].mean())
        series.append(es)
    return float(run_means.mean()), series


def memory_sweep(
    spec,
    solver,
    domain,
    n_mem_list,
    n_traj,
    traj_len,
    selection_kind,
    per_trajectory,
    hidden,
    train_cfg,
    eval_horizon,
    n_eval_runs,
    seed,
):
    """Train and evaluate one model per memory setting.

    ``n_mem_list`` must be ascending.  ``traj_len`` may be an integer or
    ``"auto"`` for the minimal length ``n_mem + 2`` (one window per
    trajectory).  Every cell regenerates data, builds windows, trains a
    fresh network, and reports the mean rollout error at the evaluation
    horizon; all randomness is derived from ``seed`` and the cell's
    ``n_mem`` so the sweep is reproducible.
    """
    n_mem_list = list(n_mem_list)
    if not n_mem_list:
        raise ValueError("n_mem_list must be non-empty")
    if any(b <= a for a, b in zip(n_mem_list, n_mem_list[1:])):
        raise ValueError("n_mem_list must be strictly ascending")
    horizon_steps = int(round(eval_horizon / solver.delta))
    cells = []
    for n_mem in n_mem_list:
        cell_seed = int(np.random.SeedSequence([seed, n_mem]).generate_state(1)[0])
        k = n_mem + 2 if traj_len == "auto" else int(traj_len)
        trajs = data_mod.generate_trajectories(
            spec, solver, domain, n_traj, k, seed=cell_seed
        )
        strategy = data_mod.SelectionStrategy(
            kind=selection_kind, per_trajectory=per_trajectory, seed=cell_seed + 1
        )
        ds = data_mod.build_dataset(trajs, n_mem, strategy)
        params0 = net_mod.init_params(spec.d, n_mem, hidden, seed=cell_seed + 2)
        cfg = replace(train_cfg, seed=cell_seed + 3)
        model, _ = train_mod.train_model(params0, ds, cfg)
        mean_err, _ = evaluate_model(
            model, spec, solver, domain, horizon_steps, n_eval_runs,
            seed=cell_seed + 4,
        )
        cells.append(
            SweepCell(
                n_mem=n_mem,
                memory_length=n_mem * solver.delta,
                mean_error=mean_err,
            )
        )
    return cells


# ---------------------------------------------------------------------------
# Analytic reference schemes
# ---------------------------------------------------------------------------


def euler_damz(oracle, seeds, steps, delta):
    """Explicit Euler on the discretized reduced dynamics of a linear system.

    The update is

        z_{n+1} = z_n + delta * (A11 z_n + M(z_{n-n_mem..n}))

    where M is the trapezoid quadrature of the truncated memory integral
    over the discrete history (spacing ``delta``, window ``n_mem * delta``),
    projected through A12.  The number of memory steps is inferred from the
    seed count (``n_mem + 1`` rows).  Unlike the learned model this scheme
    carries O(delta) time-discretization error.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[1] != oracle.d:
        raise ValueError(
            f"seed rows have dimension {seeds.shape[1]}, expected {oracle.d}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n_mem = seeds.shape[0] - 1
    d = oracle.d
    # kernel matrices A12 exp(A22 j*delta) A21 at the history nodes,
    # with trapezoid weights over [0, n_mem*delta]
    kernels = np.empty((n_mem + 1, d, d))
    propagated = np.eye(oracle.a22.shape[0])
    step_mat = dyn.matrix_exponential(oracle.a22 * delta)
    for j in range(n_mem + 1):
        kernels[j] = oracle.a12 @ propagated @ oracle.a21
        propagated = step_mat @ propagated
    weights = np.full(n_mem + 1, delta)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    if n_mem == 0:
        weights[:] = 0.0  # zero-length window: no memory contribution
    # Kernel j multiplies z_{n-j}.  Stacking the weighted kernels oldest
    # first as one (d, (n_mem+1)*d) matrix lets each step contract them
    # against the history slice in time order, a view with no copy.
    memory_mat = (weights[::-1, None, None] * kernels[::-1]).transpose(1, 0, 2)
    memory_mat = memory_mat.reshape(d, (n_mem + 1) * d)
    states = np.empty((n_mem + 1 + steps, d))
    states[: n_mem + 1] = seeds
    for pos in range(n_mem + 1, n_mem + 1 + steps):
        z_now = states[pos - 1]
        memory = memory_mat @ states[pos - 1 - n_mem : pos].reshape(-1)
        states[pos] = z_now + delta * (oracle.a11 @ z_now + memory)
    return states


def compare_with_homogenized(
    model, solver, domain, eval_horizon, n_runs, seed, epsilon=0.01
):
    """Rollout accuracy of a trained chaotic-system model vs the analytic
    slow-variable closure.

    For each run, one initial condition is drawn for the full 4-variable
    system; the truth is integrated over the horizon, the network is
    seeded with the first ``n_mem + 1`` true observed states, and the
    homogenized 3-variable system is integrated from the same slow-variable
    initial condition.  Returns a pair of mean ErrorSeries
    (network, homogenized), both measured against the truth.
    """
    spec = dyn.make_system("example3", epsilon=epsilon)
    reduced = dyn.make_system("example3-reduced")
    if model.d != spec.d:
        raise ValueError(f"model d={model.d} does not match observed dimension 3")
    need = model.n_mem + 1
    horizon_steps = int(round(eval_horizon / solver.delta))
    if horizon_steps < need:
        raise ValueError("evaluation horizon shorter than the seed block")
    x0s = data_mod.sample_initial_conditions(domain, n_runs, seed)
    truth = spec.observe(dyn.integrate_batch(spec, solver, x0s, horizon_steps))
    baseline = dyn.integrate_batch(reduced, solver, x0s[:, :3], horizon_steps)
    runs = rollout(model, truth[:, :need], horizon_steps + 1 - need,
                   delta=solver.delta)
    nn_series = []
    reduced_series = []
    for r in range(n_runs):
        ref = truth[r]
        res = runs.run(r)
        if res.diverged_at is not None:
            raise dyn.IntegrationError(
                f"network rollout diverged at step {res.diverged_at} in run {r}",
                sample_index=res.diverged_at,
                trajectory_index=r,
            )
        nn_series.append(error_series(res, ref))
        reduced_series.append(error_series(baseline[r], ref, delta=solver.delta))
    return mean_error_series(nn_series), mean_error_series(reduced_series)
