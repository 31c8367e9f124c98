"""Iterative prediction and its evaluation machinery.

A trained model advances the observed state one step at a time from a
seed block of ``n_mem + 1`` states.  Every run in flight has the layout
``(R, T, d)``: R runs of T observed states each.  This module iterates the
model (:func:`rollout`: seeds ``(R, n_mem + 1, d)`` advance together, one
batched network evaluation per step, each run recording where it
diverged), measures pointwise l2 errors against references
(:func:`error_series`), scores a model against the integrated truth from
given initial conditions (:func:`rollout_against_truth`, shared by
:func:`evaluate_model`, :func:`compare_with_homogenized` and the CLI's
``predict``), sweeps the memory length to find where accuracy saturates
(:func:`memory_sweep`), and provides two analytic references for
benchmarks: an explicit-Euler discretization of the exact reduced dynamics
for linear systems (:func:`euler_damz`) and the homogenized slow-variable
closure of the chaotic system (:func:`compare_with_homogenized`, scored
against the example3 spec it is given, at that spec's epsilon).
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
    "rollout_against_truth",
    "memory_sweep",
    "euler_damz",
    "compare_with_homogenized",
]


@dataclass(frozen=True)
class RolloutResult:
    """Predicted observed states of R runs, seed states included.

    ``states`` has shape (R, seed_len + steps, d).  ``diverged_at`` holds
    one entry per run: None, or the index at which the run first produced
    a non-finite state; the run's rows from that index on are NaN.
    """

    delta: float
    states: np.ndarray
    seed_len: int
    diverged_at: tuple

    @property
    def times(self):
        return np.arange(self.states.shape[-2]) * self.delta

    def raise_if_diverged(self):
        """Raise RuntimeError naming the first diverged run and its step."""
        for r, step in enumerate(self.diverged_at):
            if step is not None:
                raise RuntimeError(f"rollout diverged at step {step} in run {r}")


@dataclass(frozen=True)
class ErrorSeries:
    """Pointwise l2 distance between a prediction and a reference.

    ``times`` has shape (T,); ``errors`` has shape (T,) for one run or
    (R, T) for R runs.
    """

    times: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        errors = np.asarray(self.errors, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "errors", errors)
        if times.ndim != 1 or errors.shape[-1:] != times.shape:
            raise ValueError("times and errors must have equal length")
        if np.any(errors < 0):
            raise ValueError("errors must be nonnegative")


def rollout(model, seeds, steps, delta=np.nan):
    """Iterate the one-step model from ``n_mem + 1`` seed states per run.

    ``seeds`` has shape (R, n_mem + 1, d); the R runs advance together
    through one batched network evaluation per step.  At each step a run's
    input is its latest ``n_mem + 1`` states in newest-first order, and
    the model output becomes its next state.  A non-finite prediction
    stops its run and records the divergence index; the other runs go on.
    ``delta`` is carried through for time axes when known.
    """
    seeds = np.asarray(seeds, dtype=float)
    need = model.n_mem + 1
    if seeds.ndim != 3 or seeds.shape[1:] != (need, model.d):
        raise ValueError(
            f"seeds must have shape (R, {need}, {model.d}) = (R, n_mem + 1, d), "
            f"got {seeds.shape}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
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
    return RolloutResult(delta=delta, states=states, seed_len=need,
                         diverged_at=tuple(diverged_at))


def error_series(pred, reference, delta):
    """Pointwise l2 error of predicted states against a reference.

    ``pred`` and ``reference`` are arrays of equal shape (T, d) or
    (R, T, d); the errors have shape (T,) or (R, T), on the time grid
    0, delta, ..., (T - 1) * delta.
    """
    pred = np.asarray(pred, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if pred.shape != reference.shape:
        raise ValueError(
            f"prediction shape {pred.shape} does not match reference "
            f"{reference.shape}"
        )
    times = np.arange(pred.shape[-2]) * delta
    return ErrorSeries(times=times, errors=np.linalg.norm(pred - reference, axis=-1))


def rollout_against_truth(model, spec, solver, x0s, horizon_steps):
    """Roll the model out against the integrated truth from ``x0s``.

    The full system is integrated from each initial condition of ``x0s``
    (shape (R, n)) over ``horizon_steps`` samples, each run is seeded with
    its first ``n_mem + 1`` true observed states and rolled out to the
    horizon, and every run is scored against its truth.  Returns
    ``(truth, result, errors)``: the observed truth (R, T, d) with
    T = horizon_steps + 1, the RolloutResult on the same grid, and the
    ErrorSeries with errors (R, T), NaN from a run's divergence on.
    """
    need = model.n_mem + 1
    if horizon_steps < need:
        raise ValueError(
            f"horizon of {horizon_steps} steps cannot cover {need} seed states"
        )
    truth = spec.observe(dyn.integrate_batch(spec, solver, x0s, horizon_steps))
    result = rollout(model, truth[:, :need], horizon_steps + 1 - need,
                     delta=solver.delta)
    return truth, result, error_series(result.states, truth, solver.delta)


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

    ``n_runs`` initial conditions are drawn in the domain and scored with
    :func:`rollout_against_truth`.  Returns (scalar mean over runs of the
    time-averaged post-seed l2 error, list of per-run ErrorSeries); a run
    that diverged contributes ``inf`` to the mean and None to the list.
    When every run diverged there is no error to report: RuntimeError,
    naming each run and the step at which it diverged.
    """
    x0s = data_mod.sample_initial_conditions(domain, n_runs, seed)
    _, result, scored = rollout_against_truth(model, spec, solver, x0s, horizon_steps)
    diverged = np.array([step is not None for step in result.diverged_at])
    if diverged.all():
        runs = ", ".join(f"run {r} at step {step}"
                         for r, step in enumerate(result.diverged_at))
        raise RuntimeError(f"every rollout diverged: {runs}")
    post_seed = scored.errors[:, result.seed_len:].mean(axis=1)
    run_means = np.where(diverged, np.inf, post_seed)
    series = [None if bad else ErrorSeries(times=scored.times, errors=errors)
              for bad, errors in zip(diverged, scored.errors)]
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

    ``n_mem_list`` must be ascending and non-negative.  ``traj_len`` may
    be an integer or ``"auto"`` for the minimal length ``n_mem + 2`` (one
    window per trajectory).  Every cell regenerates data, builds windows,
    trains a fresh network, and reports the mean rollout error at the
    evaluation horizon; all randomness is derived from ``seed`` and the
    cell's ``n_mem`` so the sweep is reproducible.
    """
    n_mem_list = list(n_mem_list)
    if not n_mem_list:
        raise ValueError("n_mem_list must be non-empty")
    if any(b <= a for a, b in zip(n_mem_list, n_mem_list[1:])):
        raise ValueError("n_mem_list must be strictly ascending")
    if n_mem_list[0] < 0:
        raise ValueError(
            f"n_mem_list must not hold a negative n_mem, got {n_mem_list}"
        )
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


def euler_damz(spec, seeds, steps, delta):
    """Explicit Euler on the discretized reduced dynamics of a linear spec.

    The update is

        z_{n+1} = z_n + delta * (A11 z_n + M(z_{n-n_mem..n}))

    where M is the trapezoid quadrature of the truncated memory integral
    over the discrete history (spacing ``delta``, window ``n_mem * delta``),
    projected through A12.  The number of memory steps is inferred from the
    seed count (``n_mem + 1`` rows).  Unlike the learned model this scheme
    carries O(delta) time-discretization error.
    """
    a11 = dyn._blocks(spec)[0]
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[1] != spec.d:
        raise ValueError(
            f"seed rows have dimension {seeds.shape[1]}, expected {spec.d}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n_mem = seeds.shape[0] - 1
    d = spec.d
    # The trapezoid-weighted kernels, oldest node first, contract against
    # the history slice in time order: a view with no copy.
    memory_mat = dyn._memory_matrix(spec, delta, n_mem)
    states = np.empty((n_mem + 1 + steps, d))
    states[: n_mem + 1] = seeds
    for pos in range(n_mem + 1, n_mem + 1 + steps):
        z_now = states[pos - 1]
        memory = memory_mat @ states[pos - 1 - n_mem : pos].reshape(-1)
        states[pos] = z_now + delta * (a11 @ z_now + memory)
    return states


def compare_with_homogenized(model, spec, solver, domain, eval_horizon, n_runs, seed):
    """Rollout accuracy of a trained chaotic-system model vs the analytic
    slow-variable closure.

    ``spec`` is the full 4-variable example3 system (any epsilon) observing
    x1, x2 and x3, the closure's state; any other system or observed
    dimension is a ValueError.  ``n_runs`` initial conditions of it are
    scored with :func:`rollout_against_truth`, and the homogenized
    3-variable system is integrated from the same slow-variable initial
    conditions.  Returns a pair of ErrorSeries averaged over the runs
    (network, homogenized), both measured against the truth.  A diverged
    network run raises RuntimeError naming the run and the step.
    """
    if spec.name != "example3":
        raise ValueError(
            f"the homogenized closure is a reference for example3, not {spec.name}"
        )
    if spec.d != 3:
        raise ValueError(
            f"the homogenized closure predicts x1, x2 and x3, so example3 must "
            f"observe those three; it observes d={spec.d}"
        )
    reduced = dyn.make_system("example3-reduced")
    if model.d != spec.d:
        raise ValueError(
            f"model d={model.d} does not match observed dimension {spec.d}"
        )
    horizon_steps = int(round(eval_horizon / solver.delta))
    x0s = data_mod.sample_initial_conditions(domain, n_runs, seed)
    truth, result, nn = rollout_against_truth(model, spec, solver, x0s, horizon_steps)
    result.raise_if_diverged()
    baseline = dyn.integrate_batch(reduced, solver, x0s[:, :3], horizon_steps)
    closure = error_series(baseline, truth, solver.delta)
    return (ErrorSeries(times=nn.times, errors=nn.errors.mean(axis=0)),
            ErrorSeries(times=closure.times, errors=closure.errors.mean(axis=0)))
