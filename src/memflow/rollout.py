"""Iterative prediction and its evaluation machinery.

A one-step map takes ``(R, D)`` newest-first stacks of ``n_mem + 1``
observed states, D = d (n_mem + 1), to ``(R, d)`` next states and has
``d`` and ``n_mem`` attributes: a trained network, or a :class:`LinearMap`
such as the exact reduced map of a linear system.  A run in flight has
the layout ``(R, T, d)``: R runs of T observed states each.  This module
iterates a map (:func:`rollout`: the R runs advance together, one call of
the map per step, each run recording where it diverged), scores it by
pointwise l2 errors against the truth integrated from given initial
conditions (:func:`rollout_against_truth`, shared by :func:`evaluate_model`,
:func:`compare_with_homogenized` and the CLI's ``predict``), sweeps the
memory length of an experiment config (:func:`memory_sweep`), and provides
two analytic references: explicit Euler on the reduced dynamics of a linear
system, rolled out the same way (:func:`euler_damz`), and the homogenized
slow-variable closure of the chaotic system (:func:`compare_with_homogenized`).
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
    "LinearMap",
    "SweepCell",
    "rollout",
    "rollout_against_truth",
    "evaluate_model",
    "memory_sweep",
    "euler_damz",
    "compare_with_homogenized",
]


@dataclass(frozen=True, eq=False)
class RolloutResult:
    """Predicted observed states of R runs, seed states included.

    ``states`` has shape (R, seed_len + steps, d).  ``diverged_at`` holds
    one entry per run: None, or the index at which the run first produced
    a non-finite state; the run's rows from that index on are NaN.  Two
    results compare equal only if they are the same object.
    """

    states: np.ndarray
    seed_len: int
    diverged_at: tuple

    def raise_if_diverged(self):
        """Raise RuntimeError naming the first diverged run and its step."""
        for r, step in enumerate(self.diverged_at):
            if step is not None:
                raise RuntimeError(f"rollout diverged at step {step} in run {r}")


class LinearMap:
    """The one-step map ``h -> matrix @ h``, ``matrix`` a finite float array
    of shape (d, d (n_mem + 1)), which is checked when the map is made.  A
    plain class: equality is identity, as for a network."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        shape = matrix.shape
        if len(shape) != 2 or not 0 < shape[0] <= shape[1] or shape[1] % shape[0]:
            raise ValueError(f"a linear map needs a matrix of shape "
                             f"(d, d (n_mem + 1)), got {shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("a linear map needs a finite-valued matrix")
        self.matrix = matrix

    d = property(lambda self: self.matrix.shape[0])
    n_mem = property(lambda self: self.matrix.shape[1] // self.d - 1)

    def __call__(self, stacks):
        return stacks @ self.matrix.T


def rollout(model, seeds, steps):
    """Iterate the one-step map ``model`` from ``n_mem + 1`` seed states per run.

    ``seeds`` has shape (R, n_mem + 1, d) with R >= 1; the R runs advance
    together through one call ``model(stacks)`` per step.  A run's stack
    is its latest ``n_mem + 1`` states, newest first, and the map's output
    becomes its next state; an output that is not ``(R, d)`` is a ValueError.
    Every run is stepped to the end, with no numpy warning; then one check
    finds each run's first non-finite prediction, records its index in
    ``diverged_at`` and makes the run's rows from it on NaN.  The seeds are
    not checked, so a run diverges at index n_mem + 1 or later.

    The history is one buffer ``hist`` of shape (R, T, d), T = n_mem + 1 +
    steps, laid out in reverse time: ``hist[:, T - 1 - p]`` is state p, so
    each step's stacks are a view of it, with no copy.  The first call gets
    the float64 seeds, newest first; the buffer then takes the dtype of
    that call's output, float32 if it is float32 and float64 otherwise,
    and holds the seeds cast once.  So a float32 network gets float32
    stacks from the second step on, and refuses seeds that float32 cannot
    hold at the first.  ``states`` is assembled in float64 once, at the
    end, with the seeds exact.
    """
    seeds = np.asarray(seeds, dtype=float)
    need, d = model.n_mem + 1, model.d
    if seeds.ndim != 3 or seeds.shape[1:] != (need, d) or seeds.shape[0] < 1:
        raise ValueError(
            f"seeds must have shape (R, {need}, {d}) = (R, n_mem + 1, d) "
            f"with R >= 1, got {seeds.shape}"
        )
    steps = dyn._count("steps", steps, 0)
    runs, total = seeds.shape[0], need + steps
    stacks = seeds[:, ::-1].reshape(runs, -1)  # the first call's, newest first
    hist = None  # made at the first output, in its dtype
    with np.errstate(all="ignore"):  # a blow-up is reported by diverged_at
        for pos in range(need, total):
            if hist is not None:
                stacks = hist[:, total - pos : total - pos + need].reshape(runs, -1)
            nxt = model(stacks)
            if nxt.shape != (runs, d):
                raise ValueError(f"the map returned shape {nxt.shape}, expected "
                                 f"{(runs, d)} for {runs} runs")
            if hist is None:
                dtype = np.float32 if nxt.dtype == np.float32 else np.float64
                hist = np.empty((runs, total, d), dtype)
                hist[:, total - need :] = seeds[:, ::-1]
            hist[:, total - 1 - pos] = nxt
    states = (seeds if hist is None else hist[:, ::-1]).astype(np.float64)
    states[:, :need] = seeds
    # per run, True up to its first non-finite prediction, False from there
    finite = np.logical_and.accumulate(
        np.isfinite(states[:, need:]).all(axis=2), axis=1)
    states[:, need:][~finite] = np.nan
    diverged_at = tuple(None if k == steps else need + int(k)
                        for k in finite.sum(axis=1))
    return RolloutResult(states=states, seed_len=need, diverged_at=diverged_at)


def rollout_against_truth(model, spec, solver, x0s, horizon_steps):
    """Roll the model out against the integrated truth from ``x0s``.

    The system is integrated from each initial condition of ``x0s`` (shape
    (R, n)) over ``horizon_steps`` samples, keeping its observed states
    alone; each run is seeded with its first ``n_mem + 1`` true observed
    states and rolled out to the horizon, and every run is scored against
    its truth.  Returns ``(truth, result, errors)``: the observed truth
    (R, T, d) with T = horizon_steps + 1, the RolloutResult on the same
    grid, and the pointwise l2 errors (R, T), NaN from a run's divergence
    on.  Sample k of each is at time ``k * solver.delta``.
    """
    need = model.n_mem + 1
    horizon_steps = dyn._count("horizon_steps", horizon_steps, 0)
    if horizon_steps < need:
        raise ValueError(
            f"horizon of {horizon_steps} steps cannot cover {need} seed states"
        )
    truth = dyn.integrate_batch(spec, solver, x0s, horizon_steps)
    result = rollout(model, truth[:, :need], horizon_steps + 1 - need)
    return truth, result, _l2_errors(result.states, truth)


def _l2_errors(states, truth):
    """Pointwise l2 norms of ``states - truth`` over the last axis.

    A norm whose sum of squares overflows while its row is finite is taken
    again as ``m * norm(row / m)``, m the row's largest |entry|, so a
    finite error reads finite and warns of nothing; every other norm is
    numpy's, bit for bit.  An error beyond the float range (a difference
    of finite entries that overflows) reads ``inf``, also with no
    warning."""
    with np.errstate(over="ignore"):
        diff = states - truth
        errors = np.linalg.norm(diff, axis=-1)
        redo = np.isinf(errors) & np.isfinite(diff).all(axis=-1)
        rows = diff[redo]
        m = np.abs(rows).max(axis=-1)
        errors[redo] = m * np.linalg.norm(rows / m[:, None], axis=-1)
    return errors


# ---------------------------------------------------------------------------
# Memory sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One row of a memory sweep: the memory setting, its mean error, and
    the indices of the evaluation runs that diverged (each puts ``inf``
    in the mean)."""

    n_mem: int
    memory_length: float
    mean_error: float
    diverged_runs: tuple = ()


def evaluate_model(model, spec, solver, domain, horizon_steps, n_runs, seed):
    """Mean rollout error over fresh random initial conditions.

    ``n_runs`` initial conditions are drawn in the domain and scored with
    :func:`rollout_against_truth`.  Returns (scalar mean over runs of the
    time-averaged post-seed l2 error, list of per-run (T,) errors); a run
    that diverged contributes ``inf`` to the mean and None to the list.
    When every run diverged there is no error to report: RuntimeError,
    naming each run and the step at which it diverged.
    """
    n_runs = dyn._count("n_runs", n_runs, 1)
    x0s = data_mod.sample_initial_conditions(domain, n_runs, seed)
    _, result, errors = rollout_against_truth(model, spec, solver, x0s, horizon_steps)
    diverged = np.array([step is not None for step in result.diverged_at])
    if diverged.all():
        runs = ", ".join(f"run {r} at step {step}"
                         for r, step in enumerate(result.diverged_at))
        raise RuntimeError(f"every rollout diverged: {runs}")
    post_seed = errors[:, result.seed_len:].mean(axis=1)
    run_means = np.where(diverged, np.inf, post_seed)
    series = [None if bad else run_errors
              for bad, run_errors in zip(diverged, errors)]
    return float(run_means.mean()), series


def memory_sweep(cfg, n_mem_list):
    """Train and evaluate one model per memory setting.

    ``cfg`` is the experiment (a :class:`memflow.cli.ExperimentConfig`);
    the cell for each n of ``n_mem_list``, which must be ascending, is
    ``dataclasses.replace(cfg, n_mem=n)``.  Every cell is built, and so
    passes the config's checks (n a count >= 0 among them), before the
    first one trains.  Each cell regenerates data, builds windows, trains
    a fresh network, and reports the mean rollout error at the evaluation
    horizon with the indices of the evaluation runs that diverged.  Its seeds
    come from ``cell_seed = SeedSequence([cfg.seed, n_mem])``: ``cell_seed``
    + 0 to + 4 for generate, select, init, train and evaluate, so a config
    fixes its sweep.
    """
    n_mem_list = list(n_mem_list)
    if not n_mem_list:
        raise ValueError("n_mem_list must be non-empty")
    if any(b <= a for a, b in zip(n_mem_list, n_mem_list[1:])):
        raise ValueError("n_mem_list must be strictly ascending")
    cell_cfgs = [replace(cfg, n_mem=n_mem) for n_mem in n_mem_list]
    spec, solver, domain = cfg.spec(), cfg.solver(), cfg.domain()
    cells = []
    for cell in cell_cfgs:
        n_mem = cell.n_mem
        cell_seed = int(np.random.SeedSequence([cfg.seed, n_mem]).generate_state(1)[0])
        trajs = data_mod.generate_trajectories(
            spec, solver, domain, cell.n_traj, cell.resolved_traj_len(),
            seed=cell_seed,
        )
        ds = data_mod.build_dataset(trajs, n_mem, cell.per_trajectory,
                                    seed=cell_seed + 1)
        params0 = net_mod.init_params(spec.d, n_mem, cell.hidden, seed=cell_seed + 2)
        train_cfg = replace(cell.train_config(), seed=cell_seed + 3)
        model, _ = train_mod.train_model(params0, ds, train_cfg)
        mean_err, series = evaluate_model(
            model, spec, solver, domain, cell.horizon_steps(), cell.n_eval_runs,
            seed=cell_seed + 4,
        )
        cells.append(SweepCell(
            n_mem=n_mem,
            memory_length=n_mem * solver.delta,
            mean_error=mean_err,
            diverged_runs=tuple(r for r, es in enumerate(series) if es is None),
        ))
    return cells


# ---------------------------------------------------------------------------
# Analytic reference schemes
# ---------------------------------------------------------------------------


class _EulerMap(LinearMap):
    """``h -> z_n + matrix @ h``, z_n leading h.  Euler's identity stays out
    of ``matrix``: rounding I + delta A11 would bias every step alike."""

    def __call__(self, stacks):
        return stacks[:, : self.d] + stacks @ self.matrix.T


def euler_damz(spec, seeds, steps, delta):
    """Explicit Euler on the discretized reduced dynamics of a linear spec.

    The update is

        z_{n+1} = z_n + delta * (A11 z_n + M(z_{n-n_mem..n}))

    where M is the trapezoid quadrature of the truncated memory integral
    over the discrete history (spacing ``delta``, window ``n_mem * delta``),
    projected through A12.  The ``n_mem + 1`` seed rows, oldest first, set
    the memory length.  :func:`rollout` runs the update as the map z_n +
    delta [A11 + w_0 K_0, w_1 K_1, ...] h_n, K_j = A12 exp(A22 j delta) A21
    with trapezoid weights w_j, so a diverging run ends in NaN rows.  Unlike
    the learned model this scheme carries O(delta) time-discretization error.
    """
    delta = dyn._number("delta", delta, 0, True)
    increment = delta * dyn._memory_matrix(spec, delta, len(seeds) - 1)
    increment[:, : spec.d] += delta * dyn._blocks(spec)[0]
    return rollout(_EulerMap(increment), [seeds], steps).states[0]


def _homogenized_closure(spec):
    """The ``example3-reduced`` spec, the closure of ``spec``; a system
    other than example3 observing x1, x2 and x3 is a ValueError."""
    if spec.name != "example3":
        raise ValueError(
            f"the homogenized closure is a reference for example3, not {spec.name}"
        )
    if spec.d != 3:
        raise ValueError(
            f"the homogenized closure predicts x1, x2 and x3, so example3 must "
            f"observe those three; it observes d={spec.d}"
        )
    return dyn.make_system("example3-reduced")


def compare_with_homogenized(model, spec, solver, domain, horizon_steps, n_runs, seed):
    """Rollout accuracy of a trained chaotic-system model vs the analytic
    slow-variable closure.

    ``spec`` is the full 4-variable example3 system (any epsilon) observing
    x1, x2 and x3, the closure's state; any other system or observed
    dimension is a ValueError.  ``n_runs`` initial conditions of it are
    scored with :func:`rollout_against_truth`, and the homogenized
    3-variable system is integrated from the same slow-variable initial
    conditions, both over ``horizon_steps`` samples.  Returns the pair
    (network, homogenized) of (T,) l2 errors against the truth, averaged
    over the runs, on the grid of :func:`rollout_against_truth`.  A
    diverged network run raises
    RuntimeError naming the run and the step.
    """
    reduced = _homogenized_closure(spec)
    if model.d != spec.d:
        raise ValueError(
            f"model d={model.d} does not match observed dimension {spec.d}"
        )
    n_runs = dyn._count("n_runs", n_runs, 1)
    x0s = data_mod.sample_initial_conditions(domain, n_runs, seed)
    truth, result, nn = rollout_against_truth(model, spec, solver, x0s, horizon_steps)
    result.raise_if_diverged()
    baseline = dyn.integrate_batch(reduced, solver, x0s[:, :3], horizon_steps)
    closure = _l2_errors(baseline, truth)
    return nn.mean(axis=0), closure.mean(axis=0)
