"""The three benchmark workloads and the stages each one runs.

Every workload is single-process and closed-loop: one caller runs the
stages in order, and each stage starts when the previous one returns.
Stage functions are looked up on their modules at call time, so the
wrappers that ``tracing.py`` installs see every call.

Why these three (the same reasons are recorded in BENCHMARK.json):

* ``pendulum`` -- example2 (nonlinear, d=1).  Truth integration of a
  nonlinear rhs at batch width 1-5 dominates; training is bound by
  per-minibatch Python overhead; artifacts are small, and a linear-system
  fast path has no effect.
* ``linear20`` -- example4 (linear, n=20, d=10, hidden 160^3).  Linear RK4
  over wide batches and the text artifact formats dominate; training is
  BLAS-bound and peak RSS is the highest.
* ``linear2-sweep`` -- cmd_sweep on example1-fast with one window per
  trajectory, then the Euler reference and the exact oracle check.  Many
  short trajectories, many separate trainings and multi-run evaluations,
  so per-call overhead counts in every layer; nothing is written but
  sweep.csv, so an artifact change must not move it.
"""

from __future__ import annotations

import numpy as np

from memflow import cli
from memflow import dynamics as dyn
from memflow import rollout as roll_mod

# Desk scale: one repeat takes a few seconds on 2 cores.  ``tiny`` is for
# the smoke tests only.
WORKLOADS = {
    "pendulum": {
        "preset": "example2",
        "kind": "pipeline",
        "desk": {"n_traj": 600, "epochs": 5, "eval_horizon": 20.0},
        "tiny": {"n_traj": 40, "epochs": 1, "eval_horizon": 1.0,
                 "n_eval_runs": 2, "hidden": (8, 8, 8)},
    },
    "linear20": {
        "preset": "example4",
        "kind": "pipeline",
        "desk": {"n_traj": 400, "epochs": 1, "eval_horizon": 10.0},
        "tiny": {"n_traj": 20, "epochs": 1, "eval_horizon": 1.0,
                 "n_eval_runs": 2, "hidden": (16, 16, 16)},
    },
    "linear2-sweep": {
        "preset": "example1-fast",
        "kind": "sweep",
        "desk": {"n_traj": 1500, "epochs": 3, "eval_horizon": 10.0},
        "tiny": {"n_traj": 100, "epochs": 1, "eval_horizon": 1.0,
                 "n_eval_runs": 2, "hidden": (8, 8, 8)},
    },
}

SWEEP_N_MEM = {"desk": (2, 5, 10, 20, 30), "tiny": (2, 5)}
EULER_STEPS = {"desk": 500, "tiny": 20}


def make_config(workload, seed, out_dir, scale="desk"):
    spec = WORKLOADS[workload]
    doc = {**cli.PRESETS[spec["preset"]], **spec[scale]}
    doc.update(seed=int(seed), out_dir=str(out_dir))
    return cli.ExperimentConfig(**doc)


def run(workload, cfg, scale, stage):
    """Run the workload's stages, each through ``stage(name, fn)``.

    Returns a dict with the evaluation error and the list of operations
    ``(name, ok, detail)`` that count towards attempted/failed.
    """
    if WORKLOADS[workload]["kind"] == "pipeline":
        return _pipeline(cfg, stage)
    return _sweep(cfg, scale, stage)


def _pipeline(cfg, stage):
    stage("generate", lambda: cli.cmd_generate(cfg))
    stage("build_dataset", lambda: cli.cmd_build_dataset(cfg))
    stage("train", lambda: cli.cmd_train(cfg))
    stage("predict", lambda: cli.cmd_predict(cfg))
    model = cli.train_mod.load_model(f"{cfg.out_dir}/{cli.MODEL_FILE}")
    horizon = int(round(cfg.eval_horizon / cfg.delta))
    mean_err, series = stage("evaluate", lambda: roll_mod.evaluate_model(
        model, cfg.spec(), cfg.solver(), cfg.domain(), horizon,
        cfg.n_eval_runs, seed=cli.stage_seed(cfg.seed, "bench-evaluate"),
    ))
    ops = [(f"evaluate.run{r}", es is not None, "rollout diverged")
           for r, es in enumerate(series)]
    return {"eval_error": mean_err, "ops": ops}


def _sweep(cfg, scale, stage):
    n_mem_list = SWEEP_N_MEM[scale]
    path = stage("sweep", lambda: cli.cmd_sweep(cfg, n_mem_list))
    cells = read_sweep_csv(path)
    ops = [(f"sweep.n_mem{n}", bool(np.isfinite(err)), "rollout diverged")
           for n, _, err in cells]
    euler_ok = stage("reference", lambda: _reference(cfg, n_mem_list, EULER_STEPS[scale]))
    ops += [(f"euler.n_mem{n}", ok, "non-finite Euler state")
            for n, ok in zip(n_mem_list, euler_ok)]
    return {"eval_error": float(np.mean([err for _, _, err in cells])), "ops": ops}


def _reference(cfg, n_mem_list, steps):
    """Euler reference at each memory length, then the oracle self-check."""
    spec = cfg.spec()
    oracle = dyn.oracle_for_system(spec)
    rng = np.random.default_rng(cli.stage_seed(cfg.seed, "bench-reference"))
    x0 = rng.uniform(-1.0, 1.0, size=spec.n)
    exact = dyn.exact_linear_trajectory(oracle, x0, cfg.delta, max(n_mem_list))
    finite = []
    for n_mem in n_mem_list:
        states = roll_mod.euler_damz(oracle, exact[: n_mem + 1, : spec.d],
                                     steps, cfg.delta)
        finite.append(bool(np.all(np.isfinite(states))))
    cli.cmd_oracle_check(cfg)
    return finite


def read_sweep_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    return [(int(n), float(t), float(e))
            for n, t, e in (row.split(",") for row in rows)]
