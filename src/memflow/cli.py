"""Config-driven command line front end.

Chains the pipeline stages behind subcommands::

    memflow generate       --preset example1-fast --out runs/e1
    memflow build-dataset  --preset example1-fast --out runs/e1
    memflow train          --preset example1-fast --out runs/e1
    memflow predict        --preset example1-fast --out runs/e1 --steps 1000
    memflow sweep          --preset example1-fast --out runs/e1 --n-mem 5,10,20,30
    memflow compare-reduced --preset example3    --out runs/e3
    memflow oracle-check   --preset example1-fast

Experiments are described by a flat JSON config (see
:class:`ExperimentConfig`); ``--preset`` selects a built-in config and
``--config`` loads one from disk.  Unknown config keys are errors.  One
master seed drives every stage through fixed labels, so a config plus a
seed pins every output byte.

Each run directory holds the bulk artifacts as ``.npz`` archives
(``trajectories.npz``, ``dataset.npz``, ``model.npz``; members are listed
in :mod:`memflow.data` and :mod:`memflow.net`) and the small
human-facing outputs as CSV (``train_log.csv``, ``rollout.csv``,
``sweep.csv``, ``compare.csv``).
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import MISSING, asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from memflow import data as data_mod
from memflow import dynamics as dyn
from memflow import net as net_mod
from memflow import rollout as roll_mod
from memflow import train as train_mod

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "preset_config",
    "load_config",
    "stage_seed",
    "cmd_generate",
    "cmd_build_dataset",
    "cmd_train",
    "cmd_predict",
    "cmd_sweep",
    "cmd_compare_reduced",
    "cmd_oracle_check",
    "main",
]

TRAJECTORY_FILE = data_mod.TRAJECTORY_FILE
DATASET_FILE = "dataset.npz"
MODEL_FILE = "model.npz"
TRAIN_LOG_FILE = "train_log.csv"
ROLLOUT_FILE = "rollout.csv"
SWEEP_FILE = "sweep.csv"
COMPARE_FILE = "compare.csv"


def stage_seed(master, label):
    """Derive a stage seed from the master seed, a count >= 0, and a fixed
    label."""
    return int(
        np.random.SeedSequence([dyn._count("seed", master, 0),
                                zlib.crc32(label.encode())])
        .generate_state(1)[0]
    )


# count key -> its least value
_COUNTS = {"substeps": 1, "n_traj": 1, "n_mem": 0, "batch_size": 1, "epochs": 1,
           "n_eval_runs": 1, "seed": 0}
# real-valued key -> (its bound, whether the bound itself is refused)
_NUMBERS = {"delta": (0, True), "learning_rate": (0, False),
            "eval_horizon": (0, True)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, JSON-serializable.

    ``traj_len`` is either a count K >= 1 or the string ``"auto"`` meaning
    the minimal usable length ``n_mem + 2`` (one window per trajectory).
    ``per_trajectory`` is the number (>= 1) of window starts drawn from
    each trajectory, or null to take every admissible start.  ``hidden``
    is a non-empty list of widths >= 1, checked by the network's own rule
    (:func:`memflow.net._widths`).  The other counts are ``n_mem``
    and ``seed`` (>= 0) and ``substeps``, ``n_traj``, ``batch_size``,
    ``epochs`` and ``n_eval_runs`` (>= 1); the real values ``delta`` and
    ``eval_horizon`` (> 0) and ``learning_rate`` (>= 0).  Each is checked
    by :func:`memflow.dynamics._count` or ``_number`` and stored as the
    Python int or float that returns, so numpy scalars are accepted.
    Initial conditions come from the system's default domain.
    A config that cannot build its dataset or seed its rollouts fails
    when it is built; a memory sweep builds every cell before training.
    """

    system: str
    params: dict = field(default_factory=dict)
    delta: float = 0.02
    substeps: int = 20
    n_traj: int = 1000
    traj_len: object = "auto"
    per_trajectory: int | None = 1
    n_mem: int = 10
    hidden: tuple = (30, 30, 30)
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    eval_horizon: float = 20.0
    n_eval_runs: int = 5
    seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        def store(key, value):
            object.__setattr__(self, key, value)

        for key, least in _COUNTS.items():
            store(key, dyn._count(key, getattr(self, key), least))
        for key, (least, strict) in _NUMBERS.items():
            store(key, dyn._number(key, getattr(self, key), least, strict))
        if self.traj_len != "auto":
            store("traj_len", dyn._count("traj_len", self.traj_len, 1))
        if self.per_trajectory is not None:
            store("per_trajectory",
                  dyn._count("per_trajectory", self.per_trajectory, 1))
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be an object, got {self.params!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        # fail at load time, not at the first stage that uses these
        d = self.spec().d
        store("hidden", tuple(net_mod._widths(d, self.n_mem, self.hidden)[1:-1]))
        # the n_mem + 1 seed states fit the horizon, and the trajectories
        # give enough window starts and windows
        n_mem = self.n_mem
        steps = self.horizon_steps()
        if steps < n_mem + 1:
            raise ValueError(
                f"eval_horizon={self.eval_horizon:g} is {steps} steps of "
                f"delta={self.delta:g}, fewer than the n_mem + 1 = {n_mem + 1} "
                f"seed states of a rollout (n_mem={n_mem})"
            )
        per_trajectory = self.per_trajectory
        starts = max(self.resolved_traj_len() - n_mem - 1, 0)
        if starts < (per_trajectory or 1):
            raise ValueError(
                f"traj_len={self.traj_len!r} leaves {starts} window starts per "
                f"trajectory at n_mem={n_mem}, fewer than "
                + (f"per_trajectory={per_trajectory}" if per_trajectory else "one")
            )
        windows = self.n_traj * (per_trajectory or starts)
        if self.batch_size > windows:
            raise ValueError(
                f"batch_size={self.batch_size} exceeds the {windows} windows of "
                f"n_traj={self.n_traj} trajectories at n_mem={n_mem}"
            )

    # -- pieces ------------------------------------------------------------

    def spec(self):
        # make_system refuses a bad value with ValueError (_number, _count);
        # a TypeError is a params key that is not a string (**params)
        try:
            return dyn.make_system(self.system, **self.params)
        except TypeError as exc:
            raise ValueError(f"params of {self.system}: {exc}") from None

    def solver(self):
        return dyn.SolverConfig(delta=self.delta, substeps=self.substeps)

    def domain(self):
        return dyn.default_domain(self.spec())

    def resolved_traj_len(self):
        return self.n_mem + 2 if self.traj_len == "auto" else self.traj_len

    def horizon_steps(self):
        """``eval_horizon`` in samples of ``delta``."""
        steps = self.eval_horizon / self.delta
        if not np.isfinite(steps):
            raise ValueError(f"eval_horizon={self.eval_horizon:g} is not a finite "
                             f"number of steps of delta={self.delta!r}")
        return int(round(steps))

    def train_config(self):
        return train_mod.TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=stage_seed(self.seed, "train"),
        )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc):
        fields = cls.__dataclass_fields__
        unknown = set(doc) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [key for key, f in fields.items() if key not in doc
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**doc)


def load_config(path):
    import json  # here and in save_config: importing the module loads no json
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    try:
        return ExperimentConfig.from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(cfg, path):
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESETS = {
    # one window per trajectory: minimal-length trajectories, J = n_traj
    "example1-fast": dict(
        system="example1", params={"alpha": 2.0}, n_traj=20000, traj_len="auto",
        per_trajectory=1, n_mem=30, hidden=(30, 30, 30), epochs=40,
        eval_horizon=20.0, n_eval_runs=10, out_dir="runs/example1-fast",
    ),
    "example1-slow": dict(
        system="example1", params={"alpha": 1.1}, n_traj=20000, traj_len="auto",
        per_trajectory=1, n_mem=30, hidden=(30, 30, 30), epochs=40,
        eval_horizon=100.0, n_eval_runs=5, out_dir="runs/example1-slow",
    ),
    "example2": dict(
        system="example2", params={"alpha": 0.1, "beta": 8.91}, n_traj=4000,
        traj_len=50, per_trajectory=5, n_mem=20, hidden=(30, 30, 30),
        epochs=100, eval_horizon=100.0, n_eval_runs=5, out_dir="runs/example2",
    ),
    "example3": dict(
        system="example3", params={"epsilon": 0.01}, n_traj=6000, traj_len=100,
        per_trajectory=5, n_mem=60, hidden=(120, 120, 120), epochs=60,
        eval_horizon=50.0, n_eval_runs=10, out_dir="runs/example3",
    ),
    "example4": dict(
        system="example4", n_traj=30000, traj_len=100, per_trajectory=5,
        n_mem=30, hidden=(160, 160, 160), epochs=30, eval_horizon=150.0,
        n_eval_runs=5, out_dir="runs/example4",
    ),
    # fully observed 2-D linear system, no memory: plain flow-map learning
    # on every window
    "flowmap-linear": dict(
        system="example1", params={"alpha": 2.0, "observe": 2}, n_traj=2000,
        traj_len=11, per_trajectory=None, n_mem=0, hidden=(30, 30, 30),
        epochs=200, eval_horizon=1.0, n_eval_runs=10,
        out_dir="runs/flowmap-linear",
    ),
}


def preset_config(name):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return ExperimentConfig(**PRESETS[name])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` of Python ints and floats, each value
    as its ``repr`` (the shortest text that reads back to the same float)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _out_dir(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read(path, load, **want):
    """``load(path)``, checked field by field against the config's values
    ``want``: a mismatch is a ValueError naming the file and each field
    that differs."""
    obj = load(path)
    got = {k: getattr(obj, k) for k in want}
    differ = [k for k in want if got[k] != want[k]]
    if differ:
        def fields(values):
            return ", ".join(f"{k}={values[k]!r}" for k in differ)
        raise ValueError(f"{path}: {fields(got)} does not match config {fields(want)}")
    return obj


def cmd_generate(cfg):
    """Generate observed trajectories and write the trajectory file."""
    out = _out_dir(cfg)
    spec = cfg.spec()
    k = cfg.resolved_traj_len()
    trajs = data_mod.generate_trajectories(
        spec, cfg.solver(), cfg.domain(), cfg.n_traj, k,
        seed=stage_seed(cfg.seed, "generate"),
    )
    path = out / TRAJECTORY_FILE
    data_mod.save_trajectories(trajs, path)
    print(
        f"generated {trajs.n_traj} trajectories of {k} samples "
        f"(d={trajs.d}, delta={trajs.delta:g}) -> {path}"
    )
    return path


def cmd_build_dataset(cfg):
    """Index the memory windows of the trajectory file as a training dataset."""
    out = _out_dir(cfg)
    trajs = _read(out / TRAJECTORY_FILE, data_mod.load_trajectories,
                  delta=cfg.delta, d=cfg.spec().d)
    ds = data_mod.build_dataset(trajs, cfg.n_mem, cfg.per_trajectory,
                                seed=stage_seed(cfg.seed, "select"))
    path = out / DATASET_FILE
    data_mod.save_dataset(ds, path)
    print(f"built dataset with J={ds.size} windows (n_mem={cfg.n_mem}) over "
          f"{trajs.n_traj} trajectories -> {path}")
    return path


def cmd_train(cfg):
    """Train a model on the dataset file; write checkpoint and loss log."""
    out = _out_dir(cfg)
    ds = _read(out / DATASET_FILE, data_mod.load_dataset,
               d=cfg.spec().d, n_mem=cfg.n_mem)
    params0 = net_mod.init_params(
        ds.d, ds.n_mem, cfg.hidden, seed=stage_seed(cfg.seed, "init")
    )
    n_params = params0.flat.size
    if ds.size / n_params < 5:
        print(
            f"warning: J={ds.size} is below 5x the parameter count "
            f"({n_params}); training may be data-starved",
            file=sys.stderr,
        )
    model, report = train_mod.train_model(params0, ds, cfg.train_config())
    model_path = out / MODEL_FILE
    train_mod.save_model(model, model_path)
    _write_csv(out / TRAIN_LOG_FILE, ["epoch", "loss"],
               enumerate(report.loss_per_epoch.tolist(), start=1))
    print(
        f"trained {n_params}-parameter model for {cfg.epochs} epochs "
        f"in {report.wall_time:.1f}s, final loss {report.final_loss:.3e} "
        f"-> {model_path}"
    )
    return model_path


def _load_model(cfg, out):
    """Load the checkpoint and check its shape against the config."""
    return _read(out / MODEL_FILE, train_mod.load_model,
                 d=cfg.spec().d, n_mem=cfg.n_mem, hidden=cfg.hidden)


def cmd_predict(cfg, steps=None):
    """Roll the trained model forward and write a rollout CSV.

    Seeds come from a fresh truth trajectory (random in-domain initial
    condition), which also provides the reference columns.  ``steps``
    defaults to what reaches ``eval_horizon``; given, it must be >= 1.
    """
    if steps is not None:
        steps = dyn._count("--steps", steps, 1)
    out = _out_dir(cfg)
    model = _load_model(cfg, out)
    if steps is None:
        steps = cfg.horizon_steps() - model.n_mem
    x0s = data_mod.sample_initial_conditions(
        cfg.domain(), 1, seed=stage_seed(cfg.seed, "predict")
    )
    truth, res, errors = roll_mod.rollout_against_truth(
        model, cfg.spec(), cfg.solver(), x0s, model.n_mem + steps
    )
    res.raise_if_diverged()
    d = model.d
    header = (["t"] + [f"z_{i + 1}" for i in range(d)]
              + [f"ref_{i + 1}" for i in range(d)] + ["err"])
    times = np.arange(errors.shape[1]) * cfg.delta
    rows = np.column_stack([times, res.states[0], truth[0], errors[0]])
    path = out / ROLLOUT_FILE
    _write_csv(path, header, rows.tolist())
    print(
        f"rolled out {steps} steps to t={times[-1]:g}; "
        f"final error {errors[0, -1]:.3e} -> {path}"
    )
    return path


def cmd_sweep(cfg, n_mem_list):
    """Train one model per memory setting and tabulate rollout errors."""
    out = _out_dir(cfg)
    cells = roll_mod.memory_sweep(replace(cfg, seed=stage_seed(cfg.seed, "sweep")), n_mem_list)
    path = out / SWEEP_FILE
    _write_csv(path, ["n_mem", "T_M", "mean_error"],
               [(int(c.n_mem), float(c.memory_length), float(c.mean_error))
                for c in cells])
    for cell in cells:
        diverged = cell.diverged_runs
        print(
            f"n_mem={cell.n_mem:4d}  T_M={cell.memory_length:g}  "
            f"mean_error={cell.mean_error:.4e}"
            + (f"  ({len(diverged)} of {cfg.n_eval_runs} runs diverged: "
               f"{list(diverged)})" if diverged else "")
        )
    print(f"sweep table -> {path}")
    return path


def cmd_compare_reduced(cfg):
    """Compare the trained chaotic-system model against the homogenized
    closure; write both mean error series."""
    roll_mod._homogenized_closure(cfg.spec())  # before anything is made or read
    out = _out_dir(cfg)
    model = _load_model(cfg, out)
    nn_errors, reduced_errors = roll_mod.compare_with_homogenized(
        model,
        cfg.spec(),
        cfg.solver(),
        cfg.domain(),
        cfg.horizon_steps(),
        cfg.n_eval_runs,
        seed=stage_seed(cfg.seed, "compare"),
    )
    path = out / COMPARE_FILE
    times = np.arange(nn_errors.size) * cfg.delta
    rows = np.column_stack([times, nn_errors, reduced_errors])
    _write_csv(path, ["t", "nn_error", "reduced_error"], rows.tolist())
    print(
        f"mean error over t<=({cfg.eval_horizon:g}): "
        f"network {nn_errors.mean():.4e}, "
        f"homogenized {reduced_errors.mean():.4e} -> {path}"
    )
    return path


ORACLE_DRAWS = 20  # random states and times that oracle-check draws
# The largest decomposition residual that passes.  The four linear presets
# measure at most 1.8e-14 over 200 seeds, a margin of over 50; random
# linear-generic systems whose dz/dt reaches 5e4 measure 1.7e-13.
ORACLE_TOL = 1e-12


def cmd_oracle_check(cfg):
    """Validate the exact reduced-dynamics references of a linear system.

    Checks that Markov + memory + unobserved-initial-state terms reproduce
    the exact derivative (A exp(A t) x0)[:d] of the observed block at
    random states and times, and that the RK4 integrator agrees with the
    matrix exponential.  Returns the maximum decomposition residual, each
    draw's largest error over max(1, its largest |dz/dt|): round-off
    grows with the derivative on a system with growing modes.
    """
    spec = cfg.spec()
    rng = np.random.default_rng(stage_seed(cfg.seed, "oracle"))
    worst = 0.0
    for _ in range(ORACLE_DRAWS):
        x0 = rng.uniform(-1.0, 1.0, size=spec.n)
        t = rng.uniform(0.2, 1.5)
        got = dyn.linear_mz_rhs(spec, x0, t)
        want = (spec.a_matrix @ dyn.exact_linear_solution(spec, x0, t))[: spec.d]
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    x0 = rng.uniform(-1.0, 1.0, size=spec.n)
    solver = cfg.solver()
    rk4_end = dyn.integrate_batch(replace(spec, d=spec.n), solver, x0[None], 50)[0, -1]
    exact_end = dyn.exact_linear_solution(spec, x0, 50 * solver.delta)
    rk4_err = float(np.max(np.abs(rk4_end - exact_end)))
    print(f"decomposition residual (max over {ORACLE_DRAWS} draws): {worst:.3e}")
    print(f"RK4 vs matrix exponential at t={50 * solver.delta:g}: {rk4_err:.3e}")
    if worst > ORACLE_TOL or rk4_err > 1e-8:
        raise RuntimeError("oracle self-check failed")
    print("oracle check passed")
    return worst


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _resolve_config(args):
    if args.config and args.preset:
        raise ValueError("give either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = preset_config(args.preset)
    else:
        raise ValueError("one of --config or --preset is required")
    overrides = {"seed": args.seed, "out_dir": args.out}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _parse_n_mem_list(text):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--n-mem expects comma-separated integers, got {text!r}")
    if not values:
        raise ValueError("--n-mem list is empty")
    return values


# subcommand -> (help text, its call on the config and the parsed arguments)
_COMMANDS = {
    "generate": ("integrate random initial conditions into a trajectory file",
                 lambda cfg, args: cmd_generate(cfg)),
    "build-dataset": ("window trajectories into a training dataset",
                      lambda cfg, args: cmd_build_dataset(cfg)),
    "train": ("train the residual memory network",
              lambda cfg, args: cmd_train(cfg)),
    "predict": ("roll the trained model forward against the truth",
                lambda cfg, args: cmd_predict(cfg, steps=args.steps)),
    "sweep": ("train/evaluate across a list of memory lengths",
              lambda cfg, args: cmd_sweep(cfg, _parse_n_mem_list(args.n_mem))),
    "compare-reduced": ("compare the model with the homogenized closure",
                        lambda cfg, args: cmd_compare_reduced(cfg)),
    "oracle-check": ("self-check the linear reduced-dynamics oracle",
                     lambda cfg, args: cmd_oracle_check(cfg)),
}


def main(argv=None):
    import argparse  # with gettext, only the command line loads it
    parser = argparse.ArgumentParser(
        prog="memflow",
        description="Learn memory-dependent predictive models for the "
        "observed variables of a dynamical system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--preset", help=f"built-in config: {', '.join(PRESETS)}")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        if name == "predict":
            p.add_argument("--steps", type=int, help="number of prediction steps")
        if name == "sweep":
            p.add_argument(
                "--n-mem", required=True,
                help="comma-separated ascending memory step counts",
            )
    args = parser.parse_args(argv)
    try:
        _, run = _COMMANDS[args.command]
        run(_resolve_config(args), args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation it could not make
        print(f"error: {args.command} ran out of memory"
              + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
