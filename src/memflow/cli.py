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

import argparse
import json
import sys
import zlib
from dataclasses import asdict, dataclass, field
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

TRAJECTORY_FILE = "trajectories.npz"
DATASET_FILE = "dataset.npz"
MODEL_FILE = "model.npz"
TRAIN_LOG_FILE = "train_log.csv"
ROLLOUT_FILE = "rollout.csv"
SWEEP_FILE = "sweep.csv"
COMPARE_FILE = "compare.csv"


def stage_seed(master, label):
    """Derive a stage seed from the master seed and a fixed label."""
    return int(
        np.random.SeedSequence([int(master), zlib.crc32(label.encode())])
        .generate_state(1)[0]
    )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def _is_list_of(test):
    return lambda v: isinstance(v, (list, tuple)) and all(map(test, v))


# (config key, what its value must be, the test of that value)
_VALUE_TYPES = (
    *[(key, "an integer", _is_int) for key in (
        "substeps", "n_traj", "n_mem", "batch_size", "epochs", "n_eval_runs",
        "seed")],
    *[(key, "a number", _is_number) for key in (
        "delta", "learning_rate", "eval_horizon")],
    ("params", "an object", lambda v: isinstance(v, dict)),
    ("hidden", "a list of integers", _is_list_of(_is_int)),
    ("traj_len", 'an integer or "auto"', lambda v: v == "auto" or _is_int(v)),
    ("per_trajectory", "an integer or null", lambda v: v is None or _is_int(v)),
    *[(key, "a list of numbers or null",
       lambda v: v is None or _is_list_of(_is_number)(v))
      for key in ("domain_lower", "domain_upper")],
    ("out_dir", "a string", lambda v: isinstance(v, str)),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, JSON-serializable.

    ``traj_len`` is either an integer K or the string ``"auto"`` meaning
    the minimal usable length ``n_mem + 2`` (one window per trajectory).
    ``domain_lower`` and ``domain_upper`` are given together or not at
    all; without them the system's default domain is used.
    """

    system: str
    params: dict = field(default_factory=dict)
    domain_lower: list | None = None
    domain_upper: list | None = None
    delta: float = 0.02
    substeps: int = 20
    n_traj: int = 1000
    traj_len: object = "auto"
    selection_kind: str = "random"
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
        for key, want, test in _VALUE_TYPES:
            if not test(getattr(self, key)):
                raise ValueError(f"{key} must be {want}, got {getattr(self, key)!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.n_mem < 0:
            raise ValueError("n_mem must be >= 0")
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if self.n_eval_runs < 1:
            raise ValueError("n_eval_runs must be >= 1")
        if not self.eval_horizon > 0:
            raise ValueError("eval_horizon must be positive")
        if (self.domain_lower is None) != (self.domain_upper is None):
            raise ValueError("domain_lower and domain_upper must be given together")
        # fail at load time, not at the first stage that uses these
        self.domain()
        self.strategy()
        self.train_config()

    # -- pieces ------------------------------------------------------------

    def spec(self):
        try:
            return dyn.make_system(self.system, **self.params)
        except TypeError as exc:  # a parameter value that is not a number
            raise ValueError(f"params of {self.system}: {exc}") from None

    def solver(self):
        return dyn.SolverConfig(delta=self.delta, substeps=self.substeps)

    def domain(self):
        spec = self.spec()
        if self.domain_lower is None:
            return dyn.default_domain(spec)
        domain = dyn.Domain(np.array(self.domain_lower), np.array(self.domain_upper))
        if domain.n != spec.n:
            raise ValueError(f"domain_lower and domain_upper have {domain.n} "
                             f"entries; {self.system} has n={spec.n}")
        return domain

    def strategy(self):
        return data_mod.SelectionStrategy(
            kind=self.selection_kind,
            per_trajectory=self.per_trajectory,
            seed=stage_seed(self.seed, "select"),
        )

    def resolved_traj_len(self):
        return self.n_mem + 2 if self.traj_len == "auto" else self.traj_len

    def train_config(self):
        return train_mod.TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=stage_seed(self.seed, "train"),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    try:
        return ExperimentConfig.from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESETS = {
    # one window per trajectory: minimal-length trajectories, J = n_traj
    "example1-fast": dict(
        system="example1", params={"alpha": 2.0}, n_traj=20000, traj_len="auto",
        selection_kind="random", per_trajectory=1, n_mem=30,
        hidden=(30, 30, 30), epochs=40, eval_horizon=20.0, n_eval_runs=10,
        out_dir="runs/example1-fast",
    ),
    "example1-slow": dict(
        system="example1", params={"alpha": 1.1}, n_traj=20000, traj_len="auto",
        selection_kind="random", per_trajectory=1, n_mem=30,
        hidden=(30, 30, 30), epochs=40, eval_horizon=100.0, n_eval_runs=5,
        out_dir="runs/example1-slow",
    ),
    "example2": dict(
        system="example2", params={"alpha": 0.1, "beta": 8.91}, n_traj=4000,
        traj_len=50, selection_kind="random", per_trajectory=5, n_mem=20,
        hidden=(30, 30, 30), epochs=100, eval_horizon=100.0, n_eval_runs=5,
        out_dir="runs/example2",
    ),
    "example3": dict(
        system="example3", params={"epsilon": 0.01}, n_traj=6000, traj_len=100,
        selection_kind="random", per_trajectory=5, n_mem=60,
        hidden=(120, 120, 120), epochs=60, eval_horizon=50.0, n_eval_runs=10,
        out_dir="runs/example3",
    ),
    "example4": dict(
        system="example4", n_traj=30000, traj_len=100,
        selection_kind="random", per_trajectory=5, n_mem=30,
        hidden=(160, 160, 160), epochs=30, eval_horizon=150.0, n_eval_runs=5,
        out_dir="runs/example4",
    ),
    # fully observed 2-D linear system, no memory: plain flow-map learning
    "flowmap-linear": dict(
        system="example1", params={"alpha": 2.0, "observe": 2}, n_traj=2000,
        traj_len=11, selection_kind="deterministic", per_trajectory=None,
        n_mem=0, hidden=(30, 30, 30), epochs=200, eval_horizon=1.0,
        n_eval_runs=10, out_dir="runs/flowmap-linear",
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
    """Window the trajectory file into a training dataset."""
    out = _out_dir(cfg)
    trajs = data_mod.load_trajectories(out / TRAJECTORY_FILE)
    ds = data_mod.build_dataset(trajs, cfg.n_mem, cfg.strategy())
    path = out / DATASET_FILE
    data_mod.save_dataset(ds, path)
    print(f"built dataset with J={ds.size} windows (n_mem={cfg.n_mem}) -> {path}")
    return path


def cmd_train(cfg):
    """Train a model on the dataset file; write checkpoint and loss log."""
    out = _out_dir(cfg)
    ds = data_mod.load_dataset(out / DATASET_FILE)
    if ds.n_mem != cfg.n_mem or ds.d != cfg.spec().d:
        raise ValueError(
            f"dataset (d={ds.d}, n_mem={ds.n_mem}) does not match config "
            f"(d={cfg.spec().d}, n_mem={cfg.n_mem})"
        )
    params0 = net_mod.init_params(
        ds.d, ds.n_mem, cfg.hidden, seed=stage_seed(cfg.seed, "init")
    )
    n_params = net_mod.count_params(params0)
    if train_mod.data_sizing_ratio(params0, ds) < 5:
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
    model = train_mod.load_model(out / MODEL_FILE)
    got = (model.d, model.n_mem, model.hidden)
    want = (cfg.spec().d, cfg.n_mem, cfg.hidden)
    if got != want:
        raise ValueError(
            "checkpoint (d={}, n_mem={}, hidden={}) does not match config "
            "(d={}, n_mem={}, hidden={})".format(*got, *want)
        )
    return model


def cmd_predict(cfg, steps=None):
    """Roll the trained model forward and write a rollout CSV.

    Seeds come from a fresh truth trajectory (random in-domain initial
    condition), which also provides the reference columns.  ``steps``
    defaults to what reaches ``eval_horizon``; given, it must be >= 1.
    """
    if steps is not None and steps < 1:
        raise ValueError(f"--steps must be >= 1, got {steps}")
    out = _out_dir(cfg)
    model = _load_model(cfg, out)
    if steps is None:
        steps = int(round(cfg.eval_horizon / cfg.delta)) - model.n_mem
    x0s = data_mod.sample_initial_conditions(
        cfg.domain(), 1, seed=stage_seed(cfg.seed, "predict")
    )
    truth, res, es = roll_mod.rollout_against_truth(
        model, cfg.spec(), cfg.solver(), x0s, model.n_mem + steps
    )
    res.raise_if_diverged()
    d = model.d
    header = (["t"] + [f"z_{i + 1}" for i in range(d)]
              + [f"ref_{i + 1}" for i in range(d)] + ["err"])
    rows = np.column_stack([es.times, res.states[0], truth[0], es.errors[0]])
    path = out / ROLLOUT_FILE
    _write_csv(path, header, rows.tolist())
    print(
        f"rolled out {steps} steps to t={es.times[-1]:g}; "
        f"final error {es.errors[0, -1]:.3e} -> {path}"
    )
    return path


def cmd_sweep(cfg, n_mem_list):
    """Train one model per memory setting and tabulate rollout errors."""
    out = _out_dir(cfg)
    cells = roll_mod.memory_sweep(
        cfg.spec(),
        cfg.solver(),
        cfg.domain(),
        n_mem_list,
        n_traj=cfg.n_traj,
        traj_len=cfg.traj_len,
        selection_kind=cfg.selection_kind,
        per_trajectory=cfg.per_trajectory,
        hidden=cfg.hidden,
        train_cfg=cfg.train_config(),
        eval_horizon=cfg.eval_horizon,
        n_eval_runs=cfg.n_eval_runs,
        seed=stage_seed(cfg.seed, "sweep"),
    )
    path = out / SWEEP_FILE
    _write_csv(path, ["n_mem", "T_M", "mean_error"],
               [(int(c.n_mem), float(c.memory_length), float(c.mean_error))
                for c in cells])
    for cell in cells:
        print(
            f"n_mem={cell.n_mem:4d}  T_M={cell.memory_length:g}  "
            f"mean_error={cell.mean_error:.4e}"
        )
    print(f"sweep table -> {path}")
    return path


def cmd_compare_reduced(cfg):
    """Compare the trained chaotic-system model against the homogenized
    closure; write both mean error series."""
    out = _out_dir(cfg)
    model = _load_model(cfg, out)
    nn_series, reduced_series = roll_mod.compare_with_homogenized(
        model,
        cfg.spec(),
        cfg.solver(),
        cfg.domain(),
        cfg.eval_horizon,
        cfg.n_eval_runs,
        seed=stage_seed(cfg.seed, "compare"),
    )
    path = out / COMPARE_FILE
    rows = np.column_stack([nn_series.times, nn_series.errors, reduced_series.errors])
    _write_csv(path, ["t", "nn_error", "reduced_error"], rows.tolist())
    print(
        f"mean error over t<=({cfg.eval_horizon:g}): "
        f"network {nn_series.errors.mean():.4e}, "
        f"homogenized {reduced_series.errors.mean():.4e} -> {path}"
    )
    return path


def cmd_oracle_check(cfg, n_checks=20, tol=1e-4):
    """Validate the exact reduced-dynamics references of a linear system.

    Checks that Markov + memory + unobserved-initial-state terms reproduce
    the centered finite difference of the exact solution at random states
    and times, and that the RK4 integrator agrees with the matrix
    exponential.  Returns the maximum decomposition residual.
    """
    spec = cfg.spec()
    rng = np.random.default_rng(stage_seed(cfg.seed, "oracle"))
    worst = 0.0
    for _ in range(n_checks):
        x0 = rng.uniform(-1.0, 1.0, size=spec.n)
        t = rng.uniform(0.2, 1.5)
        got = dyn.linear_mz_rhs(spec, x0, t)
        h = 1e-5
        hi = dyn.exact_linear_solution(spec, x0, t + h)[: spec.d]
        lo = dyn.exact_linear_solution(spec, x0, t - h)[: spec.d]
        want = (hi - lo) / (2 * h)
        worst = max(worst, float(np.max(np.abs(got - want))))
    x0 = rng.uniform(-1.0, 1.0, size=spec.n)
    solver = cfg.solver()
    rk4_end = dyn.integrate_batch(spec, solver, x0[None], 50)[0, -1]
    exact_end = dyn.exact_linear_solution(spec, x0, 50 * solver.delta)
    rk4_err = float(np.max(np.abs(rk4_end - exact_end)))
    print(f"decomposition residual (max over {n_checks} draws): {worst:.3e}")
    print(f"RK4 vs matrix exponential at t={50 * solver.delta:g}: {rk4_err:.3e}")
    if worst > tol or rk4_err > 1e-8:
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
    doc = cfg.to_dict()
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out_dir"] = args.out
    return ExperimentConfig.from_dict(doc)


def _parse_n_mem_list(text):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--n-mem expects comma-separated integers, got {text!r}")
    if not values:
        raise ValueError("--n-mem list is empty")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="memflow",
        description="Learn memory-dependent predictive models for the "
        "observed variables of a dynamical system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("generate", "integrate random initial conditions into a trajectory file"),
        ("build-dataset", "window trajectories into a training dataset"),
        ("train", "train the residual memory network"),
        ("predict", "roll the trained model forward against the truth"),
        ("sweep", "train/evaluate across a list of memory lengths"),
        ("compare-reduced", "compare the model with the homogenized closure"),
        ("oracle-check", "self-check the linear reduced-dynamics oracle"),
    ]
    for name, help_text in commands:
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
        cfg = _resolve_config(args)
        if args.command == "generate":
            cmd_generate(cfg)
        elif args.command == "build-dataset":
            cmd_build_dataset(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "predict":
            cmd_predict(cfg, steps=args.steps)
        elif args.command == "sweep":
            cmd_sweep(cfg, _parse_n_mem_list(args.n_mem))
        elif args.command == "compare-reduced":
            cmd_compare_reduced(cfg)
        elif args.command == "oracle-check":
            cmd_oracle_check(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
