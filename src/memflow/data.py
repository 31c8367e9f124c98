"""Trajectory sets and memory-window training datasets.

A trajectory set holds observed-variable samples at a constant step; a
memory-window dataset regroups them into (history stack, next state)
pairs.  Each window covers ``n_mem + 2`` consecutive samples: the first
``n_mem + 1`` form the network input, the last is the regression target.

The canonical in-memory layout of an input row is NEWEST FIRST:
``(z_k, z_{k-1}, ..., z_{k-n_mem})`` flattened, so the current state
occupies the leading ``d`` entries and the residual projection in the
network can read it off directly.  Windows are extracted oldest-first
from trajectories and reversed by the builder.

Both container types are stored as uncompressed ``.npz`` archives of
float64 and int64 arrays with a fixed set of members; see
:func:`save_trajectories` and :func:`save_dataset` for the members.
Loaders reject any other layout with a ``ValueError`` naming the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from memflow import _npz
from memflow.dynamics import integrate_batch

__all__ = [
    "TrajectorySet",
    "MemoryWindowDataset",
    "SelectionStrategy",
    "sample_initial_conditions",
    "generate_trajectories",
    "build_dataset",
    "save_dataset",
    "load_dataset",
    "save_trajectories",
    "load_trajectories",
]


@dataclass(frozen=True)
class TrajectorySet:
    """Observed-variable trajectories sharing dimension and sample step.

    ``samples`` of shape ``(sum K_i, d)`` holds the trajectories one after
    another and ``lengths`` the ``K_i``, the same layout as on disk; each
    ``K_i`` must be >= 1 and the lengths must cover ``samples`` exactly.
    A float64 C-contiguous ``samples`` is adopted without a copy.
    ``trajectories`` lists the ``(K_i, d)`` views into it.
    """

    d: int
    delta: float
    samples: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("observed dimension must be >= 1")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        samples = np.ascontiguousarray(self.samples, dtype=float)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "lengths", lengths)
        if samples.ndim != 2 or samples.shape[1] != self.d:
            raise ValueError(
                f"samples have shape {samples.shape}, expected (K, {self.d})"
            )
        low = int(lengths.min(initial=0))
        if low < 0 or lengths.sum() != samples.shape[0]:
            raise ValueError(
                f"lengths (sum {lengths.sum()}, min {low}) must be >= 0 and "
                f"sum to the {samples.shape[0]} rows of samples"
            )
        if not lengths.all():
            raise ValueError(f"trajectory {np.argmin(lengths)} is empty")
        bad_rows = np.nonzero(~np.isfinite(samples).all(axis=1))[0]
        if bad_rows.size:
            bad = np.searchsorted(np.cumsum(lengths), bad_rows[0], side="right")
            raise ValueError(f"trajectory {bad} contains non-finite entries")

    @property
    def n_traj(self):
        return self.lengths.shape[0]

    @property
    def trajectories(self):
        ends = np.cumsum(self.lengths).tolist()
        return [self.samples[end - k : end]
                for k, end in zip(self.lengths.tolist(), ends)]


@dataclass(frozen=True)
class MemoryWindowDataset:
    """Input/target pairs for the memory network.

    ``inputs`` has shape ``(J, d*(n_mem+1))`` with newest-first d-blocks;
    ``targets`` has shape ``(J, d)``.
    """

    d: int
    n_mem: int
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if self.d < 1 or self.n_mem < 0:
            raise ValueError("require d >= 1 and n_mem >= 0")
        width = self.d * (self.n_mem + 1)
        if inputs.ndim != 2 or inputs.shape[1] != width:
            raise ValueError(
                f"inputs have shape {inputs.shape}, expected (J, {width})"
            )
        if targets.ndim != 2 or targets.shape != (inputs.shape[0], self.d):
            raise ValueError(
                f"targets have shape {targets.shape}, expected "
                f"({inputs.shape[0]}, {self.d})"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("dataset contains non-finite entries")

    @property
    def size(self):
        return self.inputs.shape[0]

    @property
    def input_width(self):
        return self.d * (self.n_mem + 1)


@dataclass(frozen=True)
class SelectionStrategy:
    """How window start positions are chosen within each trajectory.

    ``deterministic`` takes every admissible start position sequentially;
    ``random`` draws ``per_trajectory`` distinct start positions uniformly
    without replacement, using ``seed``.
    """

    kind: str = "deterministic"
    per_trajectory: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("deterministic", "random"):
            raise ValueError(f"kind must be deterministic|random, got {self.kind!r}")
        if self.kind == "random":
            if self.per_trajectory is None or self.per_trajectory < 1:
                raise ValueError("random selection requires per_trajectory >= 1")


def sample_initial_conditions(domain, count, seed):
    """Uniform initial conditions on the domain box, deterministic in seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return rng.uniform(domain.lower, domain.upper, size=(count, domain.n))


def generate_trajectories(spec, config, domain, n_traj, traj_len, seed):
    """Integrate ``n_traj`` random initial conditions and keep the observed part.

    Each trajectory holds the first ``d`` state components at times
    0, delta, ..., (traj_len - 1) * delta; the unobserved components are
    discarded.  Integration failures abort loudly with the offending
    trajectory index.
    """
    if traj_len < 1:
        raise ValueError(f"traj_len must be >= 1, got {traj_len}")
    if domain.n != spec.n:
        raise ValueError(
            f"domain dimension {domain.n} does not match system n={spec.n}"
        )
    x0s = sample_initial_conditions(domain, n_traj, seed)
    if traj_len == 1:
        observed = spec.observe(x0s)[:, None, :]
    else:
        full = integrate_batch(spec, config, x0s, traj_len - 1)
        observed = spec.observe(full)
    return TrajectorySet(d=spec.d, delta=config.delta,
                         samples=observed.reshape(-1, spec.d),
                         lengths=np.full(n_traj, traj_len))


def build_dataset(trajs, n_mem, strategy):
    """Assemble a memory-window dataset from a trajectory set.

    Deterministic selection uses every start position, giving
    ``K_i - n_mem - 1`` windows per trajectory (trajectories shorter than
    ``n_mem + 2`` are skipped).  Random selection draws
    ``strategy.per_trajectory`` distinct start positions per trajectory
    and fails loudly when a trajectory cannot supply that many.  Windows
    come trajectory by trajectory, in increasing start position.
    """
    if n_mem < 0:
        raise ValueError(f"n_mem must be >= 0, got {n_mem}")
    d = trajs.d
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "random" else None
    starts = [np.empty(0, dtype=np.int64)]  # rows of trajs.samples
    offset = 0
    for i, length in enumerate(trajs.lengths.tolist()):
        available = length - n_mem - 1  # number of admissible starts
        if strategy.kind == "deterministic":
            picked = np.arange(max(available, 0))
        else:
            j0 = strategy.per_trajectory
            if j0 > available:
                raise ValueError(
                    f"trajectory {i}: requested {j0} windows but only "
                    f"{max(available, 0)} start positions exist "
                    f"(length {length}, n_mem {n_mem})"
                )
            picked = np.sort(rng.choice(available, size=j0, replace=False))
        starts.append(offset + picked)
        offset += length
    starts = np.concatenate(starts)
    width = d * (n_mem + 1)
    if starts.size == 0:
        return MemoryWindowDataset(
            d=d, n_mem=n_mem, inputs=np.empty((0, width)), targets=np.empty((0, d))
        )
    # history[k, t] = samples[k + n_mem - t]: n_mem + 1 rows from row k, newest first
    history = sliding_window_view(trajs.samples, n_mem + 1, axis=0)
    history = history[:, :, ::-1].transpose(0, 2, 1)
    return MemoryWindowDataset(
        d=d, n_mem=n_mem, inputs=history[starts].reshape(starts.size, width),
        targets=trajs.samples[starts + n_mem + 1],
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_DATASET_SCHEMA = {
    "d": (np.int64, 0), "n_mem": (np.int64, 0),
    "inputs": (np.float64, 2), "targets": (np.float64, 2),
}
_TRAJECTORY_SCHEMA = {
    "d": (np.int64, 0), "delta": (np.float64, 0),
    "lengths": (np.int64, 1), "samples": (np.float64, 2),
}


def save_dataset(ds, path):
    """Write a dataset as an npz archive: ``d`` and ``n_mem`` (int64
    scalars), ``inputs`` (float64, ``(J, d*(n_mem+1))``, newest-first
    rows) and ``targets`` (float64, ``(J, d)``)."""
    _npz.save(path, _DATASET_SCHEMA, d=ds.d, n_mem=ds.n_mem,
              inputs=ds.inputs, targets=ds.targets)


def load_dataset(path):
    """Inverse of :func:`save_dataset`; malformed files are rejected."""
    members = _npz.load(path, _DATASET_SCHEMA)
    with _npz.naming(path):
        return MemoryWindowDataset(
            d=int(members["d"]), n_mem=int(members["n_mem"]),
            inputs=members["inputs"], targets=members["targets"],
        )


def save_trajectories(trajs, path):
    """Write a trajectory set as an npz archive: ``d`` (int64 scalar),
    ``delta`` (float64 scalar), ``lengths`` (int64, one ``K_i`` per
    trajectory) and ``samples`` (float64, ``(sum K_i, d)``, the
    trajectories one after another)."""
    _npz.save(path, _TRAJECTORY_SCHEMA, d=trajs.d, delta=trajs.delta,
              lengths=trajs.lengths, samples=trajs.samples)


def load_trajectories(path):
    """Inverse of :func:`save_trajectories`; malformed files are rejected."""
    members = _npz.load(path, _TRAJECTORY_SCHEMA)
    with _npz.naming(path):
        return TrajectorySet(d=int(members["d"]), delta=float(members["delta"]),
                             samples=members["samples"], lengths=members["lengths"])
