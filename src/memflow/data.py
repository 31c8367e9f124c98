"""Trajectory sets and memory-window training datasets.

A trajectory set holds observed-variable trajectories of one length K at
a constant step, as one ``(n_traj, K, d)`` array; a memory-window
dataset regroups them into (history stack, next state) pairs.  Each
window covers ``n_mem + 2`` consecutive samples: the first ``n_mem + 1``
form the network input, the last is the regression target.

The canonical in-memory layout of an input row is NEWEST FIRST:
``(z_k, z_{k-1}, ..., z_{k-n_mem})`` flattened, so the current state
occupies the leading ``d`` entries and the residual projection in the
network can read it off directly.  Windows are extracted oldest-first
from trajectories and reversed by the builder, which takes every
admissible start or draws a fixed number per trajectory
(:func:`build_dataset`'s ``per_trajectory``).

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
    """Observed-variable trajectories of one length and sample step.

    ``trajectories`` of shape ``(n_traj, K, d)``, with K >= 1 and d >= 1,
    holds trajectory i's samples at times 0, delta, ..., (K - 1) * delta
    in ``trajectories[i]``, the same layout as on disk.  A float64
    C-contiguous array is adopted without a copy.
    """

    delta: float
    trajectories: np.ndarray

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        trajectories = np.ascontiguousarray(self.trajectories, dtype=float)
        object.__setattr__(self, "trajectories", trajectories)
        if trajectories.ndim != 3 or 0 in trajectories.shape[1:]:
            raise ValueError(
                f"trajectories have shape {trajectories.shape}, expected "
                "(n_traj, K, d) with K >= 1 and d >= 1"
            )
        bad = np.flatnonzero(~np.isfinite(trajectories).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"trajectory {bad[0]} contains non-finite entries")

    @property
    def n_traj(self):
        return self.trajectories.shape[0]

    @property
    def d(self):
        return self.trajectories.shape[2]


@dataclass(frozen=True)
class MemoryWindowDataset:
    """Input/target pairs for the memory network.

    ``inputs`` has shape ``(J, d*(n_mem+1))`` with newest-first d-blocks
    and J >= 1; ``targets`` has shape ``(J, d)``.
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
        if inputs.ndim != 2 or inputs.shape[1] != width or inputs.shape[0] < 1:
            raise ValueError(
                f"inputs have shape {inputs.shape}, expected (J, {width}) with J >= 1"
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


def sample_initial_conditions(domain, count, seed):
    """Uniform initial conditions on the domain box, deterministic in seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return rng.uniform(domain.lower, domain.upper, size=(count, domain.n))


def generate_trajectories(spec, config, domain, n_traj, traj_len, seed):
    """Integrate ``n_traj`` random initial conditions and keep the observed part.

    Returns a set of shape ``(n_traj, traj_len, spec.d)``: each trajectory
    holds the first ``d`` state components at times 0, delta, ...,
    (traj_len - 1) * delta; the unobserved components are discarded.
    Integration failures abort loudly with the offending trajectory index.
    """
    if traj_len < 1:
        raise ValueError(f"traj_len must be >= 1, got {traj_len}")
    if domain.n != spec.n:
        raise ValueError(
            f"domain dimension {domain.n} does not match system n={spec.n}"
        )
    x0s = sample_initial_conditions(domain, n_traj, seed)
    full = integrate_batch(spec, config, x0s, traj_len - 1)
    return TrajectorySet(delta=config.delta, trajectories=spec.observe(full))


def _draw_starts(n_traj, avail, count, rng):
    """``count`` distinct starts in ``[0, avail)`` for each of ``n_traj``
    trajectories, as an ``(n_traj, count)`` array with sorted rows: Floyd's
    algorithm on all rows at once, as :func:`build_dataset` describes."""
    picked = np.empty((n_traj, count), dtype=np.int64)
    for k in range(count):
        top = avail - count + k
        draw = rng.integers(0, top, size=n_traj, endpoint=True)
        repeat = (picked[:, :k] == draw[:, None]).any(axis=1)
        picked[:, k] = np.where(repeat, top, draw)
    picked.sort(axis=1)
    return picked


def build_dataset(trajs, n_mem, per_trajectory=None, seed=0):
    """Assemble a memory-window dataset from a trajectory set.

    Trajectories of K samples have ``avail = K - n_mem - 1`` admissible
    window starts each.  With ``per_trajectory`` None every one of them is
    taken.  An integer ``per_trajectory`` = j0 >= 1 draws j0 distinct
    starts per trajectory, each subset equally likely, from a generator
    ``np.random.default_rng(seed)``.  The draw is Floyd's algorithm on all
    trajectories at once: for k = 0, ..., j0 - 1, one ``rng.integers``
    call draws an integer per trajectory from ``[0, avail - j0 + k]``, and
    a draw that repeats one of its trajectory's earlier picks is replaced
    by ``avail - j0 + k``; with exactly j0 starts every one is taken.
    Fewer starts than requested (j0, or one when taking every start) is a
    ValueError.  Windows come trajectory by trajectory, in increasing
    start position; the inputs are the only full-size copy made.
    """
    if n_mem < 0:
        raise ValueError(f"n_mem must be >= 0, got {n_mem}")
    if per_trajectory is not None and per_trajectory < 1:
        raise ValueError(f"per_trajectory must be >= 1 or None, got {per_trajectory}")
    n_traj, length, d = trajs.trajectories.shape
    avail = length - n_mem - 1  # admissible starts per trajectory
    if avail < (per_trajectory or 1):
        raise ValueError(
            f"requested {per_trajectory or 1} windows per trajectory but only "
            f"{max(avail, 0)} start positions exist (length {length}, n_mem {n_mem})"
        )
    if per_trajectory is None:
        starts = np.broadcast_to(np.arange(avail), (n_traj, avail))
    else:
        starts = _draw_starts(n_traj, avail, per_trajectory,
                              np.random.default_rng(seed))
    rows = np.arange(n_traj)[:, None]
    # history[i, k, t] = trajectories[i, k + n_mem - t]: n_mem + 1 samples
    # from sample k of trajectory i, newest first
    history = sliding_window_view(trajs.trajectories, n_mem + 1, axis=1)
    history = history[..., ::-1].swapaxes(2, 3)
    return MemoryWindowDataset(
        d=d, n_mem=n_mem,
        inputs=history[rows, starts].reshape(starts.size, d * (n_mem + 1)),
        targets=trajs.trajectories[rows, starts + n_mem + 1].reshape(starts.size, d),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_DATASET_SCHEMA = {
    "d": (np.int64, 0), "n_mem": (np.int64, 0),
    "inputs": (np.float64, 2), "targets": (np.float64, 2),
}
_TRAJECTORY_SCHEMA = {"delta": (np.float64, 0), "trajectories": (np.float64, 3)}


def save_dataset(ds, path):
    """Write a dataset as an npz archive: ``d`` and ``n_mem`` (int64
    scalars), ``inputs`` (float64, ``(J, d*(n_mem+1))``, newest-first
    rows) and ``targets`` (float64, ``(J, d)``)."""
    _npz.save(path, ds, _DATASET_SCHEMA)


def load_dataset(path):
    """Inverse of :func:`save_dataset`; malformed files are rejected."""
    return _npz.load(path, MemoryWindowDataset, _DATASET_SCHEMA)


def save_trajectories(trajs, path):
    """Write a trajectory set as an npz archive: ``delta`` (float64 scalar)
    and ``trajectories`` (float64, ``(n_traj, K, d)``)."""
    _npz.save(path, trajs, _TRAJECTORY_SCHEMA)


def load_trajectories(path):
    """Inverse of :func:`save_trajectories`; malformed files are rejected."""
    return _npz.load(path, TrajectorySet, _TRAJECTORY_SCHEMA)
