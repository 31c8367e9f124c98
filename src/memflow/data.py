"""Trajectory sets and memory-window training datasets.

A trajectory set holds observed-variable trajectories of one length K at
a constant step, as one ``(n_traj, K, d)`` array.  A memory-window
dataset is an index over such an array: each window covers ``n_mem + 2``
consecutive samples of one trajectory, the first ``n_mem + 1`` form the
network input and the last is the regression target.  The dataset holds
the trajectories once and the start of each window, never the windows
themselves; :meth:`MemoryWindowDataset.windows` gathers the rows a
minibatch or a loss chunk needs.

The canonical layout of an input row is NEWEST FIRST:
``(z_k, z_{k-1}, ..., z_{k-n_mem})`` flattened, so the current state
occupies the leading ``d`` entries and the residual projection in the
network can read it off directly.  The builder takes every admissible
start or draws a fixed number per trajectory (:func:`build_dataset`'s
``per_trajectory``).

Both are stored as uncompressed ``.npz`` archives of float64 and int64
arrays with a fixed set of members; see :func:`save_trajectories` and
:func:`save_dataset` for the members.  The dataset file is an index too:
it holds the window starts and a CRC-32 of the trajectories it was built
on, and :func:`load_dataset` reads the trajectories from the
:data:`TRAJECTORY_FILE` beside it.  Loaders reject any other layout with a
``ValueError`` naming the file.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from memflow import _npz
from memflow.dynamics import (
    IntegrationError,
    _count,
    _integration_error,
    _number,
    integrate_batch,
)

__all__ = [
    "TRAJECTORY_FILE",
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


def _checked_trajectories(trajectories):
    """``trajectories`` as a float64 C-contiguous ``(n_traj, K, d)`` array,
    adopted without a copy where it already is one; an empty or
    non-finite set is a ValueError."""
    trajectories = np.ascontiguousarray(trajectories, dtype=float)
    if trajectories.ndim != 3 or 0 in trajectories.shape[1:]:
        raise ValueError(
            f"trajectories have shape {trajectories.shape}, expected "
            "(n_traj, K, d) with K >= 1 and d >= 1"
        )
    if trajectories.shape[0] == 0:
        raise ValueError(
            f"trajectories have shape {trajectories.shape}, expected "
            "at least one trajectory"
        )
    bad = np.flatnonzero(~np.isfinite(trajectories).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"trajectory {bad[0]} contains non-finite entries")
    return trajectories


@dataclass(frozen=True)
class TrajectorySet:
    """Observed-variable trajectories of one length and sample step.

    ``trajectories`` of shape ``(n_traj, K, d)``, with n_traj, K and d
    >= 1, holds trajectory i's samples at times 0, delta, ...,
    (K - 1) * delta in ``trajectories[i]``, the same layout as on disk.  A
    float64 C-contiguous array is adopted without a copy.  ``delta`` is a
    number > 0, stored as a Python float.
    """

    delta: float
    trajectories: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _number("delta", self.delta, 0, True))
        object.__setattr__(self, "trajectories",
                           _checked_trajectories(self.trajectories))

    @property
    def n_traj(self):
        return self.trajectories.shape[0]

    @property
    def d(self):
        return self.trajectories.shape[2]


@dataclass(frozen=True)
class MemoryWindowDataset:
    """Memory windows as an index over trajectories.

    ``trajectories`` is an ``(n_traj, K, d)`` array as in
    :class:`TrajectorySet`, adopted without a copy.  ``starts`` is an
    ``(n_traj, count)`` integer array with count >= 1: window row
    ``j = i * count + c`` covers samples ``starts[i, c]`` to
    ``starts[i, c] + n_mem + 1`` of trajectory i, so every start lies in
    ``[0, K - n_mem - 2]``.  The J = ``starts.size`` rows are gathered by
    :meth:`windows`.
    """

    n_mem: int
    trajectories: np.ndarray
    starts: np.ndarray
    # per row, the flat sample index of the window's oldest sample
    _oldest: np.ndarray = field(init=False, repr=False, compare=False)
    # _blocks[w, t] = flat sample w + n_mem + 1 - t: a window newest first
    _blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_mem = _count("n_mem", self.n_mem, 0)
        object.__setattr__(self, "n_mem", n_mem)
        trajectories = _checked_trajectories(self.trajectories)
        n_traj, length, d = trajectories.shape
        starts = np.asarray(self.starts)
        if not np.issubdtype(starts.dtype, np.integer):
            raise ValueError(f"starts must be an integer array, got {starts.dtype}")
        if starts.ndim != 2 or starts.shape[0] != n_traj or starts.shape[1] < 1:
            raise ValueError(
                f"starts have shape {starts.shape}, expected ({n_traj}, count) "
                "with count >= 1"
            )
        last = length - n_mem - 2
        if starts.min() < 0 or starts.max() > last:
            raise ValueError(
                f"starts lie in [{starts.min()}, {starts.max()}], expected "
                f"[0, {last}] for K={length} and n_mem={n_mem}"
            )
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        flat = trajectories.reshape(n_traj * length, d)
        blocks = sliding_window_view(flat, n_mem + 2, axis=0)[..., ::-1]
        object.__setattr__(self, "trajectories", trajectories)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "_oldest",
                           (np.arange(n_traj)[:, None] * length + starts).ravel())
        object.__setattr__(self, "_blocks", blocks.swapaxes(1, 2))

    @property
    def d(self):
        return self.trajectories.shape[2]

    @property
    def size(self):
        return self.starts.size

    def windows(self, rows):
        """``(inputs, targets)`` of the window rows ``rows``, an index
        array or a slice: shapes ``(B, d*(n_mem+1))``, newest-first
        d-blocks, and ``(B, d)``, gathered in one copy of B windows that
        both are views of."""
        block = self._blocks[self._oldest[rows]]
        width = self.d * (self.n_mem + 1)
        return block[:, 1:].reshape(block.shape[0], width), block[:, 0]

    @property
    def inputs(self):
        """All J input rows, gathered into a fresh array on every access:
        for inspection and small scripts.  Training must not use it; it
        gathers its rows by :meth:`windows`."""
        return self.windows(slice(None))[0]

    @property
    def targets(self):
        """All J targets, gathered into a fresh array on every access: for
        inspection and small scripts.  Training must not use it; it
        gathers its rows by :meth:`windows`."""
        return self.windows(slice(None))[1]


def sample_initial_conditions(domain, count, seed):
    """``count`` (>= 1) uniform initial conditions on the domain box,
    deterministic in ``seed``, a count >= 0."""
    count = _count("count", count, 1)
    rng = np.random.default_rng(_count("seed", seed, 0))
    return rng.uniform(domain.lower, domain.upper, size=(count, domain.n))


# The most bytes of full states that one time block of generate_trajectories
# holds beside its output (unless two samples take more).
BLOCK_BYTES = 2**20


def generate_trajectories(spec, config, domain, n_traj, traj_len, seed):
    """Integrate ``n_traj`` random initial conditions and keep the observed part.

    Returns a set of shape ``(n_traj, traj_len, spec.d)``: each trajectory
    holds the first ``d`` state components at times 0, delta, ...,
    (traj_len - 1) * delta; the unobserved components are discarded.

    The integration runs through :func:`integrate_batch` in time blocks,
    each starting from a copy of the last full state of the block before.
    A block's full states take at most ``BLOCK_BYTES`` (1 MiB): it covers
    ``BLOCK_BYTES // (8 * n_traj * n) - 1`` samples past its first, but at
    least one.  So 400 trajectories at n = 20 run in blocks of 15 samples,
    and 30,000 in blocks of one.  Each block's new observed columns go
    straight into the output, and a block is released before the next is
    integrated: besides the output's ``8 * n_traj * traj_len * d`` bytes,
    generation holds one block of full states, at most 1 MiB, or two
    samples' worth where two samples take more, and for its finiteness
    check a boolean copy an eighth that size.  The samples are those of
    one call over the whole run, bit for bit, except where ``math`` raises
    on the float-row path: then only the block in which it raised runs
    again on numpy columns.  A non-finite state aborts, at the end of its
    block, with the IntegrationError one call would raise, naming the
    earliest sample and, at it, the lowest trajectory.
    """
    n_traj, traj_len = _count("n_traj", n_traj, 1), _count("traj_len", traj_len, 1)
    if domain.n != spec.n:
        raise ValueError(
            f"domain dimension {domain.n} does not match system n={spec.n}"
        )
    state = sample_initial_conditions(domain, n_traj, seed)
    out = np.empty((n_traj, traj_len, spec.d))
    out[:, 0] = spec.observe(state)
    block = max(BLOCK_BYTES // (8 * n_traj * spec.n) - 1, 1)
    for start in range(0, max(traj_len - 1, 1), block):
        count = min(block, traj_len - 1 - start)
        try:
            full = integrate_batch(spec, config, state, count)
        except IntegrationError as exc:
            raise _integration_error(spec, config, start + exc.sample_index,
                                     exc.trajectory_index) from None
        # a block's first sample is the last one written
        out[:, start + 1 : start + count + 1] = spec.observe(full[:, 1:])
        state = full[:, -1].copy()
        del full  # released before the next block is allocated
    return TrajectorySet(delta=config.delta, trajectories=out)


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
    """Index the memory windows of a trajectory set.

    Trajectories of K samples have ``avail = K - n_mem - 1`` admissible
    window starts each.  With ``per_trajectory`` None every one of them is
    taken.  An integer ``per_trajectory`` = j0 >= 1 draws j0 distinct
    starts per trajectory, each subset equally likely, from a generator
    ``np.random.default_rng(seed)``, ``seed`` a count >= 0 (checked with
    or without a draw).  The draw is Floyd's algorithm on all
    trajectories at once: for k = 0, ..., j0 - 1, one ``rng.integers``
    call draws an integer per trajectory from ``[0, avail - j0 + k]``, and
    a draw that repeats one of its trajectory's earlier picks is replaced
    by ``avail - j0 + k``; with exactly j0 starts every one is taken.
    Fewer starts than requested (j0, or one when taking every start) is a
    ValueError.  Windows come trajectory by trajectory, in increasing
    start position.  The dataset shares the trajectory array; the starts
    are the only array it adds.
    """
    n_mem, seed = _count("n_mem", n_mem, 0), _count("seed", seed, 0)
    if per_trajectory is not None:
        per_trajectory = _count("per_trajectory", per_trajectory, 1)
    n_traj, length, _ = trajs.trajectories.shape
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
    return MemoryWindowDataset(n_mem=n_mem, trajectories=trajs.trajectories,
                               starts=starts)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

TRAJECTORY_FILE = "trajectories.npz"

_DATASET_SCHEMA = {
    "n_mem": (np.int64, 0), "starts": (np.int64, 2),
    "trajectories_crc32": (np.int64, 0),
}
_TRAJECTORY_SCHEMA = {"delta": (np.float64, 0), "trajectories": (np.float64, 3)}


def _crc32(trajectories):
    return zlib.crc32(np.ascontiguousarray(trajectories, dtype=np.float64))


def save_dataset(ds, path):
    """Write a dataset as an npz archive: ``n_mem`` (int64 scalar),
    ``starts`` (int64, ``(n_traj, count)``, each window's first sample) and
    ``trajectories_crc32`` (int64 scalar, ``zlib.crc32`` of the float64
    trajectory array).  The trajectories themselves are not written: they
    are read back from the :data:`TRAJECTORY_FILE` beside ``path``."""
    _npz.save(path, SimpleNamespace(
        n_mem=ds.n_mem, starts=ds.starts,
        trajectories_crc32=_crc32(ds.trajectories)), _DATASET_SCHEMA)


def load_dataset(path):
    """Inverse of :func:`save_dataset`, over the trajectories of the
    :data:`TRAJECTORY_FILE` beside ``path``.  A malformed file is rejected;
    so is a trajectory file that is missing, malformed or not the one the
    dataset was built on (another CRC-32), naming both files."""
    index = _npz.load(path, dict, _DATASET_SCHEMA)
    source = Path(path).with_name(TRAJECTORY_FILE)
    try:
        trajectories = _npz.load(source, dict, _TRAJECTORY_SCHEMA)["trajectories"]
    except (OSError, ValueError) as exc:
        raise ValueError(
            f"{path}: cannot read the trajectories it indexes: {exc}") from None
    got, want = _crc32(trajectories), index["trajectories_crc32"]
    if got != want:
        raise ValueError(
            f"{path}: built on trajectories of CRC-32 {want:08x}, but {source} "
            f"has CRC-32 {got:08x}; build the dataset again")
    try:
        return MemoryWindowDataset(n_mem=index["n_mem"], trajectories=trajectories,
                                   starts=index["starts"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_trajectories(trajs, path):
    """Write a trajectory set as an npz archive: ``delta`` (float64 scalar)
    and ``trajectories`` (float64, ``(n_traj, K, d)``)."""
    _npz.save(path, trajs, _TRAJECTORY_SCHEMA)


def load_trajectories(path):
    """Inverse of :func:`save_trajectories`; malformed files are rejected."""
    return _npz.load(path, TrajectorySet, _TRAJECTORY_SCHEMA)
