"""Mean-squared loss and minibatch Adam training.

Training minimizes the mean over the dataset of the squared Euclidean
distance between model outputs and targets.  The optimizer is plain Adam
with bias correction and fixed constants (``ADAM_BETA1``, ``ADAM_BETA2``,
``ADAM_EPS``); shuffling and every random choice derive from the config
seed, so runs are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from memflow.dynamics import _count, _number
from memflow.net import backward_batch, forward_batch, load_params, save_params

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "mse_loss",
    "train_model",
    "save_model",
    "load_model",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite; carries the Adam step index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


# Adam's moment decay rates and denominator offset: the usual values, and
# the only ones any preset, benchmark workload or demo ever used.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per slice of Adam's update (64 KiB of float32): the update runs
# over the parameter vector one slice at a time with one slice-sized
# scratch, not a parameter-sized temporary, so a network of at most this
# many parameters is updated in one slice.
ADAM_SLICE = 16_384


@dataclass(frozen=True)
class TrainConfig:
    """Adam's step size, a number >= 0 stored as a Python float
    (:func:`_number`); the minibatch size and epoch count, counts >= 1,
    and the seed of the minibatch shuffle, a count >= 0, stored as Python
    ints (:func:`_count`)."""

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "learning_rate",
                           _number("learning_rate", self.learning_rate, 0, False))
        for key, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            object.__setattr__(self, key, _count(key, getattr(self, key), least))


@dataclass(frozen=True, eq=False)
class TrainReport:
    """What :func:`train_model` reports: ``loss_per_epoch``, a float64
    array of :func:`mse_loss` over the whole dataset after each epoch;
    ``final_loss``, its last entry as a Python float; and ``wall_time``,
    the seconds the epochs took.  Two reports compare equal only if they
    are the same object."""

    loss_per_epoch: np.ndarray
    final_loss: float
    wall_time: float


# Rows per forward_batch call in mse_loss, which bounds the windows it
# gathers and the activations it holds at once independently of the
# dataset size: at linear20's shapes (d 10, n_mem 30, hidden 160) one chunk
# gathers 256 * 8 * d * (n_mem + 2) = 655,360 bytes of windows, and its two
# live 160-wide activations hold as many again.
LOSS_CHUNK_ROWS = 256


def mse_loss(params, ds):
    """(1/J) * sum_j ||model(Z_j) - z_j||^2 over the dataset."""
    _check_shapes(params, ds)
    sq_norms = np.empty(ds.size)
    for lo in range(0, ds.size, LOSS_CHUNK_ROWS):
        hi = lo + LOSS_CHUNK_ROWS
        inputs, targets = ds.windows(slice(lo, hi))
        resid = forward_batch(params, inputs) - targets
        np.add.reduce(np.square(resid), axis=1, out=sq_norms[lo:hi])
    return float(np.add.reduce(sq_norms) / ds.size)


def _check_shapes(params, ds):
    if ds.d != params.d or ds.n_mem != params.n_mem:
        raise ValueError(
            f"dataset (d={ds.d}, n_mem={ds.n_mem}) does not match model "
            f"(d={params.d}, n_mem={params.n_mem})"
        )


def train_model(init, ds, cfg):
    """Run minibatch Adam on the mean-squared loss.

    Each epoch visits the whole dataset, in a fresh random order drawn
    from ``cfg.seed``, in ceil(J / batch_size) minibatches (the last one
    may be short).  Returns the trained parameters and a report with the
    full-dataset loss after each epoch.
    A non-finite minibatch or epoch loss aborts with the global step
    index, the usual sign of a divergent learning rate.

    Besides the dataset, it holds the parameters, Adam's two moments, one
    step's gradient (freed before the next step's is computed) and one
    scratch of at most ``ADAM_SLICE`` elements, the update's only
    temporary (:func:`_adam_update`), all in the dtype of ``init.flat``;
    the moments and the scratch are freed before the trained copy is made.
    The losses are float64.
    """
    _check_shapes(init, ds)
    j_total = ds.size
    if cfg.batch_size > j_total:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds dataset size {j_total}"
        )
    rng = np.random.default_rng(cfg.seed)
    work = replace(init)  # a copy: init.flat is left as it is
    theta = work.flat  # updated in place, so work's weight views follow it
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    scratch = np.empty(min(ADAM_SLICE, theta.size), theta.dtype)  # the one temporary

    t0 = time.perf_counter()
    losses = np.empty(cfg.epochs)
    step = 0
    # no overflow or invalid-value warnings: a non-finite loss raises
    # TrainingDiverged below, non-finite parameters fail the final check
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(j_total)
            for lo in range(0, j_total, cfg.batch_size):
                grad = _gradient(work, ds, order[lo : lo + cfg.batch_size],
                                 step, epoch)
                step += 1
                _adam_update(theta, m, v, grad, scratch, step, cfg.learning_rate)
                del grad  # freed before the next step's gradient is computed
            losses[epoch] = mse_loss(work, ds)
            if not np.isfinite(losses[epoch]):
                raise TrainingDiverged(
                    f"non-finite loss after epoch {epoch} (step {step}); "
                    "reduce the learning rate",
                    step=step,
                )
    del m, v, scratch  # freed before the trained copy is made
    # a fresh, validated copy: non-finite parameters are rejected here
    trained = replace(work)
    report = TrainReport(
        loss_per_epoch=losses,
        final_loss=float(losses[-1]),
        wall_time=time.perf_counter() - t0,
    )
    return trained, report


def _adam_update(theta, m, v, grad, scratch, step, lr):
    """Adam's step number ``step`` (from 1) on ``theta`` and its moments
    ``m`` and ``v``, in place, from ``grad``, which it overwrites.  It runs
    slice by slice, ``ADAM_SLICE`` elements at a time, with ``scratch``
    (at least one slice long) as its only temporary; every element goes
    through the same operations in the same order as on whole vectors."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1, corr2 = 1.0 - b1**step, 1.0 - b2**step
    for lo in range(0, theta.size, ADAM_SLICE):
        part = slice(lo, lo + ADAM_SLICE)
        g, mm, vv, th = grad[part], m[part], v[part], theta[part]
        buf = scratch[: g.size]
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g**2, then
        # theta -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
        mm *= b1
        np.multiply(g, 1 - b1, out=buf)
        mm += buf
        vv *= b2
        np.square(g, out=g)
        g *= 1 - b2
        vv += g
        np.divide(mm, corr1, out=g)
        g *= lr
        np.divide(vv, corr2, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        g /= buf
        th -= g


def _gradient(params, ds, rows, step, epoch):
    """The gradient of the mean squared loss over the window rows ``rows``,
    as a fresh vector laid out like ``params.flat``; a non-finite loss
    raises TrainingDiverged at ``step``."""
    xb, yb = ds.windows(rows)
    acts = []  # this step's layer outputs, which backward_batch reuses
    resid = forward_batch(params, xb, acts) - yb
    # the sum, finite exactly when the mean is
    if not np.isfinite(np.add.reduce(np.add.reduce(np.square(resid), axis=1))):
        raise TrainingDiverged(
            f"non-finite loss at step {step} (epoch {epoch}); "
            "reduce the learning rate",
            step=step,
        )
    return backward_batch(params, (2.0 / xb.shape[0]) * resid, acts)[0]


def save_model(params, path):
    """Write a trained model checkpoint (an ``.npz`` archive, see
    :func:`memflow.net.save_params`)."""
    save_params(params, path)


def load_model(path):
    """Load a checkpoint written by :func:`save_model`."""
    return load_params(path)
