"""Mean-squared loss and minibatch Adam training.

Training minimizes the mean over the dataset of the squared Euclidean
distance between model outputs and targets.  The optimizer is plain Adam
with bias correction and fixed constants (``ADAM_BETA1``, ``ADAM_BETA2``,
``ADAM_EPS``); shuffling and every random choice derive from the config
seed, so runs are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from memflow.net import (
    NetworkParams,
    backward_batch,
    count_params,
    forward_batch,
    load_params,
    save_params,
)

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "mse_loss",
    "train_model",
    "save_model",
    "load_model",
    "data_sizing_ratio",
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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class TrainReport:
    loss_per_epoch: np.ndarray
    final_loss: float
    wall_time: float


# Rows per forward_batch call in mse_loss, which bounds the activations it
# holds at once independently of the dataset size.
LOSS_CHUNK_ROWS = 1024


def mse_loss(params, ds):
    """(1/J) * sum_j ||model(Z_j) - z_j||^2 over the dataset."""
    _check_shapes(params, ds)
    sq_norms = np.empty(ds.size)
    for lo in range(0, ds.size, LOSS_CHUNK_ROWS):
        hi = lo + LOSS_CHUNK_ROWS
        resid = forward_batch(params, ds.inputs[lo:hi]) - ds.targets[lo:hi]
        sq_norms[lo:hi] = np.sum(resid**2, axis=1)
    return float(np.mean(sq_norms))


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
    A non-finite minibatch loss aborts with the global step index, the
    usual sign of a divergent learning rate.
    """
    _check_shapes(init, ds)
    j_total = ds.size
    if j_total < 1:
        raise ValueError("dataset is empty")
    if cfg.batch_size > j_total:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds dataset size {j_total}"
        )
    rng = np.random.default_rng(cfg.seed)
    work = NetworkParams(init.d, init.n_mem, init.hidden, init.weights, init.biases)
    theta = work.flat  # updated in place, so work's weight views follow it
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, cfg.learning_rate

    t0 = time.perf_counter()
    losses = np.empty(cfg.epochs)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(j_total)
        for lo in range(0, j_total, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = ds.inputs[idx]
            yb = ds.targets[idx]
            pred = forward_batch(work, xb)
            resid = pred - yb
            with np.errstate(over="ignore"):  # detected and raised below
                batch_loss = np.mean(np.sum(resid**2, axis=1))
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at step {step} (epoch {epoch}); "
                    "reduce the learning rate",
                    step=step,
                )
            grad, _ = backward_batch(work, xb, (2.0 / xb.shape[0]) * resid)
            step += 1
            corr1 = 1.0 - b1**step
            corr2 = 1.0 - b2**step
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        losses[epoch] = mse_loss(work, ds)
    # a fresh, validated copy: non-finite parameters are rejected here
    trained = NetworkParams(work.d, work.n_mem, work.hidden, work.weights, work.biases)
    report = TrainReport(
        loss_per_epoch=losses,
        final_loss=float(losses[-1]),
        wall_time=time.perf_counter() - t0,
    )
    return trained, report


def save_model(params, path):
    """Write a trained model checkpoint (an ``.npz`` archive, see
    :func:`memflow.net.save_params`)."""
    save_params(params, path)


def load_model(path):
    """Load a checkpoint written by :func:`save_model`."""
    return load_params(path)


def data_sizing_ratio(params, ds):
    """Dataset rows per model parameter; below ~5 training may be data-starved."""
    return ds.size / count_params(params)
