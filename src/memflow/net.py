"""Residual memory network over stacked observed states.

The model maps a newest-first stack of ``n_mem + 1`` observed states,
``Z = (z_n, z_{n-1}, ..., z_{n-n_mem})`` flattened to length
``D = d * (n_mem + 1)``, to a prediction of the next state:

    output = P Z + N(Z)

where ``P`` extracts the leading ``d`` entries (the current state) and
``N`` is a fully connected network with tanh hidden layers and an affine
output layer.  The network therefore learns only the increment between
consecutive states; zeroing its final layer makes the model an exact
"persistence" predictor.

A network is built from its parameters as one contiguous float64
vector ``flat``: layer by layer, the weight matrix in row-major order
followed by the bias.  ``weights[l]`` and ``biases[l]`` are views derived
from it, and :meth:`NetworkParams.split` lays any vector of the same
length (a gradient, an optimizer moment) out the same way.

Forward and reverse passes are written directly in numpy with exact
analytic gradients; there is no autodiff framework behind this module.
Both operate on row-stacked inputs.  :func:`forward_batch` holds the one
layer loop and also takes a single ``(D,)`` row; it can cache each layer's
input in a list ``acts``, from which :func:`backward_batch` runs the
reverse pass alone, so a training step runs the forward pass once.

A checkpoint is an uncompressed ``.npz`` archive holding ``d``, ``n_mem``
and ``hidden`` (int64) and ``flat`` (float64); see :func:`save_params`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from memflow import _npz

__all__ = [
    "NetworkParams",
    "init_params",
    "forward_batch",
    "backward_batch",
    "save_params",
    "load_params",
]


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """The residual memory network, as its parameter vector ``flat``.

    ``flat`` holds every parameter along the layer chain
    ``D -> hidden[0] -> ... -> hidden[-1] -> d``: for each layer, the
    weight matrix ``(width_out, width_in)`` in row-major order, then the
    bias ``(width_out,)``.  The given vector is copied, and
    ``weights[l]`` and ``biases[l]`` are views into the copy, laid out by
    :meth:`split` from the layer slices worked out once at construction.
    Two networks compare equal only if they are the same object.
    """

    d: int
    n_mem: int
    hidden: tuple
    flat: np.ndarray = field(repr=False)
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)
    _layout: tuple = field(init=False, repr=False)  # widths, size, layer slices

    def __post_init__(self):
        widths = _widths(self.d, self.n_mem, self.hidden)
        layers, pos = [], 0
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            end = pos + w_out * w_in
            layers.append((slice(pos, end), (w_out, w_in), slice(end, end + w_out)))
            pos = end + w_out
        object.__setattr__(self, "_layout", (widths, pos, layers))
        object.__setattr__(self, "hidden", tuple(widths[1:-1]))
        object.__setattr__(self, "flat", np.array(self.flat, dtype=float))
        weights, biases = self.split(self.flat)
        for l, (w, b) in enumerate(zip(weights, biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} contains non-finite parameters")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def input_width(self):
        return self.d * (self.n_mem + 1)

    def __call__(self, stacks):
        """The one-step map of :mod:`memflow.rollout`; ``forward_batch`` is
        looked up by name so that a wrapper set on the module sees it."""
        return forward_batch(self, stacks)

    def split(self, vec):
        """Per-layer ``(weights, biases)`` views into ``vec``, a vector laid
        out like ``flat``; ``vec`` must hold exactly that many parameters."""
        widths, size, layers = self._layout
        if vec.shape != (size,):
            raise ValueError(
                f"vector shape {vec.shape} does not fit layer widths {widths}, "
                f"expected ({size},)"
            )
        return ([vec[w].reshape(shape) for w, shape, _ in layers],
                [vec[b] for _, _, b in layers])


def _widths(d, n_mem, hidden):
    """Layer widths ``D, *hidden, d`` as ints; impossible shapes, and a
    hidden width that is not an integer, are rejected."""
    if d < 1 or n_mem < 0:
        raise ValueError("require d >= 1 and n_mem >= 0")
    hidden = tuple(hidden)
    for w in hidden:
        if isinstance(w, bool) or not isinstance(w, numbers.Integral):
            raise ValueError(f"hidden width {w!r} is not an integer")
    if not hidden or any(w < 1 for w in hidden):
        raise ValueError("hidden widths must be a non-empty list of counts >= 1")
    return [d * (n_mem + 1), *map(int, hidden), d]


def init_params(d, n_mem, hidden, seed):
    """Fresh parameters: zero-mean weights scaled by 1/sqrt(fan_in), zero biases."""
    widths = _widths(d, n_mem, hidden)
    rng = np.random.default_rng(seed)
    pieces = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        pieces.append(rng.normal(0.0, 1.0 / np.sqrt(w_in), size=w_out * w_in))
        pieces.append(np.zeros(w_out))
    return NetworkParams(d, n_mem, widths[1:-1], np.concatenate(pieces))


def _check_width(params, z):
    if z.shape[-1] != params.input_width:
        raise ValueError(
            f"input width {z.shape[-1]} does not match "
            f"d*(n_mem+1) = {params.input_width}"
        )


def forward_batch(params, z_stacks, acts=None):
    """Evaluate the model on rows of stacked states, shape (J, D) -> (J, d);
    a single (D,) row gives (d,).  A list passed as ``acts`` receives each
    layer's input, the cache :func:`backward_batch` reads."""
    z_stacks = np.asarray(z_stacks, dtype=float)
    _check_width(params, z_stacks)
    act = z_stacks
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        if acts is not None:
            acts.append(act)
        act = act @ w.T + b
        if l != last:
            act = np.tanh(act)
    return z_stacks[..., : params.d] + act


def backward_batch(params, z_stacks, output_grads, acts=None):
    """Reverse-mode gradients for a batch.

    Given upstream gradients ``output_grads`` (J, d) of some scalar with
    respect to the model outputs, returns the gradient of that scalar
    with respect to all parameters (summed over the batch), as one vector
    laid out like ``params.flat``, plus its gradient with respect to the
    inputs, shape (J, D).  The residual projection contributes
    ``output_grads`` directly onto the leading ``d`` input columns.
    ``acts`` is the list a :func:`forward_batch` call on the same inputs
    filled; without it the forward pass runs here.
    """
    z_stacks = np.asarray(z_stacks, dtype=float)
    output_grads = np.asarray(output_grads, dtype=float)
    _check_width(params, z_stacks)
    if output_grads.shape != (z_stacks.shape[0], params.d):
        raise ValueError(
            f"output_grads shape {output_grads.shape}, expected "
            f"({z_stacks.shape[0]}, {params.d})"
        )
    if acts is None:
        acts = []
        forward_batch(params, z_stacks, acts)
    last = len(params.weights) - 1
    # reverse pass, writing each layer's gradient into its view of flat_grad
    flat_grad = np.empty_like(params.flat)
    grad_w, grad_b = params.split(flat_grad)
    delta = output_grads
    for l in range(last, -1, -1):
        np.matmul(delta.T, acts[l], out=grad_w[l])
        np.sum(delta, axis=0, out=grad_b[l])
        delta = delta @ params.weights[l]
        if l > 0:
            delta = delta * (1.0 - acts[l] ** 2)  # tanh' through layer l-1 output
    delta[:, : params.d] += output_grads  # delta is a fresh product here
    return flat_grad, delta


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


_CHECKPOINT_SCHEMA = {
    "d": (np.int64, 0), "n_mem": (np.int64, 0),
    "hidden": (np.int64, 1), "flat": (np.float64, 1),
}


def save_params(params, path):
    """Write a checkpoint as an npz archive: ``d`` and ``n_mem`` (int64
    scalars), ``hidden`` (int64 widths) and ``flat`` (float64, the
    parameter vector laid out as :attr:`NetworkParams.flat`)."""
    _npz.save(path, _CHECKPOINT_SCHEMA, d=params.d, n_mem=params.n_mem,
              hidden=params.hidden, flat=params.flat)


def load_params(path):
    """Inverse of :func:`save_params`; a ``flat`` whose length does not
    match ``(d, n_mem, hidden)`` and malformed files are rejected."""
    members = _npz.load(path, _CHECKPOINT_SCHEMA)
    with _npz.naming(path):
        return NetworkParams(int(members["d"]), int(members["n_mem"]),
                             members["hidden"].tolist(), members["flat"])
