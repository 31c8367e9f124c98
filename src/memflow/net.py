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

A network is built from its parameters as one contiguous vector
``flat``: layer by layer, the weight matrix in row-major order followed by
the bias.  ``weights[l]`` and ``biases[l]`` are views derived from it, and
:meth:`NetworkParams.split` lays any vector of the same length (a
gradient, an optimizer moment) out the same way.

The network computes in the dtype of ``flat``: float32, as
:func:`init_params` draws it, or float64, which any other given vector
becomes (an old checkpoint, or a test that needs exact arithmetic).  Its
inputs and upstream gradients are cast to that dtype, and its outputs and
gradients have it.  A float32 network refuses a finite input that float32
cannot hold rather than turn it into ``inf``.  Everything around the
network (trajectories, windows, rollout states, losses and errors) stays
float64; only a rollout's history, while it runs, takes the dtype of the
network's outputs (:func:`memflow.rollout.rollout`).

Forward and reverse passes are written directly in numpy with exact
analytic gradients; there is no autodiff framework behind this module.
Both operate on row-stacked inputs.  :func:`forward_batch` holds the one
layer loop and also takes a single ``(D,)`` row; it can cache each layer's
input in a list ``acts``, from which :func:`backward_batch` runs the
reverse pass alone, so a training step runs the forward pass once.

A checkpoint is an uncompressed ``.npz`` archive holding ``d``, ``n_mem``
and ``hidden`` (int64) and ``flat`` (in the network's dtype); see
:func:`save_params`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from memflow import _npz
from memflow.dynamics import _count

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
    bias ``(width_out,)``.  The given vector is copied, as float32 if it
    is float32 and as float64 otherwise, and
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
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "n_mem", int(self.n_mem))
        object.__setattr__(self, "hidden", tuple(widths[1:-1]))
        flat = np.asarray(self.flat)
        dtype = np.float32 if flat.dtype == np.float32 else np.float64
        object.__setattr__(self, "flat", np.array(flat, dtype=dtype))
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
    """Layer widths ``D, *hidden, d`` as Python ints: ``d`` is a count >= 1
    and ``n_mem`` one >= 0 (:func:`_count`), and ``hidden`` a non-empty
    list or tuple, or a 1-D array such as a checkpoint's member, of counts
    >= 1.  The experiment config checks its ``hidden`` here too."""
    d, n_mem = _count("d", d, 1), _count("n_mem", n_mem, 0)
    if isinstance(hidden, np.ndarray) and hidden.ndim == 1:
        hidden = list(hidden)
    if not isinstance(hidden, (list, tuple)) or not hidden:
        raise ValueError(f"hidden must be a non-empty list, got {hidden!r}")
    return [d * (n_mem + 1), *(_count("hidden width", w, 1) for w in hidden), d]


def init_params(d, n_mem, hidden, seed):
    """Fresh float32 parameters: zero-mean weights scaled by
    1/sqrt(fan_in), zero biases, drawn in float64 from ``seed``, a count
    >= 0, and rounded to float32."""
    widths = _widths(d, n_mem, hidden)
    rng = np.random.default_rng(_count("seed", seed, 0))
    pieces = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        pieces.append(rng.normal(0.0, 1.0 / np.sqrt(w_in), size=w_out * w_in))
        pieces.append(np.zeros(w_out))
    return NetworkParams(d, n_mem, widths[1:-1],
                         np.concatenate(pieces).astype(np.float32))


def _check_width(params, z):
    if z.shape[-1] != params.input_width:
        raise ValueError(
            f"input width {z.shape[-1]} does not match "
            f"d*(n_mem+1) = {params.input_width}"
        )


def _cast(params, values, name):
    """``values`` as an array of the network's dtype.  A finite value that
    the dtype cannot hold, which the cast would make ``inf``, is refused
    with a ValueError naming ``name``."""
    values = np.asarray(values)
    dtype = params.flat.dtype
    if values.dtype == dtype:
        return values
    try:
        with np.errstate(over="raise"):
            return values.astype(dtype)
    except FloatingPointError:
        finite = values[np.isfinite(values)]
        worst = finite[np.abs(finite).argmax()]
        raise ValueError(
            f"{name} hold {worst:.4g}, outside the range of the network's "
            f"{dtype} (largest {np.finfo(dtype).max:.4g})"
        ) from None


def forward_batch(params, z_stacks, acts=None):
    """Evaluate the model on rows of stacked states, shape (J, D) -> (J, d);
    a single (D,) row gives (d,).  A list passed as ``acts`` receives each
    layer's input, the cache :func:`backward_batch` reads.  The inputs are
    cast to the network's dtype, which the outputs have."""
    z_stacks = _cast(params, z_stacks, "input stacks")
    _check_width(params, z_stacks)
    act = z_stacks
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        if acts is not None:
            acts.append(act)
        # one fresh array per layer: the bias and tanh act on the product
        act = act @ w.T
        act += b
        if l != last:
            np.tanh(act, out=act)
    act += z_stacks[..., : params.d]
    return act


def backward_batch(params, z_stacks, output_grads, acts=None):
    """Reverse-mode gradients for a batch.

    Given upstream gradients ``output_grads`` (J, d) of some scalar with
    respect to the model outputs, returns the gradient of that scalar
    with respect to all parameters (summed over the batch), as one vector
    laid out like ``params.flat``, plus its gradient with respect to the
    inputs, shape (J, D).  The residual projection contributes
    ``output_grads`` directly onto the leading ``d`` input columns.
    ``acts`` is the list a :func:`forward_batch` call on the same inputs
    filled; without it the forward pass runs here.  Inputs and upstream
    gradients are cast to the network's dtype, which both results have.
    """
    if acts is None:
        acts = []
        forward_batch(params, z_stacks, acts)
    rows = acts[0].shape[0]  # acts[0] holds the inputs, cast
    output_grads = _cast(params, output_grads, "output_grads")
    if output_grads.shape != (rows, params.d):
        raise ValueError(
            f"output_grads shape {output_grads.shape}, expected ({rows}, {params.d})"
        )
    last = len(params.weights) - 1
    # reverse pass, writing each layer's gradient into its view of flat_grad
    flat_grad = np.empty_like(params.flat)
    grad_w, grad_b = params.split(flat_grad)
    delta = output_grads
    for l in range(last, -1, -1):
        np.matmul(delta.T, acts[l], out=grad_w[l])
        np.add.reduce(delta, axis=0, out=grad_b[l])
        delta = delta @ params.weights[l]  # a fresh product, updated in place
        if l > 0:
            # tanh' through layer l-1 output, 1 - act**2, in one temporary
            slope = np.square(acts[l])
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    delta[:, : params.d] += output_grads
    return flat_grad, delta


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


# ``flat`` is stored in the network's own dtype, float64 or float32
_CHECKPOINT_SCHEMA = {
    "d": (np.int64, 0), "n_mem": (np.int64, 0),
    "hidden": (np.int64, 1), "flat": ((np.float64, np.float32), 1),
}


def save_params(params, path):
    """Write a checkpoint as an npz archive: ``d`` and ``n_mem`` (int64
    scalars), ``hidden`` (int64 widths) and ``flat`` (the parameter vector
    laid out as :attr:`NetworkParams.flat`, in its own dtype)."""
    _npz.save(path, params, _CHECKPOINT_SCHEMA)


def load_params(path):
    """Inverse of :func:`save_params`: a float32 ``flat`` gives a float32
    network, a float64 one a float64 network.  A ``flat`` whose length does
    not match ``(d, n_mem, hidden)`` and malformed files are rejected."""
    return _npz.load(path, NetworkParams, _CHECKPOINT_SCHEMA)
