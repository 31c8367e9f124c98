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

All parameters live in one contiguous float64 vector ``flat``: layer by
layer, the weight matrix in row-major order followed by the bias.
``weights[l]`` and ``biases[l]`` are views into it, and
:meth:`NetworkParams.split` lays any vector of the same length (a
gradient, an optimizer moment) out the same way.

Forward and reverse passes are written directly in numpy with exact
analytic gradients; there is no autodiff framework behind this module.
Both operate on row-stacked inputs; :func:`forward_batch` also takes a
single ``(D,)`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkParams",
    "init_params",
    "forward_batch",
    "backward_batch",
    "count_params",
    "save_params",
    "load_params",
]


@dataclass(frozen=True)
class NetworkParams:
    """Weights and biases of the residual memory network.

    ``weights[l]`` has shape ``(width_out, width_in)`` and ``biases[l]``
    shape ``(width_out,)``; the layer chain runs
    ``D -> hidden[0] -> ... -> hidden[-1] -> d``.  The given arrays are
    copied into ``flat``, of which ``weights`` and ``biases`` are views.
    """

    d: int
    n_mem: int
    hidden: tuple
    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if self.d < 1 or self.n_mem < 0:
            raise ValueError("require d >= 1 and n_mem >= 0")
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ValueError("hidden widths must be a non-empty list of counts >= 1")
        widths = [self.input_width, *self.hidden, self.d]
        if len(self.weights) != len(widths) - 1 or len(self.biases) != len(widths) - 1:
            raise ValueError(
                f"expected {len(widths) - 1} weight/bias pairs, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        pieces = []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.shape != (widths[l + 1], widths[l]):
                raise ValueError(
                    f"layer {l} weight shape {w.shape}, expected "
                    f"({widths[l + 1]}, {widths[l]})"
                )
            if b.shape != (widths[l + 1],):
                raise ValueError(
                    f"layer {l} bias shape {b.shape}, expected ({widths[l + 1]},)"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} contains non-finite parameters")
            pieces += [w.ravel(), b]
        object.__setattr__(self, "flat", np.concatenate(pieces))
        weights, biases = self.split(self.flat)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def input_width(self):
        return self.d * (self.n_mem + 1)

    @property
    def n_layers(self):
        return len(self.weights)

    def split(self, vec):
        """Per-layer ``(weights, biases)`` views into ``vec``, a vector laid
        out like ``flat``."""
        if vec.shape != self.flat.shape:
            raise ValueError(f"vector shape {vec.shape}, expected {self.flat.shape}")
        widths = [self.input_width, *self.hidden, self.d]
        weights = []
        biases = []
        pos = 0
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            weights.append(vec[pos : pos + w_out * w_in].reshape(w_out, w_in))
            pos += w_out * w_in
            biases.append(vec[pos : pos + w_out])
            pos += w_out
        return weights, biases


def init_params(d, n_mem, hidden, seed):
    """Fresh parameters: zero-mean weights scaled by 1/sqrt(fan_in), zero biases."""
    hidden = tuple(int(w) for w in hidden)
    if not hidden or any(w < 1 for w in hidden):
        raise ValueError("hidden widths must be a non-empty list of counts >= 1")
    rng = np.random.default_rng(seed)
    widths = [d * (n_mem + 1), *hidden, d]
    weights = []
    biases = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(w_in), size=(w_out, w_in)))
        biases.append(np.zeros(w_out))
    return NetworkParams(d=d, n_mem=n_mem, hidden=hidden, weights=weights, biases=biases)


def count_params(params):
    """Total number of scalar parameters."""
    return params.flat.size


def _check_width(params, z):
    if z.shape[-1] != params.input_width:
        raise ValueError(
            f"input width {z.shape[-1]} does not match "
            f"d*(n_mem+1) = {params.input_width}"
        )


def forward_batch(params, z_stacks):
    """Evaluate the model on rows of stacked states, shape (J, D) -> (J, d);
    a single (D,) row gives (d,)."""
    z_stacks = np.asarray(z_stacks, dtype=float)
    _check_width(params, z_stacks)
    act = z_stacks
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        act = act @ w.T + b
        if l != last:
            act = np.tanh(act)
    return z_stacks[..., : params.d] + act


def backward_batch(params, z_stacks, output_grads):
    """Reverse-mode gradients for a batch.

    Given upstream gradients ``output_grads`` (J, d) of some scalar with
    respect to the model outputs, returns the gradient of that scalar
    with respect to all parameters (summed over the batch), as one vector
    laid out like ``params.flat``, plus its gradient with respect to the
    inputs, shape (J, D).  The residual projection contributes
    ``output_grads`` directly onto the leading ``d`` input columns.
    """
    z_stacks = np.asarray(z_stacks, dtype=float)
    output_grads = np.asarray(output_grads, dtype=float)
    _check_width(params, z_stacks)
    if output_grads.shape != (z_stacks.shape[0], params.d):
        raise ValueError(
            f"output_grads shape {output_grads.shape}, expected "
            f"({z_stacks.shape[0]}, {params.d})"
        )
    # forward pass, caching post-activation values per layer
    acts = [z_stacks]
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = acts[-1] @ w.T + b
        acts.append(np.tanh(pre) if l != last else pre)
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


def _fmt(x):
    return repr(float(x))


def save_params(params, path):
    """Write a checkpoint: header ``d=.. n_mem=.. layers=w1,w2,..``, then
    per layer a ``W <out> <in>`` block of rows and a ``B`` line."""
    with open(path, "w", encoding="utf-8") as fh:
        layers = ",".join(str(w) for w in params.hidden)
        fh.write(f"d={params.d} n_mem={params.n_mem} layers={layers}\n")
        for w, b in zip(params.weights, params.biases):
            fh.write(f"W {w.shape[0]} {w.shape[1]}\n")
            for row in w:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")
            fh.write("B " + " ".join(_fmt(v) for v in b) + "\n")


def load_params(path):
    """Inverse of :func:`save_params`; shape mismatches are rejected."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty checkpoint")
    fields = lines[0].split()
    if len(fields) != 3 or not (
        fields[0].startswith("d=")
        and fields[1].startswith("n_mem=")
        and fields[2].startswith("layers=")
    ):
        raise ValueError(f"{path}: bad checkpoint header {lines[0]!r}")
    try:
        d = int(fields[0][2:])
        n_mem = int(fields[1][6:])
        hidden = tuple(int(v) for v in fields[2][7:].split(","))
    except ValueError as exc:
        raise ValueError(f"{path}: bad header values: {exc}") from None
    weights = []
    biases = []
    pos = 1
    while pos < len(lines) and lines[pos].strip():
        header = lines[pos].split()
        if len(header) != 3 or header[0] != "W":
            raise ValueError(f"{path}:{pos + 1}: expected 'W <out> <in>'")
        out_w, in_w = int(header[1]), int(header[2])
        pos += 1
        if pos + out_w >= len(lines) + 1:
            raise ValueError(f"{path}: truncated weight block at line {pos + 1}")
        block = np.empty((out_w, in_w))
        for r in range(out_w):
            vals = lines[pos + r].split()
            if len(vals) != in_w:
                raise ValueError(
                    f"{path}:{pos + r + 1}: expected {in_w} values, got {len(vals)}"
                )
            block[r] = [float(v) for v in vals]
        pos += out_w
        if pos >= len(lines) or not lines[pos].startswith("B "):
            raise ValueError(f"{path}:{pos + 1}: expected 'B <values>' line")
        bias = np.array([float(v) for v in lines[pos].split()[1:]])
        if bias.shape != (out_w,):
            raise ValueError(
                f"{path}:{pos + 1}: bias length {bias.shape[0]}, expected {out_w}"
            )
        pos += 1
        weights.append(block)
        biases.append(bias)
    if any(lines[pos:]):
        raise ValueError(f"{path}:{pos + 1}: trailing content after last layer")
    # NetworkParams validates the full shape chain against the header
    return NetworkParams(d=d, n_mem=n_mem, hidden=hidden, weights=weights, biases=biases)
