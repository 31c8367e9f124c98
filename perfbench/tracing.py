"""Spans around calls into memflow's layers, installed from outside ``src/``.

A span is ``[name, start, end, parent, attrs]``: ``name`` is
``<layer>.<function>``, times come from ``time.perf_counter``, ``parent``
is the index of the enclosing span (-1 for none) and ``attrs`` holds the
counts measured at that boundary.  Spans stay in memory; the worker writes
them out when the repeat ends.

Each wrapper has to sit where the caller looks the function up.  ``cli``,
``rollout`` and the modules' own internal calls look functions up on the
defining module at call time, so the module attribute is patched.  ``data``
and ``train`` import ``integrate_batch``, ``forward_batch``,
``backward_batch``, ``save_params`` and ``load_params`` by name, so those
copies are patched too (``memflow.train.forward_batch`` and so on).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
import types

import numpy as np

LAYERS = ("dynamics", "data", "net", "train", "rollout", "cli")


def patch_sites():
    """``(module, attribute, span name)`` for every public memflow function
    at every module that holds a reference to it."""
    mods = {layer: importlib.import_module(f"memflow.{layer}") for layer in LAYERS}
    layer_of = {mod.__name__: layer for layer, mod in mods.items()}
    sites = []
    for mod in mods.values():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ in layer_of):
                sites.append((mod, attr, f"{layer_of[obj.__module__]}.{obj.__name__}"))
    return sites


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = new`` for each ``(module, attr, new)``; restore
    every original on exit, also when the body raises."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, new in replacements:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in originals:
            setattr(mod, attr, old)


class Tracer:
    """Collects spans from the wrappers it makes."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
            except BaseException:
                spans[sid] = [name, start, clock(), parent, {"error": 1}]
                raise
            finally:
                stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            spans[sid] = [name, start, end, parent, attrs]
            return result

        return traced

    def install(self):
        """Context manager that routes every patch site through a span."""
        return patched([(mod, attr, self.wrap(name, getattr(mod, attr)))
                        for mod, attr, name in patch_sites()])


# ---------------------------------------------------------------------------
# Counts recorded at the boundaries
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _macs_per_row(params):
    widths = [params.input_width, *params.hidden, params.d]
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _owned_bytes(arrays):
    """Bytes of the distinct base arrays that ``arrays`` keep alive."""
    bases = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        bases[id(arr)] = arr.nbytes
    return sum(bases.values())


def _integrate(args, kwargs, result):
    calls = 4 * _arg(args, kwargs, 1, "config").substeps * (result.shape[0] - 1)
    return {"rhs_calls": calls, "rhs_rows": calls}


def _integrate_batch(args, kwargs, result):
    calls = 4 * _arg(args, kwargs, 1, "config").substeps * (result.shape[1] - 1)
    return {"rhs_calls": calls, "rhs_rows": calls * result.shape[0]}


def _forward_batch(args, kwargs, result):
    rows = result.shape[0]
    return {"rows": rows, "flops": 2 * rows * _macs_per_row(args[0])}


def _backward_batch(args, kwargs, result):
    # forward recompute, weight gradient and input gradient: three GEMMs
    rows = result[1].shape[0]
    return {"rows": rows, "flops": 6 * rows * _macs_per_row(args[0])}


def _dataset(args, kwargs, result):
    return {"windows": result.size,
            "resident_bytes": result.inputs.nbytes + result.targets.nbytes}


def _trajset(args, kwargs, result):
    return {"resident_bytes": _owned_bytes(result.trajectories)}


def _file_arg(index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, "path"))}
    return attrs


def _train_model(args, kwargs, result):
    return {"windows": _arg(args, kwargs, 1, "ds").size
            * _arg(args, kwargs, 2, "cfg").epochs}


def _rollout(args, kwargs, result):
    return {"steps": result.states.shape[0] - result.seed_len,
            "diverged": int(result.diverged_at is not None)}


def _euler(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 2, "steps")}


ATTRS = {
    "dynamics.integrate": _integrate,
    "dynamics.integrate_batch": _integrate_batch,
    "net.forward_batch": _forward_batch,
    "net.backward_batch": _backward_batch,
    "data.build_dataset": _dataset,
    "data.load_dataset": _dataset,
    "data.generate_trajectories": _trajset,
    "data.load_trajectories": _trajset,
    "data.save_dataset": _file_arg(1),
    "data.save_trajectories": _file_arg(1),
    "net.save_params": _file_arg(1),
    "net.load_params": _file_arg(0),
    "train.train_model": _train_model,
    "rollout.rollout": _rollout,
    "rollout.euler_damz": _euler,
}
