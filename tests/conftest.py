"""Shared helpers: datasets made from given windows, float64 networks for
the tests that need exact arithmetic, hand-built ``.npz`` archives for the
loader rejection tests, the seeds every seeded entry point refuses, and
the equality checks of containers and value records."""

import io
import re
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from memflow import data


def windows_dataset(n_mem, inputs, targets):
    """A dataset whose rows are the given ``(J, d*(n_mem+1))`` newest-first
    inputs and ``(J, d)`` targets: one trajectory of ``n_mem + 2`` samples,
    oldest first, per window, each indexed from start 0."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    j, d = targets.shape
    history = inputs.reshape(j, n_mem + 1, d)[:, ::-1]
    return data.MemoryWindowDataset(
        n_mem=n_mem, trajectories=np.concatenate([history, targets[:, None]], axis=1),
        starts=np.zeros((j, 1), dtype=np.int64),
    )


def float64_network(params):
    """``params`` as a float64 network: the same parameter values, each
    exact in float64.  ``init_params`` draws float32 networks; a test that
    checks an identity to round-off (finite differences, a zero final
    layer, batch against single rows) needs float64 arithmetic."""
    return replace(params, flat=params.flat.astype(np.float64))


# A seed is a count >= 0 (dynamics._count): a float, a bool and a negative
# integer are refused, and so are None and numpy's SeedSequence and
# Generator, which numpy alone would take.  Each case gives the whole
# message as an anchored pattern.
_SEQUENCE, _GENERATOR = np.random.SeedSequence(0), np.random.default_rng(0)
refused_seeds = pytest.mark.parametrize("seed, message", [
    (value, "^" + re.escape(message) + "$") for value, message in [
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be >= 0, got -1"),
        *((v, f"seed must be an integer, got {v!r}")
          for v in (None, _SEQUENCE, _GENERATOR)),
    ]
], ids=["float", "bool", "negative", "None", "SeedSequence", "Generator"])


def assert_compared_by_identity(make):
    """Two containers ``make()`` builds alike: each equals itself and not
    the other, and ``==``, ``in`` and ``hash`` raise nothing."""
    a, b = make(), make()
    assert a == a and a in [a]
    assert (a == b, a != b, a in [b]) == (False, True, False)
    assert isinstance(hash(a), int) and hash(a) == hash(a)


def assert_compared_by_value(make):
    """Two value records ``make()`` builds alike compare equal."""
    a, b = make(), make()
    assert a is not b and a == b and a in [b]


def _npy(value):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(value), allow_pickle=True)
    return buf.getvalue()


@pytest.fixture
def write_archive():
    """``write(path, **members)`` stores each member as ``<name>.npy`` in an
    uncompressed zip, as ``np.savez`` does.  Arrays are serialized by
    ``np.lib.format`` (object arrays pickled); ``bytes`` are stored as given."""

    def write(path, **members):
        with zipfile.ZipFile(path, "w") as zf:
            for name, value in members.items():
                if not isinstance(value, bytes):
                    value = _npy(value)
                zf.writestr(f"{name}.npy", value)
        return path

    return write


@pytest.fixture
def declared_npy():
    """``member(shape, descr="<f8")``: an npy member whose header declares
    an array of ``shape`` and dtype ``descr`` but which holds 80 bytes of
    data."""

    def member(shape, descr="<f8"):
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": descr, "fortran_order": False, "shape": shape}
        )
        return buf.getvalue() + bytes(80)

    return member
