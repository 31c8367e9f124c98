"""Shared fixtures: hand-built ``.npz`` archives for the loader rejection tests."""

import io
import zipfile

import numpy as np
import pytest


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
    """``member(shape)``: an npy member whose header declares a float64
    array of ``shape`` but which holds 80 bytes of data."""

    def member(shape):
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": shape}
        )
        return buf.getvalue() + bytes(80)

    return member
