"""Bulk artifacts as uncompressed ``.npz`` archives with a fixed schema.

A schema maps each member name to its ``(dtype, ndim)``.  Loading checks
the member names, dtypes and ndims, and that each member holds exactly
the bytes its header declares, before any member is read, so a damaged
or crafted header cannot make the loader allocate more than the file
holds.  Object arrays are refused, so nothing is unpickled.  Every
rejection is a ``ValueError`` naming the file.
"""

from __future__ import annotations

import contextlib
import math
import os
import zipfile

import numpy as np


@contextlib.contextmanager
def naming(path):
    """Prefix ``path`` to any ``ValueError`` raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save(path, schema, **members):
    """Write ``members``, each cast to its schema dtype, at exactly ``path``
    (given a name, ``np.savez`` would append ``.npz`` to it)."""
    with open(path, "wb") as fh:
        np.savez(fh, **{k: np.asarray(members[k], dtype=schema[k][0]) for k in schema})


def load(path, schema):
    """Read the archive at ``path`` as a dict of the members ``schema`` names."""
    with open(path, "rb") as fh, naming(path):
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError("not a readable npz archive (no zip header)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                names = sorted(archive.zip.namelist())
                expected = sorted(f"{name}.npy" for name in schema)
                if names != expected:
                    raise ValueError(f"members {names}, expected {expected}")
                size = os.fstat(fh.fileno()).st_size
                for name, (dtype, ndim) in schema.items():
                    _check_member(archive.zip, name, np.dtype(dtype), ndim, size)
                return {name: archive[name] for name in schema}
        except (zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(f"not a readable npz archive ({exc})") from None


def _check_member(zf, name, dtype, ndim, archive_size):
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED or info.file_size > archive_size:
        raise ValueError(f"member {name!r} is compressed or larger than the file")
    with zf.open(info) as member:
        if np.lib.format.read_magic(member) != (1, 0):
            raise ValueError(f"member {name!r} is not in npy format 1.0")
        shape, _, got = np.lib.format.read_array_header_1_0(member)
        held = info.file_size - member.tell()
    if got != dtype or len(shape) != ndim:
        raise ValueError(
            f"member {name!r} is {got} with {len(shape)} dims, expected "
            f"{dtype} with {ndim}"
        )
    if min(shape, default=0) < 0 or math.prod(shape) * dtype.itemsize != held:
        raise ValueError(f"member {name!r} declares shape {shape}, holds {held} bytes")
