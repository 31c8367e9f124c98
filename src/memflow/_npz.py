"""Bulk artifacts as uncompressed ``.npz`` archives with a fixed schema.

A schema maps each init field of the artifact's container (a dataclass)
to its ``(dtype, ndim)``, in the order the members are written.  Loading
checks the member names, dtypes and ndims, and that each member holds
exactly the bytes its header declares, before any member is read, so a
damaged or crafted header cannot make the loader allocate more than the
file holds.  Object arrays are refused, so nothing is unpickled.  The
members, 0-d ones as Python scalars, then build the container, whose own
checks run as well.  Every rejection is a ``ValueError`` naming the file.
"""

from __future__ import annotations

import math
import os
import zipfile

import numpy as np


def save(path, obj, schema):
    """Write each schema field of ``obj``, cast to its schema dtype, at
    exactly ``path`` (given a name, ``np.savez`` would append ``.npz``)."""
    with open(path, "wb") as fh:
        np.savez(fh, **{k: np.asarray(getattr(obj, k), dtype=dtype)
                        for k, (dtype, _) in schema.items()})


def load(path, cls, schema):
    """Read the archive at ``path`` back as ``cls(**members)``."""
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not a readable npz archive (no zip header)")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                names = sorted(archive.zip.namelist())
                expected = sorted(f"{name}.npy" for name in schema)
                if names != expected:
                    raise ValueError(f"members {names}, expected {expected}")
                size = os.fstat(fh.fileno()).st_size
                for name, (dtype, ndim) in schema.items():
                    _check_member(archive.zip, name, np.dtype(dtype), ndim, size)
                members = {name: archive[name] for name in schema}
            return cls(**{k: m.item() if m.ndim == 0 else m
                          for k, m in members.items()})
        except (zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(f"{path}: not a readable npz archive ({exc})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
