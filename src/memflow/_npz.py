"""Bulk artifacts as uncompressed ``.npz`` archives with a fixed schema.

A schema maps each init field of the artifact's container (a dataclass)
to its ``(dtype, ndim)``, in the order the members are written; ``dtype``
may be a tuple of the dtypes a member may have, the first of them the
one a field of any other dtype is written as.  The archive is the one
``np.savez`` writes, byte for byte, but each member is written from the
array's own buffer rather than copied chunk by chunk.  Loading checks the
member names, dtypes and ndims, and that each member holds
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


def _dtypes(dtype):
    """The dtypes a schema entry allows, the one to write others as first."""
    return [np.dtype(t) for t in (dtype if isinstance(dtype, tuple) else (dtype,))]


def save(path, obj, schema):
    """Write each schema field of ``obj`` at exactly ``path``: in its own
    dtype if the schema allows it, cast to the schema's first dtype
    otherwise.  Each member is the npy 1.0 header, then the C-ordered
    array's buffer, which is written without a copy."""
    with open(path, "wb") as fh, zipfile.ZipFile(
            fh, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, (dtype, _) in schema.items():
            allowed = _dtypes(dtype)
            value = np.asarray(getattr(obj, name))
            value = np.asarray(
                value, dtype=value.dtype if value.dtype in allowed else allowed[0],
                order="C")
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(value))
                member.write(value.reshape(-1).view(np.uint8))


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
                    _check_member(archive.zip, name, _dtypes(dtype), ndim, size)
                members = {name: archive[name] for name in schema}
            return cls(**{k: m.item() if m.ndim == 0 else m
                          for k, m in members.items()})
        except (zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(f"{path}: not a readable npz archive ({exc})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _check_member(zf, name, dtypes, ndim, archive_size):
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED or info.file_size > archive_size:
        raise ValueError(f"member {name!r} is compressed or larger than the file")
    with zf.open(info) as member:
        if np.lib.format.read_magic(member) != (1, 0):
            raise ValueError(f"member {name!r} is not in npy format 1.0")
        shape, _, got = np.lib.format.read_array_header_1_0(member)
        held = info.file_size - member.tell()
    if got not in dtypes or len(shape) != ndim:
        raise ValueError(
            f"member {name!r} is {got} with {len(shape)} dims, expected "
            f"{' or '.join(map(str, dtypes))} with {ndim}"
        )
    if min(shape, default=0) < 0 or math.prod(shape) * got.itemsize != held:
        raise ValueError(f"member {name!r} declares shape {shape}, holds {held} bytes")
