"""Versioned binary checkpoint container.

Layout: magic "LUMIQ1", u32 entry count, then per entry a u16 name
length, the utf-8 name, a u8 rank, u32 dims, and the float64 payload.
All integers and floats little-endian.  Round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

MAGIC = b"LUMIQ1"


class CheckpointError(RuntimeError):
    """Unreadable or malformed checkpoint file."""


def save_checkpoint(entries: dict[str, np.ndarray], path) -> None:
    """Write via path.tmp and os.replace, so a failed save leaves no temp file and an existing file unchanged."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(entries)))
            for name, arr in entries.items():
                arr = np.ascontiguousarray(arr, dtype="<f8")
                raw = name.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    off = len(MAGIC)

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {off}")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals[0] if len(vals) == 1 else vals

    count = take("<I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = take("<H")
        if off + name_len > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {off}")
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: entry name not valid utf-8 at byte {off + err.start}") from None
        off += name_len
        ndim = take("<B")
        shape = tuple(take("<I") for _ in range(ndim))
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * 8
        if off + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {off}")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        entries[name] = arr.astype(np.float64).copy()
        off += nbytes
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return entries
