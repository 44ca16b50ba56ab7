"""Binary model files: a little-endian struct header whose first field is
a 4-byte magic, then float32 row-major matrices.

Every loader reads through `read_model`, which checks the byte count the
header implies against the file size before reading any matrix, so a
truncated file, trailing bytes, or a header claiming huge sizes is
rejected with a ValueError instead of a short read or a large allocation.
The header's last field is a mode flag, decoded through the table its
saver encodes with; an unknown flag is rejected before any size is
computed.  A matrix holding NaN or infinity is rejected as it is read.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Callable

import numpy as np

# The largest magnitude a model file holds: float32's largest value.
FLOAT32_MAX = float(np.finfo(np.float32).max)


def write_model(path, header_fmt: str, header: tuple, matrices) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(header_fmt, *header))
        for m in matrices:
            fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def read_model(path, header_fmt: str, magic: bytes, what: str,
               shapes: Callable[..., dict[str, tuple[int, ...]]],
               flag: tuple[str, dict], skip=()) -> tuple[tuple, dict]:
    """The header fields after the magic, and the float64 arrays of the
    {name: shape} that `shapes(*fields)` gives, in that order; a field that
    `shapes` refuses, or a NaN or infinity, is a ValueError naming the file.
    `flag` is the last field's (name, {value: flag}) table, and that field
    is given as its value.  The arrays named in `skip` are seeked past,
    unread, unchecked and given as None; their bytes count in the size check."""
    header_size = struct.calcsize(header_fmt)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ValueError(f"truncated {what} file: {path}")
        found, *fields = struct.unpack(header_fmt, header)
        if found != magic:
            raise ValueError(f"not a {what} file: {path}")
        field, table = flag
        value = {code: value for value, code in table.items()}.get(fields[-1])
        if value is None:
            raise ValueError(f"unknown {field} flag {fields[-1]} in {what} file: {path}")
        fields[-1] = value
        try:
            dims = shapes(*fields)
        except ValueError as exc:
            raise ValueError(f"{exc} in {what} file: {path}") from None
        expected = header_size + 4 * sum(math.prod(shape) for shape in dims.values())
        if size != expected:
            kind = "truncated" if size < expected else "trailing bytes in"
            raise ValueError(f"{kind} {what} file: {path} holds {size} bytes, "
                             f"its header implies {expected}")
        matrices = {}
        for name, shape in dims.items():
            n_bytes = 4 * math.prod(shape)
            if name in skip:
                fh.seek(n_bytes, os.SEEK_CUR)
                matrices[name] = None
            else:
                matrix = np.frombuffer(fh.read(n_bytes), dtype="<f4").astype(np.float64)
                if not np.isfinite(matrix).all():
                    raise ValueError(f"non-finite values in {what} file: {path}")
                matrices[name] = matrix.reshape(shape)
    return tuple(fields), matrices
