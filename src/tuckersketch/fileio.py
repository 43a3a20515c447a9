"""Binary file formats for dense tensors and Tucker decompositions.

TKR1 (dense tensor)::

    bytes 0-3   magic "TKR1"
    byte  4     order q (u8, >= 1)
    next 8q     dimensions n_1..n_q, little-endian u64, all > 0
    rest        prod(n_j) float64 values, little-endian,
                first-index-fastest order

TKD1 (Tucker decomposition)::

    bytes 0-3   magic "TKD1"
    byte  4     order q (u8, >= 1)
    next 16q    per mode: n_j then R_j, little-endian u64
    rest        core values (prod(R_j) float64, first-index-fastest),
                then each factor j as n_j*R_j float64 values,
                first-index-fastest (column by column)

Readers reject wrong magic, zero dimensions, and payloads whose size
does not match the header exactly.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import as_tensor, from_vec, to_vec
from .tucker import TuckerDecomposition

__all__ = ["write_tensor", "read_tensor", "write_decomposition", "read_decomposition"]

_TENSOR_MAGIC = b"TKR1"
_DECOMP_MAGIC = b"TKD1"


def write_tensor(path, X) -> None:
    """Write a dense tensor to ``path`` in TKR1 format."""
    X = as_tensor(X)
    if X.ndim < 1 or X.ndim > 255:
        raise ValueError(f"unsupported tensor order {X.ndim}")
    blob = bytearray()
    blob += _TENSOR_MAGIC
    blob += struct.pack("<B", X.ndim)
    blob += np.asarray(X.shape, dtype="<u8").tobytes()
    blob += to_vec(X).astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise ValueError(f"truncated file: ran out of bytes reading {what}")
    return buf[offset : offset + count], offset + count


def read_tensor(path) -> np.ndarray:
    """Read a TKR1 file back into a dense tensor."""
    buf = Path(path).read_bytes()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != _TENSOR_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_TENSOR_MAGIC!r}")
    raw, off = _take(buf, off, 1, "order")
    q = raw[0]
    if q < 1:
        raise ValueError("tensor order must be at least 1")
    raw, off = _take(buf, off, 8 * q, "dimensions")
    dims = np.frombuffer(raw, dtype="<u8")
    if np.any(dims == 0):
        raise ValueError(f"zero dimension in header: {tuple(int(d) for d in dims)}")
    count = math.prod(int(d) for d in dims)
    raw, off = _take(buf, off, 8 * count, "values")
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing bytes after payload")
    values = np.frombuffer(raw, dtype="<f8")
    return from_vec(values, tuple(int(d) for d in dims))


def write_decomposition(path, T: TuckerDecomposition) -> None:
    """Write a Tucker decomposition to ``path`` in TKD1 format."""
    q = T.order
    if q < 1 or q > 255:
        raise ValueError(f"unsupported decomposition order {q}")
    blob = bytearray()
    blob += _DECOMP_MAGIC
    blob += struct.pack("<B", q)
    header = []
    for n, r in zip(T.shape, T.ranks):
        header += [n, r]
    blob += np.asarray(header, dtype="<u8").tobytes()
    blob += to_vec(T.core).astype("<f8").tobytes()
    for f in T.factors:
        blob += f.ravel(order="F").astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_decomposition(path) -> TuckerDecomposition:
    """Read a TKD1 file.

    The orthogonal flag is not stored; it is re-detected by measuring the
    factors against the orthonormality tolerance.
    """
    buf = Path(path).read_bytes()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != _DECOMP_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_DECOMP_MAGIC!r}")
    raw, off = _take(buf, off, 1, "order")
    q = raw[0]
    if q < 1:
        raise ValueError("decomposition order must be at least 1")
    raw, off = _take(buf, off, 16 * q, "mode sizes")
    header = np.frombuffer(raw, dtype="<u8").reshape(q, 2)
    dims = tuple(int(n) for n in header[:, 0])
    ranks = tuple(int(r) for r in header[:, 1])
    if any(n == 0 for n in dims) or any(r == 0 for r in ranks):
        raise ValueError(f"zero dimension or rank in header: dims={dims} ranks={ranks}")
    raw, off = _take(buf, off, 8 * math.prod(ranks), "core values")
    core = from_vec(np.frombuffer(raw, dtype="<f8"), ranks)
    factors = []
    for n, r in zip(dims, ranks):
        raw, off = _take(buf, off, 8 * n * r, "factor values")
        factors.append(np.frombuffer(raw, dtype="<f8").reshape((n, r), order="F").copy())
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing bytes after payload")
    ortho = all(
        np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-10 for f in factors
    )
    return TuckerDecomposition(core, factors, orthogonal=ortho)
