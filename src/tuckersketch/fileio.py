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
from .tucker import _ORTHO_TOL, TuckerDecomposition, _orthonormality_gap

__all__ = ["write_tensor", "read_tensor", "write_decomposition", "read_decomposition"]

_TENSOR_MAGIC = b"TKR1"
_DECOMP_MAGIC = b"TKD1"


def _write(path, magic: bytes, what: str, modes: list[tuple[int, ...]], arrays) -> None:
    """Write ``magic``, the order byte, the per-mode u64 header values in
    ``modes`` (one tuple per mode) and each array first-index-fastest."""
    if not 1 <= len(modes) <= 255:
        raise ValueError(f"unsupported {what} order {len(modes)}")
    blob = [magic, struct.pack("<B", len(modes)), np.asarray(modes, dtype="<u8").tobytes()]
    blob += [to_vec(a).astype("<f8").tobytes() for a in arrays]
    Path(path).write_bytes(b"".join(blob))


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise ValueError(f"truncated file: ran out of bytes reading {what}")
    return buf[offset : offset + count], offset + count


def _read(path, magic: bytes, what: str, per_mode: int, counts):
    """Read a file written by :func:`_write`.

    Returns the header values (Python ints, so sizes computed from them
    cannot wrap) and one float64 array per entry of ``counts(header)``,
    the value count of each payload array.  Rejects wrong magic, order 0,
    zero header values, short files and trailing bytes.
    """
    buf = Path(path).read_bytes()
    got, off = _take(buf, 0, 4, "magic")
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    raw, off = _take(buf, off, 1, "order")
    if raw[0] < 1:
        raise ValueError(f"{what} order must be at least 1")
    raw, off = _take(buf, off, 8 * per_mode * raw[0], "header")
    header = tuple(int(v) for v in np.frombuffer(raw, dtype="<u8"))
    if 0 in header:
        raise ValueError(f"zero dimension in header: {header}")
    arrays = []
    for count in counts(header):
        raw, off = _take(buf, off, 8 * count, "values")
        arrays.append(np.frombuffer(raw, dtype="<f8"))
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing bytes after payload")
    return header, arrays


def write_tensor(path, X) -> None:
    """Write a dense tensor to ``path`` in TKR1 format."""
    X = as_tensor(X)
    _write(path, _TENSOR_MAGIC, "tensor", [(n,) for n in X.shape], [X])


def read_tensor(path) -> np.ndarray:
    """Read a TKR1 file back into a dense tensor."""
    dims, (values,) = _read(path, _TENSOR_MAGIC, "tensor", 1, lambda dims: [math.prod(dims)])
    return from_vec(values, dims)


def write_decomposition(path, T: TuckerDecomposition) -> None:
    """Write a Tucker decomposition to ``path`` in TKD1 format."""
    _write(path, _DECOMP_MAGIC, "decomposition", list(zip(T.shape, T.ranks)), [T.core, *T.factors])


def read_decomposition(path) -> TuckerDecomposition:
    """Read a TKD1 file.

    The orthogonal flag is not stored; it is re-detected by measuring the
    factors against the orthonormality tolerance of
    :class:`~tuckersketch.tucker.TuckerDecomposition`.
    """
    header, (core, *factors) = _read(
        path, _DECOMP_MAGIC, "decomposition", 2,
        lambda h: [math.prod(h[1::2])] + [n * r for n, r in zip(h[0::2], h[1::2])],
    )
    dims, ranks = header[0::2], header[1::2]
    factors = [f.reshape((n, r), order="F").copy() for f, n, r in zip(factors, dims, ranks)]
    ortho = all(_orthonormality_gap(f) <= _ORTHO_TOL for f in factors)
    return TuckerDecomposition(from_vec(core, ranks), factors, orthogonal=ortho)
