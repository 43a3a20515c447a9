"""Dense tensor primitives: unfolding, folding, mode products, inner products.

Tensors are plain float64 numpy arrays of any order q >= 1.  The flat
layout used throughout the package (and by the TKR1 file format) is
first-index-fastest, i.e. ``vec(X) == X.ravel(order="F")``.  Under this
convention the vectorisation of a tensor coincides with the
vectorisation of its mode-0 unfolding.

Mode indices are 0-based.  The mode-j unfolding is the
``(n_j, prod(n_k, k != j))`` matrix whose columns enumerate the
remaining indices in increasing mode order with the lowest mode varying
fastest, so that ``mode_multiply(X, B, j)`` is the fold of
``B @ matricize(X, j)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_tensor",
    "from_vec",
    "to_vec",
    "matricize",
    "dematricize",
    "mode_multiply",
    "multi_mode_multiply",
    "inner",
    "norm",
    "kronecker",
]


def as_tensor(data) -> np.ndarray:
    """Coerce input to a float64 ndarray."""
    return np.asarray(data, dtype=np.float64)


def from_vec(flat, shape: Sequence[int]) -> np.ndarray:
    """Build a tensor from its first-index-fastest vectorisation."""
    shape = tuple(int(n) for n in shape)
    flat = as_tensor(flat).ravel()
    if any(n < 1 for n in shape):
        raise ValueError(f"dimensions must be positive, got {shape}")
    expected = int(np.prod(shape))
    if flat.size != expected:
        raise ValueError(f"expected {expected} values for shape {shape}, got {flat.size}")
    return flat.reshape(shape, order="F")


def to_vec(X) -> np.ndarray:
    """First-index-fastest vectorisation of a tensor."""
    return as_tensor(X).ravel(order="F")


def _check_mode(X: np.ndarray, mode: int) -> None:
    if not 0 <= mode < X.ndim:
        raise ValueError(f"mode {mode} out of range for order-{X.ndim} tensor")


def matricize(X, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of ``X``.

    Rows run over the selected mode; columns enumerate the remaining
    indices in increasing mode order, lowest mode fastest.
    """
    X = as_tensor(X)
    _check_mode(X, mode)
    return np.moveaxis(X, mode, 0).reshape(X.shape[mode], -1, order="F")


def dematricize(M, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`matricize` for the given target shape."""
    M = as_tensor(M)
    shape = tuple(int(n) for n in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    rest = [shape[k] for k in range(len(shape)) if k != mode]
    if M.shape[0] != shape[mode] or M.size != int(np.prod(shape)):
        raise ValueError(f"matrix of shape {M.shape} does not fold into {shape} along mode {mode}")
    folded = M.reshape([shape[mode]] + rest, order="F")
    return np.moveaxis(folded, 0, mode)


def mode_multiply(X, B, mode: int) -> np.ndarray:
    """Multiply ``X`` along ``mode`` by the matrix ``B``.

    Satisfies ``matricize(mode_multiply(X, B, j), j) == B @ matricize(X, j)``.
    Every mode product in the package goes through this one kernel: a
    single ``tensordot`` contraction over ``mode``, without an unfold and
    fold round trip.
    """
    X = as_tensor(X)
    B = as_tensor(B)
    _check_mode(X, mode)
    if B.ndim != 2:
        raise ValueError("mode map must be a matrix")
    if B.shape[1] != X.shape[mode]:
        raise ValueError(
            f"mode map has {B.shape[1]} columns but mode {mode} has size {X.shape[mode]}"
        )
    if X.flags.f_contiguous and not X.flags.c_contiguous:
        # tensordot unfolds in C order: contract a first-index-fastest
        # tensor through its C-contiguous transpose rather than a copy
        m = X.ndim - 1 - mode
        return np.moveaxis(np.tensordot(B, X.T, axes=(1, m)), 0, m).T
    return np.moveaxis(np.tensordot(B, X, axes=(1, mode)), 0, mode)


def multi_mode_multiply(X, mats: Sequence) -> np.ndarray:
    """Multiply ``X`` by ``mats[k]`` along mode k for every k, sequentially.

    ``mats`` entries equal to ``None`` are skipped.
    """
    out = as_tensor(X)
    for j, B in enumerate(mats):
        if B is not None:
            out = mode_multiply(out, B, j)
    return out


def inner(X, Y) -> float:
    """Entrywise inner product of two same-shape tensors."""
    X = as_tensor(X)
    Y = as_tensor(Y)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return float(np.dot(X.ravel(), Y.ravel()))


def norm(X) -> float:
    """Frobenius norm, i.e. the 2-norm of the vectorisation."""
    return float(np.linalg.norm(as_tensor(X)))


def kronecker(A, B) -> np.ndarray:
    """Kronecker product of two matrices."""
    A = as_tensor(A)
    B = as_tensor(B)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("kronecker expects matrices")
    return np.kron(A, B)
