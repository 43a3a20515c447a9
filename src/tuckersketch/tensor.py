"""Dense tensor primitives: vectorisation, unfolding, mode products, inner products.

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

The private ``_is_int`` and ``_check_*`` functions are the package's one
home for its input rules, so each rule gives one message everywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_tensor",
    "from_vec",
    "to_vec",
    "matricize",
    "mode_multiply",
    "multi_mode_multiply",
    "inner",
    "norm",
]


def as_tensor(data) -> np.ndarray:
    """Coerce real input to a float64 ndarray; complex input is rejected,
    not cast (a cast would drop the imaginary part)."""
    arr = np.asarray(data)
    if arr.dtype.kind == "c":
        raise ValueError("tensor must be real (found complex values)")
    return np.asarray(arr, dtype=np.float64)


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """Reject a ``value`` that is not an integer of at least 1."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} {value!r} must be an integer of at least 1")


def _check_dims(dims) -> tuple[int, ...]:
    """A shape as Python ints: at least one mode, each an integer of at least 1."""
    dims = tuple(dims)
    if not dims or not all(_is_int(n) and n >= 1 for n in dims):
        raise ValueError(f"dims must be integers of at least 1, for at least one mode, got {dims}")
    return tuple(int(n) for n in dims)


def _check_ranks(ranks, dims=None) -> tuple[int, ...]:
    """Ranks as Python ints: at least one, each in ``[1, dims[j]]``, or >= 1 without ``dims``."""
    ranks = tuple(ranks)
    if dims is not None and len(ranks) != len(dims):
        raise ValueError(f"{len(ranks)} ranks given for an order-{len(dims)} tensor")
    if not ranks:
        raise ValueError("ranks must cover at least one mode")
    for j, r in enumerate(ranks):
        if not _is_int(r):
            raise ValueError(f"rank {r!r} for mode {j} must be an integer")
        n = float("inf") if dims is None else dims[j]
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} for mode {j} must be in [1, {n}]")
    return tuple(int(r) for r in ranks)


def _plain(obj):
    """``obj`` made JSON-safe: numpy values in it, at any depth, as Python values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


def _check_mode(mode, order: int, what: str = "mode") -> None:
    """Reject anything but a 0-based mode index of an order-``order`` tensor."""
    if not _is_int(mode) or not 0 <= mode < order:
        raise ValueError(f"{what} {mode!r} out of range for an order-{order} tensor")


def _check_positive(name: str, value) -> None:
    """Reject a ``value`` that is not a positive number, nan included."""
    if not 0.0 < value:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_ratio(dr) -> None:
    """Reject a dimension-reduction ratio outside (0, 1], nan included."""
    if not 0.0 < dr <= 1.0:
        raise ValueError(f"dr must be in (0, 1], got {dr}")


def _check_map(B, n: int, what: str = "mode map") -> np.ndarray:
    """A map as a float64 matrix with ``n`` columns; a float64 array is
    returned as is, not copied."""
    B = as_tensor(B)
    if B.ndim != 2 or B.shape[1] != n:
        raise ValueError(f"{what} must be a matrix with {n} columns, got shape {B.shape}")
    return B


def _check_signs(signs) -> np.ndarray:
    """A sign vector as float64; reject any entry other than +1.0 or -1.0."""
    signs = as_tensor(signs)
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("sign vector entries must be +1.0 or -1.0")
    return signs


# norms whose square is a normal float64
_NORM_MIN, _NORM_MAX = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)


def _check_values(X: np.ndarray, x_norm: float | None = None, what: str = "input tensor") -> None:
    """Reject a tensor with an inf or nan entry, or a nonzero one whose
    Frobenius norm ``x_norm`` (taken here when not given) has no normal
    float64 square: fits, residuals and Gram kernels all square it."""
    if x_norm is None:
        with np.errstate(over="ignore"):  # an overflow is rejected below
            x_norm = norm(X)
    # an inf or nan entry makes the norm non-finite (LAPACK hangs on one)
    if not np.isfinite(x_norm) and not np.isfinite(X).all():
        raise ValueError(f"{what} must be finite (found inf or nan entries)")
    if not (_NORM_MIN <= x_norm < _NORM_MAX or (x_norm == 0.0 and not X.any())):
        raise ValueError(f"the squared Frobenius norm of the {what} over- or underflows float64; rescale the tensor")


def from_vec(flat, shape: Sequence[int]) -> np.ndarray:
    """Build a tensor from its first-index-fastest vectorisation."""
    shape = _check_dims(shape)
    flat = as_tensor(flat).ravel()
    expected = int(np.prod(shape))
    if flat.size != expected:
        raise ValueError(f"expected {expected} values for shape {shape}, got {flat.size}")
    return flat.reshape(shape, order="F")


def to_vec(X) -> np.ndarray:
    """First-index-fastest vectorisation of a tensor."""
    return as_tensor(X).ravel(order="F")


def matricize(X, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of ``X``.

    Rows run over the selected mode; columns enumerate the remaining
    indices in increasing mode order, lowest mode fastest.
    """
    X = as_tensor(X)
    _check_mode(mode, X.ndim)
    return np.moveaxis(X, mode, 0).reshape(X.shape[mode], -1, order="F")


def mode_multiply(X, B, mode: int) -> np.ndarray:
    """Multiply ``X`` along ``mode`` by the matrix ``B``.

    Satisfies ``matricize(mode_multiply(X, B, j), j) == B @ matricize(X, j)``.
    Every mode product in the package goes through this one kernel: a
    single ``tensordot`` contraction over ``mode``, without an unfold and
    fold round trip.
    """
    X = as_tensor(X)
    _check_mode(mode, X.ndim)
    B = _check_map(B, X.shape[mode])
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
