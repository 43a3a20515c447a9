"""Tucker decompositions: reconstruction, coherence, and mode maps.

A Tucker decomposition stores a core tensor of shape ``(R_1, ..., R_q)``
together with q factor matrices, the j-th of shape ``(n_j, R_j)``.  The
represented tensor is the core multiplied by every factor along its
mode.  When the ``orthogonal`` flag is set each factor must have
orthonormal columns (checked at construction to 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import as_tensor, matricize, mode_multiply, multi_mode_multiply

__all__ = [
    "TuckerDecomposition",
    "random_orthogonal_tucker",
    "reconstruct",
    "mode_coherence",
    "apply_mode_map",
    "norm_via_gram",
    "psi_matrix",
]

_ORTHO_TOL = 1e-10
_SINGULAR_COLUMN_TOL = 1e-14


@dataclass
class TuckerDecomposition:
    """Core tensor plus per-mode factor matrices."""

    core: np.ndarray
    factors: list[np.ndarray]
    orthogonal: bool = False

    def __post_init__(self):
        self.core = as_tensor(self.core)
        self.factors = [as_tensor(f) for f in self.factors]
        if len(self.factors) != self.core.ndim:
            raise ValueError(
                f"core has order {self.core.ndim} but {len(self.factors)} factors given"
            )
        for j, f in enumerate(self.factors):
            if f.ndim != 2:
                raise ValueError(f"factor {j} is not a matrix")
            n_j, r_j = f.shape
            if r_j != self.core.shape[j]:
                raise ValueError(
                    f"factor {j} has {r_j} columns but core mode {j} has size {self.core.shape[j]}"
                )
            if r_j > n_j:
                raise ValueError(f"factor {j} has more columns ({r_j}) than rows ({n_j})")
        if self.orthogonal:
            for j, f in enumerate(self.factors):
                dev = _orthonormality_gap(f)
                if not dev <= _ORTHO_TOL:
                    raise ValueError(
                        f"factor {j} marked orthogonal but deviates from orthonormality by {dev:.3e}"
                    )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.core.shape)

    @property
    def order(self) -> int:
        return self.core.ndim


def _orthonormality_gap(f: np.ndarray) -> float:
    """Largest entry of ``|f^T f - I|``; orthonormal means at most ``_ORTHO_TOL``."""
    return float(np.max(np.abs(f.T @ f - np.eye(f.shape[1]))))


def random_orthogonal_tucker(dims, ranks, gen: np.random.Generator) -> TuckerDecomposition:
    """Random decomposition drawn from ``gen``: orthonormal factors (QR of
    N(0,1) matrices, in mode order), then an N(0,1) core."""
    factors = [np.linalg.qr(gen.standard_normal((n, r)))[0] for n, r in zip(dims, ranks)]
    return TuckerDecomposition(gen.standard_normal(tuple(ranks)), factors, orthogonal=True)


def reconstruct(T: TuckerDecomposition) -> np.ndarray:
    """Dense tensor represented by the decomposition."""
    return multi_mode_multiply(T.core, T.factors)


def mode_coherence(T: TuckerDecomposition, mode: int) -> float:
    """Largest absolute cosine between distinct columns of factor ``mode``.

    Single-column factors have coherence 0 by convention.  A zero column
    is an error (its direction is undefined).
    """
    if not 0 <= mode < T.order:
        raise ValueError(f"mode {mode} out of range for order-{T.order} decomposition")
    f = T.factors[mode]
    r = f.shape[1]
    if r == 1:
        return 0.0
    norms = np.linalg.norm(f, axis=0)
    if np.any(norms == 0.0):
        raise ValueError(f"factor {mode} has a zero column")
    gram = np.abs((f / norms).T @ (f / norms))
    np.fill_diagonal(gram, 0.0)
    return float(min(1.0, gram.max()))


def apply_mode_map(T: TuckerDecomposition, B, mode: int) -> TuckerDecomposition:
    """Push a linear map through one mode, renormalising the new columns.

    The mapped factor keeps unit columns ``B @ g / ||B @ g||`` and the
    core absorbs the column norms along the same mode, so the result
    represents ``mode_multiply(reconstruct(T), B, mode)``.  Raises if a
    transformed column has norm below 1e-14 (direction undefined).  The
    result's ``orthogonal`` flag is always cleared.
    """
    if not 0 <= mode < T.order:
        raise ValueError(f"mode {mode} out of range for order-{T.order} decomposition")
    B = as_tensor(B)
    mapped = B @ T.factors[mode]
    col_norms = np.linalg.norm(mapped, axis=0)
    if np.any(col_norms < _SINGULAR_COLUMN_TOL):
        raise ValueError("mode map sends a factor column below norm 1e-14")
    new_core = mode_multiply(T.core, np.diag(col_norms), mode)
    new_factors = list(T.factors)
    new_factors[mode] = mapped / col_norms
    return TuckerDecomposition(new_core, new_factors, orthogonal=False)


def psi_matrix(core, factors, mode: int) -> np.ndarray:
    """Weight matrix pairing factor-``mode`` columns with everything else.

    Returns the ``(R_mode, prod(n_k, k != mode))`` matrix W such that the
    mode unfolding of the reconstruction is ``factors[mode] @ W``: the
    mode unfolding of the core multiplied by every other factor along its
    mode.  The factors need not form a valid decomposition (a factor may
    have fewer rows than columns), and ``factors[mode]`` is never read.
    """
    core = as_tensor(core)
    if not 0 <= mode < core.ndim:
        raise ValueError(f"mode {mode} out of range for order-{core.ndim} decomposition")
    others = [None if k == mode else f for k, f in enumerate(factors)]
    return matricize(multi_mode_multiply(core, others), mode)


def norm_via_gram(T: TuckerDecomposition, B, mode: int) -> float:
    """Squared norm of the reconstruction mapped by ``B`` along ``mode``.

    Evaluates sum_{r,s} (W W^T)_{rs} <B g_r, B g_s> with W the mode
    weight matrix and g_r the columns of the mode factor, which equals
    ``norm(mode_multiply(reconstruct(T), B, mode)) ** 2`` without forming
    the mapped tensor.
    """
    psi = psi_matrix(T.core, T.factors, mode)
    B = as_tensor(B)
    if B.ndim != 2 or B.shape[1] != T.shape[mode]:
        raise ValueError(
            f"mode map must have {T.shape[mode]} columns, got shape {B.shape}"
        )
    return _weighted_sq_norm(psi @ psi.T, B @ T.factors[mode])


def _weighted_sq_norm(weight: np.ndarray, mapped: np.ndarray) -> float:
    """sum_{r,s} weight_{rs} <mapped_r, mapped_s> over the columns of ``mapped``."""
    return float(np.sum(weight * (mapped.T @ mapped)))
