"""Oblivious norm-preserving embeddings and one-time mode mixing.

Two embedding families, each drawn from a caller-supplied generator:

* ``srft``: scaled row sampling of an orthogonally mixed input,
  ``A = sqrt(n/m) * S F D`` where D is a diagonal Rademacher matrix, F
  the orthonormal DCT-II and S uniform row sampling without replacement.
  The sqrt(n/m) factor makes ``||A x||^2`` unbiased for ``||x||^2``; with
  m == n the map is exactly orthogonal.  S is never materialised as a
  matrix, application subsets rows of the mixed input.
* ``gaussian``: i.i.d. N(0, 1/m) entries.

The mixing half (F, D per mode) is split out into :class:`MixOperators`
so iterative solvers can mix their data once and redraw only the
sampling part each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

from . import rng
from .tensor import as_tensor, mode_multiply

__all__ = [
    "Embedding",
    "MixOperators",
    "JLCheck",
    "make_embedding",
    "apply_embedding",
    "embedding_matrix",
    "dct_matrix",
    "make_mix_operators",
    "mix",
    "unmix_factor",
    "draw_sample_rows",
    "subsample_mode",
    "sample_size",
    "is_eps_jl",
]

FAMILIES = ("srft", "gaussian")

@lru_cache(maxsize=32)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n (explicit, for oracle paths)."""
    return scipy.fft.dct(np.eye(n), type=2, axis=0, norm="ortho")


@dataclass(frozen=True)
class Embedding:
    """An m-by-n norm-preserving map, as drawn by :func:`make_embedding`."""

    kind: str
    n: int
    m: int
    sample_rows: np.ndarray | None = None
    signs: np.ndarray | None = None
    scale: float = 1.0
    matrix: np.ndarray | None = None


def make_embedding(kind: str, n: int, m: int, gen: np.random.Generator) -> Embedding:
    """Draw an embedding of the given family from ``gen``: an SRFT draws its
    n signs, then its m rows; a Gaussian map draws its m-by-n matrix."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown embedding family {kind!r}, expected one of {FAMILIES}")
    if m < 1 or n < 1:
        raise ValueError(f"embedding sizes must be positive, got m={m}, n={n}")
    if kind == "srft":
        if m > n:
            raise ValueError(f"srft requires m <= n, got m={m}, n={n}")
        signs = gen.integers(0, 2, size=n) * 2.0 - 1.0
        rows = draw_sample_rows(gen, n, m)
        return Embedding(kind, n, m, sample_rows=rows, signs=signs, scale=float(np.sqrt(n / m)))
    return Embedding(kind, n, m, matrix=gen.standard_normal((m, n)) / np.sqrt(m))


def draw_sample_rows(gen: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Uniform sample of m distinct row indices out of n."""
    if m > n:
        raise ValueError(f"cannot sample {m} rows out of {n} without replacement")
    return gen.choice(n, size=m, replace=False)


def sample_size(dr: float, n: int) -> int:
    """Per-mode sample count for a dimension-reduction ratio, round half up."""
    if not 0.0 < dr <= 1.0:
        raise ValueError(f"dimension-reduction ratio must be in (0, 1], got {dr}")
    return max(1, int(np.floor(dr * n + 0.5)))


def _sign_dct(X: np.ndarray, signs: np.ndarray, mode: int) -> np.ndarray:
    """Sign flip then orthonormal DCT-II along ``mode``: the mixing step
    shared by the SRFT and by :func:`mix`."""
    shape = [1] * X.ndim
    shape[mode] = -1
    return scipy.fft.dct(X * signs.reshape(shape), type=2, axis=mode, norm="ortho")


def apply_embedding(E: Embedding, X, mode: int = 0) -> np.ndarray:
    """Apply the embedding along one mode of a tensor; the default mode 0
    maps a vector, or each column of a matrix of stacked columns.

    An SRFT mixes the mode (sign flip, DCT) and keeps its sampled rows
    through :func:`subsample_mode`; a Gaussian map is one mode product.
    Neither unfolds the tensor.
    """
    X = as_tensor(X)
    if not 0 <= mode < X.ndim or X.shape[mode] != E.n:
        raise ValueError(f"mode {mode} of a tensor of shape {X.shape} does not have size {E.n}")
    if E.kind == "srft":
        return subsample_mode(_sign_dct(X, E.signs, mode), E.sample_rows, E.scale, mode)
    return mode_multiply(X, E.matrix, mode)


def embedding_matrix(E: Embedding) -> np.ndarray:
    """Explicit dense matrix of the embedding (oracle path)."""
    if E.kind == "srft":
        return E.scale * (dct_matrix(E.n) * E.signs[None, :])[E.sample_rows, :]
    return E.matrix


def subsample_mode(X, rows: np.ndarray, scale: float, mode: int) -> np.ndarray:
    """Implicit application of scaled row sampling along one tensor mode."""
    return np.take(as_tensor(X), rows, axis=mode) * scale


@dataclass(frozen=True)
class MixOperators:
    """Per-mode sign-flip plus DCT mixing maps (None entries skip a mode)."""

    shape: tuple[int, ...]
    signs: tuple[np.ndarray | None, ...]


def make_mix_operators(shape, modes, seed: int) -> MixOperators:
    """Draw one Rademacher sign vector per listed mode."""
    shape = tuple(int(n) for n in shape)
    signs: list[np.ndarray | None] = [None] * len(shape)
    for j in modes:
        if not 0 <= j < len(shape):
            raise ValueError(f"mode {j} out of range for shape {shape}")
        signs[j] = rng.stream(seed, rng.MIX, j).integers(0, 2, size=shape[j]) * 2.0 - 1.0
    return MixOperators(shape=shape, signs=tuple(signs))


def mix(X, ops: MixOperators) -> np.ndarray:
    """Mix a tensor along every mode the operators cover (norm preserving)."""
    X = as_tensor(X)
    if X.shape != ops.shape:
        raise ValueError(f"tensor shape {X.shape} does not match operators {ops.shape}")
    out = X
    for j, signs in enumerate(ops.signs):
        if signs is not None:
            out = _sign_dct(out, signs, j)
    return out


def unmix_factor(G, ops: MixOperators, mode: int) -> np.ndarray:
    """Pull a factor matrix back through the mode's mixing map.

    Inverts the mix (sign flip then DCT) by applying the inverse DCT and
    then the sign flip; a no-op for modes the operators skip.
    """
    G = as_tensor(G)
    signs = ops.signs[mode]
    if signs is None:
        return G
    if G.shape[0] != ops.shape[mode]:
        raise ValueError(f"factor has {G.shape[0]} rows, mode {mode} has size {ops.shape[mode]}")
    return signs[:, None] * scipy.fft.idct(G, type=2, axis=0, norm="ortho")


@dataclass
class JLCheck:
    """Per-vector squared-norm distortions under an embedding."""

    distortions: np.ndarray = field(default_factory=lambda: np.zeros(0))
    passed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    ok: bool = True


def is_eps_jl(E: Embedding, vectors, eps: float) -> JLCheck:
    """Check ``| ||A x||^2 / ||x||^2 - 1 | < eps`` for every given vector.

    Zero vectors pass vacuously (distortion 0).  The comparison is
    strict, matching the open-interval definition of the property.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    V = np.atleast_2d(as_tensor(vectors))
    if V.shape[1] != E.n:
        raise ValueError(f"vectors have length {V.shape[1]}, embedding expects {E.n}")
    sq = np.sum(V * V, axis=1)
    mapped = apply_embedding(E, V.T)
    mapped_sq = np.sum(mapped * mapped, axis=0)
    distortions = np.zeros(len(sq))
    nonzero = sq > 0.0
    distortions[nonzero] = mapped_sq[nonzero] / sq[nonzero] - 1.0
    passed = np.abs(distortions) < eps
    return JLCheck(distortions=distortions, passed=passed, ok=bool(passed.all()))
