"""Oblivious norm-preserving embeddings and one-time mode mixing.

Two embedding families, each drawn from a caller-supplied generator:

* ``srft``: ``A = sqrt(n/m) * S F D`` where D is a diagonal Rademacher
  matrix, F the orthonormal DCT-II and S uniform row sampling without
  replacement.  The sqrt(n/m) factor makes ``||A x||^2`` unbiased for
  ``||x||^2``; with m == n the map is exactly orthogonal.
* ``gaussian``: i.i.d. N(0, 1/m) entries.

:func:`make_embedding` returns the m-by-n matrix A; an embedding is
applied by matrix or mode products.  An SRFT's rows are built from m
inverse DCTs, so no n-by-n array is formed.

The mixing half (F, D per mode) is split out into :class:`MixOperators`
so iterative solvers can mix their data once, by fast transforms, and
redraw only the sampling part each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import rng
from .tensor import as_tensor

__all__ = [
    "MixOperators",
    "JLCheck",
    "make_embedding",
    "make_mix_operators",
    "mix",
    "unmix_factor",
    "draw_sample_rows",
    "sample_size",
    "is_eps_jl",
]

FAMILIES = ("srft", "gaussian")


def make_embedding(kind: str, n: int, m: int, gen: np.random.Generator) -> np.ndarray:
    """Draw the m-by-n matrix of an embedding of the given family from
    ``gen``: an SRFT draws its n signs, then its m rows; a Gaussian map
    draws its matrix."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown embedding family {kind!r}, expected one of {FAMILIES}")
    if m < 1 or n < 1:
        raise ValueError(f"embedding sizes must be positive, got m={m}, n={n}")
    if kind == "srft":
        if m > n:
            raise ValueError(f"srft requires m <= n, got m={m}, n={n}")
        signs = gen.integers(0, 2, size=n) * 2.0 - 1.0
        rows = draw_sample_rows(gen, n, m)
        # row i of F is the inverse DCT of the unit vector e_i
        A = np.zeros((m, n))
        A[np.arange(m), rows] = 1.0
        A = scipy.fft.idct(A, type=2, axis=1, norm="ortho", overwrite_x=True)
        A *= np.sqrt(n / m) * signs
        return A
    return gen.standard_normal((m, n)) / np.sqrt(m)


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
    """Mix a tensor along every mode the operators cover (norm preserving).

    The result is one C-ordered working copy, flipped and transformed in
    place mode by mode; ``X`` itself is never written, and it is returned
    as is when the operators cover no mode.
    """
    X = as_tensor(X)
    if X.shape != ops.shape:
        raise ValueError(f"tensor shape {X.shape} does not match operators {ops.shape}")
    if all(signs is None for signs in ops.signs):
        return X
    # C order: the row takes and mode products downstream are several
    # times slower on a first-index-fastest copy
    out = np.array(X, order="C")
    for j, signs in enumerate(ops.signs):
        if signs is not None:
            shape = [1] * out.ndim
            shape[j] = -1
            out *= signs.reshape(shape)
            out = scipy.fft.dct(out, type=2, axis=j, norm="ortho", overwrite_x=True)
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


def is_eps_jl(A: np.ndarray, vectors, eps: float) -> JLCheck:
    """Check ``| ||A x||^2 / ||x||^2 - 1 | < eps`` for every given vector
    (the rows of ``vectors``) under the embedding matrix ``A``.

    Zero vectors pass vacuously (distortion 0).  The comparison is
    strict, matching the open-interval definition of the property.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    V = np.atleast_2d(as_tensor(vectors))
    if V.shape[1] != A.shape[1]:
        raise ValueError(f"vectors have length {V.shape[1]}, embedding expects {A.shape[1]}")
    sq = np.sum(V * V, axis=1)
    mapped = A @ V.T
    mapped_sq = np.sum(mapped * mapped, axis=0)
    distortions = np.zeros(len(sq))
    nonzero = sq > 0.0
    distortions[nonzero] = mapped_sq[nonzero] / sq[nonzero] - 1.0
    passed = np.abs(distortions) < eps
    return JLCheck(distortions=distortions, passed=passed, ok=bool(passed.all()))
