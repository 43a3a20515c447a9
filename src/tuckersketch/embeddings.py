"""Oblivious norm-preserving embeddings and one-time mode mixing.

Two embedding families, each drawn from a caller-supplied generator:

* ``srft``: ``A = sqrt(n/m) * S F D`` where D is a diagonal Rademacher
  matrix, F the orthonormal DCT-II and S uniform row sampling without
  replacement.  The sqrt(n/m) factor makes ``||A x||^2`` unbiased for
  ``||x||^2``; with m == n the map is exactly orthogonal.
* ``gaussian``: i.i.d. N(0, 1/m) entries.

:func:`make_embedding` returns the m-by-n matrix A; an embedding is
applied by matrix or mode products.  An SRFT's rows are the columns of
(F D)^T at the sampled coordinates, built by :func:`unmix_factor`, so no
n-by-n array is formed.

Iterative solvers mix their data once by the fast transforms F D, with
one sign vector per compressed mode (:func:`draw_signs`, :func:`mix`),
redraw only the row sample S each sweep (:func:`draw_sample_rows`), and
pull their factors back through (F D)^T (:func:`unmix_factor`).  The mix
makes the solver's one C-ordered working copy: the first compressed
mode's DCT writes it chunk by chunk, whatever the input's layout, and
the other modes are transformed in place.  Sign vectors hold only +1.0
and -1.0, which keeps every flip exact.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .tensor import _check_count, _check_map, _check_mode, _check_positive, _check_ratio, _check_signs, as_tensor

__all__ = [
    "make_embedding",
    "draw_signs",
    "draw_sample_rows",
    "mix",
    "unmix_factor",
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
    _check_count("embedding size m", m)
    _check_count("embedding size n", n)
    if kind == "srft":
        signs = draw_signs(gen, n)
        rows = draw_sample_rows(gen, n, m)
        # row i of S F D is column rows[i] of (F D)^T
        E = np.zeros((n, m))
        E[rows, np.arange(m)] = 1.0
        # C order, as the transpose alone would not be: BLAS sums the
        # products of a transposed operand in another order
        return np.multiply(np.sqrt(n / m), unmix_factor(E, signs).T, order="C")
    return gen.standard_normal((m, n)) / np.sqrt(m)


def draw_signs(gen: np.random.Generator, n: int) -> np.ndarray:
    """n independent Rademacher signs, as floats +1.0 / -1.0."""
    return gen.integers(0, 2, size=n) * 2.0 - 1.0


def draw_sample_rows(gen: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Uniform sample of m distinct row indices out of n."""
    if m > n:
        raise ValueError(f"cannot sample {m} rows out of {n} without replacement")
    return gen.choice(n, size=m, replace=False)


def sample_size(dr: float, n: int) -> int:
    """Per-mode sample count for a dimension-reduction ratio, round half up."""
    _check_ratio(dr)
    return max(1, int(np.floor(dr * n + 0.5)))


def mix(X, signs: dict[int, np.ndarray]) -> np.ndarray:
    """Mix a tensor by F D along every mode ``j`` of ``signs``, where D is
    the diagonal of ``signs[j]`` and F the orthonormal DCT-II (norm
    preserving).

    The result is one C-ordered working copy, and the first mixed mode's
    transform writes it: ``X`` is read in about 16 chunks along another
    mode, each chunk flipped by every sign vector and transformed out of
    place into its slice of the copy.  The other mixed modes are then
    transformed in place, in increasing mode order.  A flip is exact and
    commutes with the transforms along other modes, so the result is
    bitwise that of flipping and transforming mode by mode.  ``X`` itself
    is never written, and it is returned as is when ``signs`` is empty.
    """
    X = as_tensor(X)
    flips = {}
    for j, s in signs.items():
        _check_mode(j, X.ndim)
        if np.shape(s) != (X.shape[j],):
            raise ValueError(f"sign vector of shape {np.shape(s)} for mode {j} of size {X.shape[j]}")
        flips[j] = _check_signs(s).reshape([-1 if k == j else 1 for k in range(X.ndim)])
    if not flips:
        return X
    modes = sorted(flips)
    f = modes[0]
    # C order: the row takes and mode products downstream are several
    # times slower on a first-index-fastest copy
    out = np.empty(X.shape)
    c = (f + 1) % X.ndim  # the chunked mode; an order-1 tensor is one chunk
    step = max(1, X.shape[c] if c == f else -(-X.shape[c] // 16))
    # at least one chunk: an empty mode f is the DCT's to reject
    for a in range(0, max(1, X.shape[c]), step):
        at = (slice(None),) * c + (slice(a, a + step),)
        # mode c's signs are sliced with the chunk, the others broadcast
        chunk_flips = [flips[j][at] if j == c else flips[j] for j in modes]
        chunk = X[at] * chunk_flips[0]
        for flip in chunk_flips[1:]:
            chunk *= flip
        out[at] = scipy.fft.dct(chunk, type=2, axis=f, norm="ortho")
    for j in modes[1:]:
        out = scipy.fft.dct(out, type=2, axis=j, norm="ortho", overwrite_x=True)
    return out


def unmix_factor(G, signs: np.ndarray | None) -> np.ndarray:
    """Pull a factor matrix back through one mode's mixing map: ``(F D)^T G``
    with D the diagonal of ``signs``; a no-op when ``signs`` is None.

    Inverts the mix (sign flip then DCT) by applying the inverse DCT and
    then the sign flip.
    """
    G = as_tensor(G)
    if G.ndim not in (1, 2):
        raise ValueError(f"factor must be a vector or a matrix, got an order-{G.ndim} array")
    if signs is None:
        return G
    if np.shape(signs) != G.shape[:1]:
        raise ValueError(f"factor has {G.shape[0]} rows, sign vector has shape {np.shape(signs)}")
    signs = _check_signs(signs)
    return signs.reshape((-1,) + (1,) * (G.ndim - 1)) * scipy.fft.idct(G, type=2, axis=0, norm="ortho")


def is_eps_jl(A: np.ndarray, vectors, eps: float) -> bool:
    """Whether ``| ||A x||^2 / ||x||^2 - 1 | < eps`` holds for every given
    vector (the rows of ``vectors``) under the embedding matrix ``A``.

    Zero vectors pass vacuously (distortion 0).  The comparison is
    strict, matching the open-interval definition of the property.
    """
    _check_positive("eps", eps)
    V = np.atleast_2d(as_tensor(vectors))
    A = _check_map(A, V.shape[1], "embedding")
    sq = np.sum(V * V, axis=1)
    mapped = A @ V.T
    mapped_sq = np.sum(mapped * mapped, axis=0)
    distortions = np.zeros(len(sq))
    nonzero = sq > 0.0
    distortions[nonzero] = mapped_sq[nonzero] / sq[nonzero] - 1.0
    return bool(np.all(np.abs(distortions) < eps))
