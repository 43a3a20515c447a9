"""Brute-force reference implementations used to cross-check the fast paths.

These deliberately enumerate indices one at a time; with small integer
data both routes are exact in float64, so comparisons can demand
bitwise equality.  The distortion oracles at the end instead take the
dense route: they materialise every tensor and every embedding matrix.
"""

import numpy as np
import scipy.fft

from tuckersketch.bench import synth_tensor
from tuckersketch.bounds import _trial, _trial_embeddings
from tuckersketch.tensor import multi_mode_multiply, norm
from tuckersketch.tucker import TuckerDecomposition, random_orthogonal_tucker, reconstruct


def matricize_oracle(X, mode):
    """Index-loop unfolding: column index accumulates the remaining modes
    in increasing order, lowest mode fastest."""
    dims = X.shape
    rest = [k for k in range(X.ndim) if k != mode]
    ncols = 1
    for k in rest:
        ncols *= dims[k]
    M = np.zeros((dims[mode], ncols))
    for idx in np.ndindex(*dims):
        col = 0
        stride = 1
        for k in rest:
            col += idx[k] * stride
            stride *= dims[k]
        M[idx[mode], col] = X[idx]
    return M


def mode_multiply_oracle(X, B, mode):
    """Index-loop mode product."""
    out_shape = list(X.shape)
    out_shape[mode] = B.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out.shape):
        acc = 0.0
        for t in range(X.shape[mode]):
            src = list(idx)
            src[mode] = t
            acc += B[idx[mode], t] * X[tuple(src)]
        out[idx] = acc
    return out


def st_hosvd_oracle(X, ranks):
    """Sequentially truncated HOSVD factors: in mode order, the leading
    left singular vectors (thin SVD) of the mode-j unfolding of ``X``
    already projected onto the factors of modes < j."""
    Y, factors = X, []
    for j, r in enumerate(ranks):
        U = np.linalg.svd(matricize_oracle(Y, j), full_matrices=False)[0][:, :r]
        factors.append(U)
        Y = mode_multiply_oracle(Y, U.T, j)
    return factors


def integer_tensor(gen, shape, low=-4, high=5):
    """Random small-integer tensor; float64 arithmetic on it is exact."""
    return gen.integers(low, high, size=shape).astype(np.float64)


def unsolvable(kind):
    """An 8x8x8 tensor that decompose rejects: all zeros ("zero"), one
    inf entry ("inf") or a squared norm that overflows float64 ("huge")."""
    X = synth_tensor((8, 8, 8), (2, 2, 2), 0.1, 0)
    if kind == "zero":
        return np.zeros_like(X)
    if kind == "inf":
        X[3, 1, 4] = np.inf
        return X
    return 1e160 * X


def dct_matrix(n):
    """Explicit orthonormal DCT-II matrix of size n."""
    return scipy.fft.dct(np.eye(n), type=2, axis=0, norm="ortho")


def multimode_distortion_oracle(dims, ranks, embed_dims, trials, seed, family):
    """Per-trial distortions of the multimode check, from dense tensors."""
    out = []
    for t in range(trials):
        gen = _trial(seed, t)
        T = random_orthogonal_tucker(dims, ranks, gen)
        mats = _trial_embeddings(family, dims, embed_dims, gen)
        Y = reconstruct(T)
        sq = norm(Y) ** 2
        out.append(abs(norm(multi_mode_multiply(Y, mats)) ** 2 - sq) / sq)
    return out


def residual_distortion_oracle(X, core, factors, mode, embed_dims, trials, seed, y_samples, family):
    """Per-trial worst distortions of the residual check, from dense tensors."""
    out = []
    for t in range(trials):
        gen = _trial(seed, t)
        mats = _trial_embeddings(family, X.shape, embed_dims, gen)
        draws = gen.standard_normal((y_samples, X.shape[mode], core.shape[mode]))
        LX = multi_mode_multiply(X, mats)
        worst = 0.0
        for draw in draws:
            A = np.linalg.qr(draw)[0]
            Y = reconstruct(TuckerDecomposition(core, [A if k == mode else f for k, f in enumerate(factors)]))
            sq = norm(X - Y) ** 2
            if sq > 0.0:
                worst = max(worst, abs(norm(LX - multi_mode_multiply(Y, mats)) ** 2 - sq) / sq)
        out.append(worst)
    return out


def subspace_dim_oracle(core, factors, mode, gen, extra=8):
    """Numerical rank of sampled reconstructions with random orthonormal
    factors in ``mode``: more samples than the span can hold."""
    n, r = factors[mode].shape[0], core.shape[mode]
    cols = []
    for _ in range(n * r + extra):
        A = np.linalg.qr(gen.standard_normal((n, r)))[0]
        fs = [A if k == mode else f for k, f in enumerate(factors)]
        cols.append(reconstruct(TuckerDecomposition(core, fs)).ravel(order="F"))
    return int(np.linalg.matrix_rank(np.column_stack(cols)))
