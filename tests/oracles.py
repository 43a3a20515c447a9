"""Brute-force reference implementations used to cross-check the fast paths.

These deliberately enumerate indices one at a time; with small integer
data both routes are exact in float64, so comparisons can demand
bitwise equality.  The distortion oracles at the end instead take the
dense route: they materialise every tensor and every embedding matrix.
"""

import numpy as np

from tuckersketch import rng
from tuckersketch.bounds import _trial_embeddings
from tuckersketch.embeddings import embedding_matrix
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


def integer_tensor(gen, shape, low=-4, high=5):
    """Random small-integer tensor; float64 arithmetic on it is exact."""
    return gen.integers(low, high, size=shape).astype(np.float64)


def _embedding_matrices(params, family, gen):
    """Dense matrices of a trial's per-mode embeddings, drawn from ``gen`` as the checks draw them."""
    return [embedding_matrix(E) for E in _trial_embeddings(params, family, gen)]


def multimode_distortion_oracle(params, family):
    """Per-trial distortions of the multimode check, from dense tensors."""
    out = []
    for t in range(params.trials):
        gen = rng.stream(params.seed, rng.TRIAL, t)
        T = random_orthogonal_tucker(params.dims, params.ranks, gen)
        mats = _embedding_matrices(params, family, gen)
        Y = reconstruct(T)
        sq = norm(Y) ** 2
        out.append(abs(norm(multi_mode_multiply(Y, mats)) ** 2 - sq) / sq)
    return out


def residual_distortion_oracle(X, params, core, factors, mode, family):
    """Per-trial worst distortions of the residual check, from dense tensors."""
    out = []
    for t in range(params.trials):
        gen = rng.stream(params.seed, rng.TRIAL, t)
        mats = _embedding_matrices(params, family, gen)
        draws = gen.standard_normal((params.y_samples, params.dims[mode], core.shape[mode]))
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
