"""Tucker solvers: one staged engine for the truncated HOSVD and three
orthogonal-iteration variants.

Every method runs the same phases, mix -> init -> sweeps -> finalize, and
returns factors with orthonormal columns plus a run report.  The methods
differ only in the compressed modes, the number of sweeps and the data
the core is fitted to, and the engine reads these three facts off the
method once, before the mix: ``sizes``, the rows sampled per compressed
mode (none for ``hosvd`` and ``hooi``); ``sweeps`` (0 for ``hosvd``);
and ``least_squares``, whether the core is fitted to the sketch (only
``hooi-re``).  Past the initial guess no step asks which method runs.

* ``hosvd``         the classic truncated HOSVD on the raw tensor (every
                    factor from a full-size unfolding) and zero sweeps.
* ``hooi``          no compressed mode: mixing and unmixing are the
                    identity, no rows are sampled, and each sweep is the
                    classic alternating scheme on the raw tensor.
* ``hooi-re``       the tensor is mixed once along the compressed modes
                    (random signs then orthonormal DCT-II), every sweep
                    redraws a row sample per compressed mode, factor
                    updates use the sketched tensor and the core solves
                    a least-squares problem on the fully sketched data,
                    always by the pseudoinverse of each sketched factor
                    (relative cutoff 1e-12), also when a sample is
                    smaller than the rank.
* ``hooi-re-star``  identical sweeps, but the core update projects the
                    full mixed tensor instead of the sketched one.

The iterative methods start by default from the sequentially truncated
HOSVD (ST-HOSVD, Vannieuwenhoven, Vandebril & Meerbergen 2012), sketched
along the compressed modes as in the randomized ST-HOSVD of Minster,
Saibaba & Kilmer (2020): mode j's factor is taken from the working
tensor already projected onto the factors of modes < j, so only mode 0
unfolds a full-size tensor.

Factor updates are the closed-form polar solution of each block
least-squares problem: with every other quantity held fixed, the best
orthonormal factor is U V^T from a thin SVD of the partially contracted
unfolding times the core unfolding transposed.  The randomized variants
use the most recently updated core throughout a sweep.

The one full-size array a run allocates is the mixed working copy
``Xw`` (none when no mode is compressed, where ``Xw`` is the input
itself); every sketch, factor update and core update works on it.
Every sweep carries ``head = Xw x_{k<j} S_k^T`` from mode to mode (the
memoised HOOI of Kaya & Ucar, ICPP 2016), S_k being U_k at mode k's
sampled rows, or all of U_k on an uncompressed mode.  A sweep builds
the list of S_k once, after it draws its samples, and replaces S_j when
U_j changes: ``W_j`` is ``head`` row-sampled and contracted along the
modes > j, then mode j takes its rows and ``head <- head x_j S_j^T``.  Every array gets the
row takes and mode products of a fresh pass over ``Xw``, so the outputs
match that pass bitwise, but a sweep reads all of ``Xw`` three times
(``W_0``, the head's first step, the core) instead of q + 1, and
``hooi``, whose core is ``head x_{q-1} U_{q-1}^T``, twice.

Convergence is declared when the relative fit (1 - residual/norm),
measured on the data the method actually fits (sketched data for
``hooi-re``, mixed data for the others), improves by less than
``rel_tol``.  The reported ``final_error`` is the Frobenius
reconstruction error against the original input; with zero sweeps the
fit trace holds the one fit of the initial guess.  Mixing is orthogonal,
so both residuals are taken on ``Xw`` with the mixed factors, before
the factors are pulled back through the mixing maps.  Neither forms a
reconstruction: with orthonormal factors and P the projection of ``Xw``
onto them,

    ||Xw - G x_k U_k||^2 = ||Xw||^2 - 2 <P, G> + ||G||^2,

where P is the core itself for ``hosvd``, ``hooi`` and ``hooi-re-star``
and one extra projection pass for ``hooi-re``'s least-squares core.
When that sum falls below 1e-6 ||Xw||^2 the expansion has cancelled to
rounding noise (near-exact recovery), and the residual is recomputed
densely instead.  ``hooi-re``'s sweep fit is the dense residual on its
small sketched data, whose factors are not orthonormal.  ||Xw|| is taken
once, in the mix phase.

Every phase is timed into one table of per-phase lists: the mix becomes
``preprocess_ms``, and the rest is ``stage_times``, with the initial
guess and the finalisation (unmixing plus final error) as one-entry
``"init"`` and ``"finalize"`` lists and one entry per sweep in each of
the four ``STAGES``.  Row takes count in ``embed_apply``; mode products
and the build of the S_k in ``factor_update``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .embeddings import draw_sample_rows, draw_signs, mix, sample_size, unmix_factor
from .tensor import (_check_count, _check_mode, _check_ranks, _check_ratio, _check_values, _plain, as_tensor,
                     inner, matricize, mode_multiply, multi_mode_multiply, norm)
from .tucker import TuckerDecomposition, reconstruct

__all__ = [
    "DecomposerConfig",
    "RunReport",
    "METHODS",
    "INITS",
    "STAGES",
    "decompose",
    "hosvd",
    "reconstruction_error",
]

METHODS = ("hosvd", "hooi", "hooi-re", "hooi-re-star")
INITS = ("hosvd", "random")
RANDOMIZED = ("hooi-re", "hooi-re-star")
STAGES = ("embed_generate", "embed_apply", "factor_update", "core_update")

_PINV_RCOND = 1e-12
# below this share of ||Xw||^2 the expanded residual is rounding noise
_CANCELLATION = 1e-6
# Forming G = M M^T and diagonalising it perturbs G by ~c u lambda_1
# (u = 1.1e-16, c a modest growth factor), and by the Davis-Kahan sin-theta
# bound each kept eigenvector then turns by at most that over its gap to
# the rest of the spectrum.  Gaps above _GRAM_GAP lambda_1 thus bound the
# column error by ~c u / _GRAM_GAP = c 1.1e-10 (c <= 3 measured on 120 x
# 14400 unfoldings), under the 1e-9 the kernel is tested to; where the top
# spectrum is that clustered the R-SVD's own error is as large.  Graded
# spectra, whose small gaps only the R-SVD resolves, fail the guard.
_GRAM_GAP = 1e-6
# lambda_1 eps, the rounding level the gaps are read against, stays normal
_GRAM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass
class DecomposerConfig:
    ranks: tuple[int, ...]
    method: str = "hooi"
    dr: float = 1.0
    compress_modes: tuple[int, ...] | None = None  # None = every mode
    max_iters: int = 100
    rel_tol: float = 1e-5
    seed: int = 0
    init: str = "hosvd"  # one of INITS

    def resolved_compress_modes(self, order: int) -> tuple[int, ...]:
        if self.compress_modes is None:
            return tuple(range(order))
        return tuple(self.compress_modes)

    def validate(self, shape: tuple[int, ...]) -> None:
        q = len(shape)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}, expected {' or '.join(map(repr, INITS))}")
        _check_ranks(self.ranks, shape)
        _check_count("max_iters", self.max_iters)
        if not self.rel_tol >= 0.0:  # also rejects nan, under which no run would stop
            raise ValueError(f"rel_tol must be a non-negative number, got {self.rel_tol}")
        rng._check_seed(self.seed)
        _check_ratio(self.dr)
        if self.method in RANDOMIZED:
            modes = self.resolved_compress_modes(q)
            if len(modes) == 0:
                raise ValueError("randomized methods need at least one compressed mode")
            for j in modes:
                _check_mode(j, q, "compressed mode")
            if len(set(modes)) != len(modes):
                raise ValueError(f"duplicate compressed modes: {modes}")


@dataclass
class RunReport:
    method: str
    ranks: tuple[int, ...]
    dr: float
    seed: int
    iterations: int
    final_error: float
    fit_trace: list[float] = field(default_factory=list)
    stage_times: dict[str, list[float]] = field(default_factory=dict)
    preprocess_ms: float = 0.0
    init_kernels: list[str] = field(default_factory=list)  # per mode: "gram" or "r-svd"
    stop_reason: str = ""  # "converged", "max_iters" or "no_sweeps"
    sample_sizes: list[int] = field(default_factory=list)  # rows per sweep, per mode

    def mean_stage_ms(self, stage: str) -> float:
        times = self.stage_times.get(stage, [])
        return float(np.mean(times)) if times else 0.0

    def to_dict(self) -> dict:
        return _plain(asdict(self))


def reconstruction_error(X, T: TuckerDecomposition) -> float:
    """Frobenius norm of ``X - reconstruct(T)``."""
    X = as_tensor(X)
    if X.shape != T.shape:
        raise ValueError(f"tensor shape {X.shape} does not match decomposition {T.shape}")
    return norm(X - reconstruct(T))


def _fix_sign(U: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(U), axis=0)
    flips = np.where(U[idx, np.arange(U.shape[1])] < 0.0, -1.0, 1.0)
    return U * flips


def _complete_basis(U: np.ndarray, r: int) -> np.ndarray:
    """Extend orthonormal columns to ``r`` of them, one at a time, by the
    coordinate vector the current span covers least, orthogonalised
    against it twice."""
    while U.shape[1] < r:
        i = int(np.argmin(np.einsum("ij,ij->i", U, U)))
        v = -(U @ U[i])
        v[i] += 1.0
        v -= U @ (U.T @ v)
        U = np.column_stack([U, v / np.linalg.norm(v)])
    return U


def _leading_left_vectors(M: np.ndarray, r: int, kernels: list | None = None) -> np.ndarray:
    """Leading ``r`` left singular vectors of the n x K matrix ``M``.

    For a wide ``M`` (r < n <= K) they are the top eigenvectors of the
    n x n Gram matrix ``M M^T`` (as in TuckerMPI), taken only when its
    leading eigenvalue is a normal number above ``_GRAM_FLOOR`` and every
    gap among its r+1 leading eigenvalues exceeds ``_GRAM_GAP`` times the
    largest.  Otherwise, e.g. on a graded, tied or tall unfolding, they
    come from the triangle of an R-only QR of ``M^T`` (Chan's R-SVD): no
    Q and no V^T of ``M`` is formed.  ``kernels`` gets ``"gram"`` or
    ``"r-svd"`` appended, naming the kernel that ran.
    """
    n, K = M.shape
    gram = r < n <= K
    if gram:
        lam, V = np.linalg.eigh(M @ M.T)
        gram = lam[-1] > _GRAM_FLOOR and np.all(np.diff(lam[-r - 1 :]) > _GRAM_GAP * lam[-1])
    if kernels is not None:
        kernels.append("gram" if gram else "r-svd")
    if gram:
        return _fix_sign(V[:, : -r - 1 : -1])
    R = np.linalg.qr(M.T, mode="r")
    U = np.linalg.svd(R.T, full_matrices=False)[0][:, :r]
    return _fix_sign(_complete_basis(U, r))


def _polar_factor(M: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor U V^T of a tall matrix."""
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt


def _core(data: np.ndarray, factors: list[np.ndarray], least_squares: bool) -> np.ndarray:
    """Core of ``data`` for fixed ``factors``.

    Sketched data takes least squares by one pseudoinverse (relative
    cutoff 1e-12) per factor, so full-rank, rank-deficient and
    undersampled sketches take the same path; unsketched data takes the
    orthogonal projection onto the factors.
    """
    if least_squares:
        return multi_mode_multiply(data, [np.linalg.pinv(f, rcond=_PINV_RCOND) for f in factors])
    return multi_mode_multiply(data, [f.T for f in factors])


def _residual(Xw: np.ndarray, x_norm: float, core, factors, proj) -> float:
    """``||Xw - core x_k factors_k||`` for orthonormal factors, given
    ``x_norm = ||Xw||`` and the projection ``proj = Xw x_k factors_k^T``,
    without a reconstruction unless the expansion cancels."""
    sq = x_norm**2 - 2.0 * inner(proj, core) + norm(core) ** 2
    if sq < _CANCELLATION * x_norm**2:
        return reconstruction_error(Xw, TuckerDecomposition(core, factors))
    return float(np.sqrt(sq))


def _draw_samples(seed: int, it: int, shape, sizes: dict[int, int]) -> dict[int, np.ndarray]:
    """Row samples of iteration ``it`` (0 is the initial guess), per compressed mode."""
    return {j: draw_sample_rows(rng.stream(seed, rng.SAMPLE, it, j), shape[j], m) for j, m in sizes.items()}


def _sketch(X: np.ndarray, samples, modes) -> np.ndarray:
    """Row sampling of ``X`` along each of ``modes`` that ``samples``
    covers, with no sqrt(n/m) scale: the solver's factors, cores and fits
    are scale-free."""
    for k in modes:
        if k in samples:
            X = np.take(X, samples[k], axis=k)
    return X


def _sketched_factors(factors, samples) -> list[np.ndarray]:
    """The factors as the sketched data sees them: compressed modes keep
    their sampled rows."""
    return [f[samples[k], :] if k in samples else f for k, f in enumerate(factors)]


@contextmanager
def _timed(times: dict[str, list[float]], key: str):
    """Add the wall time of the block, in ms, to the last entry of ``times[key]``."""
    t0 = time.perf_counter()
    yield
    times[key][-1] += (time.perf_counter() - t0) * 1e3


def _initial_guess(Xw: np.ndarray, config: DecomposerConfig, samples, kernels: list | None = None):
    """Starting factors and core on the (possibly mixed) working tensor.

    Each factor comes from ``_leading_left_vectors`` of a mode-j
    unfolding (Gram eigensolver or R-SVD), which appends the kernel it
    ran to ``kernels``.  ``hosvd`` unfolds the full tensor in every
    mode: the classic truncated HOSVD.  The iterative methods take the
    sequentially truncated HOSVD instead (ST-HOSVD, sketched as in the
    randomized ST-HOSVD): in mode order, factor j comes from the working
    tensor already projected onto the factors of modes < j and
    row-sampled along the compressed modes > j with ``samples``, the
    iteration-0 row samples (none when nothing is compressed).  Only
    mode 0 unfolds a full-size tensor.  ``init="random"`` draws
    orthonormal bases instead, except for ``hosvd``.  The core is the
    least-squares fit to the iteration-0 sketch, even for
    ``hooi-re-star``, whose sweeps fit it to all of ``Xw``.  With nothing
    compressed it is the projection of ``Xw`` onto the factors, which
    the ST-HOSVD takes from its own running product
    ``Y x_{q-1} U_{q-1}^T`` and the other inits from a fresh pass over ``Xw``.
    """
    if config.method == "hosvd":
        factors = [_leading_left_vectors(matricize(Xw, j), r, kernels) for j, r in enumerate(config.ranks)]
    elif config.init == "random":
        factors = []
        for j, r in enumerate(config.ranks):
            G = rng.stream(config.seed, rng.INIT, j).standard_normal((Xw.shape[j], r))
            factors.append(_fix_sign(np.linalg.qr(G)[0]))
    else:
        factors, Y = [], Xw
        for j, r in enumerate(config.ranks):
            if j:  # shrink the finished mode: Y = Xw x_{k<j} U_k^T
                Y = mode_multiply(Y, factors[-1].T, j - 1)
            later = _sketch(Y, samples, range(j + 1, Xw.ndim))
            factors.append(_leading_left_vectors(matricize(later, j), r, kernels))
        if not samples:  # the projected core is one mode product away
            return factors, mode_multiply(Y, factors[-1].T, len(factors) - 1)
    core = _core(_sketch(Xw, samples, range(Xw.ndim)), _sketched_factors(factors, samples), bool(samples))
    return factors, core


def hosvd(X, ranks) -> TuckerDecomposition:
    """Truncated higher-order SVD baseline, the paper's.

    Factor j holds the leading left singular vectors of the full mode-j
    unfolding, not the sequentially truncated one the iterative methods
    start from; the core is the projection of ``X`` onto those bases.
    """
    return decompose(X, DecomposerConfig(ranks=tuple(ranks), method="hosvd"))[0]


def _run(X: np.ndarray, config: DecomposerConfig):
    """mix -> init -> sweeps -> finalize, with every phase timed."""
    q = X.ndim
    modes = config.resolved_compress_modes(q) if config.method in RANDOMIZED else ()
    sweeps = 0 if config.method == "hosvd" else config.max_iters
    least_squares = config.method == "hooi-re"  # the core fits the sketch, not Xw
    sizes = {j: sample_size(config.dr, X.shape[j]) for j in modes}
    # ms per phase: one entry for mix, init and finalize, one per sweep in STAGES
    times = {"mix": [0.0], "init": [0.0], **{name: [] for name in STAGES}, "finalize": [0.0]}
    kernels: list[str] = []

    with _timed(times, "mix"):
        signs = {j: draw_signs(rng.stream(config.seed, rng.MIX, j), X.shape[j]) for j in modes}
        Xw = mix(X, signs)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            x_norm = norm(Xw)
    _check_values(X, x_norm)
    if x_norm == 0.0:
        raise ValueError("cannot decompose a zero tensor (fit undefined)")
    with _timed(times, "init"):
        factors, core = _initial_guess(Xw, config, _draw_samples(config.seed, 0, X.shape, sizes), kernels)

    fit_trace: list[float] = []
    stop_reason = "max_iters" if sweeps else "no_sweeps"
    for it in range(1, sweeps + 1):
        for name in STAGES:
            times[name].append(0.0)
        with _timed(times, "embed_generate"):
            samples = _draw_samples(config.seed, it, X.shape, sizes)
        with _timed(times, "factor_update"):
            S = _sketched_factors(factors, samples)
        head = Xw  # Xw x_{k<j} S_k^T over the factors already updated
        for j in range(q):
            with _timed(times, "embed_apply"):
                Xj = _sketch(head, samples, range(j + 1, q))
            with _timed(times, "factor_update"):
                W = multi_mode_multiply(Xj, [S[k].T if k > j else None for k in range(q)])
                factors[j] = _polar_factor(matricize(W, j) @ matricize(core, j).T)
                S[j] = factors[j][samples[j], :] if j in samples else factors[j]
            if j < q - 1:  # mode j takes its rows, then its new factor
                with _timed(times, "embed_apply"):
                    head = _sketch(head, samples, (j,))
                with _timed(times, "factor_update"):
                    head = mode_multiply(head, S[j].T, j)
        if least_squares:  # sketched factors are not orthonormal: dense fit
            with _timed(times, "embed_apply"):
                data = _sketch(Xw, samples, range(q))
            with _timed(times, "core_update"):
                core = _core(data, S, True)
                fit = 1.0 - norm(data - multi_mode_multiply(core, S)) / norm(data)
        else:  # a projected core is its own projection P
            with _timed(times, "core_update"):
                if sizes:
                    core = _core(Xw, factors, False)
                else:  # nothing sampled: the core is one product from the head
                    core = mode_multiply(head, factors[-1].T, q - 1)
                fit = 1.0 - _residual(Xw, x_norm, core, factors, core) / x_norm
        fit_trace.append(fit)
        if it > 1 and fit - fit_trace[-2] < config.rel_tol:
            stop_reason = "converged"
            break

    with _timed(times, "finalize"):
        proj = _core(Xw, factors, False) if least_squares else core
        final_error = _residual(Xw, x_norm, core, factors, proj)
        if not fit_trace:  # no sweep: report the fit of the initial guess
            fit_trace.append(1.0 - final_error / x_norm)
        factors = [unmix_factor(f, signs.get(j)) for j, f in enumerate(factors)]
        T = TuckerDecomposition(core, factors, orthogonal=True)
    report = RunReport(
        method=config.method,
        ranks=tuple(config.ranks),
        dr=config.dr if sizes else 1.0,
        seed=config.seed,
        iterations=len(fit_trace),
        final_error=final_error,
        fit_trace=fit_trace,
        preprocess_ms=times.pop("mix")[0],
        stage_times=times,
        init_kernels=kernels,
        stop_reason=stop_reason,
        sample_sizes=[sizes.get(j, n) for j, n in enumerate(X.shape)],
    )
    return T, report


def decompose(X, config: DecomposerConfig):
    """Run the configured solver; returns ``(decomposition, report)``."""
    X = as_tensor(X)
    config.validate(X.shape)
    return _run(X, config)
