"""Tucker solvers: one staged engine for the truncated HOSVD and three
orthogonal-iteration variants.

Every method runs the same phases, mix -> init -> sweeps -> finalize, and
returns factors with orthonormal columns plus a run report.  The methods
differ only in the compressed modes, the number of sweeps and the data
the core is fitted to:

* ``hosvd``         the default initial guess on the raw tensor followed
                    by zero sweeps.
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

Factor updates are the closed-form polar solution of each block
least-squares problem: with every other quantity held fixed, the best
orthonormal factor is U V^T from a thin SVD of the partially contracted
unfolding times the core unfolding transposed.  The randomized variants
use the most recently updated core throughout a sweep.

The one full-size array a run allocates is the mixed working copy
``Xw`` (none when no mode is compressed, where ``Xw`` is the input
itself); every sketch, factor update and core update works on it.

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

Every phase is timed: the mix in ``preprocess_ms``, the initial guess and
the finalisation (unmixing plus final error) as one-entry ``"init"`` and
``"finalize"`` lists of ``stage_times``, and each sweep in the four
``STAGES``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .embeddings import draw_sample_rows, draw_signs, mix, sample_size, unmix_factor
from .tensor import as_tensor, inner, matricize, multi_mode_multiply, norm
from .tucker import TuckerDecomposition, reconstruct

__all__ = [
    "DecomposerConfig",
    "RunReport",
    "METHODS",
    "STAGES",
    "decompose",
    "hosvd",
    "reconstruction_error",
]

METHODS = ("hosvd", "hooi", "hooi-re", "hooi-re-star")
RANDOMIZED = ("hooi-re", "hooi-re-star")
STAGES = ("embed_generate", "embed_apply", "factor_update", "core_update")

_PINV_RCOND = 1e-12
# below this share of ||Xw||^2 the expanded residual is rounding noise
_CANCELLATION = 1e-6


@dataclass
class DecomposerConfig:
    ranks: tuple[int, ...]
    method: str = "hooi"
    dr: float = 1.0
    compress_modes: tuple[int, ...] | None = None  # None = every mode
    max_iters: int = 100
    rel_tol: float = 1e-5
    seed: int = 0
    init: str = "hosvd"  # or "random"

    def resolved_compress_modes(self, order: int) -> tuple[int, ...]:
        if self.compress_modes is None:
            return tuple(range(order))
        return tuple(self.compress_modes)

    def validate(self, shape: tuple[int, ...]) -> None:
        q = len(shape)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.init not in ("hosvd", "random"):
            raise ValueError(f"unknown init {self.init!r}, expected 'hosvd' or 'random'")
        if len(self.ranks) != q:
            raise ValueError(f"{len(self.ranks)} ranks given for an order-{q} tensor")
        for j, (r, n) in enumerate(zip(self.ranks, shape)):
            if not isinstance(r, (int, np.integer)):
                raise ValueError(f"rank {r!r} for mode {j} must be an integer")
            if not 1 <= r <= n:
                raise ValueError(f"rank {r} for mode {j} must be in [1, {n}]")
        if not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters {self.max_iters!r} must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.method in RANDOMIZED:
            if not 0.0 < self.dr <= 1.0:
                raise ValueError(f"dr must be in (0, 1], got {self.dr}")
            modes = self.resolved_compress_modes(q)
            if len(modes) == 0:
                raise ValueError("randomized methods need at least one compressed mode")
            if len(set(modes)) != len(modes):
                raise ValueError(f"duplicate compressed modes: {modes}")
            for j in modes:
                if not 0 <= j < q:
                    raise ValueError(f"compressed mode {j} out of range for order-{q} tensor")


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

    def mean_stage_ms(self, stage: str) -> float:
        times = self.stage_times.get(stage, [])
        return float(np.mean(times)) if times else 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["ranks"] = list(self.ranks)
        return out


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


def _leading_left_vectors(M: np.ndarray, r: int) -> np.ndarray:
    """Leading ``r`` left singular vectors of ``M``, from the triangle of an
    R-only QR of ``M^T`` (Chan's R-SVD): no Q and no V^T of ``M`` is formed."""
    R = np.linalg.qr(M.T, mode="r")
    U = np.linalg.svd(R.T, full_matrices=False)[0][:, :r]
    if U.shape[1] < r:  # fewer columns than the rank: no more singular vectors
        U = _complete_basis(U, r)
    return _fix_sign(U)


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


def _sketch(X: np.ndarray, samples, skip: int | None = None) -> np.ndarray:
    """Row sampling of ``X`` along every compressed mode but ``skip``, with
    no sqrt(n/m) scale: the solver's factors, cores and fits are scale-free."""
    for k, rows in samples.items():
        if k != skip:
            X = np.take(X, rows, axis=k)
    return X


def _sketched_factors(factors, samples) -> list[np.ndarray]:
    """The factors as the sketched data sees them: compressed modes keep
    their sampled rows."""
    return [f[samples[k], :] if k in samples else f for k, f in enumerate(factors)]


@contextmanager
def _timed(times: dict[str, float], key: str):
    """Add the wall time of the block, in ms, to ``times[key]``."""
    t0 = time.perf_counter()
    yield
    times[key] = times.get(key, 0.0) + (time.perf_counter() - t0) * 1e3


def _initial_guess(Xw: np.ndarray, config: DecomposerConfig, samples):
    """Starting factors and core on the (possibly mixed) working tensor.

    ``samples`` are the iteration-0 row samples of the compressed modes
    (none when nothing is compressed, which makes this the truncated
    HOSVD).  The default sketches the working tensor along the other
    modes, then takes each factor from one R-only QR of the (sketched)
    mode-j unfolding's transpose plus the SVD of its n_j x n_j triangle;
    the core starts from the same least-squares problem the first sweep
    will solve.  ``init="random"`` draws orthonormal bases instead,
    except for ``hosvd``, which is the default init by definition.
    """
    if config.init == "random" and config.method != "hosvd":
        factors = []
        for j, r in enumerate(config.ranks):
            G = rng.stream(config.seed, rng.INIT, j).standard_normal((Xw.shape[j], r))
            factors.append(_fix_sign(np.linalg.qr(G)[0]))
    else:
        factors = [
            _leading_left_vectors(matricize(_sketch(Xw, samples, skip=j), j), r)
            for j, r in enumerate(config.ranks)
        ]
    core = _core(_sketch(Xw, samples), _sketched_factors(factors, samples), bool(samples))
    return factors, core


def hosvd(X, ranks) -> TuckerDecomposition:
    """Truncated higher-order SVD baseline.

    Factor j holds the leading left singular vectors of the mode-j
    unfolding; the core is the projection of ``X`` onto those bases.
    """
    return decompose(X, DecomposerConfig(ranks=tuple(ranks), method="hosvd"))[0]


def _run(X: np.ndarray, config: DecomposerConfig):
    """mix -> init -> sweeps -> finalize, with every phase timed."""
    q = X.ndim
    randomized = config.method in RANDOMIZED
    modes = config.resolved_compress_modes(q) if randomized else ()
    sizes = {j: sample_size(config.dr, X.shape[j]) for j in modes}
    sweeps = 0 if config.method == "hosvd" else config.max_iters
    run: dict[str, float] = {}

    with _timed(run, "mix"):
        signs = {j: draw_signs(rng.stream(config.seed, rng.MIX, j), X.shape[j]) for j in modes}
        Xw = mix(X, signs)
        x_norm = norm(Xw)
    # an inf or nan entry makes the norm non-finite (LAPACK hangs on one)
    if not np.isfinite(x_norm) and not np.isfinite(X).all():
        raise ValueError("input tensor must be finite (found inf or nan entries)")
    if x_norm == 0.0:
        raise ValueError("cannot decompose a zero tensor (fit undefined)")
    with _timed(run, "init"):
        factors, core = _initial_guess(Xw, config, _draw_samples(config.seed, 0, X.shape, sizes))

    stage: dict[str, list[float]] = {name: [] for name in STAGES}
    fit_trace: list[float] = []
    fit_prev = -np.inf
    for it in range(1, sweeps + 1):
        ms = dict.fromkeys(STAGES, 0.0)
        with _timed(ms, "embed_generate"):
            samples = _draw_samples(config.seed, it, X.shape, sizes)
        for j in range(q):
            with _timed(ms, "embed_apply"):
                Xj = _sketch(Xw, samples, skip=j)
            with _timed(ms, "factor_update"):
                sketched = _sketched_factors(factors, samples)
                W = multi_mode_multiply(Xj, [None if k == j else S.T for k, S in enumerate(sketched)])
                factors[j] = _polar_factor(matricize(W, j) @ matricize(core, j).T)
        # hooi-re fits the core to the fully sketched data, the others to Xw
        core_samples = samples if config.method == "hooi-re" else {}
        with _timed(ms, "embed_apply"):
            data = _sketch(Xw, core_samples)
        with _timed(ms, "core_update"):
            fitted = _sketched_factors(factors, core_samples)
            core = _core(data, fitted, bool(core_samples))
            if core_samples:  # sketched factors are not orthonormal: dense fit
                fit = 1.0 - norm(data - multi_mode_multiply(core, fitted)) / norm(data)
            else:  # a projected core is its own projection P
                fit = 1.0 - _residual(Xw, x_norm, core, factors, core) / x_norm
        for name in STAGES:
            stage[name].append(ms[name])
        fit_trace.append(fit)
        if fit - fit_prev < config.rel_tol:
            break
        fit_prev = fit

    with _timed(run, "finalize"):
        proj = _core(Xw, factors, False) if config.method == "hooi-re" else core
        final_error = _residual(Xw, x_norm, core, factors, proj)
        if not fit_trace:  # no sweep: report the fit of the initial guess
            fit_trace.append(1.0 - final_error / x_norm)
        factors = [unmix_factor(f, signs.get(j)) for j, f in enumerate(factors)]
        T = TuckerDecomposition(core, factors, orthogonal=True)
    report = RunReport(
        method=config.method,
        ranks=tuple(config.ranks),
        dr=config.dr if randomized else 1.0,
        seed=config.seed,
        iterations=len(fit_trace),
        final_error=final_error,
        fit_trace=fit_trace,
        stage_times={"init": [run["init"]], **stage, "finalize": [run["finalize"]]},
        preprocess_ms=run["mix"],
    )
    return T, report


def decompose(X, config: DecomposerConfig):
    """Run the configured solver; returns ``(decomposition, report)``."""
    X = as_tensor(X)
    config.validate(X.shape)
    return _run(X, config)
