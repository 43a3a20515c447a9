"""Empirical verification of embedding perturbation and distortion bounds.

Two kinds of checks live here.

Conditional implications (inner-product preservation, single-mode
perturbation of a decomposition): the stated hypothesis, that the
embedding distorts a specific finite vector set by less than eps, is
verified first on each draw.  Draws failing the hypothesis are
discarded, not failed.  Among hypothesis-satisfying draws the
conclusion is an implication that holds with zero violations, so any
violation indicates an implementation bug rather than bad luck.

Monte-Carlo tail checks (multimode subspace distortion, residual
distortion): the empirical fraction of draws whose distortion exceeds
eps is compared against the target failure probability eta plus a
two-sigma binomial slack ``2 sqrt(eta (1 - eta) / trials)``.  Both
work on the Tucker core and the (embedded) factors and never form a
full-size candidate tensor.

Floating-point note: conditional conclusions are checked with a
relative slack of 1e-12 so that exact-arithmetic implications are not
flagged by rounding in the evaluation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .embeddings import is_eps_jl, make_embedding
from .tensor import as_tensor, inner, matricize, mode_multiply, multi_mode_multiply, norm
from .tucker import (
    TuckerDecomposition,
    _weighted_sq_norm,
    apply_mode_map,
    mode_coherence,
    norm_via_gram,
    psi_matrix,
    random_orthogonal_tucker,
    reconstruct,
)

__all__ = [
    "BoundParams",
    "BoundReport",
    "max_admissible_eps",
    "max_admissible_residual_eps",
    "embedding_dim_bound",
    "residual_embedding_dim_bound",
    "pair_vector_set",
    "check_inner_product_bound",
    "check_prop1",
    "check_multimode_distortion",
    "check_residual_distortion",
    "estimate_subspace_dim",
    "run_lemma21_suite",
    "run_lemma_a_suite",
    "run_prop1_suite",
    "run_th1_suite",
    "run_th4_suite",
]

_FP_SLACK = 1e-12


@dataclass
class BoundParams:
    """Configuration for a distortion experiment."""

    eps: float
    eta: float
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    trials: int
    embed_dims: tuple[int, ...] | None = None
    seed: int = 0
    y_samples: int = 20

    @property
    def order(self) -> int:
        return len(self.dims)

    def validate(self) -> None:
        if not 0.0 < self.eps:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if len(self.ranks) != len(self.dims):
            raise ValueError("dims and ranks must have equal length")
        for n, r in zip(self.dims, self.ranks):
            if not 1 <= r <= n:
                raise ValueError(f"rank {r} invalid for dimension {n}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.embed_dims is not None and len(self.embed_dims) != len(self.dims):
            raise ValueError("embed_dims must list one size per mode")
        if self.y_samples < 1:
            raise ValueError("y_samples must be at least 1")


@dataclass
class BoundReport:
    """Outcome of a bound check."""

    name: str
    trials: int
    failures: int
    discarded: int = 0
    threshold: float = 0.0
    passed: bool = True
    distortions: list[float] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def failure_fraction(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "discarded": self.discarded,
            "failure_fraction": self.failure_fraction,
            "threshold": self.threshold,
            "passed": self.passed,
            "distortions": [float(d) for d in self.distortions],
            "details": _plain(self.details),
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _binomial_threshold(eta: float, trials: int) -> float:
    return eta + 2.0 * math.sqrt(eta * (1.0 - eta) / trials)


def max_admissible_eps(rmax: int, order: int) -> float:
    """Largest eps the multimode subspace guarantee covers."""
    return math.log(2.0) / (1.0 / rmax + 0.5 + 1.0 / (order * rmax))


def max_admissible_residual_eps(rmax: int, order: int) -> float:
    """Largest eps the residual-distortion guarantee covers."""
    return math.log(2.0) / (0.5 / rmax + 0.25 + 0.5 / (order * rmax))


def embedding_dim_bound(params: BoundParams) -> list[int]:
    """Per-mode sample sizes sufficient for the multimode guarantee.

    Computes ``ceil((C rmax^2 q^2 / eps^2) ln(R_j^2 q / eta))`` per mode
    with the unspecified absolute constant C taken as 1, clamped to at
    least 1 (the logarithm can go nonpositive in degenerate corners such
    as eta near 1 with R_j = q = 1).
    """
    params.validate()
    q = params.order
    rmax = max(params.ranks)
    lead = rmax**2 * q**2 / params.eps**2
    out = []
    for r in params.ranks:
        val = lead * math.log(r**2 * q / params.eta)
        out.append(max(1, math.ceil(val)))
    return out


def residual_embedding_dim_bound(params: BoundParams, p_dim: int) -> int:
    """Sample size sufficient for the residual-distortion guarantee.

    Computes ``ceil((C (q+1)^3 p / eps^2) ln(4 nmax / eta^(1/(q+1))))``
    with the unspecified absolute constant C taken as 1, clamped to at
    least 1.
    """
    params.validate()
    if p_dim < 1:
        raise ValueError("subspace dimension must be at least 1")
    q = params.order
    nmax = max(params.dims)
    val = (q + 1) ** 3 * p_dim / params.eps**2 * math.log(4.0 * nmax / params.eta ** (1.0 / (q + 1)))
    return max(1, math.ceil(val))


def pair_vector_set(factor: np.ndarray) -> np.ndarray:
    """Columns plus all pairwise sums and differences, as rows.

    This is the finite set whose distortion the single-mode perturbation
    statements condition on.
    """
    cols = [factor[:, r] for r in range(factor.shape[1])]
    vecs = list(cols)
    for r in range(len(cols)):
        for s in range(r + 1, len(cols)):
            vecs.append(cols[r] + cols[s])
            vecs.append(cols[r] - cols[s])
    return np.array(vecs)


def check_inner_product_bound(A: np.ndarray, x, y, eps: float) -> BoundReport:
    """Inner-product preservation implied by low distortion of x+y, x-y.

    Hypothesis: the embedding matrix A distorts ``{x+y, x-y}`` by less than eps.
    Conclusion: ``|<Ax, Ay> - <x, y>| <= (eps/2) (||x||^2 + ||y||^2)``.
    A draw that fails the hypothesis is discarded, not failed.
    """
    x = as_tensor(x)
    y = as_tensor(y)
    if not is_eps_jl(A, np.array([x + y, x - y]), eps):
        return BoundReport(name="inner-product", trials=1, failures=0, discarded=1)
    lhs = abs(float(np.dot(A @ x, A @ y)) - float(np.dot(x, y)))
    rhs = 0.5 * eps * (float(np.dot(x, x)) + float(np.dot(y, y)))
    violated = lhs > rhs + _FP_SLACK * (1.0 + rhs)
    return BoundReport(
        name="inner-product",
        trials=1,
        failures=int(violated),
        passed=not violated,
        distortions=[lhs],
        details={"lhs": lhs, "rhs": rhs},
    )


def check_prop1(T: TuckerDecomposition, A: np.ndarray, mode: int, eps: float) -> BoundReport:
    """Single-mode perturbation bounds for an orthogonal decomposition.

    Hypothesis: the embedding matrix A distorts the mode's columns and their
    pairwise sums/differences by less than eps.  Conclusions checked on
    hypothesis-satisfying draws:

      (i)   each core entry of the pushed-through decomposition moves by
            at most eps relative to its old value;
      (ii)  the mapped mode's coherence is at most eps / (1 - eps) and
            other modes' coherences are untouched;
      (iii) the squared norm moves by at most eps times the absolute sum
            of the mode weight Gram matrix.

    The norms in (iii) are taken on the core: ``||Y||^2 = ||G||^2`` for
    orthonormal factors, and the mapped norm is the Gram evaluation of
    :func:`~tuckersketch.tucker.norm_via_gram`, sharing the weight Gram
    matrix with the envelope.
    """
    if not T.orthogonal:
        raise ValueError("perturbation bounds assume orthonormal factors")
    if not 0 <= mode < T.order:
        raise ValueError(f"mode {mode} out of range")
    if not is_eps_jl(A, pair_vector_set(T.factors[mode]), eps):
        return BoundReport(name="mode-perturbation", trials=1, failures=0, discarded=1)

    mapped = apply_mode_map(T, A, mode)

    core_dev = np.abs(mapped.core - T.core)
    core_ok = bool(np.all(core_dev <= eps * np.abs(T.core) + _FP_SLACK))

    mu_new = mode_coherence(mapped, mode)
    mu_bound = eps / (1.0 - eps) if eps < 1.0 else np.inf
    coher_ok = mu_new <= mu_bound + _FP_SLACK
    transport_ok = all(
        abs(mode_coherence(mapped, k) - mode_coherence(T, k)) <= 1e-12
        for k in range(T.order)
        if k != mode
    )

    psi = psi_matrix(T.core, T.factors, mode)
    weight = psi @ psi.T
    sq_old = norm(T.core) ** 2
    sq_new = _weighted_sq_norm(weight, A @ T.factors[mode])
    envelope = eps * float(np.sum(np.abs(weight)))
    norm_ok = abs(sq_new - sq_old) <= envelope + _FP_SLACK * (1.0 + envelope)

    ok = core_ok and coher_ok and transport_ok and norm_ok
    return BoundReport(
        name="mode-perturbation",
        trials=1,
        failures=int(not ok),
        passed=ok,
        distortions=[abs(sq_new - sq_old)],
        details={
            "core_ok": core_ok,
            "coherence_ok": coher_ok,
            "coherence_transport_ok": transport_ok,
            "norm_ok": norm_ok,
            "mapped_coherence": mu_new,
            "coherence_bound": mu_bound,
            "norm_shift": abs(sq_new - sq_old),
            "norm_envelope": envelope,
        },
    )


def _sq_norm_on_core(core: np.ndarray, factors) -> float:
    """Squared norm of ``core`` multiplied by ``factors[k]`` along every mode k.

    Evaluated on the core as ``<G, G x_k A_k^T A_k>``, so the full tensor
    is never formed.
    """
    return inner(core, multi_mode_multiply(core, [A.T @ A for A in factors]))


def _tail_report(
    name: str, params: BoundParams, admissible_eps, distortion, family: str, details: dict
) -> BoundReport:
    """Tail check shared by the multimode and residual distortion checks.

    Runs ``distortion(t)`` for every trial t; passing means the fraction
    of trials whose distortion exceeds eps is at most eta plus binomial
    slack.  Raises if ``embed_dims`` is unset or eps exceeds
    ``admissible_eps(rmax, order)``, the range of the guarantee checked.
    """
    if params.embed_dims is None:
        raise ValueError("embed_dims must be set for distortion checks")
    limit = admissible_eps(max(params.ranks), params.order)
    if params.eps > limit:
        raise ValueError(f"eps={params.eps} exceeds admissible bound {limit:.4f}")
    distortions = [distortion(t) for t in range(params.trials)]
    failures = sum(1 for d in distortions if d > params.eps)
    threshold = _binomial_threshold(params.eta, params.trials)
    return BoundReport(
        name=name,
        trials=params.trials,
        failures=failures,
        threshold=threshold,
        passed=failures / params.trials <= threshold,
        distortions=distortions,
        details={"family": family, "embed_dims": list(params.embed_dims), **details},
    )


def _trial_embeddings(params: BoundParams, family: str, gen: np.random.Generator) -> list[np.ndarray]:
    """Fresh per-mode embedding matrices at the configured sizes, drawn from ``gen`` in mode order."""
    return [make_embedding(family, n, m, gen) for n, m in zip(params.dims, params.embed_dims)]


def check_multimode_distortion(params: BoundParams, family: str = "gaussian") -> BoundReport:
    """Monte-Carlo tail check for squared-norm distortion of low-rank draws.

    Each trial draws a random orthogonal decomposition ``Y = G x_k F_k``,
    then embeds every mode with a fresh draw ``E_k`` at the configured sizes
    and records the relative squared-norm distortion.  Embedding a Tucker
    tensor along every mode gives the Tucker tensor with embedded factors,
    ``(G x_k F_k) x_k E_k = G x_k (E_k F_k)``, so only the n_k-by-R_k
    factors are embedded and both squared norms are evaluated on the core
    as ``<G, G x_k A_k^T A_k>`` with ``A_k = F_k`` and ``A_k = E_k F_k``;
    no full-size tensor is formed.  Passing means the fraction of trials
    exceeding eps is at most eta plus binomial slack.  Raises if eps sits
    outside the admissible range of the guarantee being checked.
    """
    params.validate()

    def distortion(t: int) -> float:
        gen = rng.stream(params.seed, rng.TRIAL, t)
        T = random_orthogonal_tucker(params.dims, params.ranks, gen)
        embedded = [E @ F for E, F in zip(_trial_embeddings(params, family, gen), T.factors)]
        sq = _sq_norm_on_core(T.core, T.factors)
        return abs(_sq_norm_on_core(T.core, embedded) - sq) / sq

    return _tail_report("multimode-distortion", params, max_admissible_eps, distortion, family, {})


def _residual_split(Xm: np.ndarray, W: np.ndarray):
    """The parts of ``||Xm - A W||^2`` that do not depend on A.

    With Q from a QR of ``W^T`` (its columns span a space containing the
    row space of W, also when W is rank-deficient),
    ``||Xm - A W||^2 = ||Xm (I - Q Q^T)||^2 + ||Xm Q - A (W Q)||^2``.
    Returns the first term, ``Xm Q`` and ``W Q``.
    """
    Q = np.linalg.qr(W.T)[0]
    XQ = Xm @ Q
    return norm(Xm - XQ @ Q.T) ** 2, XQ, W @ Q


def _sq_residuals(split, cands: np.ndarray) -> np.ndarray:
    """``||Xm - A W||^2`` for every free factor A stacked in ``cands``."""
    rest, XQ, WQ = split
    D = XQ - cands @ WQ
    return rest + np.sum(D * D, axis=(1, 2))


def estimate_subspace_dim(core, factors, mode: int) -> int:
    """Dimension of the span swept out by varying one factor.

    With the other factors fixed, a candidate unfolds along ``mode`` to
    ``A @ W`` (A the free factor, W the weight matrix of
    :func:`~tuckersketch.tucker.psi_matrix`).
    Orthonormal draws of A span every matrix of its shape, so sampled
    candidates cover, almost surely, a span of dimension
    ``n_mode * rank(W)``; that number is returned.  ``factors[mode]``
    only supplies n_mode.  Used for reporting only.
    """
    W = psi_matrix(core, factors, mode)
    if factors[mode] is None:
        raise ValueError("the free mode still needs a row count; pass a placeholder factor")
    return factors[mode].shape[0] * int(np.linalg.matrix_rank(W))


def check_residual_distortion(
    X, params: BoundParams, core, factors, mode: int, family: str = "gaussian"
) -> BoundReport:
    """Monte-Carlo tail check for distortion of residuals against a sweep.

    The candidate set fixes the core and all factors but one; candidates
    Y arise from random orthonormal draws A in the free mode.  Each trial
    draws fresh embeddings for every mode, then ``params.y_samples``
    candidates, and measures the worst relative squared-norm distortion
    of ``X - Y`` over them; the trial fails if that worst case exceeds eps.

    No candidate is formed as a tensor.  Along ``mode`` a candidate
    unfolds to ``A @ W`` with W the weight matrix of the fixed factors
    (:func:`~tuckersketch.tucker.psi_matrix`), and its embedding to
    ``(E_mode A) @ W_L`` with W_L the weight matrix of the embedded
    factors.  Both residual norms use an orthogonal split over the row
    space of the weight matrix, with Q from a QR of ``W^T``::

        ||X_(mode) - A W||^2 = ||X_(mode) (I - Q Q^T)||^2 + ||X_(mode) Q - A (W Q)||^2

    The first term is computed once per call for X and once per trial
    for the embedded X; per candidate only an n_mode-by-R_mode (or
    m_mode-by-R_mode) difference remains.  Every term is the norm of a
    difference, so there is no cancellation when Y is close to X.
    """
    params.validate()
    X = as_tensor(X)
    if X.shape != tuple(params.dims):
        raise ValueError(f"tensor shape {X.shape} does not match dims {tuple(params.dims)}")
    core = as_tensor(core)
    shapes = [np.shape(f) for f in factors]
    if core.ndim != params.order or shapes != list(zip(params.dims, core.shape)):
        raise ValueError(f"factor shapes {shapes} do not match dims {tuple(params.dims)} and core {core.shape}")
    samples, n, r = params.y_samples, params.dims[mode], core.shape[mode]
    split = _residual_split(matricize(X, mode), psi_matrix(core, factors, mode))

    def worst_distortion(t: int) -> float:
        gen = rng.stream(params.seed, rng.TRIAL, t)
        embeds = _trial_embeddings(params, family, gen)
        cands = np.linalg.qr(gen.standard_normal((samples, n, r)))[0]
        LX = multi_mode_multiply(X, embeds)
        embedded = [E @ f for E, f in zip(embeds, factors)]
        LW = psi_matrix(core, embedded, mode)
        # linearity: the embedded candidate has free factor E_mode A
        lcands = embeds[mode] @ cands
        sq = _sq_residuals(split, cands)
        lsq = _sq_residuals(_residual_split(matricize(LX, mode), LW), lcands)
        keep = sq != 0.0
        return float(np.max(np.abs(lsq[keep] - sq[keep]) / sq[keep], initial=0.0))

    return _tail_report(
        "residual-distortion", params, max_admissible_residual_eps, worst_distortion, family,
        {"y_samples": params.y_samples},
    )


# ---------------------------------------------------------------------------
# Seeded suites (used by the verify CLI and the acceptance tests)
# ---------------------------------------------------------------------------


def run_lemma21_suite(trials: int = 200, seed: int = 0, tol: float = 1e-10) -> BoundReport:
    """Gram-identity suite: norm_via_gram against the dense route.

    Random small orthogonal decompositions of order 3 or 4 with a random
    mode map; the relative gap between the Gram evaluation and the dense
    mapped-tensor norm must stay within ``tol``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    errs = []
    failures = 0
    for t in range(trials):
        gen = rng.stream(seed, rng.TRIAL, t)
        q = int(gen.integers(3, 5))
        dims = tuple(int(gen.integers(2, 13)) for _ in range(q))
        ranks = tuple(int(gen.integers(1, min(4, n) + 1)) for n in dims)
        T = random_orthogonal_tucker(dims, ranks, gen)
        j = int(gen.integers(0, q))
        p = int(gen.integers(1, dims[j] + 4))
        B = gen.standard_normal((p, dims[j]))
        lhs = norm_via_gram(T, B, j)
        rhs = norm(mode_multiply(reconstruct(T), B, j)) ** 2
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        errs.append(rel)
        if rel > tol:
            failures += 1
    return BoundReport(
        name="gram-identity",
        trials=trials,
        failures=failures,
        threshold=tol,
        passed=failures == 0,
        distortions=errs,
        details={"max_rel_err": max(errs)},
    )


def run_lemma_a_suite(
    trials: int = 500,
    eps: float = 0.5,
    seed: int = 0,
    n: int = 128,
    m: int = 64,
    family: str = "gaussian",
) -> BoundReport:
    """Inner-product bound over seeded draws of the embedding, then x and y;
    passing needs zero violations and at least one satisfying draw."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    failures = 0
    discarded = 0
    satisfied = 0
    worst = 0.0
    for t in range(trials):
        gen = rng.stream(seed, rng.TRIAL, t)
        E = make_embedding(family, n, m, gen)
        x = gen.standard_normal(n)
        y = gen.standard_normal(n)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        rep = check_inner_product_bound(E, x, y, eps)
        if rep.discarded:
            discarded += 1
            continue
        satisfied += 1
        failures += rep.failures
        worst = max(worst, rep.details["lhs"] / rep.details["rhs"])
    return BoundReport(
        name="inner-product-suite",
        trials=trials,
        failures=failures,
        discarded=discarded,
        passed=failures == 0 and satisfied > 0,
        details={"satisfied": satisfied, "worst_lhs_over_rhs": worst},
    )


def run_prop1_suite(
    target: int = 200,
    eps: float = 0.6,
    seed: int = 0,
    dims: tuple[int, ...] = (32, 32, 32),
    ranks: tuple[int, ...] = (3, 3, 3),
    m: int = 24,
    family: str = "gaussian",
) -> BoundReport:
    """Mode-perturbation bounds until ``target`` hypothesis-passing draws.

    Draws are capped at 20x the target; zero violations required among
    the satisfying draws.
    """
    if target < 1:
        raise ValueError("target must be at least 1")
    failures = 0
    discarded = 0
    satisfied = 0
    draws = 0
    q = len(dims)
    while satisfied < target and draws < 20 * target:
        t = draws
        draws += 1
        gen = rng.stream(seed, rng.TRIAL, t)
        T = random_orthogonal_tucker(dims, ranks, gen)
        j = t % q
        E = make_embedding(family, dims[j], m, gen)
        rep = check_prop1(T, E, j, eps)
        if rep.discarded:
            discarded += 1
            continue
        satisfied += 1
        failures += rep.failures
    return BoundReport(
        name="mode-perturbation-suite",
        trials=draws,
        failures=failures,
        discarded=discarded,
        passed=failures == 0 and satisfied >= target,
        details={"satisfied": satisfied, "target": target},
    )


def run_th1_suite(
    trials: int = 500,
    eps: float = 0.5,
    eta: float = 0.1,
    seed: int = 0,
    dims: tuple[int, ...] = (64, 64, 64),
    ranks: tuple[int, ...] = (3, 3, 3),
    embed_dim: int = 48,
    family: str = "gaussian",
) -> BoundReport:
    """Multimode distortion tail check at its standard configuration."""
    params = BoundParams(
        eps=eps,
        eta=eta,
        dims=dims,
        ranks=ranks,
        trials=trials,
        embed_dims=tuple(embed_dim for _ in dims),
        seed=seed,
    )
    return check_multimode_distortion(params, family)


def run_th4_suite(
    trials: int = 300,
    eps: float = 0.6,
    eta: float = 0.2,
    seed: int = 0,
    dims: tuple[int, ...] = (32, 32, 32),
    ranks: tuple[int, ...] = (2, 2, 2),
    embed_dim: int = 24,
    y_samples: int = 20,
    family: str = "gaussian",
) -> BoundReport:
    """Residual distortion tail check at its standard configuration."""
    gen = rng.stream(seed, rng.TRIAL, 10_000, 0)
    X = gen.standard_normal(dims)
    sub = random_orthogonal_tucker(dims, ranks, gen)
    params = BoundParams(
        eps=eps,
        eta=eta,
        dims=dims,
        ranks=ranks,
        trials=trials,
        embed_dims=tuple(embed_dim for _ in dims),
        seed=seed,
        y_samples=y_samples,
    )
    report = check_residual_distortion(X, params, sub.core, sub.factors, mode=0, family=family)
    p_dim = estimate_subspace_dim(sub.core, sub.factors, 0)
    report.details["subspace_dim_estimate"] = p_dim
    report.details["residual_dim_bound"] = residual_embedding_dim_bound(params, p_dim)
    return report
