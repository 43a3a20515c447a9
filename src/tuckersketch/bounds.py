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
distortion): the empirical fraction of draws whose distortion is not
at most eps (a nan is not) is compared against the target failure
probability eta plus a two-sigma binomial slack
``2 sqrt(eta (1 - eta) / trials)``.  Both
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
from .tensor import (_check_count, _check_dims, _check_mode, _check_positive, _check_ranks, _check_values,
                     _plain, as_tensor, matricize, mode_multiply, multi_mode_multiply, norm)
from .tucker import (
    TuckerDecomposition,
    _psi_gram,
    _weighted_sq_norm,
    apply_mode_map,
    mode_coherence,
    norm_via_gram,
    psi_matrix,
    random_orthogonal_tucker,
    reconstruct,
)

__all__ = [
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


def _validate(eps, eta, trials=1, embed_dims=(), order=0) -> None:
    """Reject a bad eps, eta or trial count, or ``embed_dims`` not of length ``order``."""
    _check_positive("eps", eps)
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    _check_count("trials", trials)
    if len(embed_dims) != order:
        raise ValueError("embed_dims must list one size per mode")


def _trial(seed: int, t: int) -> np.random.Generator:
    """Trial t's stream: every suite takes all of trial t's draws from it."""
    return rng.stream(seed, rng.TRIAL, t)


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
        return _plain({
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "discarded": self.discarded,
            "failure_fraction": self.failure_fraction,
            "threshold": self.threshold,
            "passed": self.passed,
            "distortions": self.distortions,
            "details": self.details,
        })


def max_admissible_eps(rmax: int, order: int) -> float:
    """Largest eps the multimode subspace guarantee covers."""
    return math.log(2.0) / (1.0 / rmax + 0.5 + 1.0 / (order * rmax))


def max_admissible_residual_eps(rmax: int, order: int) -> float:
    """Largest eps the residual-distortion guarantee covers, twice the multimode one."""
    return 2.0 * max_admissible_eps(rmax, order)


def embedding_dim_bound(eps: float, eta: float, ranks) -> list[int]:
    """Per-mode sample sizes sufficient for the multimode guarantee.

    Computes ``ceil((C rmax^2 q^2 / eps^2) ln(R_j^2 q / eta))`` per mode
    with the unspecified absolute constant C taken as 1, clamped to at
    least 1 (the logarithm can go nonpositive in degenerate corners such
    as eta near 1 with R_j = q = 1).
    """
    _validate(eps, eta)
    ranks = _check_ranks(ranks)
    q = len(ranks)
    rmax = max(ranks)
    lead = rmax**2 * q**2 / eps**2
    out = []
    for r in ranks:
        val = lead * math.log(r**2 * q / eta)
        out.append(max(1, math.ceil(val)))
    return out


def residual_embedding_dim_bound(eps: float, eta: float, dims, p_dim: int) -> int:
    """Sample size sufficient for the residual-distortion guarantee.

    Computes ``ceil((C (q+1)^3 p / eps^2) ln(4 nmax / eta^(1/(q+1))))``
    with the unspecified absolute constant C taken as 1, clamped to at
    least 1.
    """
    _validate(eps, eta)
    dims = _check_dims(dims)
    _check_count("p_dim", p_dim)
    q = len(dims)
    nmax = max(dims)
    val = (q + 1) ** 3 * p_dim / eps**2 * math.log(4.0 * nmax / eta ** (1.0 / (q + 1)))
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


def check_inner_product_bound(A: np.ndarray, x, y, eps: float) -> dict | None:
    """Inner-product preservation implied by low distortion of x+y, x-y.

    Hypothesis: the embedding matrix A distorts ``{x+y, x-y}`` by less than eps.
    Conclusion: ``|<Ax, Ay> - <x, y>| <= (eps/2) (||x||^2 + ||y||^2)``.
    Returns None for a draw that fails the hypothesis (it is discarded,
    not failed), else ``ok`` (the conclusion held) with ``lhs`` and ``rhs``.
    """
    x = as_tensor(x)
    y = as_tensor(y)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be vectors of one length, got shapes {x.shape} and {y.shape}")
    if not is_eps_jl(A, np.array([x + y, x - y]), eps):
        return None
    lhs = abs(float(np.dot(A @ x, A @ y)) - float(np.dot(x, y)))
    rhs = 0.5 * eps * (float(np.dot(x, x)) + float(np.dot(y, y)))
    return {"ok": lhs <= rhs + _FP_SLACK * (1.0 + rhs), "lhs": lhs, "rhs": rhs}


def check_prop1(T: TuckerDecomposition, A: np.ndarray, mode: int, eps: float) -> dict | None:
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
    matrix, formed on the core, with the envelope.

    Returns None for a draw that fails the hypothesis, else ``ok`` (all
    three held) with each conclusion's flag and the numbers it compares.
    """
    if not T.orthogonal:
        raise ValueError("perturbation bounds assume orthonormal factors")
    _check_mode(mode, T.order)
    if not is_eps_jl(A, pair_vector_set(T.factors[mode]), eps):
        return None

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

    weight = _psi_gram(T.core, T.factors, mode)
    sq_old = norm(T.core) ** 2
    sq_new = _weighted_sq_norm(weight, A @ T.factors[mode])
    envelope = eps * float(np.sum(np.abs(weight)))
    norm_ok = abs(sq_new - sq_old) <= envelope + _FP_SLACK * (1.0 + envelope)

    return {
        "ok": core_ok and coher_ok and transport_ok and norm_ok,
        "core_ok": core_ok,
        "coherence_ok": coher_ok,
        "coherence_transport_ok": transport_ok,
        "norm_ok": norm_ok,
        "mapped_coherence": mu_new,
        "coherence_bound": mu_bound,
        "norm_shift": abs(sq_new - sq_old),
        "norm_envelope": envelope,
    }


def _run_trials(name, seed, check, draws, target=0, threshold=0.0):
    """The trial loop of every suite, over trial streams t = 0, 1, ...

    ``check(t, gen)`` returns None for a draw that fails a hypothesis (it
    is discarded) and otherwise its conclusions: ``ok``, and for a
    measured check the ``distortion``.  Runs ``draws`` draws, or stops
    early once ``target`` draws are kept.  A kept draw fails unless
    ``ok``; passing needs at least ``max(target, 1)`` kept draws and a
    failure fraction of at most ``threshold``.  Returns the report and
    the kept conclusions.
    """
    kept = []
    t = 0
    while t < draws and not (target and len(kept) >= target):
        found = check(t, _trial(seed, t))
        t += 1
        if found is not None:
            kept.append(found)
    failures = sum(1 for c in kept if not c["ok"])
    report = BoundReport(
        name=name,
        trials=t,
        failures=failures,
        discarded=t - len(kept),
        threshold=threshold,
        passed=len(kept) >= max(target, 1) and failures / len(kept) <= threshold,
        distortions=[c["distortion"] for c in kept if "distortion" in c],
    )
    return report, kept


def _measured(distortion: float, bound: float) -> dict:
    """A measured trial's conclusion: it holds if ``distortion <= bound``, so a nan fails."""
    return {"ok": distortion <= bound, "distortion": distortion}


def _tail_report(
    name, distortion, admissible_eps, ranks, embed_dims, eps, eta, trials, seed, family, **details
) -> BoundReport:
    """Tail check shared by the multimode and residual distortion checks.

    Runs ``distortion(gen)`` on every trial's stream; passing means the
    fraction of trials whose distortion is not at most eps is at most eta
    plus binomial slack.  Raises if eps exceeds
    ``admissible_eps(max(ranks), len(embed_dims))``, the range of the
    guarantee checked.
    """
    limit = admissible_eps(max(ranks), len(embed_dims))
    if eps > limit:
        raise ValueError(f"eps={eps} exceeds admissible bound {limit:.4f}")
    threshold = eta + 2.0 * math.sqrt(eta * (1.0 - eta) / trials)
    report, _ = _run_trials(name, seed, lambda t, gen: _measured(distortion(gen), eps), trials, threshold=threshold)
    report.details = {"family": family, "embed_dims": list(embed_dims), **details}
    return report


def _trial_embeddings(family: str, dims, embed_dims, gen: np.random.Generator) -> list[np.ndarray]:
    """Fresh per-mode embedding matrices at the given sizes, drawn from ``gen`` in mode order."""
    return [make_embedding(family, n, m, gen) for n, m in zip(dims, embed_dims)]


def check_multimode_distortion(
    dims, ranks, embed_dims, eps: float, eta: float, trials: int, seed: int = 0, family: str = "gaussian"
) -> BoundReport:
    """Monte-Carlo tail check for squared-norm distortion of low-rank draws.

    Each trial draws a random orthogonal decomposition ``Y = G x_k F_k``
    of shape ``dims`` and multilinear rank ``ranks``, then embeds every
    mode with a fresh draw ``E_k`` of ``embed_dims[k]`` rows and records
    the relative squared-norm distortion.  Embedding a Tucker
    tensor along every mode gives the Tucker tensor with embedded factors,
    ``(G x_k F_k) x_k E_k = G x_k (E_k F_k)``, so only the n_k-by-R_k
    factors are embedded and both squared norms are taken on the core:
    ``||G||^2`` for orthonormal factors, and the mode-0 Gram evaluation of
    :func:`~tuckersketch.tucker.norm_via_gram` for the embedded ones;
    no full-size tensor is formed.  Passing means the fraction of trials
    exceeding eps is at most eta plus binomial slack.  Raises if eps sits
    outside the admissible range of the guarantee being checked.
    """
    dims = _check_dims(dims)
    ranks = _check_ranks(ranks, dims)
    _validate(eps, eta, trials, embed_dims, len(dims))

    def distortion(gen: np.random.Generator) -> float:
        T = random_orthogonal_tucker(dims, ranks, gen)
        embedded = [E @ F for E, F in zip(_trial_embeddings(family, dims, embed_dims, gen), T.factors)]
        sq = norm(T.core) ** 2
        return abs(_weighted_sq_norm(_psi_gram(T.core, embedded, 0), embedded[0]) - sq) / sq

    return _tail_report(
        "multimode-distortion", distortion, max_admissible_eps, ranks, embed_dims, eps, eta, trials, seed, family
    )


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
    _check_mode(mode, np.ndim(core))
    if factors[mode] is None:
        raise ValueError("the free mode still needs a row count; pass a placeholder factor")
    W = psi_matrix(core, factors, mode)
    return factors[mode].shape[0] * int(np.linalg.matrix_rank(W))


def check_residual_distortion(
    X, core, factors, mode: int, embed_dims, eps: float, eta: float, trials: int,
    seed: int = 0, y_samples: int = 20, family: str = "gaussian",
) -> BoundReport:
    """Monte-Carlo tail check for distortion of residuals against a sweep.

    The candidate set fixes the core and all factors but one; candidates
    Y arise from random orthonormal draws A in the free mode.  Each trial
    draws fresh embeddings for every mode, ``embed_dims[k]`` rows for
    mode k, then ``y_samples`` candidates, and measures the worst
    relative squared-norm distortion of ``X - Y`` over them; the trial
    fails if that worst case exceeds eps.  The dimensions are read from
    ``X`` and the ranks from ``core``.

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
    X, core = as_tensor(X), as_tensor(core)
    _check_values(X)
    _check_values(core, what="core")
    _validate(eps, eta, trials, embed_dims, X.ndim)
    _check_ranks(core.shape, X.shape)
    _check_count("y_samples", y_samples)
    shapes = [np.shape(f) for f in factors]
    if shapes != list(zip(X.shape, core.shape)):
        raise ValueError(f"factor shapes {shapes} do not match tensor {X.shape} and core {core.shape}")
    split = _residual_split(matricize(X, mode), psi_matrix(core, factors, mode))

    def worst_distortion(gen: np.random.Generator) -> float:
        embeds = _trial_embeddings(family, X.shape, embed_dims, gen)
        cands = np.linalg.qr(gen.standard_normal((y_samples, X.shape[mode], core.shape[mode])))[0]
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
        "residual-distortion", worst_distortion, max_admissible_residual_eps, core.shape, embed_dims,
        eps, eta, trials, seed, family, y_samples=y_samples,
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
    _check_count("trials", trials)

    def gap(gen: np.random.Generator) -> float:
        q = int(gen.integers(3, 5))
        dims = tuple(int(gen.integers(2, 13)) for _ in range(q))
        ranks = tuple(int(gen.integers(1, min(4, n) + 1)) for n in dims)
        T = random_orthogonal_tucker(dims, ranks, gen)
        j = int(gen.integers(0, q))
        p = int(gen.integers(1, dims[j] + 4))
        B = gen.standard_normal((p, dims[j]))
        lhs = norm_via_gram(T, B, j)
        rhs = norm(mode_multiply(reconstruct(T), B, j)) ** 2
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    report, _ = _run_trials("gram-identity", seed, lambda t, gen: _measured(gap(gen), tol), trials)
    report.threshold = tol
    report.details["max_rel_err"] = max(report.distortions)
    return report


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
    _check_count("trials", trials)

    def check(t: int, gen: np.random.Generator):
        E = make_embedding(family, n, m, gen)
        x = gen.standard_normal(n)
        y = gen.standard_normal(n)
        return check_inner_product_bound(E, x / np.linalg.norm(x), y / np.linalg.norm(y), eps)

    report, held = _run_trials("inner-product-suite", seed, check, trials)
    worst = max((c["lhs"] / c["rhs"] for c in held), default=0.0)
    report.details = {"satisfied": len(held), "worst_lhs_over_rhs": worst}
    return report


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

    Draw t maps mode ``t % order``.  Draws are capped at 20x the target;
    zero violations required among the satisfying draws.
    """
    _check_count("target", target)

    def check(t: int, gen: np.random.Generator):
        T = random_orthogonal_tucker(dims, ranks, gen)
        j = t % len(dims)
        return check_prop1(T, make_embedding(family, dims[j], m, gen), j, eps)

    report, held = _run_trials("mode-perturbation-suite", seed, check, 20 * target, target)
    report.details = {"satisfied": len(held), "target": target}
    return report


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
    return check_multimode_distortion(dims, ranks, (embed_dim,) * len(dims), eps, eta, trials, seed, family)


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
    report = check_residual_distortion(
        X, sub.core, sub.factors, 0, (embed_dim,) * len(dims), eps, eta, trials, seed, y_samples, family
    )
    p_dim = estimate_subspace_dim(sub.core, sub.factors, 0)
    report.details["subspace_dim_estimate"] = p_dim
    report.details["residual_dim_bound"] = residual_embedding_dim_bound(eps, eta, dims, p_dim)
    return report
