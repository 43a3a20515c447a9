import math

import numpy as np
import pytest

from tuckersketch.bounds import (
    _trial,
    _trial_embeddings,
    check_inner_product_bound,
    check_multimode_distortion,
    check_prop1,
    check_residual_distortion,
    embedding_dim_bound,
    estimate_subspace_dim,
    max_admissible_eps,
    pair_vector_set,
    residual_embedding_dim_bound,
    run_lemma21_suite,
    run_lemma_a_suite,
    run_prop1_suite,
)
from tuckersketch.embeddings import make_embedding
from tuckersketch import bounds, rng
from tuckersketch.tensor import mode_multiply, norm
from tuckersketch.tucker import TuckerDecomposition, random_orthogonal_tucker, reconstruct

from oracles import multimode_distortion_oracle, residual_distortion_oracle, subspace_dim_oracle


def multimode(**kw):
    """check_multimode_distortion at a small default setting, overridden by ``kw``."""
    setting = dict(dims=(16, 16, 16), ranks=(2, 2, 2), embed_dims=(8, 8, 8), eps=0.5, eta=0.1, trials=10)
    return check_multimode_distortion(**{**setting, **kw})


def test_bound_check_validation():
    # one validator serves every check; each bad setting is rejected
    with pytest.raises(ValueError):
        multimode(eps=-1.0)
    with pytest.raises(ValueError):
        multimode(eta=0.0)
    with pytest.raises(ValueError):
        multimode(ranks=(2, 2))
    with pytest.raises(ValueError):
        multimode(ranks=(17, 2, 2))
    with pytest.raises(ValueError):
        multimode(trials=0)
    X, core, factors = oblique_problem((6, 7, 8), (2, 3, 2), 82)
    with pytest.raises(ValueError, match="y_samples"):
        check_residual_distortion(X, core, factors, 0, (4, 5, 6), eps=0.6, eta=0.2, trials=1, y_samples=0)
    with pytest.raises(ValueError):
        embedding_dim_bound(0.5, 0.1, (0, 2, 2))
    with pytest.raises(ValueError):
        residual_embedding_dim_bound(0.5, 1.0, (16, 16, 16), p_dim=32)


def test_embedding_dim_bound_frozen_value():
    assert embedding_dim_bound(0.5, 0.1, (3, 3, 3)) == [1814, 1814, 1814]


def test_embedding_dim_bound_scales_inverse_square_in_eps():
    # pre-ceiling the bound quarters when eps doubles
    raw1 = embedding_dim_bound(0.25, 0.1, (2, 2, 2))[0]
    raw2 = embedding_dim_bound(0.5, 0.1, (2, 2, 2))[0]
    assert raw1 == pytest.approx(4 * raw2, rel=0.01)


def test_embedding_dim_bound_monotone_in_eta():
    tight = embedding_dim_bound(0.5, 0.01, (2, 2, 2))[0]
    loose = embedding_dim_bound(0.5, 0.5, (2, 2, 2))[0]
    assert tight > loose


def test_embedding_dim_bound_degenerate_clamp():
    assert embedding_dim_bound(2.0, 0.999, (1,)) == [1]


def test_residual_embedding_dim_bound():
    dims = (16, 16, 16)
    m = residual_embedding_dim_bound(0.5, 0.1, dims, p_dim=32)
    assert m >= 1
    assert residual_embedding_dim_bound(0.5, 0.1, dims, p_dim=64) > m
    with pytest.raises(ValueError):
        residual_embedding_dim_bound(0.5, 0.1, dims, p_dim=0)


def test_admissible_eps_frozen_value():
    # order 3, max rank 3: ln 2 / (1/3 + 1/2 + 1/9)
    assert max_admissible_eps(3, 3) == pytest.approx(math.log(2) / (1 / 3 + 0.5 + 1 / 9), rel=1e-12)
    assert 0.5 < max_admissible_eps(3, 3) < 0.8


def test_pair_vector_set_size():
    f = np.eye(5)[:, :3]
    S = pair_vector_set(f)
    # r columns plus 2 * C(r, 2) sums/differences
    assert S.shape == (3 + 2 * 3, 5)


def test_inner_product_bound_orthogonal_map_never_violates():
    gen = np.random.default_rng(0)
    E = make_embedding("srft", 32, 32, rng.stream(5))
    x = gen.standard_normal(32)
    y = gen.standard_normal(32)
    rep = check_inner_product_bound(E, x, y, eps=0.3)
    assert rep is not None and rep["ok"]
    assert rep["lhs"] <= 1e-10


def test_inner_product_bound_zero_vector_edge():
    E = make_embedding("gaussian", 16, 8, rng.stream(1))
    x = np.random.default_rng(1).standard_normal(16)
    rep = check_inner_product_bound(E, x, np.zeros(16), eps=0.5)
    assert rep is not None
    assert rep["ok"]


def test_inner_product_bound_discards_failed_hypothesis():
    # eps tiny enough that a random gaussian draw essentially always distorts more
    gen = np.random.default_rng(2)
    E = make_embedding("gaussian", 16, 2, rng.stream(3))
    x = gen.standard_normal(16)
    y = gen.standard_normal(16)
    assert check_inner_product_bound(E, x, y, eps=1e-6) is None


def test_prop1_orthogonal_map_zero_distortion():
    T = random_orthogonal_tucker((12, 12, 12), (3, 3, 3), np.random.default_rng(3))
    E = make_embedding("srft", 12, 12, rng.stream(7))
    rep = check_prop1(T, E, mode=0, eps=0.4)
    assert rep is not None
    assert rep["ok"]
    assert rep["mapped_coherence"] <= 1e-10


def test_prop1_single_column_mode_is_vacuous():
    T = random_orthogonal_tucker((10, 10), (1, 2), np.random.default_rng(4))
    E = make_embedding("srft", 10, 10, rng.stream(9))
    rep = check_prop1(T, E, mode=0, eps=0.4)
    assert rep is not None and rep["ok"]


@pytest.mark.parametrize("family", ["gaussian", "srft"])
def test_prop1_norm_shift_matches_dense_route(family):
    dims, ranks = (12, 10, 8), (3, 2, 3)
    checked = 0
    for t in range(200):
        T = random_orthogonal_tucker(dims, ranks, np.random.default_rng(t))
        j = t % 3
        E = make_embedding(family, dims[j], dims[j] - 2, rng.stream(t))
        rep = check_prop1(T, E, j, eps=0.6)
        if rep is None:
            continue
        Y = reconstruct(T)
        want = abs(norm(mode_multiply(Y, E, j)) ** 2 - norm(Y) ** 2)
        assert abs(rep["norm_shift"] - want) <= 1e-10 * want
        checked += 1
        if checked == 20:
            break
    assert checked == 20


def test_prop1_requires_orthogonal_decomposition():
    gen = np.random.default_rng(5)
    from tuckersketch.tucker import TuckerDecomposition

    T = TuckerDecomposition(gen.standard_normal((2, 2)), [gen.standard_normal((6, 2)) for _ in range(2)])
    E = make_embedding("gaussian", 6, 4, rng.stream(0))
    with pytest.raises(ValueError):
        check_prop1(T, E, 0, 0.5)


def test_lemma21_suite_identity_tight():
    rep = run_lemma21_suite(trials=60, seed=21)
    assert rep.passed
    assert rep.details["max_rel_err"] <= 1e-10


def test_lemma_a_suite_zero_violations():
    rep = run_lemma_a_suite(trials=150, eps=0.5, seed=22)
    assert rep.failures == 0
    assert rep.details["satisfied"] + rep.discarded == 150


def test_prop1_suite_zero_violations():
    rep = run_prop1_suite(target=60, eps=0.6, seed=23)
    assert rep.failures == 0
    assert rep.details["satisfied"] == 60


def test_multimode_distortion_orthogonal_embeddings_never_fail():
    rep = multimode(embed_dims=(16, 16, 16), trials=15, family="srft")
    assert rep.failures == 0
    assert max(rep.distortions) <= 1e-10


def test_multimode_distortion_deterministic():
    r1 = multimode(trials=25, seed=11)
    r2 = multimode(trials=25, seed=11)
    assert r1.distortions == r2.distortions
    assert r1.threshold == pytest.approx(0.1 + 2 * math.sqrt(0.09 / 25))
    # trial t draws depend on (seed, t) alone: 4 trials are the first 4 of 10
    X, core, factors = oblique_problem((6, 7, 8), (2, 3, 2), 12)
    q = dict(embed_dims=(4, 5, 6), eps=0.6, eta=0.2, seed=13, y_samples=5)
    for family in ("gaussian", "srft"):
        short, full = (multimode(trials=k, seed=11, family=family) for k in (4, 10))
        assert short.distortions == full.distortions[:4]
        short, full = (check_residual_distortion(X, core, factors, 1, trials=k, family=family, **q) for k in (4, 10))
        assert short.distortions == full.distortions[:4]
    assert run_lemma21_suite(trials=4, seed=11).distortions == run_lemma21_suite(trials=10, seed=11).distortions[:4]


def test_multimode_distortion_rejects_inadmissible_eps():
    with pytest.raises(ValueError, match="admissible"):
        multimode(eps=1.5)


def test_multimode_distortion_requires_embed_dims():
    # one embedding size per mode
    with pytest.raises(ValueError, match="embed_dims"):
        multimode(embed_dims=(8, 8))


def test_residual_distortion_candidates_never_degenerate():
    gen = rng.stream(0, 1)
    dims, ranks = (10, 10, 10), (2, 2, 2)
    X = gen.standard_normal(dims)
    sub = random_orthogonal_tucker(dims, ranks, gen)
    rep = check_residual_distortion(
        X, sub.core, sub.factors, 0, (10, 10, 10), eps=0.6, eta=0.2, trials=8, seed=3, y_samples=5, family="srft"
    )
    # orthogonal embeddings: distortion identically ~0, and every trial counted
    assert rep.trials == 8
    assert max(rep.distortions) <= 1e-10
    assert rep.failures == 0


def assert_rel_close(got, want, rel=1e-10):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * abs(w), (g, w)


@pytest.mark.parametrize("family", ["gaussian", "srft"])
def test_multimode_distortion_matches_dense_oracle(family):
    shape = dict(dims=(6, 7, 8), ranks=(2, 3, 2), embed_dims=(4, 5, 6), trials=8, seed=31, family=family)
    rep = multimode(**shape)
    assert_rel_close(rep.distortions, multimode_distortion_oracle(**shape))


def oblique_problem(dims, ranks, seed):
    """Dense X plus a core and non-orthonormal factors for the residual check."""
    gen = np.random.default_rng(seed)
    X = gen.standard_normal(dims)
    core = gen.standard_normal(ranks)
    factors = [gen.standard_normal((n, r)) + 0.5 for n, r in zip(dims, ranks)]
    return X, core, factors


@pytest.mark.parametrize("family", ["gaussian", "srft"])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_residual_distortion_matches_dense_oracle(family, mode):
    dims, ranks = (6, 7, 8), (2, 3, 2)
    X, core, factors = oblique_problem(dims, ranks, 40 + mode)
    trial = dict(embed_dims=(4, 5, 6), trials=6, seed=7, y_samples=5, family=family)
    rep = check_residual_distortion(X, core, factors, mode, eps=0.6, eta=0.2, **trial)
    assert_rel_close(rep.distortions, residual_distortion_oracle(X, core, factors, mode, **trial))


def test_residual_distortion_accurate_when_candidate_nearly_equals_x():
    # X is the only candidate plus a residual 1e-6 of its size: the split
    # evaluates ||X - Y|| as norms of differences, so no digits cancel
    dims, ranks, mode = (6, 7, 8), (2, 3, 2), 1
    _, core, factors = oblique_problem(dims, ranks, 50)
    trial = dict(embed_dims=(4, 5, 6), trials=1, seed=9, y_samples=1, family="gaussian")
    # replay trial 0's stream: the embeddings come first, then the candidate
    gen = _trial(9, 0)
    _trial_embeddings("gaussian", dims, (4, 5, 6), gen)
    fs = list(factors)
    fs[mode] = np.linalg.qr(gen.standard_normal((dims[mode], ranks[mode])))[0]
    Y = reconstruct(TuckerDecomposition(core, fs))
    X = Y + 1e-6 * np.linalg.norm(Y) * np.random.default_rng(51).standard_normal(dims) / np.sqrt(Y.size)
    rep = check_residual_distortion(X, core, factors, mode, eps=0.6, eta=0.2, **trial)
    assert_rel_close(rep.distortions, residual_distortion_oracle(X, core, factors, mode, **trial), rel=1e-8)


def test_residual_distortion_embedding_dim_below_rank():
    # embedded factors are 2-by-3: not a valid decomposition, still a valid check
    dims, ranks = (8, 8, 8), (3, 3, 3)
    X, core, factors = oblique_problem(dims, ranks, 80)
    trial = dict(embed_dims=(2, 2, 2), trials=6, seed=11, y_samples=5, family="gaussian")
    rep = check_residual_distortion(X, core, factors, 0, eps=0.6, eta=0.2, **trial)
    assert rep.trials == 6
    assert_rel_close(rep.distortions, residual_distortion_oracle(X, core, factors, 0, **trial))


def test_residual_distortion_rejects_mismatched_factors():
    X, core, factors = oblique_problem((6, 7, 8), (2, 3, 2), 81)
    setting = dict(embed_dims=(4, 5, 6), eps=0.6, eta=0.2, trials=1)
    with pytest.raises(ValueError, match="factor shapes"):
        check_residual_distortion(X, core, [factors[0], factors[1], factors[2][:5]], 0, **setting)
    with pytest.raises(ValueError, match="factor shapes"):
        check_residual_distortion(X, core, factors[:2], 0, **setting)


def residual_on(X, **kw):
    """check_residual_distortion of ``X`` against a rank-2 sweep at a small setting."""
    sub = random_orthogonal_tucker(X.shape, (2,) * X.ndim, np.random.default_rng(5))
    setting = dict(embed_dims=(10,) * X.ndim, eps=0.6, eta=0.2, trials=5)
    return check_residual_distortion(X, sub.core, sub.factors, 0, **{**setting, **kw})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residual_distortion_rejects_non_finite_tensor(bad):
    # it used to PASS with zero failures and every distortion nan
    X = np.random.default_rng(6).standard_normal((12, 12, 12))
    X[3, 4, 5] = bad
    with pytest.raises(ValueError, match=r"input tensor must be finite \(found inf or nan entries\)"):
        residual_on(X)


@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_residual_distortion_rejects_tensor_whose_squares_over_or_underflow(scale):
    # at 1e160 the squares overflowed to nan distortions and numpy warned
    # on the way; at 1e-200, with the core scaled alike, every residual
    # square underflowed to 0, no candidate was kept and the check PASSed
    X = scale * np.random.default_rng(6).standard_normal((12, 12, 12))
    sub = random_orthogonal_tucker(X.shape, (2, 2, 2), np.random.default_rng(5))
    setting = dict(embed_dims=(10, 10, 10), eps=0.6, eta=0.2, trials=5)
    with pytest.raises(ValueError, match="squared Frobenius norm of the input tensor over- or underflows"):
        check_residual_distortion(X, scale * sub.core, sub.factors, 0, **setting)
    with pytest.raises(ValueError, match="squared Frobenius norm of the core over- or underflows"):
        check_residual_distortion(X / scale, scale * sub.core, sub.factors, 0, **setting)


def test_residual_distortion_accepts_a_zero_tensor():
    rep = residual_on(np.zeros((12, 12, 12)))
    assert rep.trials == 5 and np.isfinite(rep.distortions).all()


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_estimate_subspace_dim_matches_sampled_rank(mode):
    dims, ranks = (6, 7, 8), (2, 3, 2)
    _, core, factors = oblique_problem(dims, ranks, 60 + mode)
    got = estimate_subspace_dim(core, factors, mode)
    assert got == dims[mode] * ranks[mode]
    assert got == subspace_dim_oracle(core, factors, mode, np.random.default_rng(mode))
    # the mode is range-checked before the factor lookup
    with pytest.raises(ValueError, match="out of range"):
        estimate_subspace_dim(core, factors, mode + 3)


def test_estimate_subspace_dim_needs_the_free_factor_before_any_work(monkeypatch):
    # the weight matrix used to be built first, then thrown away
    _, core, factors = oblique_problem((6, 7, 8), (2, 3, 2), 60)
    monkeypatch.setattr(bounds, "psi_matrix", lambda *args: pytest.fail("built the weight matrix"))
    with pytest.raises(ValueError, match="^the free mode still needs a row count; pass a placeholder factor$"):
        estimate_subspace_dim(core, [factors[0], None, factors[2]], 1)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_estimate_subspace_dim_rank_deficient_weights(mode):
    # the core's mode unfolding has rank 1, so the weight matrix W does too
    dims, ranks = (6, 7, 8), (2, 3, 2)
    _, _, factors = oblique_problem(dims, ranks, 70 + mode)
    gen = np.random.default_rng(71)
    rest = [r for k, r in enumerate(ranks) if k != mode]
    core = np.moveaxis(np.multiply.outer(gen.standard_normal(ranks[mode]), gen.standard_normal(rest)), 0, mode)
    got = estimate_subspace_dim(core, factors, mode)
    assert got == dims[mode]
    assert got == subspace_dim_oracle(core, factors, mode, np.random.default_rng(mode))
