import math
from dataclasses import replace

import numpy as np
import pytest

from tuckersketch.bounds import (
    BoundParams,
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
from tuckersketch.embeddings import embedding_matrix, make_embedding
from tuckersketch import rng
from tuckersketch.tensor import mode_multiply, norm
from tuckersketch.tucker import TuckerDecomposition, random_orthogonal_tucker, reconstruct

from oracles import multimode_distortion_oracle, residual_distortion_oracle, subspace_dim_oracle


def params(**kw):
    base = dict(eps=0.5, eta=0.1, dims=(16, 16, 16), ranks=(2, 2, 2), trials=10)
    base.update(kw)
    return BoundParams(**base)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        params(eps=-1.0).validate()
    with pytest.raises(ValueError):
        params(eta=0.0).validate()
    with pytest.raises(ValueError):
        params(ranks=(2, 2)).validate()
    with pytest.raises(ValueError):
        params(ranks=(17, 2, 2)).validate()
    with pytest.raises(ValueError):
        params(trials=0).validate()
    with pytest.raises(ValueError, match="y_samples"):
        params(y_samples=0).validate()


def test_embedding_dim_bound_frozen_value():
    p = BoundParams(eps=0.5, eta=0.1, dims=(64, 64, 64), ranks=(3, 3, 3), trials=1)
    assert embedding_dim_bound(p) == [1814, 1814, 1814]


def test_embedding_dim_bound_scales_inverse_square_in_eps():
    p1 = params(eps=0.25)
    p2 = params(eps=0.5)
    # pre-ceiling the bound quarters when eps doubles
    raw1 = embedding_dim_bound(p1)[0]
    raw2 = embedding_dim_bound(p2)[0]
    assert raw1 == pytest.approx(4 * raw2, rel=0.01)


def test_embedding_dim_bound_monotone_in_eta():
    tight = embedding_dim_bound(params(eta=0.01))[0]
    loose = embedding_dim_bound(params(eta=0.5))[0]
    assert tight > loose


def test_embedding_dim_bound_degenerate_clamp():
    p = BoundParams(eps=2.0, eta=0.999, dims=(4,), ranks=(1,), trials=1)
    assert embedding_dim_bound(p) == [1]


def test_residual_embedding_dim_bound():
    p = params()
    m = residual_embedding_dim_bound(p, p_dim=32)
    assert m >= 1
    assert residual_embedding_dim_bound(p, p_dim=64) > m
    with pytest.raises(ValueError):
        residual_embedding_dim_bound(p, p_dim=0)


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
    assert rep.passed and not rep.discarded
    assert rep.details["lhs"] <= 1e-10


def test_inner_product_bound_zero_vector_edge():
    E = make_embedding("gaussian", 16, 8, rng.stream(1))
    x = np.random.default_rng(1).standard_normal(16)
    rep = check_inner_product_bound(E, x, np.zeros(16), eps=0.5)
    assert rep.discarded == 0
    assert rep.passed


def test_inner_product_bound_discards_failed_hypothesis():
    # eps tiny enough that a random gaussian draw essentially always distorts more
    gen = np.random.default_rng(2)
    E = make_embedding("gaussian", 16, 2, rng.stream(3))
    x = gen.standard_normal(16)
    y = gen.standard_normal(16)
    rep = check_inner_product_bound(E, x, y, eps=1e-6)
    assert rep.discarded == 1
    assert rep.failures == 0


def test_prop1_orthogonal_map_zero_distortion():
    T = random_orthogonal_tucker((12, 12, 12), (3, 3, 3), np.random.default_rng(3))
    E = make_embedding("srft", 12, 12, rng.stream(7))
    rep = check_prop1(T, E, mode=0, eps=0.4)
    assert not rep.discarded
    assert rep.passed
    assert rep.details["mapped_coherence"] <= 1e-10


def test_prop1_single_column_mode_is_vacuous():
    T = random_orthogonal_tucker((10, 10), (1, 2), np.random.default_rng(4))
    E = make_embedding("srft", 10, 10, rng.stream(9))
    rep = check_prop1(T, E, mode=0, eps=0.4)
    assert rep.passed


@pytest.mark.parametrize("family", ["gaussian", "srft"])
def test_prop1_norm_shift_matches_dense_route(family):
    dims, ranks = (12, 10, 8), (3, 2, 3)
    checked = 0
    for t in range(200):
        T = random_orthogonal_tucker(dims, ranks, np.random.default_rng(t))
        j = t % 3
        E = make_embedding(family, dims[j], dims[j] - 2, rng.stream(t))
        rep = check_prop1(T, E, j, eps=0.6)
        if rep.discarded:
            continue
        Y = reconstruct(T)
        want = abs(norm(mode_multiply(Y, embedding_matrix(E), j)) ** 2 - norm(Y) ** 2)
        assert abs(rep.details["norm_shift"] - want) <= 1e-10 * want
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
    p = params(embed_dims=(16, 16, 16), trials=15)
    rep = check_multimode_distortion(p, family="srft")
    assert rep.failures == 0
    assert max(rep.distortions) <= 1e-10


def test_multimode_distortion_deterministic():
    p = params(embed_dims=(8, 8, 8), trials=25, seed=11)
    r1 = check_multimode_distortion(p, family="gaussian")
    r2 = check_multimode_distortion(p, family="gaussian")
    assert r1.distortions == r2.distortions
    assert r1.threshold == pytest.approx(0.1 + 2 * math.sqrt(0.09 / 25))
    # trial t draws depend on (seed, t) alone: 4 trials are the first 4 of 10
    X, core, factors = oblique_problem((6, 7, 8), (2, 3, 2), 12)
    q = params(eps=0.6, eta=0.2, dims=(6, 7, 8), ranks=(2, 3, 2), embed_dims=(4, 5, 6), seed=13, y_samples=5)
    for family in ("gaussian", "srft"):
        short, full = (check_multimode_distortion(replace(p, trials=k), family) for k in (4, 10))
        assert short.distortions == full.distortions[:4]
        short, full = (check_residual_distortion(X, replace(q, trials=k), core, factors, 1, family) for k in (4, 10))
        assert short.distortions == full.distortions[:4]
    assert run_lemma21_suite(trials=4, seed=11).distortions == run_lemma21_suite(trials=10, seed=11).distortions[:4]


def test_multimode_distortion_rejects_inadmissible_eps():
    p = params(eps=1.5, embed_dims=(8, 8, 8))
    with pytest.raises(ValueError, match="admissible"):
        check_multimode_distortion(p, family="gaussian")


def test_multimode_distortion_requires_embed_dims():
    with pytest.raises(ValueError, match="embed_dims"):
        check_multimode_distortion(params(), family="gaussian")


def test_residual_distortion_candidates_never_degenerate():
    gen = rng.stream(0, 1)
    dims, ranks = (10, 10, 10), (2, 2, 2)
    X = gen.standard_normal(dims)
    sub = random_orthogonal_tucker(dims, ranks, gen)
    p = BoundParams(
        eps=0.6, eta=0.2, dims=dims, ranks=ranks, trials=8,
        embed_dims=(10, 10, 10), seed=3, y_samples=5,
    )
    rep = check_residual_distortion(X, p, sub.core, sub.factors, mode=0, family="srft")
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
    p = params(dims=(6, 7, 8), ranks=(2, 3, 2), embed_dims=(4, 5, 6), trials=8, seed=31)
    rep = check_multimode_distortion(p, family)
    assert_rel_close(rep.distortions, multimode_distortion_oracle(p, family))


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
    p = params(eps=0.6, eta=0.2, dims=dims, ranks=ranks, embed_dims=(4, 5, 6), trials=6, seed=7, y_samples=5)
    rep = check_residual_distortion(X, p, core, factors, mode, family)
    assert_rel_close(rep.distortions, residual_distortion_oracle(X, p, core, factors, mode, family))


def test_residual_distortion_accurate_when_candidate_nearly_equals_x():
    # X is the only candidate plus a residual 1e-6 of its size: the split
    # evaluates ||X - Y|| as norms of differences, so no digits cancel
    dims, ranks, mode = (6, 7, 8), (2, 3, 2), 1
    _, core, factors = oblique_problem(dims, ranks, 50)
    p = params(eps=0.6, eta=0.2, dims=dims, ranks=ranks, embed_dims=(4, 5, 6), trials=1, seed=9, y_samples=1)
    # replay trial 0's stream: the embeddings come first, then the candidate
    gen = rng.stream(p.seed, rng.TRIAL, 0)
    _trial_embeddings(p, "gaussian", gen)
    fs = list(factors)
    fs[mode] = np.linalg.qr(gen.standard_normal((dims[mode], ranks[mode])))[0]
    Y = reconstruct(TuckerDecomposition(core, fs))
    X = Y + 1e-6 * np.linalg.norm(Y) * np.random.default_rng(51).standard_normal(dims) / np.sqrt(Y.size)
    rep = check_residual_distortion(X, p, core, factors, mode, "gaussian")
    assert_rel_close(rep.distortions, residual_distortion_oracle(X, p, core, factors, mode, "gaussian"), rel=1e-8)


def test_residual_distortion_embedding_dim_below_rank():
    # embedded factors are 2-by-3: not a valid decomposition, still a valid check
    dims, ranks = (8, 8, 8), (3, 3, 3)
    X, core, factors = oblique_problem(dims, ranks, 80)
    p = params(eps=0.6, eta=0.2, dims=dims, ranks=ranks, embed_dims=(2, 2, 2), trials=6, seed=11, y_samples=5)
    rep = check_residual_distortion(X, p, core, factors, 0, "gaussian")
    assert rep.trials == 6
    assert_rel_close(rep.distortions, residual_distortion_oracle(X, p, core, factors, 0, "gaussian"))


def test_residual_distortion_rejects_mismatched_factors():
    X, core, factors = oblique_problem((6, 7, 8), (2, 3, 2), 81)
    p = params(eps=0.6, eta=0.2, dims=(6, 7, 8), ranks=(2, 3, 2), embed_dims=(4, 5, 6), trials=1)
    with pytest.raises(ValueError, match="factor shapes"):
        check_residual_distortion(X, p, core, [factors[0], factors[1], factors[2][:5]], 0)
    with pytest.raises(ValueError, match="factor shapes"):
        check_residual_distortion(X, p, core, factors[:2], 0)


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
