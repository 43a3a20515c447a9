import numpy as np
import pytest

from tuckersketch import rng
from tuckersketch.embeddings import (
    draw_sample_rows,
    is_eps_jl,
    make_embedding,
    make_mix_operators,
    mix,
    sample_size,
    unmix_factor,
)
from tuckersketch.tensor import multi_mode_multiply, norm

from oracles import dct_matrix


def test_dct_matrix_is_orthonormal():
    F = dct_matrix(17)
    assert np.max(np.abs(F.T @ F - np.eye(17))) <= 1e-12


def test_make_embedding_validation():
    with pytest.raises(ValueError):
        make_embedding("bogus", 8, 4, rng.stream(0))
    with pytest.raises(ValueError):
        make_embedding("srft", 8, 9, rng.stream(0))  # m > n
    with pytest.raises(ValueError):
        make_embedding("gaussian", 8, 0, rng.stream(0))


@pytest.mark.parametrize("n, m", [(8, 3), (17, 17), (64, 24)])
def test_srft_is_scaled_sampled_rows_of_the_sign_mixed_dct(n, m):
    for seed in (1, 2, 3):
        A = make_embedding("srft", n, m, rng.stream(seed))
        # the draw order: n signs, then m rows
        gen = rng.stream(seed)
        signs = gen.integers(0, 2, size=n) * 2.0 - 1.0
        rows = draw_sample_rows(gen, n, m)
        assert A.shape == (m, n)
        assert np.allclose(A, np.sqrt(n / m) * (dct_matrix(n) * signs)[rows], rtol=0, atol=1e-12)


def test_srft_full_sampling_is_orthogonal():
    for seed in (1, 2, 3):
        A = make_embedding("srft", 12, 12, rng.stream(seed))
        assert np.max(np.abs(A.T @ A - np.eye(12))) <= 1e-12
        assert np.max(np.abs(A @ A.T - np.eye(12))) <= 1e-12


def test_srft_of_large_n_is_built_row_by_row():
    # an n-by-n build would need 320 GB here
    A = make_embedding("srft", 200_000, 3, rng.stream(0))
    assert A.shape == (3, 200_000)
    assert np.max(np.abs(A @ A.T - (200_000 / 3) * np.eye(3))) <= 1e-6


def test_embedding_determinism_and_seed_sensitivity():
    for kind in ("srft", "gaussian"):
        a = make_embedding(kind, 16, 8, rng.stream(42))
        b = make_embedding(kind, 16, 8, rng.stream(42))
        assert np.array_equal(a, b)
        c = make_embedding(kind, 16, 8, rng.stream(43))
        assert not np.array_equal(a, c)


def test_gaussian_norm_unbiasedness_over_seeds():
    gen = np.random.default_rng(2)
    x = gen.standard_normal(64)
    ratios = []
    for seed in range(2000):
        A = make_embedding("gaussian", 64, 32, rng.stream(seed))
        ratios.append(np.sum((A @ x) ** 2) / np.sum(x**2))
    assert 0.95 <= np.mean(ratios) <= 1.05


def test_sample_size_rounds_half_up():
    assert sample_size(0.5, 5) == 3
    assert sample_size(0.25, 10) == 3  # 2.5 rounds up
    assert sample_size(0.1, 4) == 1  # clamped to at least 1
    assert sample_size(1.0, 7) == 7
    with pytest.raises(ValueError):
        sample_size(0.0, 5)
    with pytest.raises(ValueError):
        sample_size(1.5, 5)


def test_draw_sample_rows_without_replacement():
    gen = np.random.default_rng(4)
    rows = draw_sample_rows(gen, 10, 10)
    assert sorted(rows.tolist()) == list(range(10))
    with pytest.raises(ValueError):
        draw_sample_rows(gen, 4, 5)


def test_mix_preserves_norm_and_unmixes():
    gen = np.random.default_rng(6)
    X = gen.standard_normal((5, 6, 4))
    ops = make_mix_operators(X.shape, (0, 2), seed=9)
    Xm = mix(X, ops)
    assert norm(Xm) == pytest.approx(norm(X), rel=1e-12)
    assert ops.signs[1] is None

    # factors living in mixed space pull back through the same maps
    G = gen.standard_normal((5, 3))
    import scipy.fft

    mixed_G = scipy.fft.dct(ops.signs[0][:, None] * G, type=2, axis=0, norm="ortho")
    assert np.allclose(unmix_factor(mixed_G, ops, 0), G, atol=1e-12)
    # unmixing preserves orthonormality
    Q = np.linalg.qr(gen.standard_normal((5, 3)))[0]
    U = unmix_factor(Q, ops, 0)
    assert np.max(np.abs(U.T @ U - np.eye(3))) <= 1e-12
    # no-op for untouched modes
    H = gen.standard_normal((6, 2))
    assert np.array_equal(unmix_factor(H, ops, 1), H)


@pytest.mark.parametrize("modes", [(0, 1, 2), (0, 2)])
def test_mix_matches_dense_mode_products(modes):
    gen = np.random.default_rng(8)
    X = gen.standard_normal((5, 6, 4))
    ops = make_mix_operators(X.shape, modes, seed=11)
    dense = [None if s is None else dct_matrix(len(s)) * s[None, :] for s in ops.signs]
    expected = multi_mode_multiply(X, dense)
    for Y in (X, np.asfortranarray(X)):
        before = Y.copy()
        out = mix(Y, ops)
        assert np.allclose(out, expected, atol=1e-13)
        # one C-ordered working copy, mixed in place; the input is not written
        assert out.flags.c_contiguous and not np.shares_memory(out, Y)
        assert np.array_equal(Y, before)


def test_mix_with_no_modes_is_identity():
    gen = np.random.default_rng(7)
    X = gen.standard_normal((4, 4))
    ops = make_mix_operators(X.shape, (), seed=0)
    assert mix(X, ops) is X


def test_is_eps_jl_orthogonal_map_passes_with_zero_distortion():
    E = make_embedding("srft", 12, 12, rng.stream(3))
    gen = np.random.default_rng(8)
    vectors = gen.standard_normal((5, 12))
    report = is_eps_jl(E, vectors, eps=0.01)
    assert report.ok
    assert np.max(np.abs(report.distortions)) <= 1e-12


def test_is_eps_jl_zero_vector_passes_vacuously():
    E = make_embedding("gaussian", 8, 4, rng.stream(0))
    report = is_eps_jl(E, np.zeros((1, 8)), eps=0.1)
    assert report.ok
    assert report.distortions[0] == 0.0


def test_is_eps_jl_validation():
    E = make_embedding("gaussian", 8, 4, rng.stream(0))
    with pytest.raises(ValueError):
        is_eps_jl(E, np.zeros((1, 9)), eps=0.5)
    with pytest.raises(ValueError):
        is_eps_jl(E, np.zeros((1, 8)), eps=0.0)


def jl_failure_rate(kind, n, m, make_set, eps, trials, seed) -> float:
    """Fraction of fresh embedding draws that distort some set vector by >= eps.

    Trial t draws everything from its own stream ``(seed, TRIAL, t)``:
    first the embedding, then whatever ``make_set(gen)`` draws to build
    the vectors (rows) it returns.
    """
    failures = 0
    for t in range(trials):
        gen = rng.stream(seed, rng.TRIAL, t)
        E = make_embedding(kind, n, m, gen)
        if not is_eps_jl(E, make_set(gen), eps).ok:
            failures += 1
    return failures / trials


def test_jl_failure_rate_zero_for_full_sampling():
    def unit_set(gen):
        v = gen.standard_normal((3, 16))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    assert jl_failure_rate("srft", 16, 16, unit_set, 0.05, trials=20, seed=0) == 0.0


def test_jl_failure_rate_deterministic_and_improves_with_m():
    def unit_set(gen):
        v = gen.standard_normal((4, 64))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    r1 = jl_failure_rate("gaussian", 64, 8, unit_set, 0.5, trials=200, seed=5)
    r2 = jl_failure_rate("gaussian", 64, 8, unit_set, 0.5, trials=200, seed=5)
    assert r1 == r2
    r_big = jl_failure_rate("gaussian", 64, 48, unit_set, 0.5, trials=200, seed=5)
    assert r_big <= r1
