import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from tuckersketch import rng
from tuckersketch.embeddings import (
    draw_sample_rows,
    draw_signs,
    is_eps_jl,
    make_embedding,
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


def mix_signs(shape, modes, seed):
    return {j: draw_signs(rng.stream(seed, rng.MIX, j), shape[j]) for j in modes}


def test_draw_signs_are_rademacher():
    s = draw_signs(rng.stream(0), 1000)
    assert s.shape == (1000,) and s.dtype == np.float64
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert np.array_equal(s, draw_signs(rng.stream(0), 1000))


def test_mix_preserves_norm_and_unmixes():
    gen = np.random.default_rng(6)
    X = gen.standard_normal((5, 6, 4))
    signs = mix_signs(X.shape, (0, 2), seed=9)
    Xm = mix(X, signs)
    assert norm(Xm) == pytest.approx(norm(X), rel=1e-12)

    # factors living in mixed space pull back through the same maps
    G = gen.standard_normal((5, 3))
    mixed_G = scipy.fft.dct(signs[0][:, None] * G, type=2, axis=0, norm="ortho")
    assert np.allclose(unmix_factor(mixed_G, signs[0]), G, atol=1e-12)
    # unmixing preserves orthonormality
    Q = np.linalg.qr(gen.standard_normal((5, 3)))[0]
    U = unmix_factor(Q, signs[0])
    assert np.max(np.abs(U.T @ U - np.eye(3))) <= 1e-12
    # no-op for untouched modes
    H = gen.standard_normal((6, 2))
    assert np.array_equal(unmix_factor(H, signs.get(1)), H)
    with pytest.raises(ValueError, match="rows"):
        unmix_factor(H, signs[0])
    # a vector pulls back as a one-column factor does (it used to come back
    # as the outer product of the signs with its transform)
    assert np.array_equal(unmix_factor(G[:, 0], signs[0]), unmix_factor(G[:, :1], signs[0])[:, 0])


@pytest.mark.parametrize("modes", [(0, 1, 2), (0, 2)])
def test_mix_matches_dense_mode_products(modes):
    gen = np.random.default_rng(8)
    X = gen.standard_normal((5, 6, 4))
    signs = mix_signs(X.shape, modes, seed=11)
    dense = [dct_matrix(n) * signs[j][None, :] if j in signs else None for j, n in enumerate(X.shape)]
    expected = multi_mode_multiply(X, dense)
    for Y in (X, np.asfortranarray(X)):
        before = Y.copy()
        out = mix(Y, signs)
        assert np.allclose(out, expected, atol=1e-13)
        # one C-ordered working copy, which the first transform writes
        # chunk by chunk; the input is not written
        assert out.flags.c_contiguous and not np.shares_memory(out, Y)
        assert np.array_equal(Y, before)


def textbook_mix(X, signs):
    """Flip, then DCT, one mode at a time in increasing mode order."""
    out = X
    for j in sorted(signs):
        flip = signs[j].reshape([-1 if k == j else 1 for k in range(X.ndim)])
        out = scipy.fft.dct(out * flip, type=2, axis=j, norm="ortho")
    return out


def layouts(X):
    """The values of ``X`` C-ordered, F-ordered, with negative strides, with
    mode 0 stored fastest and the others in C order, and F-ordered and
    read-only, as the TKR1 reader returns them."""
    read_only = np.asfortranarray(X)
    read_only.flags.writeable = False
    return {"C": X, "F": np.asfortranarray(X), "reversed": np.flip(np.flip(X).copy()),
            "transposed": np.moveaxis(np.ascontiguousarray(np.moveaxis(X, 0, -1)), -1, 0),
            "read-only": read_only}


# sizes 16 does not divide, so the chunks along a mode of 17 to 35 are
# ragged, and size-1 modes
@pytest.mark.parametrize("shape", [(35,), (1,), (35, 17), (1, 35), (17, 35, 3), (35, 1, 19),
                                   (3, 19, 2, 18), (2, 17, 1, 3, 18)])
def test_mix_is_bitwise_the_mode_by_mode_flip_and_transform(shape):
    gen = np.random.default_rng(len(shape))
    X = gen.standard_normal(shape)
    for r in range(1, len(shape) + 1):
        for modes in itertools.combinations(range(len(shape)), r):
            signs = {j: draw_signs(gen, shape[j]) for j in modes}
            expected = textbook_mix(X, signs)
            for name, Y in layouts(X).items():
                before = Y.copy()
                out = mix(Y, signs)
                assert out.flags.c_contiguous, (modes, name)
                assert np.array_equal(out, expected), (modes, name)
                assert np.array_equal(Y, before)


@pytest.mark.parametrize("shape, modes", [((0, 3), (1,)), ((2, 0, 3), (0, 2))])
def test_mix_of_a_tensor_with_an_empty_mode_is_empty(shape, modes):
    X = np.empty(shape)
    out = mix(X, {j: np.ones(shape[j]) for j in modes})
    assert out.shape == shape and out.flags.c_contiguous


def test_mix_rejects_an_empty_mixed_mode():
    for shape, j in [((0,), 0), ((3, 0), 1), ((0, 3), 0)]:
        with pytest.raises(ValueError, match="invalid number of data points"):
            mix(np.empty(shape), {j: np.ones(shape[j])})


def test_mix_of_an_f_ordered_tensor_allocates_little_beyond_its_copy():
    # the copy plus a chunk's flip and transform; an unchunked out-of-place
    # first transform would take at least twice the input
    gen = np.random.default_rng(12)
    X = np.asfortranarray(gen.standard_normal((64, 64, 64)))
    signs = {j: draw_signs(gen, 64) for j in range(3)}
    tracemalloc.start()
    try:
        mix(X, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.nbytes


def test_mix_with_no_modes_is_identity():
    gen = np.random.default_rng(7)
    X = gen.standard_normal((4, 4))
    assert mix(X, {}) is X


def test_mix_transforms_in_mode_order_whatever_the_key_order():
    gen = np.random.default_rng(9)
    X = gen.standard_normal((5, 6, 4))
    s0, s2 = draw_signs(gen, 5), draw_signs(gen, 4)
    assert np.array_equal(mix(X, {2: s2, 0: s0}), mix(X, {0: s0, 2: s2}))


def test_mix_rejects_bad_modes_and_sign_lengths():
    X = np.ones((5, 6, 4))
    for bad in (3, -1):
        with pytest.raises(ValueError, match="out of range"):
            mix(X, {bad: np.ones(4)})
    with pytest.raises(ValueError, match="sign vector"):
        mix(X, {1: np.ones(5)})


def test_is_eps_jl_orthogonal_map_passes_with_zero_distortion():
    E = make_embedding("srft", 12, 12, rng.stream(3))
    gen = np.random.default_rng(8)
    vectors = gen.standard_normal((5, 12))
    assert is_eps_jl(E, vectors, eps=1e-12)


def test_is_eps_jl_zero_vector_passes_vacuously():
    E = make_embedding("gaussian", 8, 4, rng.stream(0))
    # the smallest positive eps: the distortion is exactly 0
    assert is_eps_jl(E, np.zeros((1, 8)), eps=np.nextafter(0.0, 1.0))


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
        if not is_eps_jl(E, make_set(gen), eps):
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
