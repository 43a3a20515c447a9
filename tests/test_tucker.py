import numpy as np
import pytest

from tuckersketch.tensor import matricize, mode_multiply, norm
from tuckersketch.tucker import (
    TuckerDecomposition,
    _psi_gram,
    apply_mode_map,
    mode_coherence,
    norm_via_gram,
    psi_matrix,
    random_orthogonal_tucker,
    reconstruct,
)


def random_orthogonal(dims, ranks, seed):
    return random_orthogonal_tucker(dims, ranks, np.random.default_rng(seed))


def test_identity_factors_reconstruct_core():
    gen = np.random.default_rng(0)
    core = gen.standard_normal((2, 3, 4))
    T = TuckerDecomposition(core, [np.eye(2), np.eye(3), np.eye(4)], orthogonal=True)
    assert np.array_equal(reconstruct(T), core)


def test_rank_one_reconstruction_is_outer_product():
    a, b, c = np.array([1.0, 2.0]), np.array([1.0, -1.0, 2.0]), np.array([3.0, 0.5])
    T = TuckerDecomposition(
        np.ones((1, 1, 1)), [a[:, None], b[:, None], c[:, None]]
    )
    expected = np.einsum("i,j,k->ijk", a, b, c)
    assert np.allclose(reconstruct(T), expected, atol=1e-14)


def test_orthogonal_reconstruction_preserves_core_norm():
    T = random_orthogonal((6, 7, 8), (2, 3, 2), seed=1)
    assert norm(reconstruct(T)) == pytest.approx(norm(T.core), rel=1e-12)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TuckerDecomposition(np.zeros((2, 2)), [np.zeros((3, 2))])  # missing factor
    with pytest.raises(ValueError, match="^factor 0 is not a matrix$"):
        TuckerDecomposition(np.zeros(3), [np.zeros(3)])
    with pytest.raises(ValueError):
        TuckerDecomposition(np.zeros((2, 2)), [np.zeros((3, 2)), np.zeros((3, 1))])  # rank mismatch
    with pytest.raises(ValueError):
        TuckerDecomposition(np.zeros((3, 2)), [np.zeros((2, 3)), np.zeros((3, 2))])  # R > n
    with pytest.raises(ValueError):
        # flag set but columns far from orthonormal
        TuckerDecomposition(np.zeros((2, 2)), [np.ones((3, 2)), np.eye(2)], orthogonal=True)
    with pytest.raises(ValueError, match="orthonormality"):
        # a NaN gap must not pass for orthonormal
        TuckerDecomposition(np.ones((1,)), [np.array([[np.nan], [0.0]])], orthogonal=True)


def test_mode_coherence_frozen_example():
    f = np.zeros((3, 2))
    f[0, 0] = 1.0
    f[0, 1] = f[1, 1] = 1.0 / np.sqrt(2.0)
    T = TuckerDecomposition(np.ones((1, 2)), [np.ones((1, 1)), f])
    assert mode_coherence(T, 1) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_mode_coherence_orthonormal_is_zero():
    T = random_orthogonal((5, 6), (3, 2), seed=2)
    assert mode_coherence(T, 0) <= 1e-12
    assert mode_coherence(T, 1) <= 1e-12


def test_mode_coherence_single_column_and_zero_column():
    T = TuckerDecomposition(np.ones((1,)), [np.array([[3.0], [4.0]])])
    assert mode_coherence(T, 0) == 0.0
    bad = TuckerDecomposition(np.ones((2,)), [np.column_stack([np.zeros(3), np.ones(3)])])
    with pytest.raises(ValueError):
        mode_coherence(bad, 0)


def test_apply_mode_map_identity_and_scaling():
    T = random_orthogonal((5, 4), (2, 2), seed=3)
    mapped = apply_mode_map(T, np.eye(5), 0)
    assert not mapped.orthogonal  # flag always cleared
    assert np.allclose(mapped.core, T.core, atol=1e-13)
    assert np.allclose(mapped.factors[0], T.factors[0], atol=1e-13)

    doubled = apply_mode_map(T, 2.0 * np.eye(5), 0)
    assert np.allclose(doubled.core, 2.0 * T.core, atol=1e-12)
    assert np.allclose(doubled.factors[0], T.factors[0], atol=1e-13)


def test_apply_mode_map_matches_dense_route():
    gen = np.random.default_rng(4)
    for trial in range(25):
        dims = tuple(int(gen.integers(2, 7)) for _ in range(3))
        ranks = tuple(int(gen.integers(1, min(3, n) + 1)) for n in dims)
        T = TuckerDecomposition(
            gen.standard_normal(ranks),
            [gen.standard_normal((n, r)) for n, r in zip(dims, ranks)],
        )
        j = trial % 3
        B = gen.standard_normal((int(gen.integers(max(ranks[j], 1), dims[j] + 3)), dims[j]))
        lhs = reconstruct(apply_mode_map(T, B, j))
        rhs = mode_multiply(reconstruct(T), B, j)
        denom = max(norm(rhs), 1e-300)
        assert norm(lhs - rhs) / denom <= 1e-11


def test_apply_mode_map_singular_column_raises():
    T = TuckerDecomposition(np.ones((1, 1)), [np.ones((2, 1)), np.ones((2, 1))])
    with pytest.raises(ValueError):
        apply_mode_map(T, np.zeros((2, 2)), 0)


def test_psi_matrix_unfolding_identity():
    # the order-1 case has no other factor: W is the core as a column
    for dims, ranks in [((4, 5, 3), (2, 2, 3)), ((6,), (2,))]:
        T = random_orthogonal(dims, ranks, seed=5)
        Y = reconstruct(T)
        for j in range(len(dims)):
            psi = psi_matrix(T.core, T.factors, j)
            assert psi.shape == (ranks[j], int(np.prod(dims)) // dims[j])
            assert np.allclose(matricize(Y, j), T.factors[j] @ psi, atol=1e-12)


@pytest.mark.parametrize("dims, ranks", [((5, 2, 6), (3, 4, 2)), ((4, 3, 5, 2), (2, 3, 4, 3))])
def test_psi_gram_matches_the_gram_of_the_weight_matrix(dims, ranks):
    # non-orthonormal factors, one with fewer rows than columns: the Gram
    # formed on the core is W W^T without forming W
    gen = np.random.default_rng(11)
    core = gen.standard_normal(ranks)
    factors = [gen.standard_normal((n, r)) + 0.5 for n, r in zip(dims, ranks)]
    for j in range(len(dims)):
        psi = psi_matrix(core, factors, j)
        want = psi @ psi.T
        assert norm(_psi_gram(core, factors, j) - want) <= 1e-12 * norm(want)


def test_norm_via_gram_special_cases():
    T = random_orthogonal((5, 4, 3), (2, 2, 2), seed=6)
    # identity map on an orthogonal decomposition: squared core norm
    assert norm_via_gram(T, np.eye(5), 0) == pytest.approx(norm(T.core) ** 2, rel=1e-12)
    # zero map: zero
    assert norm_via_gram(T, np.zeros((3, 5)), 0) == 0.0


def test_norm_via_gram_matches_dense_route():
    gen = np.random.default_rng(7)
    for trial in range(25):
        dims = tuple(int(gen.integers(2, 8)) for _ in range(3))
        ranks = tuple(int(gen.integers(1, min(4, n) + 1)) for n in dims)
        T = random_orthogonal(dims, ranks, seed=int(gen.integers(0, 2**31)))
        j = trial % 3
        B = gen.standard_normal((int(gen.integers(1, dims[j] + 4)), dims[j]))
        lhs = norm_via_gram(T, B, j)
        rhs = norm(mode_multiply(reconstruct(T), B, j)) ** 2
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300) <= 1e-10


def test_norm_via_gram_shape_check():
    T = random_orthogonal((4, 4), (2, 2), seed=8)
    with pytest.raises(ValueError):
        norm_via_gram(T, np.zeros((2, 3)), 0)
    # the mode is range-checked before the shape lookup
    T3 = random_orthogonal((5, 4, 3), (2, 2, 2), seed=9)
    for mode in (3, -1):
        with pytest.raises(ValueError, match="out of range"):
            norm_via_gram(T3, np.eye(5), mode)
        with pytest.raises(ValueError, match="out of range"):
            psi_matrix(T3.core, T3.factors, mode)
