import numpy as np
import pytest

from tuckersketch.tensor import (
    dematricize,
    from_vec,
    inner,
    kronecker,
    matricize,
    mode_multiply,
    multi_mode_multiply,
    norm,
    to_vec,
)

from oracles import integer_tensor, kron_oracle, matricize_oracle, mode_multiply_oracle


def small_cube():
    # entries 1..8, first index fastest
    return from_vec(np.arange(1.0, 9.0), (2, 2, 2))


def test_matricize_frozen_examples():
    X = small_cube()
    assert np.array_equal(matricize(X, 0), [[1, 3, 5, 7], [2, 4, 6, 8]])
    assert np.array_equal(matricize(X, 1), [[1, 2, 5, 6], [3, 4, 7, 8]])
    assert np.array_equal(matricize(X, 2), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_layout_vec_equals_mode0_unfolding_vec():
    gen = np.random.default_rng(0)
    X = gen.standard_normal((3, 4, 5))
    assert np.array_equal(to_vec(X), matricize(X, 0).ravel(order="F"))


def test_matricize_matches_index_loop_oracle_exactly():
    gen = np.random.default_rng(1)
    for shape in [(2,), (3, 4), (2, 3, 4), (4, 4, 4, 4), (2, 1, 3, 2)]:
        X = integer_tensor(gen, shape)
        for mode in range(len(shape)):
            assert np.array_equal(matricize(X, mode), matricize_oracle(X, mode))


def test_dematricize_round_trip():
    gen = np.random.default_rng(2)
    for shape in [(4,), (3, 5), (2, 3, 4), (3, 2, 4, 2)]:
        X = gen.standard_normal(shape)
        for mode in range(len(shape)):
            assert np.array_equal(dematricize(matricize(X, mode), mode, shape), X)


def test_matricize_mode_out_of_range():
    X = small_cube()
    with pytest.raises(ValueError):
        matricize(X, 3)
    with pytest.raises(ValueError):
        matricize(X, -1)


def test_dematricize_shape_mismatch():
    with pytest.raises(ValueError):
        dematricize(np.zeros((2, 3)), 0, (2, 2, 2))


def test_mode_multiply_diag_frozen_example():
    X = small_cube()
    Y = mode_multiply(X, np.diag([1.0, 2.0]), 0)
    assert np.array_equal(to_vec(Y), [1, 4, 3, 8, 5, 12, 7, 16])


def test_mode_multiply_identity():
    gen = np.random.default_rng(3)
    X = gen.standard_normal((3, 4, 2))
    for mode in range(3):
        assert np.array_equal(mode_multiply(X, np.eye(X.shape[mode]), mode), X)


def test_mode_multiply_matches_index_loop_oracle_exactly():
    gen = np.random.default_rng(4)
    for shape in [(3,), (2, 3), (3, 2, 4), (4, 4, 4, 4)]:
        X = integer_tensor(gen, shape)
        for mode in range(len(shape)):
            B = integer_tensor(gen, (int(gen.integers(1, 6)), shape[mode]))
            want = mode_multiply_oracle(X, B, mode)
            assert np.array_equal(mode_multiply(X, B, mode), want)
            # first-index-fastest storage (as from_vec and the TKR1 reader return)
            assert np.array_equal(mode_multiply(np.asfortranarray(X), B, mode), want)


def test_mode_multiply_unfolding_identity():
    gen = np.random.default_rng(5)
    X = gen.standard_normal((3, 4, 5))
    B = gen.standard_normal((6, 4))
    assert np.allclose(matricize(mode_multiply(X, B, 1), 1), B @ matricize(X, 1), atol=1e-13)


def test_mode_multiply_dimension_mismatch():
    X = small_cube()
    with pytest.raises(ValueError):
        mode_multiply(X, np.zeros((2, 3)), 0)
    with pytest.raises(ValueError):
        mode_multiply(X, np.zeros(4), 0)  # not a matrix


def test_multi_mode_multiply_order_invariance():
    gen = np.random.default_rng(6)
    X = gen.standard_normal((3, 4, 5))
    mats = [gen.standard_normal((2, 3)), gen.standard_normal((6, 4)), gen.standard_normal((3, 5))]
    direct = multi_mode_multiply(X, mats)
    reverse = X
    for mode in (2, 1, 0):
        reverse = mode_multiply(reverse, mats[mode], mode)
    assert np.allclose(direct, reverse, atol=1e-12)


def test_multi_mode_multiply_skips_none():
    gen = np.random.default_rng(7)
    X = gen.standard_normal((3, 4))
    B = gen.standard_normal((5, 4))
    assert np.array_equal(multi_mode_multiply(X, [None, B]), mode_multiply(X, B, 1))


def test_inner_frozen_example_and_errors():
    X = small_cube()
    assert inner(X, X) == 204.0
    with pytest.raises(ValueError):
        inner(X, np.zeros((2, 2)))


def test_norm_is_vec_two_norm():
    gen = np.random.default_rng(8)
    X = gen.standard_normal((4, 3, 2))
    assert norm(X) == pytest.approx(np.linalg.norm(to_vec(X)), rel=1e-15)
    assert norm(X) ** 2 == pytest.approx(inner(X, X), rel=1e-12)


def test_kronecker_frozen_example():
    assert np.array_equal(kronecker([[1.0, 2.0]], [[3.0], [4.0]]), [[3, 6], [4, 8]])
    assert np.array_equal(kronecker(np.eye(2), np.eye(3)), np.eye(6))


def test_kronecker_matches_index_loop_oracle():
    gen = np.random.default_rng(9)
    A = integer_tensor(gen, (2, 3))
    B = integer_tensor(gen, (3, 2))
    assert np.array_equal(kronecker(A, B), kron_oracle(A, B))


def test_kronecker_mixed_product_property():
    gen = np.random.default_rng(10)
    A, B = gen.standard_normal((2, 3)), gen.standard_normal((3, 2))
    C, D = gen.standard_normal((3, 4)), gen.standard_normal((4, 5))
    lhs = kronecker(A, C) @ kronecker(B, D)
    # (A kron C)(B kron D) == (A B) kron (C D)
    assert np.allclose(lhs, kronecker(A @ B, C @ D), atol=1e-12)


def test_kronecker_rejects_non_matrices():
    with pytest.raises(ValueError):
        kronecker(np.zeros(3), np.eye(2))


def test_from_vec_validation():
    with pytest.raises(ValueError):
        from_vec(np.arange(7.0), (2, 2, 2))
    with pytest.raises(ValueError):
        from_vec(np.arange(0.0), (0, 2))


def test_order_one_tensors_work():
    x = from_vec([1.0, 2.0, 3.0], (3,))
    assert matricize(x, 0).shape == (3, 1)
    y = mode_multiply(x, np.array([[1.0, 1.0, 1.0]]), 0)
    assert y.shape == (1,)
    assert y[0] == 6.0
