import importlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from tuckersketch.bench import synth_tensor
from tuckersketch.decompose import (
    STAGES,
    DecomposerConfig,
    decompose,
    hosvd,
    reconstruction_error,
)
from tuckersketch.tensor import inner, norm
from tuckersketch.tucker import TuckerDecomposition, reconstruct


def noisy_tensor(dims, ranks, noise, seed):
    return synth_tensor(dims, ranks, noise, seed)


def test_config_validation():
    X = np.ones((4, 4, 4))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(5, 2, 2)))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(2, 2), method="hooi"))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(2, 2, 2), method="nope"))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(2, 2, 2), method="hooi-re", dr=0.0))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(2, 2, 2), method="hooi-re", dr=0.5, compress_modes=()))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(2, 2, 2), method="hooi-re", dr=0.5, compress_modes=(0, 0)))
    with pytest.raises(ValueError):
        decompose(X, DecomposerConfig(ranks=(2, 2, 2), method="hooi-re", dr=0.5, compress_modes=(3,)))
    with pytest.raises(ValueError):
        decompose(np.zeros((3, 3)), DecomposerConfig(ranks=(2, 2)))
    # ranks are checked up front, not by a TypeError inside the initial SVD
    for ranks in [(2.5, 2, 2), (2.0, 2, 2), ("2", 2, 2)]:
        with pytest.raises(ValueError, match="must be an integer"):
            decompose(X, DecomposerConfig(ranks=ranks))
        with pytest.raises(ValueError, match="must be an integer"):
            hosvd(X, ranks)
    T, _ = decompose(X, DecomposerConfig(ranks=(np.int64(2), np.int32(2), 2)))
    assert T.ranks == (2, 2, 2)


def test_non_integer_max_iters_rejected_by_validation():
    # 2.5 used to pass validation and raise a TypeError from range()
    X = noisy_tensor((6, 6, 6), (2, 2, 2), 0.1, 3)
    for max_iters in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="max_iters .* must be an integer"):
            decompose(X, DecomposerConfig(ranks=(2, 2, 2), max_iters=max_iters))
    _, report = decompose(X, DecomposerConfig(ranks=(2, 2, 2), max_iters=np.int64(2), rel_tol=0.0))
    assert report.iterations == 2


def test_complex_input_rejected():
    # the imaginary part used to be dropped with only a ComplexWarning,
    # and the real part's fit returned as if it were the answer
    X = noisy_tensor((6, 6, 6), (2, 2, 2), 0.1, 4)
    for Z in (X + 1j * X, (X + 0j).tolist()):
        with pytest.raises(ValueError, match="must be real"):
            hosvd(Z, (2, 2, 2))
        for method in ("hosvd", "hooi", "hooi-re", "hooi-re-star"):
            with pytest.raises(ValueError, match="must be real"):
                decompose(Z, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5))


def test_reconstruction_error_rejects_complex_input():
    # the cast used to drop the imaginary part and score the real part alone
    X = synth_tensor((8, 8, 8), (2, 2, 2), 0.0, 4)
    T = hosvd(X, (2, 2, 2))
    with pytest.raises(ValueError, match="must be real"):
        reconstruction_error(X + 1j * X, T)


def test_hosvd_exact_recovery_and_orthogonality():
    X = synth_tensor((12, 10, 11), (3, 2, 4), 0.0, 5)
    T = hosvd(X, (3, 2, 4))
    assert reconstruction_error(X, T) <= 1e-10
    assert T.orthogonal
    for f in T.factors:
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-9


def test_hosvd_full_ranks_reproduce_input():
    gen = np.random.default_rng(6)
    X = gen.standard_normal((5, 4, 3))
    T = hosvd(X, (5, 4, 3))
    assert reconstruction_error(X, T) <= 1e-10 * norm(X)


def test_hosvd_error_decreases_with_rank():
    X = noisy_tensor((15, 15, 15), (4, 4, 4), 0.05, 7)
    errs = [reconstruction_error(X, hosvd(X, (r, r, r))) for r in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_hooi_exact_recovery():
    X = synth_tensor((30, 30, 30), (4, 4, 4), 0.0, 42)
    T, report = decompose(X, DecomposerConfig(ranks=(4, 4, 4), seed=0))
    assert report.final_error <= 1e-8
    assert report.iterations <= 10


def test_hooi_with_full_ranks_is_near_exact():
    gen = np.random.default_rng(8)
    X = gen.standard_normal((6, 5, 4))
    _, report = decompose(X, DecomposerConfig(ranks=(6, 5, 4), seed=0))
    assert report.final_error <= 1e-10


def test_hooi_never_worse_than_hosvd():
    X = noisy_tensor((20, 20, 20), (3, 3, 3), 0.1, 9)
    T0 = hosvd(X, (3, 3, 3))
    _, report = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=0))
    assert report.final_error <= reconstruction_error(X, T0) + 1e-12


def test_hooi_fit_trace_is_nondecreasing():
    X = noisy_tensor((16, 14, 12), (3, 3, 3), 0.2, 10)
    _, report = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=0, rel_tol=0.0, max_iters=25))
    trace = report.fit_trace
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_hooi_re_full_sampling_matches_hooi_on_exact_input():
    X = synth_tensor((18, 16, 14), (3, 3, 3), 0.0, 11)
    _, r_plain = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=0))
    _, r_re = decompose(X, DecomposerConfig(method="hooi-re", ranks=(3, 3, 3), dr=1.0, seed=123))
    assert abs(r_plain.final_error - r_re.final_error) <= 1e-8


def test_hooi_re_half_sampling_recovers_exact_input():
    X = synth_tensor((30, 30, 30), (4, 4, 4), 0.0, 42)
    _, report = decompose(X, DecomposerConfig(method="hooi-re", ranks=(4, 4, 4), dr=0.5, seed=7))
    assert report.final_error <= 1e-6


def test_hooi_re_star_full_sampling_matches_hooi_on_exact_input():
    X = synth_tensor((18, 16, 14), (3, 3, 3), 0.0, 12)
    _, r_plain = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=0))
    _, r_star = decompose(X, DecomposerConfig(method="hooi-re-star", ranks=(3, 3, 3), dr=1.0, seed=321))
    assert abs(r_plain.final_error - r_star.final_error) <= 1e-8


def test_undersampled_core_uses_pseudoinverse_and_stays_finite():
    # sample smaller than the rank: the normal equations are singular and
    # the least-squares fallback must still produce a usable core
    X = noisy_tensor((40, 40, 40), (8, 8, 8), 0.05, 13)
    _, report = decompose(X, DecomposerConfig(method="hooi-re", ranks=(8, 8, 8), dr=0.1, seed=3))
    assert np.isfinite(report.final_error)


def test_star_beats_plain_re_when_undersampled():
    X = noisy_tensor((40, 40, 40), (8, 8, 8), 0.05, 13)
    errs_re, errs_star = [], []
    for seed in range(5):
        _, r1 = decompose(X, DecomposerConfig(method="hooi-re", ranks=(8, 8, 8), dr=0.1, seed=seed))
        _, r2 = decompose(X, DecomposerConfig(method="hooi-re-star", ranks=(8, 8, 8), dr=0.1, seed=seed))
        errs_re.append(r1.final_error)
        errs_star.append(r2.final_error)
    assert np.median(errs_star) <= np.median(errs_re)


def test_compress_modes_subset_leaves_other_modes_uncompressed():
    X = noisy_tensor((12, 30, 12), (2, 3, 2), 0.01, 14)
    _, report = decompose(
        X, DecomposerConfig(ranks=(2, 3, 2), method="hooi-re", dr=0.5, compress_modes=(1,), seed=5)
    )
    assert np.isfinite(report.final_error)
    assert report.final_error <= 0.5 * norm(X)


def test_returned_factors_are_orthonormal_for_all_methods():
    X = noisy_tensor((14, 13, 12), (3, 3, 3), 0.1, 15)
    for method in ("hosvd", "hooi", "hooi-re", "hooi-re-star"):
        T, _ = decompose(
            X, DecomposerConfig(ranks=(3, 3, 3), method=method, dr=0.5, seed=1)
        )
        assert T.orthogonal
        for f in T.factors:
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-9


def test_determinism_same_seed_bitwise():
    X = noisy_tensor((15, 15, 15), (3, 3, 3), 0.1, 16)
    for method in ("hooi-re", "hooi-re-star"):
        _, r1 = decompose(X, DecomposerConfig(ranks=(3, 3, 3), method=method, dr=0.4, seed=99))
        _, r2 = decompose(X, DecomposerConfig(ranks=(3, 3, 3), method=method, dr=0.4, seed=99))
        assert r1.final_error == r2.final_error  # bitwise
        assert r1.fit_trace == r2.fit_trace
        _, r3 = decompose(X, DecomposerConfig(ranks=(3, 3, 3), method=method, dr=0.4, seed=100))
        assert r3.final_error != r1.final_error


def test_random_init_also_converges():
    X = synth_tensor((20, 20, 20), (3, 3, 3), 0.0, 17)
    _, report = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=2, init="random", max_iters=50))
    assert report.final_error <= 1e-6


def test_reconstruction_error_cross_check():
    X = noisy_tensor((10, 11, 12), (3, 3, 3), 0.1, 18)
    T, _ = decompose(X, DecomposerConfig(ranks=(3, 3, 3), seed=0))
    err = reconstruction_error(X, T)
    Xhat = reconstruct(T)
    algebraic = norm(X) ** 2 - 2.0 * inner(X, Xhat) + norm(Xhat) ** 2
    assert err**2 == pytest.approx(algebraic, rel=1e-10)
    zero_core = TuckerDecomposition(np.zeros((3, 3, 3)), [np.eye(n, 3) for n in X.shape])
    assert reconstruction_error(X, zero_core) == pytest.approx(norm(X))
    with pytest.raises(ValueError):
        reconstruction_error(np.zeros((3, 3)), T)


def test_run_report_shape_and_json():
    X = noisy_tensor((12, 12, 12), (2, 2, 2), 0.1, 20)
    _, report = decompose(X, DecomposerConfig(method="hooi-re", ranks=(2, 2, 2), dr=0.5, seed=4))
    assert report.iterations == len(report.fit_trace)
    for stage in STAGES:
        assert len(report.stage_times[stage]) == report.iterations
        assert all(t >= 0.0 for t in report.stage_times[stage])
    assert report.preprocess_ms >= 0.0
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["method"] == "hooi-re"
    assert parsed["iterations"] == report.iterations
    assert parsed["final_error"] == report.final_error


def test_deterministic_methods_report_dr_one():
    # hosvd used to echo the configured dr where hooi reports 1.0
    X = noisy_tensor((8, 8, 8), (2, 2, 2), 0.1, 22)
    for method in ("hosvd", "hooi"):
        _, report = decompose(X, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5))
        assert report.dr == 1.0


def test_hosvd_is_the_initial_guess_with_no_sweep_whatever_the_init():
    X = noisy_tensor((9, 8, 7), (2, 3, 2), 0.1, 23)
    ref = hosvd(X, (2, 3, 2))
    for init in ("hosvd", "random"):
        T, report = decompose(X, DecomposerConfig(ranks=(2, 3, 2), method="hosvd", init=init, seed=3))
        assert T.core.tobytes() == ref.core.tobytes()
        assert [f.tobytes() for f in T.factors] == [f.tobytes() for f in ref.factors]
        assert report.iterations == 1
        assert report.fit_trace == [1.0 - report.final_error / norm(X)]
        assert all(report.stage_times[stage] == [] for stage in STAGES)
        assert len(report.stage_times["init"]) == len(report.stage_times["finalize"]) == 1


@pytest.mark.parametrize("method", ["hosvd", "hooi", "hooi-re", "hooi-re-star"])
def test_stage_times_cover_the_wall_time(method):
    X = noisy_tensor((80, 80, 80), (5, 5, 5), 0.1, 24)
    config = DecomposerConfig(ranks=(5, 5, 5), method=method, dr=0.5, seed=1)
    coverage = []
    for _ in range(2):  # one preempted unstaged millisecond should not decide the test
        t0 = time.perf_counter()
        _, report = decompose(X, config)
        wall_ms = (time.perf_counter() - t0) * 1e3
        staged_ms = report.preprocess_ms + sum(sum(times) for times in report.stage_times.values())
        assert staged_ms <= wall_ms
        coverage.append(staged_ms / wall_ms)
    assert max(coverage) >= 0.9


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_input_rejected_before_any_factorisation(bad):
    # an inf entry used to give final_error = nan from hosvd (or hang LAPACK
    # on larger tensors); a nan made hooi fail with "SVD did not converge"
    X = noisy_tensor((8, 8, 8), (2, 2, 2), 0.1, 21)
    X[3, 1, 4] = bad
    with pytest.raises(ValueError, match="must be finite"):
        hosvd(X, (2, 2, 2))
    for method in ("hosvd", "hooi", "hooi-re", "hooi-re-star"):
        with pytest.raises(ValueError, match="must be finite"):
            decompose(X, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5))


def test_factors_have_the_requested_rank_beyond_the_unfolding_width():
    # a rank above the column count of the (sketched) unfolding used to
    # come back as narrower factors and a smaller core
    X = np.random.default_rng(0).standard_normal((50, 3, 3))
    for T in (hosvd(X, (12, 3, 3)), decompose(X, DecomposerConfig(ranks=(12, 3, 3)))[0]):
        assert [f.shape for f in T.factors] == [(50, 12), (3, 3), (3, 3)]
        assert T.core.shape == (12, 3, 3)
        assert np.max(np.abs(T.factors[0].T @ T.factors[0] - np.eye(12))) <= 1e-12
        assert reconstruction_error(X, T) <= 1e-10 * norm(X)
    Y = synth_tensor((40, 40, 40), (20, 20, 20), 0.05, 1)
    for method in ("hooi-re", "hooi-re-star"):
        T, report = decompose(Y, DecomposerConfig(ranks=(20, 20, 20), method=method, dr=0.1, seed=0))
        assert [f.shape for f in T.factors] == [(40, 20)] * 3 and T.orthogonal
        assert np.isfinite(report.final_error)


# the package's ``decompose`` attribute is the function, not the module
decompose_module = importlib.import_module("tuckersketch.decompose")


def _graded_matrix(shape, sigmas, floor, seed):
    """A matrix with the given leading singular values over a flat floor."""
    gen = np.random.default_rng(seed)
    m, n = shape
    U = np.linalg.qr(gen.standard_normal((m, m)))[0]
    V = np.linalg.qr(gen.standard_normal((n, m)))[0]
    s = np.concatenate([sigmas, np.full(m - len(sigmas), floor)])
    return (U * s) @ V.T


@pytest.mark.parametrize("name", ["wide", "fewer-columns", "graded"])
def test_init_kernel_matches_the_thin_svd(name):
    # the init takes its factors from the triangle of an R-only QR; a Gram
    # eigensolver squares the condition number and misses the graded case
    # by 5e-3
    gen = np.random.default_rng(3)
    M, r = {
        "wide": (gen.standard_normal((30, 400)), 7),
        "fewer-columns": (gen.standard_normal((50, 9)), 12),
        "graded": (_graded_matrix((40, 900), np.logspace(0, -7, 6), 1e-9, 4), 6),
    }[name]
    fix_sign = decompose_module._fix_sign
    U = decompose_module._leading_left_vectors(M, r)
    k = min(r, M.shape[1])  # beyond the column count the basis is completed
    ref = fix_sign(np.linalg.svd(M)[0][:, :k])
    assert U.shape == (M.shape[0], r)
    assert np.max(np.abs(U.T @ U - np.eye(r))) <= 1e-12
    assert np.linalg.norm(U[:, :k] - ref @ (ref.T @ U[:, :k]), 2) <= 1e-9
    assert np.max(np.abs(U[:, :k] - ref)) <= 1e-9


def _count_dense_residuals(monkeypatch) -> list:
    """Record the shape of every dense residual the solver falls back to."""
    calls = []
    dense = decompose_module.reconstruction_error

    def counted(X, T):
        calls.append(X.shape)
        return dense(X, T)

    monkeypatch.setattr(decompose_module, "reconstruction_error", counted)
    return calls


@pytest.mark.parametrize("method", ["hosvd", "hooi", "hooi-re", "hooi-re-star"])
@pytest.mark.parametrize("noise", [0.3, 1e-2, 1e-4])
def test_final_error_from_the_core_matches_the_dense_error(method, noise, monkeypatch):
    # ||X||^2 - 2<P, G> + ||G||^2 stands in for a reconstruction while the
    # residual is well above rounding noise
    X = noisy_tensor((40, 40, 40), (2, 2, 2), noise, 25)
    calls = _count_dense_residuals(monkeypatch)
    T, report = decompose(X, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5, seed=2))
    assert calls == []
    dense = norm(X - reconstruct(T))
    assert report.final_error == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("method", ["hosvd", "hooi", "hooi-re", "hooi-re-star"])
def test_near_exact_recovery_takes_the_dense_residual(method, monkeypatch):
    # there the expansion cancels to rounding noise: full ranks for hosvd,
    # the exact rank of a noise-free tensor for the iterative methods
    if method == "hosvd":
        X, ranks = np.random.default_rng(6).standard_normal((6, 5, 4)), (6, 5, 4)
    else:
        X, ranks = synth_tensor((20, 20, 20), (3, 3, 3), 0.0, 26), (3, 3, 3)
    calls = _count_dense_residuals(monkeypatch)
    T, report = decompose(X, DecomposerConfig(ranks=ranks, method=method, dr=0.5, seed=2))
    assert calls and set(calls) == {X.shape}
    assert abs(report.final_error - norm(X - reconstruct(T))) <= 1e-13 * norm(X)


def test_sketched_run_keeps_one_working_copy():
    X = np.asfortranarray(noisy_tensor((64, 64, 64), (4, 4, 4), 0.05, 27))
    config = DecomposerConfig(ranks=(4, 4, 4), method="hooi-re", dr=0.3, seed=1)
    tracemalloc.start()
    try:
        decompose(X, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * X.nbytes
