import dataclasses
import importlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from tuckersketch import rng
from tuckersketch.bench import synth_tensor
from tuckersketch.decompose import (
    METHODS,
    STAGES,
    DecomposerConfig,
    decompose,
    hosvd,
    reconstruction_error,
)
from tuckersketch.tensor import inner, mode_multiply, norm
from tuckersketch.tucker import TuckerDecomposition, reconstruct

from oracles import matricize_oracle, st_hosvd_oracle


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
    with pytest.raises(ValueError, match="^unknown init 'svd', expected 'hosvd' or 'random'$"):
        decompose(X, DecomposerConfig(ranks=(2, 2, 2), init="svd"))
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


def test_nan_or_negative_rel_tol_rejected():
    # under nan every stop test was false, so each run went to max_iters
    X = noisy_tensor((6, 5, 4), (2, 2, 2), 0.1, 3)
    for rel_tol in (float("nan"), -1e-5):
        with pytest.raises(ValueError, match="rel_tol must be a non-negative number"):
            decompose(X, DecomposerConfig(ranks=(2, 2, 2), rel_tol=rel_tol))
    _, report = decompose(X, DecomposerConfig(ranks=(2, 2, 2), max_iters=3, rel_tol=0.0))
    assert report.iterations == 3


@pytest.mark.parametrize("method", METHODS)
def test_bad_seed_rejected_by_every_method(method):
    # -1 used to pass hosvd and hooi and reach numpy's bare message in
    # hooi-re; 1.5 ran as seed 1
    X = noisy_tensor((6, 5, 4), (2, 2, 2), 0.1, 3)
    for seed in (-1, 1.5, np.int64(-2), "3", True):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
            decompose(X, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5, seed=seed))
    # numpy integers are seeds like any other
    a, b = (decompose(X, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5, seed=s))[1] for s in (4, np.int64(4)))
    assert a.final_error == b.final_error


def test_rng_rejects_bad_seed_with_one_message():
    for derive in (rng.stream, rng.child_seed):
        for seed in (-1, 1.5, np.int64(-2), "3", True):
            with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
                derive(seed, 0)
    assert rng.child_seed(np.uint32(7), 1) == rng.child_seed(7, 1)


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


@pytest.mark.parametrize("scale", [1e155, 1e-160, 1e-170])
def test_norm_out_of_float64_range_rejected_before_any_factorisation(scale, monkeypatch):
    # finite entries whose squared norm overflows used to give hosvd
    # final_error = nan and the iterative methods "SVD did not converge";
    # one that underflows read as a zero tensor (1e-170) or lost digits
    X = noisy_tensor((8, 8, 8), (2, 2, 2), 0.1, 21) * scale
    assert np.isfinite(X).all() and X.any()

    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised an out-of-range tensor")

    monkeypatch.setattr(decompose_module, "_initial_guess", no_factorisation)
    for method in ("hosvd", "hooi", "hooi-re", "hooi-re-star"):
        with pytest.raises(ValueError, match="squared Frobenius norm .* over- or underflows"):
            decompose(X, DecomposerConfig(ranks=(2, 2, 2), method=method, dr=0.5))
    with pytest.raises(ValueError, match="zero tensor"):
        decompose(np.zeros((8, 8, 8)), DecomposerConfig(ranks=(2, 2, 2)))


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


def test_rank_beyond_the_unfolding_width_never_forms_a_square_basis():
    # completing the basis costs n x r; the full U of the R-SVD would be a
    # 4000 x 4000 matrix, 444x the input
    X = np.random.default_rng(0).standard_normal((4000, 3, 3))
    runs = [lambda: hosvd(X, (12, 3, 3))] + [
        lambda method=method: decompose(X, DecomposerConfig(ranks=(12, 3, 3), method=method, dr=0.5))
        for method in ("hooi", "hooi-re")
    ]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * X.nbytes


# the package's ``decompose`` attribute is the function, not the module
decompose_module = importlib.import_module("tuckersketch.decompose")
tensor_module = importlib.import_module("tuckersketch.tensor")


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


@pytest.mark.parametrize("name", ["wide", "graded", "tied", "tiny", "tall"])
def test_init_kernel_takes_the_gram_path_only_behind_its_guard(name, monkeypatch):
    # a well-separated wide unfolding takes eigh(M M^T) and no QR; a graded
    # spectrum, a tie at the cut, a largest eigenvalue below the floor and a
    # tall unfolding take the R-SVD
    gen = np.random.default_rng(5)
    M, r = {
        "wide": (gen.standard_normal((30, 400)), 7),
        "graded": (_graded_matrix((40, 900), np.logspace(0, -7, 6), 1e-9, 4), 6),
        "tied": (_graded_matrix((40, 900), [1.0, 0.8, 0.6, 0.5, 0.5], 1e-2, 6), 4),
        "tiny": (1e-160 * gen.standard_normal((30, 400)), 7),
        "tall": (gen.standard_normal((60, 40)), 5),
    }[name]
    qr_calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        qr_calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    kernels = []
    U = decompose_module._leading_left_vectors(M, r, kernels)
    gram = name == "wide"
    assert kernels == ["gram" if gram else "r-svd"]
    assert len(qr_calls) == (0 if gram else 1)
    assert U.shape == (M.shape[0], r)
    assert np.max(np.abs(U.T @ U - np.eye(r))) <= 1e-12
    ref = np.linalg.svd(M)[0]
    if name == "tied":  # no unique rank-r subspace: it holds the leading r-1
        # singular vectors and lies in the span of the leading r+1
        assert _subspace_distance(ref[:, : r - 1], U) <= 1e-9
        assert _subspace_distance(U, ref[:, : r + 1]) <= 1e-9
    else:
        assert _subspace_distance(U, ref[:, :r]) <= 1e-9


def _subspace_distance(U, V):
    """Spectral norm of the part of span(U) outside span(V), both orthonormal."""
    return np.linalg.norm(U - V @ (V.T @ U), 2)


def test_init_is_sequentially_truncated_except_for_hosvd():
    # the iterative methods start from the ST-HOSVD; hosvd, the paper's
    # baseline, stays the classic truncated HOSVD of the full unfoldings.
    # At this noise level the two inits differ measurably past mode 0.
    X, ranks = noisy_tensor((12, 10, 8), (3, 3, 3), 0.1, 28), (3, 3, 3)
    st = st_hosvd_oracle(X, ranks)
    classic = [np.linalg.svd(matricize_oracle(X, j))[0][:, :r] for j, r in enumerate(ranks)]
    assert min(_subspace_distance(st[j], classic[j]) for j in (1, 2)) >= 1e-3
    init, _ = decompose_module._initial_guess(X, DecomposerConfig(ranks=ranks, method="hooi"), {})
    baseline = hosvd(X, ranks).factors
    for j in range(3):
        assert _subspace_distance(init[j], st[j]) <= 1e-10
        assert _subspace_distance(baseline[j], classic[j]) <= 1e-10


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


def test_hosvd_peak_stays_near_the_input():
    # the Gram kernel forms only an n x n Gram matrix per mode; the
    # R-SVD peaked at 2.0x here, with mode 1 of an F-ordered tensor a copy
    # and numpy's QR copying it again
    X = np.asfortranarray(noisy_tensor((64, 64, 64), (4, 4, 4), 0.05, 27))
    config = DecomposerConfig(ranks=(4, 4, 4), method="hosvd")
    tracemalloc.start()
    try:
        _, report = decompose(X, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.init_kernels == ["gram"] * 3
    assert peak <= 1.5 * X.nbytes


def test_report_names_the_init_kernel_of_each_mode():
    # mode 0's unfolding has a tie at the cut (sigma_3 = sigma_4), so only
    # that mode falls back to the R-SVD; hooi's ST-HOSVD ends on a tall
    # 20 x 9 unfolding, which the R-SVD takes too
    M = _graded_matrix((30, 400), [3.0, 2.0, 1.0, 1.0], 0.1, 7)
    X = M.reshape(30, 20, 20)
    ranks = (3, 3, 3)
    _, report = decompose(X, DecomposerConfig(ranks=ranks, method="hosvd"))
    assert report.init_kernels == ["r-svd", "gram", "gram"]
    assert json.loads(json.dumps(report.to_dict()))["init_kernels"] == report.init_kernels
    _, report = decompose(X, DecomposerConfig(ranks=ranks, method="hooi"))
    assert report.init_kernels == ["r-svd", "gram", "r-svd"]
    _, report = decompose(X, DecomposerConfig(ranks=ranks, method="hooi", init="random"))
    assert report.init_kernels == []


def test_hooi_init_unfolds_one_full_size_tensor():
    # the sequentially truncated init unfolds only mode 0 at full size; the
    # classic HOSVD init peaked at 2.0x here, with mode 1 of an F-ordered
    # tensor a copy and numpy's QR copying it again
    X = np.asfortranarray(noisy_tensor((64, 64, 64), (4, 4, 4), 0.05, 27))
    config = DecomposerConfig(ranks=(4, 4, 4), method="hooi", seed=1)
    tracemalloc.start()
    try:
        decompose(X, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * X.nbytes


def _textbook_sweeps(X, config, sweeps):
    """The iterative methods as textbooks write them, from
    ``_initial_guess``'s factors: every W_j a fresh row take of the mixed
    ``Xw`` along each compressed mode but j, then a fresh pass of mode
    products, and every core a fresh pass by the method's rule."""
    dm = decompose_module
    modes = config.resolved_compress_modes(X.ndim) if config.method in dm.RANDOMIZED else ()
    sizes = {j: dm.sample_size(config.dr, X.shape[j]) for j in modes}
    signs = {j: dm.draw_signs(rng.stream(config.seed, rng.MIX, j), X.shape[j]) for j in modes}
    Xw = dm.mix(X, signs)

    def take(samples, skip=None):
        data = Xw
        for k, rows in samples.items():
            if k != skip:
                data = np.take(data, rows, axis=k)
        return data

    def sketched(samples):
        return [U[samples[k]] if k in samples else U for k, U in enumerate(factors)]

    samples = dm._draw_samples(config.seed, 0, X.shape, sizes)
    factors, _ = dm._initial_guess(Xw, config, samples)
    core = dm._core(take(samples), sketched(samples), bool(samples))
    for it in range(1, sweeps + 1):
        samples = dm._draw_samples(config.seed, it, X.shape, sizes)
        for j in range(X.ndim):
            mats = [None if k == j else S.T for k, S in enumerate(sketched(samples))]
            W = dm.multi_mode_multiply(take(samples, j), mats)
            factors[j] = dm._polar_factor(dm.matricize(W, j) @ dm.matricize(core, j).T)
        if config.method == "hooi-re":
            core = dm._core(take(samples), sketched(samples), True)
        else:
            core = dm._core(Xw, factors, False)
    return [dm.unmix_factor(f, signs.get(j)) for j, f in enumerate(factors)], core


_SAMPLED_CASES = [
    pytest.param(dims, ranks, order, method, modes, id=f"{method}-{len(dims)}way-{order}-modes{modes}")
    for method in ("hooi-re", "hooi-re-star")
    for dims, ranks, order, modes in [
        ((14, 12, 10), (3, 4, 2), "F", None),
        ((14, 12, 10), (3, 4, 2), "C", None),
        ((14, 12, 10), (3, 4, 2), "F", (0, 2)),
        ((14, 12, 10), (3, 4, 2), "C", (0, 2)),
        ((14, 12, 10), (3, 4, 2), "C", (2, 0)),
        ((9, 8, 7, 6), (3, 2, 3, 2), "C", None),
        ((9, 8, 7, 6), (3, 2, 3, 2), "F", (0, 2)),
    ]
]


@pytest.mark.parametrize(
    "dims, ranks, order, method, compress_modes",
    [
        pytest.param((14, 12, 10), (3, 4, 2), "F", "hooi", None, id="dims0-ranks0-F"),
        pytest.param((14, 12, 10), (3, 4, 2), "C", "hooi", None, id="dims1-ranks1-C"),
        pytest.param((9, 8, 7, 6), (3, 2, 3, 2), "C", "hooi", None, id="dims2-ranks2-C"),
        *_SAMPLED_CASES,
    ],
)
@pytest.mark.parametrize("sweeps", [1, 2])
def test_hooi_carried_products_match_the_textbook_sweep_bitwise(dims, ranks, order, method, compress_modes, sweeps):
    # the sweep carries Xw x_{k<j} S_k^T from mode to mode, a sampled mode
    # taking its rows before it is contracted, and forms each array by the
    # same row takes and mode products as a fresh pass over Xw
    X = np.asarray(noisy_tensor(dims, ranks, 0.1, 29), order=order)
    config = DecomposerConfig(ranks=ranks, method=method, dr=0.5, compress_modes=compress_modes, seed=4,
                              max_iters=sweeps, rel_tol=0.0)
    T, report = decompose(X, config)
    assert report.iterations == sweeps
    factors, core = _textbook_sweeps(X, config, sweeps)
    assert T.core.tobytes() == core.tobytes()
    assert [f.tobytes() for f in T.factors] == [f.tobytes() for f in factors]
    if compress_modes == (2, 0):  # the order the modes are listed in does not matter
        T2, report2 = decompose(X, dataclasses.replace(config, compress_modes=(0, 2)))
        assert T.core.tobytes() == T2.core.tobytes()
        assert [f.tobytes() for f in T.factors] == [f.tobytes() for f in T2.factors]
        assert report.final_error == report2.final_error
        assert report.sample_sizes == report2.sample_sizes


def _count_full_reads(monkeypatch, shapes):
    """Record, per call of ``mode_multiply`` or ``np.take``, whether its
    input has a shape in ``shapes``."""
    full = []
    kernel, take = tensor_module.mode_multiply, np.take

    def counted_kernel(Y, B, mode):
        full.append(np.shape(Y) in shapes)
        return kernel(Y, B, mode)

    def counted_take(Y, rows, axis=None):
        full.append(np.shape(Y) in shapes)
        return take(Y, rows, axis=axis)

    monkeypatch.setattr(tensor_module, "mode_multiply", counted_kernel)
    monkeypatch.setattr(decompose_module, "mode_multiply", counted_kernel)
    monkeypatch.setattr(np, "take", counted_take)
    return full


@pytest.mark.parametrize("sweeps", [1, 3])
def test_hooi_reads_the_full_tensor_twice_per_sweep(sweeps, monkeypatch):
    # once in the ST-HOSVD init, then W_0's first product and the carried
    # head's first one per sweep; a fresh pass per W_j and core made it
    # 2 + (q + 1) per sweep
    tensors = [noisy_tensor(dims, (3,) * len(dims), 0.1, 30) for dims in ((12, 11, 10), (9, 8, 7, 6))]
    full = _count_full_reads(monkeypatch, [X.shape for X in tensors])
    X = tensors[0]
    _, report = decompose(X, DecomposerConfig(ranks=(3, 3, 3), method="hooi", max_iters=sweeps, rel_tol=0.0))
    assert report.iterations == sweeps
    assert sum(full) == 1 + 2 * sweeps
    # a sampled sweep reads Xw three times whatever the order: W_0's row
    # take, the carried head's first row take or product, and the core's
    # row take or projection; a fresh take per W_j made it q + 1.  The
    # difference to a one-sweep run leaves out the init and finalize (a
    # sketched fit may fall and stop the run early, so count what ran)
    for X in tensors:
        for method in ("hooi-re", "hooi-re-star"):
            for modes in (None, (1, 2)):
                reads, iterations = [], []
                for max_iters in (1, 1 + sweeps):
                    full.clear()
                    config = DecomposerConfig(ranks=(3,) * X.ndim, method=method, dr=0.5, compress_modes=modes,
                                              seed=3, max_iters=max_iters, rel_tol=0.0)
                    iterations.append(decompose(X, config)[1].iterations)
                    reads.append(sum(full))
                assert iterations[1] > iterations[0] == 1
                assert reads[1] - reads[0] == 3 * (iterations[1] - 1), (X.shape, method, modes)


@pytest.mark.parametrize(
    "method, init, max_iters, reason, iterations",
    [
        ("hooi", "hosvd", 100, "converged", None),
        ("hooi", "random", 2, "max_iters", 2),
        ("hosvd", "hosvd", 100, "no_sweeps", 1),
    ],
)
def test_report_says_why_the_sweeps_stopped(method, init, max_iters, reason, iterations):
    # from a random start the first sweeps gain far more fit than rel_tol
    X = noisy_tensor((16, 14, 12), (3, 3, 3), 0.1, 31)
    config = DecomposerConfig(ranks=(3, 3, 3), method=method, init=init, max_iters=max_iters, seed=2)
    _, report = decompose(X, config)
    assert report.stop_reason == reason
    if reason == "converged":
        assert report.iterations < max_iters
        assert report.fit_trace[-1] - report.fit_trace[-2] < config.rel_tol
    else:
        assert report.iterations == iterations
    assert json.loads(json.dumps(report.to_dict()))["stop_reason"] == reason


@pytest.mark.parametrize(
    "method, compress_modes, sizes",
    [("hooi", None, [12, 30, 16]), ("hooi-re", (0, 2), [6, 30, 8]), ("hooi-re-star", None, [6, 15, 8])],
)
def test_report_lists_the_rows_sampled_per_mode(method, compress_modes, sizes):
    X = noisy_tensor((12, 30, 16), (2, 3, 2), 0.1, 32)
    config = DecomposerConfig(ranks=(2, 3, 2), method=method, dr=0.5, compress_modes=compress_modes, seed=3)
    _, report = decompose(X, config)
    assert report.sample_sizes == sizes
    assert json.loads(json.dumps(report.to_dict()))["sample_sizes"] == sizes


def _layouts(X):
    """The same values as C- and F-ordered copies, a strided view, a
    reversed-stride view and two transposed views."""
    big = np.zeros((2 * X.shape[0],) + X.shape[1:])
    big[::2] = X
    return {
        "C": np.ascontiguousarray(X),
        "F": np.asfortranarray(X),
        "strided": big[::2],
        "reversed": np.ascontiguousarray(X[::-1, ::-1, ::-1])[::-1, ::-1, ::-1],
        "transposed": np.ascontiguousarray(X.transpose(2, 1, 0)).transpose(2, 1, 0),
        "permuted": np.ascontiguousarray(X.transpose(1, 2, 0)).transpose(2, 0, 1),
    }


@pytest.mark.parametrize("method", METHODS)
def test_output_does_not_depend_on_the_memory_layout(method):
    # the sampled methods mix into one C-ordered copy first, so every
    # layout gives the same bytes; hosvd and hooi contract the input as
    # laid out, and BLAS may sum in another order (at R=4 the F-ordered
    # and transposed inputs move hooi's core and error by 1.7e-16)
    X = noisy_tensor((40, 36, 30), (4, 4, 4), 0.1, 5)
    config = DecomposerConfig(ranks=(4, 4, 4), method=method, dr=0.5, seed=5)
    runs = {name: decompose(Y, config) for name, Y in _layouts(X).items()}
    T0, r0 = runs["C"]
    for name, (T, report) in runs.items():
        assert report.iterations == r0.iterations, name
        if method in ("hooi-re", "hooi-re-star"):
            assert T.core.tobytes() == T0.core.tobytes(), name
            assert [f.tobytes() for f in T.factors] == [f.tobytes() for f in T0.factors], name
            assert report.fit_trace == r0.fit_trace and report.final_error == r0.final_error, name
        else:
            assert norm(T.core - T0.core) <= 1e-13 * norm(T0.core), name
            assert all(norm(f - f0) <= 1e-13 for f, f0 in zip(T.factors, T0.factors)), name
            assert abs(report.final_error - r0.final_error) <= 1e-13 * r0.final_error, name


@pytest.mark.parametrize("method", METHODS)
def test_power_of_two_scaling_scales_core_and_error_exactly(method):
    # every step is linear in X or scale-free, and a power of two scales
    # each float exactly, so the run is the same run in another exponent
    X = noisy_tensor((24, 20, 18), (4, 3, 3), 0.1, 5)
    config = DecomposerConfig(ranks=(4, 3, 3), method=method, dr=0.5, seed=3)
    T0, r0 = decompose(X, config)
    for k in (-200, -1, 1, 200):
        s = 2.0**k
        T, report = decompose(s * X, config)
        assert T.core.tobytes() == (s * T0.core).tobytes(), k
        assert [f.tobytes() for f in T.factors] == [f.tobytes() for f in T0.factors], k
        assert report.final_error == s * r0.final_error, k
        assert report.fit_trace == r0.fit_trace and report.iterations == r0.iterations, k


@pytest.mark.parametrize("method", ["hosvd", "hooi"])
def test_orthogonal_map_along_a_mode_turns_only_that_subspace(method):
    # X x_1 Q turns the left singular vectors of the mode-1 unfolding by Q
    # and leaves those of every other unfolding, and every spectrum, as
    # they were
    X = noisy_tensor((24, 20, 18), (4, 3, 3), 0.1, 5)
    Q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((20, 20)))
    config = DecomposerConfig(ranks=(4, 3, 3), method=method)
    T0, r0 = decompose(X, config)
    T, report = decompose(mode_multiply(X, Q, 1), config)
    for j, (f, f0) in enumerate(zip(T.factors, T0.factors)):
        g = Q @ f0 if j == 1 else f0
        assert np.linalg.norm(f @ f.T - g @ g.T, 2) <= 1e-12, j
    assert abs(report.final_error - r0.final_error) <= 1e-12 * r0.final_error
    assert report.iterations == r0.iterations


@pytest.mark.parametrize("method", METHODS)
def test_output_does_not_depend_on_the_memory_layout_at_a_blocked_size(method):
    # a larger size than the test above, where BLAS may block the
    # contractions of C- and F-ordered input differently
    X = synth_tensor((96, 80, 72), (6, 5, 4), 0.1, 5)
    config = DecomposerConfig(ranks=(6, 5, 4), method=method, dr=0.5, seed=3)
    T0, r0 = decompose(np.ascontiguousarray(X), config)
    T, report = decompose(np.asfortranarray(X), config)
    assert report.iterations == r0.iterations
    if method in ("hooi-re", "hooi-re-star"):
        assert T.core.tobytes() == T0.core.tobytes()
        assert [f.tobytes() for f in T.factors] == [f.tobytes() for f in T0.factors]
        assert report.final_error == r0.final_error
    else:
        assert norm(T.core - T0.core) <= 1e-13 * norm(T0.core)
        assert all(norm(f - f0) <= 1e-13 for f, f0 in zip(T.factors, T0.factors))
        assert abs(report.final_error - r0.final_error) <= 1e-13 * r0.final_error


@pytest.mark.parametrize("method", METHODS)
def test_power_of_two_scaling_far_out_scales_core_and_error_to_rounding(method):
    # beyond 2^+-200 LAPACK rescales internally (and at 2^-500 the Gram
    # floor sends every mode to the R-SVD), so the run is no longer the
    # same run bit for bit, but it stays the same run to rounding
    X = noisy_tensor((24, 20, 18), (4, 3, 3), 0.1, 5)
    config = DecomposerConfig(ranks=(4, 3, 3), method=method, dr=0.5, seed=3)
    T0, r0 = decompose(X, config)
    for k in (-500, -400, 400, 500):
        s = 2.0**k
        T, report = decompose(s * X, config)
        assert report.iterations == r0.iterations, k
        assert all(np.max(np.abs(f - f0)) <= 1e-13 for f, f0 in zip(T.factors, T0.factors)), k
        assert norm(T.core / s - T0.core) <= 1e-13 * norm(T0.core), k
        assert abs(report.final_error / s - r0.final_error) <= 1e-15 * r0.final_error, k
