"""One home per input rule.

Every entry point that takes an integer, a count, per-mode ranks, a
0-based mode index, a dimension-reduction ratio or a distortion eps
applies the same rule, with the same message, through the shared checks
of ``tuckersketch.tensor``.  The regression tests name inputs that used to
end in a TypeError deep in the solver, run a truncated experiment and
pass, or return an empty result.
"""

import json
import re

import numpy as np
import pytest

from tuckersketch import bounds, rng
from tuckersketch.bench import BenchConfig, run_bench, synth_tensor
from tuckersketch.decompose import DecomposerConfig, decompose, hosvd
from tuckersketch.embeddings import is_eps_jl, make_embedding, mix, sample_size, unmix_factor
from tuckersketch.tensor import from_vec, matricize, mode_multiply
from tuckersketch.tucker import apply_mode_map, mode_coherence, norm_via_gram, psi_matrix, random_orthogonal_tucker

X = synth_tensor((6, 6, 6), (2, 2, 2), 0.1, 3)
T = random_orthogonal_tucker((6, 6, 6), (2, 2, 2), rng.stream(0, 5))
TAIL = dict(eps=0.5, eta=0.2, trials=1)


def run_decompose(**kw):
    return decompose(X, DecomposerConfig(**{"ranks": (2, 2, 2), **kw}))


def run_small_bench(**kw):
    return run_bench(X, BenchConfig(**{"methods": ("hooi",), "ranks": (2,), "reps": 1, **kw}))


def multimode(**kw):
    return bounds.check_multimode_distortion(**{"dims": (6, 6, 6), "ranks": (2, 2, 2), "embed_dims": (4, 4, 4),
                                                **TAIL, **kw})


def residual(**kw):
    return bounds.check_residual_distortion(X, T.core, T.factors, 0, (4, 4, 4), **{**TAIL, **kw})


def exact(message: str) -> str:
    return f"^{re.escape(message)}$"


# ---------------------------------------------------------------------------
# inputs that got through before the rules were shared and that no single
# rule's test below covers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape, size", [((2.5, 2), 4), ((), 1)])
def test_from_vec_rejects_a_non_integer_or_empty_shape(shape, size):
    # (2.5, 2) was truncated to (2, 2), and () returned a 0-d array
    message = f"dims must be integers of at least 1, for at least one mode, got {shape}"
    with pytest.raises(ValueError, match=exact(message)):
        from_vec(np.arange(float(size)), shape)


@pytest.mark.parametrize("method", ["hosvd", "hooi"])
def test_decompose_rejects_an_order_zero_tensor(method):
    # an empty decomposition with error 0 came back
    with pytest.raises(ValueError, match=exact("ranks must cover at least one mode")):
        decompose(np.array(3.0), DecomposerConfig(ranks=(), method=method))
    with pytest.raises(ValueError, match=exact("ranks must cover at least one mode")):
        hosvd(np.array(3.0), ())


def test_dim_bounds_reject_empty_ranks_and_dims():
    # both died in max() on an empty sequence
    with pytest.raises(ValueError, match=exact("ranks must cover at least one mode")):
        bounds.embedding_dim_bound(0.5, 0.1, ())
    with pytest.raises(ValueError, match=exact("dims must be integers of at least 1, for at least one mode, got ()")):
        bounds.residual_embedding_dim_bound(0.5, 0.1, (), 4)


# ---------------------------------------------------------------------------
# one message per rule, whatever the entry point
# ---------------------------------------------------------------------------


def test_integer_rule_accepts_numpy_integers_everywhere():
    a = run_decompose(method="hooi-re", dr=0.5, compress_modes=(0, 2), max_iters=3, seed=4)
    b = run_decompose(method="hooi-re", dr=0.5, compress_modes=(np.int64(0), np.int32(2)),
                      ranks=(np.int64(2), np.int32(2), np.uint8(2)), max_iters=np.int16(3), seed=np.uint64(4))
    assert a[1].final_error == b[1].final_error
    rows, _ = run_small_bench(ranks=(np.int64(2),), reps=np.int32(2), seed=np.int8(1))
    assert len(rows) == 2
    assert bounds.run_lemma21_suite(trials=np.int64(3)).trials == 3
    assert matricize(X, np.int64(1)).shape == (6, 36)
    assert from_vec(np.arange(6.0), (np.int64(2), np.uint8(3))).shape == (2, 3)


def test_reports_are_json_safe_for_numpy_typed_inputs():
    # the rules accept numpy values, so a report can hold an np.int64
    # seed, rank or trial count, or the np.bool_ that a numpy eps or
    # target makes of ``passed``; its JSON must be the Python-typed run's
    small = dict(dims=(8, 8, 8), ranks=(2, 2, 2), embed_dim=6)
    runs = [
        lambda i, f: run_decompose(ranks=tuple(i(2) for _ in range(3)), seed=i(3))[1],
        lambda i, f: bounds.run_lemma21_suite(trials=i(5)),
        lambda i, f: bounds.run_lemma_a_suite(trials=i(5), eps=f(0.5), n=8, m=6),
        lambda i, f: bounds.run_prop1_suite(target=i(5), eps=f(0.6), dims=(8, 8, 8), ranks=(2, 2, 2), m=6),
        lambda i, f: bounds.run_th1_suite(trials=i(5), eps=f(0.5), eta=f(0.1), **small),
        lambda i, f: bounds.run_th4_suite(trials=i(3), eps=f(0.6), eta=f(0.2), **small, y_samples=i(4)),
    ]
    untimed = lambda report: {k: v for k, v in report.to_dict().items() if k not in ("stage_times", "preprocess_ms")}
    for run in runs:
        assert json.dumps(untimed(run(np.int64, np.float64))) == json.dumps(untimed(run(int, float)))


COUNT_ENTRIES = {
    "max_iters": lambda v: run_decompose(max_iters=v),
    "reps": lambda v: run_small_bench(reps=v),
    "trials": lambda v: bounds.run_lemma21_suite(trials=v),
    "trials-lemma-a": lambda v: bounds.run_lemma_a_suite(trials=v),
    "trials-th1": lambda v: bounds.run_th1_suite(trials=v),
    "trials-th4": lambda v: bounds.run_th4_suite(trials=v),
    "trials-multimode": lambda v: multimode(trials=v),
    "trials-residual": lambda v: residual(trials=v),
    "target": lambda v: bounds.run_prop1_suite(target=v),
    "y_samples": lambda v: residual(y_samples=v),
    "p_dim": lambda v: bounds.residual_embedding_dim_bound(0.5, 0.1, (6, 6, 6), v),
    "embedding size m": lambda v: make_embedding("gaussian", 6, v, rng.stream(0)),
    "embedding size n": lambda v: make_embedding("gaussian", v, 1, rng.stream(0)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_rule_gives_one_message(entry):
    # a float reps or lemma21/th1 trials raised a TypeError from range(); a
    # float lemma-a trials or prop1 target ran 3 draws and passed; True
    # counted as 1
    name = entry.split("-")[0]
    for bad in (0, -3, 2.5, True, "2"):
        with pytest.raises(ValueError, match=exact(f"{name} {bad!r} must be an integer of at least 1")):
            COUNT_ENTRIES[entry](bad)


RANK_ENTRIES = {
    "decompose": lambda r: run_decompose(ranks=(r, 2, 2)),
    "hosvd": lambda r: hosvd(X, (r, 2, 2)),
    "bench": lambda r: run_small_bench(ranks=(r,)),
    "synth_tensor": lambda r: synth_tensor((6, 6, 6), (r, 2, 2), 0.0, 0),
    "multimode": lambda r: multimode(ranks=(r, 2, 2)),
}


@pytest.mark.parametrize("entry", RANK_ENTRIES)
def test_rank_rule_gives_one_message(entry):
    # ranks=(True, 2, 2) used to run at rank 1
    call = RANK_ENTRIES[entry]
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=exact(f"rank {bad!r} for mode 0 must be an integer")):
            call(bad)
    for bad in (0, 7):
        with pytest.raises(ValueError, match=exact(f"rank {bad} for mode 0 must be in [1, 6]")):
            call(bad)


def test_rank_rule_without_dims_has_no_upper_bound():
    assert bounds.embedding_dim_bound(0.5, 0.1, (40, 2)) == bounds.embedding_dim_bound(0.5, 0.1, (np.int64(40), 2))
    with pytest.raises(ValueError, match=exact("rank 2.5 for mode 0 must be an integer")):
        bounds.embedding_dim_bound(0.5, 0.1, (2.5, 2))
    with pytest.raises(ValueError, match=exact("rank 0 for mode 1 must be in [1, inf]")):
        bounds.embedding_dim_bound(0.5, 0.1, (2, 0))


MODE_ENTRIES = {
    "matricize": lambda j: matricize(X, j),
    "mode_multiply": lambda j: mode_multiply(X, np.eye(6), j),
    "mode_coherence": lambda j: mode_coherence(T, j),
    "apply_mode_map": lambda j: apply_mode_map(T, np.eye(6), j),
    "psi_matrix": lambda j: psi_matrix(T.core, T.factors, j),
    "norm_via_gram": lambda j: norm_via_gram(T, np.eye(6), j),
    "check_prop1": lambda j: bounds.check_prop1(T, np.eye(6)[:4], j, 0.5),
    "estimate_subspace_dim": lambda j: bounds.estimate_subspace_dim(T.core, T.factors, j),
    "mix": lambda j: mix(X, {j: np.ones(6)}),
    "compressed-decompose": lambda j: run_decompose(method="hooi-re", dr=0.5, compress_modes=(j,)),
    "compressed-decompose-star": lambda j: run_decompose(method="hooi-re-star", dr=0.5, compress_modes=(j,)),
    "compressed-bench": lambda j: run_small_bench(methods=("hooi-re",), dr_grid=(0.5,), compress_modes=(j,)),
}


@pytest.mark.parametrize("entry", MODE_ENTRIES)
def test_mode_rule_gives_one_message(entry):
    # a float or bool compressed mode raised a TypeError from a tuple index
    # or an axis, and the bench recorded every randomized cell as a NaN row
    what = "compressed mode" if entry.startswith("compressed") else "mode"
    for bad in (3, -1, 0.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match=exact(f"{what} {bad!r} out of range for an order-3 tensor")):
            MODE_ENTRIES[entry](bad)


RATIO_ENTRIES = {
    "sample_size": lambda dr: sample_size(dr, 10),
    "decompose": lambda dr: run_decompose(method="hooi-re", dr=dr),
    "decompose-deterministic": lambda dr: run_decompose(dr=dr),
    "bench-randomized": lambda dr: run_small_bench(methods=("hooi-re",), dr_grid=(dr,)),
    "bench-deterministic": lambda dr: run_small_bench(dr_grid=(dr,)),
}


@pytest.mark.parametrize("entry", RATIO_ENTRIES)
def test_ratio_rule_gives_one_message(entry):
    for bad in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=exact(f"dr must be in (0, 1], got {bad}")):
            RATIO_ENTRIES[entry](bad)


EPS_ENTRIES = {
    "is_eps_jl": lambda eps: is_eps_jl(np.eye(4), np.ones((1, 4)), eps),
    "check_inner_product_bound": lambda eps: bounds.check_inner_product_bound(np.eye(4), np.ones(4), np.ones(4), eps),
    "check_multimode_distortion": lambda eps: multimode(eps=eps),
    "embedding_dim_bound": lambda eps: bounds.embedding_dim_bound(eps, 0.1, (2, 2)),
    "run_lemma_a_suite": lambda eps: bounds.run_lemma_a_suite(trials=1, eps=eps, n=8, m=4),
    "run_prop1_suite": lambda eps: bounds.run_prop1_suite(target=1, eps=eps, dims=(6, 6, 6), ranks=(2, 2, 2), m=4),
}


@pytest.mark.parametrize("entry", EPS_ENTRIES)
def test_positive_eps_rule_gives_one_message(entry):
    # is_eps_jl used to test eps <= 0, which nan passes: it returned False,
    # and check_inner_product_bound None, a discarded draw, not an error,
    # so the lemma-a and prop1 suites ran every trial and reported FAIL
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match=exact(f"eps must be positive, got {bad}")):
            EPS_ENTRIES[entry](bad)


SIGN_ENTRIES = {
    "mix": lambda s: mix(X, {1: s}),
    "unmix_factor": lambda s: unmix_factor(np.ones((6, 2)), s),
    "unmix_factor-vector": lambda s: unmix_factor(np.ones(6), s),
}


@pytest.mark.parametrize("entry", SIGN_ENTRIES)
def test_sign_rule_gives_one_message(entry):
    # any diagonal passed for D, nan included, used to scale the data or
    # the factor silently
    for bad in (0.0, 2.0, -0.5, float("nan")):
        signs = np.ones(6)
        signs[3] = bad
        with pytest.raises(ValueError, match=exact("sign vector entries must be +1.0 or -1.0")):
            SIGN_ENTRIES[entry](signs)


def test_unmix_factor_takes_a_vector_or_a_matrix():
    # an order-3 factor failed in numpy's broadcast, and an order-0 one in
    # an index error
    for G in (np.ones((6, 2, 2)), np.array(1.0)):
        with pytest.raises(ValueError, match=exact(f"factor must be a vector or a matrix, got an order-{G.ndim} array")):
            unmix_factor(G, np.ones(6))


def test_residual_check_rejects_its_inputs_before_any_work(monkeypatch):
    # the trial count and embed_dims used to be checked after the full-size
    # residual split
    monkeypatch.setattr(bounds, "_residual_split", lambda *args: pytest.fail("split before the checks"))
    with pytest.raises(ValueError, match=exact("trials 2.5 must be an integer of at least 1")):
        residual(trials=2.5)
    with pytest.raises(ValueError, match=exact("embed_dims must list one size per mode")):
        bounds.check_residual_distortion(X, T.core, T.factors, 0, (4, 4), **TAIL)


VALUE_ENTRIES = {
    "decompose": lambda Y: decompose(Y, DecomposerConfig(ranks=(2, 2, 2))),
    "decompose-hooi-re": lambda Y: decompose(Y, DecomposerConfig(ranks=(2, 2, 2), method="hooi-re", dr=0.5)),
    "check_residual_distortion": lambda Y: bounds.check_residual_distortion(Y, T.core, T.factors, 0, (4, 4, 4),
                                                                            **TAIL),
}


@pytest.mark.parametrize("entry", VALUE_ENTRIES)
def test_value_rule_gives_one_message(entry):
    # the bound check used to take both scales: at 1e160 it warned on its
    # way to nan distortions, and at 1e-200 it ran as if nothing were amiss
    finite = exact("input tensor must be finite (found inf or nan entries)")
    out_of_range = exact("the squared Frobenius norm of the input tensor over- or underflows float64; rescale the tensor")
    for bad in (np.nan, np.inf):
        Y = X.copy()
        Y[1, 2, 3] = bad
        with pytest.raises(ValueError, match=finite):
            VALUE_ENTRIES[entry](Y)
    for scale in (1e160, 1e-200):
        with pytest.raises(ValueError, match=out_of_range):
            VALUE_ENTRIES[entry](scale * X)
