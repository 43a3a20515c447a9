import re

import numpy as np
import pytest

from tuckersketch.bench import (
    CSV_COLUMNS,
    BenchConfig,
    read_rows,
    run_bench,
    summarize,
    synth_tensor,
)
from tuckersketch.decompose import DecomposerConfig, decompose, hosvd, reconstruction_error
from tuckersketch.fileio import write_tensor, read_tensor
from tuckersketch.tensor import norm

from oracles import unsolvable


def test_synth_noiseless_is_exactly_low_rank():
    X = synth_tensor((12, 10, 8), (3, 2, 2), 0.0, 31)
    T = hosvd(X, (3, 2, 2))
    assert reconstruction_error(X, T) <= 1e-10


def test_run_bench_rejects_complex_input():
    # the cast used to drop the imaginary part, and the sweep scored the
    # real part with no failed run
    X = synth_tensor((8, 8, 8), (2, 2, 2), 0.0, 4)
    with pytest.raises(ValueError, match="must be real"):
        run_bench(X + 1j * X, BenchConfig(methods=("hooi",), ranks=(2,), reps=1))


def test_run_bench_rejects_bad_seed():
    X = synth_tensor((8, 8, 8), (2, 2, 2), 0.1, 4)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
            run_bench(X, BenchConfig(methods=("hooi",), ranks=(2,), reps=1, seed=seed))


def test_synth_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a.tkr"
    b = tmp_path / "b.tkr"
    write_tensor(a, synth_tensor((9, 9, 9), (2, 2, 2), 0.3, 77))
    write_tensor(b, synth_tensor((9, 9, 9), (2, 2, 2), 0.3, 77))
    assert a.read_bytes() == b.read_bytes()
    assert read_tensor(a).shape == (9, 9, 9)


def test_synth_snr_matches_analytic_expectation():
    dims, ranks, sigma, seed = (20, 20, 20), (3, 3, 3), 0.1, 13
    X = synth_tensor(dims, ranks, sigma, seed)
    signal = synth_tensor(dims, ranks, 0.0, seed)  # same seed reproduces the signal part
    noise_sq = norm(X - signal) ** 2
    snr = norm(signal) ** 2 / noise_sq
    snr_expected = norm(signal) ** 2 / (sigma**2 * np.prod(dims))
    assert abs(snr - snr_expected) / snr_expected <= 0.10


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_tensor((4, 4), (5, 2), 0.0, 0)
    with pytest.raises(ValueError):
        synth_tensor((4, 4), (2, 2), -0.1, 0)
    with pytest.raises(ValueError):
        synth_tensor((4,), (2, 2), 0.0, 0)


@pytest.mark.parametrize("noise", [np.nan, np.inf])
def test_synth_rejects_non_finite_noise(noise):
    # nan > 0 is False, so a nan level used to write a tensor with no
    # noise; an inf level wrote inf entries
    with pytest.raises(ValueError, match="noise level must be a finite nonnegative number"):
        synth_tensor((4, 4), (2, 2), noise, 0)


@pytest.mark.parametrize("dims, ranks", [((4.9, 4), (2, 2)), ((4, 4), (2.5, 2)), ((4, 4.0), (2, 2))])
def test_synth_rejects_non_integer_dims_and_ranks(dims, ranks):
    # int() used to truncate 4.9 to 4 and 2.5 to 2 without a word
    match = "must be integers" if ranks[0] == 2 else "^rank 2.5 for mode 0 must be an integer$"
    with pytest.raises(ValueError, match=match):
        synth_tensor(dims, ranks, 0.0, 0)


def test_synth_accepts_numpy_integers():
    X = synth_tensor(np.array([5, 4, 3]), (np.int32(2), np.int64(2), 1), np.float32(0.1), 3)
    np.testing.assert_array_equal(X, synth_tensor((5, 4, 3), (2, 2, 1), float(np.float32(0.1)), 3))


def test_bench_config_validation():
    X = np.ones((6, 6, 6))
    with pytest.raises(ValueError):
        run_bench(X, BenchConfig(methods=(), ranks=(2,)))
    with pytest.raises(ValueError, match="^no ranks selected$"):
        run_bench(X, BenchConfig(methods=("hooi",), ranks=()))
    with pytest.raises(ValueError):
        run_bench(X, BenchConfig(methods=("hooi", "bogus"), ranks=(2,)))
    with pytest.raises(ValueError, match=r"rank 9 for mode 0 must be in \[1, 6\]"):
        run_bench(X, BenchConfig(methods=("hooi",), ranks=(9,)))
    # a non-integer rank used to give NaN rows, one per run, instead of an error
    for R in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            run_bench(X, BenchConfig(methods=("hooi",), ranks=(R,), reps=3))
    with pytest.raises(ValueError, match="must be in"):
        run_bench(X, BenchConfig(methods=("hooi",), ranks=(0,)))
    with pytest.raises(ValueError):
        # randomized method with an empty dr grid is a config error
        run_bench(X, BenchConfig(methods=("hooi-re",), ranks=(2,), dr_grid=()))
    with pytest.raises(ValueError):
        run_bench(X, BenchConfig(methods=("hooi-re",), ranks=(2,), dr_grid=(1.2,)))


@pytest.mark.parametrize("modes", [(0, 0), (3,), ()])
def test_bench_rejects_compressed_modes_the_solver_rejects(modes):
    # these used to run every randomized cell into a NaN row
    X = np.ones((6, 6, 6))
    for methods in [("hooi-re",), ("hooi", "hooi-re-star")]:
        with pytest.raises(ValueError, match="compressed mode"):
            run_bench(X, BenchConfig(methods=methods, ranks=(2,), dr_grid=(0.5,), reps=1,
                                     compress_modes=modes))
    # a deterministic sweep never reads them
    rows, _ = run_bench(X + np.arange(6.0), BenchConfig(methods=("hooi",), ranks=(2,), reps=1,
                                                       compress_modes=modes))
    assert len(rows) == 1


@pytest.mark.parametrize("grid", [{"methods": ("hooi-re", "hooi-re")}, {"ranks": (2, 2)}, {"dr_grid": (0.5, 0.5)}],
                         ids=["methods", "ranks", "dr_grid"])
def test_bench_rejects_duplicate_grid_values(grid):
    # all three repeated used to write 16 rows from 2 seeds, summarised as
    # one cell of 16 reps whose sd was taken over copies
    X = synth_tensor((8, 8, 8), (2, 2, 2), 0.1, 3)
    config = BenchConfig(**{"methods": ("hooi-re",), "ranks": (2,), "dr_grid": (0.5,), "reps": 2, **grid})
    with pytest.raises(ValueError, match="^duplicate values in the "):
        run_bench(X, config)


@pytest.mark.parametrize("kind", ["zero", "inf", "huge"])
def test_a_run_that_raises_stops_the_bench_with_the_solver_error(kind, tmp_path):
    # each used to give one all-NaN row per run and a sweep that completed
    X = unsolvable(kind)
    with pytest.raises(ValueError) as solver:
        decompose(X, DecomposerConfig(ranks=(2, 2, 2)))
    csv_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "rows.summary.json"
    config = BenchConfig(methods=("hosvd", "hooi", "hooi-re"), ranks=(2,), dr_grid=(0.5, 1.0), reps=3)
    with pytest.raises(ValueError, match=f"^{re.escape(str(solver.value))}$"):
        run_bench(X, config, csv_path=csv_path, summary_path=summary_path)
    assert not csv_path.exists() and not summary_path.exists()


def test_bench_deterministic_methods_have_zero_spread():
    X = synth_tensor((10, 10, 10), (2, 2, 2), 0.1, 3)
    rows, summary = run_bench(X, BenchConfig(methods=("hooi",), ranks=(2,), reps=2, seed=1))
    assert len(rows) == 2
    assert rows[0].error == rows[1].error
    assert rows[0].dr == 1.0  # dr grid is ignored for deterministic methods
    cell = summary["cells"][0]
    assert cell["error"]["sd"] == 0.0


def test_bench_randomized_methods_vary_across_reps():
    X = synth_tensor((10, 10, 10), (2, 2, 2), 0.1, 3)
    rows, _ = run_bench(
        X, BenchConfig(methods=("hooi-re",), ranks=(2,), dr_grid=(0.5,), reps=5, seed=1)
    )
    errs = [r.error for r in rows]
    assert len(set(errs)) > 1
    assert all(np.isfinite(errs))


def test_bench_rows_round_trip_and_summary_recompute(tmp_path):
    X = synth_tensor((10, 10, 10), (2, 2, 2), 0.1, 4)
    csv_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "rows.summary.json"
    rows, summary = run_bench(
        X,
        BenchConfig(methods=("hosvd", "hooi-re"), ranks=(2, 3), dr_grid=(0.4, 0.8), reps=3, seed=9),
        csv_path=csv_path,
        summary_path=summary_path,
    )
    # hosvd: 2 ranks x 3 reps; hooi-re: 2 ranks x 2 drs x 3 reps
    assert len(rows) == 6 + 12
    back = read_rows(csv_path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert b == a  # every field, floats included, survives the round trip exactly
        assert [type(v) for v in vars(b).values()] == [type(v) for v in vars(a).values()]
    # aggregates recompute from rows
    again = summarize(back)
    for c1, c2 in zip(summary["cells"], again["cells"]):
        assert c1["error"]["mean"] == pytest.approx(c2["error"]["mean"], abs=1e-12)
        assert c1["error"]["sd"] == pytest.approx(c2["error"]["sd"], abs=1e-12)
    assert summary_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == (  # the format documented in README
        "method,R,dr,rep,seed,iters,time_total_s,error,"
        "prep_ms,init_ms,embed_gen_ms,embed_apply_ms,factor_ms,core_ms,finalize_ms"
    )
    assert header == ",".join(CSV_COLUMNS)
    for cell in summary["cells"]:
        assert list(cell["stage_ms_per_iter"]) == [
            "prep", "init", "embed_generate", "embed_apply", "factor_update", "core_update", "finalize"
        ]


def test_bench_stage_sums_bounded_by_total():
    X = synth_tensor((12, 12, 12), (2, 2, 2), 0.1, 5)
    rows, summary = run_bench(
        X, BenchConfig(methods=("hosvd", "hooi-re"), ranks=(2,), dr_grid=(0.5,), reps=2, seed=2)
    )
    for r in rows:
        sweeps_ms = r.iters * (r.embed_gen_ms + r.embed_apply_ms + r.factor_ms + r.core_ms)
        stage_total_s = (r.prep_ms + r.init_ms + sweeps_ms + r.finalize_ms) / 1e3
        assert stage_total_s <= r.time_total_s + 1e-3
        assert r.init_ms > 0.0 and r.finalize_ms > 0.0
        if r.method == "hosvd":  # no sweep: the SVDs are the initial guess
            assert r.embed_gen_ms == r.embed_apply_ms == r.factor_ms == r.core_ms == 0.0
    for cell in summary["cells"]:
        assert {"init", "finalize"} <= set(cell["stage_ms_per_iter"])


def test_bench_error_column_bitwise_reproducible():
    X = synth_tensor((10, 10, 10), (2, 2, 2), 0.1, 6)
    config = BenchConfig(
        methods=("hooi", "hooi-re", "hooi-re-star"), ranks=(2,), dr_grid=(0.3, 0.7), reps=3, seed=42
    )
    rows1, _ = run_bench(X, config)
    rows2, _ = run_bench(X, config)
    assert [r.error for r in rows1] == [r.error for r in rows2]
    assert [r.seed for r in rows1] == [r.seed for r in rows2]


def test_bench_seeds_distinguish_close_ratios():
    # dr values within 5e-4 of each other once shared a seed
    X = synth_tensor((10, 10, 10), (2, 2, 2), 0.1, 7)
    config = BenchConfig(methods=("hooi-re",), ranks=(2,), dr_grid=(0.3, 0.3004), reps=2, seed=5)
    rows1, _ = run_bench(X, config)
    rows2, _ = run_bench(X, config)
    seeds = {(r.dr, r.rep): r.seed for r in rows1}
    assert seeds[(0.3, 0)] != seeds[(0.3004, 0)]
    assert seeds[(0.3, 1)] != seeds[(0.3004, 1)]
    assert len(set(seeds.values())) == 4
    assert [(r.seed, r.error) for r in rows1] == [(r.seed, r.error) for r in rows2]
