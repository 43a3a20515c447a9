"""The benchmark's workloads: generated inputs, the timed ops, output checks.

Each workload is a closed loop: one op runs at a time and op ``i`` is
``kinds[i % len(kinds)]``.  Inputs come from the workload seed alone; the
library sees only the generated inputs.  Every library call goes through
a module attribute at call time so that the tracer's rebinding applies.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import tuckersketch as ts
from tuckersketch import bounds

NOISE = 0.05
ORTHO_TOL = 1e-10
ERROR_RTOL = 1e-8
MAX_ERR_OVER_NOISE = 1.5


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def dense_reconstruct(core: np.ndarray, factors) -> np.ndarray:
    """Tucker reconstruction by tensordot, independent of the library's kernels."""
    Y = core
    for j, F in enumerate(factors):
        Y = np.moveaxis(np.tensordot(F, Y, axes=(1, j)), 0, j)
    return Y


class DecomposeWorkload:
    """Ops call ``decompose`` on one synthetic tensor, cycling through methods.

    The tensor is a rank-``rank`` signal plus Gaussian noise of level
    ``NOISE``, written to TKR1 and read back.  An op fails if it raises or
    returns non-finite values, a factor that is not orthonormal to
    ``ORTHO_TOL``, a ``final_error`` that disagrees with the recomputed
    error by more than ``ERROR_RTOL``, or an error above
    ``MAX_ERR_OVER_NOISE`` times the planted noise norm.
    """

    def __init__(self, name: str, dims, rank: int, kinds, dr: float = 1.0):
        self.name = name
        self.dims = tuple(dims)
        self.ranks = (rank,) * len(self.dims)
        self.kinds = tuple(kinds)
        self.dr = dr
        self.seed = 0
        self.X = None
        self.noise_norm = None

    def shapes(self) -> dict:
        return {"dims": list(self.dims), "ranks": list(self.ranks), "noise": NOISE,
                "methods": list(self.kinds), "dr": self.dr}

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.X = None  # a repeated set-up does not hold the previous copy
        X = ts.synth_tensor(self.dims, self.ranks, NOISE, seed)
        path = workdir / f"{self.name}.tkr"
        ts.write_tensor(path, X)
        self.X = ts.read_tensor(path)
        if not np.array_equal(self.X, X):
            raise RuntimeError("TKR1 round trip changed the tensor")

    def prepare_checks(self) -> None:
        """Reference for the checks: the planted noise is X minus the noise-free synthesis."""
        signal = ts.synth_tensor(self.dims, self.ranks, 0.0, self.seed)
        self.noise_norm = float(np.linalg.norm(self.X - signal))

    def op(self, i: int):
        method = self.kinds[i % len(self.kinds)]
        config = ts.DecomposerConfig(ranks=self.ranks, method=method, dr=self.dr,
                                     seed=op_seed(self.seed, i))
        return ts.decompose(self.X, config)

    def check(self, result) -> tuple[list[str], float | None]:
        """Failure reasons (empty when correct) and the op's error over noise."""
        T, report = result
        if T.core.shape != self.ranks or [F.shape for F in T.factors] != list(
            zip(self.dims, self.ranks)
        ):
            return ["wrong core or factor shapes"], None
        if not (all(np.isfinite(a).all() for a in (T.core, *T.factors))
                and np.isfinite(report.final_error)):
            return ["non-finite output"], None
        reasons = []
        for j, F in enumerate(T.factors):
            dev = float(np.abs(F.T @ F - np.eye(F.shape[1])).max())
            if dev > ORTHO_TOL:
                reasons.append(f"factor {j} deviates from orthonormality by {dev:.2e}")
        err = float(np.linalg.norm(self.X - dense_reconstruct(T.core, T.factors)))
        if abs(err - report.final_error) > ERROR_RTOL * err:
            reasons.append(f"final_error {report.final_error!r} != recomputed {err!r}")
        err_over_noise = err / self.noise_norm
        if err_over_noise > MAX_ERR_OVER_NOISE:
            reasons.append(f"error is {err_over_noise:.3f} x the noise norm")
        return reasons, err_over_noise

    def layer_stats(self, result) -> dict[str, float]:
        """Per-op numbers from the run report (stage sums over iterations)."""
        _, report = result
        stats = {"decompose.prep_ms": report.preprocess_ms,
                 "decompose.iters_mean": float(report.iterations)}
        for stage in ("embed_apply", "embed_generate", "factor_update", "core_update"):
            stats[f"decompose.{stage}_ms"] = float(sum(report.stage_times.get(stage, [])))
        stats["staged_ms"] = report.preprocess_ms + sum(
            sum(times) for times in report.stage_times.values()
        )
        return stats


# eps/eta and shapes are the CLI defaults, pinned here.  Trial counts are
# cut so that a pass takes well under a second and a run holds enough ops
# for its tail percentile to lie above the median.
LEMMA21_PARAMS = {"trials": 50}
FAMILY_SUITES = {
    "lemma_a": ("run_lemma_a_suite", {"trials": 50, "eps": 0.5, "n": 128, "m": 64}),
    "prop1": ("run_prop1_suite", {"target": 25, "eps": 0.6, "dims": (32, 32, 32),
                                  "ranks": (3, 3, 3), "m": 24}),
    "th1": ("run_th1_suite", {"trials": 25, "eps": 0.5, "eta": 0.1, "dims": (64, 64, 64),
                              "ranks": (3, 3, 3), "embed_dim": 48}),
    "th4": ("run_th4_suite", {"trials": 15, "eps": 0.6, "eta": 0.2, "dims": (32, 32, 32),
                              "ranks": (2, 2, 2), "embed_dim": 24, "y_samples": 20}),
}
FAMILIES = ("gaussian", "srft")


class VerifyWorkload:
    """Each op is one pass over every verification suite, for both embedding families.

    The suite seed is the workload seed, so every op in a run repeats the
    same draws.  An op fails if any suite raises or does not pass.
    """

    def __init__(self, name: str):
        self.name = name
        self.kinds = ("verify",)
        self.seed = 0

    def shapes(self) -> dict:
        return {"lemma21": LEMMA21_PARAMS, "families": list(FAMILIES),
                **{suite: params for suite, (_, params) in FAMILY_SUITES.items()}}

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare_checks(self) -> None:
        pass

    def op(self, i: int) -> dict:
        reports = {"lemma21": bounds.run_lemma21_suite(seed=self.seed, **LEMMA21_PARAMS)}
        for fam in FAMILIES:
            for suite, (fn, params) in FAMILY_SUITES.items():
                reports[f"{suite}/{fam}"] = getattr(bounds, fn)(seed=self.seed, family=fam, **params)
        return reports

    def check(self, reports) -> tuple[list[str], float | None]:
        return [f"suite {name} did not pass" for name, r in reports.items() if not r.passed], None

    def layer_stats(self, reports) -> dict[str, float]:
        """Useful draws over draws for the suites that discard draws."""
        stats = {}
        for suite in ("lemma_a", "prop1"):
            group = [reports[f"{suite}/{fam}"] for fam in FAMILIES]
            stats[f"bounds.{suite}.accept_ratio"] = (
                sum(r.details["satisfied"] for r in group) / sum(r.trials for r in group)
            )
        return stats


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dense-hooi": lambda: DecomposeWorkload(
        "dense-hooi", (120, 120, 120), 30, ("hosvd", "hooi")),
    "sketch-grid": lambda: DecomposeWorkload(
        "sketch-grid", (160, 160, 160), 16, ("hooi-re", "hooi-re-star"), dr=0.3),
    "verify-suites": lambda: VerifyWorkload("verify-suites"),
}
