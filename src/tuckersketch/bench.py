"""Benchmark orchestration: synthetic tensors, method grids, CSV/JSON output.

A bench run sweeps (method x rank x reduction ratio x replication) over
one input tensor.  :meth:`BenchConfig.runs` is the one list of its runs:
``validate`` walks it, so every run is checked before the first starts,
and ``run_bench`` runs it in order.  Each run draws its own seed from the
root seed, keyed by its method, rank, ratio and rep, so error columns
reproduce bitwise across reruns of the same configuration.  A run that
raises stops the sweep with the solver's error, as ``decompose`` does,
and nothing is written.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import rng
from .decompose import METHODS, RANDOMIZED, DecomposerConfig, decompose
from .tensor import _check_count, _check_dims, _check_ranks, _check_ratio, as_tensor
from .tucker import random_orthogonal_tucker, reconstruct

__all__ = [
    "BenchConfig",
    "BenchRow",
    "CSV_COLUMNS",
    "synth_tensor",
    "run_bench",
    "read_rows",
    "summarize",
]

_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}

# synthesis stream tags
_SIGNAL = 0
_NOISE = 1


def synth_tensor(dims, ranks, noise_sigma: float, seed: int) -> np.ndarray:
    """Random low-rank tensor plus optional i.i.d. Gaussian noise.

    The signal part reconstructs a random orthogonal decomposition with
    a standard normal core; rerunning with ``noise_sigma=0`` and the same
    seed reproduces the signal exactly, which is how tests separate the
    two parts.
    """
    dims = _check_dims(dims)
    ranks = _check_ranks(ranks, dims)
    # nan > 0 is False: a nan level used to write a tensor with no noise
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise level must be a finite nonnegative number, got {noise_sigma}")
    X = reconstruct(random_orthogonal_tucker(dims, ranks, rng.stream(seed, _SIGNAL)))
    if noise_sigma > 0:
        X = X + noise_sigma * rng.stream(seed, _NOISE).standard_normal(dims)
    return X


@dataclass
class BenchConfig:
    methods: tuple[str, ...]
    ranks: tuple[int, ...]  # scalar rank grid; each R applies to every mode
    dr_grid: tuple[float, ...] = ()
    reps: int = 100
    seed: int = 1
    compress_modes: tuple[int, ...] | None = None

    def validate(self, shape: tuple[int, ...]) -> None:
        if not self.methods:
            raise ValueError("no methods selected")
        if not self.ranks:
            raise ValueError("no ranks selected")
        if any(m in RANDOMIZED for m in self.methods) and not self.dr_grid:
            raise ValueError("randomized methods need a nonempty dr grid")
        _check_count("reps", self.reps)
        for _ in self.runs(shape):  # the solver's checks of every run, and its seed key
            pass
        for dr in self.dr_grid:  # also a grid that only deterministic methods read
            _check_ratio(dr)
        # a repeated value reruns its cells with the same seeds
        for name, grid in (("methods", self.methods), ("ranks", self.ranks), ("dr grid", self.dr_grid)):
            if len(set(grid)) != len(grid):
                raise ValueError(f"duplicate values in the {name}: {tuple(grid)}")

    def runs(self, shape: tuple[int, ...]):
        """Every run of the sweep, in order, as ``(rep, solver config)``; a
        deterministic method runs at dr 1.0 whatever the grid.  A cell's
        config passes the solver's checks before its runs take their seeds,
        ``child_seed(seed, method id, R, dr's float64 bits, rep)``: keyed on
        the exact bits, distinct dr values never share a seed."""
        for method in self.methods:
            for R in self.ranks:
                for dr in self.dr_grid if method in RANDOMIZED else (1.0,):
                    cell = DecomposerConfig(ranks=(R,) * len(shape), method=method, dr=dr,
                                            compress_modes=self.compress_modes)
                    cell.validate(shape)
                    key = (_METHOD_IDS[method], R, np.float64(dr).view(np.uint64))
                    for rep in range(self.reps):
                        yield rep, replace(cell, seed=rng.child_seed(self.seed, *key, rep))


@dataclass
class BenchRow:
    method: str
    R: int
    dr: float
    rep: int
    seed: int
    iters: int
    time_total_s: float
    error: float
    prep_ms: float
    init_ms: float
    embed_gen_ms: float
    embed_apply_ms: float
    factor_ms: float
    core_ms: float
    finalize_ms: float

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "BenchRow":
        """Parse a record of strings, converting each field to its annotated type."""
        types = get_type_hints(cls)
        return cls(**{f.name: types[f.name](rec[f.name]) for f in fields(cls)})


CSV_COLUMNS = [f.name for f in fields(BenchRow)]

# timing column -> the stage it reports, which is also its key in the
# summary's stage block; "prep" is the one-time RunReport.preprocess_ms,
# every other stage the mean of its RunReport.stage_times list
_TIMINGS = {
    "prep_ms": "prep",
    "init_ms": "init",
    "embed_gen_ms": "embed_generate",
    "embed_apply_ms": "embed_apply",
    "factor_ms": "factor_update",
    "core_ms": "core_update",
    "finalize_ms": "finalize",
}


def run_bench(X, config: BenchConfig, csv_path=None, summary_path=None):
    """Run the sweep; returns ``(rows, summary)`` and optionally writes both."""
    X = as_tensor(X)
    config.validate(X.shape)
    rows: list[BenchRow] = []
    for rep, run in config.runs(X.shape):
        t0 = time.perf_counter()
        _, report = decompose(X, run)
        rows.append(
            BenchRow(
                method=run.method,
                R=run.ranks[0],
                dr=run.dr,
                rep=rep,
                seed=run.seed,
                iters=report.iterations,
                time_total_s=time.perf_counter() - t0,
                error=report.final_error,
                **{
                    col: report.preprocess_ms if stage == "prep" else report.mean_stage_ms(stage)
                    for col, stage in _TIMINGS.items()
                },
            )
        )
    summary = summarize(rows)
    if csv_path is not None:
        write_rows(csv_path, rows)
    if summary_path is not None:
        Path(summary_path).write_text(json.dumps(summary, indent=2))
    return rows, summary


def write_rows(path, rows: list[BenchRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.to_record())


def read_rows(path) -> list[BenchRow]:
    with open(path, newline="") as fh:
        return [BenchRow.from_record(rec) for rec in csv.DictReader(fh)]


def _mean_sd(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    sd = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd}


def summarize(rows: list[BenchRow]) -> dict:
    """Aggregate rows per (method, R, dr) cell: mean/sd of error and time,
    mean per-iteration stage costs."""
    cells: dict[tuple, list[BenchRow]] = {}
    for row in rows:
        cells.setdefault((row.method, row.R, row.dr), []).append(row)
    out = {"n_rows": len(rows), "cells": []}
    for (method, R, dr), group in sorted(cells.items()):
        out["cells"].append(
            {
                "method": method,
                "R": R,
                "dr": dr,
                "reps": len(group),
                "error": _mean_sd([g.error for g in group]),
                "time_total_s": _mean_sd([g.time_total_s for g in group]),
                "iters_mean": float(np.mean([g.iters for g in group])),
                "stage_ms_per_iter": {
                    stage: _mean_sd([getattr(g, col) for g in group]) for col, stage in _TIMINGS.items()
                },
            }
        )
    return out
