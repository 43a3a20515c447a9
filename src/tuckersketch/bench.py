"""Benchmark orchestration: synthetic tensors, method grids, CSV/JSON output.

A bench run sweeps (method x rank x reduction ratio x replication) over
one input tensor.  Randomized methods draw an independent seed per cell
from the root seed, so error columns reproduce bitwise across reruns of
the same configuration.  A run that raises is recorded as a row with
NaN error and listed in the summary rather than aborting the sweep.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import rng
from .decompose import METHODS, RANDOMIZED, DecomposerConfig, decompose
from .tensor import as_tensor
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
    dims = tuple(int(n) for n in dims)
    ranks = tuple(int(r) for r in ranks)
    if len(dims) != len(ranks):
        raise ValueError("dims and ranks must have equal length")
    for n, r in zip(dims, ranks):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} invalid for dimension {n}")
    if noise_sigma < 0:
        raise ValueError("noise level must be nonnegative")
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
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
        if not self.ranks:
            raise ValueError("no ranks selected")
        # the solver's own rank checks, and its compressed-mode checks
        # when a randomized method will use them
        method = next((m for m in self.methods if m in RANDOMIZED), "hooi")
        for R in self.ranks:
            DecomposerConfig(ranks=(R,) * len(shape), method=method,
                             compress_modes=self.compress_modes).validate(shape)
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if any(m in RANDOMIZED for m in self.methods) and not self.dr_grid:
            raise ValueError("randomized methods need a nonempty dr grid")
        for dr in self.dr_grid:
            if not 0.0 < dr <= 1.0:
                raise ValueError(f"dr must be in (0, 1], got {dr}")


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


def _cells(config: BenchConfig):
    """Every (method, R, dr, rep) combination; dr fixed at 1.0 for
    deterministic methods so they run once per (R, rep) regardless of the
    grid."""
    for method in config.methods:
        drs = config.dr_grid if method in RANDOMIZED else (1.0,)
        for R in config.ranks:
            for dr in drs:
                for rep in range(config.reps):
                    yield method, R, dr, rep


def _run_seed(root: int, method: str, R: int, dr: float, rep: int) -> int:
    # key on the float's exact bit pattern: distinct dr values never share a seed
    return rng.child_seed(root, _METHOD_IDS[method], int(R), int(np.float64(dr).view(np.uint64)), rep)


def run_bench(X, config: BenchConfig, csv_path=None, summary_path=None):
    """Run the sweep; returns ``(rows, summary)`` and optionally writes both."""
    X = as_tensor(X)
    config.validate(X.shape)
    q = X.ndim
    rows: list[BenchRow] = []
    failed: list[dict] = []
    for method, R, dr, rep in _cells(config):
        run_seed = _run_seed(config.seed, method, R, dr, rep)
        dconf = DecomposerConfig(
            ranks=tuple(R for _ in range(q)),
            method=method,
            dr=dr,
            compress_modes=config.compress_modes,
            seed=run_seed,
        )
        cell = dict(method=method, R=R, dr=dr, rep=rep, seed=run_seed)
        t0 = time.perf_counter()
        try:
            _, report = decompose(X, dconf)
        except Exception as exc:  # record, do not abort the sweep
            failed.append({"method": method, "R": R, "dr": dr, "rep": rep, "error": str(exc)})
            nan = float("nan")
            rows.append(BenchRow(**cell, iters=0, time_total_s=time.perf_counter() - t0, error=nan,
                                 **dict.fromkeys(_TIMINGS, nan)))
            continue
        rows.append(
            BenchRow(
                **cell,
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
    summary["failed_runs"] = failed
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
        if np.isnan(row.error):
            continue
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
