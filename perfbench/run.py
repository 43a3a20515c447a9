"""Run one tuckersketch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-hooi --seed 1 --seconds 30 --trace 0

The benchmark imports tuckersketch from ``src/`` of the checkout it sits
in and calls its public API in a closed loop: one op at a time, in one
process, with BLAS capped at ``nproc`` threads.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same loop with every other cycle of ops traced
and reports the per-layer metrics, including the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a readable table and the run metadata; the full result (per-op
records, metadata) and, for traced runs, the spans are written under
``.perfbench/`` at the repository root.  ``--workload all`` runs every
workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from spans: "<span>.<field>".  Counts (calls,
# bytes, cells) are per op over the first traced cycle, so they repeat
# exactly for a seed; times are per op over every traced op.
SPAN_METRICS = (
    "decompose.reconstruction_error.ms",
    "linalg.svd.calls", "linalg.svd.self_ms", "linalg.svd.cells",
    "linalg.eigh.self_ms", "linalg.qr.self_ms", "linalg.solve.self_ms",
    "linalg.pinv.self_ms", "linalg.cond.calls",
    "tensor.mode_multiply.calls", "tensor.mode_multiply.self_ms", "tensor.mode_multiply.bytes",
    "tensor.matricize.calls", "tensor.matricize.self_ms", "tensor.norm.self_ms",
    "embeddings.mix.self_ms", "embeddings.mix.bytes",
    "embeddings.subsample_mode.calls", "embeddings.subsample_mode.self_ms",
    "embeddings.subsample_mode.bytes",
    "embeddings.draw_sample_rows.self_ms", "embeddings.unmix_factor.self_ms",
    "embeddings.make_embedding.self_ms",
    "embeddings.apply_embedding.calls", "embeddings.apply_embedding.self_ms",
    "embeddings.is_eps_jl.self_ms",
    "rng.stream.calls", "rng.stream.self_ms",
    "tucker.reconstruct.calls", "tucker.reconstruct.self_ms", "tucker.psi_matrix.self_ms",
    "tucker.norm_via_gram.self_ms", "tucker.TuckerDecomposition.self_ms",
    "bounds.lemma21.ms", "bounds.lemma_a.ms", "bounds.prop1.ms", "bounds.th1.ms",
    "bounds.th4.ms", "bounds.estimate_subspace_dim.ms",
)
SPAN_ALIASES = {
    "bounds.lemma21": "bounds.run_lemma21_suite",
    "bounds.lemma_a": "bounds.run_lemma_a_suite",
    "bounds.prop1": "bounds.run_prop1_suite",
    "bounds.th1": "bounds.run_th1_suite",
    "bounds.th4": "bounds.run_th4_suite",
}
FIELD_UNITS = {"calls": "count", "cells": "count", "bytes": "B", "ms": "ms", "self_ms": "ms"}
COUNT_FIELDS = {"calls": "calls", "cells": "work", "bytes": "work"}
# Per-layer metrics of the traced set-up, read from spans (plus fileio.bytes).
SETUP_SPAN_METRICS = ("bench.synth_tensor.ms", "fileio.write_tensor.ms", "fileio.read_tensor.ms")
# Per-layer metrics from the ops' own outputs (run reports, suite reports),
# averaged over the untraced ops of the traced run.
OUTPUT_METRICS = {
    "decompose.unstaged_ms": "ms",
    "decompose.prep_ms": "ms",
    "decompose.embed_apply_ms": "ms",
    "decompose.embed_generate_ms": "ms",
    "decompose.factor_update_ms": "ms",
    "decompose.core_update_ms": "ms",
    "decompose.iters_mean": "count",
    "decompose.staged_frac": "ratio",
    "decompose.err_over_noise_p50": "ratio",
    "decompose.err_over_noise_max": "ratio",
    "bounds.prop1.accept_ratio": "ratio",
    "bounds.lemma_a.accept_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **OUTPUT_METRICS,
    **{name: FIELD_UNITS[name.rsplit(".", 1)[1]] for name in SPAN_METRICS + SETUP_SPAN_METRICS},
    "fileio.bytes": "B",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_blas_threads(nproc: int) -> None:
    """Let BLAS use at most nproc threads (set before numpy is imported)."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_all(args) -> int:
    """Each workload listed in BENCHMARK.json, one process after another."""
    codes = []
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


# --------------------------------------------------------------------- loop


def timed_op(w, i: int, tracer=None) -> dict:
    """Run, time and check op ``i``; a failure is recorded, never raised."""
    rec = {"i": i, "kind": w.kinds[i % len(w.kinds)], "traced": tracer is not None}
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = w.op(i)
            rec["wall_s"] = time.perf_counter() - t0
        else:
            with tracer.span_root(f"op.{rec['kind']}") as root:
                rec["root"] = root
                t0 = time.perf_counter()
                result = w.op(i)
                rec["wall_s"] = time.perf_counter() - t0
    except Exception as exc:  # counted as a failed op
        rec["reasons"] = [f"raised {type(exc).__name__}: {exc}"]
        return rec
    try:
        rec["reasons"], rec["quality"] = w.check(result)
        if not rec["reasons"]:
            rec["stats"] = w.layer_stats(result)
    except Exception as exc:  # a malformed result is a failed op
        rec["reasons"] = [f"check raised {type(exc).__name__}: {exc}"]
    return rec


def run_loop(w, seconds: float, tracer=None) -> list[dict]:
    """Ops back to back for ``seconds``; with a tracer, odd cycles are traced.

    A traced run does at least two cycles, so it always has an untraced
    and a traced one.
    """
    k = len(w.kinds)
    min_ops = 2 * k if tracer is not None else 1
    records: list[dict] = []
    t_end = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < t_end:
        i = len(records)
        traced = tracer is not None and (i // k) % 2 == 1
        records.append(timed_op(w, i, tracer if traced else None))
    return records


# ------------------------------------------------------------------ metrics


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(records, setup_times) -> tuple[dict, dict]:
    walls = sorted(r["wall_s"] for r in records if "wall_s" in r)
    if not walls:
        raise RuntimeError("no op completed; nothing to time")
    tail = max(0, len(walls) - TAIL_BEYOND - 1)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": walls[tail],
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"op_s_tail_percentile": 100.0 * (tail + 1) / len(walls), "ops_timed": len(walls)}
    return values, notes


def quality_metrics(records) -> dict:
    quality = sorted(r["quality"] for r in records if r.get("quality") is not None)
    if not quality:
        return {}
    return {"decompose.err_over_noise_p50": statistics.median(quality),
            "decompose.err_over_noise_max": quality[-1]}


def per_layer(w, records, tracer, setup_root) -> dict:
    k = len(w.kinds)
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"] and "stats" in r]
    timing = tracer.summary(r["root"] for r in traced)
    counts = tracer.summary(r["root"] for r in traced if r["i"] < 2 * k)
    setup = tracer.summary([setup_root])

    values = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        span = SPAN_ALIASES.get(span, span)
        if field in COUNT_FIELDS:
            values[name] = counts.get(span, {}).get(COUNT_FIELDS[field], 0) / k
        else:
            values[name] = timing.get(span, {}).get(field, 0.0) / max(1, len(traced))
    for name in SETUP_SPAN_METRICS:
        values[name] = setup.get(name.rsplit(".", 1)[0], {}).get("ms", 0.0)
    values["fileio.bytes"] = sum(setup.get(s, {}).get("work", 0)
                                 for s in ("fileio.write_tensor", "fileio.read_tensor"))

    for key in OUTPUT_METRICS:
        values[key] = mean(r["stats"][key] for r in untraced if key in r["stats"])
    decompose_ops = [r for r in untraced if "staged_ms" in r["stats"]]
    values["decompose.unstaged_ms"] = mean(
        r["wall_s"] * 1e3 - r["stats"]["staged_ms"] for r in decompose_ops)
    values["decompose.staged_frac"] = mean(
        r["stats"]["staged_ms"] / (r["wall_s"] * 1e3) for r in decompose_ops)
    values.update(quality_metrics(records))

    traced_walls = [r["wall_s"] for r in traced if "wall_s" in r]
    untraced_walls = [r["wall_s"] for r in records if not r["traced"] and "wall_s" in r]
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        if traced_walls and untraced_walls else 0.0
    )
    return values


def per_layer_kind(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    return "computed" if field in COUNT_FIELDS or name == "fileio.bytes" else "measured"


# ----------------------------------------------------------------- metadata


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(w, seed: int, cores: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "workload": w.name,
        "seed": seed,
        "shapes": w.shapes(),
        "nproc": cores,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "tuckersketch" / "__init__.py").is_file():
        print(f"error: no tuckersketch sources under {src}", file=sys.stderr)
        return 2
    cores = nproc()
    cap_blas_threads(cores)
    sys.path.insert(0, str(src))
    import tuckersketch

    if Path(tuckersketch.__file__).resolve().parent != (src / "tuckersketch").resolve():
        print(f"error: imported tuckersketch from {tuckersketch.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]()
    meta = run_metadata(w, args.seed, cores)

    if args.trace:
        tracer = Tracer()
        with tracer.span_root("setup") as setup_root:
            w.setup(args.seed, OUT)
        w.op(0)  # warm-up, untraced
        w.prepare_checks()
        records = run_loop(w, args.seconds, tracer)
        values = per_layer(w, records, tracer, setup_root)
        table = {name: (values.get(name, 0.0), unit, per_layer_kind(name))
                 for name, unit in PER_LAYER_UNITS.items()}
        notes = {"traced_ops": sum(r["traced"] for r in records),
                 "ops_per_cycle": len(w.kinds)}
        tracer.save(OUT / f"spans-{w.name}.npz")
    else:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            w.setup(args.seed, OUT)
            w.op(0)  # warm-up op, part of set-up
            setup_times.append(time.perf_counter() - t0)
        w.prepare_checks()
        records = run_loop(w, args.seconds)
        values, notes = end_to_end(records, setup_times)
        notes["setup_times_s"] = setup_times
        table = {name: (values[name], unit, "measured")
                 for name, unit in END_TO_END_UNITS.items()}

    attempted = len(records)
    failed = sum(1 for r in records if r.get("reasons"))
    shown = dict(table)
    shown["fail_rate"] = (failed / attempted, "ratio", "measured")
    if not args.trace:
        for name, value in quality_metrics(records).items():
            shown[name.split(".", 1)[1]] = (value, "ratio", "measured")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit, _) in table.items()},
    }
    full = {"meta": meta, "notes": notes, "result": result,
            "metrics": {name: {"value": float(v), "unit": u, "kind": kind}
                        for name, (v, u, kind) in shown.items()},
            "ops": [{k: v for k, v in r.items() if k != "stats"} for r in records]}
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=float))

    for r in records:
        if r.get("reasons"):
            print(f"op {r['i']} ({r['kind']}) failed: {'; '.join(r['reasons'])}", file=sys.stderr)
    print(f"# {w.name} seed={args.seed} trace={args.trace} attempted={attempted} failed={failed}")
    for name, (value, unit, kind) in shown.items():
        print(f"{name:<40} {value:>16.6g} {unit:<6} {kind}")
    print("# notes " + json.dumps(notes, default=float))
    print("# meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
