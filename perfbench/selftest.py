"""Self-test of the benchmark harness (not of the library).

    python3 perfbench/selftest.py

Checks, in about a minute:

1. Corrupted results are counted as failed ops, and the run goes on.
   A small decompose workload and the verify workload run through the
   real loop with their outputs corrupted one way at a time.
2. Two traced runs with the same seed report identical computed counts
   (``*.calls``, ``*.bytes``, ``*.cells``) on every workload.
3. A traced op installs and then restores every rebound name.
4. The metric names a run emits are exactly those BENCHMARK.json lists.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import run

ROOT = run.ROOT


def corrupted_ops_fail() -> list[str]:
    """Each corruption must make its op fail with the expected reason."""
    import numpy as np
    from workloads import DecomposeWorkload, VerifyWorkload

    problems = []
    w = DecomposeWorkload("selftest", (24, 24, 24), 4, ("hooi",))
    w.setup(0, run.OUT)
    w.prepare_checks()
    clean = w.op(0)
    if w.check(clean)[0]:
        problems.append(f"clean decompose op failed: {w.check(clean)[0]}")

    def scaled_factor(T, rep):
        T.factors[0] = T.factors[0] * 1.001

    def wrong_error(T, rep):
        rep.final_error *= 1.01

    def nan_core(T, rep):
        T.core[0, 0, 0] = np.nan

    def zero_core(T, rep):
        T.core[...] = 0.0
        rep.final_error = float(np.linalg.norm(w.X))

    cases = {
        "orthonormality": scaled_factor,
        "recomputed": wrong_error,
        "non-finite": nan_core,
        "noise norm": zero_core,
    }
    for expected, corrupt in cases.items():
        def op(i, corrupt=corrupt):
            T, rep = copy.deepcopy(clean)
            corrupt(T, rep)
            return T, rep
        w.op = op
        rec = run.timed_op(w, 0)
        if not any(expected in reason for reason in rec.get("reasons", [])):
            problems.append(f"corruption '{expected}' not caught: {rec.get('reasons')}")

    def raising(i):
        raise RuntimeError("injected")
    w.op = raising
    records = run.run_loop(w, seconds=0.05)
    if not records or any("injected" not in " ".join(r["reasons"]) for r in records):
        problems.append("a raising op was not counted as failed")

    v = VerifyWorkload("verify-suites")
    v.setup(0, run.OUT)
    reports = v.op(0)
    if v.check(reports)[0]:
        problems.append(f"clean verify pass failed: {v.check(reports)[0]}")
    reports["th4/srft"].passed = False
    v.op = lambda i: reports
    rec = run.timed_op(v, 0)
    if not any("th4/srft" in reason for reason in rec.get("reasons", [])):
        problems.append(f"failed suite not caught: {rec.get('reasons')}")
    return problems


def bindings_restored() -> list[str]:
    """A root span installs every wrapper, records calls, and restores every binding."""
    import numpy as np
    import tuckersketch
    from spans import Tracer

    tracer = Tracer()
    with tracer.span_root("probe") as root:
        tuckersketch.norm(np.ones(3))
        installed = all(getattr(mod, attr) is wrapper for mod, attr, _, wrapper in tracer._bindings)
    restored = all(getattr(mod, attr) is orig for mod, attr, orig, _ in tracer._bindings)
    calls = tracer.summary([root]).get("tensor.norm", {}).get("calls")
    if not (installed and restored and calls == 1):
        return [f"tracer bindings: installed={installed} restored={restored} norm calls={calls}"]
    return []


def bench_json(args) -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                         capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts_repeat_and_names_match() -> list[str]:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    for w in spec["workloads"]:
        runs = [bench_json(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                            "--trace", "1"])["metrics"] for _ in range(2)]
        if sorted(runs[0]) != sorted(per_layer):
            problems.append(f"{w['name']}: traced metrics differ from BENCHMARK.json per_layer")
        for name in runs[0]:
            if run.per_layer_kind(name) == "computed" and runs[0][name] != runs[1][name]:
                problems.append(f"{w['name']}: {name} differs between traced runs: "
                                f"{runs[0][name]['value']} vs {runs[1][name]['value']}")
    plain = bench_json(["--workload", spec["workloads"][0]["name"], "--seconds", "1"])
    if sorted(plain["metrics"]) != sorted(end_to_end):
        problems.append("untraced metrics differ from BENCHMARK.json end_to_end")
    return problems


def main() -> int:
    run.cap_blas_threads(run.nproc())
    sys.path.insert(0, str(ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    problems = corrupted_ops_fail() + bindings_restored() + counts_repeat_and_names_match()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
