"""Command-line interface: synth, decompose, bench, verify.

Mode numbers on the command line are 1-based (``--compress-modes 1,2,3``
selects every mode of an order-3 tensor); the library itself indexes
modes from 0.  All subcommands exit 0 on success and nonzero with a
diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bounds
from .bench import BenchConfig, run_bench, synth_tensor
from .decompose import METHODS, DecomposerConfig, decompose
from .fileio import read_tensor, write_decomposition, write_tensor


def _gram_error(report) -> str:
    return f"max_rel_err={report.details['max_rel_err']:.3e} tol={report.threshold:g}"


def _violations(report) -> str:
    return f"violations={report.failures} satisfied={report.details['satisfied']}"


def _tail_fraction(report) -> str:
    return f"failure_fraction={report.failure_fraction:.4f} threshold={report.threshold:.4f}"


# suite -> (runner, keyword taking --trials, keywords taking --eps/--eta, summary line)
_VERIFY_SUITES = {
    "lemma21": (bounds.run_lemma21_suite, "trials", (), _gram_error),
    "lemma-a": (bounds.run_lemma_a_suite, "trials", ("eps",), _violations),
    "prop1": (bounds.run_prop1_suite, "target", ("eps",), _violations),
    "th1": (bounds.run_th1_suite, "trials", ("eps", "eta"), _tail_fraction),
    "th4": (bounds.run_th4_suite, "trials", ("eps", "eta"), _tail_fraction),
}
SUITES = tuple(_VERIFY_SUITES)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _modes_to_zero_based(modes: tuple[int, ...] | None, order: int) -> tuple[int, ...] | None:
    if modes is None:
        return None
    out = []
    for m in modes:
        if not 1 <= m <= order:
            raise ValueError(f"mode {m} out of range 1..{order}")
        out.append(m - 1)
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tuckersketch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a noisy low-rank tensor")
    p.add_argument("--dims", type=_int_list, required=True)
    p.add_argument("--ranks", type=_int_list, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decompose", help="fit one Tucker decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=METHODS, default="hooi")
    p.add_argument("--ranks", type=_int_list, required=True)
    p.add_argument("--dr", type=float, default=1.0)
    p.add_argument("--compress-modes", type=_int_list, default=None,
                   help="1-based mode numbers; default every mode")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("hosvd", "random"), default="hosvd")
    p.add_argument("--out", default=None, help="decomposition output (.tkd)")
    p.add_argument("--report", default=None, help="run report output (.json)")

    p = sub.add_parser("bench", help="sweep methods over ranks and reduction ratios")
    p.add_argument("--input", required=True)
    p.add_argument("--methods", default="hooi", help="comma-separated method names")
    p.add_argument("--ranks", type=_int_list, required=True,
                   help="scalar rank grid; each value applies to every mode")
    p.add_argument("--dr-grid", type=_float_list, default=())
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--compress-modes", type=_int_list, default=None)
    p.add_argument("--out", required=True, help="per-run CSV output")
    p.add_argument("--summary", default=None,
                   help="aggregate JSON output (default: <out>.summary.json)")

    p = sub.add_parser("verify", help="run an empirical bound suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="JSON report output")
    return parser


def _cmd_synth(args) -> int:
    X = synth_tensor(args.dims, args.ranks, args.noise, args.seed)
    write_tensor(args.out, X)
    print(f"wrote {args.out}: dims={tuple(X.shape)} noise={args.noise} seed={args.seed}")
    return 0


def _cmd_decompose(args) -> int:
    X = read_tensor(args.input)
    config = DecomposerConfig(
        ranks=args.ranks,
        method=args.method,
        dr=args.dr,
        compress_modes=_modes_to_zero_based(args.compress_modes, X.ndim),
        max_iters=args.max_iters,
        rel_tol=args.tol,
        seed=args.seed,
        init=args.init,
    )
    T, report = decompose(X, config)
    if args.out:
        write_decomposition(args.out, T)
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_dict(), indent=2))
    print(
        f"{args.method}: error={report.final_error:.6e} "
        f"iters={report.iterations} fit={report.fit_trace[-1]:.6f}"
    )
    return 0


def _cmd_bench(args) -> int:
    X = read_tensor(args.input)
    config = BenchConfig(
        methods=tuple(tok.strip() for tok in args.methods.split(",") if tok.strip()),
        ranks=args.ranks,
        dr_grid=args.dr_grid,
        reps=args.reps,
        seed=args.seed,
        compress_modes=_modes_to_zero_based(args.compress_modes, X.ndim),
    )
    summary_path = args.summary or str(Path(args.out).with_suffix("")) + ".summary.json"
    rows, summary = run_bench(X, config, csv_path=args.out, summary_path=summary_path)
    print(f"wrote {len(rows)} rows to {args.out}; summary in {summary_path}")
    if summary["failed_runs"]:
        print(f"note: {len(summary['failed_runs'])} runs failed (recorded as NaN rows)")
    return 0


def _cmd_verify(args) -> int:
    run, trials_kw, bound_kws, summary = _VERIFY_SUITES[args.suite]
    # an unset --eps/--eta keeps the suite's own default; a suite without
    # the keyword rejects the flag rather than ignore it
    given = {kw: getattr(args, kw) for kw in ("eps", "eta") if getattr(args, kw) is not None}
    for kw in given:
        if kw not in bound_kws:
            raise ValueError(f"--{kw} does not apply to suite {args.suite}")
    report = run(**{trials_kw: args.trials}, seed=args.seed, **given)
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2))
    status = "PASS" if report.passed else "FAIL"
    print(f"{args.suite}: {status} {summary(report)}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "decompose": _cmd_decompose,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
