"""Command-line experiment runner.

Subcommands:

  run            sweep solvers over a problem and emit CSV/JSON curves
  verify         run the invariant/oracle battery, emit a summary CSV
  list-problems  show available generators and regularizers

``run`` accepts either flags or a JSON config file with the
ExperimentSpec fields.  Errors are reported as a JSON object on stderr
and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentSpec,
    emit_summary_csv,
    run_experiment,
    timing_free,
    verification_suite,
    write_outputs,
)
from .hybrid import METHODS
from .problems import L_KINDS, PROBLEM_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="krylreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep")
    run.add_argument("--config", type=Path, help="JSON file with ExperimentSpec fields")
    run.add_argument("--problem", choices=PROBLEM_NAMES)
    run.add_argument("--n", type=int, help="problem size (vector length, or image side for blur2d)")
    run.add_argument("--eps", type=float, action="append", help="noise level (repeatable)")
    run.add_argument("--seed", type=int)
    run.add_argument("--method", action="append", choices=METHODS, help="solver (repeatable)")
    run.add_argument("--L", choices=L_KINDS, dest="L_kind")
    run.add_argument("--max-k", type=int)
    run.add_argument("--tol", type=float, help="inner LSQR tolerance (applies only where LSQR runs: never with "
                     "--L identity, with first_diff_2d only on steps that fall back to LSQR, and with first_diff_1d "
                     "on all but hyb_cgme's k=1 step)")
    run.add_argument("--out", required=True, help="output prefix: writes <out>.csv, <out>.summary.csv, <out>.json")
    run.add_argument(
        "--deterministic-output",
        action="store_true",
        help="zero wall-clock columns so outputs are byte-reproducible",
    )

    verify = sub.add_parser("verify", help="run the invariant/oracle suites")
    verify.add_argument("--seed", type=int, default=20240101)
    verify.add_argument("--out", help="summary CSV path (default: verify-summary.csv)")

    sub.add_parser("list-problems", help="list generators and regularizers")
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    flags = {"--problem": args.problem, "--n": args.n, "--eps": args.eps, "--method": args.method,
             "--L": args.L_kind, "--seed": args.seed, "--max-k": args.max_k, "--tol": args.tol}
    if args.config is not None:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError(f"--config excludes the spec flags; drop {', '.join(given)}")
        return ExperimentSpec.from_dict(json.loads(args.config.read_text(encoding="utf-8")))
    missing = [flag for flag in ("--problem", "--n", "--eps", "--method") if flags[flag] is None]
    if missing:
        raise ValueError(f"missing required flags (or use --config): {', '.join(missing)}")
    data = {"problem": args.problem, "size": args.n, "epsilons": args.eps, "methods": args.method,
            "seed": 20240101 if args.seed is None else args.seed, "L_kind": args.L_kind,
            "max_outer_k": args.max_k, "inner_tol": args.tol}
    # an unset flag takes ExperimentSpec's default, as a missing config key does
    return ExperimentSpec.from_dict({key: value for key, value in data.items() if value is not None})


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    records = run_experiment(spec)
    write_outputs(timing_free(records) if args.deterministic_output else records, args.out)
    failures = [rec for rec in records if rec.error]
    for rec in failures:
        print(
            json.dumps(
                {"error": "run failed", "method": rec.method, "epsilon": rec.epsilon,
                 "message": rec.error}
            ),
            file=sys.stderr,
        )
    print(f"wrote {args.out}.csv, {args.out}.summary.csv, {args.out}.json ({len(records)} runs)")
    return 1 if len(failures) == len(records) else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks, records = verification_suite(seed=args.seed)
    out = args.out or "verify-summary.csv"
    emit_summary_csv(timing_free(records), out)
    all_ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        all_ok &= check.passed
        print(f"{status} {check.name}: {check.detail}")
    print(f"summary written to {out}")
    return 0 if all_ok else 1


def _cmd_list_problems() -> int:
    print("problems:")
    for name in PROBLEM_NAMES:
        print(f"  {name}")
    print("regularizers:")
    for kind in L_KINDS:
        print(f"  {kind}")
    print("methods:")
    for method in METHODS:
        print(f"  {method}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_list_problems()
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
