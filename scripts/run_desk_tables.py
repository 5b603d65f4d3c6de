#!/usr/bin/env python3
"""Desk-scale reproduction of the 1-D benchmark tables.

Sweeps hyb-CGME and hyb-TCGME (plus the uncorrected Krylov baselines if
requested) over shaw/baart/heat/deriv2 at three noise levels and prints
the smallest seminorm relative error with its outer index, writing the
full curves next to the summary.

Example:
    python scripts/run_desk_tables.py --n 1000 --out results/desk
"""

import argparse
import sys

from krylreg.harness import ExperimentSpec, emit_csv, emit_json, emit_summary_csv, run_experiment

PROBLEMS = ("shaw", "baart", "heat", "deriv2")
EPSILONS = (1e-1, 5e-2, 1e-2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20240101)
    parser.add_argument("--max-k", type=int, default=30)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--include-krylov-baselines", action="store_true")
    parser.add_argument("--out", default="results/desk")
    args = parser.parse_args()

    methods = ["hyb_cgme", "hyb_tcgme"]
    if args.include_krylov_baselines:
        methods = ["cgme", "tcgme", *methods]

    out = args.out
    all_records = []
    for problem in PROBLEMS:
        spec = ExperimentSpec(
            problem=problem,
            size=args.n,
            epsilons=EPSILONS,
            seed=args.seed,
            methods=tuple(methods),
            max_outer_k=args.max_k,
            inner_tol=args.tol,
        )
        records = run_experiment(spec)
        all_records.extend(records)
        for rec in records:
            if rec.error:
                print(f"{problem:8s} eps={rec.epsilon:<7g} {rec.method:10s} ERROR {rec.error}")
            else:
                note = " (truncated: krylov breakdown)" if rec.breakdown else ""
                print(
                    f"{problem:8s} eps={rec.epsilon:<7g} {rec.method:10s} "
                    f"best {rec.best_error:.4f} ({rec.best_k}) "
                    f"wall {rec.total_wall_ms:8.1f} ms{note}"
                )
    emit_csv(all_records, f"{out}.csv")
    emit_summary_csv(all_records, f"{out}.summary.csv")
    emit_json(all_records, f"{out}.json")
    print(f"curves and summaries written to {out}.csv / {out}.summary.csv / {out}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
