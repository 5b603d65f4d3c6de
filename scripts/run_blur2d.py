#!/usr/bin/env python3
"""2-D deblurring demo: separable Gaussian blur with the stacked
first-difference regularizer.

Emits the convergence curves (seminorm relative error per outer index)
as CSV; feed them to any plotting tool to view the semi-convergence
shape.

Example:
    python scripts/run_blur2d.py --side 48 --eps 0.01 --out results/blur
"""

import argparse
import sys

from krylreg.harness import ExperimentSpec, emit_csv, emit_summary_csv, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--side", type=int, default=48, help="image side length N")
    parser.add_argument("--psf-sigma", type=float, default=2.0)
    parser.add_argument("--eps", type=float, action="append")
    parser.add_argument("--seed", type=int, default=20240101)
    parser.add_argument("--max-k", type=int, default=40)
    parser.add_argument("--out", default="results/blur")
    args = parser.parse_args()

    spec = ExperimentSpec(
        problem="blur2d",
        size=args.side,
        epsilons=tuple(args.eps or (1e-2,)),
        seed=args.seed,
        methods=("hyb_cgme", "hyb_tcgme"),
        max_outer_k=args.max_k,
        psf_sigma=args.psf_sigma,
    )
    records = run_experiment(spec)
    out = args.out
    emit_csv(records, f"{out}.csv")
    emit_summary_csv(records, f"{out}.summary.csv")
    for rec in records:
        if rec.error:
            print(f"{rec.method:10s} eps={rec.epsilon:<7g} ERROR {rec.error}")
        else:
            print(
                f"{rec.method:10s} eps={rec.epsilon:<7g} best {rec.best_error:.4f} "
                f"({rec.best_k}) over {len(rec.rows)} outer iterations"
            )
    print(f"curves written to {out}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
