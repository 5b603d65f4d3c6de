#!/usr/bin/env python3
"""2-D deblurring demo: separable Gaussian blur with the stacked
first-difference regularizer.

Writes ``<out>.csv`` (seminorm relative error per outer index: plot it for
the semi-convergence shape), ``<out>.summary.csv`` and ``<out>.json``, the
three files of ``krylreg run``.  Prints each run's best error and index,
marked "(no interior minimum)" when that index is the first or last one swept.

Example:
    python scripts/run_blur2d.py --side 48 --eps 0.01 --out results/blur
"""

import argparse
import sys

from krylreg.harness import ExperimentSpec, run_experiment, write_outputs


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
    write_outputs(records, out)
    for rec in records:
        if rec.error:
            print(f"{rec.method:10s} eps={rec.epsilon:<7g} ERROR {rec.error}")
        elif not rec.rows:
            print(f"{rec.method:10s} eps={rec.epsilon:<7g} no outer iterations: {rec.breakdown}")
        else:
            edge = "" if rec.interior_minimum else " (no interior minimum)"
            print(
                f"{rec.method:10s} eps={rec.epsilon:<7g} best {rec.best_error:.4f} "
                f"({rec.best_k}){edge} over {len(rec.rows)} outer iterations, "
                f"{len(rec.fallbacks)} LSQR fallbacks"
            )
    print(f"curves and summaries written to {out}.csv / {out}.summary.csv / {out}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
