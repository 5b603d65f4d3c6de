"""Write ``reference.json``: the answers every sweep of every workload must
reproduce at the reference seeds.

Usage (from the root of a checkout):

    python3 perfbench/make_reference.py

Run it only on code whose answers are trusted; the benchmark compares
later code against what it stores.
"""

import json
import sys

import bootstrap

# the repo's documented seed, and one held out while the benchmark was built
REFERENCE_SEEDS = (20240101, 20250607)


def main() -> int:
    bootstrap.prepare()
    import checks
    import workloads
    from krylreg.harness import run_experiment

    seeds = {}
    for seed in REFERENCE_SEEDS:
        seeds[str(seed)] = {
            workload: {
                checks.sweep_key(rec): checks.answer(rec)
                for spec in workloads.specs(workload, seed)
                for rec in run_experiment(spec)
            }
            for workload in workloads.WORKLOADS
        }
    payload = {
        "note": "written by perfbench/make_reference.py",
        "best_error_rtol": checks.BEST_ERROR_RTOL,
        "seeds": seeds,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
