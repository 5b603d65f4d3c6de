"""Set-up time of one workload, measured in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Times the import of krylreg plus building every problem instance one pass
of the workload builds, and prints the seconds as one number.
"""

import sys
import time

import bootstrap


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    bootstrap.prepare()
    t0 = time.perf_counter()
    from krylreg.problems import build_problem

    import workloads

    for name, size, eps, spec_seed, L_kind, psf_sigma in workloads.problem_args(workload, seed):
        build_problem(name, size, eps, spec_seed, L_kind=L_kind, psf_sigma=psf_sigma)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
