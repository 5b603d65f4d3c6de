"""Benchmark of krylreg's experiment sweeps through ``harness.run_experiment``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk1d --seed 20240101 --seconds 36 --trace 0

One process, one caller: passes of the workload's ``run_experiment`` calls
run back to back (a closed loop) until another pass would overrun
``--seconds``; at least one pass always runs.  Before them, fresh processes
time the set-up (import plus problem builds) ``SETUP_PROBES`` times,
unless the run is traced.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a pass under :class:`tracer.Tracer` and reports the
per-layer metrics, plus the tracing overhead between the two.

Every pass is checked (see ``checks.py``).  The last line of standard output
is the result object; the line before it is a report with the machine facts,
the sample counts and the outcome of each check.
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
from collections import defaultdict
from pathlib import Path

import bootstrap
import checks
import tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# the tail percentile is the highest one with this many step times beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240101)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_times(workload: str, seed: int) -> list[float]:
    """Seconds to import krylreg and build the workload's problems, once
    per fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, cwd=bootstrap.ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_pass(harness, specs) -> tuple[list[float], list]:
    """Seconds of each ``run_experiment`` call, and all their records."""
    seconds, records = [], []
    for spec in specs:
        t0 = time.perf_counter()
        records.extend(harness.run_experiment(spec))
        seconds.append(time.perf_counter() - t0)
    return seconds, records


def sweep_seconds(passes) -> float:
    """Wall time of one pass, summed call by call from each call's median
    over the passes, so that a stall in one pass counts only once."""
    return sum(statistics.median(call) for call in zip(*(seconds for seconds, _ in passes)))


def step_times(passes, sweep_key) -> dict[tuple, float]:
    """Median over the passes of each outer step's ``RunRow.wall_ms``."""
    by_step = defaultdict(list)
    for _, records in passes:
        for rec in records:
            for row in rec.rows:
                by_step[(sweep_key(rec), row.k)].append(row.wall_ms)
    return {step: statistics.median(v) for step, v in by_step.items()}


def time_to_best(steps: dict[tuple, float], records, sweep_key) -> float:
    """Seconds of the outer steps up to each sweep's best k, summed."""
    return sum(
        steps[(sweep_key(rec), row.k)] for rec in records if rec.best_k is not None
        for row in rec.rows if row.k <= rec.best_k
    ) / 1e3


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it; the maximum if there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(bootstrap.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == bootstrap.ROOT:
        return out[1]
    return None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "krylreg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes

    import numpy

    info: dict = {"library": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_facts(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads_pinned": bootstrap.BLAS_THREADS,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv) -> int:
    args = parse_args(argv)
    bootstrap.prepare()

    import workloads
    from krylreg import harness

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}\n")
        return 2
    specs = workloads.specs(args.workload, args.seed)
    reference = checks.load_reference(args.workload, args.seed)
    identity = any(spec.L_kind == "identity" for spec in specs)

    setup = [] if args.trace else setup_times(args.workload, args.seed)

    untraced: list[tuple[list[float], list]] = []
    traced: list[tuple[list[float], list, tracer.Tracer]] = []
    unit_s: list[float] = []
    start = time.perf_counter()
    while not unit_s or time.perf_counter() - start + statistics.median(unit_s) <= args.seconds:
        t0 = time.perf_counter()
        untraced.append(run_pass(harness, specs))
        if args.trace:
            with tracer.Tracer() as tr:
                seconds, records = run_pass(harness, specs)
            traced.append((seconds, records, tr))
        unit_s.append(time.perf_counter() - t0)

    all_passes = [records for _, records in untraced] + [records for _, records, _ in traced]
    attempted = failed = 0
    failures: dict[str, str] = {}
    for records in all_passes:
        found = checks.check_pass(records, reference, identity)
        attempted += len(records)
        failed += len(found)
        failures.update(found)

    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "machine": machine_facts(args.seed),
        "traffic": "closed loop, 1 caller, passes back to back",
        "passes": len(untraced),
        "pass_s": [sum(s) for s, _ in untraced],
        "setup_s_samples": setup,
        "reference_check": (
            f"compared with stored answers for seed {args.seed}" if reference is not None
            else f"skipped: no stored answers for seed {args.seed}"
        ),
        "identity_check": "hyb_* vs plain at L=I" if identity else "not applicable",
        "failures": dict(sorted(failures.items())[:20]),
    }

    if not args.trace:
        steps = step_times(untraced, checks.sweep_key)
        tail_ms, tail_pct = tail(list(steps.values()))
        report["step_ms"] = {"samples": len(steps), "tail_percentile": round(tail_pct, 3),
                             "sample": "median over passes of each outer step's RunRow.wall_ms"}
        metrics = {
            "sweep_s": _metric(sweep_seconds(untraced), "s"),
            "step_ms.p50": _metric(statistics.median(steps.values()), "ms"),
            "step_ms.tail": _metric(tail_ms, "ms"),
            "time_to_best_s": _metric(time_to_best(steps, untraced[0][1], checks.sweep_key), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        self_check_ok = True
    else:
        metrics, trace_report, self_check_ok = traced_metrics(untraced, traced)
        report["trace"] = trace_report

    correct = failed == 0 and self_check_ok
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(untraced, traced) -> tuple[dict, dict, bool]:
    """Per-layer metrics: counts from the traced passes (which must agree
    exactly), self times as their median, and the trace self-check."""
    per_pass = [tracer.layer_metrics(tr.counts, tr.self_s) for _, _, tr in traced]
    absent_layers = traced[0][2].absent_layers()
    metrics = {}
    counts_repeat = True
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "s":
            value = statistics.median(values)
        else:
            counts_repeat &= all(v == values[0] for v in values)
        metrics[name] = _metric(value, unit)
    overhead = sweep_seconds([(s, r) for s, r, _ in traced]) / sweep_seconds(untraced) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")

    checks_out = {}
    for _, records, tr in traced:
        rows = [row for rec in records for row in rec.rows]
        if "lsqr" not in absent_layers:
            want = sum(row.inner_iterations for row in rows)
            checks_out.setdefault("lsqr.iters == sum(RunRow.inner_iterations)", []).append(
                tr.counts["lsqr.iters"] == want)
        if "hybrid" not in absent_layers and "metrics" not in absent_layers:
            checks_out.setdefault("hybrid.steps == rows", []).append(tr.counts["hybrid.steps"] == len(rows))
    self_check = {name: all(v) for name, v in checks_out.items()}
    ok = all(self_check.values()) and counts_repeat
    total_self = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    split = {k[: -len(".self_s")]: round(v["value"] / total_self, 4)
             for k, v in metrics.items() if k.endswith(".self_s") and total_self > 0}
    trace_report = {
        "traced_passes": len(traced),
        "traced_pass_s": [sum(s) for s, _, _ in traced],
        "untraced_pass_s": [sum(s) for s, _ in untraced],
        "self_check": self_check,
        "counts_repeat": counts_repeat,
        "absent_layers": absent_layers,
        "absent_names": traced[0][2].absent,
        "self_time_split": split,
        "bytes_computed": "computed from array sizes, not measured",
    }
    return metrics, trace_report, ok


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
