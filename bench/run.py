"""depthlab benchmark: the command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process against the
checkout's own src/depthlab and prints, as the last line of standard
output, {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics from a
traced run and writes its spans to .bench_traces/. The line before the
result is a record of the machine and the raw per-call numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: on a 2-core machine it gave the same throughput as two
# and about half the run-to-run spread.
BLAS_THREADS = 1


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "depthlab" / "__init__.py").is_file():
        print(f"error: no depthlab sources under {SRC}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read when numpy first loads, just below
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result, record, iterations = workloads.measure_traced(args.workload, args.seed, args.seconds, workdir)
            trace_dir = ROOT / ".bench_traces"
            trace_dir.mkdir(exist_ok=True)
            with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "iterations": iterations}, fh)
        else:
            result, record = workloads.measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({**header, "machine": machine_record(), **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
