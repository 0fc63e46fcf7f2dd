#!/usr/bin/env python3
"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 11-20 [--out FILE]

Every workload runs for BENCHMARK.json's ``run_seconds`` on each seed. Each run's end-to-end metrics, with units and ``failed_frac``, go to
stderr as they arrive. For each end-to-end metric and workload it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median over the seeds, next to the environment the numbers
were taken in. The traced run (first seed) adds the per-layer metrics.
Without ``--out`` the summary goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import workloads as W

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    try:
        lines = pathlib.Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    cpu = next((l.split(":", 1)[1].strip() for l in lines if l.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 (set by run.py)",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="'A-B' or a comma list")
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    summary = {"environment": environment(), "run_seconds": BENCHMARK["run_seconds"], "seeds": seeds,
               "end_to_end": {}, "per_layer": {}}
    for workload in W.NAMES:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: not correct (a reference disagreement or a failed op)")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
            shown["failed_frac"] = (result["failed"] / result["attempted"], "frac")
            print(f"{workload} seed {seed}: " + ", ".join(f"{n} {v:.6g} {u}" for n, (v, u) in shown.items()),
                  file=sys.stderr, flush=True)
        table = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
        summary["end_to_end"][workload] = table
        traced = run_once(workload, seeds[0], 1)
        summary["per_layer"][workload] = {n: m["value"] for n, m in traced["metrics"].items()}
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
