#!/usr/bin/env python3
"""cavmag benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; cavmag is imported from ``src/``. One
closed-loop client sends one op at a time in this process, with BLAS
pinned to one thread. The last stdout line is a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the same numbers for reading, plus ``failed_frac``.

An op is one grid cell (its grid's run_sweep + emit_csv + emit_heatmap
call included), one threshold, or one CLI point query. It fails if it
raised, exited nonzero, produced a non-finite value, or disagreed with
the benchmark's own reference (checked on a seeded sample, outside the
timed region). Failed ops count as infinite latency. ``correct`` is false
if any op fails or any checked value disagrees with the reference.

After the timed loop every run sends the fixed known-defect probe
(``workloads.defect_probe``) through the CLI, untimed, and prints how
many of its points fail by kind; the traced run reports those counts as
``probe.*`` metrics. Probe failures are not ops of the run, but a probe
point that completes with a value the reference disagrees with makes
the run incorrect.

Machine speed: on a shared host the same work runs a fifth to a half
slower or faster from one second or minute to the next. The timed loop therefore runs a
fixed calibration burst (the reference's own solve, no cavmag code)
every CALIBRATION_EVERY_S. Op times are scaled, per SCALE_WINDOWS-th of
the run, by CALIBRATION_REF_S over the median burst time in that part,
which turns them into times on a machine whose burst takes
CALIBRATION_REF_S.
The unscaled wall-clock numbers are printed too.

End-to-end metrics (untraced runs only):

- ``setup_s``: time from spawning a fresh process to its being ready for
  the first timed op (imports, input generation, warm-up). Process start
  drifts with the machine in its own way, so each set-up process is paired
  with a yardstick process that only imports numpy and scipy.linalg;
  ``setup_s`` is YARDSTICK_REF_S times the median set-up/yardstick ratio
  over the pairs, run before and after the timed loop.
- ``ops_per_s``: completed ops per second of scaled time spent in the
  program's calls, over the whole run.
- ``latency_p50_ms``, ``latency_p90_ms``: nearest-rank percentiles of
  scaled per-op latency. On the sweeps a sample is one grid call's time
  divided by its cells, the grid's mean cell cost, so these mirror
  ``ops_per_s``.
- ``completed_frac``: 1 - failed / attempted (``failed_frac`` is printed).
- ``peak_rss_mb``: peak resident set of this process after the timed loop.

The traced run alternates untraced and traced blocks; per-layer numbers
come from the traced blocks and ``trace.overhead_frac`` from the ratio of
the blocks' median rates. Spans are written to ``.perfbench/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads as W  # noqa: E402
from tracer import QUALIFIED, Tracer  # noqa: E402

SETUP_PAIRS = (3, 2)  # set-up and yardstick processes before and after the timed loop
# The yardstick: a fresh interpreter importing what every set-up imports.
# Its start-up time tracks the machine's slow spells for process start.
YARDSTICK_CODE = "import numpy, scipy.linalg"
# About the yardstick's start-up on the 2-core Intel Xeon VM in its
# faster spells; it keeps scaled set-up times near wall time.
YARDSTICK_REF_S = 0.4
SCALE_WINDOWS = 40  # about half a second each: the machine's speed changes that fast
WARM_UP_OPS = {"cli_points": 20, "threshold_scan": 2}  # one grid on the sweeps
TRACE_BLOCK_PAIRS = 10
SWEEP_SAMPLED_CELLS = 2  # reference-checked cells per grid
THRESHOLD_SAMPLE_EVERY = 4
CLI_SAMPLE_EVERY = 16
REUSE_SAMPLE_OPS = 64
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WARM_UNITS = 2  # untimed, so the program's cache state is flushed
CALIBRATION_UNITS = 20
# About the burst time between ops on a 2-core Intel Xeon VM (Python
# 3.11, numpy 2.4, scipy 1.17, one BLAS thread) in its faster spells.
# Only ratios of scaled numbers mean anything; this keeps them near wall time.
CALIBRATION_REF_S = 3e-3
_OMEGA, _KAPPA = 2.0 * math.pi * 10e9, 2.0 * math.pi * 5e6
CALIBRATION_PARAMS = types.SimpleNamespace(
    omega_a=(_OMEGA, _OMEGA), omega_m=(_OMEGA, _OMEGA), omega_drive=(_OMEGA, _OMEGA),
    kappa_a=(_KAPPA, _KAPPA), kappa_m=(_KAPPA / 5.0, _KAPPA / 5.0), g=(5.0 * _KAPPA, 5.0 * _KAPPA),
    r=1.0, theta=0.0, temperature=0.1,
)
# Formatted outputs carry 9 significant digits; rounding may add up to
# half a unit in the ninth digit on top of the absolute tolerance.
FORMAT_RTOL = 5e-9

ANCHOR_E_MM = (0.60, 0.05)  # README: E_mm(r = 0.4, T = 0.1 K)
ANCHOR_THRESHOLD = (0.6, 1.0)  # README: survival temperature at r = 0.4, kelvin


def import_cavmag():
    """cavmag from this checkout's ``src/``, never an installed copy."""
    package = ROOT / "src" / "cavmag"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no cavmag package at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import cavmag
    import cavmag.cli  # noqa: F401 - the CLI layer is wrapped and called

    if pathlib.Path(cavmag.__file__).resolve().parent != package.resolve():
        raise ImportError(f"cavmag was imported from {cavmag.__file__}, not {package}")
    return cavmag


@dataclasses.dataclass
class Record:
    start: float
    end: float
    ops: int
    failed: int
    traced: bool


class Job:
    """One workload's ops over its seeded inputs, with per-op bookkeeping."""

    def __init__(self, cavmag, workload: str, seed: int):
        self.cavmag = cavmag
        self.workload = workload
        self.inputs = W.make_inputs(workload, seed)
        self.sample_rng = np.random.default_rng([seed, 7919])
        # (record index, params, program output): a threshold, or a list
        # of (values by name, rtol) to hold against one reference solve
        self.samples: list[tuple[int, object, object]] = []
        self.emit_bytes = 0
        if workload == "cli_points":
            self.argvs = [W.cli_argv(p) for p in self.inputs]

    def item(self, k: int):
        return self.inputs[k % len(self.inputs)]

    def prepare(self, k: int):
        if self.workload.startswith("sweep"):
            return W.sweep_spec(self.cavmag, self.workload, self.item(k))
        if self.workload == "threshold_scan":
            return dataclasses.replace(self.cavmag.BASELINE, r=self.item(k))
        return self.argvs[k % len(self.argvs)]

    def call(self, prepared):
        if self.workload == "cli_points":
            return W.run_cli(self.cavmag, prepared)
        try:
            if self.workload == "threshold_scan":
                return W.run_threshold(self.cavmag, prepared)
            return W.run_grid(self.cavmag, prepared)
        except Exception as exc:  # noqa: BLE001 - a program error is a failed op
            return exc

    def check(self, k: int, record_index: int, prepared, out) -> tuple[int, int]:
        """(ops, failed) of one call; queues sampled ops for the reference."""
        if self.workload.startswith("sweep"):
            return self._check_grid(record_index, prepared, out)
        if self.workload == "threshold_scan":
            failed = isinstance(out, Exception) or (out is not None and not math.isfinite(out))
            if not failed and k % THRESHOLD_SAMPLE_EVERY == 0:
                self.samples.append((record_index, prepared, out))
            return 1, int(failed)
        values = W.parse_cli_csv(out)
        if values is not None and k % CLI_SAMPLE_EVERY == 0:
            params = W.system_params(self.cavmag, self.item(k))
            self.samples.append((record_index, params, [(values, FORMAT_RTOL)]))
        return 1, int(values is None)

    def _check_grid(self, record_index: int, spec, out) -> tuple[int, int]:
        n1, n2 = len(spec.axis1.values), len(spec.axis2.values)
        cells = n1 * n2
        if isinstance(out, Exception):
            return cells, cells
        grid, csv_text, svg_text = out
        self.emit_bytes += len(csv_text) + len(svg_text)
        values = np.stack([grid.value_array(c).ravel() for c in spec.outputs], axis=1)
        bad = ~np.all(np.isfinite(values), axis=1)
        rows = [line for line in csv_text.splitlines() if not line.startswith("#")][1:]
        if len(rows) != cells or not svg_text.startswith("<svg") or not svg_text.rstrip().endswith("</svg>"):
            return cells, cells
        for idx in self.sample_rng.choice(cells, size=SWEEP_SAMPLED_CELLS, replace=False):
            if bad[idx]:
                continue
            params = W.cell_params(self.workload, spec.base, *divmod(int(idx), n2))
            in_memory = dict(zip(spec.outputs, map(float, values[idx])))
            emitted = dict(zip(spec.outputs, map(float, rows[idx].split(",")[2 : 2 + len(spec.outputs)])))
            self.samples.append((record_index, params, [(in_memory, 0.0), (emitted, FORMAT_RTOL)]))
        return cells, int(bad.sum())

    def reference_failures(self) -> list[int]:
        """Record indices of sampled ops the reference disagrees with."""
        bad = []
        for record_index, params, out in self.samples:
            if self.workload != "threshold_scan":
                ref = reference.outputs(params, out[0][0])
                ok = not any(reference.disagreements(values, ref, rtol) for values, rtol in out)
            elif out is None:  # still entangled at t_max
                ok = reference.e_mm(params, W.THRESHOLD_T_MAX) > 0.0
            else:
                ok = reference.threshold_brackets(params, out, W.THRESHOLD_TOL)
            if not ok:
                bad.append(record_index)
        return sorted(set(bad))

    def warm_up(self) -> None:
        """Run the last few inputs untimed, so lazy set-up is done before op 0."""
        n = len(self.inputs)
        for k in range(n - WARM_UP_OPS.get(self.workload, 1), n):
            self.call(self.prepare(k))


def calibration_burst() -> float:
    """Seconds the benchmark's own fixed calibration work takes now."""
    def unit():
        reference.covariance(CALIBRATION_PARAMS)
        np.linalg.eigvals(reference.drift(CALIBRATION_PARAMS))

    for _ in range(CALIBRATION_WARM_UNITS):
        unit()
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_UNITS):
        unit()
    return time.perf_counter() - t0


def timed_loop(job: Job, first: int, seconds: float, records: list[Record], tracer=None,
               bursts: list[tuple[float, float]] | None = None) -> int:
    """Closed loop: send op k, wait for it, check it, send op k + 1.

    With ``bursts``, a calibration burst runs every CALIBRATION_EVERY_S
    between ops and its (start, seconds) is appended there.
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    next_burst = clock()
    k = first
    while clock() < deadline:
        if bursts is not None and clock() >= next_burst:
            start = clock()
            bursts.append((start, calibration_burst()))
            next_burst = start + CALIBRATION_EVERY_S
        prepared = job.prepare(k)
        if tracer is not None:
            tracer.op_id = k
        t0 = clock()
        out = job.call(prepared)
        t1 = clock()
        ops, failed = job.check(k, len(records), prepared, out)
        records.append(Record(t0, t1, ops, failed, tracer is not None))
        k += 1
    return k


def rate(records: list[Record], scale: float = 1.0) -> float:
    """Completed ops per second of (scaled) time spent in the program's calls."""
    done = sum(r.ops - r.failed for r in records)
    return done / (scale * sum(r.end - r.start for r in records))


def scaled_rate(parts: list[list[Record]], scales: list[float]) -> float:
    """Completed ops per second of scaled time, over all parts together."""
    done = sum(r.ops - r.failed for part in parts for r in part)
    return done / sum(scale * sum(r.end - r.start for r in part) for part, scale in zip(parts, scales))


def chunks(records: list[Record]) -> list[list[Record]]:
    """The run's records in SCALE_WINDOWS consecutive parts of near-equal size."""
    n = len(records)
    cuts = sorted({i * n // SCALE_WINDOWS for i in range(SCALE_WINDOWS)} | {n})
    return [records[a:b] for a, b in zip(cuts, cuts[1:])]


def chunk_scale(part: list[Record], bursts: list[tuple[float, float]]) -> float:
    """CALIBRATION_REF_S over the median burst time within the part's span."""
    inside = [d for t, d in bursts if part[0].start <= t <= part[-1].end]
    return CALIBRATION_REF_S / statistics.median(inside or [d for _, d in bursts])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; infinite entries (failed ops) sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies_ms(records: list[Record], scale: float = 1.0) -> list[float]:
    """Per-op latency; a sweep grid call's time is spread over its cells."""
    return [math.inf if r.failed else 1e3 * scale * (r.end - r.start) / r.ops for r in records]


def run_probe(cavmag) -> tuple[dict[str, int], int]:
    """Failures per kind on the known-defect probe, and completed probe
    points whose values the reference disagrees with."""
    failed = dict.fromkeys(W.PROBE_KINDS, 0)
    disagreeing = 0
    for kind, point in W.defect_probe():
        values = W.parse_cli_csv(W.run_cli(cavmag, W.cli_argv(point)))
        if values is None:
            failed[kind] += 1
            continue
        ref = reference.outputs(W.system_params(cavmag, point), values)
        disagreeing += bool(reference.disagreements(values, ref, FORMAT_RTOL))
    return failed, disagreeing


def measure_setup(workload: str, seed: int, pairs: int) -> list[tuple[float, float]]:
    """(set-up, yardstick) seconds from spawning a fresh process to its
    being ready, for ``pairs`` pairs run back to back."""
    setup_cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    yardstick_cmd = [sys.executable, "-c", f"{YARDSTICK_CODE}; print('ready')"]
    times = []
    for _ in range(pairs):
        times.append(tuple(time_to_ready(cmd) for cmd in (setup_cmd, yardstick_cmd)))
    return times


def time_to_ready(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code}, said {line!r})")
    return elapsed


def check_anchors(cavmag) -> None:
    """Abort the run unless the README's headline numbers hold."""
    e_mm = cavmag.entanglement_report(dataclasses.replace(cavmag.BASELINE, r=0.4, temperature=0.1)).E_mm
    t_c = cavmag.find_temperature_threshold(dataclasses.replace(cavmag.BASELINE, r=0.4))
    target, slack = ANCHOR_E_MM
    lo, hi = ANCHOR_THRESHOLD
    if e_mm is None or not abs(e_mm - target) <= slack or t_c is None or not lo <= t_c <= hi:
        raise SystemExit(f"anchor check failed: E_mm(r=0.4, T=0.1 K) = {e_mm}, threshold(r=0.4) = {t_c}")


def drift_reuse_frac(job: Job, calls: int) -> float:
    """Share of an op's solves whose drift repeats an earlier one in that op.

    The solves are those of the seed algorithm: one per grid cell, one
    per point query, and per threshold the bisection's probes at 0,
    t_max and the midpoints. Drifts come from the reference drift function.
    """
    solves = repeats = 0
    for k in range(min(calls, REUSE_SAMPLE_OPS)):
        prepared = job.prepare(k)
        if job.workload.startswith("sweep"):
            n1, n2 = len(prepared.axis1.values), len(prepared.axis2.values)
            params = [W.cell_params(job.workload, prepared.base, i, j) for i in range(n1) for j in range(n2)]
        elif job.workload == "threshold_scan":
            params = [dataclasses.replace(prepared, temperature=t) for t in bisection_probes(prepared)]
        else:
            params = [W.system_params(job.cavmag, job.item(k))]
        drifts = {reference.drift(p).tobytes() for p in params}
        solves += len(params)
        repeats += len(params) - len(drifts)
    return repeats / solves if solves else 0.0


def bisection_probes(params) -> list[float]:
    def entangled(t):
        return reference.e_mm(params, t) > 0.0

    probes = [0.0, W.THRESHOLD_T_MAX]
    if not (entangled(0.0) and not entangled(W.THRESHOLD_T_MAX)):
        return probes
    lo, hi = 0.0, W.THRESHOLD_T_MAX
    for _ in range(math.ceil(math.log2(W.THRESHOLD_T_MAX / W.THRESHOLD_TOL))):
        mid = 0.5 * (lo + hi)
        probes.append(mid)
        lo, hi = (mid, hi) if entangled(mid) else (lo, mid)
    return probes


def layer_metrics(tracer: Tracer, job: Job, records: list[Record], block_rates: dict) -> dict:
    traced = [r for r in records if r.traced]
    ops = sum(r.ops for r in traced)
    busy = sum(r.end - r.start for r in traced)
    totals = tracer.totals()
    metrics = {}
    for name in QUALIFIED:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = (1e6 * self_s / ops, "us")
        metrics[f"{name}.self_share"] = (self_s / busy, "frac")
    all_ops = sum(r.ops for r in records)
    overhead = statistics.median(block_rates[False]) / statistics.median(block_rates[True]) - 1.0
    metrics["sweep.emit.bytes_per_op"] = (job.emit_bytes / all_ops, "bytes")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["trace.absent_functions"] = (len(tracer.absent), "count")
    metrics["trace.traced_ops"] = (ops, "count")
    metrics["input.drift_reuse_frac"] = (drift_reuse_frac(job, len(records)), "frac")
    metrics["input.exceptional_cells_per_grid"] = (W.exceptional_cells(job.workload), "count")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cavmag = import_cavmag()
    except ImportError as exc:
        print(f"perfbench: cannot import cavmag from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    job = Job(cavmag, args.workload, args.seed)
    job.warm_up()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    records: list[Record] = []
    tracer = Tracer() if args.trace else None
    bursts: list[tuple[float, float]] = []
    if tracer is None:
        # Set-up processes on both sides of the timed loop, so that one
        # slow spell of the machine does not decide the median.
        setups = measure_setup(args.workload, args.seed, SETUP_PAIRS[0])
        timed_loop(job, 0, args.seconds, records, bursts=bursts)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Alternate untraced and traced blocks so that both see the same
        # machine; their scaled rate ratio is the tracing overhead.
        k, block = 0, args.seconds / (2 * TRACE_BLOCK_PAIRS)
        block_rates: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(TRACE_BLOCK_PAIRS):
            for traced in (False, True):
                first_record = len(records)
                if traced:
                    tracer.install()
                try:
                    k = timed_loop(job, k, block, records, tracer if traced else None, bursts)
                finally:
                    tracer.uninstall()
                part = records[first_record:]
                block_rates[traced].append(rate(part, chunk_scale(part, bursts)))

    disagreeing = job.reference_failures()
    for index in disagreeing:
        records[index].failed = max(records[index].failed, 1)
    check_anchors(cavmag)
    probe_failed, probe_disagreeing = run_probe(cavmag)

    attempted = sum(r.ops for r in records)
    failed = sum(r.failed for r in records)
    unit = "cells" if args.workload.startswith("sweep") else "ops"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  attempted {attempted} {unit} in {len(records)} calls; failed {failed}; "
          f"failed_frac {failed / attempted:.6g}; {len(disagreeing)} of {len(job.samples)} "
          "sampled values disagree with the reference")
    print("  known-defect probe (untimed, not ops of this run): failed "
          + ", ".join(f"{failed_n} {kind}" for kind, failed_n in probe_failed.items())
          + f"; {probe_disagreeing} completed probe points disagree with the reference")

    if tracer is None:
        setups += measure_setup(args.workload, args.seed, SETUP_PAIRS[1])
        parts = chunks(records)
        scales = [chunk_scale(part, bursts) for part in parts]
        lat = [ms for part, scale in zip(parts, scales) for ms in latencies_ms(part, scale)]
        metrics = {
            "setup_s": (YARDSTICK_REF_S * statistics.median(s / y for s, y in setups), "s"),
            "ops_per_s": (scaled_rate(parts, scales), "1/s"),
            "latency_p50_ms": (percentile(lat, 0.50), "ms"),
            "latency_p90_ms": (percentile(lat, 0.90), "ms"),
            "completed_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        wall = latencies_ms(records)
        print(f"  setup_s over {len(setups)} fresh processes (set-up/yardstick s): "
              + " ".join(f"{s:.4f}/{y:.4f}" for s, y in setups))
        print(f"  calibration bursts {len(bursts)}, median {1e3 * statistics.median(d for _, d in bursts):.3f} ms "
              f"(reference {1e3 * CALIBRATION_REF_S:g} ms); time scale over {len(scales)} windows: "
              f"{min(scales):.3f} to {max(scales):.3f}, median {statistics.median(scales):.3f}")
        print(f"  unscaled: ops_per_s {rate(records):.6g} 1/s, "
              f"latency_p50_ms {percentile(wall, 0.50):.6g} ms, latency_p90_ms {percentile(wall, 0.90):.6g} ms")
        print(f"  latency percentiles over {len(lat)} samples"
              + (" (grid calls, per cell)" if unit == "cells" else ""))
    else:
        metrics = layer_metrics(tracer, job, records, block_rates)
        for kind, failed_n in probe_failed.items():
            metrics[f"probe.{kind}_failed"] = (failed_n, "count")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.csv.gz")
        for name in tracer.absent:
            print(f"  absent: {name}")
    for name, (value, unit_name) in metrics.items():
        print(f"  {name:<52} {value:.6g} {unit_name}")

    result = {
        "correct": not disagreeing and failed == 0 and probe_disagreeing == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
