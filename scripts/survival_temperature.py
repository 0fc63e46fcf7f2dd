#!/usr/bin/env python3
"""Trace the temperature at which magnon-pair entanglement dies vs drive
squeezing, and write the curve as CSV plus an SVG line plot.

Zero squeezing never entangles the magnon pair, so the scan starts at
r > 0. Points whose threshold exceeds --tmax, or whose magnon pair is
not entangled even at zero temperature, are recorded as empty CSV fields
and break the plotted line.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from cavmag.errors import NoEntanglementError
from cavmag.model import BASELINE
from cavmag.sweep import find_temperature_threshold, render_lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory (default ./out)")
    parser.add_argument("--r-min", type=float, default=0.05)
    parser.add_argument("--r-max", type=float, default=2.0)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--tmax", type=float, default=3.0, help="search ceiling in kelvin")
    parser.add_argument("--tol", type=float, default=1e-3)
    args = parser.parse_args()
    if args.points < 1:
        parser.error("--points must be at least 1")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    started = time.perf_counter()
    for r in np.linspace(args.r_min, args.r_max, args.points):
        try:
            threshold = find_temperature_threshold(
                BASELINE.replace(r=float(r)), t_max=args.tmax, tol=args.tol
            )
        except NoEntanglementError:
            threshold, shown = None, "none (not entangled at 0 K)"
        else:
            shown = "none" if threshold is None else f"{threshold:.4f} K"
        rows.append((float(r), threshold))
        print(f"r = {r:.3f}: threshold {shown}", flush=True)

    csv_path = out_dir / "survival_temperature.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,threshold_K\n")
        for r, threshold in rows:
            value = "" if threshold is None else f"{threshold:.9g}"
            fh.write(f"{r:.9g},{value}\n")

    svg_path = out_dir / "survival_temperature.svg"
    r_values, thresholds = zip(*rows)
    series = [("threshold temperature (K)", thresholds)]
    render_lines(r_values, series, "entanglement survival temperature", "r", str(svg_path))
    elapsed = time.perf_counter() - started
    print(f"wrote {csv_path} and {svg_path} in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
