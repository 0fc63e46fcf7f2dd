#!/usr/bin/env python3
"""Regenerate every figure preset: CSV data plus an SVG render for each.

Each preset's row in the preset table says whether it is drawn as a
line plot (fig4, and fig3b's line family) or as a heatmap. At the
default resolution the full run takes under a minute; pass
--resolution 21 for a quick look.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cavmag.sweep import (
    PRESET_NAMES,
    PRESETS,
    emit_csv,
    emit_heatmap,
    emit_lineplot,
    figure_preset,
    run_sweep,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory (default ./out)")
    parser.add_argument(
        "--resolution", type=int, default=None, help="points per continuous axis"
    )
    parser.add_argument(
        "--preset",
        action="append",
        choices=PRESET_NAMES,
        help="run only this preset (repeatable; default all)",
    )
    args = parser.parse_args()
    if args.resolution is not None and args.resolution < 1:
        parser.error("--resolution must be at least 1")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = tuple(args.preset) if args.preset else PRESET_NAMES

    for name in names:
        spec = figure_preset(name, resolution=args.resolution)
        shape = "x".join(str(s) for s in spec.shape)
        print(f"{name}: sweeping {shape} grid ...", flush=True)
        started = time.perf_counter()
        grid = run_sweep(spec)
        csv_path = out_dir / f"{name}.csv"
        emit_csv(grid, str(csv_path))
        svg_path = out_dir / f"{name}.svg"
        if PRESETS[name].lines:
            emit_lineplot(grid, str(svg_path))
        else:
            emit_heatmap(grid, None, str(svg_path))
        elapsed = time.perf_counter() - started
        print(f"{name}: wrote {csv_path} and {svg_path} in {elapsed:.1f} s")

    print(f"done; outputs in {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
