"""Command-line interface.

Subcommands: ``point`` evaluates one parameter point, ``sweep`` prints
figure presets as CSV or writes them as CSV and SVG, ``threshold``
bisects the entanglement survival temperature at one r or over an r
range, ``list-presets`` enumerates the available presets.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 no
trustworthy steady state (unstable, near-singular or precision-limited),
4 file I/O error. Each error prints one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from ._version import __version__
from .errors import CavmagError, NoEntanglementError
from .model import BASELINE, SystemParams, _floats, entanglement_report
from .sweep import (
    PRESET_NAMES,
    PRESETS,
    _fmt,
    _grid_fields,
    _write_text,
    apply_parameter,
    emit_csv,
    emit_heatmap,
    emit_lineplot,
    figure_preset,
    find_temperature_threshold,
    parse_assignment,
    parse_config,
    render_lines,
    run_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_STEADY_STATE = 3
EXIT_IO = 4

POINT_CSV_COLUMNS = ("E_aa", "E_mm", "E_a1m1", "E_a2m2")


def _add_param_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="config file with 'params.<path> = value' lines, applied before --param",
    )
    parser.add_argument(
        "--param",
        metavar="PATH=VALUE",
        action="append",
        default=[],
        help="override one parameter path (repeatable); see README for the path list",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavmag",
        description="Steady-state entanglement of squeezed-light-driven cavity-magnon pairs.",
    )
    parser.add_argument("--version", action="version", version=f"cavmag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    p_point.set_defaults(run=_run_point)
    _add_param_options(p_point)
    p_point.add_argument(
        "--csv",
        action="store_true",
        help="append one machine-readable CSV line: " + ",".join(POINT_CSV_COLUMNS),
    )

    # No abbreviations: "--out FILE" must not pass for "--out-dir FILE".
    p_sweep = sub.add_parser("sweep", help="run figure presets", allow_abbrev=False)
    p_sweep.set_defaults(run=_run_sweep)
    p_sweep.add_argument(
        "--preset",
        action="append",
        help="preset name (see list-presets); repeatable, default all",
    )
    p_sweep.add_argument("--out-dir", metavar="DIR", help="write NAME.csv/.svg there, not stdout")
    p_sweep.add_argument(
        "--resolution", type=int, metavar="N", help="points per continuous axis"
    )
    _add_param_options(p_sweep)

    p_thr = sub.add_parser(
        "threshold", help="bisect the temperature where magnon entanglement vanishes"
    )
    p_thr.set_defaults(run=_run_threshold)
    which = p_thr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=float, help="drive squeezing strength")
    which.add_argument(
        "--r-range",
        type=float,
        nargs=3,
        metavar=("LO", "HI", "N"),
        help="N evenly spaced r from LO to HI; prints r,threshold_K CSV",
    )
    p_thr.add_argument("--out-dir", metavar="DIR", help="with --r-range: write CSV and SVG there")
    p_thr.add_argument("--tmax", type=float, default=2.0, help="search ceiling in kelvin")
    p_thr.add_argument("--tol", type=float, default=1e-3, help="bisection accuracy in kelvin")
    _add_param_options(p_thr)

    p_list = sub.add_parser("list-presets", help="list available figure presets")
    p_list.set_defaults(run=_run_list_presets)
    return parser


def _effective_params(args, presets=(), replaced=()) -> SystemParams:
    """BASELINE with the --config entries, then the --param items, applied in order.

    Refused: an entry for a path in ``replaced``, which the command sets itself,
    and one that changes the parameters but no cell of a preset in ``presets``.
    """
    entries = []
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                entries = parse_config(fh.read())
        except OSError as exc:
            raise OSError(f"cannot read config file: {exc}") from exc
    params = BASELINE
    for path, value in entries + [parse_assignment(item) for item in args.param]:
        if path in replaced:
            raise ValueError(f"parameter {path!r} has no effect on {args.command}")
        changed = apply_parameter(params, path, value)
        for name in presets:
            # One point per continuous axis stands for the grid: a path the
            # preset pins or sweeps is overridden in every cell.
            cells = [np.broadcast_arrays(*_floats(_grid_fields(figure_preset(name, 1, p)))) for p in (params, changed)]
            if changed != params and np.array_equal(*cells):
                raise ValueError(f"parameter {path!r} has no effect on preset {name}")
        params = changed
    return params


def _write_figure(out_dir: str | None, name: str, write_csv, write_svg) -> None:
    """The CSV on stdout, or DIR/NAME.csv and DIR/NAME.svg with DIR created if needed:
    ``write_csv`` takes a stream or a path, ``write_svg`` a path."""
    if out_dir is None:
        write_csv(sys.stdout)
        return
    os.makedirs(out_dir, exist_ok=True)
    csv_path, svg_path = (os.path.join(out_dir, f"{name}.{suffix}") for suffix in ("csv", "svg"))
    write_csv(csv_path)
    write_svg(svg_path)
    print(f"{name}: wrote {csv_path} and {svg_path}", flush=True)


def _run_point(args) -> int:
    params = _effective_params(args)
    report = entanglement_report(params)
    unit = params.kappa_a[0]
    values = [_fmt(getattr(report, name)) for name in POINT_CSV_COLUMNS]
    rows = [
        ("r", _fmt(params.r)),
        ("theta", _fmt(params.theta)),
        ("temperature_K", _fmt(params.temperature)),
        ("kappa_a_hz", _fmt(params.kappa_a[0] / (2.0 * math.pi))),
        ("kappa_a2_over_kappa_a1", _fmt(params.kappa_a[1] / unit)),
        ("kappa_m_over_kappa_a", f"{_fmt(params.kappa_m[0] / unit)},{_fmt(params.kappa_m[1] / unit)}"),
        ("g_over_kappa_a", f"{_fmt(params.g[0] / unit)},{_fmt(params.g[1] / unit)}"),
        ("delta_a_over_kappa_a", f"{_fmt(params.delta_a[0] / unit)},{_fmt(params.delta_a[1] / unit)}"),
        ("delta_m_over_kappa_a", f"{_fmt(params.delta_m[0] / unit)},{_fmt(params.delta_m[1] / unit)}"),
        *zip(POINT_CSV_COLUMNS, values),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if args.csv:
        print(",".join(values))
    return EXIT_OK


def _run_sweep(args) -> int:
    names = args.preset or PRESET_NAMES
    base = _effective_params(args, names)
    try:
        specs = [figure_preset(name, resolution=args.resolution, base=base) for name in names]
    except MemoryError as exc:  # numpy cannot allocate that many axis points
        raise ValueError(f"--resolution {args.resolution} is too many points: {exc}") from exc
    for spec in specs:
        grid = run_sweep(spec)
        lines = PRESETS[spec.name].lines
        plot = functools.partial(emit_lineplot, grid) if lines else functools.partial(emit_heatmap, grid, None)
        _write_figure(args.out_dir, spec.name, functools.partial(emit_csv, grid), plot)
    return EXIT_OK


def _run_threshold(args) -> int:
    params = _effective_params(args, replaced=("r", "temperature"))
    search = functools.partial(find_temperature_threshold, t_max=args.tmax, tol=args.tol)
    if args.r is not None:
        if args.out_dir is not None:
            raise ValueError("--out-dir needs --r-range")
        result = search(params.replace(r=args.r))
        print("none" if result is None else _fmt(result))
        return EXIT_OK
    lo, hi, count = args.r_range
    if not (count >= 1 and count.is_integer()):
        raise ValueError(f"--r-range N must be a whole number of at least 1, got {_fmt(count)}")
    try:
        r_values = np.linspace(lo, hi, int(count)).tolist()
    except MemoryError as exc:  # numpy cannot allocate that many points
        raise ValueError(f"--r-range N = {_fmt(count)} is too many points: {exc}") from exc
    thresholds = []  # None above --tmax, or where the magnons are separable at 0 K
    for r in r_values:
        try:
            threshold = search(params.replace(r=r))
        except NoEntanglementError:
            threshold = None
        thresholds.append(threshold)
    text = "r,threshold_K\n" + "".join(
        f"{_fmt(r)},{'' if t is None else _fmt(t)}\n" for r, t in zip(r_values, thresholds)
    )
    series = [("threshold temperature (K)", thresholds)]
    plot = functools.partial(render_lines, r_values, series, "entanglement survival temperature", "r")
    _write_figure(args.out_dir, "survival_temperature", lambda dest: _write_text(dest, text), plot)
    return EXIT_OK


def _run_list_presets(args) -> int:
    width = max(len(name) for name in PRESET_NAMES)
    for name in PRESET_NAMES:
        print(f"{name:<{width}}  {PRESETS[name].description}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CavmagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return EXIT_IO
        if isinstance(exc, CavmagError) and not isinstance(exc, NoEntanglementError):
            return EXIT_NO_STEADY_STATE
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
