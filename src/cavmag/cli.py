"""Command-line interface.

Subcommands: ``point`` evaluates one parameter point, ``sweep`` runs a
figure preset and writes CSV (and optionally an SVG heatmap),
``threshold`` bisects the entanglement survival temperature,
``list-presets`` enumerates the available presets.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 no
trustworthy steady state (unstable, near-singular or precision-limited),
4 file I/O error. Each error prints one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from ._version import __version__
from .errors import CavmagError, NoEntanglementError
from .model import BASELINE, SystemParams, entanglement_report
from .sweep import (
    PRESET_NAMES,
    PRESETS,
    _fmt,
    apply_parameter,
    emit_csv,
    emit_heatmap,
    figure_preset,
    find_temperature_threshold,
    parse_config,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavmag",
        description="Steady-state entanglement of squeezed-light-driven cavity-magnon pairs.",
    )
    parser.add_argument("--version", action="version", version=f"cavmag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    _add_param_options(p_point)
    p_point.add_argument(
        "--csv",
        action="store_true",
        help="append one machine-readable CSV line: " + ",".join(POINT_CSV_COLUMNS),
    )

    p_sweep = sub.add_parser("sweep", help="run a figure preset over a parameter grid")
    p_sweep.add_argument("--preset", required=True, help="preset name (see list-presets)")
    p_sweep.add_argument("--out", metavar="FILE", help="CSV destination (default stdout)")
    p_sweep.add_argument("--heatmap", metavar="FILE", help="also write an SVG heatmap")
    p_sweep.add_argument(
        "--resolution", type=int, metavar="N", help="points per continuous axis"
    )
    _add_param_options(p_sweep)

    p_thr = sub.add_parser(
        "threshold", help="bisect the temperature where magnon entanglement vanishes"
    )
    p_thr.add_argument("--r", type=float, required=True, help="drive squeezing strength")
    p_thr.add_argument("--tmax", type=float, default=2.0, help="search ceiling in kelvin")
    p_thr.add_argument("--tol", type=float, default=1e-3, help="bisection accuracy in kelvin")
    _add_param_options(p_thr)

    sub.add_parser("list-presets", help="list available figure presets")
    return parser


def _effective_params(args) -> SystemParams:
    params = BASELINE
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _IoError(f"cannot read config file: {exc}") from exc
        for path, value in parse_config(text).items():
            params = apply_parameter(params, path, value)
    for item in getattr(args, "param", []):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param expects PATH=VALUE, got {item!r}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"--param {key}: not a number: {value!r}") from None
        params = apply_parameter(params, key.strip(), number)
    return params


class _IoError(Exception):
    pass


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
    base = _effective_params(args)
    spec = figure_preset(args.preset, resolution=args.resolution, base=base)
    if args.heatmap and spec.axis2 is None:
        raise ValueError("heatmap requires a two-axis grid; use emit_lineplot for lines")
    grid = run_sweep(spec)
    try:
        emit_csv(grid, args.out or sys.stdout)
        if args.heatmap:
            emit_heatmap(grid, None, args.heatmap)
    except OSError as exc:
        raise _IoError(str(exc)) from exc
    return EXIT_OK


def _run_threshold(args) -> int:
    params = _effective_params(args).replace(r=args.r)
    result = find_temperature_threshold(params, t_max=args.tmax, tol=args.tol)
    print("none" if result is None else _fmt(result))
    return EXIT_OK


def _run_list_presets() -> int:
    width = max(len(name) for name in PRESET_NAMES)
    for name in PRESET_NAMES:
        print(f"{name:<{width}}  {PRESETS[name].description}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "point":
            return _run_point(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "threshold":
            return _run_threshold(args)
        return _run_list_presets()
    except NoEntanglementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CavmagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STEADY_STATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
