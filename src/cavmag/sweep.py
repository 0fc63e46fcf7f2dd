"""Parameter sweeps, figure presets, threshold search and file emitters.

A sweep walks a one- or two-axis lattice of parameter values, evaluates
the steady-state entanglement summary at every grid point and collects
the results in a :class:`SweepGrid` that downstream emitters render as
CSV or as a self-contained SVG heatmap. Axis values use the natural
units of the problem (rates in units of the first cavity linewidth,
temperatures in kelvin); see :data:`PARAMETER_PATHS`.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .cvgaussian import _closed_form, clamp_negativity
from .errors import CavmagError, NoEntanglementError, _instance, _sequence
from .model import _PAIRS, BASELINE, OUTPUT_COLUMNS, EntanglementReport, SystemParams, _Fields
from .model import _columns, _real, entanglement_report, thermal_pair_moments

DEFAULT_RESOLUTION_2D = 61
DEFAULT_RESOLUTION_1D = 121


# ---------------------------------------------------------------------------
# parameter paths


def _hz(value: float) -> tuple[float, float]:
    """Both members of a pair at the angular frequency of ``value`` Hz."""
    return (2.0 * math.pi * value,) * 2


# Knobs addressable from sweep axes, config files and the command line.
# Detunings, couplings and linewidths are expressed in units of the first
# cavity linewidth (the natural figure coordinates); temperature is in
# kelvin, theta in radians, r dimensionless. The two _hz paths move the
# absolute scale: kappa_a_hz sets both cavity linewidths from a Hz value,
# omega_a_hz re-pins all mode and drive frequencies to resonance at the
# given frequency. Paths apply in sequence, each resolving ratios against
# the parameters produced by the previous one.
PARAMETER_PATHS = {
    "r": lambda p, x: p.replace(r=x),
    "theta": lambda p, x: p.replace(theta=x),
    "temperature": lambda p, x: p.replace(temperature=x),
    "delta_a1": lambda p, x: p.replace(omega_a=(p.omega_drive[0] + x * p.kappa_a[0], p.omega_a[1])),
    "delta_a2": lambda p, x: p.replace(omega_a=(p.omega_a[0], p.omega_drive[1] + x * p.kappa_a[0])),
    "delta_m1": lambda p, x: p.replace(omega_m=(p.omega_drive[0] + x * p.kappa_a[0], p.omega_m[1])),
    "delta_m2": lambda p, x: p.replace(omega_m=(p.omega_m[0], p.omega_drive[1] + x * p.kappa_a[0])),
    "g1": lambda p, x: p.replace(g=(x * p.kappa_a[0], p.g[1])),
    "g2": lambda p, x: p.replace(g=(p.g[0], x * p.kappa_a[0])),
    "g": lambda p, x: p.replace(g=(x * p.kappa_a[0],) * 2),
    "g2_over_g1": lambda p, x: p.replace(g=(p.g[0], x * p.g[0])),
    "kappa_m1": lambda p, x: p.replace(kappa_m=(x * p.kappa_a[0], p.kappa_m[1])),
    "kappa_m2": lambda p, x: p.replace(kappa_m=(p.kappa_m[0], x * p.kappa_a[0])),
    "kappa_m": lambda p, x: p.replace(kappa_m=(x * p.kappa_a[0],) * 2),
    "kappa_a2": lambda p, x: p.replace(kappa_a=(p.kappa_a[0], x * p.kappa_a[0])),
    "kappa_a_hz": lambda p, x: p.replace(kappa_a=_hz(x)),
    "omega_a_hz": lambda p, x: p.replace(omega_a=_hz(x), omega_m=_hz(x), omega_drive=_hz(x)),
}


def _known_path(path: str) -> str:
    """``path`` itself when it names a knob of :data:`PARAMETER_PATHS`."""
    if _instance("path", path, str) not in PARAMETER_PATHS:
        known = ", ".join(sorted(PARAMETER_PATHS))
        raise ValueError(f"unknown parameter path {path!r}; known paths: {known}")
    return path


def apply_parameter(params: SystemParams, path: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one named knob set to ``value``."""
    setter = PARAMETER_PATHS[_known_path(path)]
    if not math.isfinite(value := _real(path, value)):
        raise ValueError(f"value for {path!r} must be finite")
    return setter(params, value)


def parse_assignment(text: str) -> tuple[str, float]:
    """Split a ``--param`` item or config line ``KEY = VALUE`` into key and number."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"expected PATH=VALUE, got {text!r}")
    key = key.strip()
    try:
        return key, float(value)
    except ValueError:
        raise ValueError(f"{key}: not a number: {value.strip()!r}") from None


def parse_config(text: str) -> list[tuple[str, float]]:
    """Parse a ``params.key = value`` config file into (path, value) pairs in file order.

    Blank lines and ``#`` comment lines are ignored. Only the ``params``
    section is recognized and every key must be a known parameter path.
    """
    overrides: list[tuple[str, float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = parse_assignment(line)
            section, dot, path = key.partition(".")
            if section != "params" or not dot:
                raise ValueError(f"unknown section in {key!r}; keys are 'section.key' in 'params'")
            overrides.append((_known_path(path), value))
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}") from None
    return overrides


# ---------------------------------------------------------------------------
# sweep definition and grid


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: a parameter path and its strictly monotone values."""

    path: str
    values: tuple[float, ...]

    def __post_init__(self):
        _known_path(self.path)
        values = tuple(_real("axis value", v) for v in _sequence("axis values", self.values, "numbers"))
        if len(values) == 0:
            raise ValueError("axis must hold at least one value")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("axis values must be finite")
        diffs = np.diff(values)
        if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("axis values must be strictly monotone")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to run one sweep.

    ``base`` supplies the fixed parameters, ``axis1`` (and optionally
    ``axis2``) the lattice, ``outputs`` the summary columns to emit.
    ``name`` tags figure presets for provenance.
    """

    base: SystemParams
    axis1: SweepAxis
    axis2: SweepAxis | None
    outputs: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        _instance("base", self.base, SystemParams)
        for axis in (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2):
            _instance("axis", axis, SweepAxis)
        outputs = _sequence("outputs", self.outputs, "column names")
        if len(outputs) == 0:
            raise ValueError("at least one output column is required")
        if len(set(outputs)) != len(outputs):
            raise ValueError("output columns must be unique")
        unknown = [c for c in outputs if c not in OUTPUT_COLUMNS]
        if unknown:
            raise ValueError(f"unknown output columns {unknown}; valid columns: {', '.join(OUTPUT_COLUMNS)}")
        if self.axis2 is not None and self.axis2.path == self.axis1.path:
            raise ValueError("axis2 must sweep a different parameter path than axis1")
        if not (isinstance(self.name, str) and self.name.isprintable()):
            raise ValueError(f"name must be printable text, without control characters, not {self.name!r}")
        object.__setattr__(self, "outputs", outputs)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis.values) for axis in (self.axis1, self.axis2) if axis is not None)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Dense sweep results: ``columns`` maps each of :data:`OUTPUT_COLUMNS` to its
    values in row-major axis order (axis1 outer), held as a read-only copy shaped like the grid."""

    spec: SweepSpec
    columns: dict[str, np.ndarray]
    provenance: tuple[str, ...]

    def __post_init__(self):
        lines = _sequence("provenance", self.provenance, "text lines")
        bad = [line for line in lines if not (isinstance(line, str) and line.isprintable())]
        if bad:
            raise ValueError(f"provenance lines must be printable text, not {bad[0]!r}")
        if set(_instance("columns", self.columns, Mapping)) != set(OUTPUT_COLUMNS):
            raise ValueError(f"expected one array per column of {', '.join(OUTPUT_COLUMNS)}")
        shape = _instance("spec", self.spec, SweepSpec).shape
        columns = {name: np.array(self.columns[name], dtype=float).reshape(shape) for name in OUTPUT_COLUMNS}
        for data in columns.values():
            data.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "provenance", lines)

    def value_array(self, column: str) -> np.ndarray:
        """Values of one summary column, shaped like the grid (read-only)."""
        if column not in OUTPUT_COLUMNS:
            raise ValueError(f"unknown column {column!r}")
        return self.columns[column]


def summarize_point(params: SystemParams) -> EntanglementReport:
    """Entanglement summary of a single parameter point."""
    return entanglement_report(params)


def _fmt(value: float) -> str:
    return f"{value:.9g}" if value == value else "NaN"


def _provenance_lines(spec: SweepSpec) -> tuple[str, ...]:
    lines = [f"cavmag {__version__}"]
    if spec.name:
        lines.append(f"preset: {spec.name}")
    axes = [("axis1", spec.axis1)] + ([("axis2", spec.axis2)] if spec.axis2 else [])
    for tag, axis in axes:
        lines.append(
            f"{tag}: {axis.path} = {_fmt(axis.values[0])} .. {_fmt(axis.values[-1])}"
            f" ({len(axis.values)} points)"
        )
    lines.append("outputs: " + ",".join(spec.outputs))
    p = spec.base
    for name in ("omega_a", "omega_m", "omega_drive", "kappa_a", "kappa_m", "g"):
        first, second = getattr(p, name)
        lines.append(f"base.{name} = ({_fmt(first)}, {_fmt(second)}) rad/s")
    lines += [f"base.r = {_fmt(p.r)}", f"base.theta = {_fmt(p.theta)}", f"base.temperature = {_fmt(p.temperature)} K"]
    return tuple(lines)


def _grid_fields(spec: SweepSpec) -> _Fields:
    """The fields of every cell of the lattice, shaped like it: axis 1's row of :data:`PARAMETER_PATHS` on the
    base with the axis values as a column, then axis 2's row with its values as a row, so each cell holds the
    base with both rows applied in turn. Each row's ``replace`` checks its record as SystemParams checks a
    point; the first bad cell in row-major order raises that point's error."""
    fields = _Fields.point(_instance("spec", spec, SweepSpec).base)
    with np.errstate(over="ignore"):  # a product beyond the float range is inf, which the check refuses
        fields = PARAMETER_PATHS[spec.axis1.path](fields, np.array(spec.axis1.values)[:, None])
        if spec.axis2 is not None:
            fields = PARAMETER_PATHS[spec.axis2.path](fields, np.array(spec.axis2.values))
    return fields


def run_sweep(spec: SweepSpec) -> SweepGrid:
    """Evaluate the sweep lattice and return the assembled grid."""
    return SweepGrid(spec=spec, columns=_columns(_grid_fields(spec)), provenance=_provenance_lines(spec))


# ---------------------------------------------------------------------------
# figure presets


@dataclass(frozen=True)
class Preset:
    """One figure panel as a sweep over the pinned operating point.

    Each axis is ``(path, lo, hi)``, spanned by ``resolution`` evenly
    spaced points, or ``(path, values)`` for fixed values. ``pins`` set
    the operating point on top of the resonant base with theta = 0 and
    kappa_m = 0.2; ``lines`` marks panels drawn as line plots.
    """

    description: str
    axis1: tuple
    axis2: tuple | None
    outputs: tuple[str, ...]
    pins: tuple[tuple[str, float], ...]
    lines: bool = False


_COLD = (("r", 1.0), ("temperature", 0.0))
_WARM = (("r", 1.0), ("temperature", 0.1))
_SQUEEZING = ("r", 0.0, 2.0)
_LINEWIDTH = ("kappa_m", 0.01, 1.0)
_COUPLING = ("g", 0.0, 10.0)

PRESETS = {
    "fig2a": Preset("magnon entanglement vs first-subsystem cavity and magnon detunings",
                    ("delta_a1", -1.0, 1.0), ("delta_m1", -1.0, 1.0), ("E_mm",), _WARM + (("g", 5.0),)),
    "fig2b": Preset("magnon entanglement vs second-subsystem cavity and magnon detunings",
                    ("delta_a2", -1.0, 1.0), ("delta_m2", -1.0, 1.0), ("E_mm",), _WARM + (("g", 5.0),)),
    "fig2c": Preset("magnon entanglement vs drive squeezing and bath temperature",
                    _SQUEEZING, ("temperature", 0.0, 1.0), ("E_mm",), _COLD + (("g", 5.0),)),
    "fig3a": Preset("magnon entanglement vs squeezing and coupling asymmetry g2/g1",
                    _SQUEEZING, ("g2_over_g1", 0.0, 2.0), ("E_mm",), _WARM + (("g", 5.0),)),
    "fig3b": Preset("transfer ratio E_mm/E_aa vs squeezing for three matched couplings",
                    _SQUEEZING, ("g", (0.5, 1.0, 2.0)), ("E_mm_over_E_aa", "E_aa", "E_mm"), _WARM, lines=True),
    "fig4": Preset("cavity-pair entanglement vs squeezing at zero coupling",
                   _SQUEEZING, None, ("E_aa",), _COLD + (("g", 0.0),), lines=True),
    "fig5a": Preset("cavity-pair entanglement vs linewidth ratio and coupling",
                    _LINEWIDTH, _COUPLING, ("E_aa",), _COLD),
    "fig5b": Preset("magnon-pair entanglement vs linewidth ratio and coupling",
                    _LINEWIDTH, _COUPLING, ("E_mm",), _COLD),
    "fig6": Preset("cavity-magnon negativity indicator vs linewidth ratio and coupling",
                   _LINEWIDTH, _COUPLING, ("N_am", "E_a1m1", "E_a2m2"), _COLD),
}

PRESET_NAMES = tuple(sorted(PRESETS))


def _preset_axis(axis: tuple | None, n: int) -> SweepAxis | None:
    if axis is None:
        return None
    path, *span = axis
    return SweepAxis(path, span[0] if len(span) == 1 else tuple(np.linspace(*span, n)))


def figure_preset(name: str, resolution: int | None = None, base: SystemParams | None = None) -> SweepSpec:
    """Named sweep covering one of the standard figure panels.

    ``resolution`` overrides the default number of points per continuous
    axis (61 for two-dimensional grids, 121 for lines; the three-coupling
    comparison keeps its fixed coupling values). ``base`` replaces the
    built-in operating point; preset-pinned values are applied on top of
    it, so only the absolute frequency and linewidth scale carry over.
    """
    if _instance("preset name", name, str) not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    integral = isinstance(resolution, numbers.Integral) and not isinstance(resolution, bool)
    if resolution is not None and (not integral or resolution < 1):
        raise ValueError("resolution must be a positive integer")
    preset = PRESETS[name]
    n = resolution or (DEFAULT_RESOLUTION_1D if preset.lines else DEFAULT_RESOLUTION_2D)
    base = BASELINE if base is None else _instance("base", base, SystemParams)
    params = base.replace(omega_a=base.omega_drive, omega_m=base.omega_drive, theta=0.0)
    for path, value in (("kappa_m", 0.2),) + preset.pins:
        params = apply_parameter(params, path, value)
    return SweepSpec(params, _preset_axis(preset.axis1, n), _preset_axis(preset.axis2, n), preset.outputs, name)


# ---------------------------------------------------------------------------
# temperature threshold


_TREE_DEPTH = 3  # bisection levels per closed-form call: up to 7 midpoints a round


def _bisection_tree(lo: float, hi: float, depth: int) -> list[float]:
    """The midpoints that the next ``depth`` halvings of (lo, hi) can visit, by the search's
    own arithmetic; a branch ends where its midpoint equals an end."""
    mid = 0.5 * (lo + hi)
    if depth == 0 or mid in (lo, hi):
        return []
    return [mid, *_bisection_tree(lo, mid, depth - 1), *_bisection_tree(mid, hi, depth - 1)]


def find_temperature_threshold(params: SystemParams, t_max: float = 2.0, tol: float = 1e-3) -> float | None:
    """Temperature at which the magnon-pair entanglement vanishes.

    Bisects E_mm(T) = 0 over [0, t_max] to an accuracy of ``tol`` kelvin
    (E_mm is non-increasing in temperature). Returns None when
    entanglement still survives at ``t_max``. Costs one Schur factorisation
    (:func:`thermal_pair_moments`) and one closed-form call on the magnon pair's
    moments per round: 3 levels of the bisection tree (the first round also 0 and
    ``t_max``), then walked step by step, bit for bit the one-step bisection. A round
    that raises is walked again one temperature per call, raising as that bisection.

    Raises
    ------
    NoEntanglementError
        If E_mm is already zero at T = 0, where no threshold exists.
    """
    params, t_max, tol = _instance("params", params, SystemParams), _real("t_max", t_max), _real("tol", tol)
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be positive and finite")
    if not (math.isfinite(tol) and 0 < tol < t_max):
        raise ValueError("tol must satisfy 0 < tol < t_max")

    moments = thermal_pair_moments(params, _PAIRS[1:2])

    def entangled(temperatures) -> list[bool]:
        return (clamp_negativity(_closed_form(moments(temperatures))[:, 0]) > 0.0).tolist()

    def round_of(temperatures):
        try:
            return dict(zip(temperatures, entangled(temperatures))).__getitem__
        except (CavmagError, ValueError):  # then only the walk's steps may raise: one call each
            return lambda temperature: entangled([temperature])[0]

    lo, hi = 0.0, t_max
    # log2(t_max / tol) overflows for a subnormal tol; the difference does not.
    steps = math.ceil(math.log2(t_max) - math.log2(tol))
    step = round_of([lo, hi, *_bisection_tree(lo, hi, min(steps, _TREE_DEPTH))])
    if not step(lo):
        raise NoEntanglementError("magnon pair is not entangled at zero temperature; nothing to bisect")
    if step(hi):
        return None
    for n in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: no step can move the bracket
            break
        if n and n % _TREE_DEPTH == 0:  # the last round's tree is walked
            step = round_of(_bisection_tree(lo, hi, min(steps - n, _TREE_DEPTH)))
        if step(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# CSV emitter


def emit_csv(grid: SweepGrid, destination) -> None:
    """Write the grid as deterministic CSV.

    Provenance lines prefixed ``#`` come first, then the column header
    ``axis1[,axis2],<outputs...>,stable`` and one row per cell in
    row-major order. Values carry 9 significant digits. ``stable`` is
    always ``true`` (every valid drift is stable) and kept for the file
    format. Bytes are identical across repeated runs of the same spec.
    """
    spec = _instance("grid", grid, SweepGrid).spec
    header = ["axis1"] + (["axis2"] if spec.axis2 else []) + list(spec.outputs) + ["stable"]
    # Each axis and output value is formatted once, as by _fmt (axis values are finite).
    axes = (axis.values for axis in (spec.axis1, spec.axis2) if axis)
    keys = itertools.product(*([f"{v:.9g}" for v in values] for values in axes))
    columns = (grid.value_array(column).ravel().tolist() for column in spec.outputs)
    values = zip(*([f"{v:.9g}" if v == v else "NaN" for v in data] for data in columns))
    rows = "".join(f"{','.join(key + value)},true\n" for key, value in zip(keys, values))
    comments = "".join(f"# {line}\n" for line in grid.provenance)
    _write_text(destination, f"{comments}{','.join(header)}\n{rows}")


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
    elif isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        raise ValueError(f"destination must be a path or have a write method, not {type(destination).__name__}")


# ---------------------------------------------------------------------------
# SVG emitters

# Fixed perceptual colormap: a dark-violet to yellow ramp sampled at 17
# anchors, linearly interpolated in RGB. Chosen over a plotting library
# so emitted bytes cannot drift with library versions.
COLOR_ANCHORS = (
    (68, 1, 84),
    (72, 26, 108),
    (71, 47, 125),
    (65, 68, 135),
    (59, 82, 139),
    (52, 96, 141),
    (47, 108, 142),
    (42, 120, 142),
    (38, 130, 142),
    (33, 145, 140),
    (31, 158, 137),
    (37, 172, 130),
    (53, 183, 121),
    (83, 197, 105),
    (115, 208, 86),
    (158, 217, 59),
    (253, 231, 37),
)

NAN_FILL = "#9e9e9e"
_ANCHOR_RGB = np.array(COLOR_ANCHORS + COLOR_ANCHORS[-1:], dtype=float)  # the last repeats: at 1, t = 0


def _color_codes(fractions) -> np.ndarray:
    """0xRRGGBB of the fixed colormap at each of ``fractions``, in one array pass: clamp to
    [0, 1], scale by 16, split into anchor and fraction t, interpolate and round half to even
    (``np.rint``, as Python's ``round``). NaN maps to NAN_FILL."""
    f = np.asarray(fractions, dtype=float)
    t, low = np.modf(np.fmin(np.fmax(f, 0.0), 1.0) * (len(COLOR_ANCHORS) - 1))  # fmax takes NaN to 0
    t, low = t[..., None], low.astype(int)
    rgb = np.rint((1.0 - t) * _ANCHOR_RGB[low] + t * _ANCHOR_RGB[low + 1]).astype(int)
    return np.where(np.isnan(f), int(NAN_FILL[1:], 16), rgb @ (1 << 16, 1 << 8, 1))


def color_for(fraction: float) -> str:
    """Hex color of the fixed colormap at ``fraction`` in [0, 1], clamped to the endpoints, NaN
    to the fill of unavailable cells: the one-value case of the heatmap's array map."""
    return f"#{int(_color_codes(fraction)):06x}"


def _rect(x, y, width, height, fill: str | None = None) -> str:
    """A filled rectangle, or a black frame when ``fill`` is None."""
    paint = f'fill="{fill}"' if fill else 'fill="none" stroke="#000000" stroke-width="1"'
    return f'<rect x="{x}" y="{y}" width="{width}" height="{height}" {paint}/>'


def _text(x, y, body: str, size: int = 11, anchor: str | None = None, attrs: str = "") -> str:
    anchored = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"{anchored}{attrs}>'
        f"{body.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;')}</text>"
    )


def _write_svg(destination, width: int, height: int, title: str, body: list[str]) -> None:
    """Write a white page of the given size with a centered title over ``body``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        _text(f"{width / 2:.1f}", 24, title, 15, "middle"),
        *body,
        "</svg>",
    ]
    _write_text(destination, "\n".join(parts) + "\n")


@functools.cache
def _colorbar(x: int, top: int, width: int, height: int, steps: int = 32) -> tuple[str, ...]:
    """The heatmap legend's color steps, bottom up, and its frame: the same on every page."""
    step = f"{height / steps + 0.05:.2f}"
    rects = (
        _rect(x, f"{top + height - (s + 1) * (height / steps):.2f}", width, step, color_for((s + 0.5) / steps))
        for s in range(steps)
    )
    return (*rects, _rect(x, top, width, height))


def emit_heatmap(grid: SweepGrid, column: str | None, destination) -> None:
    """Render a two-axis grid as a self-contained SVG heatmap.

    ``column`` selects the output to plot; ``None`` means the grid's
    first output. One colored rectangle per cell (axis1 horizontal,
    axis2 vertical and increasing upward), a colorbar legend with the
    value range, and axis labels taken from the parameter paths.
    NaN cells (an undefined E_mm/E_aa ratio) are gray. Output bytes are a pure function of
    the grid contents.

    Raises ValueError for one-dimensional grids; use
    :func:`emit_lineplot` for those.
    """
    spec = _instance("grid", grid, SweepGrid).spec
    if spec.axis2 is None:
        raise ValueError("heatmap requires a two-axis grid; use emit_lineplot for lines")
    column = spec.outputs[0] if column is None else column
    if column not in spec.outputs:
        raise ValueError(f"column {column!r} is not among the grid outputs {spec.outputs}")
    values = grid.value_array(column)
    n1, n2 = values.shape
    finite = values[np.isfinite(values)]
    vmin, vmax = (float(np.min(finite)), float(np.max(finite))) if finite.size else (0.0, 0.0)
    span = vmax - vmin

    left, top = 70, 40
    plot_w, plot_h = 480, 480
    right_pad, bottom_pad = 110, 60
    width, height = left + plot_w + right_pad, top + plot_h + bottom_pad
    cw, ch = plot_w / n1, plot_h / n2
    with np.errstate(all="ignore"):  # as per-cell float arithmetic: inf clamps, inf / inf is NaN
        fractions = (values - vmin) / span if span else np.where(np.isnan(values), np.nan, 0.5)
    # Each column's x and each row's y is formatted once; a cell adds its fill.
    xs = [f'<rect x="{left + i * cw:.2f}" y="' for i in range(n1)]
    rest = f'" width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}" fill="#'
    ys = [f"{top + (n2 - 1 - j) * ch:.2f}{rest}" for j in range(n2)]
    codes = _color_codes(fractions).ravel().tolist()
    parts = [f'{x}{y}{code:06x}"/>' for (x, y), code in zip(itertools.product(xs, ys), codes)]
    parts.append(_rect(left, top, plot_w, plot_h))

    # First, middle and last values, each labelled at the centre of its own cell.
    for i in sorted({0, n1 // 2, n1 - 1}):
        x = left + i * cw + cw / 2
        parts.append(_text(f"{x:.1f}", top + plot_h + 18, f"{spec.axis1.values[i]:.6g}", anchor="middle"))
    for j in sorted({0, n2 // 2, n2 - 1}):
        y = top + (n2 - 1 - j) * ch + ch / 2
        parts.append(_text(left - 6, f"{y + 4:.1f}", f"{spec.axis2.values[j]:.6g}", anchor="end"))
    parts.append(_text(f"{left + plot_w / 2:.1f}", height - 14, spec.axis1.path, 13, "middle"))
    mid = f"{top + plot_h / 2:.1f}"
    rotate = f' transform="rotate(-90 16 {mid})"'
    parts.append(_text(16, mid, spec.axis2.path, 13, "middle", rotate))

    bar_x = left + plot_w + 24
    bar_w, bar_h = 18, plot_h
    parts.extend(_colorbar(bar_x, top, bar_w, bar_h))
    parts.append(_text(bar_x + bar_w + 6, top + 10, f"{vmax:.6g}"))
    parts.append(_text(bar_x + bar_w + 6, top + bar_h, f"{vmin:.6g}"))
    _write_svg(destination, width, height, f"{spec.name or 'sweep'}: {column}", parts)


LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def emit_lineplot(grid: SweepGrid, destination, columns: tuple[str, ...] | None = None) -> None:
    """Render a one-axis grid as a self-contained SVG line plot.

    For two-axis grids with a small second axis (such as the fixed
    three-coupling comparison) one polyline is drawn per second-axis
    value, labeled in the legend. Non-finite samples break the polyline.
    """
    spec = _instance("grid", grid, SweepGrid).spec
    columns = (spec.outputs[0],) if columns is None else _sequence("columns", columns, "column names")
    for column in columns:
        if column not in spec.outputs:
            raise ValueError(f"column {column!r} is not among the grid outputs {spec.outputs}")

    values = {column: grid.value_array(column) for column in columns}
    if spec.axis2 is None:
        series = list(values.items())
    else:
        series = [(f"{column} @ {spec.axis2.path}={second:.6g}", data[:, j])
                  for column, data in values.items() for j, second in enumerate(spec.axis2.values)]
    title = f"{spec.name or 'sweep'}: {', '.join(columns)}"
    render_lines(spec.axis1.values, series, title, spec.axis1.path, destination)


def render_lines(xs, series, title: str, x_label: str, destination) -> None:
    """Draw (label, ys) ``series`` over the shared ``xs`` as an SVG line plot.

    The vertical range spans every finite sample, and each run of finite samples is one
    polyline (NaN, None and +-inf break a line). Each line gets its own color and legend entry.
    """
    xs = np.asarray(xs, dtype=float)
    series = [(label, np.asarray(ys, dtype=float)) for label, ys in series]
    finite = np.concatenate([s[np.isfinite(s)] for _, s in series]) if series else np.array([])
    vmin, vmax = (float(np.min(finite)), float(np.max(finite))) if finite.size else (0.0, 1.0)
    if vmax == vmin:
        vmax = vmin + 1.0

    left, top = 70, 40
    plot_w, plot_h = 520, 380
    width, height = left + plot_w + 40, top + plot_h + 60
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    x_span = x_hi - x_lo if x_hi != x_lo else 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / x_span * plot_w

    def sy(v: float) -> float:
        return top + plot_h - (v - vmin) / (vmax - vmin) * plot_h

    parts = [_rect(left, top, plot_w, plot_h)]
    for k, (label, ys) in enumerate(series):
        color = LINE_COLORS[k % len(LINE_COLORS)]
        samples = itertools.groupby(zip(xs.tolist(), ys.tolist()), lambda sample: math.isfinite(sample[1]))
        for run in (list(run) for finite, run in samples if finite):
            if len(run) >= 2:
                points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in run)
                parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(_text(left + 8, top + 16 + 14 * k, label, attrs=f' fill="{color}"'))
    for value, x in ((x_lo, left), (x_hi, left + plot_w)):
        parts.append(_text(x, top + plot_h + 18, f"{value:.6g}", anchor="middle"))
    for value, y in ((vmin, top + plot_h), (vmax, top + 10)):
        parts.append(_text(left - 6, f"{y:.1f}", f"{value:.6g}", anchor="end"))
    parts.append(_text(f"{left + plot_w / 2:.1f}", height - 14, x_label, 13, "middle"))
    _write_svg(destination, width, height, title, parts)
