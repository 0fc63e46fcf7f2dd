"""Golden-byte tests of the CSV and SVG emitters.

Every grid here is synthetic: fixed column values and no solver, so the emitted bytes depend on the emitters alone and not on
the platform's linear algebra. The expected files live in
``tests/golden/``. Regenerate them with ``python tests/test_golden.py``
only when an output change is intended, and record that change.
"""

from __future__ import annotations

import io
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.model import BASELINE, OUTPUT_COLUMNS
from cavmag.sweep import (
    SweepAxis,
    SweepGrid,
    SweepSpec,
    emit_csv,
    emit_heatmap,
    emit_lineplot,
)
from oracles import csv_by_cell, heatmap_by_cell

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
NAN = float("nan")


def grid(axis1, axis2, values, outputs=("E_mm",), name="golden", ratios=None) -> SweepGrid:
    """Grid over ``axis1`` (and ``axis2``) with E_mm = ``values``, a flat row-major sequence.

    E_aa is 2 E_mm, N_am is -E_mm, the cavity-magnon pairs are 0 and
    E_mm_over_E_aa is ``ratios``, or 0.5 everywhere when None.
    """
    spec = SweepSpec(
        base=BASELINE,
        axis1=SweepAxis(*axis1),
        axis2=SweepAxis(*axis2) if axis2 else None,
        outputs=outputs,
        name=name,
    )
    e_mm = np.array(values, dtype=float)
    columns = dict(
        E_aa=2.0 * e_mm,
        E_mm=e_mm,
        E_a1m1=np.zeros_like(e_mm),
        E_a2m2=np.zeros_like(e_mm),
        E_mm_over_E_aa=np.full_like(e_mm, 0.5) if ratios is None else ratios,
        N_am=-e_mm,
    )
    return SweepGrid(spec=spec, columns=columns, provenance=("synthetic grid", f"name: {name}"))


def nan_grid() -> SweepGrid:
    values = [0.1 * i + 0.03 * j for i in range(4) for j in range(3)]
    values[5] = NAN
    return grid(("r", (0.0, 0.5, 1.0, 1.5)), ("temperature", (0.0, 0.25, 0.5)), values)


def family_grid() -> SweepGrid:
    """fig3b-shaped: a line per second-axis value, ratio undefined in places."""
    rs = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
    values, ratios = [], []
    for i, r in enumerate(rs):
        for j, g in enumerate((0.5, 1.0, 2.0)):
            e_mm = r * (0.3 + 0.2 * j)
            values.append(e_mm)
            ratios.append(NAN if i == 0 or (j == 1 and i == 3) else e_mm / (2.0 * r))
    return grid(
        ("r", rs),
        ("g", (0.5, 1.0, 2.0)),
        values,
        outputs=("E_aa", "E_mm", "E_mm_over_E_aa"),
        name="family",
        ratios=ratios,
    )


def line_grid() -> SweepGrid:
    rs = tuple(0.2 * k for k in range(6))
    return grid(("r", rs), None, [math.tanh(r) for r in rs], outputs=("E_aa",), name="line")


def heatmap(g: SweepGrid, column=None) -> str:
    buf = io.StringIO()
    emit_heatmap(g, column, buf)
    return buf.getvalue()


def lineplot(g: SweepGrid, columns=None) -> str:
    buf = io.StringIO()
    emit_lineplot(g, buf, columns=columns)
    return buf.getvalue()


def csv(g: SweepGrid) -> str:
    buf = io.StringIO()
    emit_csv(g, buf)
    return buf.getvalue()


CASES = {
    "heatmap_nan.svg": lambda: heatmap(nan_grid()),
    "heatmap_constant.svg": lambda: heatmap(
        grid(("r", (0.0, 1.0, 2.0)), ("g", (1.0, 2.0, 3.0)), [0.25] * 9)
    ),
    "heatmap_1x1.svg": lambda: heatmap(grid(("r", (1.0,)), ("g", (5.0,)), [0.7])),
    "heatmap_1xN.svg": lambda: heatmap(
        grid(("r", (1.0,)), ("g", (0.0, 2.5, 5.0, 7.5)), [0.1, 0.4, 0.2, 0.3])
    ),
    "heatmap_Nx1.svg": lambda: heatmap(
        grid(("kappa_m", (0.01, 0.5, 1.0, 1.5)), ("g", (5.0,)), [0.3, 0.1, 0.4, 0.2])
    ),
    "heatmap_ratio_column.svg": lambda: heatmap(family_grid(), "E_mm_over_E_aa"),
    "lineplot_line.svg": lambda: lineplot(line_grid()),
    "lineplot_family.svg": lambda: lineplot(family_grid()),
    "lineplot_family_ratio.svg": lambda: lineplot(
        family_grid(), columns=("E_mm", "E_mm_over_E_aa")
    ),
    "lineplot_constant.svg": lambda: lineplot(
        grid(("r", (0.0, 1.0, 2.0)), None, [0.4, 0.4, 0.4])
    ),
    "lineplot_single_point.svg": lambda: lineplot(grid(("r", (1.0,)), None, [0.4])),
    "grid_nan.csv": lambda: csv(nan_grid()),
    "grid_family.csv": lambda: csv(family_grid()),
    "grid_line.csv": lambda: csv(line_grid()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitter_bytes_match_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    assert CASES[name]() == expected


SPECIAL = (NAN, math.inf, -math.inf)


@st.composite
def emitter_grids(draw) -> SweepGrid:
    """1- and 2-axis grids, 1 to 6 values per axis, whose cells mix NaN and +-inf with finite values:
    wide floats; multiples of 1/32 between a 0 and a 1 cell, whose fractions fall on the colormap's
    anchors (k / 16) and on its exact .5 ties ((2k + 1) / 32); or one constant."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    axes = [
        SweepAxis(path, sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True))))
        for path, n in zip(("r", "g"), sizes)
    ]
    cells = math.prod(sizes)
    kind = draw(st.sampled_from(("wide", "lattice", "constant")))
    finite = {
        "wide": st.floats(allow_nan=False, allow_infinity=False),
        "lattice": st.integers(0, 32).map(lambda k: k / 32),
        "constant": st.just(draw(st.floats(-1e3, 1e3))),
    }[kind]
    outputs = tuple(draw(st.lists(st.sampled_from(OUTPUT_COLUMNS), min_size=1, max_size=3, unique=True)))
    columns = {}
    for column in OUTPUT_COLUMNS:
        values = draw(st.lists(st.one_of(finite, st.sampled_from(SPECIAL)), min_size=cells, max_size=cells))
        if kind == "lattice" and cells > 1:
            values[0], values[-1] = 0.0, 1.0
        columns[column] = values
    spec = SweepSpec(BASELINE, axes[0], axes[1] if len(axes) == 2 else None, outputs, name="drawn")
    return SweepGrid(spec=spec, columns=columns, provenance=("drawn grid",))


@given(g=emitter_grids())
@example(g=SweepGrid(  # the span of the finite values overflows
    spec=SweepSpec(BASELINE, SweepAxis("r", (0.0, 1.0)), SweepAxis("g", (1.0, 2.0)), ("E_mm",)),
    columns=dict.fromkeys(OUTPUT_COLUMNS, [-1e308, 1e308, 0.0, math.inf]),
    provenance=(),
))
@example(g=grid(("r", (0.0, 1.0)), ("g", (1.0,)), [math.inf, -math.inf]))  # no finite cell
@example(g=grid(("r", (0.0,)), ("g", (1.0, 2.0)), [NAN, NAN]))
@settings(max_examples=300, deadline=None)
def test_emitters_equal_the_per_cell_oracles(g):
    assert csv(g) == csv_by_cell(g)
    if g.spec.axis2 is not None:
        for column in (None, *g.spec.outputs):
            assert heatmap(g, column) == heatmap_by_cell(g, column)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN_DIR / name).write_bytes(make().encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / name}")
