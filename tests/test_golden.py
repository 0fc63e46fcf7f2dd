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

from cavmag.model import BASELINE
from cavmag.sweep import (
    SweepAxis,
    SweepGrid,
    SweepSpec,
    emit_csv,
    emit_heatmap,
    emit_lineplot,
)

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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN_DIR / name).write_bytes(make().encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / name}")
