"""Golden bytes of every figure preset's CSV and SVG at resolution 7, and
of the 40-point survival curve's CSV and SVG.

Unlike ``test_golden.py`` these run the whole pipeline, drift and
diffusion build, Lyapunov solve and negativities (and for the survival
curve the threshold bisection), so any change that moves an output at
9 significant digits fails here. The expected files are
``tests/golden/preset_<name>.csv`` and ``.svg`` (as ``cavmag sweep
--out-dir DIR --resolution 7`` writes them) and ``survival_temperature.csv``
and ``.svg`` there. Regenerate them with ``python tests/test_preset_bytes.py``
only when an output change is intended, and record that change.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile

import pytest

from cavmag.cli import main
from cavmag.sweep import PRESET_NAMES, emit_csv, emit_heatmap, figure_preset, run_sweep
from oracles import heatmap_by_cell

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
RESOLUTION = 7
SURVIVAL_ARGV = ("threshold", "--r-range", "0.05", "2", "40", "--tmax", "3", "--out-dir")
SURVIVAL_FILES = ("survival_temperature.csv", "survival_temperature.svg")


def preset_csv(name: str) -> str:
    buf = io.StringIO()
    emit_csv(run_sweep(figure_preset(name, RESOLUTION)), buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_bytes_match_golden(name):
    expected = (GOLDEN_DIR / f"preset_{name}.csv").read_bytes().decode("utf-8")
    assert preset_csv(name) == expected


def write_preset_files(out_dir: pathlib.Path) -> None:
    """``cavmag sweep --out-dir out_dir --resolution 7``: every preset's CSV and SVG."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--out-dir", str(out_dir), "--resolution", str(RESOLUTION)]) == 0


@pytest.fixture(scope="module")
def preset_dir(tmp_path_factory) -> pathlib.Path:
    out_dir = tmp_path_factory.mktemp("presets")
    write_preset_files(out_dir)
    return out_dir


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_svg_bytes_match_golden(preset_dir, name):
    assert (preset_dir / f"{name}.svg").read_bytes() == (GOLDEN_DIR / f"preset_{name}.svg").read_bytes()


@pytest.mark.parametrize("column", ("N_am", "E_a1m1", "E_a2m2"))
def test_fig6_heatmaps_match_the_per_cell_oracle(column):
    grid = run_sweep(figure_preset("fig6"))
    buf = io.StringIO()
    emit_heatmap(grid, column, buf)
    assert buf.getvalue() == heatmap_by_cell(grid, column)


def write_survival_curve(out_dir: pathlib.Path) -> None:
    """``cavmag threshold --r-range 0.05 2 40 --tmax 3 --out-dir out_dir``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*SURVIVAL_ARGV, str(out_dir)]) == 0


def test_survival_curve_bytes_match_golden(tmp_path):
    write_survival_curve(tmp_path)
    for name in SURVIVAL_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_preset_files(pathlib.Path(tmp))
        for name in PRESET_NAMES:
            for suffix in ("csv", "svg"):
                path = GOLDEN_DIR / f"preset_{name}.{suffix}"
                path.write_bytes((pathlib.Path(tmp) / f"{name}.{suffix}").read_bytes())
                print(f"wrote {path}")
    write_survival_curve(GOLDEN_DIR)
    print(f"wrote {', '.join(str(GOLDEN_DIR / name) for name in SURVIVAL_FILES)}")
