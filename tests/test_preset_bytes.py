"""Golden bytes of every figure preset's CSV at resolution 7, and of the
40-point survival curve's CSV and SVG.

Unlike ``test_golden.py`` these run the whole pipeline, drift and
diffusion build, Lyapunov solve and negativities (and for the survival
curve the threshold bisection), so any change that moves an output at
9 significant digits fails here. The expected files are
``tests/golden/preset_<name>.csv`` and ``survival_temperature.csv`` and
``.svg`` there. Regenerate them with ``python tests/test_preset_bytes.py``
only when an output change is intended, and record that change.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from cavmag.cli import main
from cavmag.sweep import PRESET_NAMES, emit_csv, figure_preset, run_sweep

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


def write_survival_curve(out_dir: pathlib.Path) -> None:
    """``cavmag threshold --r-range 0.05 2 40 --tmax 3 --out-dir out_dir``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*SURVIVAL_ARGV, str(out_dir)]) == 0


def test_survival_curve_bytes_match_golden(tmp_path):
    write_survival_curve(tmp_path)
    for name in SURVIVAL_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    for name in PRESET_NAMES:
        path = GOLDEN_DIR / f"preset_{name}.csv"
        path.write_bytes(preset_csv(name).encode("utf-8"))
        print(f"wrote {path}")
    write_survival_curve(GOLDEN_DIR)
    print(f"wrote {', '.join(str(GOLDEN_DIR / name) for name in SURVIVAL_FILES)}")
